//! Recursive-descent parser for the `imp` language.

use std::fmt;

use crate::ast::{
    BinaryOp, Block, Expr, Function, Literal, Program, Stmt, StmtId, StmtKind, UnaryOp,
};
use crate::lexer::{lex, LexError};
use crate::token::{Keyword, Span, Token, TokenKind};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// How deeply a program may nest: expressions (each statement's
/// expression, parenthesis, call argument, unary operator and
/// `.field`/`.method()` suffix) and statements (each statement inside a
/// block or branch body) count one level each. A chain of binary
/// operators, such as `x + x + … + x`, parses in a loop but builds one
/// tree node per operator, so binary operators count by the height of the
/// tree they build: one level above the taller operand, except that the
/// operator at the top of an expression shares the level the expression
/// itself counts. Every later pass — normalization, analysis, extraction,
/// interpretation — recurses over the tree, so a program at this depth
/// runs through all of them on a 2 MiB thread stack; a deeper one is a
/// [`ParseError`] instead of a stack overflow.
pub const MAX_NESTING: usize = 96;

/// Parse a full program (a sequence of `fn` definitions).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
        peak: 0,
    };
    let mut functions = Vec::new();
    while !p.at(&TokenKind::Eof) {
        functions.push(p.function()?);
    }
    Ok(Program { functions })
}

/// The error for input nested past [`MAX_NESTING`], at byte `offset`.
fn too_deep(offset: usize) -> ParseError {
    ParseError {
        message: format!("nesting deeper than the limit of {MAX_NESTING} levels"),
        offset,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Nesting levels entered and not yet left (see [`MAX_NESTING`]).
    depth: usize,
    /// The deepest level the expression being parsed reaches (see
    /// [`Parser::chain`]).
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Kw(k) if *k == kw)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.span().start,
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found {}", kw.as_str(), self.peek())))
        }
    }

    fn ident(&mut self) -> Result<intern::Symbol, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Enter one nesting level, failing past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(too_deep(self.span().start));
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.enter()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let start = self.span();
        self.expect_kw(Keyword::Fn)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Function {
            name,
            params,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let id = self.fresh_id();
        let kind = match self.peek().clone() {
            TokenKind::Kw(Keyword::If) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_branch = self.block_or_single()?;
                let else_branch = if self.at_kw(Keyword::Else) {
                    self.bump();
                    if self.at_kw(Keyword::If) {
                        // `else if` — wrap the nested if in a block.
                        let nested = self.stmt()?;
                        Block {
                            stmts: vec![nested],
                        }
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Block::new()
                };
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            TokenKind::Kw(Keyword::For) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let var = self.ident()?;
                self.expect_kw(Keyword::In)?;
                let iterable = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block_or_single()?;
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                }
            }
            TokenKind::Kw(Keyword::While) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block_or_single()?;
                StmtKind::While { cond, body }
            }
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Kw(Keyword::Print) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Print(args)
            }
            TokenKind::Ident(name) if *self.peek2() == TokenKind::Eq => {
                self.bump();
                self.bump();
                let value = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Assign {
                    target: name,
                    value,
                }
            }
            _ => {
                let e = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Expr(e)
            }
        };
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Stmt { id, kind, span })
    }

    /// Either a braced block or a single statement (Java-style bodies).
    fn block_or_single(&mut self) -> Result<Block, ParseError> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(Block { stmts: vec![s] })
        }
    }

    // Expression grammar, lowest precedence first.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.or_expr()?;
        if self.at(&TokenKind::Question) {
            self.bump();
            let a = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let b = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    /// Parse `operand` and return it with its height: how many levels
    /// below the current depth its tree reaches.
    fn measured(
        &mut self,
        operand: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<(Expr, usize), ParseError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let e = operand(self)?;
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer);
        Ok((e, height))
    }

    /// A left-associative chain `operand (op operand)*`, where `op` maps a
    /// token to its operator. Each operator becomes a node one level above
    /// the taller of the chain so far and the next operand. A chain runs at
    /// its expression's level, which its top node shares, so its tree may
    /// reach one level past [`MAX_NESTING`]; the operator that would take
    /// it further fails. The height reported outward (`peak`) keeps that
    /// shared level, so the allowance is granted once per expression, not
    /// once per chain.
    fn chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr, ParseError> + Copy,
        op: impl Fn(&TokenKind) -> Option<BinaryOp>,
    ) -> Result<Expr, ParseError> {
        let (mut lhs, mut height) = self.measured(operand)?;
        while let Some(op) = op(self.peek()) {
            let at = self.bump().span.start;
            let (rhs, rhs_height) = self.measured(operand)?;
            height = height.max(rhs_height) + 1;
            if self.depth + height > MAX_NESTING + 1 {
                return Err(too_deep(at));
            }
            self.peak = self.peak.max(self.depth + height);
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::and_expr, |t| {
            matches!(t, TokenKind::OrOr).then_some(BinaryOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::equality, |t| {
            matches!(t, TokenKind::AndAnd).then_some(BinaryOp::And)
        })
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::relational, |t| match t {
            TokenKind::EqEq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::Ne),
            _ => None,
        })
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::additive, |t| match t {
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::Le => Some(BinaryOp::Le),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::Ge => Some(BinaryOp::Ge),
            _ => None,
        })
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::multiplicative, |t| match t {
            TokenKind::Plus => Some(BinaryOp::Add),
            TokenKind::Minus => Some(BinaryOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::unary, |t| match t {
            TokenKind::Star => Some(BinaryOp::Mul),
            TokenKind::Slash => Some(BinaryOp::Div),
            TokenKind::Percent => Some(BinaryOp::Mod),
            _ => None,
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(e)))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(Expr::Unary(UnaryOp::Not, Box::new(e)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        // Each suffix nests the expression so far one level deeper. (An
        // error ends the parse, so no path but this one restores `depth`.)
        let depth = self.depth;
        while self.at(&TokenKind::Dot) {
            self.enter()?;
            self.bump();
            let name = self.ident()?;
            e = if self.at(&TokenKind::LParen) {
                let args = self.call_args()?;
                Expr::MethodCall {
                    recv: Box::new(e),
                    name,
                    args,
                }
            } else {
                Expr::Field(Box::new(e), name)
            };
        }
        self.depth = depth;
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Literal::Int(i)))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Lit(Literal::Float(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Literal::Str(s)))
            }
            TokenKind::Kw(Keyword::True) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(true)))
            }
            TokenKind::Kw(Keyword::False) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(false)))
            }
            TokenKind::Kw(Keyword::Null) => {
                self.bump();
                Ok(Expr::Lit(Literal::Null))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_find_max_score() {
        // The paper's Figure 2, expressed in `imp`.
        let src = r#"
            fn findMaxScore() {
                boards = executeQuery("SELECT * FROM board WHERE rnd_id = 1");
                scoreMax = 0;
                for (t in boards) {
                    p1 = t.p1;
                    p2 = t.p2;
                    p3 = t.p3;
                    p4 = t.p4;
                    score = max(p1, p2);
                    score = max(score, p3);
                    score = max(score, p4);
                    if (score > scoreMax)
                        scoreMax = score;
                }
                return scoreMax;
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "findMaxScore");
        assert_eq!(f.body.stmts.len(), 4);
        match &f.body.stmts[2].kind {
            StmtKind::ForEach { var, body, .. } => {
                assert_eq!(var, "t");
                assert_eq!(body.stmts.len(), 8);
            }
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    #[test]
    fn single_statement_bodies() {
        let p = parse_program("fn f() { if (x > 0) y = 1; else y = 2; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(then_branch.stmts.len(), 1);
                assert_eq!(else_branch.stmts.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let p =
            parse_program("fn f() { if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; } }")
                .unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::If { else_branch, .. } => {
                assert_eq!(else_branch.stmts.len(), 1);
                assert!(matches!(else_branch.stmts[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn method_calls_and_fields() {
        let p = parse_program("fn f() { names.add(u.name); n = names.size(); }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Expr(Expr::MethodCall { recv, name, args }) => {
                assert_eq!(**recv, Expr::var("names"));
                assert_eq!(name, "add");
                assert_eq!(
                    args[0],
                    Expr::Field(Box::new(Expr::var("u")), "name".into())
                );
            }
            other => panic!("expected method call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_binds_correctly() {
        let p = parse_program("fn f() { x = a + b * c > d && e; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Assign { value, .. } => {
                // ((a + (b*c)) > d) && e
                match value {
                    Expr::Binary(BinaryOp::And, l, _) => {
                        assert!(matches!(**l, Expr::Binary(BinaryOp::Gt, _, _)));
                    }
                    other => panic!("expected &&, got {other:?}"),
                }
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn ternary_expression() {
        let p = parse_program("fn f() { x = a > 0 ? a : 0 - a; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Assign {
                value: Expr::Ternary(..),
                ..
            } => {}
            other => panic!("expected ternary assign, got {other:?}"),
        }
    }

    #[test]
    fn statement_ids_are_unique_and_ordered() {
        let p = parse_program("fn f() { a = 1; b = 2; for (t in q) { c = 3; } }").unwrap();
        let b = &p.functions[0].body;
        assert!(b.stmts[0].id < b.stmts[1].id);
        match &b.stmts[2].kind {
            StmtKind::ForEach { body, .. } => assert!(b.stmts[2].id < body.stmts[0].id),
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("fn f() { x = ; }").unwrap_err();
        assert_eq!(err.offset, 13);
        assert!(err.message.contains("expected expression"));
    }

    #[test]
    fn print_statement() {
        let p = parse_program("fn f() { print(\"x=\", x); }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Print(args) => assert_eq!(args.len(), 2),
            other => panic!("expected print, got {other:?}"),
        }
    }

    #[test]
    fn break_and_continue() {
        let p = parse_program("fn f() { for (t in q) { if (t.x > 3) break; continue; } }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::ForEach { body, .. } => {
                assert!(matches!(body.stmts[1].kind, StmtKind::Continue));
            }
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    #[test]
    fn multiple_functions() {
        let p = parse_program("fn a() { return 1; } fn b(x, y) { return x; }").unwrap();
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[1].params, vec!["x", "y"]);
    }
}
