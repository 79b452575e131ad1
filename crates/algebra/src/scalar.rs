//! Scalar expressions: the row-level expression language of the algebra.
//!
//! Scalars appear in selection predicates, projection lists, join conditions,
//! sort keys and aggregate arguments. The same representation is rendered to
//! SQL by [`crate::render`] and evaluated over rows by the `dbms` crate.
//!
//! Floats are stored by their bit pattern (see [`Lit::F64`] / [`F64Bits`]) so
//! that scalar expressions are `Eq + Hash` and can be hash-consed into the
//! ee-DAG (paper Sec. 3.3: nodes are looked up by a composite id in a hash
//! table).

use std::fmt;

use crate::ra::RaExpr;

/// A literal constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lit {
    /// SQL `NULL`.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// 64-bit integer literal.
    Int(i64),
    /// Double-precision float, stored as raw bits for `Eq`/`Hash`.
    F64(F64Bits),
    /// String literal.
    Str(String),
}

impl Lit {
    /// Construct a float literal from an `f64`.
    pub fn float(v: f64) -> Self {
        Lit::F64(F64Bits::from(v))
    }

    /// True if this literal is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Lit::Null)
    }
}

/// An `f64` wrapped by bit pattern so it can implement `Eq` and `Hash`.
///
/// NaNs with different payloads compare unequal, which is acceptable for
/// hash-consing (it only costs a duplicate node, never a wrong merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct F64Bits(u64);

impl From<f64> for F64Bits {
    fn from(v: f64) -> Self {
        F64Bits(v.to_bits())
    }
}

impl F64Bits {
    /// Recover the `f64` value.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Null => write!(f, "NULL"),
            Lit::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Lit::Int(i) => write!(f, "{i}"),
            Lit::F64(v) => write!(f, "{}", v.get()),
            Lit::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// A reference to a column of some relation in scope.
///
/// `qualifier` is a relation alias (e.g. `b` in `FROM board AS b`); it is
/// optional when the column name is unambiguous. During correlation
/// (`OUTER APPLY`, Rule T7) inner expressions refer to outer columns with
/// ordinary `ColRef`s whose qualifier names the outer relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// Optional relation alias qualifying the column.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// An unqualified column reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColRef {
            qualifier: None,
            column: column.into(),
        }
    }

    /// A qualified column reference `qualifier.column`.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Binary operators available in scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition (`+`), also string concatenation is [`ScalarFunc::Concat`].
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Division (`/`).
    Div,
    /// Modulo (`%`).
    Mod,
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Less-or-equal (`<=`).
    Le,
    /// Greater-than (`>`).
    Gt,
    /// Greater-or-equal (`>=`).
    Ge,
    /// Logical conjunction (`AND`).
    And,
    /// Logical disjunction (`OR`).
    Or,
}

impl BinOp {
    /// True for comparison operators returning a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// The mirrored comparison: `a OP b` ⇔ `b (OP.flip()) a`.
    ///
    /// Used by the D-IR normalization of `if (v OP expr)` min/max patterns
    /// (paper Sec. 4.2, last paragraph).
    pub fn flip(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Eq,
            BinOp::Ne => BinOp::Ne,
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
    /// `IS NULL` test.
    IsNull,
    /// `IS NOT NULL` test.
    IsNotNull,
}

/// Builtin scalar functions understood by the renderer and evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarFunc {
    /// Maximum of its arguments (`GREATEST` in PostgreSQL/MySQL).
    Greatest,
    /// Minimum of its arguments (`LEAST`).
    Least,
    /// Absolute value.
    Abs,
    /// String concatenation.
    Concat,
    /// Lower-case a string.
    Lower,
    /// Upper-case a string.
    Upper,
    /// String length.
    Length,
    /// Null coalescing (`COALESCE`).
    Coalesce,
}

impl ScalarFunc {
    /// Canonical SQL name (dialect differences handled in `render`).
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Greatest => "GREATEST",
            ScalarFunc::Least => "LEAST",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Concat => "CONCAT",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Coalesce => "COALESCE",
        }
    }
}

/// A scalar (row-level) expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// Literal constant.
    Lit(Lit),
    /// Column reference.
    Col(ColRef),
    /// Positional query parameter (the `i`-th `?` of the source query).
    ///
    /// In extracted queries, parameters are bound to *program-input
    /// expressions* resolved by the D-IR (paper Sec. 1, "Enhancing
    /// applicability of existing techniques").
    Param(usize),
    /// Binary operation.
    Bin(BinOp, Box<Scalar>, Box<Scalar>),
    /// Unary operation.
    Un(UnOp, Box<Scalar>),
    /// Builtin scalar function call.
    Func(ScalarFunc, Vec<Scalar>),
    /// `CASE WHEN c1 THEN v1 [WHEN …] ELSE e END`.
    Case {
        /// `(condition, value)` arms, evaluated in order.
        arms: Vec<(Scalar, Scalar)>,
        /// The `ELSE` value.
        otherwise: Box<Scalar>,
    },
    /// `EXISTS (subquery)` — the subquery may be correlated.
    Exists(Box<RaExpr>),
    /// A scalar subquery returning a single value (first column of the
    /// first row, `NULL` when empty).
    Subquery(Box<RaExpr>),
}

impl Scalar {
    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Self {
        Scalar::Lit(Lit::Int(v))
    }

    /// Shorthand for a string literal.
    pub fn str(v: impl Into<String>) -> Self {
        Scalar::Lit(Lit::Str(v.into()))
    }

    /// Shorthand for a boolean literal.
    pub fn bool(v: bool) -> Self {
        Scalar::Lit(Lit::Bool(v))
    }

    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Self {
        Scalar::Col(ColRef::new(name))
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(q: impl Into<String>, name: impl Into<String>) -> Self {
        Scalar::Col(ColRef::qualified(q, name))
    }

    /// Build `self AND other`, simplifying `TRUE` operands.
    pub fn and(self, other: Scalar) -> Scalar {
        match (self, other) {
            (Scalar::Lit(Lit::Bool(true)), o) => o,
            (s, Scalar::Lit(Lit::Bool(true))) => s,
            (s, o) => Scalar::Bin(BinOp::And, Box::new(s), Box::new(o)),
        }
    }

    /// Build `self OR other`, simplifying `FALSE` operands.
    pub fn or(self, other: Scalar) -> Scalar {
        match (self, other) {
            (Scalar::Lit(Lit::Bool(false)), o) => o,
            (s, Scalar::Lit(Lit::Bool(false))) => s,
            (s, o) => Scalar::Bin(BinOp::Or, Box::new(s), Box::new(o)),
        }
    }

    /// Build a binary comparison.
    pub fn cmp(op: BinOp, l: Scalar, r: Scalar) -> Scalar {
        Scalar::Bin(op, Box::new(l), Box::new(r))
    }

    /// Visit every node of the expression tree (pre-order), not entering
    /// subqueries.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Scalar)) {
        f(self);
        match self {
            Scalar::Lit(_) | Scalar::Col(_) | Scalar::Param(_) => {}
            Scalar::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Scalar::Un(_, e) => e.walk(f),
            Scalar::Func(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Scalar::Case { arms, otherwise } => {
                for (c, v) in arms {
                    c.walk(f);
                    v.walk(f);
                }
                otherwise.walk(f);
            }
            Scalar::Exists(_) | Scalar::Subquery(_) => {}
        }
    }

    /// Rewrite the expression bottom-up with `f`.
    pub fn map(&self, f: &mut impl FnMut(Scalar) -> Scalar) -> Scalar {
        let rebuilt = match self {
            Scalar::Lit(_) | Scalar::Col(_) | Scalar::Param(_) => self.clone(),
            Scalar::Bin(op, l, r) => Scalar::Bin(*op, Box::new(l.map(f)), Box::new(r.map(f))),
            Scalar::Un(op, e) => Scalar::Un(*op, Box::new(e.map(f))),
            Scalar::Func(func, args) => {
                Scalar::Func(*func, args.iter().map(|a| a.map(f)).collect())
            }
            Scalar::Case { arms, otherwise } => Scalar::Case {
                arms: arms.iter().map(|(c, v)| (c.map(f), v.map(f))).collect(),
                otherwise: Box::new(otherwise.map(f)),
            },
            Scalar::Exists(q) => Scalar::Exists(q.clone()),
            Scalar::Subquery(q) => Scalar::Subquery(q.clone()),
        };
        f(rebuilt)
    }

    /// Collect the columns referenced by this expression (not descending into
    /// subqueries, whose column scope differs).
    pub fn columns(&self) -> Vec<ColRef> {
        let mut out = Vec::new();
        self.walk(&mut |s| {
            if let Scalar::Col(c) = s {
                out.push(c.clone());
            }
        });
        out
    }

    /// Highest parameter index used, if any (not descending into subqueries).
    pub fn max_param(&self) -> Option<usize> {
        let mut max = None;
        self.walk(&mut |s| {
            if let Scalar::Param(i) = s {
                max = Some(max.map_or(*i, |m: usize| m.max(*i)));
            }
        });
        max
    }

    /// Substitute every `Param(i)` with `subs[i]` (clones when out of range).
    pub fn substitute_params(&self, subs: &[Scalar]) -> Scalar {
        self.map(&mut |s| match s {
            Scalar::Param(i) if i < subs.len() => subs[i].clone(),
            other => other,
        })
    }
}

impl From<Lit> for Scalar {
    fn from(l: Lit) -> Self {
        Scalar::Lit(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_display_escapes_quotes() {
        assert_eq!(Lit::Str("o'clock".into()).to_string(), "'o''clock'");
        assert_eq!(Lit::Int(42).to_string(), "42");
        assert_eq!(Lit::Null.to_string(), "NULL");
        assert_eq!(Lit::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn float_bits_roundtrip() {
        let l = Lit::float(3.25);
        match l {
            Lit::F64(b) => assert_eq!(b.get(), 3.25),
            _ => panic!("expected float"),
        }
    }

    #[test]
    fn and_simplifies_true() {
        let p = Scalar::cmp(BinOp::Gt, Scalar::col("x"), Scalar::int(0));
        assert_eq!(Scalar::bool(true).and(p.clone()), p);
        assert_eq!(p.clone().and(Scalar::bool(true)), p);
    }

    #[test]
    fn or_simplifies_false() {
        let p = Scalar::cmp(BinOp::Eq, Scalar::col("x"), Scalar::int(1));
        assert_eq!(Scalar::bool(false).or(p.clone()), p);
        assert_eq!(p.clone().or(Scalar::bool(false)), p);
    }

    #[test]
    fn columns_collects_qualified_and_unqualified() {
        let e = Scalar::cmp(
            BinOp::Lt,
            Scalar::qcol("t", "a"),
            Scalar::Bin(
                BinOp::Add,
                Box::new(Scalar::col("b")),
                Box::new(Scalar::int(1)),
            ),
        );
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], ColRef::qualified("t", "a"));
        assert_eq!(cols[1], ColRef::new("b"));
    }

    #[test]
    fn substitute_params_replaces_in_place() {
        let e = Scalar::cmp(BinOp::Eq, Scalar::col("id"), Scalar::Param(0));
        let out = e.substitute_params(&[Scalar::int(7)]);
        assert_eq!(
            out,
            Scalar::cmp(BinOp::Eq, Scalar::col("id"), Scalar::int(7))
        );
    }

    #[test]
    fn flip_mirrors_comparisons() {
        assert_eq!(BinOp::Lt.flip(), Some(BinOp::Gt));
        assert_eq!(BinOp::Ge.flip(), Some(BinOp::Le));
        assert_eq!(BinOp::Eq.flip(), Some(BinOp::Eq));
        assert_eq!(BinOp::Add.flip(), None);
    }

    #[test]
    fn max_param_tracks_highest() {
        let e = Scalar::Bin(
            BinOp::Add,
            Box::new(Scalar::Param(2)),
            Box::new(Scalar::Param(0)),
        );
        assert_eq!(e.max_param(), Some(2));
        assert_eq!(Scalar::int(1).max_param(), None);
    }
}
