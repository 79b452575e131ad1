//! Forward reaching-definitions analysis on the CFG, built on the monotone
//! framework in [`crate::dataflow`].
//!
//! A *definition site* is `(variable, Some(stmt))` for a statement that may
//! write the variable, or `(variable, None)` for a function parameter (the
//! definition "before the function body"). The lattice is the powerset of
//! definition sites with union as join.
//!
//! Kill precision follows [`crate::defuse`]'s conventions:
//!
//! * a plain `Assign` *strongly* kills every other definition of its
//!   target — after `x = e;` only that site defines `x`;
//! * partial definitions (`c.add(x)`, helpers that mutate an argument, the
//!   cursor variable of a `for` header) are *gen-only*: the old value may
//!   survive, so prior sites stay in the set.
//!
//! Used by the loop-query lints ([`crate::loopquery`]) to decide whether a
//! query argument is loop-invariant, and generally useful for def-use
//! chain construction.

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{Function, Stmt, StmtId, StmtKind};

use crate::dataflow::{self, Analysis, Direction};
use crate::defuse::{DefUse, DefUseCtx};

/// One definition site: the variable and the statement that may define it
/// (`None` = the function-entry definition of a parameter).
pub type DefSite = (Symbol, Option<StmtId>);

/// Per-statement reaching-definitions results.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    sol: dataflow::Solution<BTreeSet<DefSite>>,
}

/// The dataflow client.
struct ReachAnalysis<'a> {
    ctx: &'a DefUseCtx,
}

impl Analysis for ReachAnalysis<'_> {
    type Fact = BTreeSet<DefSite>;

    fn name(&self) -> &'static str {
        "reaching-defs"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn boundary(&self, f: &Function) -> Self::Fact {
        f.params.iter().map(|p| (*p, None)).collect()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).cloned().collect()
    }

    fn transfer_stmt(&self, s: &Stmt, fact: &Self::Fact) -> Self::Fact {
        let mut out = fact.clone();
        if let StmtKind::Assign { target, .. } = &s.kind {
            out.retain(|(v, _)| v != target);
            out.insert((*target, Some(s.id)));
            return out;
        }
        // Everything else gens without killing (partial definitions).
        for d in DefUse::of_stmt_in(s, self.ctx).defs {
            out.insert((d, Some(s.id)));
        }
        out
    }

    fn height(&self, f: &Function) -> usize {
        // At most one site per (statement, defined variable) pair plus the
        // parameters; statements × variables is a safe overcount.
        let stmts = dataflow::stmt_index(f).len();
        let vars = dataflow::variable_universe(f).len().max(1);
        stmts * vars + f.params.len() + 1
    }
}

impl ReachingDefs {
    /// Compute reaching definitions with the default (summary-free,
    /// conservative) def/use context.
    pub fn compute(f: &Function) -> ReachingDefs {
        ReachingDefs::compute_in(f, &DefUseCtx::default())
    }

    /// Compute reaching definitions with interprocedural effect summaries
    /// (mutated-argument escapes become gen-only definition sites).
    pub fn compute_in(f: &Function, ctx: &DefUseCtx) -> ReachingDefs {
        let a = ReachAnalysis { ctx };
        ReachingDefs {
            sol: dataflow::solve(&a, f),
        }
    }

    /// Definition sites reaching the program point just before `id`
    /// (empty when the statement is unknown).
    pub fn before(&self, id: StmtId) -> BTreeSet<DefSite> {
        self.sol.before(id).cloned().unwrap_or_default()
    }

    /// The statements that may have defined `var` last, observed just
    /// before `id`. `None` entries mean the parameter definition reaches.
    pub fn defs_of(&self, id: StmtId, var: Symbol) -> BTreeSet<Option<StmtId>> {
        self.before(id)
            .into_iter()
            .filter(|(v, _)| *v == var)
            .map(|(_, site)| site)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn reach(src: &str) -> (imp::ast::Function, ReachingDefs) {
        let p = parse_program(src).unwrap();
        let f = p.functions[0].clone();
        let r = ReachingDefs::compute(&f);
        (f, r)
    }

    #[test]
    fn assign_strongly_kills() {
        let (f, r) = reach("fn f() { x = 1; x = 2; y = x; }");
        let s_y = f.body.stmts[2].id;
        let sites = r.defs_of(s_y, Symbol::intern("x"));
        assert_eq!(sites, BTreeSet::from([Some(f.body.stmts[1].id)]));
    }

    #[test]
    fn params_reach_until_killed() {
        let (f, r) = reach("fn f(a) { x = a; a = 2; y = a; }");
        assert_eq!(
            r.defs_of(f.body.stmts[0].id, Symbol::intern("a")),
            BTreeSet::from([None]),
            "the parameter definition reaches the first use"
        );
        assert_eq!(
            r.defs_of(f.body.stmts[2].id, Symbol::intern("a")),
            BTreeSet::from([Some(f.body.stmts[1].id)])
        );
    }

    #[test]
    fn branches_merge_by_union() {
        let (f, r) = reach("fn f(c) { if (c > 0) { x = 1; } else { x = 2; } y = x; }");
        let s_y = f.body.stmts[1].id;
        assert_eq!(r.defs_of(s_y, Symbol::intern("x")).len(), 2);
    }

    #[test]
    fn loop_body_defs_reach_around_the_back_edge() {
        let (f, r) = reach("fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }");
        let StmtKind::ForEach { body, .. } = &f.body.stmts[1].kind else {
            panic!("expected loop");
        };
        let upd = body.stmts[0].id;
        let sites = r.defs_of(upd, Symbol::intern("s"));
        assert!(sites.contains(&Some(f.body.stmts[0].id)), "init reaches");
        assert!(sites.contains(&Some(upd)), "own update reaches around");
    }

    #[test]
    fn mutating_method_is_gen_only() {
        let (f, r) = reach("fn f() { c = list(); c.add(1); n = c.size(); }");
        let s_n = f.body.stmts[2].id;
        let sites = r.defs_of(s_n, Symbol::intern("c"));
        assert_eq!(sites.len(), 2, "init and partial def both reach: {sites:?}");
    }
}
