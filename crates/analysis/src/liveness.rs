//! Backward live-variable analysis, solved on the CFG by the monotone
//! framework in [`crate::dataflow`].
//!
//! Used by [`crate::deadcode`] to find statements rendered dead after SQL
//! extraction (paper Sec. 5.2), and by the extractor to skip accumulators
//! that are dead after their loop. The lattice is the powerset of the
//! function's variables with union as join; transfers are the classic
//! `(live − def) ∪ use` with three `imp`-specific refinements:
//!
//! * an `Assign` whose RHS reads the target (`s = s + x`) keeps the use —
//!   only pure defs kill liveness;
//! * `c.add(x);` is a *partial def* of `c`: we neither kill nor use the
//!   receiver — the mutation matters only if `c` is read downstream (this
//!   "faint variable" treatment lets dead loop-carried mutation cycles be
//!   swept; the DDG keeps the read-modify-write view);
//! * `return` kills everything (including `extra_live_out`) except the
//!   returned expression's reads.
//!
//! It is solved as a bit-vector problem. One pass over the function's
//! [`StmtIndex`] and CFG numbers its variables densely and summarizes every
//! statement and terminator as a gen/kill mask pair, so a worklist visit
//! computes `(live − kill) ∪ gen` on [`BitSet`]s: no `DefUse` or
//! `Expr::vars` call, and no allocation for functions of up to 128
//! variables.
//!
//! Solving on the CFG makes `break`/`continue` paths exact (the structured
//! predecessor implementation, kept as a test oracle in [`reference`],
//! conservatively treated them as fall-through) and keeps loop-header
//! reads — `while` conditions and `for` iterables — live around back
//! edges, which the oracle under-approximated. An `If` statement's id
//! rides in its branching block, so its fact is the one at the condition;
//! no consumer queries it.

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{Expr, Function, Stmt, StmtId, StmtKind};

use crate::cfg::{BlockId, Cfg, Terminator};
use crate::dataflow::{self, Analysis, BitSet, Direction, StmtIndex};

/// Per-statement liveness results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Liveness {
    /// The function's variables by bit: bit `i` of a fact is `vars[i]`.
    /// Sorted by interned index, so a lookup compares integers.
    vars: Vec<Symbol>,
    /// Statement ids, ascending; `live_after[i]` belongs to `ids[i]`.
    ids: Vec<StmtId>,
    /// Variables live immediately *after* each statement (program order;
    /// for a loop statement: after the whole loop).
    live_after: Vec<BitSet>,
}

/// What a transfer kills, before variables are numbered.
#[derive(Clone, Copy)]
enum Kill {
    Nothing,
    Var(Symbol),
    All,
}

/// A transfer as masks: `live_before = (live_after − kill) ∪ gen`.
#[derive(Debug, Clone)]
struct GenKill {
    gen: BitSet,
    kill: BitSet,
}

impl GenKill {
    fn new(vars: &[Symbol], gen: &[Symbol], kill: Kill) -> GenKill {
        let mut mask = GenKill {
            gen: BitSet::with_capacity(vars.len()),
            kill: BitSet::with_capacity(vars.len()),
        };
        for v in gen {
            mask.gen.insert(bit(vars, *v));
        }
        match kill {
            Kill::Nothing => {}
            Kill::Var(v) => mask.kill.insert(bit(vars, v)),
            Kill::All => mask.kill = BitSet::full(vars.len()),
        }
        mask
    }

    fn apply(&self, live: &BitSet) -> BitSet {
        let mut out = live.clone();
        out.difference_with(&self.kill);
        out.union_with(&self.gen);
        out
    }
}

/// The bit of `v` in the numbering `vars`.
fn bit(vars: &[Symbol], v: Symbol) -> usize {
    vars.binary_search_by_key(&v.index(), |x| x.index())
        .unwrap_or_else(|_| panic!("liveness: variable `{v}` is not numbered"))
}

/// Push every variable `e` mentions onto `out`.
fn reads(e: &Expr, out: &mut Vec<Symbol>) {
    e.walk(&mut |x| {
        if let Expr::Var(v) = x {
            out.push(*v);
        }
    });
}

/// Push the variables statement `s` makes live onto `gen` and return what
/// it kills.
fn stmt_effect(s: &Stmt, gen: &mut Vec<Symbol>) -> Kill {
    match &s.kind {
        // Nothing after a return is live through it (the `Return`
        // terminator does the same; both are idempotent).
        StmtKind::Return(v) => {
            if let Some(v) = v {
                reads(v, gen);
            }
            Kill::All
        }
        StmtKind::ForEach { var, iterable, .. } => {
            reads(iterable, gen);
            Kill::Var(*var)
        }
        StmtKind::Expr(Expr::MethodCall { recv, name, args })
            if crate::defuse::MUTATING_METHODS.contains(&name.as_str())
                && matches!(recv.as_ref(), Expr::Var(_)) =>
        {
            for a in args {
                reads(a, gen);
            }
            Kill::Nothing
        }
        // Everything else is `(live − (defs − uses)) ∪ uses` over
        // `DefUse::of_stmt`. Its uses are every variable the statement's
        // own expressions mention, and the only def that is not also a use
        // is an assignment's target (a mutated receiver is read too).
        // Killing the target unconditionally is the same transfer, since
        // gen is applied after kill and re-adds a target the RHS reads. A
        // `While` id lands here with its condition, which the `Branch`
        // terminator reads again.
        StmtKind::Assign { target, value } => {
            reads(value, gen);
            Kill::Var(*target)
        }
        StmtKind::Expr(e) | StmtKind::If { cond: e, .. } | StmtKind::While { cond: e, .. } => {
            reads(e, gen);
            Kill::Nothing
        }
        StmtKind::Print(es) => {
            for e in es {
                reads(e, gen);
            }
            Kill::Nothing
        }
        StmtKind::Break | StmtKind::Continue => Kill::Nothing,
    }
}

/// [`stmt_effect`] for a block terminator.
fn terminator_effect(t: &Terminator, gen: &mut Vec<Symbol>) -> Kill {
    match t {
        Terminator::Branch { cond, .. } => {
            reads(cond, gen);
            Kill::Nothing
        }
        Terminator::Return(v) => {
            if let Some(v) = v {
                reads(v, gen);
            }
            Kill::All
        }
        Terminator::ForDispatch { .. } | Terminator::Goto(_) | Terminator::End => Kill::Nothing,
    }
}

/// The dataflow client: backward, bitset-of-variables lattice.
struct LiveAnalysis {
    /// Bit numbering (see [`Liveness::vars`]).
    vars: Vec<Symbol>,
    /// One mask per statement position, then one per block terminator.
    masks: Vec<GenKill>,
    /// Number of statements (the terminator masks start here).
    stmts: usize,
    /// Variables live at function exit besides `return` reads.
    boundary: BitSet,
}

impl LiveAnalysis {
    /// Number the variables and summarize every statement and terminator
    /// in one pass.
    fn new(cfg: &Cfg, index: &StmtIndex<'_>, extra_live_out: &BTreeSet<Symbol>) -> LiveAnalysis {
        let mut effects = Vec::with_capacity(index.len() + cfg.blocks.len());
        // Room for a few reads per statement and terminator, so the buffer
        // rarely grows.
        let mut gen = Vec::with_capacity(4 * effects.capacity());
        for (_, s) in index.iter() {
            let kill = stmt_effect(s, &mut gen);
            effects.push((gen.len(), kill));
        }
        for b in &cfg.blocks {
            let kill = match &b.terminator {
                Some(t) => terminator_effect(t, &mut gen),
                None => Kill::Nothing,
            };
            effects.push((gen.len(), kill));
        }

        let mut vars = Vec::with_capacity(gen.len() + effects.len() + extra_live_out.len());
        vars.extend(&gen);
        vars.extend(effects.iter().filter_map(|(_, k)| match k {
            Kill::Var(v) => Some(*v),
            _ => None,
        }));
        vars.extend(extra_live_out);
        vars.sort_unstable_by_key(|v| v.index());
        vars.dedup();

        let mut start = 0;
        let masks = effects
            .into_iter()
            .map(|(end, kill)| {
                let mask = GenKill::new(&vars, &gen[start..end], kill);
                start = end;
                mask
            })
            .collect();
        let mut boundary = BitSet::with_capacity(vars.len());
        for v in extra_live_out {
            boundary.insert(bit(&vars, *v));
        }
        LiveAnalysis {
            vars,
            masks,
            stmts: index.len(),
            boundary,
        }
    }
}

impl Analysis for LiveAnalysis {
    type Fact = BitSet;

    fn name(&self) -> &'static str {
        "liveness"
    }

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> BitSet {
        BitSet::with_capacity(self.vars.len())
    }

    fn boundary(&self, _f: &Function) -> BitSet {
        self.boundary.clone()
    }

    fn join(&self, a: &BitSet, b: &BitSet) -> BitSet {
        let mut out = a.clone();
        out.union_with(b);
        out
    }

    fn transfer_stmt(&self, s: &Stmt, live_after: &BitSet) -> BitSet {
        let mut gen = Vec::new();
        let kill = stmt_effect(s, &mut gen);
        GenKill::new(&self.vars, &gen, kill).apply(live_after)
    }

    fn transfer_stmt_at(&self, pos: usize, _s: &Stmt, live_after: &BitSet) -> BitSet {
        self.masks[pos].apply(live_after)
    }

    fn transfer_terminator(&self, t: &Terminator, fact: &BitSet) -> BitSet {
        let mut gen = Vec::new();
        let kill = terminator_effect(t, &mut gen);
        GenKill::new(&self.vars, &gen, kill).apply(fact)
    }

    fn transfer_terminator_at(&self, b: BlockId, _t: &Terminator, fact: &BitSet) -> BitSet {
        self.masks[self.stmts + b.0].apply(fact)
    }

    fn height(&self, _f: &Function) -> usize {
        self.vars.len() + 1
    }
}

impl Liveness {
    /// Compute liveness for a function. `extra_live_out` names variables
    /// considered live at function exit besides those used by `return`
    /// (e.g. out-parameters of an inlined procedure).
    pub fn compute(f: &Function, extra_live_out: &BTreeSet<Symbol>) -> Liveness {
        let cfg = Cfg::build(f);
        let index = StmtIndex::build(f);
        let a = LiveAnalysis::new(&cfg, &index, extra_live_out);
        // A loop header's replayed fact is the live set at the loop *top*
        // (it joins the body's live-in); consumers want the program-order
        // set after the whole statement, which is the exit block's entry.
        let loop_exits: Vec<(usize, BlockId)> = cfg
            .blocks
            .iter()
            .filter_map(|b| {
                let pos = index.position(*b.stmts.last()?)?;
                match (&b.terminator, &index.stmt(pos).kind) {
                    (Some(Terminator::ForDispatch { exit, .. }), StmtKind::ForEach { .. }) => {
                        Some((pos, *exit))
                    }
                    (Some(Terminator::Branch { else_to, .. }), StmtKind::While { .. }) => {
                        Some((pos, *else_to))
                    }
                    _ => None,
                }
            })
            .collect();
        let sol = dataflow::solve_indexed(&a, f, &cfg, index);
        let mut live_after = sol.after;
        for (pos, exit) in loop_exits {
            live_after[pos] = sol.entry[exit.0].clone();
        }
        Liveness {
            vars: a.vars,
            ids: sol.ids,
            live_after,
        }
    }

    /// True when `var` is live just after statement `id`; false for an
    /// unknown statement or a variable the function never mentions.
    pub fn is_live_after(&self, id: StmtId, var: Symbol) -> bool {
        let Some(pos) = dataflow::position_of(&self.ids, id) else {
            return false;
        };
        self.vars
            .binary_search_by_key(&var.index(), |v| v.index())
            .is_ok_and(|b| self.live_after[pos].contains(b))
    }

    /// Variables live after statement `id`, empty set when unknown.
    pub fn after(&self, id: StmtId) -> BTreeSet<Symbol> {
        match dataflow::position_of(&self.ids, id) {
            Some(pos) => self.live_after[pos].iter().map(|b| self.vars[b]).collect(),
            None => BTreeSet::new(),
        }
    }
}

/// The pre-dataflow implementation over the structured AST, kept as a
/// test oracle for the framework port. It differs from the CFG solution in
/// two known, documented ways: break/continue are conservatively treated
/// as fall-through (the CFG is more precise there), and loop-header reads
/// are *not* propagated around back edges (the CFG is sound there: the
/// header re-reads its condition/iterable every iteration).
#[cfg(any(test, feature = "test-oracles"))]
pub mod reference {
    use super::*;
    use crate::defuse::DefUse;
    use imp::ast::Block;
    use std::collections::BTreeMap;

    /// Per-statement liveness results of the structured-AST oracle.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Liveness {
        /// Variables live immediately *after* each statement.
        pub live_after: BTreeMap<StmtId, BTreeSet<Symbol>>,
    }

    impl Liveness {
        /// Compute liveness for a function (structured recursion).
        pub fn compute(f: &Function, extra_live_out: &BTreeSet<Symbol>) -> Liveness {
            let mut l = Liveness::default();
            l.block(&f.body, extra_live_out.clone());
            l
        }

        /// Variables live after statement `id`, empty set when unknown.
        pub fn after(&self, id: StmtId) -> BTreeSet<Symbol> {
            self.live_after.get(&id).cloned().unwrap_or_default()
        }

        /// Process a block given the variables live after it; returns the
        /// variables live before it.
        fn block(&mut self, b: &Block, mut live: BTreeSet<Symbol>) -> BTreeSet<Symbol> {
            for s in b.stmts.iter().rev() {
                // Record (union, since loop bodies are visited repeatedly).
                self.live_after
                    .entry(s.id)
                    .or_default()
                    .extend(live.iter().cloned());
                live = self.stmt(s, live);
            }
            live
        }

        fn stmt(&mut self, s: &Stmt, live_after: BTreeSet<Symbol>) -> BTreeSet<Symbol> {
            match &s.kind {
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let t = self.block(then_branch, live_after.clone());
                    let e = self.block(else_branch, live_after);
                    let mut live: BTreeSet<Symbol> = t.union(&e).cloned().collect();
                    live.extend(cond.vars());
                    live
                }
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                } => {
                    // Fixpoint: body may propagate liveness around the back
                    // edge.
                    let mut live_out_body = live_after.clone();
                    loop {
                        let mut live_in_body = self.block(body, live_out_body.clone());
                        live_in_body.remove(var);
                        let merged: BTreeSet<Symbol> =
                            live_out_body.union(&live_in_body).cloned().collect();
                        if merged == live_out_body {
                            break;
                        }
                        live_out_body = merged;
                    }
                    let mut live = live_out_body;
                    live.remove(var);
                    live.extend(iterable.vars());
                    live
                }
                StmtKind::While { cond, body } => {
                    let mut live_out_body = live_after.clone();
                    loop {
                        let live_in_body = self.block(body, live_out_body.clone());
                        let merged: BTreeSet<Symbol> =
                            live_out_body.union(&live_in_body).cloned().collect();
                        if merged == live_out_body {
                            break;
                        }
                        live_out_body = merged;
                    }
                    let mut live = live_out_body;
                    live.extend(cond.vars());
                    live
                }
                StmtKind::Return(v) => {
                    // Nothing after a return is live through it.
                    let mut live = BTreeSet::new();
                    if let Some(v) = v {
                        live.extend(v.vars());
                    }
                    live
                }
                StmtKind::Expr(Expr::MethodCall { recv, name, args })
                    if crate::defuse::MUTATING_METHODS.contains(&name.as_str())
                        && matches!(recv.as_ref(), Expr::Var(_)) =>
                {
                    let mut live = live_after;
                    for a in args {
                        live.extend(a.vars());
                    }
                    live
                }
                _ => {
                    let du = DefUse::of_stmt(s);
                    let mut live = live_after;
                    for d in &du.defs {
                        if !du.uses.contains(d) {
                            live.remove(d);
                        }
                    }
                    live.extend(du.uses.iter().cloned());
                    live
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn live(src: &str) -> (imp::ast::Function, Liveness) {
        let p = parse_program(src).unwrap();
        let f = p.functions[0].clone();
        let l = Liveness::compute(&f, &BTreeSet::new());
        (f, l)
    }

    #[test]
    fn dead_after_last_use() {
        let (f, l) = live("fn f() { a = 1; b = a + 1; return b; }");
        let s_a = f.body.stmts[0].id;
        let s_b = f.body.stmts[1].id;
        assert!(l.after(s_a).contains(&Symbol::intern("a")));
        assert!(
            !l.after(s_b).contains(&Symbol::intern("a")),
            "a is dead after its last use"
        );
        assert!(l.after(s_b).contains(&Symbol::intern("b")));
    }

    #[test]
    fn unused_assignment_is_dead() {
        let (f, l) = live("fn f() { junk = 42; return 0; }");
        assert!(!l
            .after(f.body.stmts[0].id)
            .contains(&Symbol::intern("junk")));
    }

    #[test]
    fn loop_carried_liveness() {
        let (f, l) = live("fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }");
        // s is live after its own update (next iteration + return).
        let loop_stmt = &f.body.stmts[1];
        if let StmtKind::ForEach { body, .. } = &loop_stmt.kind {
            assert!(l.after(body.stmts[0].id).contains(&Symbol::intern("s")));
        } else {
            panic!("expected loop");
        }
        assert!(l.after(f.body.stmts[0].id).contains(&Symbol::intern("s")));
    }

    #[test]
    fn dead_accumulator_is_dead_after_its_loop() {
        let (f, l) = live("fn f() { s = 0; for (t in q) { s = s + t.x; } return 0; }");
        // The program-order fact after the whole loop must not include the
        // accumulator, even though it is live at the loop *top*.
        assert!(!l.after(f.body.stmts[1].id).contains(&Symbol::intern("s")));
    }

    #[test]
    fn branch_join_is_union() {
        let (f, l) =
            live("fn f(c) { a = 1; b = 2; if (c > 0) { r = a; } else { r = b; } return r; }");
        let s_b = f.body.stmts[1].id;
        let after_b = l.after(s_b);
        assert!(after_b.contains(&Symbol::intern("a")) && after_b.contains(&Symbol::intern("b")));
    }

    #[test]
    fn extra_live_out_respected() {
        let p = parse_program("fn f() { x = 1; }").unwrap();
        let f = p.functions[0].clone();
        let l = Liveness::compute(&f, &BTreeSet::from([Symbol::intern("x")]));
        assert!(l.after(f.body.stmts[0].id).contains(&Symbol::intern("x")));
        let l2 = Liveness::compute(&f, &BTreeSet::new());
        assert!(!l2.after(f.body.stmts[0].id).contains(&Symbol::intern("x")));
    }

    #[test]
    fn break_path_is_exact_on_the_cfg() {
        // `found` flows out of the loop along the break edge only; the
        // conservative oracle keeps it live around the back edge too, so
        // the CFG answer must still contain it after the assignment.
        let (f, l) = live(
            "fn f() { found = 0; for (t in q) { if (t.x > 0) { found = t.x; break; } } return found; }",
        );
        let loop_stmt = &f.body.stmts[1];
        let StmtKind::ForEach { body, .. } = &loop_stmt.kind else {
            panic!("expected loop");
        };
        let StmtKind::If { then_branch, .. } = &body.stmts[0].kind else {
            panic!("expected if");
        };
        assert!(l
            .after(then_branch.stmts[0].id)
            .contains(&Symbol::intern("found")));
    }

    #[test]
    fn while_cond_vars_stay_live_through_the_body() {
        // The limit is re-read by the condition at the next iteration, so
        // it must be live after its in-body update. The structured oracle
        // misses this (cond vars only surface at the loop entry), which is
        // exactly the under-approximation the CFG port repairs.
        let (f, l) = live(
            "fn f(n) { i = 0; lim = n; while (i < lim) { i = i + 1; lim = n - i; } return i; }",
        );
        let StmtKind::While { body, .. } = &f.body.stmts[2].kind else {
            panic!("expected while");
        };
        let upd = body.stmts[1].id;
        assert!(l.after(upd).contains(&Symbol::intern("lim")));
        let oracle = reference::Liveness::compute(&f, &BTreeSet::new());
        assert!(
            !oracle.after(upd).contains(&Symbol::intern("lim")),
            "the oracle under-approximates here; keep this assert as \
             documentation of why the port only refines it up to header reads"
        );
    }

    #[test]
    fn refines_structured_oracle_up_to_header_reads() {
        // Without break/continue the CFG solution is pointwise ⊇ the
        // structured oracle (same transfers, plus the loop-header reads —
        // `while` conditions and `for` iterables — that the header block
        // re-executes each iteration). Any surplus must be exactly such a
        // header read.
        let cases = [
            "fn f() { a = 1; b = a + 1; return b; }",
            "fn f(c) { a = 1; b = 2; if (c > 0) { r = a; } else { r = b; } return r; }",
            "fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }",
            "fn f() { s = 0; n = 0; for (t in q) { if (t.x > 0) { s = s + t.x; n = n + 1; } } return s + n; }",
            "fn f(lim) { i = 0; while (i < lim) { i = i + 1; } return i; }",
            "fn f() { c = list(); for (t in q) { c.add(t.x); } return c; }",
        ];
        for src in cases {
            let p = parse_program(src).unwrap();
            let f = &p.functions[0];
            let ported = Liveness::compute(f, &BTreeSet::new());
            let oracle = reference::Liveness::compute(f, &BTreeSet::new());
            let mut header_reads: BTreeSet<Symbol> = BTreeSet::new();
            for (_, s) in dataflow::stmt_index(f) {
                match &s.kind {
                    StmtKind::ForEach { iterable, .. } => header_reads.extend(iterable.vars()),
                    StmtKind::While { cond, .. } => header_reads.extend(cond.vars()),
                    _ => {}
                }
            }
            for (id, s) in dataflow::stmt_index(f) {
                // Return/break/continue `after` facts are junk in both
                // implementations and queried by nothing; If ids carry no
                // fact on the CFG. Compare the classes consumers query.
                if matches!(
                    s.kind,
                    StmtKind::Assign { .. }
                        | StmtKind::Expr(_)
                        | StmtKind::Print(_)
                        | StmtKind::ForEach { .. }
                        | StmtKind::While { .. }
                ) {
                    let p = ported.after(id);
                    let o = oracle.after(id);
                    assert!(
                        o.is_subset(&p),
                        "port lost liveness at {id} in {src}: {o:?} ⊄ {p:?}"
                    );
                    let surplus: BTreeSet<_> = p.difference(&o).cloned().collect();
                    assert!(
                        surplus.is_subset(&header_reads),
                        "unexplained surplus {surplus:?} at {id} in {src}"
                    );
                }
            }
        }
    }
}
