//! Property tests for the monotone dataflow framework
//! (`analysis::dataflow`) and the clients ported onto it.
//!
//! Three guarantees pin the framework down:
//!
//! 1. **Fixpoint order-independence.** `solve` schedules blocks by a
//!    reverse-postorder priority worklist; the least fixpoint of a monotone
//!    problem must not depend on that schedule. A naive chaotic-iteration
//!    solver re-visits blocks in freshly shuffled orders every sweep and
//!    must land on identical entry/exit facts for random programs.
//! 2. **Client monotonicity, end to end.** Enlarging the liveness boundary
//!    (`extra_live_out`) may only enlarge the solution pointwise — the
//!    observable consequence of `join`/transfer monotonicity.
//! 3. **Ported-vs-reference agreement.** On every corpus program the CFG
//!    port of liveness refines the structured reference oracle up to
//!    loop-header reads, and every reaching-definition site is a statement
//!    that can actually define the variable.
//!
//! A fourth check pins the bitset encoding of liveness down: on every
//! corpus, workload and seeded fuzz function it must equal, fact for fact,
//! the same problem solved by the framework over `BTreeSet<Symbol>` facts.

use std::collections::{BTreeMap, BTreeSet};

use analysis::cfg::{BlockId, Cfg, Terminator};
use analysis::dataflow::{self, Analysis, Direction};
use analysis::defuse::{DefUse, DefUseCtx};
use analysis::liveness::{reference, Liveness};
use analysis::reaching::ReachingDefs;
use imp::ast::{Block, Expr, Function, Stmt, StmtId, StmtKind};
use intern::Symbol;
use proptest::prelude::*;

// --- Random structured programs -----------------------------------------

/// A statement tree rendered to concrete syntax below. `Break`/`Continue`
/// only render inside a loop so the source always parses.
#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, u8),
    Acc(u8),
    If(Vec<GStmt>, Vec<GStmt>),
    While(Vec<GStmt>),
    For(Vec<GStmt>),
    Break,
    Continue,
    Ret,
}

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn expr(e: u8) -> &'static str {
    match e % 6 {
        0 => "0",
        1 => "1",
        2 => "a + 1",
        3 => "b + c",
        4 => "n",
        _ => "d",
    }
}

fn render(stmts: &[GStmt], out: &mut String, indent: usize, loop_depth: usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GStmt::Assign(v, e) => {
                out.push_str(&format!("{pad}{} = {};\n", VARS[*v as usize % 4], expr(*e)))
            }
            GStmt::Acc(v) => {
                let v = VARS[*v as usize % 4];
                out.push_str(&format!("{pad}{v} = {v} + 1;\n"));
            }
            GStmt::If(t, e) => {
                out.push_str(&format!("{pad}if (a < n) {{\n"));
                render(t, out, indent + 1, loop_depth);
                out.push_str(&format!("{pad}}} else {{\n"));
                render(e, out, indent + 1, loop_depth);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::While(b) => {
                out.push_str(&format!("{pad}while (b < n) {{\n"));
                render(b, out, indent + 1, loop_depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::For(b) => {
                out.push_str(&format!("{pad}for (t in rows) {{\n"));
                out.push_str(&format!("{pad}    c = c + t.salary;\n"));
                render(b, out, indent + 1, loop_depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::Break if loop_depth > 0 => out.push_str(&format!("{pad}break;\n")),
            GStmt::Continue if loop_depth > 0 => out.push_str(&format!("{pad}continue;\n")),
            GStmt::Break | GStmt::Continue => out.push_str(&format!("{pad}b = 1;\n")),
            GStmt::Ret => out.push_str(&format!("{pad}return a;\n")),
        }
    }
}

fn arb_program() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0u8..4, 0u8..6).prop_map(|(v, e)| GStmt::Assign(v, e)),
        (0u8..4).prop_map(GStmt::Acc),
        Just(GStmt::Break),
        Just(GStmt::Continue),
        Just(GStmt::Ret),
    ];
    let stmt = leaf.prop_recursive(3, 24, 4, |inner| {
        let block = proptest::collection::vec(inner, 1..4);
        prop_oneof![
            (block.clone(), block.clone()).prop_map(|(t, e)| GStmt::If(t, e)),
            block.clone().prop_map(GStmt::While),
            block.prop_map(GStmt::For),
        ]
    });
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        let mut body = String::new();
        render(&stmts, &mut body, 1, 0);
        format!(
            "fn g(n) {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    \
             a = 0;\n    b = 0;\n    c = 0;\n    d = 0;\n{body}    return a + b + c + d;\n}}"
        )
    })
}

fn parse(src: &str) -> Function {
    let p = imp::parser::parse_program(src)
        .unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}"));
    p.functions.into_iter().next().unwrap()
}

// --- Test-local analysis clients ----------------------------------------

/// Forward may-analysis: variables assigned a literal on some path.
struct ConstOnSomePath;

impl Analysis for ConstOnSomePath {
    type Fact = BTreeSet<Symbol>;
    fn name(&self) -> &'static str {
        "const-on-some-path"
    }
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).copied().collect()
    }
    fn transfer_stmt(&self, s: &Stmt, fact: &Self::Fact) -> Self::Fact {
        let mut out = fact.clone();
        if let StmtKind::Assign { target, value } = &s.kind {
            if matches!(value, Expr::Lit(_)) {
                out.insert(*target);
            } else {
                out.remove(target);
            }
        }
        out
    }
    fn height(&self, f: &Function) -> usize {
        dataflow::variable_universe(f).len() + 1
    }
}

/// Backward liveness-shaped analysis with kills on plain assignments.
struct UsedLater;

impl Analysis for UsedLater {
    type Fact = BTreeSet<Symbol>;
    fn name(&self) -> &'static str {
        "used-later"
    }
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).copied().collect()
    }
    fn transfer_stmt(&self, s: &Stmt, after: &Self::Fact) -> Self::Fact {
        let mut out = after.clone();
        let du = DefUse::of_stmt(s);
        if let StmtKind::Assign { target, .. } = &s.kind {
            out.remove(target);
        }
        out.extend(du.uses.iter().copied());
        out
    }
    fn transfer_terminator(&self, t: &Terminator, after: &Self::Fact) -> Self::Fact {
        let mut out = after.clone();
        match t {
            Terminator::Branch { cond, .. } => out.extend(cond.vars()),
            Terminator::ForDispatch { var, iterable, .. } => {
                out.remove(var);
                out.extend(iterable.vars());
            }
            Terminator::Return(Some(e)) => out.extend(e.vars()),
            _ => {}
        }
        out
    }
    fn height(&self, f: &Function) -> usize {
        dataflow::variable_universe(f).len() + 1
    }
}

// --- A naive chaotic-iteration reference solver -------------------------

/// Re-compute every block from its neighbours until nothing changes,
/// visiting blocks in a freshly shuffled order each sweep. Any schedule of
/// a monotone problem reaches the same least fixpoint as `solve`'s
/// priority worklist.
fn chaotic_solve<A: Analysis>(a: &A, f: &Function, seed: u64) -> (Vec<A::Fact>, Vec<A::Fact>) {
    let cfg = Cfg::build(f);
    let stmts = dataflow::stmt_index(f);
    let n = cfg.blocks.len();
    let forward = a.direction() == Direction::Forward;
    let mut entry: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    if forward {
        entry[cfg.start.0] = a.boundary(f);
    } else {
        exit[cfg.end.0] = a.boundary(f);
    }
    let preds = cfg.predecessors();

    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order: Vec<usize> = (0..n).collect();
    loop {
        for i in (1..n).rev() {
            order.swap(i, rng() as usize % (i + 1));
        }
        let mut changed = false;
        for &i in &order {
            let b = BlockId(i);
            if forward {
                let mut inp = if b == cfg.start {
                    a.boundary(f)
                } else {
                    a.bottom()
                };
                for p in &preds[i] {
                    inp = a.join(&inp, &exit[p.0]);
                }
                let out = transfer_block(a, &cfg, &stmts, b, inp.clone(), true);
                if inp != entry[i] || out != exit[i] {
                    changed = changed || out != exit[i] || inp != entry[i];
                    entry[i] = inp;
                    exit[i] = out;
                }
            } else {
                let mut inp = if b == cfg.end {
                    a.boundary(f)
                } else {
                    a.bottom()
                };
                for s in cfg.successors(b) {
                    inp = a.join(&inp, &entry[s.0]);
                }
                let out = transfer_block(a, &cfg, &stmts, b, inp.clone(), false);
                if inp != exit[i] || out != entry[i] {
                    changed = true;
                    exit[i] = inp;
                    entry[i] = out;
                }
            }
        }
        if !changed {
            return (entry, exit);
        }
    }
}

fn transfer_block<A: Analysis>(
    a: &A,
    cfg: &Cfg,
    stmts: &std::collections::BTreeMap<imp::ast::StmtId, &Stmt>,
    b: BlockId,
    input: A::Fact,
    forward: bool,
) -> A::Fact {
    let block = &cfg.blocks[b.0];
    let mut fact = input;
    if forward {
        for id in &block.stmts {
            if let Some(s) = stmts.get(id) {
                fact = a.transfer_stmt(s, &fact);
            }
        }
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator(t, &fact);
        }
    } else {
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator(t, &fact);
        }
        for id in block.stmts.iter().rev() {
            if let Some(s) = stmts.get(id) {
                fact = a.transfer_stmt(s, &fact);
            }
        }
    }
    fact
}

// --- Corpus helpers -----------------------------------------------------

fn corpus_programs() -> Vec<(String, imp::ast::Program)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpus");
    let mut out = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus is empty");
    for p in paths {
        let src = std::fs::read_to_string(&p).unwrap();
        let program = imp::parse_and_normalize(&src)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", p.display()));
        out.push((
            p.file_name().unwrap().to_string_lossy().into_owned(),
            program,
        ));
    }
    out
}

/// The oracle refinement contract only holds for structured control flow:
/// around `break`/`continue` the reference conservatively treats the rest
/// of the loop body as reachable, so neither solution contains the other.
fn has_abrupt_exit(f: &Function) -> bool {
    dataflow::stmt_index(f)
        .values()
        .any(|s| matches!(s.kind, StmtKind::Break | StmtKind::Continue))
}

fn header_reads(f: &Function) -> BTreeSet<Symbol> {
    let mut reads = BTreeSet::new();
    for (_, s) in dataflow::stmt_index(f) {
        match &s.kind {
            StmtKind::ForEach { iterable, .. } => reads.extend(iterable.vars()),
            StmtKind::While { cond, .. } => reads.extend(cond.vars()),
            _ => {}
        }
    }
    reads
}

// --- The properties -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The priority worklist and naive shuffled chaotic iteration agree on
    /// every block fact, forward and backward, on random structured
    /// programs (ifs, whiles, cursor loops, break/continue, mid returns).
    #[test]
    fn fixpoint_is_schedule_independent(src in arb_program(), seed in any::<u64>()) {
        let f = parse(&src);
        let fwd = dataflow::solve(&ConstOnSomePath, &f);
        let (entry, exit) = chaotic_solve(&ConstOnSomePath, &f, seed);
        prop_assert_eq!(&fwd.entry, &entry, "forward entry facts differ\n{}", &src);
        prop_assert_eq!(&fwd.exit, &exit, "forward exit facts differ\n{}", &src);

        let bwd = dataflow::solve(&UsedLater, &f);
        let (entry, exit) = chaotic_solve(&UsedLater, &f, seed.rotate_left(17));
        prop_assert_eq!(&bwd.entry, &entry, "backward entry facts differ\n{}", &src);
        prop_assert_eq!(&bwd.exit, &exit, "backward exit facts differ\n{}", &src);
    }

    /// Join monotonicity, observed end to end: a larger liveness boundary
    /// can only grow the per-statement facts, never shrink them.
    #[test]
    fn liveness_is_monotone_in_its_boundary(
        src in arb_program(),
        small in proptest::collection::vec(0usize..5, 0..3),
        extra in proptest::collection::vec(0usize..5, 0..3),
    ) {
        let universe = ["a", "b", "c", "d", "n"];
        let small: BTreeSet<Symbol> =
            small.iter().map(|i| Symbol::intern(universe[*i])).collect();
        let mut large = small.clone();
        large.extend(extra.iter().map(|i| Symbol::intern(universe[*i])));

        let f = parse(&src);
        let lo = Liveness::compute(&f, &small);
        let hi = Liveness::compute(&f, &large);
        for (id, _) in dataflow::stmt_index(&f) {
            let a = lo.after(id);
            let b = hi.after(id);
            prop_assert!(
                a.is_subset(&b),
                "boundary grew but fact shrank at {:?}: {:?} ⊄ {:?}\n{}",
                id, a, b, &src
            );
        }
    }

    /// The CFG-ported liveness refines the structured reference oracle on
    /// random programs: nothing the oracle proves live is lost, and any
    /// surplus is a loop-header read the oracle's single body pass misses.
    #[test]
    fn ported_liveness_refines_reference(src in arb_program()) {
        let f = parse(&src);
        if has_abrupt_exit(&f) {
            return;
        }
        let ported = Liveness::compute(&f, &BTreeSet::new());
        let oracle = reference::Liveness::compute(&f, &BTreeSet::new());
        let headers = header_reads(&f);
        for (id, s) in dataflow::stmt_index(&f) {
            if !matches!(
                s.kind,
                StmtKind::Assign { .. }
                    | StmtKind::Expr(_)
                    | StmtKind::Print(_)
                    | StmtKind::ForEach { .. }
                    | StmtKind::While { .. }
            ) {
                continue;
            }
            let p = ported.after(id);
            let o = oracle.after(id);
            prop_assert!(o.is_subset(&p), "port lost liveness at {:?}\n{}", id, &src);
            prop_assert!(
                p.difference(&o).all(|v| headers.contains(v)),
                "surplus at {:?} is not a header read: {:?} vs {:?}\n{}",
                id, p, o, &src
            );
        }
    }
}

/// The same refinement contract over the real corpus programs.
#[test]
fn ported_liveness_refines_reference_on_corpus() {
    for (name, program) in corpus_programs() {
        for f in &program.functions {
            if has_abrupt_exit(f) {
                continue;
            }
            let ported = Liveness::compute(f, &BTreeSet::new());
            let oracle = reference::Liveness::compute(f, &BTreeSet::new());
            let headers = header_reads(f);
            for (id, s) in dataflow::stmt_index(f) {
                if !matches!(
                    s.kind,
                    StmtKind::Assign { .. }
                        | StmtKind::Expr(_)
                        | StmtKind::Print(_)
                        | StmtKind::ForEach { .. }
                        | StmtKind::While { .. }
                ) {
                    continue;
                }
                let p = ported.after(id);
                let o = oracle.after(id);
                assert!(o.is_subset(&p), "{name}: port lost liveness at {id:?}");
                assert!(
                    p.difference(&o).all(|v| headers.contains(v)),
                    "{name}: surplus liveness at {id:?} is not a header read"
                );
            }
        }
    }
}

/// Reaching definitions on the corpus: every variable a statement reads is
/// covered by at least one reaching definition site, and every site in the
/// solution is a statement that can actually define the variable (or the
/// parameter pseudo-site).
#[test]
fn reaching_defs_cover_uses_on_corpus() {
    for (name, program) in corpus_programs() {
        let ctx = DefUseCtx::of_program(&program);
        for f in &program.functions {
            let reach = ReachingDefs::compute_in(f, &ctx);
            let stmts = dataflow::stmt_index(f);
            for (id, s) in &stmts {
                // `If` ids carry no CFG fact (their conditions live on
                // `Branch` terminators); everything else must be covered.
                if matches!(s.kind, StmtKind::If { .. }) {
                    continue;
                }
                for used in &DefUse::of_stmt_in(s, &ctx).uses {
                    assert!(
                        !reach.defs_of(*id, *used).is_empty(),
                        "{name}: no definition of `{used}` reaches {id:?}"
                    );
                }
                for (var, site) in reach.before(*id) {
                    let Some(site) = site else {
                        assert!(
                            f.params.contains(&var),
                            "{name}: entry site for non-parameter `{var}`"
                        );
                        continue;
                    };
                    let def_stmt = stmts[&site];
                    let defines = match &def_stmt.kind {
                        StmtKind::Assign { target, .. } => *target == var,
                        StmtKind::ForEach { var: v, .. } => {
                            *v == var || DefUse::of_stmt_in(def_stmt, &ctx).defs.contains(&var)
                        }
                        _ => DefUse::of_stmt_in(def_stmt, &ctx).defs.contains(&var),
                    };
                    assert!(
                        defines,
                        "{name}: site {site:?} cannot define `{var}` yet reaches {id:?}"
                    );
                }
            }
        }
    }
}

// --- Bitset liveness vs. a set-based client of the same framework -------

/// Liveness written over `BTreeSet<Symbol>` facts with `DefUse` and
/// `Expr::vars`: the transfers `analysis::liveness` encodes as gen/kill
/// bit masks.
struct SetLiveness {
    extra_live_out: BTreeSet<Symbol>,
}

impl Analysis for SetLiveness {
    type Fact = BTreeSet<Symbol>;
    fn name(&self) -> &'static str {
        "set-liveness"
    }
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn boundary(&self, _f: &Function) -> Self::Fact {
        self.extra_live_out.clone()
    }
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).copied().collect()
    }
    fn transfer_stmt(&self, s: &Stmt, after: &Self::Fact) -> Self::Fact {
        match &s.kind {
            StmtKind::Return(v) => v.iter().flat_map(|v| v.vars()).collect(),
            StmtKind::ForEach { var, iterable, .. } => {
                let mut live = after.clone();
                live.remove(var);
                live.extend(iterable.vars());
                live
            }
            StmtKind::Expr(Expr::MethodCall { recv, name, args })
                if analysis::defuse::MUTATING_METHODS.contains(&name.as_str())
                    && matches!(recv.as_ref(), Expr::Var(_)) =>
            {
                let mut live = after.clone();
                live.extend(args.iter().flat_map(|a| a.vars()));
                live
            }
            _ => {
                let du = DefUse::of_stmt(s);
                let mut live = after.clone();
                for d in &du.defs {
                    if !du.uses.contains(d) {
                        live.remove(d);
                    }
                }
                live.extend(du.uses.iter().copied());
                live
            }
        }
    }
    fn transfer_terminator(&self, t: &Terminator, after: &Self::Fact) -> Self::Fact {
        match t {
            Terminator::Branch { cond, .. } => {
                let mut live = after.clone();
                live.extend(cond.vars());
                live
            }
            Terminator::Return(v) => v.iter().flat_map(|v| v.vars()).collect(),
            _ => after.clone(),
        }
    }
    fn height(&self, f: &Function) -> usize {
        dataflow::variable_universe(f).len() + self.extra_live_out.len() + 1
    }
}

/// The set client's fact after every statement, with `Liveness`'s one
/// adjustment: a loop statement reports the fact after the whole loop
/// (its exit block's entry), not the one at the loop top.
fn set_live_after(f: &Function, extra: &BTreeSet<Symbol>) -> BTreeMap<StmtId, BTreeSet<Symbol>> {
    let cfg = Cfg::build(f);
    let a = SetLiveness {
        extra_live_out: extra.clone(),
    };
    let sol = dataflow::solve_cfg(&a, f, &cfg);
    let stmts = dataflow::stmt_index(f);
    let mut out: BTreeMap<StmtId, BTreeSet<Symbol>> = stmts
        .keys()
        .map(|id| {
            (
                *id,
                sol.after(*id).expect("every statement has a fact").clone(),
            )
        })
        .collect();
    for b in &cfg.blocks {
        let Some(id) = b.stmts.last() else { continue };
        let exit = match (&b.terminator, &stmts[id].kind) {
            (Some(Terminator::ForDispatch { exit, .. }), StmtKind::ForEach { .. }) => exit,
            (Some(Terminator::Branch { else_to, .. }), StmtKind::While { .. }) => else_to,
            _ => continue,
        };
        out.insert(*id, sol.entry[exit.0].clone());
    }
    out
}

/// `Liveness` (bitset facts) equals the set client after every statement,
/// both through `after` and through `is_live_after` on every variable of
/// the function, the boundary, and one the function never mentions.
fn assert_liveness_exact(name: &str, f: &Function, extra: &BTreeSet<Symbol>) {
    let bits = Liveness::compute(f, extra);
    let mut universe = dataflow::variable_universe(f);
    universe.extend(extra);
    universe.insert(Symbol::intern("__never_mentioned"));
    for (id, want) in set_live_after(f, extra) {
        assert_eq!(bits.after(id), want, "{name}: liveness after {id:?}");
        for v in &universe {
            assert_eq!(
                bits.is_live_after(id, *v),
                want.contains(v),
                "{name}: is_live_after({id:?}, {v})"
            );
        }
    }
}

/// Shapes the sources below rarely reach: mutation of a collection that
/// is dead afterwards (what extraction leaves behind for dead-code
/// removal), mutation in value position, a cursor variable read by its own
/// iterable, and `return` inside nested loops.
const EDGE_CASES: [&str; 4] = [
    "fn f(q) { c = list(); d = list(); for (t in q) { c.add(t.x); d.add(c.size()); } return 0; }",
    "fn f(q) { c = list(); n = c.add(1); for (t in q) { m = c.add(t.x); } return n; }",
    "fn f(t) { s = 0; for (t in t.items) { s = s + t.x; } t = 0; return s; }",
    "fn f(q, n) { i = 0; while (i < n) { for (t in q) { if (t.x > i) { return t.x; } i = i + 1; continue; } break; } return i; }",
];

/// Every function of the corpus, the `workloads` crate, seeded
/// `gen_case`/`gen_dml_case` programs and [`EDGE_CASES`].
fn exactness_functions() -> Vec<(String, Function)> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for (i, src) in EDGE_CASES.iter().enumerate() {
        sources.push((format!("edge/{i}"), src.to_string()));
    }
    for s in workloads::wilos::samples() {
        sources.push((format!("wilos/{}", s.label), s.source.to_string()));
    }
    for (app, servlets) in [
        ("rubis", workloads::servlets::rubis()),
        ("rubbos", workloads::servlets::rubbos()),
        ("acadportal", workloads::servlets::acadportal()),
    ] {
        for s in servlets {
            sources.push((format!("{app}/{}", s.name), s.source));
        }
    }
    sources.push((
        "matoso".into(),
        workloads::matoso::FIND_MAX_SCORE.to_string(),
    ));
    sources.push((
        "jobportal".into(),
        workloads::jobportal::APPLICANT_REPORT.to_string(),
    ));
    for i in 0..64 {
        let read = fuzz::genprog::gen_case(fuzz::iter_seed(0x11fe, i));
        sources.push((format!("gen_case/{i}"), read.program));
        let write = fuzz::genprog::gen_dml_case(fuzz::iter_seed(0xd31, i));
        sources.push((format!("gen_dml_case/{i}"), write.program));
    }
    let mut out = Vec::new();
    for (name, program) in corpus_programs() {
        out.extend(program.functions.into_iter().map(|f| (name.clone(), f)));
    }
    for (name, src) in sources {
        let program =
            imp::parse_and_normalize(&src).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        out.extend(program.functions.into_iter().map(|f| (name.clone(), f)));
    }
    out
}

/// Give every statement a fresh id counting down in steps of three: the
/// ids are out of walk order and not contiguous, as after a rewrite that
/// inserted placeholder statements.
fn scramble_ids(b: &mut Block, next: &mut u32) {
    for s in &mut b.stmts {
        s.id = StmtId(*next);
        *next -= 3;
        match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                scramble_ids(then_branch, next);
                scramble_ids(else_branch, next);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                scramble_ids(body, next)
            }
            _ => {}
        }
    }
}

#[test]
fn bitset_liveness_equals_set_client() {
    let functions = exactness_functions();
    assert!(functions.len() > 250, "only {} functions", functions.len());
    for (name, f) in &functions {
        assert_liveness_exact(name, f, &BTreeSet::new());
        // A non-empty boundary: every other variable the function
        // mentions, plus one it never does.
        let mut extra: BTreeSet<Symbol> = dataflow::variable_universe(f)
            .into_iter()
            .step_by(2)
            .collect();
        extra.insert(Symbol::intern("__out_param"));
        assert_liveness_exact(name, f, &extra);

        let mut scrambled = f.clone();
        scramble_ids(&mut scrambled.body, &mut 1_000_000);
        assert_liveness_exact(name, &scrambled, &extra);
    }
}

/// More than 128 variables: facts spill past the two inline words.
#[test]
fn bitset_liveness_equals_set_client_past_128_variables() {
    const N: usize = 150;
    let mut src = String::from("fn wide(n) {\n    rows = executeQuery(\"SELECT * FROM emp\");\n");
    for i in 0..N {
        src.push_str(&format!("    v{i} = n + {i};\n"));
    }
    // Loop-carried accumulators, a conditional def and a dead store on
    // both sides of the inline/spill boundary (bits 0..128 and beyond).
    src.push_str("    for (t in rows) {\n");
    for i in (0..N).step_by(7) {
        let j = (i + 61) % N;
        src.push_str(&format!("        v{i} = v{i} + v{j} + t.salary;\n"));
    }
    src.push_str(
        "        if (t.salary > v140) {\n            v3 = v149;\n            break;\n        }\n",
    );
    src.push_str("        v145 = t.salary;\n    }\n");
    src.push_str("    while (v2 < n) {\n        v2 = v2 + v131;\n    }\n");
    let sum: Vec<String> = (0..N).step_by(3).map(|i| format!("v{i}")).collect();
    src.push_str(&format!("    return {};\n}}\n", sum.join(" + ")));
    let f = parse(&src);
    assert!(dataflow::variable_universe(&f).len() > 128);

    assert_liveness_exact("wide", &f, &BTreeSet::new());
    let extra: BTreeSet<Symbol> = [1, 130, 148]
        .iter()
        .map(|i| Symbol::intern(&format!("v{i}")))
        .collect();
    assert_liveness_exact("wide+extra", &f, &extra);
    // The spill words carry real facts: a high-numbered accumulator stays
    // live through the loop.
    let live = Liveness::compute(&f, &BTreeSet::new());
    let StmtKind::ForEach { body, .. } = &f.body.stmts[N + 1].kind else {
        panic!("expected the cursor loop");
    };
    assert!(live.is_live_after(body.stmts[0].id, Symbol::intern("v147")));
}
