//! A small pass manager: named analyses that emit [`Diagnostic`]s uniformly.
//!
//! Each analysis in this crate can explain *why* extraction will or won't
//! work; the pass framework gives them a common shape so the lint driver
//! (and tests) can run any subset and aggregate findings. Passes are
//! read-only: they never mutate the program.
//!
//! The built-in passes wrap the existing analyses:
//!
//! * `"purity"` — calls to conservatively-impure helpers inside cursor
//!   loops ([`Code::ImpureHelper`]);
//! * `"deadcode"` — statements dead-code elimination would remove
//!   ([`Code::DeadStatement`]);
//! * `"liveness"` — loop-updated variables never read after the loop
//!   (the extractor skips them);
//! * `"ddg"` — loops with external writes, which are kept as loops even
//!   when their accumulators fold ([`Code::LoopSideEffects`]);
//! * `"taint"` — SQL strings built from program inputs reaching a database
//!   call ([`Code::SqlInjectionTaint`], see [`crate::taint`]);
//! * `"loopquery"` — hoistable and N+1 queries inside loops
//!   ([`Code::HoistableQuery`], [`Code::NPlusOneQuery`], see
//!   [`crate::loopquery`]).
//!
//! The extraction pipeline itself (fir/slice/rules) plugs in from
//! `eqsql-core` through the same [`Pass`] trait.

use std::collections::BTreeSet;

use imp::ast::{builtins, Block, Expr, Function, Program, Stmt, StmtKind};

use crate::ddg::Ddg;
use crate::deadcode::eliminate_dead_code;
use crate::diag::{Code, Diagnostic};
use crate::liveness::Liveness;

/// Shared input and diagnostic sink for one function under one pass.
pub struct PassContext<'a> {
    /// The whole program (for interprocedural facts).
    pub program: &'a Program,
    /// The function being analyzed.
    pub function: &'a Function,
    /// Findings accumulate here.
    diags: Vec<Diagnostic>,
    pass: &'static str,
}

impl<'a> PassContext<'a> {
    /// Build a context for `function`.
    pub fn new(program: &'a Program, function: &'a Function) -> Self {
        PassContext {
            program,
            function,
            diags: Vec::new(),
            pass: "",
        }
    }

    /// Record a finding; the current pass name and enclosing function are
    /// filled in when the diagnostic does not carry them already (a wrapped
    /// pipeline like extraction pre-tags with its internal stage names).
    pub fn emit(&mut self, d: Diagnostic) {
        let mut d = if d.pass.is_empty() {
            d.with_pass(self.pass)
        } else {
            d
        };
        if d.function.is_none() {
            d.function = Some(self.function.name.to_string());
        }
        self.diags.push(d);
    }
}

/// A named, read-only analysis that reports diagnostics.
pub trait Pass {
    /// Stable pass name (appears in JSON output).
    fn name(&self) -> &'static str;
    /// Analyze `cx.function` and `emit` findings.
    fn run(&self, cx: &mut PassContext<'_>);
}

/// Runs a sequence of passes over functions and aggregates their findings.
#[derive(Default)]
pub struct PassManager<'p> {
    passes: Vec<Box<dyn Pass + 'p>>,
}

impl<'p> PassManager<'p> {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard advisory pipeline: purity, deadcode, liveness, ddg,
    /// taint, loopquery.
    pub fn standard() -> Self {
        let mut pm = PassManager::new();
        pm.register(Box::new(PurityPass));
        pm.register(Box::new(DeadCodePass));
        pm.register(Box::new(LivenessPass));
        pm.register(Box::new(LoopEffectsPass));
        pm.register(Box::new(crate::taint::TaintPass));
        pm.register(Box::new(crate::loopquery::LoopQueryPass));
        pm
    }

    /// Append a pass.
    pub fn register(&mut self, p: Box<dyn Pass + 'p>) {
        self.passes.push(p);
    }

    /// Run every pass over one function; findings are deduplicated and
    /// deterministically ordered.
    pub fn run_function(&self, program: &Program, function: &Function) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for p in &self.passes {
            let mut cx = PassContext::new(program, function);
            cx.pass = p.name();
            p.run(&mut cx);
            out.extend(cx.diags);
        }
        crate::diag::dedup_sort(&mut out);
        out
    }

    /// Run every pass over every function of the program.
    pub fn run_program(&self, program: &Program) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for f in &program.functions {
            out.extend(self.run_function(program, f));
        }
        crate::diag::dedup_sort(&mut out);
        out
    }
}

/// Walk all statements of a block, depth first, with a flag for whether the
/// statement sits inside a cursor loop.
pub fn walk_stmts<'a>(block: &'a Block, in_loop: bool, f: &mut impl FnMut(&'a Stmt, bool)) {
    for s in &block.stmts {
        f(s, in_loop);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_stmts(then_branch, in_loop, f);
                walk_stmts(else_branch, in_loop, f);
            }
            StmtKind::ForEach { body, .. } => walk_stmts(body, true, f),
            StmtKind::While { body, .. } => walk_stmts(body, true, f),
            _ => {}
        }
    }
}

/// Top-level expressions of a statement (not recursive; use `Expr::walk`).
pub fn stmt_exprs(kind: &StmtKind) -> Vec<&Expr> {
    match kind {
        StmtKind::Assign { value, .. } => vec![value],
        StmtKind::Expr(e) => vec![e],
        StmtKind::If { cond, .. } => vec![cond],
        StmtKind::ForEach { iterable, .. } => vec![iterable],
        StmtKind::While { cond, .. } => vec![cond],
        StmtKind::Return(e) => e.iter().collect(),
        StmtKind::Print(es) => es.iter().collect(),
        StmtKind::Break | StmtKind::Continue => vec![],
    }
}

/// `"purity"`: calls to impure user helpers inside cursor loops.
///
/// A helper that touches the database or prints makes every expression that
/// calls it opaque to the fold conversion, so flag the call sites.
pub struct PurityPass;

impl Pass for PurityPass {
    fn name(&self) -> &'static str {
        "purity"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let summaries = crate::effects::effect_summaries(cx.program);
        let mut found: Vec<(imp::token::Span, String, crate::effects::EffectSummary)> = Vec::new();
        walk_stmts(&cx.function.body, false, &mut |s, in_loop| {
            if !in_loop {
                return;
            }
            for e in stmt_exprs(&s.kind) {
                e.walk(&mut |sub| {
                    if let Expr::Call { name, .. } = sub {
                        if let Some(sum) = summaries.get(name) {
                            if !sum.is_externally_pure() {
                                found.push((s.span, name.to_string(), *sum));
                            }
                        }
                    }
                });
            }
        });
        for (span, callee, sum) in found {
            cx.emit(
                Diagnostic::new(
                    Code::ImpureHelper,
                    span,
                    format!("call to impure helper `{callee}` inside a cursor loop"),
                )
                .with_primary_label(format!("`{callee}` has effects: {}", sum.effects))
                .with_note(
                    "helpers must be pure (no executeQuery/executeUpdate/print) to be \
                     inlined into a fold",
                ),
            );
        }
    }
}

/// `"deadcode"`: statements that dead-code elimination would remove.
pub struct DeadCodePass;

impl Pass for DeadCodePass {
    fn name(&self) -> &'static str {
        "deadcode"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let mut clone = cx.function.clone();
        let removed = eliminate_dead_code(&mut clone, &BTreeSet::new());
        if removed == 0 {
            return;
        }
        let mut before = Vec::new();
        walk_stmts(&cx.function.body, false, &mut |s, _| {
            before.push((s.id, s.span))
        });
        let mut after = BTreeSet::new();
        walk_stmts(&clone.body, false, &mut |s, _| {
            after.insert(s.id);
        });
        for (id, span) in before {
            if !after.contains(&id) {
                cx.emit(
                    Diagnostic::new(
                        Code::DeadStatement,
                        span,
                        "statement has no observable effect",
                    )
                    .with_primary_label("this value is never used"),
                );
            }
        }
    }
}

/// `"liveness"`: variables updated by a loop but never read afterwards.
///
/// The extractor skips such variables (their fold has no consumer), so an
/// accumulation that looks extractable may silently be ignored — surface it.
pub struct LivenessPass;

impl Pass for LivenessPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let live = Liveness::compute(cx.function, &BTreeSet::new());
        let mut found: Vec<(imp::token::Span, String)> = Vec::new();
        for s in &cx.function.body.stmts {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                let mut updated = BTreeSet::new();
                walk_stmts(body, true, &mut |inner, _| {
                    if let StmtKind::Assign { target, .. } = &inner.kind {
                        updated.insert(*target);
                    }
                });
                updated.remove(var);
                for v in updated {
                    if !live.is_live_after(s.id, v) {
                        found.push((s.span, v.to_string()));
                    }
                }
            }
        }
        for (span, v) in found {
            cx.emit(
                Diagnostic::new(
                    Code::DeadStatement,
                    span,
                    format!("variable `{v}` is updated by this loop but never read afterwards"),
                )
                .with_var(v)
                .with_primary_label("its accumulated value is unobservable")
                .with_note("the extractor only folds variables that are live after the loop"),
            );
        }
    }
}

/// `"ddg"`: loops whose body writes external state.
///
/// Scalar extraction never removes such a loop (the rewrite would drop
/// the effects); a loop whose only effect is a single `executeUpdate` may
/// still batch into one set-oriented statement via foreach-dml, which
/// reports its own `E010`/`W010` verdict — warn early either way.
pub struct LoopEffectsPass;

impl Pass for LoopEffectsPass {
    fn name(&self) -> &'static str {
        "ddg"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let mut found: Vec<(imp::token::Span, Vec<imp::token::Span>)> = Vec::new();
        let mut visit = |s: &Stmt, _in_loop: bool| {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                let ddg = Ddg::build(body, var, &BTreeSet::new());
                let scope: BTreeSet<_> = ddg.atoms.iter().map(|a| a.id).collect();
                let writers = ddg.external_writers_within(&scope);
                if writers.is_empty() {
                    return;
                }
                let spans = writers
                    .iter()
                    .filter_map(|id| stmt_span(body, *id))
                    .collect::<Vec<_>>();
                found.push((s.span, spans));
            }
        };
        walk_stmts(&cx.function.body, false, &mut visit);
        for (loop_span, writer_spans) in found {
            let mut d = Diagnostic::new(
                Code::LoopSideEffects,
                loop_span,
                "loop performs database updates or output",
            )
            .with_primary_label("body has external side effects");
            for ws in writer_spans {
                d = d.with_label(ws, "external write happens here");
            }
            cx.emit(d.with_note(
                "extracted SQL can replace reads, not effects; a write loop may \
                 still batch via foreach-dml (E010/W010), otherwise only query \
                 hoisting applies",
            ));
        }
    }
}

/// Span of statement `id` anywhere inside `block` (depth first).
pub fn stmt_span(block: &Block, id: imp::ast::StmtId) -> Option<imp::token::Span> {
    let mut out = None;
    walk_stmts(block, false, &mut |s, _| {
        if s.id == id {
            out = Some(s.span);
        }
    });
    out
}

/// True when an expression calls a database-writing builtin or prints.
pub fn is_external_write_expr(e: &Expr) -> bool {
    e.calls_any(&[builtins::EXECUTE_UPDATE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn program(src: &str) -> Program {
        imp::parse_and_normalize(src).unwrap()
    }

    #[test]
    fn purity_pass_flags_impure_helper_calls_in_loops() {
        let p = program(
            r#"
            fn log(x) { print(x); return x; }
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                for (e in rows) { s = s + log(e.salary); }
                return s;
            }
            "#,
        );
        let pm = PassManager::standard();
        let diags = pm.run_function(&p, p.function("f").unwrap());
        let hit = diags
            .iter()
            .find(|d| d.code == Code::ImpureHelper)
            .expect("W003 expected");
        assert_eq!(hit.pass, "purity");
        assert!(hit.message.contains("log"), "{}", hit.message);
        assert!(hit.primary.span.end > hit.primary.span.start);
    }

    #[test]
    fn deadcode_pass_reports_unused_assignment() {
        let p = program("fn f() { x = 1; y = 2; return y; }");
        let diags = PassManager::standard().run_function(&p, p.function("f").unwrap());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::DeadStatement && d.pass == "deadcode"),
            "{diags:?}"
        );
    }

    #[test]
    fn liveness_pass_reports_dead_loop_accumulator() {
        let p = program(
            r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                n = 0;
                for (e in rows) { s = s + e.salary; n = n + 1; }
                return n;
            }
            "#,
        );
        let diags = PassManager::standard().run_function(&p, p.function("f").unwrap());
        let hit = diags
            .iter()
            .find(|d| d.pass == "liveness" && d.var.as_deref() == Some("s"))
            .expect("liveness advisory for s");
        assert_eq!(hit.severity(), Severity::Warning);
    }

    #[test]
    fn ddg_pass_flags_external_writes_with_secondary_label() {
        let p = program(
            r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                for (e in rows) {
                    executeUpdate("UPDATE emp SET salary = 0");
                }
                return 0;
            }
            "#,
        );
        let diags = PassManager::standard().run_function(&p, p.function("f").unwrap());
        let hit = diags
            .iter()
            .find(|d| d.code == Code::LoopSideEffects)
            .expect("W004");
        assert_eq!(hit.pass, "ddg");
        assert_eq!(hit.secondary.len(), 1);
    }

    #[test]
    fn passes_are_read_only_and_deterministic() {
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                dead = 1;
                for (e in rows) { s = s + e.salary; }
                return s;
            }
            "#;
        let p = program(src);
        let before = p.clone();
        let a = PassManager::standard().run_program(&p);
        let b = PassManager::standard().run_program(&p);
        assert_eq!(p, before, "passes must not mutate the program");
        assert_eq!(a, b, "pass output must be deterministic");
    }
}
