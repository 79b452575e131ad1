//! `compile`: source text to rewritten program, single-threaded and in
//! process — `imp::parse_and_normalize` followed by
//! `Extractor::extract_program` with default options, over the corpus, the
//! `workloads` crate programs and seeded fuzz programs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use algebra::schema::Catalog;
use analysis::cfg::Cfg;
use analysis::liveness::Liveness;
use analysis::reaching::ReachingDefs;
use analysis::regions::RegionTree;
use eqsql_core::{ExtractionReport, Extractor, ExtractorOptions};
use fuzz::oracle::{CaseOutcome, OracleOptions};

use crate::measure::{self, close_all, put_read_write, Rounds, Q};
use crate::trace::Tracer;
use crate::Outcome;

/// Fuzz programs per kind (read loops from `gen_case`, write loops from
/// `gen_dml_case`).
pub const FUZZ_PER_KIND: u64 = 300;

pub struct Unit {
    pub name: String,
    pub source: String,
    pub catalog: Catalog,
    pub extractor: Extractor,
    /// The program contains a write (`executeUpdate`).
    pub writes: bool,
    /// Hash of the extracted SQL and loop count from the set-up pass.
    pub reference: u64,
}

pub struct Compile {
    pub units: Vec<Unit>,
    /// Generated programs on which the fuzz oracle disagreed in set-up.
    pub oracle_failures: u64,
    pub fuzz_programs: u64,
}

/// Stable fingerprint of what extraction produced: every extracted SQL
/// text, in order, and the number of loops rewritten.
pub fn fingerprint(report: &ExtractionReport) -> u64 {
    let mut text = report.loops_rewritten.to_string();
    for v in &report.vars {
        for sql in &v.sql {
            text.push('\n');
            text.push_str(sql);
        }
    }
    storage::fnv64(text.as_bytes())
}

pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn unit(name: String, source: String, catalog: Catalog) -> Unit {
    let extractor = Extractor::with_options(catalog.clone(), ExtractorOptions::default());
    Unit {
        writes: source.contains("executeUpdate"),
        name,
        source,
        catalog,
        extractor,
        reference: 0,
    }
}

pub fn corpus_units(root: &Path) -> Vec<Unit> {
    let dir = root.join("examples/corpus");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("corpus schema readable");
    let catalog = algebra::ddl::parse_ddl(&schema).expect("corpus schema parses");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = format!("corpus/{}", p.file_name().unwrap().to_string_lossy());
            let source = std::fs::read_to_string(&p).expect("corpus file readable");
            unit(name, source, catalog.clone())
        })
        .collect()
}

/// The `workloads` crate programs, in the order `perf_pipeline` sweeps
/// them.
fn workload_units() -> Vec<Unit> {
    let mut units = Vec::new();
    let wilos = workloads::wilos::catalog();
    for s in workloads::wilos::samples() {
        units.push(unit(
            format!("wilos/{}", s.label),
            s.source.to_string(),
            wilos.clone(),
        ));
    }
    for (app, servlets, cat) in [
        (
            "rubis",
            workloads::servlets::rubis(),
            workloads::servlets::rubis_catalog(),
        ),
        (
            "rubbos",
            workloads::servlets::rubbos(),
            workloads::servlets::rubbos_catalog(),
        ),
        (
            "acadportal",
            workloads::servlets::acadportal(),
            workloads::servlets::acadportal_catalog(),
        ),
    ] {
        for s in servlets {
            units.push(unit(format!("{app}/{}", s.name), s.source, cat.clone()));
        }
    }
    units.push(unit(
        "matoso/find_max_score".into(),
        workloads::matoso::FIND_MAX_SCORE.to_string(),
        workloads::matoso::catalog(),
    ));
    units.push(unit(
        "jobportal/applicant_report".into(),
        workloads::jobportal::APPLICANT_REPORT.to_string(),
        workloads::jobportal::catalog(),
    ));
    units
}

/// Seeded fuzz cases: `(case, is_write_loop_case)`.
pub fn fuzz_cases(seed: u64, salt: u64, per_kind: u64) -> Vec<(fuzz::oracle::Case, bool)> {
    let mut out = Vec::new();
    for i in 0..per_kind {
        out.push((
            fuzz::genprog::gen_case(fuzz::iter_seed(seed ^ salt, i)),
            false,
        ));
        out.push((
            fuzz::genprog::gen_dml_case(fuzz::iter_seed(seed ^ salt ^ 0xd31, i)),
            true,
        ));
    }
    out
}

impl Compile {
    pub fn setup(seed: u64) -> Compile {
        let mut units = corpus_units(&repo_root());
        units.extend(workload_units());
        let mut oracle_failures = 0;
        let cases = fuzz_cases(seed, 0xc0de, FUZZ_PER_KIND);
        let fuzz_programs = cases.len() as u64;
        for (k, (case, dml)) in cases.into_iter().enumerate() {
            let opts = OracleOptions {
                dml,
                ..OracleOptions::default()
            };
            match fuzz::oracle::run_case_with(&case, &opts) {
                CaseOutcome::Agree { .. } => {}
                CaseOutcome::Diverged(d) => {
                    oracle_failures += 1;
                    eprintln!("compile: fuzz case {k} diverged: {} {}", d.kind, d.detail);
                }
                CaseOutcome::Skipped(why) => {
                    oracle_failures += 1;
                    eprintln!("compile: fuzz case {k} skipped: {why}");
                }
            }
            let catalog = algebra::ddl::parse_ddl(&case.ddl).expect("fuzz DDL parses");
            let kind = if dml { "dml" } else { "read" };
            units.push(unit(format!("fuzz/{kind}{k}"), case.program, catalog));
        }
        // Reference pass; it also warms every lazy structure the op uses.
        for u in &mut units {
            let program = imp::parse_and_normalize(&u.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", u.name));
            u.reference = fingerprint(&u.extractor.extract_program(&program));
        }
        Compile {
            units,
            oracle_failures,
            fuzz_programs,
        }
    }

    pub fn sizes(&self) -> String {
        let writes = self.units.iter().filter(|u| u.writes).count();
        format!(
            "{} programs ({} with writes), {} of them fuzz-generated",
            self.units.len(),
            writes,
            self.fuzz_programs
        )
    }

    /// One op: parse and normalize, then extract.
    fn op(u: &Unit, tracer: &mut Tracer, op: u64) -> ExtractionReport {
        let outer = tracer.begin("compile.op", op);
        let program = tracer.span("imp.parse_and_normalize", op, || {
            imp::parse_and_normalize(&u.source).expect("program parsed in set-up")
        });
        let report = tracer.span("core.extract_program", op, || {
            u.extractor.extract_program(&program)
        });
        tracer.end(outer);
        report
    }

    pub fn run(&self, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rounds = Rounds::default();
        let mut read = Rounds::default();
        let mut write = Rounds::default();
        let mut first_round_allocs = None;
        let mut op_id = 0u64;
        let started = Instant::now();
        'outer: loop {
            let mut round_alloc_ns = 0u64;
            for u in &self.units {
                op_id += 1;
                let a0 = measure::allocs().0;
                let t = Instant::now();
                let report = Self::op(u, tracer, op_id);
                let ns = measure::ns_since(t);
                round_alloc_ns += measure::allocs().0 - a0;
                rounds.push(ns);
                if u.writes {
                    write.push(ns);
                } else {
                    read.push(ns);
                }
                out.attempted += 1;
                if fingerprint(&report) != u.reference {
                    out.failed += 1;
                }
                if Instant::now() >= deadline && first_round_allocs.is_some() {
                    close_all(&mut [&mut rounds, &mut read, &mut write]);
                    break 'outer;
                }
            }
            first_round_allocs.get_or_insert(round_alloc_ns);
            close_all(&mut [&mut rounds, &mut read, &mut write]);
        }
        let wall = started.elapsed().as_secs_f64();

        let m = &mut out.metrics;
        m.put("ops_per_s", rounds.ops_per_s(), "ops/s");
        m.put("p50_us", rounds.latency_us(Q::P50, 1), "us");
        m.put("p99_us", rounds.latency_us(Q::P99, 100), "us");
        m.put(
            "allocs_per_op",
            first_round_allocs.unwrap_or(0) as f64 / self.units.len() as f64,
            "count",
        );
        put_read_write(&read, &write, &mut out.extra);
        out.extra.put("wall_s", wall, "s");
        rounds.put_raw(&mut out.extra);
    }

    /// Per-layer probes for `imp`, `analysis` and `core`: standalone calls
    /// on every program, each inside a span.
    pub fn probe(&self, tracer: &mut Tracer, out: &mut Outcome, passes: usize) {
        let opts = ExtractorOptions::default();
        let mut tokens = 0u64;
        let mut programs = 0u64;
        let mut loops_seen = 0u64;
        let mut loops_rewritten = 0u64;
        let mut stage = eqsql_core::StageTimes::default();
        let mut allocs = 0u64;
        let mut alloc_bytes = 0u64;
        let mut op = 0u64;
        for _ in 0..passes {
            for u in &self.units {
                op += 1;
                programs += 1;
                let toks = tracer.span("imp.lex", op, || {
                    imp::lexer::lex(&u.source).expect("program lexes")
                });
                tokens += toks.len() as u64;
                let parsed = tracer.span("imp.parse", op, || {
                    imp::parse_program(&u.source).expect("program parses")
                });
                let mut program = parsed.clone();
                tracer.span("imp.normalize", op, || {
                    imp::desugar::normalize_getters(&mut program);
                    imp::desugar::normalize_minmax(&mut program);
                    imp::desugar::normalize_bool_flags(&mut program);
                });
                for f in &program.functions {
                    std::hint::black_box(tracer.span("analysis.cfg", op, || Cfg::build(f)));
                    let tree = tracer.span("analysis.regions", op, || RegionTree::build(f));
                    loops_seen += tree.loops().len() as u64;
                    std::hint::black_box(tracer.span("analysis.liveness", op, || {
                        Liveness::compute(f, &BTreeSet::new())
                    }));
                    std::hint::black_box(
                        tracer.span("analysis.reaching", op, || ReachingDefs::compute(f)),
                    );
                }
                let (a0, b0) = measure::allocs();
                let report =
                    tracer.span("core.extract", op, || u.extractor.extract_program(&program));
                let (a1, b1) = measure::allocs();
                allocs += a1 - a0;
                alloc_bytes += b1 - b0;
                stage.absorb(&report.stage);
                loops_rewritten += report.loops_rewritten as u64;
                for f in &report.program.functions {
                    let mut g = f.clone();
                    tracer.span("analysis.deadcode", op, || {
                        analysis::deadcode::eliminate_dead_code(&mut g, &BTreeSet::new())
                    });
                }
                std::hint::black_box(tracer.span("core.lint", op, || {
                    eqsql_core::lint_program(&program, &u.catalog, &opts)
                }));
            }
        }
        let per_prog = |v: u64| v as f64 / programs as f64;
        let m = &mut out.metrics;
        m.put("imp.lex_ns", tracer.mean_ns("imp.lex"), "ns");
        m.put("imp.tokens", per_prog(tokens), "count");
        m.put("imp.parse_ns", tracer.mean_ns("imp.parse"), "ns");
        m.put("imp.normalize_ns", tracer.mean_ns("imp.normalize"), "ns");
        for (metric, span) in [
            ("analysis.cfg_ns", "analysis.cfg"),
            ("analysis.regions_ns", "analysis.regions"),
            ("analysis.liveness_ns", "analysis.liveness"),
            ("analysis.reaching_ns", "analysis.reaching"),
            ("analysis.deadcode_ns", "analysis.deadcode"),
        ] {
            m.put(metric, tracer.mean_ns(span), "ns");
        }
        let extract_ns = tracer.mean_ns("core.extract");
        m.put("core.extract_ns", extract_ns, "ns");
        let stages = [
            ("desugar", stage.desugar_ns),
            ("dir", stage.dir_ns),
            ("depend", stage.depend_ns),
            ("rules", stage.rules_ns),
            ("sqlgen", stage.sqlgen_ns),
            ("rewrite", stage.rewrite_ns),
        ];
        for (name, ns) in stages {
            m.put(format!("core.stage.{name}_ns"), per_prog(ns), "ns");
        }
        m.put(
            "core.unattributed_ns",
            extract_ns - per_prog(stage.total_ns()),
            "ns",
        );
        m.put("core.allocs", per_prog(allocs), "count");
        m.put("core.alloc_bytes", per_prog(alloc_bytes), "bytes");
        let lookups = stage.rule_cache_hits + stage.rule_cache_misses;
        m.put(
            "core.rule_cache_hit_ratio",
            stage.rule_cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        m.put("core.peak_dag_nodes", stage.peak_dag_nodes as f64, "count");
        m.put(
            "core.extract_ratio",
            loops_rewritten as f64 / loops_seen.max(1) as f64,
            "ratio",
        );
        m.put("core.lint_ns", tracer.mean_ns("core.lint"), "ns");
    }
}
