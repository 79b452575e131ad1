//! `run-paged`: the rewritten programs run through `Interp::call` against
//! paged databases. Extraction happens in set-up. Read ops run over tables
//! larger than the buffer pool; write ops run over a table that fits in
//! the pool, each on a fresh `Database::fork`.

use std::time::{Duration, Instant};

use algebra::schema::{SqlType, TableSchema};
use dbms::prng::StdRng;
use dbms::{Connection, Database, Stats, Value};
use eqsql_core::{Extractor, ExtractorOptions};
use imp::Program;
use interp::{Interp, RtValue};

use crate::measure::{self, close_all, put_read_write, Rounds, Samples, Q};
use crate::trace::Tracer;
use crate::Outcome;

/// Rows of the large `emp` table the single-table reads scan.
pub const BIG_EMP_ROWS: usize = 30_000;
/// Rows of the `project` table next to it.
pub const BIG_PROJECT_ROWS: usize = 3_000;
/// Buffer-pool frames of the large store.
pub const BIG_FRAMES: usize = 64;
/// `emp` rows of the small store, whose reads stay row-at-a-time or go
/// through the materializing evaluator (joins, OUTER APPLY).
pub const SMALL_EMP_ROWS: usize = 300;
pub const SMALL_PROJECT_ROWS: usize = 100;
pub const SMALL_APPLICANTS: usize = 200;
pub const SMALL_FRAMES: usize = 8;
/// `emp` rows of the write store; the kept per-row UPDATE loop is
/// quadratic in this.
pub const WRITE_EMP_ROWS: usize = 200;
pub const WRITE_FRAMES: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Store {
    Big,
    Small,
    Write,
}

pub struct Op {
    pub label: &'static str,
    pub function: String,
    pub args: Vec<RtValue>,
    pub store: Store,
    pub rewritten: Program,
    /// Return value of the original program on the in-memory copy.
    pub expect: RtValue,
    /// Final table contents after the original program (writes only).
    pub expect_state: Option<Snapshot>,
}

impl Op {
    pub fn writes(&self) -> bool {
        self.store == Store::Write
    }
}

/// Order-insensitive table contents: per table, the sorted rendered rows.
pub type Snapshot = Vec<(String, Vec<String>)>;

pub fn snapshot(db: &Database) -> Snapshot {
    db.catalog()
        .tables()
        .map(|t| {
            let mut rows: Vec<String> = db
                .table(&t.name)
                .expect("catalog table exists")
                .rows_vec()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            (t.name.clone(), rows)
        })
        .collect()
}

pub struct Dbs {
    pub paged: Database,
    pub mem: Database,
    pub frames: usize,
}

pub struct RunPaged {
    pub big: Dbs,
    pub small: Dbs,
    pub write: Dbs,
    pub ops: Vec<Op>,
    pub load_rows_per_s: f64,
    pub setup_failures: u64,
}

/// Copy every table of `mem` into `paged`; returns the rows copied.
fn load(mem: &Database, paged: &mut Database) -> usize {
    let mut rows = 0;
    for schema in mem.catalog().tables() {
        paged.create_table(schema.clone());
        for row in mem.table(&schema.name).expect("table exists").scan() {
            paged.insert(&schema.name, row);
            rows += 1;
        }
    }
    rows
}

/// Copy the tables of `src` into `dst` (in memory).
fn merge(dst: &mut Database, src: &Database) {
    for schema in src.catalog().tables() {
        dst.create_table(schema.clone());
        for row in src.table(&schema.name).expect("table exists").scan() {
            dst.insert(&schema.name, row);
        }
    }
}

fn emp_project(emp: usize, projects: usize, seed: u64) -> Database {
    let mut db = dbms::gen::gen_emp(emp, seed);
    db.create_table(
        TableSchema::new(
            "project",
            &[
                ("id", SqlType::Int),
                ("owner", SqlType::Int),
                ("budget", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0);
    for i in 0..projects {
        db.insert(
            "project",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..emp as i64)),
                Value::Int(rng.gen_range(1_000..50_000)),
            ],
        );
    }
    db
}

/// Run `function` of `program` over `db`; returns the result, the
/// connection statistics and the database as the program left it.
fn call(
    program: &Program,
    function: &str,
    args: &[RtValue],
    db: Database,
) -> (Result<RtValue, interp::RtError>, Stats, Database) {
    let mut it = Interp::new(program, Connection::new(db));
    let r = it.call(function, args.to_vec());
    (r, it.conn.stats, std::mem::take(&mut it.conn.db))
}

fn corpus(name: &str) -> String {
    let path = crate::compile::repo_root()
        .join("examples/corpus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

impl RunPaged {
    pub fn setup(seed: u64) -> RunPaged {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a9ed);
        let big_mem = emp_project(BIG_EMP_ROWS, BIG_PROJECT_ROWS, seed);
        let mut small_mem = emp_project(SMALL_EMP_ROWS, SMALL_PROJECT_ROWS, seed ^ 1);
        merge(
            &mut small_mem,
            &workloads::jobportal::database(SMALL_APPLICANTS, seed),
        );
        let mut write_mem = emp_project(WRITE_EMP_ROWS, 0, seed ^ 2);
        write_mem.create_table(TableSchema::new(
            "payout",
            &[("emp_id", SqlType::Int), ("amount", SqlType::Int)],
        ));

        let started = Instant::now();
        let mut loaded = 0;
        let mut mk = |mem: Database, frames: usize| {
            let mut paged = Database::paged_in_memory(frames);
            loaded += load(&mem, &mut paged);
            Dbs { paged, mem, frames }
        };
        let big = mk(big_mem, BIG_FRAMES);
        let small = mk(small_mem, SMALL_FRAMES);
        let write = mk(write_mem, WRITE_FRAMES);
        let load_rows_per_s = loaded as f64 / started.elapsed().as_secs_f64();

        // Thresholds vary with the seed within a narrow band, so that the
        // work an op does is about the same on every seed.
        let salary = |rng: &mut StdRng, at: i64| RtValue::int(at + rng.gen_range(0..1_000i64));
        let dept = ["eng", "sales", "hr"][rng.gen_range(0..3usize)];
        let owner = rng.gen_range(0..BIG_EMP_ROWS as i64);
        // First-match threshold near the top of the salary range, so the
        // kept early-exit loop walks far into the table.
        let high = salary(&mut rng, 198_900);
        let specs: Vec<(&'static str, String, &str, Vec<RtValue>, Store)> = vec![
            (
                "payroll",
                corpus("payroll.imp"),
                "engineeringPayroll",
                vec![salary(&mut rng, 100_000)],
                Store::Big,
            ),
            (
                "give_raise",
                corpus("give_raise.imp"),
                "giveRaise",
                vec![RtValue::int(rng.gen_range(1..1_000))],
                Store::Write,
            ),
            (
                "headcount",
                corpus("headcount.imp"),
                "headcount",
                vec![RtValue::str(dept)],
                Store::Big,
            ),
            (
                "purge_low",
                corpus("purge_low.imp"),
                "purgeLow",
                vec![salary(&mut rng, 60_000)],
                Store::Write,
            ),
            (
                "top_budget",
                corpus("top_budget.imp"),
                "topBudget",
                vec![RtValue::int(owner)],
                Store::Big,
            ),
            (
                "applicant_report",
                workloads::jobportal::APPLICANT_REPORT.to_string(),
                "applicantReport",
                vec![],
                Store::Small,
            ),
            (
                "log_payouts",
                corpus("log_payouts.imp"),
                "logPayouts",
                vec![salary(&mut rng, 150_000)],
                Store::Write,
            ),
            (
                "above_floor",
                corpus("above_floor.imp"),
                "aboveFloor",
                vec![],
                Store::Small,
            ),
            (
                "first_match",
                corpus("first_match.imp"),
                "firstHighEarner",
                vec![high],
                Store::Big,
            ),
            (
                "report_card",
                corpus("report_card.imp"),
                "reportCard",
                vec![],
                Store::Small,
            ),
            (
                "rebalance",
                corpus("rebalance.imp"),
                "rebalance",
                vec![],
                Store::Write,
            ),
        ];
        let mut setup_failures = 0;
        let mut ops = Vec::new();
        let mut this = RunPaged {
            big,
            small,
            write,
            ops: Vec::new(),
            load_rows_per_s,
            setup_failures: 0,
        };
        for (label, source, function, args, store) in specs {
            let original = imp::parse_and_normalize(&source).expect("program parses");
            let dbs = this.dbs(store);
            let report = Extractor::with_options(dbs.paged.catalog(), ExtractorOptions::default())
                .extract_program(&original);
            let (expect, _, after) = call(&original, function, &args, dbs.mem.clone());
            let expect = match expect {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("run-paged: reference run of {label} failed: {e:?}");
                    setup_failures += 1;
                    RtValue::Unit
                }
            };
            let expect_state = (store == Store::Write).then(|| snapshot(&after));
            ops.push(Op {
                label,
                function: function.to_string(),
                args,
                store,
                rewritten: report.program,
                expect,
                expect_state,
            });
        }
        this.ops = ops;
        this.setup_failures = setup_failures;
        // Warm-up pass: every op once, outputs checked, before timing.
        let mut sink = Outcome::default();
        for op in &this.ops {
            this.exec(op, &mut Tracer::new(false, Instant::now(), 0), 0, &mut sink);
        }
        this.setup_failures += sink.failed;
        this
    }

    pub fn dbs(&self, store: Store) -> &Dbs {
        match store {
            Store::Big => &self.big,
            Store::Small => &self.small,
            Store::Write => &self.write,
        }
    }

    pub fn sizes(&self) -> String {
        let pages = |d: &Dbs| d.paged.store().expect("paged").page_count();
        let reads = self.ops.iter().filter(|o| !o.writes()).count();
        format!(
            "{reads} read ops, {} write ops; emp {BIG_EMP_ROWS} rows in {} pages over {BIG_FRAMES} frames; \
             small store {} pages over {SMALL_FRAMES} frames; write store emp {WRITE_EMP_ROWS} rows in {} pages over {WRITE_FRAMES} frames",
            self.ops.len() - reads,
            pages(&self.big),
            pages(&self.small),
            pages(&self.write),
        )
    }

    /// Run one op and check it; returns `(latency_ns, stats, pages
    /// before, pages after)`.
    fn exec(&self, op: &Op, tracer: &mut Tracer, id: u64, out: &mut Outcome) -> OpRun {
        let dbs = self.dbs(op.store);
        let db = if op.writes() {
            dbs.paged.fork()
        } else {
            dbs.paged.clone()
        };
        let pages_before = db.store().expect("paged").page_count();
        let name = if op.writes() {
            "interp.call.write"
        } else {
            "interp.call.read"
        };
        let t = Instant::now();
        let span = tracer.begin(name, id);
        let (result, stats, after) = call(&op.rewritten, &op.function, &op.args, db);
        tracer.end(span);
        let ns = measure::ns_since(t);
        out.attempted += 1;
        let ok = match &result {
            Ok(v) => {
                interp::value::loose_eq(v, &op.expect)
                    && op
                        .expect_state
                        .as_ref()
                        .is_none_or(|want| *want == snapshot(&after))
            }
            Err(_) => false,
        };
        if !ok {
            out.failed += 1;
            eprintln!("run-paged: {} gave a wrong result: {result:?}", op.label);
        }
        let pages_after = after.store().expect("paged").page_count();
        OpRun {
            ns,
            stats,
            pages_before,
            pages_after,
        }
    }

    pub fn run(&self, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rounds = Rounds::default();
        let mut read = Rounds::default();
        let mut write = Rounds::default();
        let mut per_op = vec![Samples::default(); self.ops.len()];
        let mut first_pass: Option<(f64, u64)> = None;
        let mut id = 0;
        while Instant::now() < deadline || first_pass.is_none() {
            let mut sim_us = 0.0;
            let mut pass_allocs = 0;
            for (k, op) in self.ops.iter().enumerate() {
                id += 1;
                let a0 = measure::allocs().0;
                let r = self.exec(op, tracer, id, out);
                pass_allocs += measure::allocs().0 - a0;
                sim_us += r.stats.sim_us;
                rounds.push(r.ns);
                per_op[k].push(r.ns);
                if op.writes() {
                    write.push(r.ns);
                } else {
                    read.push(r.ns);
                }
            }
            first_pass.get_or_insert((sim_us, pass_allocs));
            close_all(&mut [&mut rounds, &mut read, &mut write]);
        }
        let (sim_us, pass_allocs) = first_pass.expect("one pass ran");
        let m = &mut out.metrics;
        m.put("ops_per_s", rounds.ops_per_s(), "ops/s");
        m.put("p50_us", rounds.latency_us(Q::P50, 1), "us");
        m.put("p99_us", rounds.latency_us(Q::P99, 1), "us");
        m.put(
            "allocs_per_op",
            pass_allocs as f64 / self.ops.len() as f64,
            "count",
        );
        put_read_write(&read, &write, &mut out.extra);
        out.extra.put("sim_net_ms", sim_us / 1e3, "ms-simulated");
        rounds.put_raw(&mut out.extra);
        for (op, s) in self.ops.iter().zip(&mut per_op) {
            out.extra
                .put(format!("op.{}_p50_us", op.label), s.quantile_us(0.5), "us");
        }
    }

    /// Per-layer probes for `algebra`, `interp`, `dbms` and `storage`.
    pub fn probe(&self, tracer: &mut Tracer, out: &mut Outcome) {
        let sink = &mut *out;
        // interp + dbms connection counters + buffer pool, over one pass.
        let pool0 = self.read_pool();
        let mut stats = Stats::default();
        let mut amp = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let r = self.exec(op, tracer, i as u64, sink);
            stats.queries += r.stats.queries;
            stats.rows += r.stats.rows;
            stats.bytes += r.stats.bytes;
            stats.sim_us += r.stats.sim_us;
            if op.writes() {
                amp.push(r.pages_after as f64 / r.pages_before as f64);
            }
        }
        let pool1 = self.read_pool();
        let m = &mut sink.metrics;
        m.put(
            "interp.read_call_ns",
            tracer.mean_ns("interp.call.read"),
            "ns",
        );
        m.put(
            "interp.write_call_ns",
            tracer.mean_ns("interp.call.write"),
            "ns",
        );
        m.put("dbms.queries", stats.queries as f64, "count");
        m.put("dbms.rows_transferred", stats.rows as f64, "count");
        m.put("dbms.bytes_transferred", stats.bytes as f64, "bytes");
        m.put("dbms.sim_net_ms", stats.sim_us / 1e3, "ms-simulated");
        let (hits, misses, evictions) = (pool1.0 - pool0.0, pool1.1 - pool0.1, pool1.2 - pool0.2);
        m.put(
            "storage.bufpool_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        m.put("storage.misses", misses as f64, "count");
        m.put("storage.evictions", evictions as f64, "count");
        m.put("storage.space_amp", measure::median(&amp), "ratio");

        // algebra + dbms: every SELECT text the rewritten programs issue,
        // parsed and then evaluated directly.
        let mut evaluated = 0u64;
        let mut volcano = 0u64;
        let mut dml = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let db = &self.dbs(op.store).paged;
            for sql in sql_texts(&op.rewritten) {
                let params = params_for(&sql, &op.args);
                let select = sql.trim_start().get(..6);
                if select.is_some_and(|h| h.eq_ignore_ascii_case("select")) {
                    let ra = tracer.span("algebra.parse_sql", i as u64, || {
                        algebra::parse::parse_sql(&sql)
                    });
                    let Ok(ra) = ra else {
                        sink.failed += 1;
                        continue;
                    };
                    // A row-keyed query's placeholders take loop values,
                    // not the op's arguments; bind them to key 1.
                    let params =
                        params.unwrap_or_else(|| vec![Value::Int(1); sql.matches('?').count()]);
                    evaluated += 1;
                    volcano += dbms::volcano::plans_paged(&ra, db) as u64;
                    let r =
                        tracer.span("dbms.eval", i as u64, || dbms::eval_query(&ra, db, &params));
                    if r.is_err() {
                        sink.failed += 1;
                    }
                } else if let Some(params) = params {
                    dml.push((sql, params));
                }
            }
        }
        let m = &mut sink.metrics;
        m.put(
            "algebra.parse_sql_ns",
            tracer.mean_ns("algebra.parse_sql"),
            "ns",
        );
        m.put("dbms.eval_ns", tracer.mean_ns("dbms.eval"), "ns");
        m.put(
            "dbms.volcano_share",
            volcano as f64 / evaluated.max(1) as f64,
            "ratio",
        );

        // interp::dml: each extracted set-oriented statement, plus one
        // per-row keyed UPDATE, each on a fresh fork of the write store.
        dml.push((
            "UPDATE emp SET salary = ? WHERE id = ?".to_string(),
            vec![Value::Int(50_000), Value::Int(WRITE_EMP_ROWS as i64 / 2)],
        ));
        for (i, (sql, params)) in dml.iter().enumerate() {
            let mut db = self.write.paged.fork();
            let r = tracer.span("interp.dml", i as u64, || {
                interp::dml::execute_update(&mut db, sql, params)
            });
            if r.is_err() {
                sink.failed += 1;
            }
        }
        let m = &mut sink.metrics;
        m.put("interp.dml_ns", tracer.mean_ns("interp.dml"), "ns");

        // storage: full scans of every table of the big store.
        let store = self.big.paged.store().expect("paged");
        let mut pages_scanned = 0u64;
        for (i, table) in store.tables().iter().enumerate() {
            let rows = tracer.span("storage.scan", i as u64, || {
                store.scan(table).expect("table scans").count()
            });
            std::hint::black_box(rows);
        }
        pages_scanned += store.page_count() as u64;
        let scan_total: f64 = tracer
            .summary()
            .get("storage.scan")
            .map_or(0.0, |s| s.total_ns as f64);
        m.put(
            "storage.scan_ns_per_page",
            scan_total / pages_scanned as f64,
            "ns",
        );
        m.put("storage.pages", store.page_count() as f64, "count");
        m.put("storage.frames", self.big.frames as f64, "count");
        m.put("storage.load_rows_per_s", self.load_rows_per_s, "rows/s");
    }

    fn read_pool(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for d in [&self.big, &self.small] {
            let s = d.paged.store().expect("paged").pool_stats();
            t.0 += s.hits;
            t.1 += s.misses;
            t.2 += s.evictions;
        }
        t
    }
}

pub struct OpRun {
    pub ns: u64,
    pub stats: Stats,
    pub pages_before: u32,
    pub pages_after: u32,
}

/// Double-quoted string literals of the pretty-printed program that look
/// like SQL.
pub fn sql_texts(program: &Program) -> Vec<String> {
    let text = imp::pretty_print(program);
    let mut out = Vec::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut lit = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    if let Some(n) = chars.next() {
                        lit.push(n);
                    }
                }
                '"' => break,
                c => lit.push(c),
            }
        }
        let head = lit.trim_start().to_ascii_lowercase();
        if ["select", "update", "insert", "delete"]
            .iter()
            .any(|k| head.starts_with(k))
        {
            out.push(lit);
        }
    }
    out
}

/// Parameters for a statement's `?` placeholders: the op's own integer
/// and text arguments, when their count matches.
fn params_for(sql: &str, args: &[RtValue]) -> Option<Vec<Value>> {
    let holes = sql.matches('?').count();
    if holes == 0 {
        return Some(Vec::new());
    }
    if holes != args.len() {
        return None;
    }
    args.iter().map(|a| a.as_scalar().cloned()).collect()
}
