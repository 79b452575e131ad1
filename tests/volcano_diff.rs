//! Differential sweep: the volcano executor, on in-memory and paged
//! tables, must return *byte-identical* results to the materializing
//! reference evaluator.
//!
//! `dbms::eval_query` runs every plan on the volcano executor;
//! `dbms::eval::eval_query_materialized` is the same algebra forced through
//! the reference path (compiled under the `test-oracles` feature). Twin
//! databases built from one generator seed carry identical data, so the
//! engines must agree row-for-row — ordering, duplicates, NULLs,
//! Int/Float distinctions and all. Single-table pipelines run over the
//! generated `emp` table; joins, `OUTER APPLY` (with and without a
//! bucket scan), `VALUES` and correlated subqueries run over two small
//! tables whose join keys mix duplicates, NULLs, Int/Float/Bool values that
//! compare equal, and integers past 2^53.

use algebra::ra::{AggCall, AggFunc, JoinKind, ProjItem, RaExpr, SortKey};
use algebra::scalar::{BinOp, Lit, Scalar, UnOp};
use algebra::schema::{SqlType, TableSchema};
use dbms::eval::eval_query_materialized;
use dbms::gen::{gen_emp, gen_emp_paged};
use dbms::prng::StdRng;
use dbms::{eval_query, Database, Value};
use proptest::prelude::*;

/// Small frame budget so multi-page tables overflow the pool and scans
/// actually evict.
const FRAMES: usize = 8;

/// Identical data, two backends.
fn twin_dbs(n: usize, seed: u64) -> (Database, Database) {
    let mem = gen_emp(n, seed);
    let paged = gen_emp_paged(n, seed, storage::Store::in_memory(FRAMES));
    (mem, paged)
}

fn assert_backends_agree(q: &RaExpr, mem: &Database, paged: &Database) {
    let reference = eval_query_materialized(q, mem, &[]).expect("reference evaluation");
    let volcano = eval_query(q, paged, &[]).expect("volcano evaluation");
    assert_eq!(
        reference.rows, volcano.rows,
        "backends disagree on rows for plan {q}"
    );
    assert_eq!(
        reference.fields.len(),
        volcano.fields.len(),
        "backends disagree on arity for plan {q}"
    );
}

/// A random predicate over the `emp` schema (mirrors `sql_roundtrip`).
fn arb_pred() -> impl Strategy<Value = Scalar> {
    let leaf = prop_oneof![
        (0i64..250_000).prop_map(|c| Scalar::cmp(BinOp::Gt, Scalar::col("salary"), Scalar::int(c))),
        (0i64..250_000).prop_map(|c| Scalar::cmp(BinOp::Le, Scalar::col("salary"), Scalar::int(c))),
        prop_oneof![Just("eng"), Just("sales"), Just("hr"), Just("none")]
            .prop_map(|d| Scalar::cmp(BinOp::Eq, Scalar::col("dept"), Scalar::str(d))),
        (0i64..100).prop_map(|c| Scalar::cmp(BinOp::Ne, Scalar::col("id"), Scalar::int(c))),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

/// A random single-table query: scan → σ? → (π | γ)? → (τ | δ | LIMIT)? —
/// exactly the pipeline shapes the volcano executor plans.
fn arb_query() -> impl Strategy<Value = RaExpr> {
    (arb_pred(), any::<bool>(), 0u8..4, 0u8..4, 1u64..10).prop_map(
        |(pred, with_sel, shape, tail, limit)| {
            let mut q = RaExpr::table("emp");
            if with_sel {
                q = q.select(pred);
            }
            q = match shape {
                0 => q,
                1 => q.project(vec![ProjItem::col("name"), ProjItem::col("salary")]),
                2 => q.project(vec![ProjItem::new(
                    Scalar::Bin(
                        BinOp::Add,
                        Box::new(Scalar::col("salary")),
                        Box::new(Scalar::int(1)),
                    ),
                    "bumped",
                )]),
                _ => q.group_by(
                    vec![ProjItem::col("dept")],
                    vec![
                        AggCall::new(AggFunc::Sum, Scalar::col("salary"), "total"),
                        AggCall::new(AggFunc::Count, Scalar::int(1), "n"),
                    ],
                ),
            };
            match tail {
                0 => q,
                1 => {
                    let key = match &q {
                        RaExpr::Aggregate { .. } => Scalar::col("total"),
                        RaExpr::Project { items, .. } => Scalar::col(&items[0].alias),
                        _ => Scalar::col("id"),
                    };
                    q.sort(vec![SortKey::desc(key)])
                }
                2 => q.dedup(),
                _ => q.limit(limit),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The corpus sweep at sizes from empty through several pages.
    #[test]
    fn volcano_agrees_on_query_corpus(q in arb_query(), n in 0usize..400, seed in any::<u64>()) {
        let (mem, paged) = twin_dbs(n, seed);
        assert_backends_agree(&q, &mem, &paged);
    }
}

/// Multi-page stress: 20 000 rows is ~260 pages against an 8-frame pool,
/// so every full scan cycles the pool dozens of times while the reference
/// side holds everything in one `Vec`.
#[test]
fn volcano_agrees_on_multipage_table() {
    let (mem, paged) = twin_dbs(20_000, 9);
    let queries = [
        "SELECT * FROM emp",
        "SELECT name, salary FROM emp WHERE salary > 150000",
        "SELECT dept, SUM(salary) AS total, COUNT(*) AS n FROM emp GROUP BY dept",
        "SELECT MAX(salary) AS hi FROM emp WHERE dept = 'eng'",
        "SELECT DISTINCT dept FROM emp ORDER BY dept DESC",
        "SELECT id FROM emp ORDER BY salary DESC LIMIT 7",
        "SELECT COUNT(*) AS n FROM emp WHERE dept = 'none'",
    ];
    for sql in queries {
        let q = algebra::parse::parse_sql(sql).unwrap();
        assert_backends_agree(&q, &mem, &paged);
    }
    let pool = paged.store().unwrap().pool_stats();
    assert!(
        pool.evictions > 0,
        "an 8-frame pool must evict on 260 pages"
    );
}

/// Flush/reopen persistence: rows written through the paged generator
/// survive a process-boundary round trip (flush, drop, open) and still
/// evaluate identically under the volcano executor.
#[test]
fn paged_table_survives_flush_and_reopen() {
    let dir = std::env::temp_dir().join(format!("eqsql-volcano-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emp.eqs");
    let q = algebra::parse::parse_sql("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept").unwrap();

    let store = storage::Store::create(&path, FRAMES).unwrap();
    let db = gen_emp_paged(3_000, 5, store);
    let before = eval_query(&q, &db, &[]).unwrap();
    db.flush().unwrap();
    drop(db);

    let store = storage::Store::open(&path, FRAMES).unwrap();
    let mut db = Database::new_paged(store);
    db.create_table(
        gen_emp(0, 0)
            .catalog()
            .tables()
            .next()
            .expect("emp schema")
            .clone(),
    );
    let after = eval_query(&q, &db, &[]).unwrap();
    assert_eq!(
        before.rows, after.rows,
        "reopened table must evaluate identically"
    );
    assert_eq!(db.table("emp").unwrap().len(), 3_000);
    let _ = std::fs::remove_dir_all(&dir);
}

// --- joins, OUTER APPLY, VALUES and correlated subqueries -----------------

/// Join-key values: duplicates, NULL, `1`/`1.0`/`true` (equal under
/// `sql_cmp`), and integers past 2^53 next to the float they round to.
fn key_value(rng: &mut StdRng) -> Value {
    const BIG: i64 = 1 << 53;
    match rng.gen_range(0..11u32) {
        0 => Value::Null,
        1 => Value::Float(1.0),
        2 => Value::Float(2.5),
        3 => Value::Bool(true),
        4 => Value::Int(BIG),
        5 => Value::Int(BIG + 1),
        6 => Value::Float(BIG as f64),
        n => Value::Int(i64::from(n) - 7),
    }
}

/// Twin databases holding `l(k, v, s)` and `r(k, w, s)`: one in memory,
/// one paged behind a small pool.
fn key_twins(seed: u64) -> (Database, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = Database::new();
    let mut paged = Database::paged_in_memory(FRAMES);
    for (name, payload) in [("l", "v"), ("r", "w")] {
        let schema = TableSchema::new(
            name,
            &[
                ("k", SqlType::Int),
                (payload, SqlType::Int),
                ("s", SqlType::Text),
            ],
        );
        mem.create_table(schema.clone());
        paged.create_table(schema);
        // Mostly small tables; sometimes enough rows to span pages.
        let n = if rng.gen_bool(0.2) {
            rng.gen_range(100..400usize)
        } else {
            rng.gen_range(0..16usize)
        };
        for i in 0..n {
            let payload = match rng.gen_range(0..6i64) {
                0 => Value::Null,
                x => Value::Int(x),
            };
            let row = vec![
                key_value(&mut rng),
                payload,
                Value::Str(format!("{name}{i}")),
            ];
            mem.insert(name, row.clone());
            paged.insert(name, row);
        }
    }
    (mem, paged)
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// The outer side: `l`, optionally filtered, or a `VALUES` relation with
/// the same column names.
fn outer_side(rng: &mut StdRng) -> RaExpr {
    match rng.gen_range(0..4u32) {
        0 => RaExpr::Values {
            columns: vec!["k".into(), "v".into(), "s".into()],
            rows: (0..rng.gen_range(0..6i64))
                .map(|i| {
                    vec![
                        key_value(rng).to_lit(),
                        Lit::Int(i),
                        Lit::Str(format!("x{i}")),
                    ]
                })
                .collect(),
        }
        .aliased("l"),
        1 => RaExpr::table("l").select(Scalar::cmp(
            BinOp::Ne,
            Scalar::qcol("l", "v"),
            Scalar::int(3),
        )),
        _ => RaExpr::table("l"),
    }
}

/// A join predicate: equi, non-equi, or equi plus a residual conjunct.
fn join_pred(rng: &mut StdRng) -> Scalar {
    let eq = || Scalar::cmp(BinOp::Eq, Scalar::qcol("l", "k"), Scalar::qcol("r", "k"));
    let residual = || Scalar::cmp(BinOp::Gt, Scalar::qcol("r", "w"), Scalar::qcol("l", "v"));
    match rng.gen_range(0..5u32) {
        0 => eq(),
        1 => Scalar::cmp(BinOp::Eq, Scalar::qcol("r", "k"), Scalar::qcol("l", "k")),
        2 => Scalar::cmp(BinOp::Lt, Scalar::qcol("l", "k"), Scalar::qcol("r", "k")),
        3 => eq().and(residual()),
        _ => residual().and(eq()),
    }
}

/// The correlated inner side of an `OUTER APPLY` over `r`: sqlgen's
/// `[Aliased][Limit][Project] Select(r, r.k = <outer expr> …)` shape,
/// sometimes with an `ORDER BY`, `DISTINCT` or aggregate on the way (all
/// read `r` through a bucket scan), or keyed by `<` instead of `=`, which
/// scans `r` in full per outer row.
fn apply_inner(rng: &mut StdRng) -> RaExpr {
    let inner_col = pick(rng, &[Scalar::col("k"), Scalar::qcol("r", "k")]);
    let key = pick(
        rng,
        &[
            Scalar::qcol("l", "k"),
            Scalar::qcol("l", "v"),
            Scalar::Bin(
                BinOp::Add,
                Box::new(Scalar::qcol("l", "k")),
                Box::new(Scalar::int(0)),
            ),
        ],
    );
    let op = if rng.gen_bool(0.85) {
        BinOp::Eq
    } else {
        BinOp::Lt
    };
    let mut pred = if rng.gen_bool(0.5) {
        Scalar::cmp(op, inner_col, key)
    } else {
        Scalar::cmp(op, key, inner_col)
    };
    if rng.gen_bool(0.4) {
        // A residual correlated conjunct.
        pred = pred.and(Scalar::cmp(
            BinOp::Ge,
            Scalar::col("w"),
            Scalar::qcol("l", "v"),
        ));
    }
    let mut q = RaExpr::table("r").select(pred);
    if rng.gen_bool(0.3) {
        q = q.sort(vec![SortKey::desc(Scalar::col("s"))]);
    }
    match rng.gen_range(0..8u32) {
        0 => {
            q = q.group_by(
                vec![ProjItem::col("w")],
                vec![AggCall::new(AggFunc::Count, Scalar::int(1), "s")],
            )
        }
        1 => q = q.aggregate(vec![AggCall::new(AggFunc::Max, Scalar::col("s"), "s")]),
        2 => q = q.project(vec![ProjItem::col("w")]).dedup(),
        3..=5 => q = q.project(vec![ProjItem::col("w"), ProjItem::col("s")]),
        _ => {}
    }
    if rng.gen_bool(0.6) {
        q = q.limit(rng.gen_range(0..3u64));
    }
    q.aliased("a")
}

/// A random plan exercising one of the multi-input operators.
fn multi_plan(rng: &mut StdRng) -> RaExpr {
    let correlated = |rng: &mut StdRng| {
        let mut p = Scalar::cmp(BinOp::Eq, Scalar::qcol("r", "k"), Scalar::qcol("l", "k"));
        if rng.gen_bool(0.5) {
            p = p.and(Scalar::cmp(
                BinOp::Gt,
                Scalar::qcol("r", "w"),
                Scalar::qcol("l", "v"),
            ));
        }
        RaExpr::table("r").select(p)
    };
    match rng.gen_range(0..7u32) {
        0 | 1 => {
            let kind = pick(rng, &[JoinKind::Inner, JoinKind::LeftOuter]);
            let mut right = RaExpr::table("r");
            if rng.gen_bool(0.3) {
                right = right.select(Scalar::cmp(
                    BinOp::Ne,
                    Scalar::qcol("r", "w"),
                    Scalar::int(2),
                ));
            }
            RaExpr::Join {
                left: Box::new(outer_side(rng)),
                right: Box::new(right),
                pred: join_pred(rng),
                kind,
            }
        }
        2 | 3 => outer_side(rng).outer_apply(apply_inner(rng)),
        4 => {
            let exists = Scalar::Exists(Box::new(correlated(rng)));
            let pred = if rng.gen_bool(0.5) {
                exists
            } else {
                Scalar::Un(UnOp::Not, Box::new(exists))
            };
            outer_side(rng).select(pred)
        }
        5 => {
            let sub = if rng.gen_bool(0.5) {
                correlated(rng).aggregate(vec![AggCall::new(
                    AggFunc::Max,
                    Scalar::qcol("r", "w"),
                    "hi",
                )])
            } else {
                correlated(rng).project(vec![ProjItem::col("w")])
            };
            outer_side(rng).project(vec![
                ProjItem::new(Scalar::qcol("l", "k"), "k"),
                ProjItem::new(Scalar::Subquery(Box::new(sub)), "sub"),
            ])
        }
        _ => {
            let keys = outer_side(rng).project(vec![ProjItem::new(Scalar::qcol("l", "k"), "k")]);
            if rng.gen_bool(0.5) {
                keys.dedup()
            } else {
                keys.group_by(
                    vec![ProjItem::col("k")],
                    vec![AggCall::new(AggFunc::Count, Scalar::int(1), "n")],
                )
            }
        }
    }
}

/// Oracle on the in-memory twin; volcano on both twins.
fn assert_executor_matches_oracle(q: &RaExpr, mem: &Database, paged: &Database) {
    let reference = eval_query_materialized(q, mem, &[]).expect("reference evaluation");
    for (db, backing) in [(mem, "in-memory"), (paged, "paged")] {
        let got = eval_query(q, db, &[]).expect("volcano evaluation");
        assert_eq!(
            reference, got,
            "{backing} volcano disagrees with the oracle on {q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn volcano_agrees_on_joins_applies_and_subqueries(seed in any::<u64>()) {
        let (mem, paged) = key_twins(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for _ in 0..4 {
            assert_executor_matches_oracle(&multi_plan(&mut rng), &mem, &paged);
        }
    }
}

/// Every fixed plan shape at least once, on one dense seed.
#[test]
fn volcano_agrees_on_fixed_multi_input_plans() {
    let (mem, paged) = key_twins(3);
    for sql in [
        "SELECT * FROM l JOIN r ON l.k = r.k",
        "SELECT * FROM l LEFT JOIN r ON l.k = r.k AND r.w > l.v",
        "SELECT * FROM l LEFT JOIN r ON l.k < r.k",
        "SELECT l.s, a.w FROM l LEFT JOIN LATERAL \
         (SELECT w FROM r WHERE (k = l.k) LIMIT 1) AS a ON TRUE",
        "SELECT * FROM l LEFT JOIN LATERAL \
         (SELECT w, s FROM r WHERE k = l.k AND w >= l.v ORDER BY s DESC LIMIT 2) AS a ON TRUE",
        "SELECT * FROM l LEFT JOIN LATERAL \
         (SELECT COUNT(*) AS n FROM r WHERE r.k = l.k) AS a ON TRUE",
        "SELECT * FROM l WHERE EXISTS (SELECT * FROM r WHERE r.k = l.k)",
        "SELECT l.k, (SELECT MAX(r.w) AS m FROM r WHERE r.k = l.k) AS m FROM l",
        "SELECT DISTINCT k FROM l",
        "SELECT k, COUNT(*) AS n FROM l GROUP BY k",
    ] {
        let q = algebra::parse::parse_sql(sql).unwrap();
        assert_executor_matches_oracle(&q, &mem, &paged);
    }
}

// --- column pruning and bound column slots ---------------------------------

/// Plans whose results depend on the pruning rule (scans decode only the
/// columns some scalar names, except below δ or the root) and on column
/// binding (innermost scope first, unknown columns raising lazily), each
/// run against the oracle on both twins over several seeds.
#[test]
fn volcano_prunes_and_binds_like_the_oracle() {
    let one_side = |pred: Scalar| RaExpr::Join {
        left: Box::new(RaExpr::table("l")),
        right: Box::new(RaExpr::table("r")),
        pred,
        kind: JoinKind::Inner,
    };
    let plans = vec![
        // π(δ(T)): δ compares whole rows, so the scan under it keeps
        // every column although π names only `k`.
        RaExpr::table("l").dedup().project(vec![ProjItem::col("k")]),
        // The root returns whole rows.
        algebra::parse::parse_sql("SELECT * FROM l").unwrap(),
        algebra::parse::parse_sql("SELECT * FROM l WHERE v > 2").unwrap(),
        // A join under π naming only the left side's columns: `r` keeps
        // none, yet every pair still counts.
        one_side(Scalar::cmp(
            BinOp::Ge,
            Scalar::qcol("l", "v"),
            Scalar::int(2),
        ))
        .project(vec![ProjItem::new(Scalar::qcol("l", "v"), "v")]),
        one_side(Scalar::bool(true)).aggregate(vec![AggCall::new(
            AggFunc::Count,
            Scalar::int(1),
            "n",
        )]),
        // COUNT(*) reads no column at all.
        algebra::parse::parse_sql("SELECT COUNT(*) AS n FROM l").unwrap(),
        // Correlated subqueries whose unqualified `k` and `s` name the
        // inner table's columns, which the outer table shares.
        algebra::parse::parse_sql(
            "SELECT l.v FROM l WHERE EXISTS (SELECT * FROM r WHERE k = l.k AND s <> l.s)",
        )
        .unwrap(),
        algebra::parse::parse_sql(
            "SELECT k, (SELECT MAX(s) AS m FROM r WHERE k = l.k) AS m FROM l",
        )
        .unwrap(),
        algebra::parse::parse_sql(
            "SELECT s FROM l WHERE NOT EXISTS (SELECT k FROM r WHERE r.w = l.v)",
        )
        .unwrap(),
        // An OUTER APPLY whose inner ORDER BY key is named nowhere else.
        algebra::parse::parse_sql(
            "SELECT l.k, a.w FROM l LEFT JOIN LATERAL \
             (SELECT w FROM r WHERE k = l.k ORDER BY s DESC) AS a ON TRUE",
        )
        .unwrap(),
        algebra::parse::parse_sql(
            "SELECT l.k, a.w FROM l LEFT JOIN LATERAL \
             (SELECT w FROM r WHERE w > l.v ORDER BY s LIMIT 1) AS a ON TRUE",
        )
        .unwrap(),
    ];
    for seed in 0..24 {
        let (mem, paged) = key_twins(seed);
        for q in &plans {
            assert_executor_matches_oracle(q, &mem, &paged);
        }
    }
}

/// A column that resolves nowhere raises `UnknownColumn` when it is
/// evaluated, as in the oracle: never over an empty input, always over a
/// non-empty one.
#[test]
fn unknown_columns_raise_only_when_evaluated() {
    let schema = TableSchema::new("t", &[("a", SqlType::Int)]);
    for rows in [0, 3] {
        let mut mem = Database::new().with_table(schema.clone());
        let mut paged = Database::paged_in_memory(FRAMES).with_table(schema.clone());
        for i in 0..rows {
            mem.insert("t", vec![Value::Int(i)]);
            paged.insert("t", vec![Value::Int(i)]);
        }
        for sql in [
            "SELECT * FROM t WHERE zzz = 1",
            "SELECT zzz FROM t",
            "SELECT SUM(zzz) AS s FROM t",
            "SELECT a FROM t ORDER BY zzz",
            "SELECT * FROM t WHERE EXISTS (SELECT * FROM t AS u WHERE u.zzz = t.a)",
        ] {
            let q = algebra::parse::parse_sql(sql).unwrap();
            let oracle = eval_query_materialized(&q, &mem, &[]);
            assert_eq!(
                oracle.is_ok(),
                rows == 0,
                "{sql} over {rows} rows: {oracle:?}"
            );
            for db in [&mem, &paged] {
                assert_eq!(eval_query(&q, db, &[]), oracle, "{sql} over {rows} rows");
            }
        }
    }
}
