//! Deterministic allocation budgets for the read path, from page to
//! interpreter.
//!
//! Allocation counts repeat exactly from run to run, unlike wall time, so
//! they gate the per-row cost of a scan: a paged scan decodes only the
//! columns a plan names, into one row buffer that scan, σ and γ share and
//! reuse from row to row; operators read values through bound column slots
//! without cloning them; a paged `UPDATE` decides over the same reused row;
//! and the interpreter loops over a query result without copying it. A counting global allocator counts
//! the allocations made on the measuring thread only, so tests running in
//! parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbms::gen::gen_emp_paged;
use dbms::{Connection, Database, Value};
use interp::dml::execute_update;
use interp::{Interp, RtValue};

struct Counting;

thread_local! {
    /// Allocations on this thread while a [`count`] runs; `None` outside.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; `tally` only
// touches a const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (n, out)
}

const ROWS: u64 = 10_000;

/// The paged `emp(id, name, dept, salary)` table, larger than its pool.
fn emp() -> Database {
    gen_emp_paged(ROWS as usize, 7, storage::Store::in_memory(64))
}

/// Allocations of one execution of `sql` over `db`, parsing excluded.
fn query_allocs(db: &Database, sql: &str) -> u64 {
    let q = algebra::parse::parse_sql(sql).unwrap();
    let (n, r) = count(|| dbms::eval_query(&q, db, &[]));
    r.expect("query runs");
    n
}

/// Page reads and the plan's own set-up, independent of the row count.
const FIXED: u64 = 600;

/// Allocations a whole-table read may make beyond [`FIXED`]: a tenth of
/// one per row, so anything allocated per row fails the budget.
const PER_ROW_TENTH: u64 = ROWS / 10;

/// MIN(salary) decodes each row into γ's one reused row; the unread name
/// and dept columns are skipped in the record, not decoded into strings.
#[test]
fn an_aggregate_decodes_only_its_column() {
    let min = query_allocs(&emp(), "SELECT MIN(salary) AS m FROM emp");
    assert!(
        min <= PER_ROW_TENTH + FIXED,
        "MIN(salary): {min} allocations"
    );
}

/// A filtered SUM decodes each row's dept text into the `String` the
/// reused row already holds; the predicate reads the column and the
/// literal in place.
#[test]
fn a_filter_reads_values_in_place() {
    let sum = query_allocs(
        &emp(),
        "SELECT SUM(salary) AS s FROM emp WHERE dept = 'eng'",
    );
    assert!(
        sum <= PER_ROW_TENTH + FIXED,
        "SUM(salary): {sum} allocations"
    );
}

/// A point `UPDATE` on a paged table decides over every row, each decoded
/// into one reused row; only the matching row is re-encoded and written.
#[test]
fn a_paged_point_update_decides_in_a_reused_row() {
    let mut db = emp();
    let (n, updated) = count(|| {
        execute_update(
            &mut db,
            "UPDATE emp SET salary = ? WHERE id = ?",
            &[Value::Int(50_000), Value::Int(ROWS as i64 / 2)],
        )
    });
    assert_eq!(updated.expect("update runs"), 1);
    assert!(
        n <= PER_ROW_TENTH + FIXED,
        "UPDATE emp … WHERE id = ?: {n} allocations"
    );
}

#[test]
fn a_loop_over_a_query_result_costs_the_rows_it_visits() {
    let db = emp();
    let program = imp::parse_and_normalize(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/corpus/first_match.imp"),
        )
        .unwrap(),
    )
    .unwrap();
    let all = query_allocs(&db, "SELECT * FROM emp");
    let salaries: Vec<i64> = db
        .table("emp")
        .unwrap()
        .scan()
        .map(|r| match r[3] {
            Value::Int(s) => s,
            ref other => panic!("salary {other:?}"),
        })
        .collect();
    // Thresholds whose first match lies 1, about 100 and about 1,000 rows
    // into the table.
    for prefix in [0usize, 100, 1_000] {
        let threshold = salaries[..prefix].iter().copied().max().unwrap_or(-1);
        let visited = salaries
            .iter()
            .position(|&s| s > threshold)
            .expect("a match")
            + 1;
        let mut run = Interp::new(&program, Connection::new(db.clone()));
        let (n, found) = count(|| run.call("firstHighEarner", vec![RtValue::int(threshold)]));
        assert_eq!(found.unwrap(), RtValue::int(visited as i64 - 1));
        let looped = n.saturating_sub(all);
        assert!(
            looped <= 8 * visited as u64 + 200,
            "{looped} allocations beyond the query for {visited} visited rows"
        );
    }
}
