//! `dbms` — an in-memory multiset relational database engine.
//!
//! This is the substrate the paper's evaluation ran against (MySQL 5.5 over
//! JDBC/Hibernate). We implement an engine that executes the extended
//! relational algebra of the `algebra` crate with the exact semantics the
//! paper assumes:
//!
//! * multiset relations; π preserves input order and keeps duplicates
//!   (Sec. 3.2.1);
//! * standard SQL `NULL` semantics for aggregates (Rule T5.2's note);
//! * `OUTER APPLY` / lateral padding with NULLs (Appendix B).
//!
//! Every query runs on one executor, the pull-based [`volcano`] operator
//! tree, over in-memory and paged ([`paged`]) tables alike; [`bucket`] is
//! the single hashed-equality rule its joins, `OUTER APPLY` and grouping
//! share with `interp`'s DML. The materializing evaluator survives as
//! `eval::reference`, a test oracle behind the `test-oracles` feature.
//!
//! [`connection::Connection`] wraps the engine behind a simulated
//! client/server boundary: each query costs one round-trip latency plus a
//! per-byte transfer cost, and all traffic is metered. Experiments 5–8
//! measure exactly these quantities (time and data transferred), so the
//! *shape* of the paper's results is reproducible without a networked MySQL.

pub mod bucket;
pub mod connection;
pub mod eval;
pub mod gen;
pub mod paged;
pub mod prng;
pub mod table;
pub mod value;
pub mod volcano;

pub use connection::{Connection, CostModel, Stats};
pub use eval::{eval_query, EvalError};
pub use paged::{PagedTable, RowEdit};
pub use table::{Database, Relation, Row, Table};
pub use value::Value;
