//! The volcano (iterator-model) executor: the one engine every query runs
//! on, over in-memory and paged tables alike.
//!
//! Each operator pulls one row at a time from its child. Scans, filters,
//! projections, `LIMIT` and aliases stream; over a paged table the scan
//! holds one B-tree leaf at a time. Pipeline breakers hold only their own
//! state: τ buffers its input (a blocking operator, as the paper treats
//! it), γ one accumulator set per group, δ the distinct rows seen, and a
//! join its right side.
//!
//! Operators:
//!
//! * **Scans and `VALUES`.** Base tables scan in insertion order (rowid
//!   order for paged tables, `Vec` order in memory).
//! * **Join.** A nested loop: the right side is drained once, and each left
//!   row, in order, is tested against every right row. A `LEFT` join pads
//!   an unmatched left row with NULLs.
//! * **`OUTER APPLY`.** Per outer row, the inner side runs as a fresh
//!   pipeline under that row's scope; an empty result pads with NULLs.
//!   When the inner side's single-input spine (ρ, `LIMIT`, π, τ, δ, γ, σ)
//!   ends in `Select(Table, … col = <outer-only expr> …)`, that table is
//!   read through a [`BucketScan`]: it is scanned once per execution —
//!   lazily, on the first pull — into [`key_index`] buckets on `col`, and
//!   each outer row's pipeline reads only its key's bucket, in scan order.
//!   The `Select` and everything above it run unchanged on those rows.
//! * **Grouping.** γ without `GROUP BY` keeps a single accumulator set; γ
//!   with it and δ group through [`Groups`] (bucket hash, confirmed with
//!   `group_eq`), so groups emit in first-occurrence order.
//! * **Subqueries.** `EXISTS` and scalar subqueries run as pipelines under
//!   the current row's scope and stop after one row.
//!
//! A bucket scan only narrows the rows the `Select` would test, so rows,
//! row order, NULL keys matching nothing, and Int/Float/Bool equality
//! through `sql_cmp` are those of the full scan. Evaluation errors are not
//! kept: a predicate that fails on a row outside the bucket raises nothing
//! here, and a key that fails to evaluate raises its error even where the
//! full scan would test no row. The executor reuses the shared scalar
//! evaluator, comparator and accumulators; `tests/volcano_diff.rs` holds it
//! to the materializing `eval::reference` evaluator on in-memory and paged
//! twins.

use std::cell::OnceCell;
use std::collections::VecDeque;

use algebra::ra::{AggCall, JoinKind, ProjItem, RaExpr, SortKey, SortOrder};
use algebra::scalar::{BinOp, Scalar};

use crate::bucket::{key_hash, key_index, Groups, KeyIndex};
use crate::eval::{eval_scalar, fields_of, Accumulator, EvalError, Scope};
use crate::table::{resolve_fields, Database, Field, Relation, Row, Table, TableScan};
use crate::value::Value;

/// Does [`crate::eval::eval_query`] run `ra` on this executor? Always:
/// volcano is the only executor. Kept for callers that report the share
/// of plans it runs.
pub fn plans_paged(_ra: &RaExpr, _db: &Database) -> bool {
    true
}

/// Execute a plan, draining the operator tree into a [`Relation`].
pub fn execute(ra: &RaExpr, db: &Database, params: &[Value]) -> Result<Relation, EvalError> {
    let mut op = build(
        ra,
        Ctx {
            db,
            params,
            outer: None,
            probe: None,
        },
    )?;
    let fields = op.fields().to_vec();
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    Ok(Relation { fields, rows })
}

/// The first row of a (possibly correlated) subquery run under `scope`;
/// the pipeline stops pulling after it.
pub(crate) fn first_row(
    q: &RaExpr,
    db: &Database,
    params: &[Value],
    scope: Option<&Scope<'_>>,
) -> Result<Option<Row>, EvalError> {
    build(
        q,
        Ctx {
            db,
            params,
            outer: scope,
            probe: None,
        },
    )?
    .next()
}

/// What every operator evaluates against: the database, the query's
/// parameters, the scope of the enclosing query's current row (for
/// correlated subqueries and `OUTER APPLY` inner sides), and the table an
/// `OUTER APPLY` inner side reads through a [`BucketScan`].
#[derive(Clone, Copy)]
struct Ctx<'a> {
    db: &'a Database,
    params: &'a [Value],
    outer: Option<&'a Scope<'a>>,
    probe: Option<&'a Probe<'a>>,
}

impl<'a> Ctx<'a> {
    /// Evaluate `e` on `row`, laid out as `fields`, inside the outer scope.
    fn eval(&self, e: &Scalar, fields: &[Field], row: &[Value]) -> Result<Value, EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        eval_scalar(e, self.db, self.params, Some(&scope))
    }
}

/// One operator in the pipeline: exposes its output schema and yields
/// rows one at a time.
trait Op {
    fn fields(&self) -> &[Field];
    fn next(&mut self) -> Result<Option<Row>, EvalError>;
}

fn build<'a>(ra: &'a RaExpr, ctx: Ctx<'a>) -> Result<Box<dyn Op + 'a>, EvalError> {
    Ok(match ra {
        RaExpr::Table { .. } if ctx.probe.is_some_and(|p| std::ptr::eq(p.scan, ra)) => {
            Box::new(BucketScan {
                probe: ctx.probe.expect("matched probe"),
                hits: None,
                ctx,
            })
        }
        RaExpr::Table { name, .. } => {
            let t = ctx
                .db
                .table(name)
                .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
            Box::new(SeqScan {
                fields: fields_of(ra, ctx.db)?,
                scan: t.scan(),
            })
        }
        RaExpr::Values { columns, rows } => Box::new(ValuesScan {
            fields: columns.iter().map(Field::new).collect(),
            rows: rows.iter(),
        }),
        RaExpr::Select { input, pred } => Box::new(Filter {
            input: build(input, ctx)?,
            pred,
            ctx,
        }),
        RaExpr::Project { input, items } => Box::new(Project {
            input: build(input, ctx)?,
            items,
            fields: OnceCell::new(),
            ctx,
        }),
        RaExpr::Join {
            left,
            right,
            pred,
            kind,
        } => {
            let (left, right) = (build(left, ctx)?, build(right, ctx)?);
            let mut fields = left.fields().to_vec();
            fields.extend_from_slice(right.fields());
            Box::new(Join {
                left,
                right,
                pred,
                kind: *kind,
                fields,
                built: None,
                out: VecDeque::new(),
                ctx,
            })
        }
        RaExpr::OuterApply { left, right } => {
            let left = build(left, ctx)?;
            let right_fields = fields_of(right, ctx.db)?;
            let mut fields = left.fields().to_vec();
            fields.extend(right_fields);
            Box::new(Apply {
                left,
                // A ρ on top of the inner side only renames, and `fields`
                // already holds its names: per outer row, run what it wraps.
                right: match &**right {
                    RaExpr::Aliased { input, .. } => input,
                    other => other,
                },
                probe: Probe::plan(right, ctx.db),
                fields,
                out: VecDeque::new(),
                ctx,
            })
        }
        RaExpr::Sort { input, keys } => Box::new(Sort {
            input: build(input, ctx)?,
            keys,
            buf: None,
            ctx,
        }),
        RaExpr::Dedup { input } => Box::new(Dedup {
            input: build(input, ctx)?,
            groups: Groups::default(),
            seen: Vec::new(),
        }),
        RaExpr::Limit { input, count } => Box::new(Limit {
            input: build(input, ctx)?,
            remaining: *count as usize,
        }),
        RaExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut fields: Vec<Field> = group_by
                .iter()
                .map(|g| Field::new(g.alias.clone()))
                .collect();
            fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone())));
            Box::new(Aggregate {
                input: build(input, ctx)?,
                group_by,
                aggs,
                fields,
                out: None,
                ctx,
            })
        }
        RaExpr::Aliased { input, alias } => Box::new(Alias {
            input: build(input, ctx)?,
            alias,
            fields: OnceCell::new(),
        }),
    })
}

/// The conjuncts of a predicate, left to right.
fn conjuncts(pred: &Scalar) -> Vec<&Scalar> {
    match pred {
        Scalar::Bin(BinOp::And, l, r) => {
            let mut c = conjuncts(l);
            c.extend(conjuncts(r));
            c
        }
        other => vec![other],
    }
}

/// Resolve a column reference against `fields` as a scope would.
fn column_in(e: &Scalar, fields: &[Field]) -> Option<usize> {
    match e {
        Scalar::Col(c) => resolve_fields(fields, c.qualifier.as_deref(), &c.column).ok(),
        _ => None,
    }
}

/// Does `e` read no column of `inner` (and run no subquery)? Such an
/// expression has one value per outer row.
fn outer_only(e: &Scalar, inner: &[Field]) -> bool {
    match e {
        Scalar::Lit(_) | Scalar::Param(_) => true,
        Scalar::Col(_) => column_in(e, inner).is_none(),
        Scalar::Bin(_, l, r) => outer_only(l, inner) && outer_only(r, inner),
        Scalar::Un(_, x) => outer_only(x, inner),
        Scalar::Func(_, args) => args.iter().all(|a| outer_only(a, inner)),
        Scalar::Case { arms, otherwise } => {
            arms.iter()
                .all(|(c, v)| outer_only(c, inner) && outer_only(v, inner))
                && outer_only(otherwise, inner)
        }
        Scalar::Exists(_) | Scalar::Subquery(_) => false,
    }
}

/// Base-table scan in insertion order (one leaf page resident at a time
/// for paged tables).
struct SeqScan<'a> {
    fields: Vec<Field>,
    scan: TableScan<'a>,
}

impl Op for SeqScan<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        Ok(self.scan.next())
    }
}

/// `VALUES` — literal rows in order.
struct ValuesScan<'a> {
    fields: Vec<Field>,
    rows: std::slice::Iter<'a, Vec<algebra::scalar::Lit>>,
}

impl Op for ValuesScan<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        Ok(self
            .rows
            .next()
            .map(|r| r.iter().map(Value::from_lit).collect()))
    }
}

/// σ — keep rows whose predicate is TRUE (not FALSE, not NULL).
struct Filter<'a> {
    input: Box<dyn Op + 'a>,
    pred: &'a Scalar,
    ctx: Ctx<'a>,
}

impl Op for Filter<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            if self
                .ctx
                .eval(self.pred, self.input.fields(), &row)?
                .is_true()
            {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// π — order-preserving, duplicate-keeping projection.
struct Project<'a> {
    input: Box<dyn Op + 'a>,
    items: &'a [ProjItem],
    /// Built on first use, like [`Alias`]'s.
    fields: OnceCell<Vec<Field>>,
    ctx: Ctx<'a>,
}

impl Op for Project<'_> {
    fn fields(&self) -> &[Field] {
        self.fields.get_or_init(|| {
            self.items
                .iter()
                .map(|i| Field::new(i.alias.clone()))
                .collect()
        })
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        let Some(row) = self.input.next()? else {
            return Ok(None);
        };
        let fields = self.input.fields();
        self.items
            .iter()
            .map(|i| self.ctx.eval(&i.expr, fields, &row))
            .collect::<Result<Row, _>>()
            .map(Some)
    }
}

/// ⨝ — nested loop. The right side is drained once, on the first pull;
/// left rows stream, each emitting its matches in right-side order.
struct Join<'a> {
    left: Box<dyn Op + 'a>,
    right: Box<dyn Op + 'a>,
    pred: &'a Scalar,
    kind: JoinKind,
    fields: Vec<Field>,
    built: Option<Vec<Row>>,
    out: VecDeque<Row>,
    ctx: Ctx<'a>,
}

impl Op for Join<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            if self.built.is_none() {
                let mut rows = Vec::new();
                while let Some(row) = self.right.next()? {
                    rows.push(row);
                }
                self.built = Some(rows);
            }
            let Some(lrow) = self.left.next()? else {
                return Ok(None);
            };
            let mut matched = false;
            for rrow in self.built.as_ref().expect("right side drained") {
                let combined = joined(&lrow, rrow.iter().cloned(), self.fields.len());
                if self.ctx.eval(self.pred, &self.fields, &combined)?.is_true() {
                    matched = true;
                    self.out.push_back(combined);
                }
            }
            if !matched && self.kind == JoinKind::LeftOuter {
                self.out.push_back(extended(lrow, None, self.fields.len()));
            }
        }
    }
}

/// `left` followed by `right`, allocated once at the joined `width`.
fn joined(left: &[Value], right: impl IntoIterator<Item = Value>, width: usize) -> Row {
    let mut row = Vec::with_capacity(width);
    row.extend_from_slice(left);
    row.extend(right);
    row
}

/// `left` extended to `width` by `right`, or by NULLs when there is none
/// (an unmatched outer-join row).
fn extended(mut left: Row, right: Option<Row>, width: usize) -> Row {
    left.reserve_exact(width - left.len());
    match right {
        Some(right) => left.extend(right),
        None => left.resize(width, Value::Null),
    }
    left
}

/// `OUTER APPLY` — per outer row, the inner side run as a fresh pipeline
/// under that row's scope (reading its [`Probe`] table, if any, through a
/// [`BucketScan`]), or one NULL-padded row when it yields none.
struct Apply<'a> {
    left: Box<dyn Op + 'a>,
    right: &'a RaExpr,
    probe: Option<Probe<'a>>,
    fields: Vec<Field>,
    out: VecDeque<Row>,
    ctx: Ctx<'a>,
}

impl Op for Apply<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            let Some(lrow) = self.left.next()? else {
                return Ok(None);
            };
            let scope = Scope {
                fields: self.left.fields(),
                row: &lrow,
                parent: self.ctx.outer,
            };
            let mut inner = build(
                self.right,
                Ctx {
                    outer: Some(&scope),
                    probe: self.probe.as_ref(),
                    ..self.ctx
                },
            )?;
            // Every inner row but the last joins a copy of the outer row;
            // the last one, or the NULL padding, takes it by move.
            let width = self.fields.len();
            let mut last = None;
            while let Some(irow) = inner.next()? {
                if let Some(prev) = last.replace(irow) {
                    self.out.push_back(joined(&lrow, prev, width));
                }
            }
            drop(inner);
            self.out.push_back(extended(lrow, last, width));
        }
    }
}

/// A base table an `OUTER APPLY` inner side filters on `col = key`, where
/// `key` reads only outer columns: indexed by `col` once per execution.
struct Probe<'a> {
    /// The `Table` node the [`BucketScan`] stands in for.
    scan: &'a RaExpr,
    table: &'a Table,
    /// The table's fields, as the `Select` above it sees them.
    fields: Vec<Field>,
    col: usize,
    key: &'a Scalar,
    /// The table's rows and their `col` buckets, built on the first pull.
    built: OnceCell<(Vec<Row>, KeyIndex)>,
}

impl<'a> Probe<'a> {
    /// Find `Select(Table, … col = key …)` at the end of the single-input
    /// spine of `right`; `None` leaves every table to a full scan.
    fn plan(right: &'a RaExpr, db: &'a Database) -> Option<Probe<'a>> {
        let mut ra = right;
        let (scan, name, pred) = loop {
            ra = match ra {
                RaExpr::Select { input, pred } => match &**input {
                    RaExpr::Table { name, .. } => break (&**input, name, pred),
                    _ => input,
                },
                RaExpr::Aliased { input, .. }
                | RaExpr::Limit { input, .. }
                | RaExpr::Project { input, .. }
                | RaExpr::Sort { input, .. }
                | RaExpr::Dedup { input }
                | RaExpr::Aggregate { input, .. } => input,
                _ => return None,
            };
        };
        let table = db.table(name)?;
        let fields = fields_of(scan, db).ok()?;
        let (col, key) = conjuncts(pred).into_iter().find_map(|c| {
            let Scalar::Bin(BinOp::Eq, a, b) = c else {
                return None;
            };
            [(a, b), (b, a)].into_iter().find_map(|(col, key)| {
                let col = column_in(col, &fields)?;
                outer_only(key, &fields).then_some((col, &**key))
            })
        })?;
        Some(Probe {
            scan,
            table,
            fields,
            col,
            key,
            built: OnceCell::new(),
        })
    }

    fn built(&self) -> &(Vec<Row>, KeyIndex) {
        self.built.get_or_init(|| {
            let rows: Vec<Row> = self.table.scan().collect();
            let index = key_index(rows.iter().map(|r| &r[self.col]));
            (rows, index)
        })
    }
}

/// The rows of a [`Probe`] table in the bucket of the current outer row's
/// key, in scan order: a superset of the rows where `col = key` holds,
/// which the `Select` above re-checks with its full predicate.
struct BucketScan<'a> {
    probe: &'a Probe<'a>,
    hits: Option<std::slice::Iter<'a, usize>>,
    ctx: Ctx<'a>,
}

impl Op for BucketScan<'_> {
    fn fields(&self) -> &[Field] {
        &self.probe.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        let (rows, index) = self.probe.built();
        if self.hits.is_none() {
            // The key reads no column of the table, so the outer scope
            // alone evaluates it.
            let key = eval_scalar(self.probe.key, self.ctx.db, self.ctx.params, self.ctx.outer)?;
            self.hits = Some(
                key_hash(&key)
                    .and_then(|h| index.get(&h))
                    .map_or(&[][..], Vec::as_slice)
                    .iter(),
            );
        }
        let hits = self.hits.as_mut().expect("key evaluated");
        Ok(hits.next().map(|&i| rows[i].clone()))
    }
}

/// τ — blocking sort; decorate-sort-undecorate with the shared
/// NULLs-first comparator, stable.
struct Sort<'a> {
    input: Box<dyn Op + 'a>,
    keys: &'a [SortKey],
    buf: Option<std::vec::IntoIter<Row>>,
    ctx: Ctx<'a>,
}

impl Op for Sort<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.buf.is_none() {
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(row) = self.input.next()? {
                let fields = self.input.fields();
                let ks = self
                    .keys
                    .iter()
                    .map(|k| self.ctx.eval(&k.expr, fields, &row))
                    .collect::<Result<Vec<_>, _>>()?;
                decorated.push((ks, row));
            }
            let keys = self.keys;
            decorated.sort_by(|(a, _), (b, _)| {
                for (i, k) in keys.iter().enumerate() {
                    let ord = a[i].sort_cmp(&b[i]);
                    let ord = match k.order {
                        SortOrder::Asc => ord,
                        SortOrder::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.buf = Some(
                decorated
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
        }
        Ok(self.buf.as_mut().expect("sorted buffer").next())
    }
}

/// δ — streaming dedup keeping first occurrences; state is one copy of
/// each distinct row seen.
struct Dedup<'a> {
    input: Box<dyn Op + 'a>,
    groups: Groups,
    seen: Vec<Row>,
}

impl Op for Dedup<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            let seen = &self.seen;
            if self.groups.find(&row, |i| &seen[i]).is_err() {
                self.seen.push(row.clone());
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// LIMIT — stops *pulling* from its child once satisfied, so a limited
/// scan over a large stored table touches only the leaves it needs.
struct Limit<'a> {
    input: Box<dyn Op + 'a>,
    remaining: usize,
}

impl Op for Limit<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
}

/// γ — streaming aggregation: one pass over the input feeding
/// accumulators. Without `GROUP BY` there is one accumulator set and no
/// key; with it, one set per group, emitted in first-occurrence order.
/// Memory is O(groups), not O(rows).
struct Aggregate<'a> {
    input: Box<dyn Op + 'a>,
    group_by: &'a [ProjItem],
    aggs: &'a [AggCall],
    fields: Vec<Field>,
    out: Option<std::vec::IntoIter<Row>>,
    ctx: Ctx<'a>,
}

impl Aggregate<'_> {
    fn accumulators(&self) -> Vec<Accumulator> {
        self.aggs.iter().map(|a| Accumulator::new(a.func)).collect()
    }

    /// Feed one input row to an accumulator set.
    fn feed(&self, accs: &mut [Accumulator], row: &[Value]) -> Result<(), EvalError> {
        for (acc, a) in accs.iter_mut().zip(self.aggs) {
            acc.feed(&self.ctx.eval(&a.arg, self.input.fields(), row)?)?;
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<Vec<Row>, EvalError> {
        if self.group_by.is_empty() {
            // Empty input still yields one row: fresh accumulators finish
            // to COUNT 0 and NULL.
            let mut accs = self.accumulators();
            while let Some(row) = self.input.next()? {
                self.feed(&mut accs, &row)?;
            }
            return Ok(vec![accs.into_iter().map(Accumulator::finish).collect()]);
        }
        let mut groups = Groups::default();
        let mut state: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        while let Some(row) = self.input.next()? {
            let fields = self.input.fields();
            let keys = self
                .group_by
                .iter()
                .map(|g| self.ctx.eval(&g.expr, fields, &row))
                .collect::<Result<Row, _>>()?;
            let id = match groups.find(&keys, |i| &state[i].0) {
                Ok(id) => id,
                Err(id) => {
                    state.push((keys, self.accumulators()));
                    id
                }
            };
            self.feed(&mut state[id].1, &row)?;
        }
        Ok(state
            .into_iter()
            .map(|(mut out, accs)| {
                out.extend(accs.into_iter().map(Accumulator::finish));
                out
            })
            .collect())
    }
}

impl Op for Aggregate<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.out.is_none() {
            self.out = Some(self.drain()?.into_iter());
        }
        Ok(self.out.as_mut().expect("aggregate output").next())
    }
}

/// ρ — rename: requalify fields, pass rows through.
struct Alias<'a> {
    input: Box<dyn Op + 'a>,
    alias: &'a str,
    /// Built on first use: the inner side of an `OUTER APPLY`, rebuilt per
    /// outer row, is usually an alias nobody above asks for its fields.
    fields: OnceCell<Vec<Field>>,
}

impl Op for Alias<'_> {
    fn fields(&self) -> &[Field] {
        self.fields.get_or_init(|| {
            self.input
                .fields()
                .iter()
                .map(|f| Field::qualified(self.alias, f.name.clone()))
                .collect()
        })
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        self.input.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            &[
                ("id", SqlType::Int),
                ("g", SqlType::Int),
                ("x", SqlType::Int),
            ],
        )
        .with_key(&["id"])
    }

    fn twin_dbs(n: i64) -> (Database, Database) {
        let mut mem = Database::new();
        let mut paged = Database::paged_in_memory(4);
        for db in [&mut mem, &mut paged] {
            db.create_table(schema());
            for i in 0..n {
                db.insert(
                    "t",
                    vec![Value::Int(i), Value::Int(i % 5), Value::Int((i * 7) % 13)],
                );
            }
        }
        (mem, paged)
    }

    #[test]
    fn every_plan_runs_on_volcano() {
        let (mem, paged) = twin_dbs(10);
        for sql in [
            "SELECT * FROM t WHERE g = 2",
            "SELECT * FROM t a JOIN t b ON a.id = b.id",
        ] {
            let q = parse_sql(sql).unwrap();
            assert!(plans_paged(&q, &mem) && plans_paged(&q, &paged), "{sql}");
            let reference = crate::eval::eval_query_materialized(&q, &mem, &[]).unwrap();
            assert_eq!(reference, execute(&q, &mem, &[]).unwrap(), "{sql}");
            assert_eq!(reference, execute(&q, &paged, &[]).unwrap(), "{sql}");
        }
    }

    #[test]
    fn distinct_and_group_by_keep_integers_past_2_53_apart() {
        let big = 1i64 << 53;
        let schema = TableSchema::new("t", &[("x", SqlType::Int)]);
        let mut mem = Database::new().with_table(schema.clone());
        let mut paged = Database::paged_in_memory(4).with_table(schema);
        for db in [&mut mem, &mut paged] {
            for x in [big, big + 1, big] {
                db.insert("t", vec![Value::Int(x)]);
            }
        }
        for db in [&mem, &paged] {
            let run = |sql: &str| crate::eval_query(&parse_sql(sql).unwrap(), db, &[]).unwrap();
            let distinct = run("SELECT DISTINCT x FROM t");
            assert_eq!(
                distinct.rows,
                vec![vec![Value::Int(big)], vec![Value::Int(big + 1)]]
            );
            let grouped = run("SELECT x, COUNT(*) AS n FROM t GROUP BY x");
            assert_eq!(
                grouped.rows,
                vec![
                    vec![Value::Int(big), Value::Int(2)],
                    vec![Value::Int(big + 1), Value::Int(1)]
                ]
            );
            let filtered = run("SELECT COUNT(*) AS n FROM t WHERE x = 9007199254740993");
            assert_eq!(filtered.rows, vec![vec![Value::Int(1)]]);
            for sql in [
                "SELECT DISTINCT x FROM t",
                "SELECT x, COUNT(*) AS n FROM t GROUP BY x",
            ] {
                let q = parse_sql(sql).unwrap();
                let oracle = crate::eval::eval_query_materialized(&q, db, &[]).unwrap();
                assert_eq!(oracle, run(sql), "{sql}");
            }
        }
    }

    /// `outer` holds `n` rows keyed 0..n; `inner` holds one row per key.
    fn star_db(n: i64, frames: usize) -> Database {
        let mut db = Database::paged_in_memory(frames);
        db.create_table(TableSchema::new(
            "outer_t",
            &[("id", SqlType::Int), ("name", SqlType::Text)],
        ));
        db.create_table(TableSchema::new(
            "inner_t",
            &[("oid", SqlType::Int), ("note", SqlType::Text)],
        ));
        for i in 0..n {
            db.insert(
                "outer_t",
                vec![Value::Int(i), Value::Str(format!("o{i:06}"))],
            );
            db.insert(
                "inner_t",
                vec![Value::Int(n - 1 - i), Value::Str(format!("n{i:06}"))],
            );
        }
        db
    }

    const STAR_APPLY: &str = "SELECT outer_t.name, d.note FROM outer_t LEFT JOIN LATERAL \
        (SELECT note FROM inner_t WHERE (oid = outer_t.id) LIMIT 1) AS d ON TRUE";

    /// The inner side of the `OUTER APPLY` in `sql`, wherever it sits.
    fn apply_inner(ra: &RaExpr) -> Option<&RaExpr> {
        match ra {
            RaExpr::OuterApply { right, .. } => Some(right),
            RaExpr::Project { input, .. } => apply_inner(input),
            _ => None,
        }
    }

    #[test]
    fn probe_finds_the_keyed_select_under_the_inner_spine() {
        let db = star_db(4, 8);
        let lateral =
            |inner: &str| format!("SELECT * FROM outer_t LEFT JOIN LATERAL ({inner}) AS d ON TRUE");
        let probed = |sql: &str| {
            let q = parse_sql(sql).unwrap();
            Probe::plan(apply_inner(&q).expect("an apply"), &db).is_some()
        };
        assert!(probed(STAR_APPLY));
        for inner in [
            "SELECT note FROM inner_t WHERE oid = outer_t.id ORDER BY note",
            "SELECT COUNT(*) AS n FROM inner_t WHERE outer_t.id + 1 = oid AND note <> 'x'",
            "SELECT DISTINCT note FROM inner_t WHERE oid = outer_t.id",
        ] {
            assert!(probed(&lateral(inner)), "{inner}");
        }
        for inner in [
            "SELECT note FROM inner_t WHERE oid > outer_t.id",
            "SELECT note FROM inner_t WHERE oid = oid + 0",
            "SELECT b.note FROM inner_t a JOIN inner_t b ON a.oid = b.oid WHERE a.oid = outer_t.id",
        ] {
            assert!(!probed(&lateral(inner)), "{inner}");
        }
    }

    /// A bucket scan tests only the rows in the key's bucket, so evaluation
    /// errors differ from a full scan's (see the module docs).
    #[test]
    fn bucket_scan_raises_errors_only_where_it_evaluates() {
        let db = star_db(4, 8);
        let run = |inner: &str| {
            let sql = format!(
                "SELECT * FROM outer_t LEFT JOIN LATERAL ({inner}) AS d ON TRUE \
                 WHERE outer_t.id = 0"
            );
            let q = parse_sql(&sql).unwrap();
            let oracle = crate::eval::eval_query_materialized(&q, &db, &[]);
            (oracle, execute(&q, &db, &[]))
        };
        // A residual that fails on every row: both raise when the bucket
        // holds a row, only the full scan when it holds none.
        let (oracle, got) = run("SELECT note FROM inner_t WHERE note > 5 AND oid = outer_t.id");
        assert!(matches!(oracle, Err(EvalError::Type(_))));
        assert!(matches!(got, Err(EvalError::Type(_))));
        let (oracle, got) =
            run("SELECT note FROM inner_t WHERE note > 5 AND oid = outer_t.id + 10");
        assert!(matches!(oracle, Err(EvalError::Type(_))));
        assert_eq!(got.unwrap().rows[0][2], Value::Null);
        // A key that fails to evaluate raises even where no row matches.
        let (oracle, got) =
            run("SELECT note FROM inner_t WHERE oid < 0 AND oid = outer_t.name + 1");
        assert!(oracle.is_ok());
        assert!(matches!(got, Err(EvalError::Type(_))));
    }

    #[test]
    fn hash_apply_pool_accesses_grow_with_pages_not_rows() {
        let n = 2_000;
        let db = star_db(n, 8);
        let store = db.store().unwrap();
        let pages = store.page_count() as u64;
        let before = store.pool_stats();
        let r = execute(&parse_sql(STAR_APPLY).unwrap(), &db, &[]).unwrap();
        let after = store.pool_stats();
        assert_eq!(r.len(), n as usize);
        assert_eq!(r.rows[0][1], Value::Str(format!("n{:06}", n - 1)));
        let accesses = after.hits + after.misses - (before.hits + before.misses);
        // One pass over each table. A per-outer-row inner scan would touch
        // every inner page once per outer row: more than `n` accesses.
        assert!(
            accesses <= 2 * pages + 16,
            "{accesses} pool accesses over {pages} pages"
        );
    }

    #[test]
    fn volcano_matches_materialized_on_pipelines() {
        let (mem, paged) = twin_dbs(200);
        for sql in [
            "SELECT * FROM t",
            "SELECT x FROM t WHERE g = 3",
            "SELECT g, COUNT(*) AS c, SUM(x) AS s FROM t GROUP BY g",
            "SELECT MAX(x) AS m FROM t WHERE id > 150",
            "SELECT DISTINCT g FROM t ORDER BY g DESC",
            "SELECT id FROM t ORDER BY x, id LIMIT 7",
            "SELECT COUNT(*) AS c FROM t WHERE id > 9999",
        ] {
            let q = parse_sql(sql).unwrap();
            let reference = crate::eval::eval_query_materialized(&q, &mem, &[]).unwrap();
            let via_volcano = execute(&q, &paged, &[]).unwrap();
            assert_eq!(reference, via_volcano, "{sql}");
            // And the public entry point dispatches identically.
            assert_eq!(
                reference,
                crate::eval::eval_query(&q, &paged, &[]).unwrap(),
                "{sql}"
            );
        }
    }

    #[test]
    fn limit_stops_pulling_early() {
        let (_, paged) = twin_dbs(2000);
        let before = paged.store().unwrap().pool_stats();
        let q = parse_sql("SELECT id FROM t LIMIT 3").unwrap();
        let r = execute(&q, &paged, &[]).unwrap();
        assert_eq!(r.len(), 3);
        let after = paged.store().unwrap().pool_stats();
        // Three rows live on the first leaf: at most a couple of page
        // fetches beyond the descent, not a full-table scan.
        assert!(
            after.hits + after.misses - (before.hits + before.misses) < 6,
            "LIMIT must not scan the whole table"
        );
    }
}
