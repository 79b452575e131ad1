//! The volcano (iterator-model) executor: the one engine every query runs
//! on, over in-memory and paged tables alike.
//!
//! An execution first binds the plan once ([`Binder`]) into a tree of
//! [`Node`]s: every scalar becomes a [`Bound`] expression whose columns are
//! slots at some scope depth, each node knows its output fields, and each
//! base-table scan knows which columns it decodes. Operators are then built
//! over that tree; each pulls one row at a time from its child into a
//! buffer the caller owns (see [`Op`]) and evaluates through the bound
//! slots, reading values by reference. Scans, filters, projections, `LIMIT`
//! and aliases stream, and scan → σ → γ/π run through one reused row, so a
//! streaming read allocates nothing per row; over a paged table the scan
//! holds a copy of one B-tree leaf at a time. Pipeline breakers hold only
//! their own state: τ buffers its input (a blocking operator, as the paper
//! treats it), γ one accumulator set per group, δ the distinct rows seen,
//! and a join its right side.
//!
//! **Column pruning.** The binder collects every column name any scalar of
//! the plan names, subqueries included and qualifiers ignored. A base-table
//! scan decodes (paged) or clones (in memory) a column only when its name
//! is in that set; the others read as NULL. The exception is a scan with no
//! π or γ between it and the plan's root or a δ: it keeps every column,
//! since δ compares whole rows and the root (`SELECT *`) returns them. A
//! subquery's root counts as a root.
//!
//! Operators:
//!
//! * **Scans and `VALUES`.** Base tables scan in insertion order (rowid
//!   order for paged tables, `Vec` order in memory).
//! * **Join.** A nested loop: the right side is drained once, and each left
//!   row, in order, is tested against every right row. A `LEFT` join pads
//!   an unmatched left row with NULLs.
//! * **`OUTER APPLY`.** Per outer row, the inner side's operators are built
//!   afresh over its bound nodes and run under that row's scope; an empty
//!   result pads with NULLs. When the inner side's single-input spine (ρ,
//!   `LIMIT`, π, τ, δ, γ, σ) ends in `Select(Table, … col = <outer-only
//!   expr> …)`, that table is read through a [`BucketScan`]: it is scanned
//!   once per execution — lazily, on the first pull — into [`key_index`]
//!   buckets on `col`, and each outer row's pipeline reads only its key's
//!   bucket, in scan order. The `Select` and everything above it run
//!   unchanged on those rows.
//! * **Grouping.** γ without `GROUP BY` keeps a single accumulator set; γ
//!   with it and δ group through [`Groups`] (bucket hash, confirmed with
//!   `group_eq`), so groups emit in first-occurrence order.
//! * **Subqueries.** `EXISTS` and scalar subqueries are bound with the plan
//!   and run as pipelines under the current row's scope, stopping after one
//!   row.
//!
//! Binding raises nothing a lazy evaluation would not: a column that
//! resolves nowhere, a missing parameter, or a subquery over an unknown
//! table raises when evaluated, so an empty input raises nothing.
//!
//! A bucket scan only narrows the rows the `Select` would test, so rows,
//! row order, NULL keys matching nothing, and Int/Float/Bool equality
//! through `sql_cmp` are those of the full scan. Evaluation errors are not
//! kept: a predicate that fails on a row outside the bucket raises nothing
//! here, and a key that fails to evaluate raises its error even where the
//! full scan would test no row. The executor shares the scalar evaluator,
//! comparator and accumulators with the materializing `eval::reference`
//! evaluator; `tests/volcano_diff.rs` holds the two to the same results on
//! in-memory and paged twins.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};

use algebra::ra::{AggFunc, JoinKind, RaExpr, SortOrder};
use algebra::scalar::{BinOp, Lit, Scalar};

use crate::bucket::{key_hash, key_index, Groups, KeyIndex};
use crate::eval::{bind, fields_of, shapes, Accumulator, Bound, EvalError, FirstRow, Scope};
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
    let mut binder = Binder::new(db, params, plan_names(ra));
    let root = binder.node(ra, &[], true)?;
    let exec = binder.finish();
    let mut op = build(
        &root,
        Ctx {
            exec: &exec,
            outer: None,
            probe: None,
        },
    );
    Ok(Relation {
        fields: root.fields().to_vec(),
        rows: drain(&mut *op)?,
    })
}

/// [`crate::eval::eval_scalar`]: bind `e` (and its subqueries) against
/// `scope`, then evaluate it.
pub(crate) fn eval_scalar(
    e: &Scalar,
    db: &Database,
    params: &[Value],
    scope: Option<&Scope<'_>>,
) -> Result<Value, EvalError> {
    let mut names = Vec::new();
    scalar_names(e, &mut names);
    let mut binder = Binder::new(db, params, names);
    let bound = binder.scalar(e, &shapes(scope));
    let exec = binder.finish();
    Ok(bound.eval(scope, &exec)?.into_owned())
}

/// Every column name a scalar of `ra` names, subqueries included.
fn plan_names(ra: &RaExpr) -> Vec<&str> {
    let mut names = Vec::new();
    ra.walk(&mut |node| {
        for e in own_scalars(node) {
            scalar_names(e, &mut names);
        }
    });
    names
}

/// The scalars a plan node evaluates itself (not those of its inputs).
fn own_scalars(ra: &RaExpr) -> Vec<&Scalar> {
    match ra {
        RaExpr::Select { pred, .. } | RaExpr::Join { pred, .. } => vec![pred],
        RaExpr::Project { items, .. } => items.iter().map(|i| &i.expr).collect(),
        RaExpr::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
        RaExpr::Aggregate { group_by, aggs, .. } => group_by
            .iter()
            .map(|g| &g.expr)
            .chain(aggs.iter().map(|a| &a.arg))
            .collect(),
        _ => Vec::new(),
    }
}

/// Column names `e` names, its subqueries' included.
fn scalar_names<'a>(e: &'a Scalar, names: &mut Vec<&'a str>) {
    e.walk(&mut |n| match n {
        Scalar::Col(c) => names.push(&c.column),
        Scalar::Exists(q) | Scalar::Subquery(q) => names.extend(plan_names(q)),
        _ => {}
    });
}

/// A plan node bound for one execution: its output fields, its inputs, and
/// what it evaluates, bound once (see [`Binder`]).
enum Node<'a> {
    Scan {
        /// The `Table` node, which an `OUTER APPLY` [`Probe`] may claim.
        ra: &'a RaExpr,
        table: &'a Table,
        fields: Vec<Field>,
        /// One flag per column: decode it (see the module docs).
        keep: Vec<bool>,
    },
    Values {
        fields: Vec<Field>,
        rows: &'a [Vec<Lit>],
    },
    Select {
        input: Box<Node<'a>>,
        pred: Bound<'a>,
    },
    Project {
        fields: Vec<Field>,
        input: Box<Node<'a>>,
        items: Vec<Bound<'a>>,
    },
    Join {
        fields: Vec<Field>,
        left: Box<Node<'a>>,
        right: Box<Node<'a>>,
        pred: Bound<'a>,
        kind: JoinKind,
    },
    Apply {
        fields: Vec<Field>,
        left: Box<Node<'a>>,
        right: Box<Node<'a>>,
        probe: Option<Probe<'a>>,
    },
    Sort {
        input: Box<Node<'a>>,
        keys: Vec<(Bound<'a>, SortOrder)>,
    },
    Dedup {
        input: Box<Node<'a>>,
    },
    Limit {
        input: Box<Node<'a>>,
        count: usize,
    },
    Aggregate {
        fields: Vec<Field>,
        input: Box<Node<'a>>,
        group_by: Vec<Bound<'a>>,
        aggs: Vec<(AggFunc, Bound<'a>)>,
    },
    Alias {
        fields: Vec<Field>,
        input: Box<Node<'a>>,
    },
}

impl Node<'_> {
    /// The node's output fields.
    fn fields(&self) -> &[Field] {
        match self {
            Node::Scan { fields, .. }
            | Node::Values { fields, .. }
            | Node::Project { fields, .. }
            | Node::Join { fields, .. }
            | Node::Apply { fields, .. }
            | Node::Aggregate { fields, .. }
            | Node::Alias { fields, .. } => fields,
            Node::Select { input, .. }
            | Node::Sort { input, .. }
            | Node::Dedup { input }
            | Node::Limit { input, .. } => input.fields(),
        }
    }
}

/// `fields` in front of the enclosing scopes' `outer`: the shapes a scalar
/// over rows laid out as `fields` binds against.
fn within<'s>(fields: &'s [Field], outer: &[&'s [Field]]) -> Vec<&'s [Field]> {
    std::iter::once(fields)
        .chain(outer.iter().copied())
        .collect()
}

/// Binds a plan for one execution: each node, scalar and subquery once.
struct Binder<'a> {
    db: &'a Database,
    params: &'a [Value],
    /// Every column name the plan names, sorted (see the module docs).
    names: Vec<&'a str>,
    subplans: HashMap<*const RaExpr, Result<Node<'a>, EvalError>>,
}

impl<'a> Binder<'a> {
    fn new(db: &'a Database, params: &'a [Value], mut names: Vec<&'a str>) -> Binder<'a> {
        names.sort_unstable();
        names.dedup();
        Binder {
            db,
            params,
            names,
            subplans: HashMap::new(),
        }
    }

    fn finish(self) -> Exec<'a> {
        Exec {
            subplans: self.subplans,
        }
    }

    /// Bind `e` against `shapes`, and every subquery in it against the
    /// same shapes (a subquery runs under the scope `e` is evaluated in).
    fn scalar(&mut self, e: &'a Scalar, shapes: &[&[Field]]) -> Bound<'a> {
        e.walk(&mut |n| {
            if let Scalar::Exists(q) | Scalar::Subquery(q) = n {
                let plan = self.node(q, shapes, true);
                self.subplans.insert(&**q, plan);
            }
        });
        bind(e, shapes, self.params)
    }

    /// Bind `ra` under enclosing scopes of `outer` shapes (innermost
    /// first). `whole`: no π or γ stands between `ra` and the root or a δ,
    /// so its scans keep every column.
    fn node(
        &mut self,
        ra: &'a RaExpr,
        outer: &[&[Field]],
        whole: bool,
    ) -> Result<Node<'a>, EvalError> {
        let input = |b: &mut Self, input: &'a RaExpr, whole: bool| {
            b.node(input, outer, whole).map(Box::new)
        };
        Ok(match ra {
            RaExpr::Table { name, .. } => {
                let table = self
                    .db
                    .table(name)
                    .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
                let keep = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| whole || self.names.binary_search(&c.name.as_str()).is_ok())
                    .collect();
                Node::Scan {
                    ra,
                    table,
                    fields: fields_of(ra, self.db)?,
                    keep,
                }
            }
            RaExpr::Values { columns, rows } => Node::Values {
                fields: columns.iter().map(Field::new).collect(),
                rows,
            },
            RaExpr::Select { input: i, pred } => {
                let input = input(self, i, whole)?;
                let pred = self.scalar(pred, &within(input.fields(), outer));
                Node::Select { input, pred }
            }
            RaExpr::Project { input: i, items } => {
                let input = input(self, i, false)?;
                let shapes = within(input.fields(), outer);
                let items = items
                    .iter()
                    .map(|i| self.scalar(&i.expr, &shapes))
                    .collect();
                Node::Project {
                    fields: ra_fields(ra),
                    input,
                    items,
                }
            }
            RaExpr::Join {
                left,
                right,
                pred,
                kind,
            } => {
                let (left, right) = (input(self, left, whole)?, input(self, right, whole)?);
                let mut fields = left.fields().to_vec();
                fields.extend_from_slice(right.fields());
                let pred = self.scalar(pred, &within(&fields, outer));
                Node::Join {
                    fields,
                    left,
                    right,
                    pred,
                    kind: *kind,
                }
            }
            RaExpr::OuterApply { left, right } => {
                let left = input(self, left, whole)?;
                let inner = within(left.fields(), outer);
                let probe = Probe::plan(right, self.db, &inner, self.params);
                let right = self.node(right, &inner, whole)?;
                let mut fields = left.fields().to_vec();
                fields.extend_from_slice(right.fields());
                Node::Apply {
                    fields,
                    left,
                    right: Box::new(right),
                    probe,
                }
            }
            RaExpr::Sort { input: i, keys } => {
                let input = input(self, i, whole)?;
                let shapes = within(input.fields(), outer);
                let keys = keys
                    .iter()
                    .map(|k| (self.scalar(&k.expr, &shapes), k.order))
                    .collect();
                Node::Sort { input, keys }
            }
            RaExpr::Dedup { input: i } => Node::Dedup {
                input: input(self, i, true)?,
            },
            RaExpr::Limit { input: i, count } => Node::Limit {
                input: input(self, i, whole)?,
                count: *count as usize,
            },
            RaExpr::Aggregate {
                input: i,
                group_by,
                aggs,
            } => {
                let input = input(self, i, false)?;
                let shapes = within(input.fields(), outer);
                let group_by = group_by
                    .iter()
                    .map(|g| self.scalar(&g.expr, &shapes))
                    .collect();
                let aggs = aggs
                    .iter()
                    .map(|a| (a.func, self.scalar(&a.arg, &shapes)))
                    .collect();
                Node::Aggregate {
                    fields: ra_fields(ra),
                    input,
                    group_by,
                    aggs,
                }
            }
            RaExpr::Aliased { input: i, alias } => {
                let input = input(self, i, whole)?;
                let fields = input
                    .fields()
                    .iter()
                    .map(|f| Field::qualified(alias.clone(), f.name.clone()))
                    .collect();
                Node::Alias { fields, input }
            }
        })
    }
}

/// Output fields of a π or γ, which name their own columns.
fn ra_fields(ra: &RaExpr) -> Vec<Field> {
    match ra {
        RaExpr::Project { items, .. } => {
            items.iter().map(|i| Field::new(i.alias.clone())).collect()
        }
        RaExpr::Aggregate { group_by, aggs, .. } => group_by
            .iter()
            .map(|g| Field::new(g.alias.clone()))
            .chain(aggs.iter().map(|a| Field::new(a.alias.clone())))
            .collect(),
        _ => unreachable!("only π and γ name their columns"),
    }
}

/// One execution's bound subqueries, keyed by node: the [`FirstRow`] hook
/// of its scalars. A subquery that failed to bind raises when it runs.
struct Exec<'a> {
    subplans: HashMap<*const RaExpr, Result<Node<'a>, EvalError>>,
}

impl FirstRow for Exec<'_> {
    fn first_row(&self, q: &RaExpr, scope: Option<&Scope<'_>>) -> Result<Option<Row>, EvalError> {
        let node = self
            .subplans
            .get(&(q as *const RaExpr))
            .expect("subqueries are bound with their plan")
            .as_ref()
            .map_err(Clone::clone)?;
        let mut row = Row::new();
        let found = build(
            node,
            Ctx {
                exec: self,
                outer: scope,
                probe: None,
            },
        )
        .next(&mut row)?;
        Ok(found.then_some(row))
    }
}

/// What every operator evaluates against: the execution (for subqueries),
/// the scope of the enclosing query's current row (for correlated
/// subqueries and `OUTER APPLY` inner sides), and the table an `OUTER
/// APPLY` inner side reads through a [`BucketScan`].
#[derive(Clone, Copy)]
struct Ctx<'a> {
    exec: &'a Exec<'a>,
    outer: Option<&'a Scope<'a>>,
    probe: Option<&'a Probe<'a>>,
}

impl Ctx<'_> {
    /// Is `e` TRUE on `row`, laid out as `fields`, inside the outer scope?
    fn test(&self, e: &Bound<'_>, fields: &[Field], row: &[Value]) -> Result<bool, EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        Ok(e.eval(Some(&scope), self.exec)?.is_true())
    }

    /// The value of `e` on `row`, laid out as `fields`, inside the outer
    /// scope.
    fn value(&self, e: &Bound<'_>, fields: &[Field], row: &[Value]) -> Result<Value, EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        Ok(e.eval(Some(&scope), self.exec)?.into_owned())
    }

    /// Overwrite `out` with the values of `items` on `row`, laid out as
    /// `fields`, inside the outer scope. A value read in place is copied
    /// into the slot's own allocation.
    fn fill(
        &self,
        out: &mut Row,
        items: &[Bound<'_>],
        fields: &[Field],
        row: &[Value],
    ) -> Result<(), EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        out.resize(items.len(), Value::Null);
        for (slot, item) in out.iter_mut().zip(items) {
            match item.eval(Some(&scope), self.exec)? {
                Cow::Borrowed(v) => slot.clone_from(v),
                Cow::Owned(v) => *slot = v,
            }
        }
        Ok(())
    }
}

/// One operator in the pipeline. `next` overwrites the caller's `row` with
/// the next row and returns `true`, or returns `false` past the last row;
/// after `false` or an error, `row` holds nothing of use. The caller owns
/// the buffer and passes the same one on every call, so an operator that
/// hands it down (σ, `LIMIT`, the scan beneath them) or writes into it (π)
/// reuses its allocations from row to row. Pipeline breakers keep rows, so
/// they pull into buffers of their own and take those rows by value.
trait Op {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError>;
}

/// Every remaining row of `op`, owned.
fn drain(op: &mut dyn Op) -> Result<Vec<Row>, EvalError> {
    let mut rows = Vec::new();
    let mut row = Row::new();
    while op.next(&mut row)? {
        rows.push(std::mem::take(&mut row));
    }
    Ok(rows)
}

fn build<'a>(node: &'a Node<'a>, ctx: Ctx<'a>) -> Box<dyn Op + 'a> {
    match node {
        Node::Scan { ra, keep, .. } if ctx.probe.is_some_and(|p| std::ptr::eq(p.scan, *ra)) => {
            Box::new(BucketScan {
                probe: ctx.probe.expect("matched probe"),
                keep,
                hits: None,
                ctx,
            })
        }
        Node::Scan { table, keep, .. } => Box::new(SeqScan {
            scan: table.scan_columns(Cow::Borrowed(keep)),
        }),
        Node::Values { rows, .. } => Box::new(ValuesScan { rows: rows.iter() }),
        Node::Select { input, pred } => Box::new(Filter {
            input: build(input, ctx),
            fields: input.fields(),
            pred,
            ctx,
        }),
        Node::Project { input, items, .. } => Box::new(Project {
            input: build(input, ctx),
            fields: input.fields(),
            items,
            input_row: Row::new(),
            ctx,
        }),
        Node::Join {
            fields,
            left,
            right,
            pred,
            kind,
        } => Box::new(Join {
            left: build(left, ctx),
            right: build(right, ctx),
            pred,
            kind: *kind,
            fields,
            built: None,
            out: VecDeque::new(),
            ctx,
        }),
        Node::Apply {
            fields,
            left,
            right,
            probe,
        } => Box::new(Apply {
            left: build(left, ctx),
            left_fields: left.fields(),
            right,
            probe: probe.as_ref(),
            width: fields.len(),
            out: VecDeque::new(),
            ctx,
        }),
        Node::Sort { input, keys } => Box::new(Sort {
            input: build(input, ctx),
            fields: input.fields(),
            keys,
            buf: None,
            ctx,
        }),
        Node::Dedup { input } => Box::new(Dedup {
            input: build(input, ctx),
            groups: Groups::default(),
            seen: Vec::new(),
        }),
        Node::Limit { input, count } => Box::new(Limit {
            input: build(input, ctx),
            remaining: *count,
        }),
        Node::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => Box::new(Aggregate {
            input: build(input, ctx),
            fields: input.fields(),
            group_by,
            aggs,
            out: None,
            ctx,
        }),
        // ρ only renames, and its node holds the new names.
        Node::Alias { input, .. } => build(input, ctx),
    }
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
/// for paged tables), decoding only the columns its node keeps into the
/// caller's row.
struct SeqScan<'a> {
    scan: TableScan<'a>,
}

impl Op for SeqScan<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        Ok(self.scan.next_into(row))
    }
}

/// `VALUES` — literal rows in order.
struct ValuesScan<'a> {
    rows: std::slice::Iter<'a, Vec<Lit>>,
}

impl Op for ValuesScan<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        let Some(lits) = self.rows.next() else {
            return Ok(false);
        };
        row.clear();
        row.extend(lits.iter().map(Value::from_lit));
        Ok(true)
    }
}

/// σ — keep rows whose predicate is TRUE (not FALSE, not NULL), tested in
/// the caller's buffer.
struct Filter<'a> {
    input: Box<dyn Op + 'a>,
    fields: &'a [Field],
    pred: &'a Bound<'a>,
    ctx: Ctx<'a>,
}

impl Op for Filter<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        while self.input.next(row)? {
            if self.ctx.test(self.pred, self.fields, row)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// π — order-preserving, duplicate-keeping projection: pulls into its own
/// input buffer and writes its items into the caller's row.
struct Project<'a> {
    input: Box<dyn Op + 'a>,
    fields: &'a [Field],
    items: &'a [Bound<'a>],
    input_row: Row,
    ctx: Ctx<'a>,
}

impl Op for Project<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if !self.input.next(&mut self.input_row)? {
            return Ok(false);
        }
        self.ctx
            .fill(row, self.items, self.fields, &self.input_row)?;
        Ok(true)
    }
}

/// ⨝ — nested loop. The right side is drained once, on the first pull;
/// left rows stream, each emitting its matches in right-side order.
struct Join<'a> {
    left: Box<dyn Op + 'a>,
    right: Box<dyn Op + 'a>,
    pred: &'a Bound<'a>,
    kind: JoinKind,
    fields: &'a [Field],
    built: Option<Vec<Row>>,
    out: VecDeque<Row>,
    ctx: Ctx<'a>,
}

impl Op for Join<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        loop {
            if let Some(next) = self.out.pop_front() {
                *row = next;
                return Ok(true);
            }
            if self.built.is_none() {
                self.built = Some(drain(&mut *self.right)?);
            }
            let mut lrow = Row::new();
            if !self.left.next(&mut lrow)? {
                return Ok(false);
            }
            let mut matched = false;
            for rrow in self.built.as_ref().expect("right side drained") {
                let combined = joined(&lrow, rrow.iter().cloned(), self.fields.len());
                if self.ctx.test(self.pred, self.fields, &combined)? {
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

/// `OUTER APPLY` — per outer row, the inner side's operators built over its
/// bound nodes and run under that row's scope (reading its [`Probe`]
/// table, if any, through a [`BucketScan`]), or one NULL-padded row when
/// it yields none.
struct Apply<'a> {
    left: Box<dyn Op + 'a>,
    left_fields: &'a [Field],
    right: &'a Node<'a>,
    probe: Option<&'a Probe<'a>>,
    width: usize,
    out: VecDeque<Row>,
    ctx: Ctx<'a>,
}

impl Op for Apply<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        loop {
            if let Some(next) = self.out.pop_front() {
                *row = next;
                return Ok(true);
            }
            let mut lrow = Row::new();
            if !self.left.next(&mut lrow)? {
                return Ok(false);
            }
            let scope = Scope {
                fields: self.left_fields,
                row: &lrow,
                parent: self.ctx.outer,
            };
            let mut inner = build(
                self.right,
                Ctx {
                    outer: Some(&scope),
                    probe: self.probe,
                    ..self.ctx
                },
            );
            // Every inner row but the last joins a copy of the outer row;
            // the last one, or the NULL padding, takes it by move.
            let mut last = None;
            let mut irow = Row::new();
            while inner.next(&mut irow)? {
                if let Some(prev) = last.replace(std::mem::take(&mut irow)) {
                    self.out.push_back(joined(&lrow, prev, self.width));
                }
            }
            drop(inner);
            self.out.push_back(extended(lrow, last, self.width));
        }
    }
}

/// A base table an `OUTER APPLY` inner side filters on `col = key`, where
/// `key` reads only outer columns: indexed by `col` once per execution.
struct Probe<'a> {
    /// The `Table` node the [`BucketScan`] stands in for.
    scan: &'a RaExpr,
    table: &'a Table,
    col: usize,
    /// Bound against the `OUTER APPLY`'s outer row and enclosing scopes.
    key: Bound<'a>,
    /// The table's rows and their `col` buckets, built on the first pull.
    built: OnceCell<(Vec<Row>, KeyIndex)>,
}

impl<'a> Probe<'a> {
    /// Find `Select(Table, … col = key …)` at the end of the single-input
    /// spine of `right`, binding `key` against `outer`, the shapes the
    /// inner side runs under; `None` leaves every table to a full scan.
    fn plan(
        right: &'a RaExpr,
        db: &'a Database,
        outer: &[&[Field]],
        params: &'a [Value],
    ) -> Option<Probe<'a>> {
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
            col,
            key: bind(key, outer, params),
            built: OnceCell::new(),
        })
    }

    /// The table's rows, read with the `keep` set of the scan it replaces,
    /// and their buckets.
    fn built(&self, keep: &[bool]) -> &(Vec<Row>, KeyIndex) {
        self.built.get_or_init(|| {
            let rows: Vec<Row> = self.table.scan_columns(Cow::Borrowed(keep)).collect();
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
    keep: &'a [bool],
    hits: Option<std::slice::Iter<'a, usize>>,
    ctx: Ctx<'a>,
}

impl Op for BucketScan<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        let (rows, index) = self.probe.built(self.keep);
        if self.hits.is_none() {
            // The key reads no column of the table, so the outer scope
            // alone evaluates it.
            let key = self.probe.key.eval(self.ctx.outer, self.ctx.exec)?;
            self.hits = Some(
                key_hash(&key)
                    .and_then(|h| index.get(&h))
                    .map_or(&[][..], Vec::as_slice)
                    .iter(),
            );
        }
        let hits = self.hits.as_mut().expect("key evaluated");
        let Some(&i) = hits.next() else {
            return Ok(false);
        };
        row.clone_from(&rows[i]);
        Ok(true)
    }
}

/// τ — blocking sort; decorate-sort-undecorate with the shared
/// NULLs-first comparator, stable.
struct Sort<'a> {
    input: Box<dyn Op + 'a>,
    fields: &'a [Field],
    keys: &'a [(Bound<'a>, SortOrder)],
    buf: Option<std::vec::IntoIter<Row>>,
    ctx: Ctx<'a>,
}

impl Op for Sort<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.buf.is_none() {
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
            let mut input = Row::new();
            while self.input.next(&mut input)? {
                let ks = self
                    .keys
                    .iter()
                    .map(|(k, _)| self.ctx.value(k, self.fields, &input))
                    .collect::<Result<Vec<_>, _>>()?;
                decorated.push((ks, std::mem::take(&mut input)));
            }
            let keys = self.keys;
            decorated.sort_by(|(a, _), (b, _)| {
                for (i, (_, order)) in keys.iter().enumerate() {
                    let ord = a[i].sort_cmp(&b[i]);
                    let ord = match order {
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
        Ok(refill(
            row,
            self.buf.as_mut().expect("sorted buffer").next(),
        ))
    }
}

/// Move `next`, if any, into the caller's buffer.
fn refill(row: &mut Row, next: Option<Row>) -> bool {
    match next {
        Some(next) => {
            *row = next;
            true
        }
        None => false,
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
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        while self.input.next(row)? {
            let seen = &self.seen;
            if self.groups.find(row, |i| &seen[i]).is_err() {
                self.seen.push(row.clone());
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// LIMIT — stops *pulling* from its child once satisfied, so a limited
/// scan over a large stored table touches only the leaves it needs.
struct Limit<'a> {
    input: Box<dyn Op + 'a>,
    remaining: usize,
}

impl Op for Limit<'_> {
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.remaining == 0 || !self.input.next(row)? {
            return Ok(false);
        }
        self.remaining -= 1;
        Ok(true)
    }
}

/// γ — streaming aggregation: one pass over the input feeding
/// accumulators, which read each argument by reference. Without `GROUP BY`
/// there is one accumulator set and no key; with it, one set per group,
/// emitted in first-occurrence order. Memory is O(groups), not O(rows).
struct Aggregate<'a> {
    input: Box<dyn Op + 'a>,
    fields: &'a [Field],
    group_by: &'a [Bound<'a>],
    aggs: &'a [(AggFunc, Bound<'a>)],
    out: Option<std::vec::IntoIter<Row>>,
    ctx: Ctx<'a>,
}

impl Aggregate<'_> {
    fn accumulators(&self) -> Vec<Accumulator> {
        self.aggs
            .iter()
            .map(|(f, _)| Accumulator::new(*f))
            .collect()
    }

    /// Feed one input row to an accumulator set.
    fn feed(&self, accs: &mut [Accumulator], row: &[Value]) -> Result<(), EvalError> {
        let scope = Scope {
            fields: self.fields,
            row,
            parent: self.ctx.outer,
        };
        for (acc, (_, arg)) in accs.iter_mut().zip(self.aggs) {
            acc.feed(&*arg.eval(Some(&scope), self.ctx.exec)?)?;
        }
        Ok(())
    }

    /// Run the input to its end through one reused row (and one reused
    /// key row), returning the output rows.
    fn drain(&mut self) -> Result<Vec<Row>, EvalError> {
        let mut row = Row::new();
        if self.group_by.is_empty() {
            // Empty input still yields one row: fresh accumulators finish
            // to COUNT 0 and NULL.
            let mut accs = self.accumulators();
            while self.input.next(&mut row)? {
                self.feed(&mut accs, &row)?;
            }
            return Ok(vec![accs.into_iter().map(Accumulator::finish).collect()]);
        }
        let mut groups = Groups::default();
        let mut state: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        let mut keys = Row::new();
        while self.input.next(&mut row)? {
            self.ctx.fill(&mut keys, self.group_by, self.fields, &row)?;
            let id = match groups.find(&keys, |i| &state[i].0) {
                Ok(id) => id,
                Err(id) => {
                    state.push((keys.clone(), self.accumulators()));
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
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.out.is_none() {
            self.out = Some(self.drain()?.into_iter());
        }
        Ok(refill(
            row,
            self.out.as_mut().expect("aggregate output").next(),
        ))
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
            Probe::plan(apply_inner(&q).expect("an apply"), &db, &[], &[]).is_some()
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
