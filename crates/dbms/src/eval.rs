//! Scalar evaluation and the query entry point.
//!
//! Semantics notes (the spec both [`crate::volcano`], the one executor,
//! and the `reference` evaluator follow):
//!
//! * π is order preserving and keeps duplicates (paper Sec. 3.2.1);
//! * δ keeps the first occurrence of each row;
//! * γ follows standard SQL `NULL` semantics (aggregates ignore `NULL`s;
//!   `SUM` of an empty group is `NULL`, `COUNT` is `0`);
//! * δ and γ group values by [`Value::group_eq`]: `NULL` with `NULL`, `3`
//!   with `3.0`, and distinct integers apart even above 2^53; a row joins
//!   the earliest group it equals ([`crate::bucket::Groups`]);
//! * `GREATEST`/`LEAST` ignore `NULL` arguments (PostgreSQL behaviour, which
//!   the paper's Figure 3(d) targets);
//! * correlation (`OUTER APPLY`, `EXISTS`) resolves columns against the
//!   current row first, then outer scopes;
//! * `ORDER BY` places `NULL`s first under `ASC` and last under `DESC`
//!   ([`Value::sort_cmp`] is the single comparator both sides share);
//! * integer arithmetic errors — division/modulo by zero and `i64`
//!   overflow — evaluate to `NULL` (NULL-on-error), never panic or wrap.
//!
//! This comment is the cross-crate semantics spec: the `interp` crate's
//! `imp` operators must agree with it observably (see `tests/fuzz_repros.rs`
//! and `crates/fuzz` for the differential harness that enforces this).

use std::borrow::Cow;
use std::fmt;

use algebra::ra::{AggFunc, RaExpr};
use algebra::scalar::{BinOp, Scalar, ScalarFunc, UnOp};

use crate::table::{Database, Field, Relation, Row};
use crate::value::Value;

/// An evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Referenced base table does not exist.
    UnknownTable(String),
    /// Column resolution failed.
    UnknownColumn(String),
    /// Type mismatch in a scalar operation.
    Type(String),
    /// Parameter index out of range.
    MissingParam(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownTable(t) => write!(f, "unknown table {t}"),
            EvalError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::MissingParam(i) => write!(f, "missing query parameter ?{i}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The rows a bound scalar reads: the current row, laid out as `fields`,
/// inside the scopes of enclosing queries (correlated subqueries and
/// `OUTER APPLY` inner sides read those).
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub(crate) fields: &'a [Field],
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Scope<'a>>,
}

/// The field lists of `scope`'s chain, innermost first: what a scalar
/// evaluated under it binds against.
pub(crate) fn shapes<'a>(scope: Option<&Scope<'a>>) -> Vec<&'a [Field]> {
    std::iter::successors(scope.copied(), |s| s.parent.copied())
        .map(|s| s.fields)
        .collect()
}

/// A scalar bound against the field lists of its scope chain (see
/// [`bind`]): a column is a slot of the row at some depth, a literal or
/// parameter a constant. Evaluation reads values by reference.
pub(crate) enum Bound<'a> {
    Const(Cow<'a, Value>),
    /// Slot `slot` of the row `depth` scopes out (0 = the current row).
    Col {
        depth: usize,
        slot: usize,
    },
    /// A column that resolves nowhere or a missing parameter: raised when
    /// evaluated, not when bound, so an empty input raises nothing.
    Fail(EvalError),
    Bin(BinOp, Box<Bound<'a>>, Box<Bound<'a>>),
    Un(UnOp, Box<Bound<'a>>),
    Func(ScalarFunc, Vec<Bound<'a>>),
    Case(Vec<(Bound<'a>, Bound<'a>)>, Box<Bound<'a>>),
    Exists(&'a RaExpr),
    Subquery(&'a RaExpr),
}

/// Bind `e` against `shapes`, the field lists of the scopes it will be
/// evaluated under, innermost first. A column binds to the first scope
/// that resolves it, as [`resolve_fields`] does within one; subqueries
/// stay unbound, for the [`FirstRow`] hook to run.
///
/// [`resolve_fields`]: crate::table::resolve_fields
pub(crate) fn bind<'a>(e: &'a Scalar, shapes: &[&[Field]], params: &'a [Value]) -> Bound<'a> {
    let bind = |e: &'a Scalar| Box::new(bind(e, shapes, params));
    match e {
        Scalar::Lit(l) => Bound::Const(Cow::Owned(Value::from_lit(l))),
        Scalar::Col(c) => shapes
            .iter()
            .enumerate()
            .find_map(|(depth, fields)| {
                let slot = crate::table::resolve_fields(fields, c.qualifier.as_deref(), &c.column);
                Some(Bound::Col {
                    depth,
                    slot: slot.ok()?,
                })
            })
            .unwrap_or_else(|| Bound::Fail(EvalError::UnknownColumn(c.to_string()))),
        Scalar::Param(i) => params
            .get(*i)
            .map_or(Bound::Fail(EvalError::MissingParam(*i)), |v| {
                Bound::Const(Cow::Borrowed(v))
            }),
        Scalar::Bin(op, l, r) => Bound::Bin(*op, bind(l), bind(r)),
        Scalar::Un(op, x) => Bound::Un(*op, bind(x)),
        Scalar::Func(f, args) => Bound::Func(*f, args.iter().map(|a| *bind(a)).collect()),
        Scalar::Case { arms, otherwise } => Bound::Case(
            arms.iter().map(|(c, v)| (*bind(c), *bind(v))).collect(),
            bind(otherwise),
        ),
        Scalar::Exists(q) => Bound::Exists(q),
        Scalar::Subquery(q) => Bound::Subquery(q),
    }
}

impl<'a> Bound<'a> {
    /// Evaluate under `scope`, whose chain has the shapes this was bound
    /// against. Columns and constants come back borrowed.
    pub(crate) fn eval<'r>(
        &'r self,
        scope: Option<&Scope<'r>>,
        sub: &dyn FirstRow,
    ) -> Result<Cow<'r, Value>, EvalError> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            Bound::Const(v) => Ok(Cow::Borrowed(v)),
            Bound::Col { depth, slot } => {
                let mut s = *scope.expect("a bound column has a scope");
                for _ in 0..*depth {
                    s = *s.parent.expect("the scope chain it was bound against");
                }
                Ok(Cow::Borrowed(&s.row[*slot]))
            }
            Bound::Fail(e) => Err(e.clone()),
            Bound::Bin(op, l, r) => {
                let lv = l.eval(scope, sub)?;
                // Short-circuit three-valued AND/OR.
                match op {
                    BinOp::And => {
                        if *lv == Value::Bool(false) {
                            return owned(Value::Bool(false));
                        }
                        let rv = r.eval(scope, sub)?;
                        return owned(match (&*lv, &*rv) {
                            (_, Value::Bool(false)) => Value::Bool(false),
                            (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                            _ => Value::Null,
                        });
                    }
                    BinOp::Or => {
                        if *lv == Value::Bool(true) {
                            return owned(Value::Bool(true));
                        }
                        let rv = r.eval(scope, sub)?;
                        return owned(match (&*lv, &*rv) {
                            (_, Value::Bool(true)) => Value::Bool(true),
                            (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                            _ => Value::Null,
                        });
                    }
                    _ => {}
                }
                let rv = r.eval(scope, sub)?;
                owned(eval_binop(*op, &lv, &rv)?)
            }
            Bound::Un(op, x) => {
                let v = x.eval(scope, sub)?;
                owned(match (op, &*v) {
                    (UnOp::Neg | UnOp::Not, Value::Null) => Value::Null,
                    // checked_neg: -i64::MIN overflows → NULL-on-error.
                    (UnOp::Neg, Value::Int(i)) => i.checked_neg().map_or(Value::Null, Value::Int),
                    (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                    (UnOp::Neg, other) => {
                        return Err(EvalError::Type(format!("cannot negate {other}")))
                    }
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnOp::Not, other) => {
                        return Err(EvalError::Type(format!("cannot NOT {other}")))
                    }
                    (UnOp::IsNull, v) => Value::Bool(v.is_null()),
                    (UnOp::IsNotNull, v) => Value::Bool(!v.is_null()),
                })
            }
            Bound::Func(f, args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(scope, sub))
                    .collect::<Result<Vec<_>, _>>()?;
                owned(eval_func(*f, vals)?)
            }
            Bound::Case(arms, otherwise) => {
                for (c, v) in arms {
                    if c.eval(scope, sub)?.is_true() {
                        return v.eval(scope, sub);
                    }
                }
                otherwise.eval(scope, sub)
            }
            Bound::Exists(q) => owned(Value::Bool(sub.first_row(q, scope)?.is_some())),
            Bound::Subquery(q) => owned(
                sub.first_row(q, scope)?
                    .and_then(|r| r.into_iter().next())
                    .unwrap_or(Value::Null),
            ),
        }
    }
}

/// Evaluate a query against a database with positional parameters.
///
/// Every plan, over in-memory or paged tables, runs on the volcano
/// executor ([`crate::volcano`]); there is no second production path.
pub fn eval_query(ra: &RaExpr, db: &Database, params: &[Value]) -> Result<Relation, EvalError> {
    crate::volcano::execute(ra, db, params)
}

/// Evaluate through the materializing [`reference`] evaluator, the
/// oracle side of the executor's differential tests.
#[cfg(any(test, feature = "test-oracles"))]
pub fn eval_query_materialized(
    ra: &RaExpr,
    db: &Database,
    params: &[Value],
) -> Result<Relation, EvalError> {
    reference::eval_ra(ra, db, params, None)
}

/// Output fields of an algebra expression, without evaluating it.
pub fn fields_of(ra: &RaExpr, db: &Database) -> Result<Vec<Field>, EvalError> {
    match ra {
        RaExpr::Table { name, alias } => {
            let t = db
                .table(name)
                .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
            let q = alias.clone().unwrap_or_else(|| name.clone());
            Ok(t.schema
                .columns
                .iter()
                .map(|c| Field::qualified(q.clone(), c.name.clone()))
                .collect())
        }
        RaExpr::Values { columns, .. } => Ok(columns.iter().map(Field::new).collect()),
        RaExpr::Select { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. } => fields_of(input, db),
        RaExpr::Aliased { input, alias } => Ok(fields_of(input, db)?
            .into_iter()
            .map(|f| Field::qualified(alias.clone(), f.name))
            .collect()),
        RaExpr::Project { items, .. } => {
            Ok(items.iter().map(|i| Field::new(i.alias.clone())).collect())
        }
        RaExpr::Join { left, right, .. } | RaExpr::OuterApply { left, right } => {
            let mut f = fields_of(left, db)?;
            f.extend(fields_of(right, db)?);
            Ok(f)
        }
        RaExpr::Aggregate { group_by, aggs, .. } => {
            let mut f: Vec<Field> = group_by
                .iter()
                .map(|g| Field::new(g.alias.clone()))
                .collect();
            f.extend(aggs.iter().map(|a| Field::new(a.alias.clone())));
            Ok(f)
        }
    }
}

/// Streaming aggregate accumulator with SQL NULL semantics. A fresh
/// accumulator finishes to the empty-input value (`COUNT` 0, else `NULL`).
pub(crate) struct Accumulator {
    func: AggFunc,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    all_int: bool,
    overflowed: bool,
    best: Option<Value>,
}

impl Accumulator {
    pub(crate) fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            all_int: true,
            overflowed: false,
            best: None,
        }
    }

    pub(crate) fn feed(&mut self, v: &Value) -> Result<(), EvalError> {
        if v.is_null() {
            return Ok(()); // aggregates ignore NULLs
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    // NULL-on-error: an overflowing integer SUM poisons the
                    // whole aggregate rather than panicking or wrapping.
                    match self.sum_i.checked_add(*i) {
                        Some(s) => self.sum_i = s,
                        None => self.overflowed = true,
                    }
                    self.sum_f += *i as f64;
                }
                Value::Float(x) => {
                    self.all_int = false;
                    self.sum_f += x;
                }
                other => {
                    return Err(EvalError::Type(format!("cannot SUM/AVG over {other}")));
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let better = match &self.best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Greater) => self.func == AggFunc::Max,
                        Some(std::cmp::Ordering::Less) => self.func == AggFunc::Min,
                        _ => false,
                    },
                };
                if better {
                    self.best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 || (self.all_int && self.overflowed) {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum_i)
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// Runs a (possibly correlated) subquery under a scope and returns its
/// first row: the one hook through which `EXISTS` and scalar subqueries
/// reach an executor.
pub(crate) trait FirstRow {
    fn first_row(&self, q: &RaExpr, scope: Option<&Scope<'_>>) -> Result<Option<Row>, EvalError>;
}

/// Evaluate a scalar expression in a scope: bound against the scope's
/// fields, then evaluated, with subqueries on the volcano executor.
pub fn eval_scalar(
    e: &Scalar,
    db: &Database,
    params: &[Value],
    scope: Option<&Scope<'_>>,
) -> Result<Value, EvalError> {
    crate::volcano::eval_scalar(e, db, params, scope)
}

/// Evaluate a binary operation on two values with SQL semantics (NULL
/// propagation, mixed numeric widening, integer division-by-zero → NULL).
/// Exposed for the `interp` crate, whose `imp` arithmetic matches.
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.sql_cmp(r);
        return Ok(match ord {
            None => {
                // Comparable-but-mixed types: only (in)equality is defined.
                match op {
                    BinOp::Eq => Value::Bool(false),
                    BinOp::Ne => Value::Bool(true),
                    _ => return Err(EvalError::Type(format!("cannot compare {l} with {r}"))),
                }
            }
            Some(o) => Value::Bool(match op {
                BinOp::Eq => o == std::cmp::Ordering::Equal,
                BinOp::Ne => o != std::cmp::Ordering::Equal,
                BinOp::Lt => o == std::cmp::Ordering::Less,
                BinOp::Le => o != std::cmp::Ordering::Greater,
                BinOp::Gt => o == std::cmp::Ordering::Greater,
                BinOp::Ge => o != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        });
    }
    // Arithmetic. Integer errors (overflow, division by zero) yield NULL —
    // one defined behaviour shared with the interpreter instead of the
    // panic-in-debug / wrap-in-release split of native `i64` arithmetic.
    match (op, l, r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_add(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_sub(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_mul(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Div, Value::Int(a), Value::Int(b)) => {
            // Covers b == 0 and i64::MIN / -1.
            Ok(a.checked_div(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Mod, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                Ok(Value::Null)
            } else {
                // wrapping_rem defines i64::MIN % -1 as 0.
                Ok(Value::Int(a.wrapping_rem(*b)))
            }
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::Type(format!(
                        "arithmetic on non-numeric values {l}, {r}"
                    )))
                }
            };
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!(),
            }))
        }
    }
}

fn eval_func(f: ScalarFunc, vals: Vec<Cow<'_, Value>>) -> Result<Value, EvalError> {
    match f {
        ScalarFunc::Greatest | ScalarFunc::Least => {
            // PostgreSQL behaviour: NULLs ignored; NULL only if all NULL.
            let mut best: Option<Cow<'_, Value>> = None;
            for v in vals {
                if v.is_null() {
                    continue;
                }
                let take = match &best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Greater) => f == ScalarFunc::Greatest,
                        Some(std::cmp::Ordering::Less) => f == ScalarFunc::Least,
                        _ => false,
                    },
                };
                if take {
                    best = Some(v);
                }
            }
            Ok(best.map_or(Value::Null, Cow::into_owned))
        }
        ScalarFunc::Abs => match vals.first().map(|v| &**v) {
            // checked_abs: ABS(i64::MIN) overflows → NULL-on-error.
            Some(Value::Int(i)) => Ok(i.checked_abs().map_or(Value::Null, Value::Int)),
            Some(Value::Float(x)) => Ok(Value::Float(x.abs())),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(EvalError::Type(format!("ABS of {other}"))),
        },
        ScalarFunc::Concat => {
            let mut s = String::new();
            for v in vals {
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            Ok(Value::Str(s))
        }
        ScalarFunc::Lower => str_func(vals, |s| s.to_lowercase()),
        ScalarFunc::Upper => str_func(vals, |s| s.to_uppercase()),
        ScalarFunc::Length => match vals.first().map(|v| &**v) {
            Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(EvalError::Type(format!("LENGTH of {other}"))),
        },
        ScalarFunc::Coalesce => Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .map_or(Value::Null, Cow::into_owned)),
    }
}

fn str_func(vals: Vec<Cow<'_, Value>>, f: impl Fn(&str) -> String) -> Result<Value, EvalError> {
    match vals.first().map(|v| &**v) {
        Some(Value::Str(s)) => Ok(Value::Str(f(s))),
        Some(Value::Null) | None => Ok(Value::Null),
        Some(other) => Err(EvalError::Type(format!("string function on {other}"))),
    }
}

/// The materializing evaluator, kept as the test oracle for
/// [`crate::volcano`]: every operator builds its whole output before its
/// parent runs, `OUTER APPLY` re-evaluates the inner side for every outer
/// row, joins compare every pair of rows, and subqueries run here too.
/// Only scalar evaluation is shared with the executor.
#[cfg(any(test, feature = "test-oracles"))]
pub mod reference {
    use algebra::ra::{AggCall, JoinKind, RaExpr, SortOrder};
    use algebra::scalar::Scalar;

    use super::{bind, fields_of, shapes, Accumulator, EvalError, FirstRow, Scope};
    use crate::bucket::Groups;
    use crate::table::{Database, Field, Relation, Row};
    use crate::value::Value;

    /// Bind `e` against `scope` and evaluate it, running subqueries here.
    fn eval_scalar(
        e: &Scalar,
        db: &Database,
        params: &[Value],
        scope: Option<&Scope<'_>>,
    ) -> Result<Value, EvalError> {
        let bound = bind(e, &shapes(scope), params);
        Ok(bound.eval(scope, &Oracle { db, params })?.into_owned())
    }

    struct Oracle<'a> {
        db: &'a Database,
        params: &'a [Value],
    }

    impl FirstRow for Oracle<'_> {
        fn first_row(
            &self,
            q: &RaExpr,
            scope: Option<&Scope<'_>>,
        ) -> Result<Option<Row>, EvalError> {
            Ok(eval_ra(q, self.db, self.params, scope)?
                .rows
                .into_iter()
                .next())
        }
    }

    /// Evaluate `ra` bottom-up under an optional outer scope.
    pub fn eval_ra(
        ra: &RaExpr,
        db: &Database,
        params: &[Value],
        outer: Option<&Scope<'_>>,
    ) -> Result<Relation, EvalError> {
        match ra {
            RaExpr::Table { name, .. } => {
                let t = db
                    .table(name)
                    .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
                Ok(Relation {
                    fields: fields_of(ra, db)?,
                    rows: t.rows_vec(),
                })
            }
            RaExpr::Values { columns, rows } => Ok(Relation {
                fields: columns.iter().map(Field::new).collect(),
                rows: rows
                    .iter()
                    .map(|r| r.iter().map(Value::from_lit).collect())
                    .collect(),
            }),
            RaExpr::Select { input, pred } => {
                let rel = eval_ra(input, db, params, outer)?;
                let mut rows = Vec::new();
                for row in &rel.rows {
                    let scope = Scope {
                        fields: &rel.fields,
                        row,
                        parent: outer,
                    };
                    if eval_scalar(pred, db, params, Some(&scope))?.is_true() {
                        rows.push(row.clone());
                    }
                }
                Ok(Relation {
                    fields: rel.fields,
                    rows,
                })
            }
            RaExpr::Project { input, items } => {
                let rel = eval_ra(input, db, params, outer)?;
                let fields = items.iter().map(|i| Field::new(i.alias.clone())).collect();
                let mut rows = Vec::with_capacity(rel.rows.len());
                for row in &rel.rows {
                    let scope = Scope {
                        fields: &rel.fields,
                        row,
                        parent: outer,
                    };
                    let mut out = Vec::with_capacity(items.len());
                    for i in items {
                        out.push(eval_scalar(&i.expr, db, params, Some(&scope))?);
                    }
                    rows.push(out);
                }
                Ok(Relation { fields, rows })
            }
            RaExpr::Join {
                left,
                right,
                pred,
                kind,
            } => {
                let l = eval_ra(left, db, params, outer)?;
                let r = eval_ra(right, db, params, outer)?;
                let mut fields = l.fields.clone();
                fields.extend(r.fields.clone());
                let mut rows = Vec::new();
                for lrow in &l.rows {
                    let mut matched = false;
                    for rrow in &r.rows {
                        let mut combined = lrow.clone();
                        combined.extend(rrow.iter().cloned());
                        let scope = Scope {
                            fields: &fields,
                            row: &combined,
                            parent: outer,
                        };
                        if eval_scalar(pred, db, params, Some(&scope))?.is_true() {
                            matched = true;
                            rows.push(combined);
                        }
                    }
                    if !matched && *kind == JoinKind::LeftOuter {
                        let mut combined = lrow.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, r.fields.len()));
                        rows.push(combined);
                    }
                }
                Ok(Relation { fields, rows })
            }
            RaExpr::OuterApply { left, right } => {
                let l = eval_ra(left, db, params, outer)?;
                let right_fields = fields_of(right, db)?;
                let mut fields = l.fields.clone();
                fields.extend(right_fields.clone());
                let mut rows = Vec::new();
                for lrow in &l.rows {
                    let scope = Scope {
                        fields: &l.fields,
                        row: lrow,
                        parent: outer,
                    };
                    let inner = eval_ra(right, db, params, Some(&scope))?;
                    if inner.rows.is_empty() {
                        let mut combined = lrow.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right_fields.len()));
                        rows.push(combined);
                    } else {
                        for irow in &inner.rows {
                            let mut combined = lrow.clone();
                            combined.extend(irow.iter().cloned());
                            rows.push(combined);
                        }
                    }
                }
                Ok(Relation { fields, rows })
            }
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rel = eval_ra(input, db, params, outer)?;
                eval_aggregate(&rel, group_by, aggs, db, params, outer)
            }
            RaExpr::Sort { input, keys } => {
                let rel = eval_ra(input, db, params, outer)?;
                // Decorate-sort-undecorate for stability and single evaluation.
                let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rel.rows.len());
                for row in &rel.rows {
                    let scope = Scope {
                        fields: &rel.fields,
                        row,
                        parent: outer,
                    };
                    let mut ks = Vec::with_capacity(keys.len());
                    for k in keys {
                        ks.push(eval_scalar(&k.expr, db, params, Some(&scope))?);
                    }
                    decorated.push((ks, row.clone()));
                }
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
                Ok(Relation {
                    fields: rel.fields,
                    rows: decorated.into_iter().map(|(_, r)| r).collect(),
                })
            }
            RaExpr::Dedup { input } => {
                let rel = eval_ra(input, db, params, outer)?;
                let mut groups = Groups::default();
                let mut rows: Vec<Row> = Vec::new();
                for row in rel.rows {
                    if groups.find(&row, |i| &rows[i]).is_err() {
                        rows.push(row);
                    }
                }
                Ok(Relation {
                    fields: rel.fields,
                    rows,
                })
            }
            RaExpr::Limit { input, count } => {
                let mut rel = eval_ra(input, db, params, outer)?;
                rel.rows.truncate(*count as usize);
                Ok(rel)
            }
            RaExpr::Aliased { input, alias } => {
                let rel = eval_ra(input, db, params, outer)?;
                Ok(Relation {
                    fields: rel
                        .fields
                        .into_iter()
                        .map(|f| Field::qualified(alias.clone(), f.name))
                        .collect(),
                    rows: rel.rows,
                })
            }
        }
    }

    fn eval_aggregate(
        rel: &Relation,
        group_by: &[algebra::ra::ProjItem],
        aggs: &[AggCall],
        db: &Database,
        params: &[Value],
        outer: Option<&Scope<'_>>,
    ) -> Result<Relation, EvalError> {
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|g| Field::new(g.alias.clone()))
            .collect();
        fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone())));

        // Group rows preserving first-occurrence order of groups.
        let mut groups = Groups::default();
        let mut members: Vec<(Row, Vec<usize>)> = Vec::new();
        for (idx, row) in rel.rows.iter().enumerate() {
            let scope = Scope {
                fields: &rel.fields,
                row,
                parent: outer,
            };
            let mut keys = Vec::with_capacity(group_by.len());
            for g in group_by {
                keys.push(eval_scalar(&g.expr, db, params, Some(&scope))?);
            }
            match groups.find(&keys, |i| &members[i].0) {
                Ok(id) => members[id].1.push(idx),
                Err(_) => members.push((keys, vec![idx])),
            }
        }

        // Empty input with no GROUP BY still yields one (all-NULL/zero) row.
        if rel.rows.is_empty() && group_by.is_empty() {
            let out = aggs.iter().map(|a| Accumulator::new(a.func).finish());
            return Ok(Relation {
                fields,
                rows: vec![out.collect()],
            });
        }

        let mut rows = Vec::with_capacity(members.len());
        for (keys, idxs) in members {
            let mut out = keys;
            for a in aggs {
                let mut acc = Accumulator::new(a.func);
                for &i in &idxs {
                    let row = &rel.rows[i];
                    let scope = Scope {
                        fields: &rel.fields,
                        row,
                        parent: outer,
                    };
                    let v = eval_scalar(&a.arg, db, params, Some(&scope))?;
                    acc.feed(&v)?;
                }
                out.push(acc.finish());
            }
            rows.push(out);
        }
        Ok(Relation { fields, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "board",
                &[
                    ("id", SqlType::Int),
                    ("rnd_id", SqlType::Int),
                    ("p1", SqlType::Int),
                    ("p2", SqlType::Int),
                ],
            )
            .with_key(&["id"]),
        );
        for (id, rnd, p1, p2) in [(1, 1, 10, 20), (2, 1, 30, 5), (3, 2, 99, 1)] {
            d.insert(
                "board",
                vec![
                    Value::Int(id),
                    Value::Int(rnd),
                    Value::Int(p1),
                    Value::Int(p2),
                ],
            );
        }
        d
    }

    fn run(sql: &str, d: &Database, params: &[Value]) -> Relation {
        eval_query(&parse_sql(sql).unwrap(), d, params).unwrap()
    }

    #[test]
    fn select_filters_rows() {
        let r = run("SELECT * FROM board WHERE rnd_id = 1", &db(), &[]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parameterized_query() {
        let r = run(
            "SELECT * FROM board WHERE rnd_id = ?",
            &db(),
            &[Value::Int(2)],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn projection_preserves_order() {
        let r = run("SELECT p1 FROM board", &db(), &[]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(30)],
                vec![Value::Int(99)]
            ]
        );
    }

    #[test]
    fn greatest_in_projection() {
        let r = run(
            "SELECT GREATEST(p1, p2) AS m FROM board WHERE rnd_id = 1",
            &db(),
            &[],
        );
        assert_eq!(r.rows, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);
    }

    #[test]
    fn aggregate_max() {
        let r = run("SELECT MAX(p1) AS m FROM board", &db(), &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
    }

    #[test]
    fn aggregate_over_empty_is_null_count_zero() {
        let r = run(
            "SELECT MAX(p1) AS m, COUNT(*) AS c FROM board WHERE rnd_id = 9",
            &db(),
            &[],
        );
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn group_by_preserves_first_occurrence_order() {
        let r = run(
            "SELECT rnd_id, SUM(p1) AS s FROM board GROUP BY rnd_id",
            &db(),
            &[],
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(40)],
                vec![Value::Int(2), Value::Int(99)]
            ]
        );
    }

    #[test]
    fn join_combines_rows() {
        let mut d = db();
        d.create_table(TableSchema::new(
            "round",
            &[("rid", SqlType::Int), ("name", SqlType::Text)],
        ));
        d.insert("round", vec![Value::Int(1), "first".into()]);
        d.insert("round", vec![Value::Int(2), "second".into()]);
        let r = run(
            "SELECT * FROM board b JOIN round r ON b.rnd_id = r.rid WHERE r.name = 'second'",
            &d,
            &[],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut d = db();
        d.create_table(TableSchema::new("round", &[("rid", SqlType::Int)]));
        d.insert("round", vec![Value::Int(1)]);
        let e = parse_sql("SELECT * FROM board b LEFT JOIN round r ON b.rnd_id = r.rid").unwrap();
        let r = eval_query(&e, &d, &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[2][4], Value::Null, "unmatched row padded");
    }

    #[test]
    fn order_by_desc_sorts() {
        let r = run("SELECT id FROM board ORDER BY p1 DESC", &db(), &[]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(2)],
                vec![Value::Int(1)]
            ]
        );
    }

    #[test]
    fn distinct_keeps_first() {
        let r = run("SELECT DISTINCT rnd_id FROM board", &db(), &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn outer_apply_correlates_and_pads() {
        let mut d = db();
        d.create_table(TableSchema::new(
            "detail",
            &[("board_id", SqlType::Int), ("note", SqlType::Text)],
        ));
        d.insert("detail", vec![Value::Int(1), "a".into()]);
        let inner = RaExpr::table("detail").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("detail", "board_id"),
            Scalar::qcol("board", "id"),
        ));
        let q = RaExpr::table("board").outer_apply(inner);
        let r = eval_query(&q, &d, &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][5], Value::Str("a".into()));
        assert_eq!(r.rows[1][5], Value::Null);
    }

    #[test]
    fn exists_subquery_correlated() {
        let mut d = db();
        d.create_table(TableSchema::new("flag", &[("bid", SqlType::Int)]));
        d.insert("flag", vec![Value::Int(2)]);
        let sub = RaExpr::table("flag").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("flag", "bid"),
            Scalar::qcol("board", "id"),
        ));
        let q = RaExpr::table("board").select(Scalar::Exists(Box::new(sub)));
        let r = eval_query(&q, &d, &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn three_valued_logic() {
        // NULL OR TRUE = TRUE; NULL AND TRUE = NULL (filtered out).
        let d = Database::new();
        let t = eval_scalar(
            &Scalar::Lit(algebra::scalar::Lit::Null).or(Scalar::bool(true)),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(t, Value::Bool(true));
        let u = eval_scalar(
            &Scalar::Bin(
                BinOp::And,
                Box::new(Scalar::Lit(algebra::scalar::Lit::Null)),
                Box::new(Scalar::bool(true)),
            ),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(u, Value::Null);
    }

    #[test]
    fn division_by_zero_is_null() {
        let d = Database::new();
        let v = eval_scalar(
            &Scalar::Bin(
                BinOp::Div,
                Box::new(Scalar::int(1)),
                Box::new(Scalar::int(0)),
            ),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn missing_param_is_error() {
        let e = parse_sql("SELECT * FROM board WHERE id = ?").unwrap();
        assert_eq!(eval_query(&e, &db(), &[]), Err(EvalError::MissingParam(0)));
    }

    #[test]
    fn unknown_table_is_error() {
        let e = parse_sql("SELECT * FROM nope").unwrap();
        assert!(matches!(
            eval_query(&e, &db(), &[]),
            Err(EvalError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_is_error() {
        let e = parse_sql("SELECT * FROM board WHERE zzz = 1").unwrap();
        assert!(matches!(
            eval_query(&e, &db(), &[]),
            Err(EvalError::UnknownColumn(_))
        ));
    }

    #[test]
    fn values_node_evaluates() {
        use algebra::scalar::Lit;
        let q = RaExpr::Values {
            columns: vec!["x".into()],
            rows: vec![vec![Lit::Int(1)], vec![Lit::Int(2)]],
        };
        let r = eval_query(&q, &Database::new(), &[]).unwrap();
        assert_eq!(r.len(), 2);
    }
}
