//! The DML subset backing `executeUpdate`.
//!
//! Originally updates only needed to *exist* so the dependence analysis
//! could observe external writes (paper Sec. 7.1); foreach-dml extraction
//! (DESIGN.md §5i) additionally needs to *run* both sides of a write-loop
//! rewrite, so the executor covers the per-row statements loops issue and
//! the set-oriented statements the extractor emits:
//!
//! ```text
//! INSERT INTO <table> [(<col>, …)] VALUES (<val> [, <val>]*)
//! INSERT INTO <table> [(<col>, …)] SELECT …
//! UPDATE <table> SET <col> = <val> [, …] [WHERE <col> = <val>]
//! UPDATE <table> SET <col> = <s>.<c> [, …] FROM (SELECT …) AS <s>
//!     WHERE <col> = <s>.<c>
//! DELETE FROM <table> [WHERE <col> = <val>]
//! DELETE FROM <table> WHERE <col> IN (SELECT …)
//! DELETE FROM <table> WHERE <predicate>
//! ```
//!
//! Semantics pin down the loop-equivalence argument:
//!
//! * Subqueries are evaluated **fully, against the pre-statement state**,
//!   before any mutation (Halloween protection — exactly the snapshot a
//!   materialized cursor loop sees).
//! * `UPDATE … FROM` applies subquery rows **in order**; when two source
//!   rows hit the same target row the last writer wins, which is the
//!   per-row loop's behaviour.
//! * Key comparisons use SQL equality: `NULL` matches nothing, even
//!   another `NULL`. Keys are matched through hash maps over the shared
//!   equality buckets of [`dbms::bucket`], never by scanning one side per
//!   row of the other.
//! * Both backends serve every form. `INSERT` appends. Every `UPDATE` and
//!   `DELETE` form becomes a per-row decision — keep, replace, delete —
//!   applied through [`dbms::Table::edit`]: a paged table decides over one
//!   scan and encodes every new row before it writes any, then rewrites
//!   or removes just the touched rows in place by rowid.
//! * A row too large for a page is a [`DmlError`], never a panic, and the
//!   failing statement leaves the table unchanged.

use std::collections::HashMap;

use algebra::parse::parse_sql;
use dbms::bucket::{key_hash, key_index, row_hash, row_ident};
use dbms::eval::eval_query;
use dbms::{Database, Row, RowEdit, Table, Value};

/// A DML execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmlError(pub String);

impl std::fmt::Display for DmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DML error: {}", self.0)
    }
}

impl std::error::Error for DmlError {}

/// SQL equality: `NULL` compares equal to nothing (not even `NULL`).
fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a.group_eq(b)
}

fn table_mut<'a>(db: &'a mut Database, table: &str) -> Result<&'a mut Table, DmlError> {
    db.table_mut(table)
        .ok_or_else(|| DmlError(format!("unknown table {table}")))
}

fn column(t: &Table, col: &str) -> Result<usize, DmlError> {
    t.schema
        .column_index(col)
        .ok_or_else(|| DmlError(format!("unknown column {col}")))
}

fn store_error<E: std::fmt::Display>(table: &str) -> impl Fn(E) -> DmlError + '_ {
    move |e| DmlError(format!("cannot write {table}: {e}"))
}

/// Find keyword `kw` as a whole word at paren depth 0 outside quotes,
/// case-insensitively, starting at byte `from`. Returns its byte offset.
fn find_top_kw(s: &str, kw: &str, from: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let kwb = kw.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut depth = 0usize;
    let mut in_str = false;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if c == b'\'' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        match c {
            b'\'' => in_str = true,
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            _ => {
                if depth == 0
                    && i >= from
                    && bytes[i..]
                        .get(..kwb.len())
                        .is_some_and(|w| w.eq_ignore_ascii_case(kwb))
                    && (i == 0 || !is_word(bytes[i - 1]))
                    && (i + kwb.len() == bytes.len() || !is_word(bytes[i + kwb.len()]))
                {
                    return Some(i);
                }
            }
        }
        i += 1;
    }
    None
}

/// Split `s` on top-level commas (outside quotes and parens).
fn split_top_commas(s: &str) -> Vec<&str> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0usize;
    for (i, &c) in bytes.iter().enumerate() {
        if in_str {
            if c == b'\'' {
                in_str = false;
            }
            continue;
        }
        match c {
            b'\'' => in_str = true,
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(s[start..].trim());
    out
}

/// A value position in a simple (subquery-free) clause.
enum SimpleVal {
    Param,
    Lit(Value),
}

fn parse_simple_val(t: &str) -> Result<SimpleVal, DmlError> {
    let t = t.trim();
    if t == "?" {
        Ok(SimpleVal::Param)
    } else {
        Ok(SimpleVal::Lit(parse_lit(t)?))
    }
}

fn parse_lit(t: &str) -> Result<Value, DmlError> {
    if let Some(stripped) = t.strip_prefix('\'') {
        return Ok(Value::Str(stripped.trim_end_matches('\'').to_string()));
    }
    if t.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    if t.eq_ignore_ascii_case("true") {
        return Ok(Value::Bool(true));
    }
    if t.eq_ignore_ascii_case("false") {
        return Ok(Value::Bool(false));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = t.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(DmlError(format!("bad literal {t}")))
}

/// `ident` or error.
fn parse_ident(t: &str) -> Result<String, DmlError> {
    let t = t.trim();
    let ok = !t.is_empty()
        && t.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if ok {
        Ok(t.to_ascii_lowercase())
    } else {
        Err(DmlError(format!("expected identifier, got `{t}`")))
    }
}

/// `alias.column` reference.
fn parse_qualified(t: &str) -> Option<(String, String)> {
    let (q, c) = t.trim().split_once('.')?;
    let q = parse_ident(q).ok()?;
    let c = parse_ident(c).ok()?;
    Some((q, c))
}

/// Evaluate a derived-table clause `( SELECT … ) [AS] alias` against the
/// pre-statement state.
fn eval_derived(
    db: &Database,
    from_text: &str,
    params: &[Value],
) -> Result<(dbms::Relation, String), DmlError> {
    let t = from_text.trim();
    if !t.starts_with('(') {
        return Err(DmlError(format!(
            "expected a derived table `(SELECT …) AS s`, got `{t}`"
        )));
    }
    // Find the matching close paren.
    let mut depth = 0usize;
    let mut in_str = false;
    let mut close = None;
    for (i, c) in t.char_indices() {
        match c {
            '\'' if !in_str => in_str = true,
            '\'' => in_str = false,
            '(' if !in_str => depth += 1,
            ')' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close.ok_or_else(|| DmlError("unbalanced parens in derived table".into()))?;
    let sub_sql = &t[1..close];
    let mut alias = t[close + 1..].trim();
    if let Some(rest) = alias
        .strip_prefix("AS ")
        .or_else(|| alias.strip_prefix("as "))
    {
        alias = rest.trim();
    }
    let alias = parse_ident(alias)?;
    let ra = parse_sql(sub_sql).map_err(|e| DmlError(format!("bad subquery: {e}")))?;
    let rel = eval_query(&ra, db, params).map_err(|e| DmlError(format!("subquery failed: {e}")))?;
    Ok((rel, alias))
}

/// Execute a DML statement; returns the number of affected rows.
/// `params` substitute `?` placeholders positionally (for statements with
/// a subquery, the placeholders live in the subquery).
pub fn execute_update(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let sql = sql.trim().trim_end_matches(';');
    let head = sql
        .split_whitespace()
        .next()
        .map(|t| t.to_ascii_lowercase());
    match head.as_deref() {
        Some("insert") => exec_insert(db, sql, params),
        Some("update") => exec_update(db, sql, params),
        Some("delete") => exec_delete(db, sql, params),
        other => Err(DmlError(format!("unsupported DML {other:?}"))),
    }
}

// --- INSERT ---------------------------------------------------------------

fn exec_insert(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let after = sql["insert".len()..].trim_start();
    let after = after
        .strip_prefix("INTO ")
        .or_else(|| after.strip_prefix("into "))
        .or_else(|| after.strip_prefix("Into "))
        .ok_or_else(|| DmlError("expected INSERT INTO".into()))?
        .trim_start();
    // Table name runs to whitespace or '('.
    let tend = after
        .find(|c: char| c.is_whitespace() || c == '(')
        .unwrap_or(after.len());
    let table = parse_ident(&after[..tend])?;
    let mut rest = after[tend..].trim_start();
    // Optional column list.
    let columns: Option<Vec<String>> =
        if rest.starts_with('(') && find_top_kw(rest, "values", 0) != Some(0) {
            // Distinguish `(cols) VALUES…/SELECT…` from nothing: the column
            // list is a parenthesized ident list right here.
            let close = rest
                .find(')')
                .ok_or_else(|| DmlError("unterminated column list".into()))?;
            let cols = split_top_commas(&rest[1..close])
                .into_iter()
                .map(parse_ident)
                .collect::<Result<Vec<_>, _>>()?;
            rest = rest[close + 1..].trim_start();
            Some(cols)
        } else {
            None
        };
    let schema = db
        .table(&table)
        .map(|t| t.schema.clone())
        .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
    // Map an incoming tuple (in column-list order) to schema order,
    // filling unnamed columns with NULL.
    let reorder = |vals: Vec<Value>| -> Result<Vec<Value>, DmlError> {
        match &columns {
            None => {
                if vals.len() != schema.columns.len() {
                    return Err(DmlError(format!(
                        "INSERT arity mismatch: {} values for {} columns",
                        vals.len(),
                        schema.columns.len()
                    )));
                }
                Ok(vals)
            }
            Some(cols) => {
                if vals.len() != cols.len() {
                    return Err(DmlError(format!(
                        "INSERT arity mismatch: {} values for {} named columns",
                        vals.len(),
                        cols.len()
                    )));
                }
                let mut row = vec![Value::Null; schema.columns.len()];
                for (c, v) in cols.iter().zip(vals) {
                    let i = schema
                        .column_index(c)
                        .ok_or_else(|| DmlError(format!("unknown column {c}")))?;
                    row[i] = v;
                }
                Ok(row)
            }
        }
    };
    if let Some(stripped) = rest
        .strip_prefix("VALUES")
        .or_else(|| rest.strip_prefix("values"))
        .or_else(|| rest.strip_prefix("Values"))
    {
        let tuple = stripped.trim();
        let inner = tuple
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| DmlError("expected VALUES (…)".into()))?;
        let mut vals = Vec::new();
        let mut pi = 0usize;
        for item in split_top_commas(inner) {
            match parse_simple_val(item)? {
                SimpleVal::Param => {
                    vals.push(
                        params
                            .get(pi)
                            .cloned()
                            .ok_or_else(|| DmlError(format!("missing param {pi}")))?,
                    );
                    pi += 1;
                }
                SimpleVal::Lit(v) => vals.push(v),
            }
        }
        let row = reorder(vals)?;
        table_mut(db, &table)?
            .insert(row)
            .map_err(store_error(&table))?;
        Ok(1)
    } else if rest
        .split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("select"))
    {
        // INSERT … SELECT: evaluate fully against the pre-insert state,
        // then append all rows or, when one does not fit a page, none.
        let ra = parse_sql(rest).map_err(|e| DmlError(format!("bad source query: {e}")))?;
        let rel = eval_query(&ra, db, params)
            .map_err(|e| DmlError(format!("source query failed: {e}")))?;
        let rows = rel
            .rows
            .into_iter()
            .map(reorder)
            .collect::<Result<Vec<_>, _>>()?;
        let n = rows.len() as i64;
        table_mut(db, &table)?
            .insert_all(rows)
            .map_err(store_error(&table))?;
        Ok(n)
    } else {
        Err(DmlError("expected VALUES (…) or SELECT".into()))
    }
}

// --- UPDATE ---------------------------------------------------------------

fn exec_update(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let set_pos =
        find_top_kw(sql, "set", 0).ok_or_else(|| DmlError("UPDATE without SET".into()))?;
    let table = parse_ident(&sql["update".len()..set_pos])?;
    let from_pos = find_top_kw(sql, "from", set_pos);
    let where_pos = find_top_kw(sql, "where", from_pos.unwrap_or(set_pos));
    let set_end = from_pos.or(where_pos).unwrap_or(sql.len());
    let set_text = &sql[set_pos + "set".len()..set_end];

    if let Some(fp) = from_pos {
        // Set-oriented form: UPDATE t SET c = s.v, … FROM (SELECT …) AS s
        // WHERE k = s.k0.
        let wp = where_pos.ok_or_else(|| DmlError("UPDATE … FROM needs a WHERE join".into()))?;
        let from_text = &sql[fp + "from".len()..wp];
        let (rel, alias) = eval_derived(db, from_text, params)?;
        let where_text = &sql[wp + "where".len()..];
        let (lhs, rhs) = where_text
            .split_once('=')
            .ok_or_else(|| DmlError("UPDATE … FROM WHERE must be `key = alias.col`".into()))?;
        let key_col = match parse_qualified(lhs) {
            Some((q, c)) if q == table => c,
            Some((q, _)) => return Err(DmlError(format!("unknown qualifier `{q}` in WHERE"))),
            None => parse_ident(lhs)?,
        };
        let (rq, rc) = parse_qualified(rhs)
            .ok_or_else(|| DmlError("WHERE right side must be `alias.col`".into()))?;
        if rq != alias {
            return Err(DmlError(format!("unknown alias `{rq}` in WHERE")));
        }
        let key_src = rel
            .resolve(None, &rc)
            .map_err(|e| DmlError(format!("bad key column: {e}")))?;
        let mut sets = Vec::new();
        for item in split_top_commas(set_text) {
            let (c, v) = item
                .split_once('=')
                .ok_or_else(|| DmlError(format!("bad SET item `{item}`")))?;
            let col = parse_ident(c)?;
            let (vq, vc) = parse_qualified(v)
                .ok_or_else(|| DmlError(format!("SET value must be `{alias}.col`, got `{v}`")))?;
            if vq != alias {
                return Err(DmlError(format!("unknown alias `{vq}` in SET")));
            }
            let src = rel
                .resolve(None, &vc)
                .map_err(|e| DmlError(format!("bad SET source column: {e}")))?;
            sets.push((col, src));
        }
        let t = table_mut(db, &table)?;
        let key_idx = column(t, &key_col)?;
        let set_idxs = sets
            .iter()
            .map(|(c, src)| Ok((column(t, c)?, *src)))
            .collect::<Result<Vec<_>, DmlError>>()?;
        let index = key_index(rel.rows.iter().map(|r| &r[key_src]));
        // The source row at index `i ≥ from` that is next to match `key`.
        let next_match = |key: &Value, from: usize| {
            let hits = index.get(&key_hash(key)?)?;
            let start = hits.partition_point(|&i| i < from);
            hits[start..]
                .iter()
                .copied()
                .find(|&i| sql_eq(key, &rel.rows[i][key_src]))
        };
        let mut affected = 0i64;
        t.edit(|row| {
            // Source rows apply in order, each to the target as the earlier
            // ones left it: last writer wins, matching the per-row loop
            // this statement replaces (a SET of the key column re-keys the
            // row for the source rows after it).
            let mut new: Option<Row> = None;
            let mut from = 0;
            while let Some(i) = next_match(&new.as_deref().unwrap_or(row)[key_idx], from) {
                let target = new.get_or_insert_with(|| row.to_vec());
                for (tc, rc) in &set_idxs {
                    target[*tc] = rel.rows[i][*rc].clone();
                }
                affected += 1;
                from = i + 1;
            }
            new.map_or(RowEdit::Keep, RowEdit::Replace)
        })
        .map_err(store_error(&table))?;
        Ok(affected)
    } else {
        // Per-row form: UPDATE t SET c = v, … [WHERE c = v].
        let mut pi = 0usize;
        let mut take = |v: SimpleVal| -> Result<Value, DmlError> {
            match v {
                SimpleVal::Param => {
                    let v = params
                        .get(pi)
                        .cloned()
                        .ok_or_else(|| DmlError(format!("missing param {pi}")))?;
                    pi += 1;
                    Ok(v)
                }
                SimpleVal::Lit(v) => Ok(v),
            }
        };
        let mut sets = Vec::new();
        for item in split_top_commas(set_text) {
            let (c, v) = item
                .split_once('=')
                .ok_or_else(|| DmlError(format!("bad SET item `{item}`")))?;
            sets.push((parse_ident(c)?, take(parse_simple_val(v)?)?));
        }
        let filter = match where_pos {
            None => None,
            Some(wp) => {
                let (c, v) = sql[wp + "where".len()..]
                    .split_once('=')
                    .ok_or_else(|| DmlError("only `col = val` UPDATE filters supported".into()))?;
                Some((parse_ident(c)?, take(parse_simple_val(v)?)?))
            }
        };
        let t = table_mut(db, &table)?;
        let filter = match filter {
            None => None,
            Some((c, v)) => Some((column(t, &c)?, v)),
        };
        let set_idxs = sets
            .into_iter()
            .map(|(c, v)| Ok((column(t, &c)?, v)))
            .collect::<Result<Vec<_>, DmlError>>()?;
        let mut affected = 0i64;
        t.edit(|row| {
            if filter.as_ref().is_some_and(|(i, v)| !sql_eq(&row[*i], v)) {
                return RowEdit::Keep;
            }
            affected += 1;
            let mut new = row.to_vec();
            for (i, v) in &set_idxs {
                new[*i] = v.clone();
            }
            RowEdit::Replace(new)
        })
        .map_err(store_error(&table))?;
        Ok(affected)
    }
}

// --- DELETE ---------------------------------------------------------------

fn exec_delete(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let from_pos =
        find_top_kw(sql, "from", 0).ok_or_else(|| DmlError("expected DELETE FROM".into()))?;
    let where_pos = find_top_kw(sql, "where", from_pos);
    let table = parse_ident(&sql[from_pos + "from".len()..where_pos.unwrap_or(sql.len())])?;
    let Some(wp) = where_pos else {
        // Unfiltered: clear the table.
        return delete_where(db, &table, |_| true);
    };
    let where_text = sql[wp + "where".len()..].trim();

    if let Some(in_pos) = find_top_kw(where_text, "in", 0) {
        // DELETE FROM t WHERE col IN (SELECT …).
        let col = parse_ident(&where_text[..in_pos])?;
        let sub = where_text[in_pos + "in".len()..].trim();
        let inner = sub
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| DmlError("expected IN (SELECT …)".into()))?;
        let ra = parse_sql(inner).map_err(|e| DmlError(format!("bad subquery: {e}")))?;
        let rel =
            eval_query(&ra, db, params).map_err(|e| DmlError(format!("subquery failed: {e}")))?;
        if rel.fields.len() != 1 {
            return Err(DmlError(format!(
                "IN subquery must produce one column, got {}",
                rel.fields.len()
            )));
        }
        let index = key_index(rel.rows.iter().map(|r| &r[0]));
        let idx = column(table_mut(db, &table)?, &col)?;
        return delete_where(db, &table, |r| {
            let v = &r[idx];
            key_hash(v)
                .and_then(|h| index.get(&h))
                .is_some_and(|hits| hits.iter().any(|&i| sql_eq(v, &rel.rows[i][0])))
        });
    }

    // Simple `col = val` filter (fast path, no parser round trip).
    if let Some((c, v)) = where_text.split_once('=') {
        if let (Ok(col), Ok(val)) = (parse_ident(c), parse_simple_val(v)) {
            let val = match val {
                SimpleVal::Param => params
                    .first()
                    .cloned()
                    .ok_or_else(|| DmlError("missing param".into()))?,
                SimpleVal::Lit(v) => v,
            };
            let idx = column(table_mut(db, &table)?, &col)?;
            return delete_where(db, &table, |r| sql_eq(&r[idx], &val));
        }
    }

    // General predicate: evaluate `SELECT * FROM t WHERE pred` against the
    // pre-delete state and remove exactly the matching rows as a multiset:
    // each doomed row takes the first identical row in scan order.
    let probe = format!("SELECT * FROM {table} WHERE {where_text}");
    let ra = parse_sql(&probe).map_err(|e| DmlError(format!("bad DELETE predicate: {e}")))?;
    let rel = eval_query(&ra, db, params)
        .map_err(|e| DmlError(format!("DELETE predicate failed: {e}")))?;
    let mut doomed: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in rel.rows.iter().enumerate() {
        doomed.entry(row_hash(r)).or_default().push(i);
    }
    delete_where(db, &table, |r| {
        let Some(pending) = doomed.get_mut(&row_hash(r)) else {
            return false;
        };
        match pending.iter().position(|&d| row_ident(&rel.rows[d], r)) {
            Some(at) => {
                pending.remove(at);
                true
            }
            None => false,
        }
    })
}

/// Delete the rows of `table` that `doomed` picks (called once per row, in
/// scan order); returns how many went.
fn delete_where(
    db: &mut Database,
    table: &str,
    mut doomed: impl FnMut(&[Value]) -> bool,
) -> Result<i64, DmlError> {
    let mut removed = 0i64;
    table_mut(db, table)?
        .edit(|r| {
            if doomed(r) {
                removed += 1;
                RowEdit::Delete
            } else {
                RowEdit::Keep
            }
        })
        .map_err(store_error(table))?;
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::schema::{SqlType, TableSchema};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(TableSchema::new(
            "log",
            &[("id", SqlType::Int), ("msg", SqlType::Text)],
        ));
        d.insert("log", vec![Value::Int(1), "a".into()]);
        d.insert("log", vec![Value::Int(2), "b".into()]);
        d
    }

    fn emp_db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
                .with_key(&["id"]),
        );
        d.insert("emp", vec![Value::Int(1), Value::Int(10)]);
        d.insert("emp", vec![Value::Int(2), Value::Int(20)]);
        d.insert("emp", vec![Value::Int(3), Value::Null]);
        d
    }

    #[test]
    fn insert_values() {
        let mut d = db();
        let n = execute_update(&mut d, "INSERT INTO log VALUES (3, 'c')", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("log").unwrap().len(), 3);
    }

    #[test]
    fn insert_with_params() {
        let mut d = db();
        execute_update(
            &mut d,
            "INSERT INTO log VALUES (?, ?)",
            &[Value::Int(9), "z".into()],
        )
        .unwrap();
        assert_eq!(
            d.table("log").unwrap().scan().nth(2).unwrap(),
            vec![Value::Int(9), Value::Str("z".into())]
        );
    }

    #[test]
    fn insert_with_column_list_reorders() {
        let mut d = db();
        execute_update(
            &mut d,
            "INSERT INTO log (msg, id) VALUES (?, ?)",
            &["z".into(), Value::Int(9)],
        )
        .unwrap();
        assert_eq!(
            d.table("log").unwrap().scan().nth(2).unwrap(),
            vec![Value::Int(9), Value::Str("z".into())]
        );
    }

    #[test]
    fn insert_select_snapshots_the_source() {
        let mut d = db();
        // Self-insert must read the pre-statement state: 2 rows in, 2 added.
        let n = execute_update(&mut d, "INSERT INTO log SELECT id, msg FROM log", &[]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(d.table("log").unwrap().len(), 4);
    }

    #[test]
    fn delete_with_filter() {
        let mut d = db();
        let n = execute_update(&mut d, "DELETE FROM log WHERE id = 1", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("log").unwrap().len(), 1);
    }

    #[test]
    fn delete_all() {
        let mut d = db();
        let n = execute_update(&mut d, "DELETE FROM log", &[]).unwrap();
        assert_eq!(n, 2);
        assert!(d.table("log").unwrap().is_empty());
    }

    #[test]
    fn delete_null_key_matches_nothing() {
        let mut d = emp_db();
        let n = execute_update(&mut d, "DELETE FROM emp WHERE salary = ?", &[Value::Null]).unwrap();
        assert_eq!(n, 0, "NULL key must match no rows, not the NULL row");
        assert_eq!(d.table("emp").unwrap().len(), 3);
    }

    #[test]
    fn delete_in_subquery() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "DELETE FROM emp WHERE id IN (SELECT id FROM emp WHERE salary >= 20)",
            &[],
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn delete_general_predicate() {
        let mut d = emp_db();
        // NULL salary is neither < 15 nor >= 15: the row survives.
        let n = execute_update(&mut d, "DELETE FROM emp WHERE (salary < 15)", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn simple_update_with_filter() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "UPDATE emp SET salary = ? WHERE id = ?",
            &[Value::Int(99), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            d.table("emp").unwrap().scan().nth(1).unwrap(),
            vec![Value::Int(2), Value::Int(99)]
        );
    }

    #[test]
    fn update_from_subquery_applies_in_order() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "UPDATE emp SET salary = s.v0 FROM (SELECT e.id AS k0, e.salary + 1 AS v0 \
             FROM emp AS e WHERE e.salary >= 10) AS s WHERE id = s.k0",
            &[],
        )
        .unwrap();
        assert_eq!(n, 2);
        let rows: Vec<_> = d.table("emp").unwrap().scan().collect();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(11)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(21)]);
        assert_eq!(rows[2], vec![Value::Int(3), Value::Null]);
    }

    #[test]
    fn unknown_table_is_error() {
        let mut d = db();
        assert!(execute_update(&mut d, "DELETE FROM nope", &[]).is_err());
    }

    #[test]
    fn unsupported_statement_is_error() {
        let mut d = db();
        assert!(execute_update(&mut d, "MERGE INTO log USING x", &[]).is_err());
    }

    #[test]
    fn paged_backend_agrees_with_mem_on_every_statement_form() {
        // UPDATE/DELETE on a paged table materialize + rewrite; every
        // statement form must leave both backings with identical contents.
        let schema = TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
            .with_key(&["id"]);
        let mut mem = Database::new().with_table(schema.clone());
        let mut paged = Database::paged_in_memory(4).with_table(schema);
        for i in 0..20i64 {
            let row = vec![Value::Int(i), Value::Int(i * 10)];
            mem.insert("emp", row.clone());
            paged.insert("emp", row);
        }
        let stmts: &[&str] = &[
            "INSERT INTO emp VALUES (999, 1)",
            "UPDATE emp SET salary = 7 WHERE id = 3",
            "UPDATE emp SET salary = s.s0 FROM (SELECT id AS k0, salary + 1 AS s0 FROM emp WHERE id < 5) AS s WHERE emp.id = s.k0",
            "DELETE FROM emp WHERE id = 999",
            "DELETE FROM emp WHERE id IN (SELECT id FROM emp WHERE salary > 150)",
            "DELETE FROM emp WHERE salary < 20",
        ];
        for sql in stmts {
            let a = execute_update(&mut mem, sql, &[]).unwrap();
            let b = execute_update(&mut paged, sql, &[]).unwrap();
            assert_eq!(a, b, "affected counts diverge on `{sql}`");
            assert_eq!(
                mem.table("emp").unwrap(),
                paged.table("emp").unwrap(),
                "contents diverge after `{sql}`"
            );
        }
        // Unfiltered DELETE clears the paged table too.
        let n = execute_update(&mut paged, "DELETE FROM emp", &[]).unwrap();
        assert!(n > 0);
        assert!(paged.table("emp").unwrap().is_empty());
    }

    /// A paged copy of every table of `mem`.
    fn paged_copy(mem: &Database, frames: usize) -> Database {
        let mut paged = Database::paged_in_memory(frames);
        for schema in mem.catalog().tables() {
            paged.create_table(schema.clone());
            for row in mem.table(&schema.name).unwrap().scan() {
                paged.insert(&schema.name, row);
            }
        }
        paged
    }

    #[test]
    fn oversized_paged_insert_is_an_error() {
        let mut d = paged_copy(&db(), 4);
        let big = Value::Str("x".repeat(5_000));
        let err = execute_update(
            &mut d,
            "INSERT INTO log VALUES (?, ?)",
            &[Value::Int(3), big],
        )
        .unwrap_err();
        assert!(err.0.contains("exceeds page capacity"), "{err}");
        // INSERT … SELECT stores all rows or none.
        let err = execute_update(
            &mut d,
            "INSERT INTO log SELECT id, msg FROM log UNION ALL SELECT 9, ? FROM log",
            &[Value::Str("y".repeat(5_000))],
        );
        assert!(err.is_err());
        assert_eq!(d.table("log").unwrap(), db().table("log").unwrap());
    }

    #[test]
    fn oversized_paged_update_leaves_table_unchanged() {
        let mut d = paged_copy(&db(), 4);
        let big = Value::Str("x".repeat(5_000));
        let err = execute_update(
            &mut d,
            "UPDATE log SET msg = ? WHERE id = ?",
            &[big, Value::Int(2)],
        )
        .unwrap_err();
        assert!(err.0.contains("exceeds page capacity"), "{err}");
        assert_eq!(d.table("log").unwrap(), db().table("log").unwrap());
    }

    #[test]
    fn per_row_updates_allocate_no_pages() {
        let mut mem = dbms::gen::gen_emp(200, 7);
        let mut paged = paged_copy(&mem, 64);
        let pages = paged.store().unwrap().page_count();
        for id in 0..200i64 {
            let params = [Value::Int(40_000 + id * 3), Value::Int(id)];
            let sql = "UPDATE emp SET salary = ? WHERE id = ?";
            assert_eq!(execute_update(&mut paged, sql, &params).unwrap(), 1);
            execute_update(&mut mem, sql, &params).unwrap();
        }
        assert_eq!(paged.store().unwrap().page_count(), pages);
        assert_eq!(mem.table("emp").unwrap(), paged.table("emp").unwrap());
    }

    #[test]
    fn statistics_after_writes_match_a_fresh_load() {
        let mut paged = paged_copy(&dbms::gen::gen_emp(300, 3), 8);
        for sql in [
            "UPDATE emp SET dept = 'ops' WHERE dept = 'hr'",
            "DELETE FROM emp WHERE (salary < 60000)",
            "UPDATE emp SET name = NULL WHERE dept = 'ops'",
        ] {
            execute_update(&mut paged, sql, &[]).unwrap();
            let fresh = paged_copy(&paged, 8);
            let stats = paged.table("emp").unwrap().statistics().unwrap();
            assert!(!stats.columns.is_empty());
            assert_eq!(
                Some(stats),
                fresh.table("emp").unwrap().statistics(),
                "after `{sql}`"
            );
        }
    }

    /// Keys that stress SQL equality: duplicates, NULLs, and values of
    /// different types that compare equal (`1`, `1.0`, `true`; `0`, `-0.0`).
    fn key_db(seed: u64) -> Database {
        let keys = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Bool(true),
        ];
        let mut rng = dbms::prng::StdRng::seed_from_u64(seed);
        let mut d = Database::new();
        for name in ["t", "src"] {
            d.create_table(TableSchema::new(
                name,
                &[
                    ("k", SqlType::Int),
                    ("v", SqlType::Int),
                    ("n", SqlType::Int),
                ],
            ));
            for _ in 0..rng.gen_range(0..14usize) {
                let pick =
                    |rng: &mut dbms::prng::StdRng| keys[rng.gen_range(0..keys.len())].clone();
                let row = vec![
                    pick(&mut rng),
                    Value::Int(rng.gen_range(0..4i64)),
                    pick(&mut rng),
                ];
                d.insert(name, row);
            }
        }
        d
    }

    /// The per-pair reference: every source row, in order, updates every
    /// target row whose key currently equals its key.
    fn nested_update_from(
        rows: &mut [Row],
        src: &[Row],
        key: usize,
        sets: &[(usize, usize)],
    ) -> i64 {
        let mut affected = 0;
        for s in src {
            for row in rows.iter_mut() {
                if sql_eq(&row[key], &s[0]) {
                    for (tc, sc) in sets {
                        row[*tc] = s[*sc].clone();
                    }
                    affected += 1;
                }
            }
        }
        affected
    }

    /// The reference multiset removal: each row goes when some unused
    /// doomed row is identical to it.
    fn linear_delete(rows: &mut Vec<Row>, mut doomed: Vec<Row>) -> i64 {
        let before = rows.len();
        rows.retain(|r| match doomed.iter().position(|d| row_ident(d, r)) {
            Some(i) => {
                doomed.remove(i);
                false
            }
            None => true,
        });
        (before - rows.len()) as i64
    }

    #[test]
    fn keyed_matching_agrees_with_the_quadratic_reference() {
        let sub = "SELECT k AS k0, v AS v0, n AS n0 FROM src";
        let forms: [(&str, &[(usize, usize)]); 2] = [
            // Duplicate keys: last writer wins, every pair counts.
            ("UPDATE t SET v = s.v0 FROM (SELECT k AS k0, v AS v0, n AS n0 FROM src) AS s WHERE k = s.k0", &[(1, 1)]),
            // Re-keying: later source rows see the new key.
            ("UPDATE t SET k = s.n0, v = s.v0 FROM (SELECT k AS k0, v AS v0, n AS n0 FROM src) AS s WHERE k = s.k0", &[(0, 2), (1, 1)]),
        ];
        for seed in 0..60 {
            let mem = key_db(seed);
            let src = eval_query(&parse_sql(sub).unwrap(), &mem, &[])
                .unwrap()
                .rows;
            for (sql, sets) in forms {
                let mut want = mem.table("t").unwrap().rows_vec();
                let n = nested_update_from(&mut want, &src, 0, sets);
                for mut d in [mem.clone(), paged_copy(&mem, 4)] {
                    assert_eq!(execute_update(&mut d, sql, &[]).unwrap(), n, "{sql}");
                    assert_eq!(d.table("t").unwrap().rows_vec(), want, "seed {seed}: {sql}");
                }
            }
            let sql = "DELETE FROM t WHERE (v < 2)";
            let doomed = eval_query(
                &parse_sql("SELECT * FROM t WHERE (v < 2)").unwrap(),
                &mem,
                &[],
            )
            .unwrap()
            .rows;
            let mut want = mem.table("t").unwrap().rows_vec();
            let n = linear_delete(&mut want, doomed);
            for mut d in [mem.clone(), paged_copy(&mem, 4)] {
                assert_eq!(execute_update(&mut d, sql, &[]).unwrap(), n);
                assert_eq!(d.table("t").unwrap().rows_vec(), want, "seed {seed}: {sql}");
            }
            let sql = "DELETE FROM t WHERE k IN (SELECT n FROM src)";
            let keys: Vec<Value> = mem
                .table("src")
                .unwrap()
                .scan()
                .map(|r| r[2].clone())
                .collect();
            let mut want = mem.table("t").unwrap().rows_vec();
            want.retain(|r| !keys.iter().any(|k| sql_eq(&r[0], k)));
            for mut d in [mem.clone(), paged_copy(&mem, 4)] {
                execute_update(&mut d, sql, &[]).unwrap();
                assert_eq!(d.table("t").unwrap().rows_vec(), want, "seed {seed}: {sql}");
            }
        }
    }
}
