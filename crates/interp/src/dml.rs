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
//!   another `NULL`.
//! * Both backends serve every form. `INSERT` appends; `UPDATE`/`DELETE`
//!   on a paged table materialize its rows, apply the statement, and
//!   rewrite the table, leaving the same contents the in-memory backend
//!   would.

use algebra::parse::parse_sql;
use dbms::eval::eval_query;
use dbms::{Database, Value};

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

/// Identity of two rows known to come from the same table (for multiset
/// removal): positional `group_eq`, where `NULL` matches `NULL`.
fn row_ident(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.group_eq(y))
}

/// Find keyword `kw` as a whole word at paren depth 0 outside quotes,
/// case-insensitively, starting at byte `from`. Returns its byte offset.
fn find_top_kw(s: &str, kw: &str, from: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let lower: Vec<u8> = bytes.iter().map(|b| b.to_ascii_lowercase()).collect();
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
                    && lower[i..].starts_with(kwb)
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
        db.insert(&table, row);
        Ok(1)
    } else if rest
        .split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("select"))
    {
        // INSERT … SELECT: evaluate fully against the pre-insert state,
        // then append (works on the paged backend too).
        let ra = parse_sql(rest).map_err(|e| DmlError(format!("bad source query: {e}")))?;
        let rel = eval_query(&ra, db, params)
            .map_err(|e| DmlError(format!("source query failed: {e}")))?;
        let rows = rel
            .rows
            .into_iter()
            .map(reorder)
            .collect::<Result<Vec<_>, _>>()?;
        let n = rows.len() as i64;
        for row in rows {
            db.insert(&table, row);
        }
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
        let t = db
            .table_mut(&table)
            .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
        let key_idx = t
            .schema
            .column_index(&key_col)
            .ok_or_else(|| DmlError(format!("unknown column {key_col}")))?;
        let set_idxs = sets
            .iter()
            .map(|(c, src)| {
                t.schema
                    .column_index(c)
                    .map(|i| (i, *src))
                    .ok_or_else(|| DmlError(format!("unknown column {c}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let affected = t.mutate_rows(|rows| {
            let mut affected = 0i64;
            // Source rows apply in order: last writer wins, matching the
            // per-row loop this statement replaces.
            for srow in &rel.rows {
                let key = &srow[key_src];
                for row in rows.iter_mut() {
                    if sql_eq(&row[key_idx], key) {
                        for (tc, rc) in &set_idxs {
                            row[*tc] = srow[*rc].clone();
                        }
                        affected += 1;
                    }
                }
            }
            affected
        });
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
        let t = db
            .table_mut(&table)
            .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
        let filter_idx = match &filter {
            None => None,
            Some((c, _)) => Some(
                t.schema
                    .column_index(c)
                    .ok_or_else(|| DmlError(format!("unknown column {c}")))?,
            ),
        };
        let set_idxs = sets
            .iter()
            .map(|(c, v)| {
                t.schema
                    .column_index(c)
                    .map(|i| (i, v.clone()))
                    .ok_or_else(|| DmlError(format!("unknown column {c}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let affected = t.mutate_rows(|rows| {
            let mut affected = 0i64;
            for row in rows.iter_mut() {
                let hit = match (&filter_idx, &filter) {
                    (Some(i), Some((_, v))) => sql_eq(&row[*i], v),
                    _ => true,
                };
                if hit {
                    for (i, v) in &set_idxs {
                        row[*i] = v.clone();
                    }
                    affected += 1;
                }
            }
            affected
        });
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
        let t = db
            .table_mut(&table)
            .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
        let before = t.mutate_rows(|rows| {
            let before = rows.len();
            rows.clear();
            before
        });
        return Ok(before as i64);
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
        let keys: Vec<Value> = rel.rows.into_iter().map(|mut r| r.remove(0)).collect();
        let t = db
            .table_mut(&table)
            .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
        let idx = t
            .schema
            .column_index(&col)
            .ok_or_else(|| DmlError(format!("unknown column {col}")))?;
        let removed = t.mutate_rows(|rows| {
            let before = rows.len();
            rows.retain(|r| !keys.iter().any(|k| sql_eq(&r[idx], k)));
            before - rows.len()
        });
        return Ok(removed as i64);
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
            let t = db
                .table_mut(&table)
                .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
            let idx = t
                .schema
                .column_index(&col)
                .ok_or_else(|| DmlError(format!("unknown column {col}")))?;
            let removed = t.mutate_rows(|rows| {
                let before = rows.len();
                rows.retain(|r| !sql_eq(&r[idx], &val));
                before - rows.len()
            });
            return Ok(removed as i64);
        }
    }

    // General predicate: evaluate `SELECT * FROM t WHERE pred` against the
    // pre-delete state and remove exactly the matching rows (multiset).
    let probe = format!("SELECT * FROM {table} WHERE {where_text}");
    let ra = parse_sql(&probe).map_err(|e| DmlError(format!("bad DELETE predicate: {e}")))?;
    let rel = eval_query(&ra, db, params)
        .map_err(|e| DmlError(format!("DELETE predicate failed: {e}")))?;
    let mut doomed = rel.rows;
    let t = db
        .table_mut(&table)
        .ok_or_else(|| DmlError(format!("unknown table {table}")))?;
    let removed = t.mutate_rows(|rows| {
        let before = rows.len();
        rows.retain(|r| match doomed.iter().position(|d| row_ident(d, r)) {
            Some(i) => {
                doomed.swap_remove(i);
                false
            }
            None => true,
        });
        before - rows.len()
    });
    Ok(removed as i64)
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
}
