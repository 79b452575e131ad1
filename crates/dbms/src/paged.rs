//! Paged table backing: the `Value` ⇄ bytes codec and the [`PagedTable`]
//! handle that stores rows in a `storage::Store` B-tree.
//!
//! The storage crate is value-agnostic; this module owns the row codec
//! (one tag byte per value, little-endian payloads) and the per-column
//! value hashes fed to the store's statistics sketches. Rowids are
//! assigned monotonically by the store and survive in-place updates, so a
//! B-tree scan returns rows in insertion order — the same observable order
//! as the in-memory `Vec<Row>` backing, which keeps the two backends
//! byte-identical under the evaluator.

use std::borrow::Cow;

use storage::{fnv64, ScanCursor, StorageError, Store, TableStatistics, MAX_RECORD};

use crate::table::Row;
use crate::value::Value;

/// Encode one row. Layout per value: tag byte, then payload —
/// `0` NULL (empty), `1` Bool (1 byte), `2` Int (8 bytes LE),
/// `3` Float (8 bytes LE bits), `4` Str (u32 LE length + UTF-8 bytes).
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Decode a record produced by [`encode_row`] into `row`, which ends up
/// holding one value per encoded value (the table's width). A column whose
/// `keep` flag is set decodes; any other is skipped in the byte stream and
/// reads as NULL. `row` is the caller's buffer, reused from record to record: a
/// text column decodes into the `String` its slot already holds, so a
/// scan that reuses one row allocates nothing once its strings have grown
/// to size. Panics on malformed bytes — records only ever come back from a
/// checksummed page, so corruption is caught at the pager layer first.
pub fn decode_row(mut bytes: &[u8], keep: &[bool], row: &mut Row) {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
        let (head, tail) = bytes.split_at(n);
        *bytes = tail;
        head
    }
    row.reserve(keep.len().saturating_sub(row.len()));
    let mut width = 0;
    while !bytes.is_empty() {
        let kept = keep.get(width) == Some(&true);
        let tag = take(&mut bytes, 1)[0];
        let payload = match tag {
            0 => 0,
            1 => 1,
            2 | 3 => 8,
            4 => u32::from_le_bytes(take(&mut bytes, 4).try_into().expect("4 bytes")) as usize,
            other => panic!("corrupt record: unknown value tag {other}"),
        };
        let payload = take(&mut bytes, payload);
        if width == row.len() {
            row.push(Value::Null);
        }
        let slot = &mut row[width];
        width += 1;
        *slot = match tag {
            _ if !kept => Value::Null,
            0 => Value::Null,
            1 => Value::Bool(payload[0] != 0),
            2 => Value::Int(i64::from_le_bytes(payload.try_into().expect("8 bytes"))),
            3 => Value::Float(f64::from_le_bytes(payload.try_into().expect("8 bytes"))),
            _ => {
                let text = std::str::from_utf8(payload).expect("UTF-8 string");
                if let Value::Str(s) = slot {
                    s.clear();
                    s.push_str(text);
                    continue;
                }
                Value::Str(text.to_string())
            }
        };
    }
    row.truncate(width);
}

/// Hash a value for the NDV sketch; `None` for SQL NULL. Hashes go through
/// [`Value::group_key`] so values that group together (`3` and `3.0`) count
/// as one distinct value, matching GROUP BY semantics.
pub fn value_hash(v: &Value) -> Option<u64> {
    if v.is_null() {
        None
    } else {
        Some(fnv64(v.group_key().as_bytes()))
    }
}

/// Encode a row, failing when the record exceeds a page's capacity.
fn checked_record(row: &[Value]) -> Result<Vec<u8>, StorageError> {
    let record = encode_row(row);
    if record.len() > MAX_RECORD {
        return Err(StorageError::RecordTooLarge(record.len()));
    }
    Ok(record)
}

/// What a statement does to one existing row (see [`Table::edit`]).
///
/// [`Table::edit`]: crate::table::Table::edit
#[derive(Debug, Clone, PartialEq)]
pub enum RowEdit {
    /// Leave the row as it is.
    Keep,
    /// Replace the row with new values, in the same scan position.
    Replace(Row),
    /// Remove the row.
    Delete,
}

/// A table whose rows live in a [`Store`] B-tree.
///
/// Cloning shares the underlying store (an `Arc` handle): the fuzzer and
/// the benchmarks clone whole `Database` values and run both the original
/// and the extracted program against them read-only.
#[derive(Debug, Clone)]
pub struct PagedTable {
    store: Store,
    name: String,
}

impl PagedTable {
    /// Create (or reset) the table `name` in `store` with `ncols` columns.
    pub fn create(store: Store, name: &str, ncols: usize) -> PagedTable {
        store
            .create_table(name, ncols)
            .expect("create table in store");
        PagedTable {
            store,
            name: name.to_string(),
        }
    }

    /// Attach to a table that already exists in `store` — the rebind half
    /// of [`Store::fork`]: a forked store carries the directory entry and
    /// pages, so no create is needed (or wanted).
    pub fn attach(store: Store, name: &str) -> PagedTable {
        PagedTable {
            store,
            name: name.to_string(),
        }
    }

    /// The table's name in the store directory.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append rows in order, feeding the statistics sketches. Every row is
    /// encoded and size-checked before the first append, so a row too
    /// large for a page fails the call with the table unchanged.
    pub fn insert_all(&mut self, rows: &[Row]) -> Result<(), StorageError> {
        let records = rows
            .iter()
            .map(|row| checked_record(row))
            .collect::<Result<Vec<_>, _>>()?;
        for (row, record) in rows.iter().zip(&records) {
            let hashes: Vec<Option<u64>> = row.iter().map(value_hash).collect();
            self.store.append(&self.name, record, &hashes)?;
        }
        Ok(())
    }

    /// Apply `decide` to every row, in two phases. Phase 1 runs the
    /// decisions over one lending scan of the current contents, decoding
    /// each record into one reused row, and encodes every replacement; an
    /// oversized one fails here, before anything is written. A replacement
    /// that encodes to the stored bytes, compared in place, is dropped.
    /// Phase 2 rewrites or removes the chosen rows in place by rowid, so
    /// survivors keep their scan positions.
    pub fn edit(
        &mut self,
        mut decide: impl FnMut(&[Value]) -> RowEdit,
    ) -> Result<(), StorageError> {
        let mut writes: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        let every = vec![true; self.width()];
        let mut row = Row::new();
        let mut cursor = self.store.cursor(&self.name)?;
        while let Some((rowid, record)) = cursor.next_record()? {
            decode_row(record, &every, &mut row);
            match decide(&row) {
                RowEdit::Keep => {}
                RowEdit::Delete => writes.push((rowid, None)),
                RowEdit::Replace(new) => {
                    let new = checked_record(&new)?;
                    if new != record {
                        writes.push((rowid, Some(new)));
                    }
                }
            }
        }
        for (rowid, write) in writes {
            match write {
                Some(record) => self.store.update(&self.name, rowid, &record)?,
                None => self.store.delete(&self.name, rowid)?,
            };
        }
        Ok(())
    }

    /// Rows in the table.
    pub fn len(&self) -> usize {
        self.store.row_count(&self.name).unwrap_or(0) as usize
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Columns per row.
    fn width(&self) -> usize {
        self.store
            .column_count(&self.name)
            .expect("column count of stored table")
    }

    /// An ordered scan (insertion order) decoding the columns `keep` marks
    /// (one flag per column) into the caller's row; the others read as
    /// NULL.
    pub fn scan<'a>(&self, keep: Cow<'a, [bool]>) -> PagedScan<'a> {
        PagedScan {
            cursor: self.store.cursor(&self.name).expect("scan stored table"),
            keep,
        }
    }

    /// Statistics snapshot from the store's sketches, rebuilt by one scan
    /// first when an in-place write left them stale.
    pub fn statistics(&self) -> TableStatistics {
        let every = vec![true; self.width()];
        let mut row = Row::new();
        self.store
            .statistics_with(&self.name, |record| {
                decode_row(record, &every, &mut row);
                row.iter().map(value_hash).collect()
            })
            .expect("statistics for stored table")
    }

    /// The backing store handle.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

/// A paged table's rows in insertion order, each decoded into a row the
/// caller passes in (see [`PagedScan::next_into`]).
pub struct PagedScan<'a> {
    cursor: ScanCursor,
    keep: Cow<'a, [bool]>,
}

impl PagedScan<'_> {
    /// Decode the next row into `row`, reusing its allocations; `false`
    /// past the last row.
    pub fn next_into(&mut self, row: &mut Row) -> bool {
        match self.cursor.next_record().expect("scan stored table") {
            Some((_, record)) => {
                decode_row(record, &self.keep, row);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_tag() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Str("héllo".into()),
            Value::Str(String::new()),
        ];
        let decode = |bytes: &[u8], keep: &[bool]| {
            let mut out = Row::new();
            decode_row(bytes, keep, &mut out);
            out
        };
        let every = [true; 6];
        assert_eq!(decode(&encode_row(&row), &every), row);
        assert_eq!(decode(&[], &[]), Vec::<Value>::new());
        // Unkept columns are skipped, whatever their tag, and read as NULL.
        let keep = [false, false, true, false, false, true];
        let mut want = vec![Value::Null; 6];
        want[2] = Value::Int(-42);
        want[5] = Value::Str(String::new());
        assert_eq!(decode(&encode_row(&row), &keep), want);
        // A reused row is overwritten slot by slot, whatever it held.
        let mut reused = vec![Value::Str("stale".into()), Value::Int(7)];
        decode_row(&encode_row(&row), &every, &mut reused);
        assert_eq!(reused, row);
        decode_row(&encode_row(&row), &keep, &mut reused);
        assert_eq!(reused, want);
    }

    #[test]
    fn value_hash_groups_numerics() {
        assert_eq!(value_hash(&Value::Int(3)), value_hash(&Value::Float(3.0)));
        assert_ne!(value_hash(&Value::Int(3)), value_hash(&Value::Int(4)));
        assert_eq!(value_hash(&Value::Null), None);
    }

    #[test]
    fn paged_table_round_trip() {
        let store = Store::in_memory(8);
        let mut t = PagedTable::create(store, "t", 2);
        let rows: Vec<Row> = (0..300i64)
            .map(|i| vec![Value::Int(i), Value::Str(format!("s{}", i % 3))])
            .collect();
        t.insert_all(&rows).unwrap();
        assert_eq!(t.len(), 300);
        let mut scan = t.scan(Cow::Owned(vec![true; 2]));
        let mut rows: Vec<Row> = Vec::new();
        let mut row = Row::new();
        while scan.next_into(&mut row) {
            rows.push(row.clone());
        }
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[299][1], Value::Str("s2".into()));
        let stats = t.statistics();
        assert_eq!(stats.rows, 300);
        assert_eq!(stats.columns[1].ndv, 3.0);
    }
}
