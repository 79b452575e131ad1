//! The store façade: named tables over one paged file.
//!
//! Page 0 is the meta page: magic, format version, and the table
//! directory (name, B-tree root, next rowid, row count, column count).
//! Every other page belongs to some table's B-tree. The directory is
//! rewritten on [`Store::flush`]; column sketches ([`crate::stats`]) are
//! memory-only, so a reopened store reports row counts but empty column
//! statistics until rows are appended again.
//!
//! Rows are appended under monotone rowids and then rewritten or removed
//! in place by rowid ([`Store::update`], [`Store::delete`]); a row keeps
//! its rowid, and so its scan position, for life. A sketch cannot forget
//! a value, so an in-place write marks the table's sketches stale, and
//! [`Store::statistics_with`] rebuilds them from one scan before the next
//! snapshot.
//!
//! A `Store` is a cheap clonable handle (`Arc<Mutex<…>>`): the `dbms`
//! layer clones whole `Database` values freely (the fuzzer runs the
//! original and the extracted program against clones), and paged tables in
//! those clones share this one store read-only. Scans lock per *leaf
//! page*, not per row — a [`ScanCursor`] copies one leaf at a time out of
//! the buffer pool (one memcpy, under the lock) and lends its records from
//! that private copy, so concurrent cursors (nested correlated loops)
//! interleave without deadlock and memory stays bounded by one page per
//! cursor, not the table size.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::btree;
use crate::bufpool::{BufPoolStats, BufferPool};
use crate::page::{Page, PageKind, HEADER, PAGE_SIZE};
use crate::pager::Pager;
use crate::stats::{StatsBuilder, TableStatistics};
use crate::{Result, StorageError};

const MAGIC: u32 = 0x4551_5353; // "EQSS"
/// Format version 2: pages carry the word-at-a-time checksum of
/// [`crate::pager`]. A version-1 file (byte-wise FNV-1a checksums) fails
/// verification of its meta page and does not open.
const VERSION: u16 = 2;

/// Default buffer-pool frame budget (64 frames = 256 KiB of cache).
pub const DEFAULT_FRAMES: usize = 64;

#[derive(Clone)]
struct TableEntry {
    root: u32,
    next_rowid: u64,
    row_count: u64,
    ncols: u16,
    stats: StatsBuilder,
    /// An in-place write changed rows the sketches already observed.
    stale: bool,
}

struct Inner {
    pager: Pager,
    pool: BufferPool,
    dir: BTreeMap<String, TableEntry>,
    /// Set for [`Store::temp`] stores: the file is removed on last drop.
    temp_path: Option<PathBuf>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(p) = &self.temp_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A clonable handle to one paged store.
#[derive(Clone)]
pub struct Store {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("store lock");
        f.debug_struct("Store")
            .field("tables", &inner.dir.keys().collect::<Vec<_>>())
            .field("pages", &inner.pager.page_count())
            .field("frames", &inner.pool.budget())
            .finish()
    }
}

impl Store {
    fn from_inner(inner: Inner) -> Store {
        Store {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Create a new store file (truncating any existing one) with the given
    /// buffer-pool frame budget.
    pub fn create(path: &Path, frames: usize) -> Result<Store> {
        let mut pager = Pager::create(path)?;
        let meta = pager.allocate()?;
        debug_assert_eq!(meta, 0, "meta page must be page 0");
        let mut inner = Inner {
            pager,
            pool: BufferPool::new(frames),
            dir: BTreeMap::new(),
            temp_path: None,
        };
        write_meta(&mut inner)?;
        Ok(Store::from_inner(inner))
    }

    /// Open an existing store file.
    pub fn open(path: &Path, frames: usize) -> Result<Store> {
        let mut pager = Pager::open(path)?;
        let dir = read_meta(&mut pager)?;
        Ok(Store::from_inner(Inner {
            pager,
            pool: BufferPool::new(frames),
            dir,
            temp_path: None,
        }))
    }

    /// A memory-backed store (no file, no persistence) — used by the
    /// fuzzer's `--store` mode and unit tests.
    pub fn in_memory(frames: usize) -> Store {
        let mut pager = Pager::in_memory();
        let meta = pager.allocate().expect("in-memory allocate");
        debug_assert_eq!(meta, 0);
        let mut inner = Inner {
            pager,
            pool: BufferPool::new(frames),
            dir: BTreeMap::new(),
            temp_path: None,
        };
        write_meta(&mut inner).expect("in-memory meta write");
        Store::from_inner(inner)
    }

    /// A store backed by a fresh uniquely named file in the system temp
    /// directory, removed when the last handle drops.
    pub fn temp(frames: usize) -> Result<Store> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let name = format!(
            "eqsql-store-{}-{}-{nanos}.pages",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        );
        let path = std::env::temp_dir().join(name);
        let store = Store::create(&path, frames)?;
        store.inner.lock().expect("store lock").temp_path = Some(path);
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock poisoned")
    }

    /// Create (or reset) a table with `ncols` columns.
    pub fn create_table(&self, name: &str, ncols: usize) -> Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        // "Ensure" semantics: re-creating a table that already exists (the
        // reopen path — catalogs are re-declared against an opened store)
        // attaches to the persisted entry instead of wiping it.
        if let Some(entry) = inner.dir.get(name) {
            if entry.ncols as usize != ncols {
                return Err(StorageError::Corrupt(format!(
                    "table {name} exists with {} column(s), re-declared with {ncols}",
                    entry.ncols
                )));
            }
            return Ok(());
        }
        let root = btree::create(&mut inner.pager, &mut inner.pool)?;
        inner.dir.insert(
            name.to_string(),
            TableEntry {
                root,
                next_rowid: 1,
                row_count: 0,
                ncols: ncols as u16,
                stats: StatsBuilder::new(ncols),
                stale: false,
            },
        );
        Ok(())
    }

    /// Append a record to `table`, observing per-column value hashes for
    /// statistics; returns the assigned rowid (monotone from 1, so scan
    /// order is insertion order).
    pub fn append(&self, table: &str, record: &[u8], hashes: &[Option<u64>]) -> Result<u64> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let entry = entry_mut(&mut inner.dir, table)?;
        let rowid = entry.next_rowid;
        let root = btree::insert(&mut inner.pager, &mut inner.pool, entry.root, rowid, record)?;
        entry.root = root;
        entry.next_rowid += 1;
        entry.row_count += 1;
        entry.stats.observe_row(hashes);
        Ok(rowid)
    }

    /// Replace the record stored under `rowid` in `table`, keeping its
    /// rowid and scan position; returns `false` (nothing changed) when the
    /// table has no such row. Marks the table's sketches stale.
    pub fn update(&self, table: &str, rowid: u64, record: &[u8]) -> Result<bool> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let entry = entry_mut(&mut inner.dir, table)?;
        let Some(root) =
            btree::update(&mut inner.pager, &mut inner.pool, entry.root, rowid, record)?
        else {
            return Ok(false);
        };
        entry.root = root;
        entry.stale = true;
        Ok(true)
    }

    /// Remove the row stored under `rowid` in `table`; returns `false`
    /// when the table has no such row. Marks the table's sketches stale.
    pub fn delete(&self, table: &str, rowid: u64) -> Result<bool> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let entry = entry_mut(&mut inner.dir, table)?;
        if !btree::delete(&mut inner.pager, &mut inner.pool, entry.root, rowid)? {
            return Ok(false);
        }
        entry.row_count -= 1;
        entry.stale = true;
        Ok(true)
    }

    /// Point lookup by rowid.
    pub fn get(&self, table: &str, rowid: u64) -> Result<Option<Vec<u8>>> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let root = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?
            .root;
        btree::get(&mut inner.pager, &mut inner.pool, root, rowid)
    }

    /// Rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<u64> {
        let inner = self.lock();
        inner
            .dir
            .get(table)
            .map(|e| e.row_count)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
    }

    /// Table names in the store, sorted.
    pub fn tables(&self) -> Vec<String> {
        self.lock().dir.keys().cloned().collect()
    }

    /// This table's statistics snapshot. Column sketches are only reported
    /// when they describe exactly the stored rows: not after a reopen, and
    /// not after an in-place write (see [`Store::statistics_with`]).
    pub fn statistics(&self, table: &str) -> Result<TableStatistics> {
        let inner = self.lock();
        let entry = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        let mut snap = entry.stats.snapshot();
        if entry.stale || entry.stats.rows() != entry.row_count {
            snap.columns.clear();
        }
        snap.rows = entry.row_count;
        Ok(snap)
    }

    /// [`Store::statistics`], first rebuilding the sketches from one scan
    /// when an in-place write left them stale. `hash_record` maps a stored
    /// record to its per-column value hashes, as passed to
    /// [`Store::append`]. Sketches are order-independent, so the rebuilt
    /// snapshot equals that of a fresh table loaded with the same rows.
    pub fn statistics_with(
        &self,
        table: &str,
        mut hash_record: impl FnMut(&[u8]) -> Vec<Option<u64>>,
    ) -> Result<TableStatistics> {
        let stale = {
            let inner = self.lock();
            let entry = inner
                .dir
                .get(table)
                .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
            entry.stale.then_some(entry.ncols as usize)
        };
        if let Some(ncols) = stale {
            let mut stats = StatsBuilder::new(ncols);
            let mut cursor = self.cursor(table)?;
            while let Some((_, record)) = cursor.next_record()? {
                stats.observe_row(&hash_record(record));
            }
            let mut inner = self.lock();
            let entry = entry_mut(&mut inner.dir, table)?;
            entry.stats = stats;
            entry.stale = false;
        }
        self.statistics(table)
    }

    /// Begin an ordered scan of `table` (rowid order = insertion order)
    /// yielding each record's rowid and a copy of its bytes.
    pub fn scan(&self, table: &str) -> Result<RecordScan> {
        Ok(RecordScan(self.cursor(table)?))
    }

    /// Begin an ordered scan of `table` that lends each record in turn
    /// (see [`ScanCursor`]).
    pub fn cursor(&self, table: &str) -> Result<ScanCursor> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let root = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?
            .root;
        let leaf = btree::first_leaf(&mut inner.pager, &mut inner.pool, root)?;
        Ok(ScanCursor {
            store: self.clone(),
            next_leaf: Some(leaf),
            leaf: Page::default(),
            slot: 0,
        })
    }

    /// Flush: write back dirty frames and the meta page, then sync.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.pool.flush_all(&mut inner.pager)?;
        write_meta(inner)?;
        inner.pager.sync()
    }

    /// Buffer-pool counters for this store.
    pub fn pool_stats(&self) -> BufPoolStats {
        self.lock().pool.stats()
    }

    /// The buffer pool's frame budget (frames × page size bounds cache
    /// memory).
    pub fn frame_budget(&self) -> usize {
        self.lock().pool.budget()
    }

    /// Total pages in the backing file.
    pub fn page_count(&self) -> u32 {
        self.lock().pager.page_count()
    }

    /// Column count recorded for `table` at creation.
    pub fn column_count(&self, table: &str) -> Result<usize> {
        let inner = self.lock();
        inner
            .dir
            .get(table)
            .map(|e| e.ncols as usize)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
    }

    /// Do two handles refer to the same underlying store?
    pub fn same_store(&self, other: &Store) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Deep-snapshot this store into an independent in-memory image.
    ///
    /// Dirty frames are flushed and the meta page rewritten so the page
    /// image is current, then every page is copied into a fresh in-memory
    /// pager with its own empty buffer pool. Writes against the fork never
    /// touch the original (and vice versa) — this is what lets a paged
    /// `Database` be cloned for differential runs that mutate state.
    /// Column sketches are cloned too, so the fork's statistics match.
    pub fn fork(&self) -> Result<Store> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.pool.flush_all(&mut inner.pager)?;
        write_meta(inner)?;
        let pager = inner.pager.fork_image()?;
        Ok(Store::from_inner(Inner {
            pager,
            pool: BufferPool::new(inner.pool.budget()),
            dir: inner.dir.clone(),
            temp_path: None,
        }))
    }
}

/// An ordered cursor over one table's records that lends each record in
/// turn: [`ScanCursor::next_record`] returns its rowid and bytes, borrowed
/// until the next call.
///
/// The cursor owns one page buffer. On reaching a leaf it copies the
/// leaf's image into that buffer, taking the store lock for that copy
/// only; records are then read from the copy without the lock. A scan of
/// `n` leaves takes the lock `n` times and allocates one page, whatever
/// the row count.
pub struct ScanCursor {
    store: Store,
    next_leaf: Option<u32>,
    /// Private copy of the current leaf; empty (no slots) before the first.
    leaf: Page,
    /// Next slot of `leaf` to lend.
    slot: usize,
}

impl ScanCursor {
    /// The next record's rowid and bytes, or `None` past the last. After an
    /// error the cursor is exhausted.
    pub fn next_record(&mut self) -> Result<Option<(u64, &[u8])>> {
        while self.slot == self.leaf.nslots() {
            let Some(id) = self.next_leaf.take() else {
                return Ok(None);
            };
            let mut inner = self.store.lock();
            let inner = &mut *inner;
            let copy = &mut self.leaf;
            inner
                .pool
                .with_page(&mut inner.pager, id, |p| copy.0.copy_from_slice(&p.0[..]))?;
            let next = self.leaf.extra();
            self.next_leaf = (next != 0).then_some(next);
            self.slot = 0;
        }
        let cell = self.leaf.cell(self.slot);
        self.slot += 1;
        let (key, record) = cell.split_at(8);
        Ok(Some((
            u64::from_le_bytes(key.try_into().expect("8-byte key")),
            record,
        )))
    }
}

/// The iterator of [`Store::scan`]: `(rowid, record bytes)` per row, each
/// record copied out of a [`ScanCursor`].
pub struct RecordScan(ScanCursor);

impl Iterator for RecordScan {
    type Item = Result<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0
            .next_record()
            .map(|r| r.map(|(rowid, record)| (rowid, record.to_vec())))
            .transpose()
    }
}

fn entry_mut<'a>(
    dir: &'a mut BTreeMap<String, TableEntry>,
    table: &str,
) -> Result<&'a mut TableEntry> {
    dir.get_mut(table)
        .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
}

/// Serialize the table directory into page 0 and write it through the
/// pager (the meta page bypasses the buffer pool; it is only touched at
/// create/open/flush).
fn write_meta(inner: &mut Inner) -> Result<()> {
    let mut page = Page::init(PageKind::Meta);
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(inner.dir.len() as u16).to_le_bytes());
    for (name, e) in &inner.dir {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&e.root.to_le_bytes());
        buf.extend_from_slice(&e.next_rowid.to_le_bytes());
        buf.extend_from_slice(&e.row_count.to_le_bytes());
        buf.extend_from_slice(&e.ncols.to_le_bytes());
    }
    if HEADER + buf.len() > PAGE_SIZE {
        return Err(StorageError::DirectoryFull);
    }
    page.0[HEADER..HEADER + buf.len()].copy_from_slice(&buf);
    inner.pager.write_page(0, &mut page)
}

struct MetaReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(StorageError::Corrupt("meta page truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
}

fn read_meta(pager: &mut Pager) -> Result<BTreeMap<String, TableEntry>> {
    let page = pager.read_page(0)?;
    if page.kind() != Some(PageKind::Meta) {
        return Err(StorageError::Corrupt("page 0 is not a meta page".into()));
    }
    let mut r = MetaReader {
        buf: &page.0[HEADER..],
        at: 0,
    };
    let magic = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(StorageError::Corrupt(format!("unknown version {version}")));
    }
    let ntables = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
    let mut dir = BTreeMap::new();
    for _ in 0..ntables {
        let name_len = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("non-UTF-8 table name".into()))?;
        let root = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        let next_rowid = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let row_count = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let ncols = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        dir.insert(
            name,
            TableEntry {
                root,
                next_rowid,
                row_count,
                ncols,
                // Sketches are not persisted; `statistics()` reports empty
                // column stats until rows() catches up with row_count.
                stats: StatsBuilder::new(ncols as usize),
                stale: false,
            },
        );
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> Vec<u8> {
        format!("row-{i}").into_bytes()
    }

    #[test]
    fn append_scan_get_round_trip() {
        let s = Store::in_memory(8);
        s.create_table("t", 1).unwrap();
        for i in 0..500u64 {
            let rid = s.append("t", &record(i), &[Some(i % 7)]).unwrap();
            assert_eq!(rid, i + 1);
        }
        assert_eq!(s.row_count("t").unwrap(), 500);
        let rows: Vec<(u64, Vec<u8>)> = s.scan("t").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 500);
        for (i, (rid, rec)) in rows.iter().enumerate() {
            assert_eq!(*rid, i as u64 + 1);
            assert_eq!(rec, &record(i as u64));
        }
        assert_eq!(s.get("t", 250).unwrap().unwrap(), record(249));
        assert_eq!(s.get("t", 10_000).unwrap(), None);
        let stats = s.statistics("t").unwrap();
        assert_eq!(stats.rows, 500);
        assert_eq!(stats.columns[0].ndv, 7.0);
    }

    #[test]
    fn unknown_table_errors() {
        let s = Store::in_memory(4);
        assert!(matches!(
            s.append("missing", b"x", &[]),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(s.scan("missing").is_err());
    }

    #[test]
    fn interleaved_scans_share_the_pool() {
        let s = Store::in_memory(4);
        s.create_table("t", 1).unwrap();
        for i in 0..800u64 {
            s.append("t", &record(i), &[Some(i)]).unwrap();
        }
        // Two cursors advanced in lock-step (the nested-loop pattern).
        let mut a = s.scan("t").unwrap();
        let mut b = s.scan("t").unwrap();
        let mut n = 0u64;
        while let (Some(x), Some(y)) = (a.next(), b.next()) {
            assert_eq!(x.unwrap(), y.unwrap());
            n += 1;
        }
        assert_eq!(n, 800);
    }

    #[test]
    fn flush_reopen_persists() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("eqsql-store-test-{}.pages", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let s = Store::create(&path, 8).unwrap();
            s.create_table("t", 2).unwrap();
            for i in 0..300u64 {
                s.append("t", &record(i), &[Some(i), None]).unwrap();
            }
            s.flush().unwrap();
        }
        let s = Store::open(&path, 8).unwrap();
        assert_eq!(s.tables(), vec!["t".to_string()]);
        assert_eq!(s.row_count("t").unwrap(), 300);
        assert_eq!(s.column_count("t").unwrap(), 2);
        let rows: Vec<(u64, Vec<u8>)> = s.scan("t").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[299].1, record(299));
        // Sketches are memory-only: after reopen, column stats are empty
        // but the row count survives.
        let stats = s.statistics("t").unwrap();
        assert_eq!(stats.rows, 300);
        assert!(stats.columns.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fork_is_independent() {
        let s = Store::in_memory(4);
        s.create_table("t", 1).unwrap();
        for i in 0..300u64 {
            s.append("t", &record(i), &[Some(i % 5)]).unwrap();
        }
        let f = s.fork().unwrap();
        assert!(!s.same_store(&f));
        // Fork sees the snapshot, including cloned column sketches.
        assert_eq!(f.row_count("t").unwrap(), 300);
        assert_eq!(f.statistics("t").unwrap().columns[0].ndv, 5.0);
        // Writes to the fork do not leak back (and vice versa).
        f.append("t", b"fork-only", &[Some(99)]).unwrap();
        s.append("t", b"orig-only", &[Some(42)]).unwrap();
        let last_f: Vec<u8> = f.scan("t").unwrap().last().unwrap().unwrap().1;
        let last_s: Vec<u8> = s.scan("t").unwrap().last().unwrap().unwrap().1;
        assert_eq!(last_f, b"fork-only".to_vec());
        assert_eq!(last_s, b"orig-only".to_vec());
        assert_eq!(f.row_count("t").unwrap(), 301);
        assert_eq!(s.row_count("t").unwrap(), 301);
    }

    #[test]
    fn update_delete_in_place() {
        let s = Store::in_memory(4);
        s.create_table("t", 1).unwrap();
        for i in 0..300u64 {
            s.append("t", &record(i), &[Some(i % 3)]).unwrap();
        }
        let pages = s.page_count();
        // Same length: overwritten where it lies, no page allocated.
        assert!(s.update("t", 10, b"row-X").unwrap());
        // Grow, shrink, delete: rowids and scan positions are kept.
        assert!(s.update("t", 20, &[7u8; 900]).unwrap());
        assert!(s.update("t", 30, b"r").unwrap());
        assert!(s.delete("t", 40).unwrap());
        assert!(!s.delete("t", 40).unwrap());
        assert!(!s.update("t", 10_000, b"x").unwrap());
        assert_eq!(s.row_count("t").unwrap(), 299);
        let rows: Vec<(u64, Vec<u8>)> = s.scan("t").unwrap().map(|r| r.unwrap()).collect();
        let rowids: Vec<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(rowids, (1..=300).filter(|&r| r != 40).collect::<Vec<_>>());
        assert_eq!(s.get("t", 10).unwrap().unwrap(), b"row-X");
        assert_eq!(s.get("t", 20).unwrap().unwrap(), vec![7u8; 900]);
        assert_eq!(s.get("t", 30).unwrap().unwrap(), b"r");
        assert_eq!(s.get("t", 40).unwrap(), None);
        assert!(s.page_count() <= pages + 1);
        // Writes leave the sketches stale; the rebuild hashes every record.
        assert!(s.statistics("t").unwrap().columns.is_empty());
        let stats = s
            .statistics_with("t", |rec| vec![Some(rec.len() as u64)])
            .unwrap();
        assert_eq!(stats.rows, 299);
        assert_eq!(stats.columns[0].ndv, 5.0);
        assert!(matches!(
            s.update("missing", 1, b"x"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn a_version_1_store_is_rejected_as_corrupt() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let path =
            std::env::temp_dir().join(format!("eqsql-store-v1-test-{}.pages", std::process::id()));
        {
            let s = Store::create(&path, 8).unwrap();
            s.create_table("t", 1).unwrap();
            for i in 0..300u64 {
                s.append("t", &record(i), &[Some(i)]).unwrap();
            }
            s.flush().unwrap();
        }
        // Rewrite the file as format version 1 wrote it: version 1 in the
        // meta page, every page sealed with byte-wise FNV-1a.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let pages = file.metadata().unwrap().len() / PAGE_SIZE as u64;
        let mut image = [0u8; PAGE_SIZE];
        for id in 0..pages {
            file.seek(SeekFrom::Start(id * PAGE_SIZE as u64)).unwrap();
            file.read_exact(&mut image).unwrap();
            if id == 0 {
                image[HEADER + 4..HEADER + 6].copy_from_slice(&1u16.to_le_bytes());
            }
            let v1 = crate::fnv64(&image[4..]) as u32;
            image[..4].copy_from_slice(&v1.to_le_bytes());
            file.seek(SeekFrom::Start(id * PAGE_SIZE as u64)).unwrap();
            file.write_all(&image).unwrap();
        }
        drop(file);
        assert!(matches!(
            Store::open(&path, 8),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn temp_store_cleans_up() {
        let path;
        {
            let s = Store::temp(4).unwrap();
            s.create_table("t", 1).unwrap();
            s.append("t", b"abc", &[Some(1)]).unwrap();
            s.flush().unwrap();
            path = s.lock().temp_path.clone().unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
