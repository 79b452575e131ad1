//! A B-tree over `(rowid, record)` pairs in slotted pages.
//!
//! Leaves hold cells `[key u64][record bytes]` and are chained through the
//! header's extra word (next-leaf link), so an ordered scan walks leaves
//! left to right without touching internal nodes. Internal nodes hold cells
//! `[key u64][child u32]` meaning "child's subtree covers keys ≤ key", with
//! the rightmost child (keys greater than every cell key) in the extra
//! word.
//!
//! Splits are right-leaning: rowids are assigned monotonically, so when an
//! insert lands past the last cell the split moves only the new cell to the
//! fresh node, leaving the left sibling packed instead of half empty. An
//! insert inside the key range splits by bytes, into the most even pair of
//! nodes, or into three when no pair fits (a large cell landing between
//! two large neighbours).
//!
//! Records are rewritten in place by key: [`update`] overwrites a cell of
//! unchanged length where it lies, and otherwise removes the cell and
//! re-inserts it under the same key through the split path. [`delete`]
//! removes the cell and compacts its leaf; nodes never merge, so a leaf
//! may end up empty, stays linked, and scans step over it.
//!
//! All functions take the pager and buffer pool explicitly; the [`Store`]
//! façade owns both and tracks each table's root page (which changes when
//! the root splits).
//!
//! [`Store`]: crate::store::Store

use crate::bufpool::BufferPool;
use crate::page::{Page, PageKind, HEADER, MAX_CELL, PAGE_SIZE, SLOT};
use crate::pager::Pager;
use crate::{Result, StorageError};

/// Largest record a leaf cell holds next to its 8-byte key.
pub const MAX_RECORD: usize = MAX_CELL - 8;

/// One internal-node entry: subtree of keys ≤ `key` lives at `child`.
type Entry = (u64, u32);

/// The new right siblings of a node that split, in key order. Entry `i`
/// is `(sep, id)`: the node left of `id` keeps the keys ≤ `sep`, and the
/// last sibling takes over the split node's old upper bound. Empty when
/// nothing split.
type Split = Vec<Entry>;

fn leaf_cell(key: u64, record: &[u8]) -> Vec<u8> {
    let mut c = key.to_le_bytes().to_vec();
    c.extend_from_slice(record);
    c
}

fn internal_cell(key: u64, child: u32) -> Vec<u8> {
    let mut c = key.to_le_bytes().to_vec();
    c.extend_from_slice(&child.to_le_bytes());
    c
}

/// The key prefix shared by leaf and internal cells.
fn key_of(cell: &[u8]) -> u64 {
    u64::from_le_bytes(cell[..8].try_into().expect("key bytes"))
}

/// Decode an internal cell only — leaf records may be shorter than the
/// 4-byte child pointer this reads.
fn entry_of(cell: &[u8]) -> Entry {
    let child = u32::from_le_bytes(cell[8..12].try_into().expect("child bytes"));
    (key_of(cell), child)
}

fn check_record(record: &[u8]) -> Result<()> {
    if record.len() > MAX_RECORD {
        return Err(StorageError::RecordTooLarge(record.len()));
    }
    Ok(())
}

/// Splice a child's split into its parent's entry list: `child` sat at
/// index `di` (`di == entries.len()` for the rightmost child).
fn splice(entries: &mut Vec<Entry>, rightmost: &mut u32, di: usize, child: u32, split: &[Entry]) {
    let (_, tail) = *split.last().expect("a split has a sibling");
    let mut lefts = Vec::with_capacity(split.len());
    let mut left = child;
    for &(sep, right) in split {
        lefts.push((sep, left));
        left = right;
    }
    if di == entries.len() {
        entries.extend(lefts);
        *rightmost = tail;
    } else {
        entries[di].1 = tail;
        entries.splice(di..di, lefts);
    }
}

/// Allocate an empty tree (a single empty leaf) and return its root.
pub fn create(pager: &mut Pager, pool: &mut BufferPool) -> Result<u32> {
    let id = pager.allocate()?;
    pool.with_page_mut(pager, id, |p| *p = Page::init(PageKind::Leaf))?;
    Ok(id)
}

/// Insert `(key, record)` under `root`; returns the possibly-new root id.
/// Keys are rowids and must be unique (the store assigns them).
pub fn insert(
    pager: &mut Pager,
    pool: &mut BufferPool,
    root: u32,
    key: u64,
    record: &[u8],
) -> Result<u32> {
    check_record(record)?;
    let split = insert_into(pager, pool, root, key, record)?;
    if split.is_empty() {
        return Ok(root);
    }
    // Root split: a new internal root points at the old root and every
    // new sibling.
    let (mut entries, mut rightmost) = (Vec::new(), 0);
    splice(&mut entries, &mut rightmost, 0, root, &split);
    let new_root = pager.allocate()?;
    write_internal(pager, pool, new_root, &entries, rightmost)?;
    Ok(new_root)
}

/// Recursive insert; a non-empty [`Split`] reports that `page_id` split
/// and the caller must wire in the new siblings.
fn insert_into(
    pager: &mut Pager,
    pool: &mut BufferPool,
    page_id: u32,
    key: u64,
    record: &[u8],
) -> Result<Split> {
    let kind = pool.with_page(pager, page_id, |p| p.kind())?;
    match kind {
        Some(PageKind::Leaf) => insert_leaf(pager, pool, page_id, key, record),
        Some(PageKind::Internal) => insert_internal(pager, pool, page_id, key, record),
        other => Err(StorageError::Corrupt(format!(
            "page {page_id}: expected a B-tree node, found {other:?}"
        ))),
    }
}

fn insert_leaf(
    pager: &mut Pager,
    pool: &mut BufferPool,
    page_id: u32,
    key: u64,
    record: &[u8],
) -> Result<Split> {
    let cell = leaf_cell(key, record);
    let fitted = pool.with_page_mut(pager, page_id, |p| {
        let pos = match p.find(key) {
            Ok(i) | Err(i) => i,
        };
        p.insert_cell(pos, &cell)
    })?;
    if fitted {
        return Ok(Vec::new());
    }
    // Split. Gather every cell plus the new one in key order, then rebuild
    // the left page and fresh right siblings.
    let (mut cells, next) = pool.with_page(pager, page_id, |p| (p.cells(), p.extra()))?;
    let pos = cells
        .iter()
        .position(|c| key_of(c) > key)
        .unwrap_or(cells.len());
    let at_end = pos == cells.len();
    cells.insert(pos, cell);
    // Right-leaning for monotone appends; byte-balanced otherwise.
    let mut runs = if at_end {
        let last = cells.split_off(cells.len() - 1);
        vec![cells, last]
    } else {
        partition(cells)
    };
    let mut ids = vec![page_id];
    for _ in 1..runs.len() {
        ids.push(pager.allocate()?);
    }
    let mut split = Vec::with_capacity(runs.len() - 1);
    for (i, run) in runs.iter_mut().enumerate() {
        let link = ids.get(i + 1).copied().unwrap_or(next);
        pool.with_page_mut(pager, ids[i], |p| {
            *p = Page::init(PageKind::Leaf);
            p.set_extra(link);
            for (j, c) in run.iter().enumerate() {
                assert!(p.insert_cell(j, c), "split run must fit a fresh page");
            }
        })?;
        if i + 1 < ids.len() {
            let sep = key_of(run.last().expect("split runs are nonempty"));
            split.push((sep, ids[i + 1]));
        }
    }
    Ok(split)
}

/// Split `cells` (in key order, too many for one page) into runs that
/// each fit a fresh page: the most even two-way split by bytes when one
/// exists, else greedy packing. The cells were one full page plus one
/// cell, so greedy packing needs at most three runs.
fn partition(mut cells: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>> {
    let cap = PAGE_SIZE - HEADER;
    let cost = |c: &Vec<u8>| c.len() + SLOT;
    let total: usize = cells.iter().map(cost).sum();
    let mut best: Option<(usize, usize)> = None;
    let mut left = 0;
    for i in 1..cells.len() {
        left += cost(&cells[i - 1]);
        let right = total - left;
        if left <= cap && right <= cap {
            let skew = left.abs_diff(right);
            if best.is_none_or(|(_, s)| skew < s) {
                best = Some((i, skew));
            }
        }
    }
    if let Some((i, _)) = best {
        let right = cells.split_off(i);
        return vec![cells, right];
    }
    let mut runs: Vec<Vec<Vec<u8>>> = vec![Vec::new()];
    let mut used = 0;
    for c in cells {
        let run = runs.last_mut().expect("one run");
        if !run.is_empty() && used + cost(&c) > cap {
            runs.push(Vec::new());
            used = 0;
        }
        used += cost(&c);
        runs.last_mut().expect("one run").push(c);
    }
    runs
}

fn insert_internal(
    pager: &mut Pager,
    pool: &mut BufferPool,
    page_id: u32,
    key: u64,
    record: &[u8],
) -> Result<Split> {
    let (entries, rightmost) = read_internal(pager, pool, page_id)?;
    // First entry whose key covers ours; past the end means rightmost child.
    let di = entries
        .iter()
        .position(|&(k, _)| key <= k)
        .unwrap_or(entries.len());
    let at_end = di == entries.len();
    let child = if at_end { rightmost } else { entries[di].1 };
    let split = insert_into(pager, pool, child, key, record)?;
    if split.is_empty() {
        return Ok(split);
    }
    // The descended child kept keys ≤ the first separator; its new
    // siblings cover the rest of its old range.
    let (mut entries, mut rightmost) = read_internal(pager, pool, page_id)?;
    splice(&mut entries, &mut rightmost, di, child, &split);
    if fits_internal(entries.len()) {
        write_internal(pager, pool, page_id, &entries, rightmost)?;
        return Ok(Vec::new());
    }
    // Split this internal node, promoting the median separator — or, for
    // appends at the right edge, the last one when the rest still fits.
    let mid = if at_end && fits_internal(entries.len() - 1) {
        entries.len() - 1
    } else {
        entries.len() / 2
    };
    let (promoted, mid_child) = entries[mid];
    let right_id = pager.allocate()?;
    write_internal(pager, pool, right_id, &entries[mid + 1..], rightmost)?;
    write_internal(pager, pool, page_id, &entries[..mid], mid_child)?;
    Ok(vec![(promoted, right_id)])
}

/// Can an internal node hold `n` entries? (16-byte header, 4-byte slot and
/// 12-byte cell per entry.)
fn fits_internal(n: usize) -> bool {
    HEADER + n * (SLOT + 12) <= PAGE_SIZE
}

fn read_internal(
    pager: &mut Pager,
    pool: &mut BufferPool,
    page_id: u32,
) -> Result<(Vec<Entry>, u32)> {
    pool.with_page(pager, page_id, |p| {
        let entries = (0..p.nslots()).map(|i| entry_of(p.cell(i))).collect();
        (entries, p.extra())
    })
}

fn write_internal(
    pager: &mut Pager,
    pool: &mut BufferPool,
    page_id: u32,
    entries: &[Entry],
    rightmost: u32,
) -> Result<()> {
    pool.with_page_mut(pager, page_id, |p| {
        *p = Page::init(PageKind::Internal);
        p.set_extra(rightmost);
        for (i, &(k, c)) in entries.iter().enumerate() {
            assert!(p.insert_cell(i, &internal_cell(k, c)), "entries must fit");
        }
    })
}

/// The leaf under `root` whose key range covers `key`.
fn find_leaf(pager: &mut Pager, pool: &mut BufferPool, root: u32, key: u64) -> Result<u32> {
    let mut id = root;
    loop {
        let child = pool.with_page(pager, id, |p| match p.kind() {
            Some(PageKind::Leaf) => Ok(None),
            Some(PageKind::Internal) => {
                // First entry whose key covers ours, else the rightmost child.
                let (Ok(i) | Err(i)) = p.find(key);
                Ok(Some(if i < p.nslots() {
                    entry_of(p.cell(i)).1
                } else {
                    p.extra()
                }))
            }
            other => Err(StorageError::Corrupt(format!(
                "page {id}: expected a B-tree node, found {other:?}"
            ))),
        })??;
        match child {
            None => return Ok(id),
            Some(c) => id = c,
        }
    }
}

/// Point lookup: the record stored under `key`, if any.
pub fn get(
    pager: &mut Pager,
    pool: &mut BufferPool,
    root: u32,
    key: u64,
) -> Result<Option<Vec<u8>>> {
    let leaf = find_leaf(pager, pool, root, key)?;
    pool.with_page(pager, leaf, |p| {
        p.find(key).ok().map(|i| p.cell(i)[8..].to_vec())
    })
}

/// Replace the record stored under `key`; returns the possibly-new root,
/// or `None` (tree unchanged) when no record has that key. An oversized
/// record is rejected before anything changes.
pub fn update(
    pager: &mut Pager,
    pool: &mut BufferPool,
    root: u32,
    key: u64,
    record: &[u8],
) -> Result<Option<u32>> {
    check_record(record)?;
    let leaf = find_leaf(pager, pool, root, key)?;
    let cell = leaf_cell(key, record);
    // Some(true): written in place; Some(false): no such key; None: the
    // old cell is gone and the new one needs a split.
    let placed = pool.with_page_mut(pager, leaf, |p| match p.find(key) {
        Err(_) => Some(false),
        Ok(i) if p.cell(i).len() == cell.len() => {
            p.overwrite_cell(i, &cell);
            Some(true)
        }
        Ok(i) => {
            p.remove_cell(i);
            p.insert_cell(i, &cell).then_some(true)
        }
    })?;
    match placed {
        Some(true) => Ok(Some(root)),
        Some(false) => Ok(None),
        None => insert(pager, pool, root, key, record).map(Some),
    }
}

/// Remove the record stored under `key`; returns whether it existed.
pub fn delete(pager: &mut Pager, pool: &mut BufferPool, root: u32, key: u64) -> Result<bool> {
    let leaf = find_leaf(pager, pool, root, key)?;
    pool.with_page_mut(pager, leaf, |p| match p.find(key) {
        Ok(i) => {
            p.remove_cell(i);
            true
        }
        Err(_) => false,
    })
}

/// The leftmost leaf under `root` (where an ordered scan starts).
pub fn first_leaf(pager: &mut Pager, pool: &mut BufferPool, root: u32) -> Result<u32> {
    let mut id = root;
    loop {
        let next = pool.with_page(pager, id, |p| match p.kind() {
            Some(PageKind::Leaf) => None,
            _ => Some(if p.nslots() > 0 {
                entry_of(p.cell(0)).1
            } else {
                p.extra()
            }),
        })?;
        match next {
            None => return Ok(id),
            Some(c) => id = c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn scan_all(pager: &mut Pager, pool: &mut BufferPool, root: u32) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut leaf = first_leaf(pager, pool, root).unwrap();
        loop {
            let (cells, next) = pool
                .with_page(pager, leaf, |p| (p.cells(), p.extra()))
                .unwrap();
            for c in cells {
                let key = u64::from_le_bytes(c[..8].try_into().unwrap());
                out.push((key, c[8..].to_vec()));
            }
            if next == 0 {
                break;
            }
            leaf = next;
        }
        out
    }

    fn check_against_reference(keys: &[u64], budget: usize) {
        let mut pager = Pager::in_memory();
        let mut pool = BufferPool::new(budget);
        let mut root = create(&mut pager, &mut pool).unwrap();
        let mut reference = BTreeMap::new();
        for &k in keys {
            let rec = format!("record-{k}").into_bytes();
            root = insert(&mut pager, &mut pool, root, k, &rec).unwrap();
            reference.insert(k, rec);
        }
        let scanned = scan_all(&mut pager, &mut pool, root);
        let expected: Vec<(u64, Vec<u8>)> =
            reference.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(scanned, expected);
        for (k, v) in &reference {
            assert_eq!(
                get(&mut pager, &mut pool, root, *k).unwrap().as_ref(),
                Some(v)
            );
        }
        assert_eq!(get(&mut pager, &mut pool, root, u64::MAX).unwrap(), None);
    }

    #[test]
    fn monotone_inserts_split_right() {
        let keys: Vec<u64> = (0..2000).collect();
        check_against_reference(&keys, 8);
    }

    #[test]
    fn shuffled_inserts() {
        // Deterministic pseudo-shuffle (multiplicative hash order).
        let mut keys: Vec<u64> = (0..1500).collect();
        keys.sort_by_key(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        check_against_reference(&keys, 4);
    }

    #[test]
    fn update_grow_splits_three_ways_under_a_full_root() {
        // Every leaf holds [large, small, large]; 256 leaves fill the root
        // with 255 entries plus its rightmost child.
        let mut pager = Pager::in_memory();
        let mut pool = BufferPool::new(8);
        let mut root = create(&mut pager, &mut pool).unwrap();
        let mut reference = BTreeMap::new();
        for k in 0..768u64 {
            let rec = vec![k as u8; if k % 3 == 1 { 10 } else { 1900 }];
            root = insert(&mut pager, &mut pool, root, k, &rec).unwrap();
            reference.insert(k, rec);
        }
        // Growing the small middle cell of the last leaf fits neither
        // neighbour: the leaf splits three ways, and the root takes two
        // new entries, one more than the right-leaning split leaves room for.
        let grown = vec![0xee; MAX_RECORD];
        root = update(&mut pager, &mut pool, root, 766, &grown)
            .unwrap()
            .unwrap();
        reference.insert(766, grown);
        let expected: Vec<(u64, Vec<u8>)> = reference.into_iter().collect();
        assert_eq!(scan_all(&mut pager, &mut pool, root), expected);
        for (k, v) in &expected {
            assert_eq!(
                get(&mut pager, &mut pool, root, *k).unwrap().as_ref(),
                Some(v)
            );
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let mut pager = Pager::in_memory();
        let mut pool = BufferPool::new(2);
        let root = create(&mut pager, &mut pool).unwrap();
        let big = vec![0u8; crate::page::PAGE_SIZE];
        assert!(matches!(
            insert(&mut pager, &mut pool, root, 1, &big),
            Err(StorageError::RecordTooLarge(_))
        ));
    }
}
