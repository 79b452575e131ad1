//! Property tests for the storage engine: slotted-page cell round-trips,
//! B-tree insert/scan against a `BTreeMap` reference, flush/reopen
//! persistence of a whole store, and random append/update/delete
//! sequences against a `BTreeMap` model of a table.

use std::collections::BTreeMap;

use proptest::prelude::*;
use storage::page::{Page, PageKind, MAX_CELL};
use storage::pager::Pager;
use storage::{bufpool::BufferPool, Store, MAX_RECORD};

/// A batch of distinct (key, payload) cells small enough for one page.
fn arb_cells() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
        0..60,
    )
    .prop_map(|mut kvs| {
        kvs.sort_by_key(|(k, _)| *k);
        kvs.dedup_by_key(|(k, _)| *k);
        kvs
    })
}

/// Record lengths: mostly small, some mid-sized, some near the largest
/// record a leaf holds (so a handful fill a leaf and updates force splits).
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..40, 40usize..600, 1_500usize..MAX_RECORD + 1]
}

/// One table operation: `(kind, pick, len)`. Kinds 0–1 append, 2 update
/// at the same length, 3 grow, 4 shrink, 5 delete; `pick` chooses the
/// target row among the live ones.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
    proptest::collection::vec((0u8..6, any::<u64>(), arb_len()), 1..300)
}

/// The store's view of `table` agrees with the model: scan order and
/// bytes, point lookups, row count.
fn assert_matches_model(store: &Store, model: &BTreeMap<u64, Vec<u8>>) {
    let scanned: Vec<(u64, Vec<u8>)> = store
        .scan("t")
        .unwrap()
        .collect::<storage::Result<_>>()
        .unwrap();
    let expected: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(scanned, expected);
    assert_eq!(store.row_count("t").unwrap(), model.len() as u64);
    for (rowid, record) in model {
        assert_eq!(store.get("t", *rowid).unwrap().as_ref(), Some(record));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cells inserted at their binary-search position come back in key
    /// order, byte-for-byte, and `find` locates every key.
    #[test]
    fn page_cells_round_trip(cells in arb_cells()) {
        let mut page = Page::init(PageKind::Leaf);
        let mut kept: Vec<(u64, Vec<u8>)> = Vec::new();
        for (key, payload) in &cells {
            let mut cell = key.to_le_bytes().to_vec();
            cell.extend_from_slice(payload);
            let pos = page.find(*key).unwrap_err();
            if page.insert_cell(pos, &cell) {
                kept.insert(pos, (*key, payload.clone()));
            }
        }
        prop_assert_eq!(page.nslots(), kept.len());
        for (i, (key, payload)) in kept.iter().enumerate() {
            prop_assert_eq!(page.key(i), *key);
            prop_assert_eq!(&page.cell(i)[8..], payload.as_slice());
            prop_assert_eq!(page.find(*key), Ok(i));
        }
        // Serialization invariant: the cells() listing agrees slot by slot.
        let listed = page.cells();
        prop_assert_eq!(listed.len(), kept.len());
        for (cell, (key, payload)) in listed.iter().zip(&kept) {
            prop_assert_eq!(&cell[..8], key.to_le_bytes().as_slice());
            prop_assert_eq!(&cell[8..], payload.as_slice());
        }
    }

    /// An oversized record never fits a page.
    #[test]
    fn oversized_cells_are_rejected(extra in 1usize..64) {
        let mut page = Page::init(PageKind::Leaf);
        let cell = vec![0u8; MAX_CELL + extra];
        prop_assert!(!page.insert_cell(0, &cell));
    }

    /// B-tree insert + point lookup + ordered scan agree with a `BTreeMap`
    /// under arbitrary insertion orders and a tiny buffer pool.
    #[test]
    fn btree_matches_reference(
        keys in proptest::collection::vec(any::<u64>(), 0..700),
        budget in 2usize..12,
    ) {
        let mut pager = Pager::in_memory();
        let mut pool = BufferPool::new(budget);
        let mut root = storage::btree::create(&mut pager, &mut pool).unwrap();
        let mut reference = BTreeMap::new();
        for key in &keys {
            let record = key.to_be_bytes().to_vec();
            // Last write wins in the reference; the B-tree keeps first —
            // skip duplicates so both sides see the same multiset.
            if reference.contains_key(key) {
                continue;
            }
            root = storage::btree::insert(&mut pager, &mut pool, root, *key, &record).unwrap();
            reference.insert(*key, record);
        }
        for (key, record) in &reference {
            let got = storage::btree::get(&mut pager, &mut pool, root, *key).unwrap();
            prop_assert_eq!(got.as_ref(), Some(record));
        }
        prop_assert_eq!(
            storage::btree::get(&mut pager, &mut pool, root, u64::MAX / 2 + 12345).unwrap()
                .is_some(),
            reference.contains_key(&(u64::MAX / 2 + 12345))
        );
    }

    /// Whole-store persistence: rows appended through the public API
    /// survive flush + reopen with identical bytes, rowids, and row count.
    #[test]
    fn store_flush_reopen_round_trips(
        rows in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 1..80),
        frames in 2usize..10,
    ) {
        let dir = std::env::temp_dir().join(format!("eqsql-storage-props-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{}.eqs", rows.len()));

        let store = Store::create(&path, frames).unwrap();
        store.create_table("t", 1).unwrap();
        let mut expect = Vec::new();
        for record in &rows {
            let rowid = store.append("t", record, &[None]).unwrap();
            expect.push((rowid, record.clone()));
        }
        store.flush().unwrap();
        drop(store);

        let store = Store::open(&path, frames).unwrap();
        prop_assert_eq!(store.row_count("t").unwrap(), rows.len() as u64);
        let got: Vec<(u64, Vec<u8>)> = store
            .scan("t")
            .unwrap()
            .collect::<storage::Result<_>>()
            .unwrap();
        prop_assert_eq!(got, expect);
        let _ = std::fs::remove_file(&path);
    }

    /// Random append / update (same size, grow, shrink) / delete sequences
    /// on a file-backed store with an 8-frame pool agree with a
    /// `BTreeMap` model at every checkpoint, and after flush + reopen
    /// every page still verifies its checksum.
    #[test]
    fn store_writes_match_model(ops in arb_ops()) {
        let dir = std::env::temp_dir().join(format!("eqsql-storage-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m{}.eqs", ops.len()));
        let store = Store::create(&path, 8).unwrap();
        store.create_table("t", 1).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (step, &(kind, pick, len)) in ops.iter().enumerate() {
            let fill = (step % 251) as u8;
            let target = (!model.is_empty())
                .then(|| *model.keys().nth(pick as usize % model.len()).unwrap());
            match (kind, target) {
                (0 | 1, _) | (_, None) => {
                    let record = vec![fill; len];
                    let rowid = store.append("t", &record, &[None]).unwrap();
                    prop_assert!(model.insert(rowid, record).is_none());
                }
                (5, Some(rowid)) => {
                    prop_assert!(store.delete("t", rowid).unwrap());
                    model.remove(&rowid);
                }
                (_, Some(rowid)) => {
                    let old = model[&rowid].len();
                    let new_len = match kind {
                        2 => old,
                        3 => (old + len).min(MAX_RECORD),
                        _ => old.min(len) / 2,
                    };
                    let record = vec![fill; new_len];
                    prop_assert!(store.update("t", rowid, &record).unwrap());
                    model.insert(rowid, record);
                }
            }
            if step % 25 == 24 {
                assert_matches_model(&store, &model);
            }
        }
        assert_matches_model(&store, &model);
        store.flush().unwrap();
        drop(store);

        let mut pager = Pager::open(&path).unwrap();
        for id in 0..pager.page_count() {
            prop_assert!(pager.read_page(id).is_ok(), "page {} fails its checksum", id);
        }
        drop(pager);
        let store = Store::open(&path, 8).unwrap();
        assert_matches_model(&store, &model);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}
