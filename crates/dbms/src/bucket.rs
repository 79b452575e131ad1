//! The one equality-bucket rule behind every hash lookup on values.
//!
//! SQL equality (`sql_cmp`) and grouping equality ([`Value::group_eq`])
//! treat `1`, `1.0` and `true` as equal, and two integers above 2^53 as
//! different. A hash must put every equal pair in one bucket, so numbers of
//! every type go by their `f64` value (with `-0.0` folded into `0.0`) and
//! strings by their text. The converse does not hold — a bucket may also
//! hold unequal values (NaN, integers past 2^53) — so every hit is
//! confirmed with the equality it stands for.
//!
//! Users: key matching in `interp::dml`, the bucket scan behind
//! [`crate::volcano`]'s `OUTER APPLY`, and first-occurrence grouping
//! ([`Groups`]) for `GROUP BY` and `DISTINCT`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// Hash bucket for value equality; `NULL` has none (see the module docs).
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum Bucket<'a> {
    /// A number, bool included, by the bits of its `f64` value.
    Num(u64),
    /// A string, by its text.
    Str(&'a str),
}

/// The bucket of `v`; `None` for `NULL`.
pub fn bucket(v: &Value) -> Option<Bucket<'_>> {
    match v {
        Value::Null => None,
        Value::Str(s) => Some(Bucket::Str(s)),
        other => {
            let f = other.as_f64()?;
            Some(Bucket::Num(if f == 0.0 { 0 } else { f.to_bits() }))
        }
    }
}

/// Hash of a row's buckets, position by position (`NULL` hashes alike,
/// as [`row_ident`] matches it with `NULL`). Rows that `row_ident` calls
/// identical hash alike.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in row {
        bucket(v).hash(&mut h);
    }
    h.finish()
}

/// Identity of two rows for grouping and multiset removal: positional
/// [`Value::group_eq`], where `NULL` matches `NULL`.
pub fn row_ident(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.group_eq(y))
}

/// Positions of values by bucket hash, each list in order (see
/// [`key_index`]).
pub type KeyIndex = HashMap<u64, Vec<usize>>;

/// Indices of `values` by bucket hash, in order; `NULL`s, which match
/// nothing, are left out. Probe with [`key_hash`] and confirm each hit.
pub fn key_index<'a>(values: impl Iterator<Item = &'a Value>) -> KeyIndex {
    let mut index = KeyIndex::new();
    for (i, v) in values.enumerate() {
        if let Some(h) = key_hash(v) {
            index.entry(h).or_default().push(i);
        }
    }
    index
}

/// The [`key_index`] slot of `v`; `None` for `NULL`.
pub fn key_hash(v: &Value) -> Option<u64> {
    bucket(v)?;
    Some(row_hash(std::slice::from_ref(v)))
}

/// First-occurrence grouping under [`row_ident`]: each key joins the
/// earliest group whose key it equals, or opens the next one. Groups are
/// numbered `0, 1, …` in the order they open; the caller keeps each
/// group's key and state in that order.
#[derive(Debug, Default)]
pub struct Groups {
    by_hash: HashMap<u64, Vec<usize>>,
    len: usize,
}

impl Groups {
    /// The group `key` belongs to, given the key of every open group
    /// (`key_of(id)`): `Ok(id)` for an open group, `Err(id)` when `key`
    /// opens group `id` (the caller then records its key under `id`).
    pub fn find<'k>(
        &mut self,
        key: &[Value],
        key_of: impl Fn(usize) -> &'k [Value],
    ) -> Result<usize, usize> {
        let ids = self.by_hash.entry(row_hash(key)).or_default();
        if let Some(&id) = ids.iter().find(|&&id| row_ident(key_of(id), key)) {
            return Ok(id);
        }
        let id = self.len;
        ids.push(id);
        self.len += 1;
        Err(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_a_bucket() {
        for (a, b) in [
            (Value::Int(1), Value::Float(1.0)),
            (Value::Int(1), Value::Bool(true)),
            (Value::Int(0), Value::Float(-0.0)),
        ] {
            assert!(a.group_eq(&b));
            assert_eq!(bucket(&a), bucket(&b));
            assert_eq!(key_hash(&a), key_hash(&b));
        }
        assert_eq!(bucket(&Value::Null), None);
        assert_eq!(key_hash(&Value::Null), None);
    }

    #[test]
    fn groups_split_integers_past_2_53() {
        let big = 1i64 << 53;
        let keys = [
            vec![Value::Int(big)],
            vec![Value::Int(big + 1)],
            vec![Value::Int(big)],
            vec![Value::Float(3.0)],
            vec![Value::Int(3)],
            vec![Value::Null],
            vec![Value::Null],
        ];
        let mut groups = Groups::default();
        let mut reps: Vec<&[Value]> = Vec::new();
        let mut ids = Vec::new();
        for k in &keys {
            let id = match groups.find(k, |i| reps[i]) {
                Ok(id) => id,
                Err(id) => {
                    reps.push(k);
                    id
                }
            };
            ids.push(id);
        }
        assert_eq!(ids, [0, 1, 0, 2, 2, 3, 3]);
    }
}
