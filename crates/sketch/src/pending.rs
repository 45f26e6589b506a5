//! The bank's table of deferred sketch folds (DESIGN.md §17).
//!
//! An atomic sketch `X_k = Σ_t Π_j ξ_{j,t[j]}` is linear in the tuple
//! multiset, and a tuple's sign product depends only on the raw values of
//! its stream's incident join attributes. So `m` arrivals sharing those
//! values fold exactly like one weighted fold `X_k[c] += m · ξ_c(key)`.
//! [`PendingFolds`] counts arrivals per `(stream, incident values)` key
//! until the bank settles; the table is bounded, keeps its allocation
//! across epochs, and allocates nothing per arrival once warm.

use crate::score_cache::MAX_CACHED_ATTRS;
use serde::{Deserialize, Serialize};

/// Most distinct keys a bank defers before it settles on its own.
///
/// Bounds the table's memory (≈ 26 KiB per bank with its index) whatever
/// the key spread; a skewed epoch revisits far fewer keys than this, and a
/// uniform one settles every `PENDING_FOLD_BOUND` distinct keys, which
/// still folds no more often than the eager per-arrival update did.
pub const PENDING_FOLD_BOUND: usize = 512;

/// Index slots: a power of two at twice the bound (load factor ≤ ½).
const SLOTS: usize = 2 * PENDING_FOLD_BOUND;
const SLOT_BITS: u32 = SLOTS.trailing_zeros();

/// One deferred key and how many arrivals it stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PendingFold {
    /// The arriving tuples' stream.
    pub stream: u32,
    /// Raw values of the stream's incident join attributes, in incidence
    /// order; slots past the stream's incidence count stay zero.
    pub values: [u64; MAX_CACHED_ATTRS],
    /// Arrivals folded under this key.
    pub count: i64,
}

/// Bounded `(stream, incident values) → arrival count` table.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(crate) struct PendingFolds {
    /// Distinct keys in first-seen order.
    entries: Vec<PendingFold>,
    /// Open-addressed index: `entry index + 1`, 0 for an empty slot.
    /// Derived from `entries`, so it is not serialized; an empty index is
    /// (re)built on the next [`PendingFolds::bump`].
    #[serde(skip)]
    slots: Vec<u16>,
}

impl PendingFolds {
    /// Counts one arrival of `(stream, values)`. Returns `false`, counting
    /// nothing, when the key is new and the table already holds
    /// [`PENDING_FOLD_BOUND`] keys — the caller settles and retries.
    #[inline]
    pub fn bump(&mut self, stream: u32, values: [u64; MAX_CACHED_ATTRS]) -> bool {
        if self.slots.is_empty() {
            self.rebuild_index();
        }
        let mut slot = slot_of(stream, &values);
        loop {
            match self.slots[slot] {
                0 => {
                    if self.entries.len() == PENDING_FOLD_BOUND {
                        return false;
                    }
                    self.entries.push(PendingFold {
                        stream,
                        values,
                        count: 1,
                    });
                    self.slots[slot] = self.entries.len() as u16;
                    return true;
                }
                idx => {
                    let e = &mut self.entries[idx as usize - 1];
                    if e.stream == stream && e.values == values {
                        e.count += 1;
                        return true;
                    }
                }
            }
            slot = (slot + 1) & (SLOTS - 1);
        }
    }

    /// The deferred keys, in first-seen order.
    pub fn entries(&self) -> &[PendingFold] {
        &self.entries
    }

    /// Whether nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct deferred keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Forgets every deferred key, keeping both allocations.
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.entries.clear();
            self.slots.fill(0);
        }
    }

    fn rebuild_index(&mut self) {
        self.slots = vec![0; SLOTS];
        for (i, e) in self.entries.iter().enumerate() {
            let mut slot = slot_of(e.stream, &e.values);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (SLOTS - 1);
            }
            self.slots[slot] = i as u16 + 1;
        }
    }
}

/// Multiplicative hash of a key onto an index slot (the top bits of an
/// Fx-style fold: join keys are often small dense integers, whose low
/// bits alone would cluster).
#[inline]
fn slot_of(stream: u32, values: &[u64; MAX_CACHED_ATTRS]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (stream as u64).wrapping_mul(K);
    for &v in values {
        h = (h.rotate_left(5) ^ v).wrapping_mul(K);
    }
    (h >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u64) -> [u64; MAX_CACHED_ATTRS] {
        [a, a / 2, 0, 0]
    }

    #[test]
    fn bump_counts_repeats_and_separates_streams() {
        let mut t = PendingFolds::default();
        assert!(t.bump(0, key(7)));
        assert!(t.bump(0, key(7)));
        assert!(t.bump(1, key(7)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].count, 2);
        assert_eq!(t.entries()[1].count, 1);
        t.clear();
        assert!(t.is_empty());
        assert!(t.bump(0, key(7)));
        assert_eq!(t.entries()[0].count, 1, "clear forgets counts");
    }

    #[test]
    fn table_refuses_new_keys_at_the_bound_but_counts_old_ones() {
        let mut t = PendingFolds::default();
        for a in 0..PENDING_FOLD_BOUND as u64 {
            assert!(t.bump(0, key(a)));
        }
        assert_eq!(t.len(), PENDING_FOLD_BOUND);
        assert!(!t.bump(0, key(u64::MAX)), "full table refuses a new key");
        assert_eq!(t.len(), PENDING_FOLD_BOUND);
        assert!(t.bump(0, key(3)), "an existing key still counts");
        assert_eq!(t.entries()[3].count, 2);
        let cap = t.entries.capacity();
        t.clear();
        assert_eq!(t.entries.capacity(), cap, "clear keeps the allocation");
    }

    #[test]
    fn index_is_rebuilt_after_it_is_dropped() {
        let mut t = PendingFolds::default();
        for a in 0..40 {
            t.bump(2, key(a));
        }
        // What a deserialized table looks like: entries without an index.
        t.slots = Vec::new();
        for a in 0..40 {
            assert!(t.bump(2, key(a)));
        }
        assert_eq!(t.len(), 40, "rebuilt index finds every old key");
        assert!(t.entries().iter().all(|e| e.count == 2));
    }
}
