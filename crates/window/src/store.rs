//! The per-stream window store.

use crate::arena::{Arena, Slot};
use crate::heap::IndexedHeap;
use crate::index::{Candidates, FlatIndex};
use mstream_types::{SeqNo, StreamId, Tuple, VTime, Value, WindowSpec};
use std::collections::VecDeque;

/// One resident window tuple plus the bookkeeping that must travel with it.
///
/// Everything per-slot that the hot paths touch *without* the tuple —
/// index positions, produced counters, cached policy state — lives in flat
/// parallel arrays on [`WindowStore`] instead (struct-of-arrays), so the
/// entry itself adds no heap allocation beyond the tuple's own values and
/// probe/eviction loops never drag the full entry into cache.
struct Entry {
    tuple: Tuple,
    /// This stream's arrival counter value when the tuple entered
    /// (drives tuple-based expiration).
    arrival_idx: u64,
}

/// What happened when a tuple was offered to a full window.
#[derive(Debug, PartialEq)]
pub enum Eviction {
    /// The window had room; nothing was evicted.
    None,
    /// A resident tuple (possibly the newly offered one) was dismissed.
    Evicted(Tuple),
}

/// The result of [`WindowStore::insert`].
#[derive(Debug, PartialEq)]
pub struct InsertOutcome {
    /// Where the offered tuple now lives, or `None` if it was itself the
    /// lowest-priority tuple and was dismissed immediately.
    pub slot: Option<Slot>,
    /// The eviction performed to make room, if any.
    pub eviction: Eviction,
}

/// A sliding-window buffer with priority-driven shedding.
///
/// Combines (paper §2/§4): a fixed `capacity` (the allocated memory), FIFO
/// expiration per the window spec, hash indexes on every join attribute for
/// n-way probing, and an indexed min-heap over tuple priorities so that
/// "when the window is full, remove the tuple with lowest priority".
///
/// All policies in the paper reduce to a priority score: productivity for
/// `MSketch`, remaining-output-fraction for `MSketch-RS`, partner frequency
/// for `Bjoin`, remaining-lifetime × productivity for `Age`, a uniform
/// random draw for `Random`, and the arrival sequence number for `FIFO`
/// (drop-oldest). The store itself is policy-agnostic: callers hand it a
/// score per tuple and may rebuild all scores at tumbling-epoch rollovers.
///
/// Layout (see DESIGN.md §10): join indexes are open-addressed
/// [`FlatIndex`] tables (no SipHash, no per-value `Vec`), and the per-slot
/// sidecars `index_pos` / `produced` / `state` are flat arrays indexed by
/// the slot's dense arena index.
pub struct WindowStore {
    spec: WindowSpec,
    capacity: usize,
    /// Schema attribute indexes that carry a hash index.
    join_attrs: Vec<usize>,
    arena: Arena<Entry>,
    /// Arrival-ordered queue of slots for expiration (lazily cleaned).
    expiry: VecDeque<Slot>,
    /// `indexes[a]` maps a value of `join_attrs[a]` to the slots holding it.
    indexes: Vec<FlatIndex>,
    heap: IndexedHeap,
    /// Arrivals observed on this stream (count includes shed tuples).
    arrivals_seen: u64,
    /// `index_pos[slot.index() * join_attrs.len() + a]` = position of the
    /// slot inside its bucket of indexed attribute `a`, for O(1)
    /// swap-removal. Valid only while the slot is live.
    index_pos: Vec<u32>,
    /// Join-output tuples attributed to each live slot so far (used by the
    /// random-sampling priority measure). Indexed by `slot.index()`.
    produced: Vec<u64>,
    /// Opaque per-tuple policy state (e.g. the cached expected-output
    /// denominator of the random-sampling measure), refreshed whenever the
    /// priority is recomputed from scratch. Indexed by `slot.index()`.
    state: Vec<f64>,
}

impl WindowStore {
    /// Creates an empty store.
    ///
    /// `join_attrs` are the schema attribute indexes to hash-index (from
    /// [`mstream_types::JoinQuery::join_attrs`]); `capacity` is the memory
    /// allocated to this window, in tuples.
    pub fn new(spec: WindowSpec, join_attrs: Vec<usize>, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        let n_idx = join_attrs.len();
        // Cap the eager reservation: "unbounded" reference joins pass huge
        // capacities and grow on demand instead.
        let reserve = capacity.min(4096) + 1;
        WindowStore {
            spec,
            capacity,
            join_attrs,
            arena: Arena::with_capacity(reserve),
            expiry: VecDeque::with_capacity(reserve),
            indexes: (0..n_idx).map(|_| FlatIndex::new()).collect(),
            heap: IndexedHeap::new(),
            arrivals_seen: 0,
            index_pos: Vec::with_capacity(reserve * n_idx),
            produced: Vec::with_capacity(reserve),
            state: Vec::with_capacity(reserve),
        }
    }

    /// Number of resident tuples.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The allocated capacity in tuples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Arrivals observed so far (including tuples that were shed).
    pub fn arrivals_seen(&self) -> u64 {
        self.arrivals_seen
    }

    /// Notes an arrival on this stream *without* storing it (the arrival
    /// still advances tuple-based expiration). Used when the queue sheds a
    /// tuple before it ever reaches the window.
    pub fn note_arrival(&mut self) {
        self.arrivals_seen += 1;
    }

    /// Notes `n` arrivals at once — the bulk form of
    /// [`WindowStore::note_arrival`], used by sharded execution to apply a
    /// coalesced foreign-arrival tick summary. Ticks only advance the
    /// counter (expiry is evaluated on the next stored arrival), so `n`
    /// single ticks and one bulk tick are observationally identical.
    pub fn note_arrivals(&mut self, n: u64) {
        self.arrivals_seen += n;
    }

    /// Removes all expired tuples as of `now` (oldest-first) and returns
    /// how many were removed.
    ///
    /// Time-based windows expire tuples with `ts + p <= now`; tuple-based
    /// windows expire tuples once `count` newer arrivals have been seen on
    /// this stream (paper §4.1 semantics — arrivals, not residents, so
    /// shedding does not extend lifetimes).
    pub fn expire(&mut self, now: VTime) -> usize {
        let mut expired = 0;
        while let Some(&slot) = self.expiry.front() {
            // Lazily drop queue entries for tuples already evicted.
            let Some(entry) = self.arena.get(slot) else {
                self.expiry.pop_front();
                continue;
            };
            let is_expired = match self.spec {
                WindowSpec::Time(p) => entry.tuple.ts + p <= now,
                WindowSpec::Tuples(count) => {
                    self.arrivals_seen.saturating_sub(entry.arrival_idx) >= count
                }
            };
            if !is_expired {
                break;
            }
            self.expiry.pop_front();
            self.remove_slot(slot).expect("slot checked live");
            expired += 1;
        }
        expired
    }

    /// Inserts `tuple` with the given priority `score`, evicting the
    /// lowest-priority resident (possibly `tuple` itself) if the window is
    /// at capacity. Counts the arrival.
    pub fn insert(&mut self, tuple: Tuple, score: f64) -> InsertOutcome {
        self.insert_scored(tuple, score, 0.0)
    }

    /// [`Self::insert`] with explicit per-tuple policy state.
    pub fn insert_scored(&mut self, tuple: Tuple, score: f64, state: f64) -> InsertOutcome {
        self.arrivals_seen += 1;
        let seq = tuple.seq;
        let slot = self.store(tuple, score, state);
        if self.arena.len() <= self.capacity {
            return InsertOutcome {
                slot: Some(slot),
                eviction: Eviction::None,
            };
        }
        let (victim_slot, _) = self.heap.peek_min().expect("non-empty over capacity");
        let victim = self
            .remove_slot(victim_slot)
            .expect("heap entries are live");
        let stored = victim.seq != seq;
        InsertOutcome {
            slot: stored.then_some(slot),
            eviction: Eviction::Evicted(victim),
        }
    }

    /// Stores a tuple unconditionally (no capacity check, no arrival count).
    fn store(&mut self, tuple: Tuple, score: f64, state: f64) -> Slot {
        let tie = tuple.seq.0;
        let arrival_idx = self.arrivals_seen;
        let n_idx = self.join_attrs.len();
        let slot = self.arena.insert(Entry { tuple, arrival_idx });
        let i = slot.index();
        if i >= self.produced.len() {
            self.produced.resize(i + 1, 0);
            self.state.resize(i + 1, 0.0);
            self.index_pos.resize((i + 1) * n_idx, 0);
        }
        self.produced[i] = 0;
        self.state[i] = state;
        let entry = self.arena.get(slot).expect("just inserted");
        for a in 0..n_idx {
            let value = entry.tuple.values[self.join_attrs[a]];
            let pos = self.indexes[a].insert(value.0, slot);
            self.index_pos[i * n_idx + a] = pos;
        }
        self.expiry.push_back(slot);
        self.heap.insert(slot, score, tie);
        slot
    }

    /// Fully removes `slot` from arena, indexes and heap.
    fn remove_slot(&mut self, slot: Slot) -> Option<Tuple> {
        let entry = self.arena.remove(slot)?;
        let i = slot.index();
        let n_idx = self.join_attrs.len();
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let value = entry.tuple.values[attr];
            let pos = self.index_pos[i * n_idx + a];
            if let Some(moved) = self.indexes[a].remove(value.0, pos, slot) {
                self.index_pos[moved.index() * n_idx + a] = pos;
            }
        }
        self.heap.remove(slot);
        // The expiry deque entry is cleaned lazily.
        Some(entry.tuple)
    }

    /// Evicts and returns the lowest-priority tuple, if any.
    pub fn evict_min(&mut self) -> Option<(Tuple, f64)> {
        let (slot, score) = self.heap.peek_min()?;
        let tuple = self.remove_slot(slot).expect("heap entries are live");
        Some((tuple, score))
    }

    /// The lowest priority currently resident, if any (global-pool variant).
    pub fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.peek_min()
    }

    /// Slots holding `value` on schema attribute `attr`, in bucket order.
    ///
    /// # Panics
    /// Panics if `attr` is not one of the indexed join attributes.
    pub fn probe(&self, attr: usize, value: Value) -> Candidates<'_> {
        let a = self
            .join_attrs
            .iter()
            .position(|&ja| ja == attr)
            .unwrap_or_else(|| panic!("attribute {attr} is not indexed"));
        self.indexes[a].probe(value.0)
    }

    /// Prefetch hint for an upcoming [`WindowStore::probe`] of the same
    /// `(attr, value)`: pulls the index cells the probe will touch toward
    /// the cache. Semantically a no-op (see [`FlatIndex::prefetch`]);
    /// unindexed attributes are silently ignored — a hint must never
    /// panic on speculative input.
    #[inline]
    pub fn prefetch(&self, attr: usize, value: Value) {
        if let Some(a) = self.join_attrs.iter().position(|&ja| ja == attr) {
            self.indexes[a].prefetch(value.0);
        }
    }

    /// The tuple at `slot`, if live.
    pub fn tuple(&self, slot: Slot) -> Option<&Tuple> {
        self.arena.get(slot).map(|e| &e.tuple)
    }

    /// Adds `n` to the produced-output counter of `slot` (for the
    /// random-sampling priority). Returns the new total, or `None` if the
    /// slot is stale.
    pub fn add_produced(&mut self, slot: Slot, n: u64) -> Option<u64> {
        if !self.arena.contains(slot) {
            return None;
        }
        let p = &mut self.produced[slot.index()];
        *p += n;
        Some(*p)
    }

    /// The produced-output counter of `slot`.
    pub fn produced(&self, slot: Slot) -> Option<u64> {
        self.arena.contains(slot).then(|| self.produced[slot.index()])
    }

    /// The cached policy state of `slot`.
    pub fn state(&self, slot: Slot) -> Option<f64> {
        self.arena.contains(slot).then(|| self.state[slot.index()])
    }

    /// Updates the priority of a resident tuple; `false` if the slot is
    /// stale.
    pub fn update_priority(&mut self, slot: Slot, score: f64) -> bool {
        self.heap.update(slot, score)
    }

    /// The priority of a resident tuple.
    pub fn priority(&self, slot: Slot) -> Option<f64> {
        self.heap.score(slot)
    }

    /// Recomputes every resident tuple's priority (tumbling-epoch rollover:
    /// "reset all the priority queues"). The callback sees the tuple and
    /// its produced-so-far counter and returns `(score, policy state)`.
    pub fn rebuild_priorities(&mut self, mut score: impl FnMut(&Tuple, u64) -> (f64, f64)) {
        self.heap.clear();
        for (slot, entry) in self.arena.iter() {
            let i = slot.index();
            let (sc, st) = score(&entry.tuple, self.produced[i]);
            self.state[i] = st;
            self.heap.insert(slot, sc, entry.tuple.seq.0);
        }
    }

    /// Key-grouped variant of [`WindowStore::rebuild_priorities`] for
    /// policies whose score factors into a per-key estimate recombined per
    /// tuple (DESIGN.md §16): residents are walked **grouped by distinct
    /// join-key value** via the hash index, so the scoring callback can
    /// compute the expensive estimate once per distinct key and fan it out
    /// to every slot holding that key — O(distinct keys × kernel +
    /// residents) instead of O(residents × kernel).
    ///
    /// The callback sees `(tuple, produced, shared)` where `shared` is
    /// `None` for the first slot of each key group and `Some(estimate)` —
    /// the third element of the previous return — for the rest; it returns
    /// `(score, policy state, estimate)`.
    ///
    /// Stores indexing more than one join attribute fall back to the
    /// per-slot walk with `shared = None` throughout (a bucket of one
    /// index does not pin the other indexed values, so no estimate may be
    /// shared). Either walk visits every resident exactly once, and the
    /// heap orders strictly by `(score, seq)` — a total order, since
    /// sequence numbers are unique — so the visit order is unobservable:
    /// grouped and arena-order rebuilds yield identical eviction behavior.
    pub fn rebuild_priorities_grouped(
        &mut self,
        mut score: impl FnMut(&Tuple, u64, Option<f64>) -> (f64, f64, f64),
    ) {
        if self.join_attrs.len() != 1 {
            self.rebuild_priorities(|tuple, produced| {
                let (sc, st, _) = score(tuple, produced, None);
                (sc, st)
            });
            return;
        }
        self.heap.clear();
        let Self {
            arena,
            indexes,
            heap,
            produced,
            state,
            ..
        } = self;
        for (_value, cands) in indexes[0].iter_keys() {
            let mut shared: Option<f64> = None;
            for slot in cands.iter() {
                let entry = arena.get(slot).expect("indexed slot is live");
                let i = slot.index();
                let (sc, st, est) = score(&entry.tuple, produced[i], shared);
                shared = Some(est);
                state[i] = st;
                heap.insert(slot, sc, entry.tuple.seq.0);
            }
        }
    }

    /// Iterates over `(Slot, &Tuple)` for all resident tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Tuple)> {
        self.arena.iter().map(|(slot, e)| (slot, &e.tuple))
    }

    /// Re-labels every resident tuple as a tuple of `stream`: for a new
    /// owner that addresses this store under another stream id than the
    /// one its residents were stored under.
    pub fn retag(&mut self, stream: StreamId) {
        // Every live slot is on the expiry queue; stale entries of evicted
        // tuples fail the generation check.
        for &slot in &self.expiry {
            if let Some(entry) = self.arena.get_mut(slot) {
                entry.tuple.stream = stream;
            }
        }
    }

    /// The oldest resident tuple's sequence number, if any.
    pub fn oldest_seq(&self) -> Option<SeqNo> {
        self.iter().map(|(_, t)| t.seq).min()
    }

    /// Internal consistency check used by tests: every resident tuple is in
    /// the heap and in every index bucket its values demand, and vice versa.
    #[doc(hidden)]
    pub fn check_consistency(&self) {
        assert_eq!(self.arena.len(), self.heap.len(), "arena vs heap size");
        let n_idx = self.join_attrs.len();
        for (slot, entry) in self.arena.iter() {
            assert!(self.heap.contains(slot), "live slot missing from heap");
            for (a, &attr) in self.join_attrs.iter().enumerate() {
                let value = entry.tuple.values[attr];
                let pos = self.index_pos[slot.index() * n_idx + a] as usize;
                let bucket = self.indexes[a].probe(value.0);
                assert_eq!(bucket.get(pos), Some(slot), "index_pos desynchronized");
            }
        }
        if !self.join_attrs.is_empty() {
            let indexed = self.indexes[0].len();
            assert_eq!(indexed, self.arena.len(), "index vs arena size");
        }
    }

    /// Full structural audit: [`Self::check_consistency`] plus heap-order /
    /// position-map invariants, the open-addressed indexes' internal
    /// invariants *and* a cross-check of their contents against a reference
    /// `HashMap` rebuilt from the arena, the capacity bound, and agreement
    /// between the lazily-cleaned expiry deque and the arena.
    ///
    /// O(n log n); compiled only for tests and the `audit` feature, where
    /// the differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        self.check_consistency();
        self.heap.check_invariants();
        self.check_index_against_reference();
        assert!(
            self.arena.len() <= self.capacity,
            "window over capacity: {} > {}",
            self.arena.len(),
            self.capacity
        );
        // Every live slot must appear in the expiry deque exactly once, and
        // live deque entries must run oldest-first (nondecreasing seq) or
        // FIFO expiration would release tuples out of order.
        let mut seen = std::collections::HashSet::new();
        let mut last_seq: Option<SeqNo> = None;
        for &slot in &self.expiry {
            let Some(entry) = self.arena.get(slot) else {
                continue; // stale entry awaiting lazy cleanup
            };
            assert!(seen.insert(slot), "slot queued for expiry twice: {slot:?}");
            if let Some(prev) = last_seq {
                assert!(
                    entry.tuple.seq >= prev,
                    "expiry deque out of arrival order"
                );
            }
            last_seq = Some(entry.tuple.seq);
            // A resident must not already be past its tuple-window bound.
            if let WindowSpec::Tuples(count) = self.spec {
                assert!(
                    self.arrivals_seen.saturating_sub(entry.arrival_idx) <= count,
                    "resident tuple outlived its tuple window"
                );
            }
        }
        assert_eq!(
            seen.len(),
            self.arena.len(),
            "live slot missing from expiry deque"
        );
    }

    /// Differential check of every open-addressed index against a reference
    /// `HashMap<value, Vec<Slot>>` rebuilt from the arena: per-key slot
    /// multisets must agree exactly and the index must hold no extra keys.
    #[cfg(any(test, feature = "audit"))]
    fn check_index_against_reference(&self) {
        use std::collections::HashMap;
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            self.indexes[a].check_invariants();
            let mut reference: HashMap<u64, Vec<Slot>> = HashMap::new();
            for (slot, entry) in self.arena.iter() {
                reference
                    .entry(entry.tuple.values[attr].0)
                    .or_default()
                    .push(slot);
            }
            assert_eq!(
                self.indexes[a].n_keys(),
                reference.len(),
                "index {a}: distinct-key count diverges from reference"
            );
            for (key, want) in reference.iter_mut() {
                let mut got: Vec<Slot> = self.indexes[a].probe(*key).iter().collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(
                    &got, want,
                    "index {a} key {key}: slots diverge from reference"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{StreamId, VDur};
    use proptest::prelude::*;

    fn tup(seq: u64, ts_secs: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(0),
            VTime::from_secs(ts_secs),
            SeqNo(seq),
            vec![Value(a), Value(b)],
        )
    }

    fn time_store(cap: usize) -> WindowStore {
        WindowStore::new(WindowSpec::Time(VDur::from_secs(10)), vec![0, 1], cap)
    }

    #[test]
    fn insert_within_capacity_keeps_all() {
        let mut w = time_store(3);
        for i in 0..3 {
            let out = w.insert(tup(i, 0, i, 0), 1.0);
            assert_eq!(out.eviction, Eviction::None);
            assert!(out.slot.is_some());
        }
        assert_eq!(w.len(), 3);
        w.check_consistency();
    }

    #[test]
    fn overflow_evicts_lowest_priority() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 10, 0), 5.0);
        w.insert(tup(1, 0, 11, 0), 1.0);
        let out = w.insert(tup(2, 0, 12, 0), 3.0);
        match out.eviction {
            Eviction::Evicted(t) => assert_eq!(t.seq, SeqNo(1), "lowest priority evicted"),
            Eviction::None => panic!("expected eviction"),
        }
        assert!(out.slot.is_some());
        assert_eq!(w.len(), 2);
        w.check_consistency();
    }

    #[test]
    fn new_tuple_can_be_its_own_victim() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 10, 0), 5.0);
        w.insert(tup(1, 0, 11, 0), 4.0);
        let out = w.insert(tup(2, 0, 12, 0), 0.1);
        assert_eq!(out.slot, None, "new tuple was immediately dismissed");
        match out.eviction {
            Eviction::Evicted(t) => assert_eq!(t.seq, SeqNo(2)),
            Eviction::None => panic!("expected eviction"),
        }
        assert_eq!(w.len(), 2);
        w.check_consistency();
    }

    #[test]
    fn time_expiration_is_strict_boundary() {
        let mut w = time_store(10);
        w.insert(tup(0, 0, 1, 1), 1.0);
        w.insert(tup(1, 5, 2, 2), 1.0);
        // p = 10s: the t=0 tuple dies exactly at now=10.
        assert_eq!(w.expire(VTime::from_secs(9)), 0);
        assert_eq!(w.expire(VTime::from_secs(10)), 1);
        assert_eq!(w.oldest_seq(), Some(SeqNo(1)), "the t=0 tuple expired");
        assert_eq!(w.len(), 1);
        w.check_consistency();
    }

    #[test]
    fn tuple_window_counts_arrivals_not_residents() {
        let mut w = WindowStore::new(WindowSpec::Tuples(3), vec![0], 10);
        w.insert(tup(0, 0, 1, 0), 1.0);
        // Two arrivals that were shed upstream still age the window.
        w.note_arrival();
        w.note_arrival();
        assert_eq!(w.expire(VTime::ZERO), 0, "2 newer arrivals < 3");
        w.note_arrival();
        assert_eq!(
            w.expire(VTime::ZERO),
            1,
            "3 newer arrivals expire the tuple"
        );
    }

    #[test]
    fn probe_finds_matching_tuples() {
        let mut w = time_store(10);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 1.0);
        w.insert(tup(2, 0, 8, 7), 1.0);
        assert_eq!(w.probe(0, Value(7)).len(), 2);
        assert_eq!(w.probe(0, Value(8)).len(), 1);
        assert_eq!(w.probe(0, Value(9)).len(), 0);
        // Attribute 1 is indexed separately.
        assert_eq!(w.probe(1, Value(7)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probe_unindexed_attr_panics() {
        let w = WindowStore::new(WindowSpec::Tuples(3), vec![0], 10);
        let _ = w.probe(1, Value(0));
    }

    #[test]
    fn eviction_removes_from_indexes() {
        let mut w = time_store(1);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 2.0); // evicts seq 0
        assert_eq!(w.probe(0, Value(7)).len(), 1);
        let slot = w.probe(0, Value(7)).get(0).unwrap();
        assert_eq!(w.tuple(slot).unwrap().seq, SeqNo(1));
        w.check_consistency();
    }

    #[test]
    fn produced_counters() {
        let mut w = time_store(4);
        let slot = w.insert(tup(0, 0, 1, 1), 1.0).slot.unwrap();
        assert_eq!(w.produced(slot), Some(0));
        assert_eq!(w.add_produced(slot, 3), Some(3));
        assert_eq!(w.add_produced(slot, 2), Some(5));
        let (victim, _) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(0));
        assert_eq!(w.produced(slot), None, "stale after eviction");
    }

    #[test]
    fn produced_counter_resets_on_slot_reuse() {
        // A new tuple that recycles an evicted tuple's arena slot must not
        // inherit its produced counter or policy state.
        let mut w = time_store(1);
        let s0 = w.insert_scored(tup(0, 0, 1, 1), 1.0, 9.0).slot.unwrap();
        assert_eq!(w.add_produced(s0, 7), Some(7));
        w.insert_scored(tup(1, 0, 2, 2), 2.0, 3.0); // evicts seq 0, freeing its slot
        w.insert_scored(tup(2, 0, 3, 3), 3.0, 4.0); // evicts seq 1, recycles slot 0
        let s2 = w.probe(0, Value(3)).get(0).unwrap();
        assert_eq!(s2.index(), s0.index(), "arena slot recycled");
        assert_eq!(w.produced(s2), Some(0));
        assert_eq!(w.state(s2), Some(4.0));
        assert_eq!(w.produced(s0), None, "stale handle still rejected");
        w.check_invariants();
    }

    #[test]
    fn rebuild_priorities_changes_eviction_order() {
        let mut w = time_store(3);
        w.insert(tup(0, 0, 1, 0), 1.0);
        w.insert(tup(1, 0, 2, 0), 2.0);
        w.insert(tup(2, 0, 3, 0), 3.0);
        // Invert: oldest gets the highest score.
        w.rebuild_priorities(|t, _| (100.0 - t.seq.0 as f64, 0.0));
        let (victim, score) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(2));
        assert_eq!(score, 98.0);
        w.check_consistency();
    }

    #[test]
    fn grouped_rebuild_shares_one_estimate_per_key() {
        let mut w = WindowStore::new(WindowSpec::secs(10), vec![0], 16);
        // Keys on attr 0: value 7 held by three slots, value 8 by two,
        // value 9 by one.
        for (seq, a) in [(0, 7), (1, 7), (2, 8), (3, 9), (4, 7), (5, 8)] {
            w.insert(tup(seq, 0, a, seq), 1.0);
        }
        let mut estimates = 0u32;
        w.rebuild_priorities_grouped(|t, _produced, shared| {
            let est = shared.unwrap_or_else(|| {
                estimates += 1;
                (t.values[0].0 * 10) as f64
            });
            // Score = shared estimate + per-slot recombine (seq here).
            (est + t.seq.0 as f64, est, est)
        });
        assert_eq!(estimates, 3, "one estimate per distinct key, not per slot");
        // Every slot carries the recombined score and the shared state.
        for (slot, t) in w.iter().collect::<Vec<_>>() {
            let want = (t.values[0].0 * 10) as f64;
            assert_eq!(w.priority(slot), Some(want + t.seq.0 as f64));
            assert_eq!(w.state(slot), Some(want));
        }
        w.check_consistency();
        // Eviction order matches a per-slot rebuild with the same scores.
        let (victim, score) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(0), "lowest key, oldest slot");
        assert_eq!(score, 70.0);
    }

    #[test]
    fn grouped_rebuild_multi_attr_falls_back_per_slot() {
        // Two indexed attributes: one bucket does not pin the other value,
        // so the walk must degrade to per-slot with no sharing.
        let mut w = WindowStore::new(WindowSpec::secs(10), vec![0, 1], 16);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 1.0);
        let mut shared_seen = 0u32;
        let mut calls = 0u32;
        w.rebuild_priorities_grouped(|t, _p, shared| {
            calls += 1;
            if shared.is_some() {
                shared_seen += 1;
            }
            (t.seq.0 as f64, 0.0, 0.0)
        });
        assert_eq!(calls, 2);
        assert_eq!(shared_seen, 0, "no estimate sharing across multi-attr keys");
        w.check_consistency();
    }

    #[test]
    fn update_priority_single() {
        let mut w = time_store(3);
        let s0 = w.insert(tup(0, 0, 1, 0), 5.0).slot.unwrap();
        w.insert(tup(1, 0, 2, 0), 4.0);
        assert!(w.update_priority(s0, 0.5));
        assert_eq!(w.peek_min().unwrap().0, s0);
        assert_eq!(w.priority(s0), Some(0.5));
    }

    #[test]
    fn expire_after_evictions_skips_stale_entries() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 1, 0), 0.0);
        w.insert(tup(1, 0, 2, 0), 5.0);
        w.insert(tup(2, 1, 3, 0), 5.0); // evicts seq 0 (front of expiry queue)
        let dead = w.expire(VTime::from_secs(10));
        assert_eq!(dead, 1, "only seq 1 expires; seq 0 already gone");
        assert_eq!(w.oldest_seq(), Some(SeqNo(2)), "seq 1 expired, seq 2 stays");
        assert_eq!(w.len(), 1);
        w.check_consistency();
    }

    #[test]
    fn oldest_seq_reports_minimum() {
        let mut w = time_store(5);
        assert_eq!(w.oldest_seq(), None);
        w.insert(tup(5, 0, 1, 0), 1.0);
        w.insert(tup(3, 0, 1, 0), 1.0);
        assert_eq!(w.oldest_seq(), Some(SeqNo(3)));
    }

    proptest! {
        /// Random mixes of inserts, evictions and expirations never break
        /// internal consistency, and capacity is never exceeded.
        #[test]
        fn store_stays_consistent(ops in proptest::collection::vec((0u8..3, 0u64..20, 0u64..5), 1..200)) {
            let mut w = WindowStore::new(WindowSpec::Time(VDur::from_secs(5)), vec![0, 1], 8);
            let mut seq = 0u64;
            let mut clock = 0u64;
            for (op, val, score) in ops {
                match op {
                    0 => {
                        let t = tup(seq, clock, val, val % 3);
                        seq += 1;
                        w.insert(t, score as f64);
                    }
                    1 => {
                        clock += 1;
                        let _ = w.expire(VTime::from_secs(clock));
                    }
                    _ => {
                        let _ = w.evict_min();
                    }
                }
                prop_assert!(w.len() <= 8);
                w.check_invariants();
            }
        }
    }
}
