//! Tumbling-window sketch management (paper §4, Algorithm 1, steps 1.2/1.4).
//!
//! Productivity could be computed against the *current* window's sketches,
//! but those change on every arrival, so every resident tuple's priority
//! would have to be recomputed per arrival. The paper instead partitions
//! each stream into disjoint **tumbling windows** of length `n` (set to the
//! join-window length `p` in all experiments) and answers productivity
//! queries from the sketch of the **last** completed epoch: each tuple's
//! priority is computed at most twice in its lifetime (once on arrival,
//! once when the epoch rolls over and priorities are rebuilt).
//!
//! During the very first epoch there is no "last" sketch yet; the paper
//! falls back to the current one, and so do we — per stream, so a slow
//! stream keeps falling back until its own first epoch completes.
//!
//! Because the last-epoch snapshot is **immutable between rollovers**, the
//! cross-products `Π_{k≠i} X_k^{last}` it contributes to every
//! productivity query are precomputed once per rollover (lazily, per
//! excluded stream) into contiguous `f64` rows. A productivity query then
//! reduces to one packed-sign lookup plus a signed sum over that row —
//! `O(copies)` adds instead of `O(copies · n)` multiplies — which is also
//! what the engine's epoch-rollover priority rebuild pays per tuple.

use crate::bank::{median_of_means_into, BankConfig, SketchBank};
use crate::kernel;
use crate::score_cache::{ScoreCache, ScoreCacheStats, ScoreKey, MAX_CACHED_ATTRS};
use crate::signs::SignCacheStats;
use mstream_types::{JoinQuery, StreamId, VDur, VTime, Value};
use serde::{Deserialize, Serialize};

/// When sketches tumble.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochSpec {
    /// All streams roll together every `n` (virtual) seconds — the
    /// discipline for time-based windows.
    Time(VDur),
    /// Each stream rolls after every `n` of its own arrivals — the
    /// discipline for tuple-based windows (paper §4.1).
    PerStreamTuples(u64),
}

/// Current + last tumbling-epoch sketches for every stream of a query.
#[derive(Clone, Debug)]
pub struct TumblingSketches {
    bank: SketchBank,
    /// `last[k * copies + c]` = last completed epoch's `X_k` in copy `c`
    /// (stream-major, same layout as the bank's counters).
    last: Vec<i64>,
    /// Whether stream `k` has completed at least one epoch.
    has_last: Vec<bool>,
    /// The `last` snapshot as it stood *before* the most recent roll — the
    /// estimation state that was in force while the previous epoch was
    /// current. Late tuples whose timestamp predates the current epoch are
    /// scored against this bank ([`TumblingSketches::productivity_at`]), so
    /// frozen epochs stay addressable for one extra epoch (covering any
    /// disorder bound `K <= n`).
    prev: Vec<i64>,
    /// Whether stream `k` has a meaningful `prev` snapshot (two completed
    /// epochs).
    has_prev: Vec<bool>,
    epoch: EpochSpec,
    /// Time-mode: when the next global roll fires.
    next_roll: VTime,
    /// Tuple-mode: arrivals seen per stream since its last roll.
    arrivals: Vec<u64>,
    /// Scratch buffer of per-copy statistics (avoids per-query allocation).
    scratch: Vec<f64>,
    /// Scratch buffer of group means for median-of-means.
    groups: Vec<f64>,
    /// Scratch buffer of packed sign words.
    words: Vec<u64>,
    /// `cross[i * copies + c]` = frozen `Π_{k≠i} X_k^{last}` in copy `c`.
    cross: Vec<f64>,
    /// Whether `cross` row `i` reflects the current `last` snapshot.
    cross_valid: Vec<bool>,
    /// Epoch-scoped memo of exact productivity estimates (DESIGN.md §16).
    /// Only fully-frozen lookups are memoized, so a hit returns the same
    /// bits a recomputation would.
    score_cache: ScoreCache,
    /// Monotone roll counter: bumped by every roll of any stream, in
    /// either epoch discipline. Score-cache keys carry it so no entry can
    /// outlive the snapshot it was computed from.
    generation: u64,
}

impl TumblingSketches {
    /// Builds zeroed tumbling sketches for `query`.
    pub fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        let bank = SketchBank::new(query, config);
        let n_streams = query.n_streams();
        let copies = config.copies();
        let next_roll = match epoch {
            EpochSpec::Time(n) => {
                assert!(!n.is_zero(), "epoch length must be positive");
                VTime::ZERO + n
            }
            EpochSpec::PerStreamTuples(n) => {
                assert!(n > 0, "epoch tuple count must be positive");
                VTime::ZERO
            }
        };
        TumblingSketches {
            bank,
            last: vec![0; n_streams * copies],
            has_last: vec![false; n_streams],
            prev: vec![0; n_streams * copies],
            has_prev: vec![false; n_streams],
            epoch,
            next_roll,
            arrivals: vec![0; n_streams],
            scratch: vec![0.0; copies],
            groups: Vec::with_capacity(config.s2),
            words: Vec::new(),
            cross: vec![0.0; n_streams * copies],
            cross_valid: vec![false; n_streams],
            score_cache: ScoreCache::default(),
            generation: 0,
        }
    }

    /// The epoch discipline in force.
    pub fn epoch(&self) -> EpochSpec {
        self.epoch
    }

    /// Advances virtual time, folds the arriving tuple into the current
    /// sketches, and performs any due epoch rollover.
    ///
    /// Returns `true` if a rollover happened — the engine uses this as the
    /// cue to rebuild its priority queues (Algorithm 1, step 1.2: "reset all
    /// the priority queues").
    pub fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        let rolled = match self.epoch {
            EpochSpec::Time(n) => {
                let mut rolled = false;
                while now >= self.next_roll {
                    self.roll_all();
                    self.next_roll += n;
                    rolled = true;
                }
                rolled
            }
            EpochSpec::PerStreamTuples(_) => false,
        };
        self.bank.update(stream, values);
        let rolled_tuple = match self.epoch {
            EpochSpec::PerStreamTuples(n) => {
                let k = stream.index();
                self.arrivals[k] += 1;
                if self.arrivals[k] >= n {
                    self.arrivals[k] = 0;
                    self.roll_stream(stream);
                    true
                } else {
                    false
                }
            }
            EpochSpec::Time(_) => false,
        };
        rolled || rolled_tuple
    }

    /// Rolls every stream at once (time-based epochs).
    fn roll_all(&mut self) {
        self.prev.copy_from_slice(&self.last);
        self.has_prev.copy_from_slice(&self.has_last);
        // Same stream-major layout: the settled counters are the snapshot.
        self.last.copy_from_slice(self.bank.counters());
        self.bank.reset();
        self.has_last.fill(true);
        self.cross_valid.fill(false);
        self.generation += 1;
        self.score_cache.clear();
    }

    /// Rolls a single stream (tuple-based epochs).
    fn roll_stream(&mut self, stream: StreamId) {
        let copies = self.bank.config().copies();
        let k = stream.index();
        let row = k * copies..(k + 1) * copies;
        self.prev[row.clone()].copy_from_slice(&self.last[row.clone()]);
        self.has_prev[k] = self.has_last[k];
        self.bank.take_stream_snapshot(stream, &mut self.last[row]);
        self.has_last[k] = true;
        // Every cross-product row except `k`'s own consults X_k^{last}.
        for (i, valid) in self.cross_valid.iter_mut().enumerate() {
            if i != k {
                *valid = false;
            }
        }
        self.generation += 1;
        self.score_cache.clear();
    }

    /// Rebuilds the frozen cross-product row excluding stream `i` from the
    /// current `last` snapshot (ascending stream order, so the float fold
    /// matches the legacy per-copy loop bit for bit).
    fn ensure_cross_row(&mut self, i: usize) {
        if self.cross_valid[i] {
            return;
        }
        let copies = self.bank.config().copies();
        let row = &mut self.cross[i * copies..(i + 1) * copies];
        kernel::column_products(&self.last, copies, i, row);
        self.cross_valid[i] = true;
    }

    /// Estimated productivity of a tuple of `stream`:
    /// `prod(t) = Π_j ξ_{j,t[j]} · Π_{k≠i} X_k^{last}`, median-of-means
    /// combined, with per-stream fallback to the current sketch while a
    /// stream has not yet completed its first epoch.
    ///
    /// Steady state (every other stream past its first epoch) runs the
    /// frozen-cross-product fast path: a memoized packed-sign lookup and a
    /// signed copy of a precomputed `f64` row — or, on repeated key values
    /// within one epoch, a score-cache hit that skips the kernel entirely
    /// and returns the exact bits of the first computation.
    pub fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let n = self.has_last.len();
        // Only the fully-frozen path is memoizable: the mixed paths fold
        // live bank rows that change on every arrival.
        let frozen = (0..n).all(|k| k == i || self.has_last[k]);
        let key = if frozen {
            self.cache_key(stream, values, self.generation)
        } else {
            None
        };
        if let Some(key) = &key {
            if let Some(v) = self.score_cache.get(key) {
                return v;
            }
        }
        let v = self.productivity_uncached(stream, values, frozen);
        if let Some(key) = key {
            self.score_cache.insert(key, v);
        }
        v
    }

    /// The kernel path behind [`TumblingSketches::productivity`]:
    /// `frozen` is the precomputed "every other stream past its first
    /// epoch" flag (passed in so the memoized wrapper derives it once).
    fn productivity_uncached(&mut self, stream: StreamId, values: &[Value], frozen: bool) -> f64 {
        let i = stream.index();
        let n = self.has_last.len();
        let copies = self.bank.config().copies();
        self.bank.packed_signs_into(stream, values, &mut self.words);
        self.scratch.resize(copies, 0.0);
        if frozen {
            self.ensure_cross_row(i);
            let row = &self.cross[i * copies..(i + 1) * copies];
            kernel::signed_copy(&self.words, row, &mut self.scratch);
        } else if n == 3 {
            // Two-partner mixed path (the paper's 3-stream shape): one
            // fused, branch-free pass over both partner rows, bit-identical
            // to the general fold below.
            let (a, b) = match i {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let Self {
                bank,
                last,
                has_last,
                scratch,
                words,
                ..
            } = self;
            let live = bank.counters();
            let row = |k: usize| -> &[i64] {
                let src = if has_last[k] { &last[..] } else { live };
                &src[k * copies..(k + 1) * copies]
            };
            kernel::product2_signed(row(a), row(b), words, scratch);
        } else {
            // Mixed path (some stream still in its first epoch): multiply
            // per-stream rows in ascending order, choosing last-epoch or
            // live counters per stream exactly as the paper prescribes.
            self.scratch.fill(1.0);
            let live = self.bank.counters();
            for k in 0..n {
                if k == i {
                    continue;
                }
                let src = if self.has_last[k] {
                    &self.last[..]
                } else {
                    live
                };
                kernel::multiply_row(&mut self.scratch, &src[k * copies..(k + 1) * copies]);
            }
            kernel::apply_packed_signs(&self.words, &mut self.scratch);
        }
        let cfg = self.bank.config();
        median_of_means_into(cfg.s1, cfg.s2, &self.scratch, &mut self.groups)
    }

    /// When the current (still-accumulating) epoch began, for time-based
    /// epochs (`None` in tuple mode, where epochs are arrival-counted and
    /// have no timestamp extent).
    pub fn current_epoch_start(&self) -> Option<VTime> {
        match self.epoch {
            EpochSpec::Time(n) => Some(self.next_roll - n),
            EpochSpec::PerStreamTuples(_) => None,
        }
    }

    /// Epoch-targeted productivity: the estimate in force for the epoch
    /// `ts` *belongs to*, not necessarily the current one (DESIGN.md §13).
    ///
    /// A tuple whose timestamp falls inside the current epoch is scored
    /// exactly like [`TumblingSketches::productivity`] — bit-identically,
    /// so in-order runs are unaffected. A *late* tuple (time-based epochs,
    /// `ts` before the current epoch's start) is scored against the
    /// snapshot that was serving queries while its epoch was current: the
    /// `prev` bank kept one roll longer for exactly this purpose. Frozen
    /// epochs therefore stay addressable for one extra epoch length, which
    /// covers any disorder bound `K <= n`.
    ///
    /// A frozen epoch that saw no arrivals has all-zero counters and
    /// estimates 0 — callers that divide by such an estimate must guard
    /// the denominator (the built-in policies floor it at `f64::EPSILON`;
    /// see `MSketchRs::refresh_priority`).
    ///
    /// Tuple-mode epochs are arrival-counted: a timestamp does not place a
    /// tuple in an epoch, so the lookup falls back to the standard
    /// last-epoch estimate.
    pub fn productivity_at(&mut self, stream: StreamId, values: &[Value], ts: VTime) -> f64 {
        let late = match self.current_epoch_start() {
            Some(start) => ts < start,
            None => false,
        };
        if !late || !self.has_prev.iter().any(|&h| h) {
            return self.productivity(stream, values);
        }
        // Cold path (late tuples only): fold the per-stream rows of the
        // previous-epoch snapshot, falling back per stream to the newest
        // state we have for streams that had not completed two epochs.
        //
        // Cacheable only when every partner row is frozen (prev or last
        // snapshot — never the live bank), keyed at `generation − 1`: the
        // prev bank this path reads is the snapshot that was `last` one
        // roll ago, so late lookups can never alias same-epoch lookups of
        // the same key values.
        let i = stream.index();
        let n = self.has_last.len();
        let frozen = (0..n).all(|k| k == i || self.has_prev[k] || self.has_last[k]);
        let key = if frozen {
            self.cache_key(stream, values, self.generation.wrapping_sub(1))
        } else {
            None
        };
        if let Some(key) = &key {
            if let Some(v) = self.score_cache.get(key) {
                return v;
            }
        }
        let copies = self.bank.config().copies();
        self.bank.packed_signs_into(stream, values, &mut self.words);
        self.scratch.resize(copies, 0.0);
        self.scratch.fill(1.0);
        let live = self.bank.counters();
        for k in 0..n {
            if k == i {
                continue;
            }
            let src = if self.has_prev[k] {
                &self.prev[..]
            } else if self.has_last[k] {
                &self.last[..]
            } else {
                live
            };
            kernel::multiply_row(&mut self.scratch, &src[k * copies..(k + 1) * copies]);
        }
        kernel::apply_packed_signs(&self.words, &mut self.scratch);
        let cfg = self.bank.config();
        let v = median_of_means_into(cfg.s1, cfg.s2, &self.scratch, &mut self.groups);
        if let Some(key) = key {
            self.score_cache.insert(key, v);
        }
        v
    }

    /// The score-cache key of a frozen lookup: the raw values of the
    /// stream's incident join attributes (the only tuple inputs the sign
    /// product — and hence the estimate — depends on), in incidence order.
    /// `None` when memoization is off or the stream has more incident
    /// attributes than the inline key holds.
    fn cache_key(&self, stream: StreamId, values: &[Value], generation: u64) -> Option<ScoreKey> {
        if !self.score_cache.enabled() {
            return None;
        }
        let incidence = self.bank.incidence(stream);
        if incidence.len() > MAX_CACHED_ATTRS {
            return None;
        }
        let mut vals = [0u64; MAX_CACHED_ATTRS];
        for (slot, &(_, attr)) in vals.iter_mut().zip(incidence) {
            *slot = values[attr].raw();
        }
        Some(ScoreKey {
            generation,
            stream: stream.index() as u32,
            values: vals,
            n_values: incidence.len() as u8,
        })
    }

    /// Productivity computed against the *current* epoch's sketches
    /// (the expensive variant; exposed for the recompute-policy ablation).
    /// Never memoized — the live bank changes on every arrival. Settles
    /// the bank's pending folds first, hence `&mut self`.
    pub fn current_productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        self.bank.productivity(stream, values)
    }

    /// Estimated size of the full multi-way join over the current epoch
    /// (settles the bank's pending folds first).
    pub fn estimate_join_count(&mut self) -> f64 {
        self.bank.estimate_join_count()
    }

    /// The underlying current-epoch bank. Its counter readers settle
    /// pending folds, so this hands out `&mut`; updating through it
    /// bypasses the epoch discipline.
    pub fn bank(&mut self) -> &mut SketchBank {
        &mut self.bank
    }

    /// Whether `stream` has completed at least one epoch.
    pub fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.has_last[stream.index()]
    }

    /// Hit/miss/occupancy counters of the bank's packed-sign memo.
    pub fn sign_cache_stats(&self) -> SignCacheStats {
        self.bank.sign_cache_stats()
    }

    /// Hit/miss/occupancy counters of the epoch-scoped productivity memo.
    pub fn score_cache_stats(&self) -> ScoreCacheStats {
        self.score_cache.stats()
    }

    /// Whether productivity memoization is active.
    pub fn score_cache_enabled(&self) -> bool {
        self.score_cache.enabled()
    }

    /// Turns productivity memoization on (the default) or off for this
    /// instance (the audit harness A/B-compares cached and uncached runs
    /// inside one process). Disabling drops every resident estimate.
    pub fn set_score_cache(&mut self, enabled: bool) {
        self.score_cache.set_enabled(enabled);
    }

    /// Rebinds the memo's capacity bound (tests exercise the wholesale
    /// drop with tiny bounds); drops resident entries.
    pub fn set_score_cache_bound(&mut self, max_entries: usize) {
        let enabled = self.score_cache.enabled();
        self.score_cache = ScoreCache::with_capacity_bound(max_entries, enabled);
    }

    /// Structural audit of the tumbling state:
    ///
    /// - buffer shapes agree with the stream count and copy count;
    /// - epoch bookkeeping is coherent (time mode: the pending roll instant
    ///   is a positive whole number of epochs; tuple mode: no per-stream
    ///   arrival counter has silently passed its roll threshold);
    /// - every cross-product row flagged `cross_valid` is bit-identical to
    ///   a fresh recomputation from the `last` snapshot — the frozen fast
    ///   path must never serve a stale product.
    ///
    /// O(streams² · copies); compiled only for tests and the `audit`
    /// feature, where the differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        let n = self.has_last.len();
        let copies = self.bank.config().copies();
        assert_eq!(self.last.len(), n * copies, "last snapshot shape");
        assert_eq!(self.prev.len(), n * copies, "prev snapshot shape");
        assert_eq!(self.has_prev.len(), n, "has_prev shape");
        for (k, &hp) in self.has_prev.iter().enumerate() {
            assert!(
                !hp || self.has_last[k],
                "stream {k} has a prev snapshot but no last snapshot"
            );
        }
        assert_eq!(self.cross.len(), n * copies, "cross-product shape");
        assert_eq!(self.cross_valid.len(), n, "cross_valid shape");
        assert_eq!(self.arrivals.len(), n, "arrival counter shape");
        assert!(
            self.bank.pending_keys() <= crate::PENDING_FOLD_BOUND,
            "pending folds past their bound"
        );
        match self.epoch {
            EpochSpec::Time(p) => {
                let micros = self.next_roll.as_micros();
                assert!(micros >= p.as_micros(), "next roll before first epoch end");
                assert_eq!(micros % p.as_micros(), 0, "next roll off the epoch grid");
            }
            EpochSpec::PerStreamTuples(c) => {
                for (k, &a) in self.arrivals.iter().enumerate() {
                    assert!(a < c, "stream {k} missed its epoch roll: {a} >= {c}");
                }
            }
        }
        self.score_cache.check_invariants(self.generation);
        let mut fresh = vec![0.0f64; copies];
        for i in 0..n {
            if !self.cross_valid[i] {
                continue;
            }
            kernel::column_products(&self.last, copies, i, &mut fresh);
            let row = &self.cross[i * copies..(i + 1) * copies];
            for (c, (&got, &want)) in row.iter().zip(&fresh).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "stale frozen cross-product: row {i}, copy {c}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, StreamSchema, WindowSpec};

    fn chain_query() -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(500),
        )
        .unwrap()
    }

    fn v(a: u64, b: u64) -> Vec<Value> {
        vec![Value(a), Value(b)]
    }

    fn cfg(s1: usize, seed: u64) -> BankConfig {
        BankConfig { s1, s2: 1, seed }
    }

    #[test]
    fn first_epoch_falls_back_to_current() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 1), EpochSpec::Time(VDur::from_secs(100)));
        for i in 0..30 {
            ts.observe(StreamId(1), &v(5, i % 2), VTime::from_secs(1));
            ts.observe(StreamId(2), &v(i % 2, 0), VTime::from_secs(1));
        }
        assert!(!ts.has_last_epoch(StreamId(1)));
        // 30 matching R2 tuples × 15 matching R3 tuples each = 450.
        let p = ts.productivity(StreamId(0), &v(5, 0));
        assert!((p - 450.0).abs() / 450.0 < 0.5, "p={p}");
    }

    #[test]
    fn time_roll_moves_current_to_last() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 2), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        // Cross the epoch boundary: this arrival triggers the roll.
        let rolled = ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        assert!(rolled);
        assert!(ts.has_last_epoch(StreamId(0)));
        // Productivity of an R1 tuple joining value 7 against the LAST
        // epoch: 20 × 10 = 200 (the new (0,0) tuple is in the current epoch
        // and must not contribute).
        let p = ts.productivity(StreamId(0), &v(7, 0));
        assert!((p - 200.0).abs() / 200.0 < 0.5, "p={p}");
    }

    #[test]
    fn multiple_epochs_can_roll_in_one_gap() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(4, 3), EpochSpec::Time(VDur::from_secs(5)));
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        // Jump 3 epochs ahead; the intermediate empty epochs must clear the
        // last snapshot (the last completed epoch saw no tuples).
        let rolled = ts.observe(StreamId(0), &v(1, 1), VTime::from_secs(17));
        assert!(rolled);
        let p = ts.productivity(StreamId(1), &v(1, 1));
        assert_eq!(p, 0.0, "last epoch was empty");
    }

    #[test]
    fn per_stream_tuple_epochs_roll_independently() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(200, 4), EpochSpec::PerStreamTuples(10));
        // Stream 1 gets 10 arrivals (rolls); stream 2 only 5 (does not).
        let mut rolled_any = false;
        for i in 0..10 {
            rolled_any |= ts.observe(StreamId(1), &v(4, i % 2), VTime::ZERO);
        }
        assert!(rolled_any);
        assert!(ts.has_last_epoch(StreamId(1)));
        for _ in 0..5 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        assert!(!ts.has_last_epoch(StreamId(2)));
        // R1-tuple with A1=4: last epoch of stream 1 has 10 matches; stream
        // 2 falls back to its current sketch with 5 matches on value 0.
        let p = ts.productivity(StreamId(0), &v(4, 0));
        assert!((p - 50.0).abs() / 50.0 < 0.6, "p={p}");
    }

    #[test]
    fn current_productivity_sees_live_epoch() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 5), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(2, 2), VTime::from_secs(1));
        }
        for _ in 0..20 {
            ts.observe(StreamId(2), &v(2, 2), VTime::from_secs(1));
        }
        // Roll, then add fresh tuples to the new epoch.
        ts.observe(StreamId(1), &v(9, 9), VTime::from_secs(11));
        let last_based = ts.productivity(StreamId(0), &v(9, 0));
        let current_based = ts.current_productivity(StreamId(0), &v(9, 0));
        // Value 9 only exists in the current epoch: last-based sees nothing.
        assert!(last_based.abs() < 40.0, "last_based={last_based}");
        // current-based sees 1 R2-tuple × 0 R3 matches = 0 too, but through
        // a different path; both must be finite and small.
        assert!(current_based.abs() < 40.0);
    }

    #[test]
    fn frozen_cross_products_match_direct_multiplication() {
        // Same query answered before and after the cross rows are (lazily)
        // built must agree bit for bit, across both time- and tuple-mode
        // rolls interleaved with cache-warming repeats.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(64, 8), EpochSpec::Time(VDur::from_secs(10)));
        for i in 0..25u64 {
            let s = StreamId((i % 3) as usize);
            ts.observe(s, &v(i % 5, i % 3), VTime::from_secs(i % 9));
        }
        // Force a roll so the frozen path engages.
        ts.observe(StreamId(0), &v(1, 1), VTime::from_secs(30));
        assert!(ts.has_last_epoch(StreamId(1)));
        let first = ts.productivity(StreamId(0), &v(2, 0));
        let again = ts.productivity(StreamId(0), &v(2, 0));
        assert_eq!(first.to_bits(), again.to_bits());
        // A second roll invalidates and rebuilds the rows.
        ts.observe(StreamId(1), &v(2, 2), VTime::from_secs(45));
        let after_roll = ts.productivity(StreamId(0), &v(2, 0));
        assert_eq!(
            after_roll.to_bits(),
            ts.productivity(StreamId(0), &v(2, 0)).to_bits()
        );
    }

    #[test]
    fn productivity_at_matches_productivity_for_current_epoch_timestamps() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(64, 8), EpochSpec::Time(VDur::from_secs(10)));
        for i in 0..25u64 {
            let s = StreamId((i % 3) as usize);
            ts.observe(s, &v(i % 5, i % 3), VTime::from_secs(i % 9));
        }
        ts.observe(StreamId(0), &v(1, 1), VTime::from_secs(30));
        assert_eq!(ts.current_epoch_start(), Some(VTime::from_secs(30)));
        let normal = ts.productivity(StreamId(0), &v(2, 0));
        let at = ts.productivity_at(StreamId(0), &v(2, 0), VTime::from_secs(31));
        assert_eq!(normal.to_bits(), at.to_bits(), "in-epoch lookup is the standard path");
        // The epoch-start instant itself belongs to the current epoch.
        let boundary = ts.productivity_at(StreamId(0), &v(2, 0), VTime::from_secs(30));
        assert_eq!(normal.to_bits(), boundary.to_bits());
    }

    #[test]
    fn productivity_at_consults_the_previous_epoch_for_late_timestamps() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 2), EpochSpec::Time(VDur::from_secs(10)));
        // Epoch [0, 10): 20 R2 partners for value 7, 10 R3 partners.
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        // Epoch [10, 20): value 7 disappears entirely.
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        // Epoch [20, 30) current: `last` = the empty-of-7s epoch, `prev` =
        // the partner-rich epoch.
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(21));
        let current_epoch = ts.productivity(StreamId(0), &v(7, 0));
        assert!(current_epoch.abs() < 40.0, "last epoch saw no 7s: {current_epoch}");
        // A late tuple stamped into the previous epoch sees its own era:
        // 20 × 10 = 200.
        let late = ts.productivity_at(StreamId(0), &v(7, 0), VTime::from_secs(15));
        assert!((late - 200.0).abs() / 200.0 < 0.5, "late={late}");
    }

    #[test]
    fn productivity_at_with_empty_previous_epoch_estimates_zero() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(8, 3), EpochSpec::Time(VDur::from_secs(10)));
        ts.observe(StreamId(1), &v(1, 1), VTime::from_secs(1));
        // Jump several epochs: both `last` and `prev` end up all-zero.
        ts.observe(StreamId(1), &v(1, 1), VTime::from_secs(45));
        let late = ts.productivity_at(StreamId(0), &v(1, 0), VTime::from_secs(35));
        assert_eq!(late, 0.0, "frozen epoch with zero counters estimates 0, not NaN");
        ts.check_invariants();
    }

    #[test]
    fn productivity_at_in_tuple_mode_falls_back_to_last_epoch() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(64, 4), EpochSpec::PerStreamTuples(10));
        for i in 0..10 {
            ts.observe(StreamId(1), &v(4, i % 2), VTime::ZERO);
        }
        assert_eq!(ts.current_epoch_start(), None);
        let normal = ts.productivity(StreamId(0), &v(4, 0));
        let at = ts.productivity_at(StreamId(0), &v(4, 0), VTime::ZERO);
        assert_eq!(normal.to_bits(), at.to_bits());
    }

    #[test]
    fn sign_cache_stats_flow_through() {
        // Sign lookups happen once per distinct pending key per settle,
        // not once per arrival: two arrivals of one key are one lookup.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(32, 6), EpochSpec::Time(VDur::from_secs(100)));
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        assert_eq!(ts.sign_cache_stats().misses, 0, "nothing settled yet");
        ts.bank().settle();
        let stats = ts.sign_cache_stats();
        assert!(stats.misses >= 1);
        assert_eq!((stats.hits, stats.misses), (0, 1), "one key, one lookup");
        // The same key in a later settle is served from the memo.
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        ts.bank().settle();
        let stats = ts.sign_cache_stats();
        assert!(stats.hits >= 1, "repeated value must hit the memo");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Builds tumbling sketches past their first roll (frozen fast path
    /// live on every stream) with a hot value on R2/R3.
    fn frozen_sketches(s1: usize, seed: u64) -> TumblingSketches {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(s1, seed), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        assert!((0..3).all(|k| ts.has_last_epoch(StreamId(k))));
        ts
    }

    #[test]
    fn score_cache_hits_are_bit_identical_to_uncached() {
        let mut cached = frozen_sketches(64, 2);
        let mut plain = frozen_sketches(64, 2);
        plain.set_score_cache(false);
        assert!(cached.score_cache_enabled());
        for a in 0..40u64 {
            let val = v(a % 5, a % 3);
            let s = StreamId((a % 3) as usize);
            let want = plain.productivity(s, &val);
            let got = cached.productivity(s, &val);
            assert_eq!(got.to_bits(), want.to_bits(), "stream {s:?} value {a}");
        }
        let stats = cached.score_cache_stats();
        assert!(stats.hits >= 1, "repeated keys must hit: {stats:?}");
        assert!(stats.misses >= 1);
        let off = plain.score_cache_stats();
        assert_eq!((off.hits, off.entries), (0, 0), "disabled memo is inert");
    }

    #[test]
    fn score_cache_flushes_at_rollover() {
        let mut ts = frozen_sketches(32, 5);
        ts.set_score_cache(true);
        let before = ts.productivity(StreamId(0), &v(7, 0));
        let _ = ts.productivity(StreamId(0), &v(7, 0));
        assert!(ts.score_cache_stats().entries >= 1);
        // Roll: the snapshot the entries were computed from is gone.
        assert!(ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(25)));
        assert_eq!(ts.score_cache_stats().entries, 0, "rollover flushes wholesale");
        ts.check_invariants();
        let after = ts.productivity(StreamId(0), &v(7, 0));
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "post-roll estimate reflects the new snapshot, not a stale entry"
        );
    }

    #[test]
    fn score_cache_bound_evicts_wholesale_and_stays_exact() {
        let mut ts = frozen_sketches(32, 6);
        ts.set_score_cache(true);
        ts.set_score_cache_bound(4);
        let mut firsts = Vec::new();
        for a in 0..12u64 {
            firsts.push(ts.productivity(StreamId(0), &v(a, 0)));
        }
        assert!(ts.score_cache_stats().entries <= 4, "bound respected");
        ts.check_invariants();
        // Re-query every value: some hit, some were dropped by the bound —
        // either way the bits match the first computation.
        for (a, want) in firsts.iter().enumerate() {
            let again = ts.productivity(StreamId(0), &v(a as u64, 0));
            assert_eq!(again.to_bits(), want.to_bits(), "value {a}");
        }
    }

    #[test]
    fn score_cache_keys_late_lookups_at_the_prev_generation() {
        // Same shape as productivity_at_consults_the_previous_epoch...:
        // `last` is empty of 7s, `prev` is partner-rich. The late and
        // current lookups of the SAME key values must not alias.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 2), EpochSpec::Time(VDur::from_secs(10)));
        ts.set_score_cache(true);
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(21));
        for _ in 0..2 {
            // Twice: second round exercises the memoized path of each.
            let current = ts.productivity_at(StreamId(0), &v(7, 0), VTime::from_secs(22));
            let late = ts.productivity_at(StreamId(0), &v(7, 0), VTime::from_secs(15));
            assert!(current.abs() < 40.0, "current epoch saw no 7s: {current}");
            assert!((late - 200.0).abs() / 200.0 < 0.5, "late={late}");
            ts.check_invariants();
        }
        let stats = ts.score_cache_stats();
        assert!(stats.hits >= 2, "second round must hit both entries: {stats:?}");
        // And the memoized late answer is bit-identical to an uncached run.
        let mut plain = ts.clone();
        plain.set_score_cache(false);
        assert_eq!(
            ts.productivity_at(StreamId(0), &v(7, 0), VTime::from_secs(15)).to_bits(),
            plain
                .productivity_at(StreamId(0), &v(7, 0), VTime::from_secs(15))
                .to_bits()
        );
    }

    #[test]
    fn score_cache_skips_unfrozen_streams() {
        // Stream 2 never completes an epoch: productivity folds its live
        // bank row, which changes with every arrival — nothing may be
        // memoized, and repeated queries must track the live row.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(200, 4), EpochSpec::PerStreamTuples(10));
        ts.set_score_cache(true);
        for i in 0..10 {
            ts.observe(StreamId(1), &v(4, i % 2), VTime::ZERO);
        }
        for _ in 0..5 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        assert!(!ts.has_last_epoch(StreamId(2)));
        let before = ts.productivity(StreamId(0), &v(4, 0));
        assert_eq!(ts.score_cache_stats().entries, 0, "mixed path never memoizes");
        for _ in 0..4 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        let after = ts.productivity(StreamId(0), &v(4, 0));
        assert!(
            (after - before).abs() > 1e-9,
            "estimate must follow the live row: {before} vs {after}"
        );
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_time_epoch_rejected() {
        let q = chain_query();
        let _ = TumblingSketches::new(&q, cfg(1, 0), EpochSpec::Time(VDur::ZERO));
    }

    #[test]
    #[should_panic(expected = "epoch tuple count must be positive")]
    fn zero_tuple_epoch_rejected() {
        let q = chain_query();
        let _ = TumblingSketches::new(&q, cfg(1, 0), EpochSpec::PerStreamTuples(0));
    }
}
