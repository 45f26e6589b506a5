//! Banks of `s1 × s2` independent sketch copies with median-of-means
//! combination, for multi-way COUNT and per-tuple productivity estimation.
//!
//! Since the flat-kernel rework the bank is laid out structure-of-arrays:
//! hash coefficients live copy-major per predicate in [`SignFamilies`],
//! and the per-copy counters of all streams share one contiguous `Vec<i64>`
//! indexed `[stream × copies + copy]`. Updates and estimates stream
//! linearly through those arrays (see [`crate::kernel`]) instead of
//! chasing per-copy allocations, and per-tuple sign vectors are evaluated
//! once, bit-packed, and memoized in a [`SignCache`]. All estimates are
//! bit-identical to the legacy AoS layout under the same seed (enforced by
//! `tests/equivalence.rs`).
//!
//! Updates are deferred: an arrival only counts its join key in a bounded
//! pending table, and each distinct key folds once, weighted by its count,
//! when something reads the counters ([`SketchBank::settle`], DESIGN.md
//! §17). Every reader settles first, which is why they take `&mut self`.

use crate::kernel;
use crate::pending::PendingFolds;
use crate::score_cache::MAX_CACHED_ATTRS;
use crate::signs::{
    combine_packed_sign_keys, combine_packed_signs, SignCache, SignCacheStats, SignFamilies,
};
use mstream_types::{JoinQuery, StreamId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Sizing of a [`SketchBank`].
///
/// The final estimate is the **median** over `s2` groups of the **mean**
/// over `s1` independent atomic-sketch copies (Dobra et al. §3.1). Larger
/// `s1` shrinks variance; larger `s2` boosts the confidence of the median.
/// The paper's experiments construct 1000 copies and return their average,
/// i.e. `s1 = 1000, s2 = 1` (see DESIGN.md, parameter reconstruction —
/// per-tuple productivities in skewed windows are unusable below several
/// hundred copies, which pins down the OCR-damaged count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankConfig {
    /// Copies averaged within a group.
    pub s1: usize,
    /// Groups whose means are median-combined.
    pub s2: usize,
    /// Seed for drawing the hash families (full-run determinism).
    pub seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            s1: 1000,
            s2: 1,
            seed: 0x5EED_5EED,
        }
    }
}

impl BankConfig {
    /// Total number of independent copies.
    pub fn copies(&self) -> usize {
        self.s1 * self.s2
    }
}

/// Reusable query-path buffers (packed sign words, per-copy statistics,
/// group means) plus the packed-sign memo. Kept behind a `RefCell` so
/// [`SketchBank::packed_signs_into`] and the sign-cache accessors stay
/// `&self` while never allocating per call.
#[derive(Clone, Debug, Default)]
struct BankScratch {
    cache: SignCache,
    words: Vec<u64>,
    per_copy: Vec<f64>,
    groups: Vec<f64>,
}

/// A bank of `s1 × s2` sketch copies over the streams of one [`JoinQuery`].
///
/// A `SketchBank` covers **one window's worth** of each stream (one
/// tumbling epoch). The epoch discipline — current vs. last bank, rollover
/// every `n` seconds — lives in [`crate::TumblingSketches`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchBank {
    config: BankConfig,
    n_streams: usize,
    /// `incidence[k]` = `(predicate index, attr index)` pairs of stream `k`.
    incidence: Vec<Vec<(usize, usize)>>,
    /// SoA hash coefficient banks, one polynomial per (predicate, copy).
    families: SignFamilies,
    /// `counters[k * copies + c]` = atomic sketch `X_k` in copy `c`, as of
    /// the last settle.
    counters: Vec<i64>,
    /// Arrivals counted but not yet folded into `counters`. Serialized with
    /// the bank, so a round trip loses no update.
    pending: PendingFolds,
    /// Tuples observed per stream this epoch (settled or pending).
    tuples: Vec<u64>,
    /// Query scratch + packed-sign memo (not part of the logical state).
    #[serde(skip)]
    scratch: RefCell<BankScratch>,
}

impl SketchBank {
    /// Builds a zeroed bank for `query`, drawing hash families from
    /// `config.seed`.
    pub fn new(query: &JoinQuery, config: BankConfig) -> Self {
        assert!(config.s1 >= 1 && config.s2 >= 1, "s1 and s2 must be >= 1");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_streams = query.n_streams();
        let n_preds = query.predicates().len();
        let copies = config.copies();
        let families = SignFamilies::draw(&mut rng, n_preds, copies);
        let incidence = (0..n_streams)
            .map(|s| query.incident(StreamId(s)).to_vec())
            .collect();
        SketchBank {
            config,
            n_streams,
            incidence,
            families,
            counters: vec![0; n_streams * copies],
            pending: PendingFolds::default(),
            tuples: vec![0; n_streams],
            scratch: RefCell::new(BankScratch::default()),
        }
    }

    /// The bank's sizing.
    pub fn config(&self) -> BankConfig {
        self.config
    }

    /// Number of streams covered.
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// The `(predicate index, attribute index)` pairs incident to `stream`
    /// — the attribute positions whose values determine the tuple's sign
    /// product (and therefore its productivity estimate, once the partner
    /// snapshots are frozen).
    pub fn incidence(&self, stream: StreamId) -> &[(usize, usize)] {
        &self.incidence[stream.index()]
    }

    /// Adds a tuple of `stream` (given its full value row) to every copy.
    ///
    /// Cost per arrival: one probe of the pending-fold table, which counts
    /// the tuple under its incident join-attribute values. The `s1·s2`
    /// counter adds happen once per distinct key per settle, not once per
    /// arrival ([`SketchBank::settle`]). A full table settles first; a
    /// stream with more incident attributes than a key holds folds at
    /// once, through the same weighted kernel with weight 1.
    pub fn update(&mut self, stream: StreamId, values: &[Value]) {
        let k = stream.index();
        debug_assert!(k < self.n_streams);
        self.tuples[k] += 1;
        let incidence = &self.incidence[k];
        if incidence.len() > MAX_CACHED_ATTRS {
            let copies = self.config.copies();
            fold_key(
                &self.families,
                self.scratch.get_mut(),
                incidence
                    .iter()
                    .map(|&(pred, attr)| (pred, values[attr].raw())),
                1,
                &mut self.counters[k * copies..(k + 1) * copies],
            );
            return;
        }
        let mut key = [0u64; MAX_CACHED_ATTRS];
        for (slot, &(_, attr)) in key.iter_mut().zip(incidence) {
            *slot = values[attr].raw();
        }
        if !self.pending.bump(k as u32, key) {
            self.settle();
            let counted = self.pending.bump(k as u32, key);
            debug_assert!(counted, "an empty pending table accepts any key");
        }
    }

    /// Folds every pending key into the counters: one packed-sign lookup
    /// and one weighted fold `X_k[c] += count · ξ_c(key)` per distinct
    /// key. Exact — integer addition is associative, so the counters equal
    /// an eager per-arrival fold bit for bit. Every reader of the counters
    /// calls this first; it is a no-op when nothing is pending.
    pub fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let copies = self.config.copies();
        let scratch = self.scratch.get_mut();
        for e in self.pending.entries() {
            let k = e.stream as usize;
            fold_key(
                &self.families,
                scratch,
                self.incidence[k]
                    .iter()
                    .zip(e.values)
                    .map(|(&(pred, _), value)| (pred, value)),
                e.count,
                &mut self.counters[k * copies..(k + 1) * copies],
            );
        }
        self.pending.clear();
    }

    /// Number of distinct join keys awaiting a settle (never more than
    /// [`crate::PENDING_FOLD_BOUND`]).
    pub fn pending_keys(&self) -> usize {
        self.pending.len()
    }

    /// The ξ-sign product of a tuple of `stream` in copy `c`
    /// (`Π_{j ∈ attrs(R_i)} ξ_{j, t[j]}`). Scalar path, exposed for
    /// diagnostics and the equivalence suite.
    #[inline]
    pub fn sign_in_copy(&self, c: usize, stream: StreamId, values: &[Value]) -> i64 {
        let mut sign = 1i64;
        for &(pred, attr) in &self.incidence[stream.index()] {
            sign *= self.families.sign_one(pred, c, values[attr].raw());
        }
        sign
    }

    /// Writes the packed per-copy sign products of a tuple of `stream`
    /// into `out` (bit `c` set ⇔ copy `c` has sign −1), served from the
    /// memoizing sign cache. This is the batched counterpart of
    /// [`SketchBank::sign_in_copy`].
    pub fn packed_signs_into(&self, stream: StreamId, values: &[Value], out: &mut Vec<u64>) {
        let mut scratch = self.scratch.borrow_mut();
        combine_packed_signs(
            &self.families,
            &mut scratch.cache,
            &self.incidence[stream.index()],
            values,
            out,
        );
    }

    /// The raw atomic-sketch counter `X_k` of `stream` in copy `c`
    /// (settles first).
    #[inline]
    pub fn sketch_value(&mut self, c: usize, stream: StreamId) -> i64 {
        let copies = self.config.copies();
        self.counters()[stream.index() * copies + c]
    }

    /// Every stream's settled counters, stream-major
    /// (`[k * copies + c]` = `X_k` in copy `c`) — the layout the tumbling
    /// layer's snapshots share.
    #[inline]
    pub(crate) fn counters(&mut self) -> &[i64] {
        self.settle();
        &self.counters
    }

    /// The contiguous per-copy counter row of `stream` (`X_k` for every
    /// copy), settled — the flat view the tumbling layer snapshots and
    /// multiplies.
    #[inline]
    pub fn counters_row(&mut self, stream: StreamId) -> &[i64] {
        let copies = self.config.copies();
        let k = stream.index();
        &self.counters()[k * copies..(k + 1) * copies]
    }

    /// Copies `stream`'s per-copy counters into `out` and resets them
    /// (per-stream epoch rollover for tuple-based windows, paper §4.1).
    /// Settles every stream first; the other streams' rows stay live.
    pub fn take_stream_snapshot(&mut self, stream: StreamId, out: &mut [i64]) {
        self.settle();
        let copies = self.config.copies();
        let k = stream.index();
        let row = &mut self.counters[k * copies..(k + 1) * copies];
        out.copy_from_slice(row);
        row.fill(0);
        self.tuples[k] = 0;
    }

    /// Resets every atomic sketch (epoch rollover), discarding pending folds
    /// with the epoch they belong to; hash families persist, and so does the
    /// packed-sign memo — sign vectors depend only on the families, so they
    /// stay valid across epochs.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.pending.clear();
        self.tuples.fill(0);
    }

    /// Number of tuples added to stream `k` this epoch (settled or not).
    pub fn tuples_seen(&self, stream: StreamId) -> u64 {
        self.tuples[stream.index()]
    }

    /// Hit/miss/occupancy counters of the packed-sign memo.
    pub fn sign_cache_stats(&self) -> SignCacheStats {
        self.scratch.borrow().cache.stats()
    }

    /// Drops every memoized sign vector (the vectors remain valid for the
    /// bank's lifetime; this only trades recomputation for memory).
    pub fn clear_sign_cache(&self) {
        self.scratch.borrow_mut().cache.clear();
    }

    /// Median-of-means estimate of the full multi-way COUNT
    /// `|W_1 ⋈ … ⋈ W_n|` from this bank's sketches (settles first).
    pub fn estimate_join_count(&mut self) -> f64 {
        self.settle();
        let copies = self.config.copies();
        let scratch = self.scratch.get_mut();
        let BankScratch {
            per_copy, groups, ..
        } = scratch;
        per_copy.resize(copies, 0.0);
        kernel::column_products(&self.counters, copies, usize::MAX, per_copy);
        median_of_means_into(self.config.s1, self.config.s2, per_copy, groups)
    }

    /// Median-of-means estimate of `prod(t)` for a tuple of `stream` —
    /// the COUNT of the join in which `W_stream = {t}`:
    /// `prod(t) = Π_{j ∈ attrs(R_i)} ξ_{j, t[j]} · Π_{k ≠ i} X_k`.
    ///
    /// The estimate is unbiased but can come out negative for unproductive
    /// tuples; callers that need a priority should clamp at zero (true
    /// productivity is a count, hence non-negative). Settles first.
    pub fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        self.settle();
        let i = stream.index();
        let copies = self.config.copies();
        let BankScratch {
            cache,
            words,
            per_copy,
            groups,
        } = self.scratch.get_mut();
        combine_packed_signs(&self.families, cache, &self.incidence[i], values, words);
        per_copy.resize(copies, 0.0);
        kernel::column_products(&self.counters, copies, i, per_copy);
        kernel::apply_packed_signs(words, per_copy);
        median_of_means_into(self.config.s1, self.config.s2, per_copy, groups)
    }
}

/// The bank's one fold path: `count` arrivals of a join key — its incident
/// `(predicate index, raw value)` pairs — folded into a stream's counter
/// `row` as `row[c] += count · ξ_c(key)`.
fn fold_key(
    families: &SignFamilies,
    scratch: &mut BankScratch,
    keys: impl IntoIterator<Item = (usize, u64)>,
    count: i64,
    row: &mut [i64],
) {
    combine_packed_sign_keys(families, &mut scratch.cache, keys, &mut scratch.words);
    kernel::fold_weighted_signs(&scratch.words, count, row);
}

/// Median over `s2` groups of means over `s1` per-copy statistics laid out
/// group-major, reusing `groups` as the scratch buffer for the group means
/// (no allocation once it has grown to `s2`). Shared by [`SketchBank`] and
/// the tumbling-epoch layer.
///
/// The mean stage runs through [`kernel::group_sums`], which keeps each
/// group's fold strictly serial in every kernel mode (f64 addition is not
/// associative) and lane-parallelizes only across independent groups, so
/// the estimate is bit-identical regardless of dispatch.
pub fn median_of_means_into(
    s1: usize,
    s2: usize,
    per_copy: &[f64],
    groups: &mut Vec<f64>,
) -> f64 {
    groups.clear();
    kernel::group_sums(per_copy, s1, s2, groups);
    for g in groups.iter_mut() {
        *g /= s1 as f64;
    }
    median_in_place(groups)
}

/// Median-of-means over per-copy statistics laid out as `s1 × s2` values
/// (group-major). Allocating convenience wrapper around
/// [`median_of_means_into`].
pub fn median_of_means_slice(s1: usize, s2: usize, per_copy: &[f64]) -> f64 {
    let mut groups = Vec::with_capacity(s2);
    median_of_means_into(s1, s2, per_copy, &mut groups)
}

/// The median of a non-empty slice (averaging the two central elements for
/// even lengths).
fn median_in_place(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("sketch statistics are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, StreamSchema, WindowSpec};

    /// The paper's 3-way chain query: R1.A1 = R2.A1 ∧ R2.A2 = R3.A1.
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

    /// Exact chain-join count on explicit relations, used as ground truth.
    fn exact_chain_count(r1: &[Vec<Value>], r2: &[Vec<Value>], r3: &[Vec<Value>]) -> u64 {
        let mut count = 0;
        for t1 in r1 {
            for t2 in r2 {
                if t1[0] == t2[0] {
                    for t3 in r3 {
                        if t2[1] == t3[0] {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    #[test]
    fn median_helper() {
        assert_eq!(median_in_place(&mut [3.0]), 3.0);
        assert_eq!(median_in_place(&mut [3.0, 1.0]), 2.0);
        assert_eq!(median_in_place(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_means_into_reuses_scratch() {
        let per_copy = [1.0, 3.0, 10.0, 20.0];
        let mut groups = Vec::new();
        assert_eq!(median_of_means_into(2, 2, &per_copy, &mut groups), 8.5);
        let cap = groups.capacity();
        assert_eq!(median_of_means_into(2, 2, &per_copy, &mut groups), 8.5);
        assert_eq!(groups.capacity(), cap, "no reallocation on reuse");
        assert_eq!(median_of_means_slice(4, 1, &per_copy), 8.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 8,
            s2: 1,
            seed: 99,
        };
        let mut b1 = SketchBank::new(&q, cfg);
        let mut b2 = SketchBank::new(&q, cfg);
        for (s, vals) in [(0, v(1, 2)), (1, v(1, 5)), (2, v(5, 0))] {
            b1.update(StreamId(s), &vals);
            b2.update(StreamId(s), &vals);
        }
        assert_eq!(b1.estimate_join_count(), b2.estimate_join_count());
        assert_eq!(
            b1.productivity(StreamId(1), &v(1, 5)),
            b2.productivity(StreamId(1), &v(1, 5))
        );
    }

    #[test]
    fn count_estimate_is_close_on_structured_data() {
        // A join with a strong signal: value 7 chains through all streams.
        let q = chain_query();
        let mut bank = SketchBank::new(
            &q,
            BankConfig {
                s1: 600,
                s2: 5,
                seed: 7,
            },
        );
        let r1: Vec<_> = (0..30).map(|i| v(7, i)).collect();
        let r2: Vec<_> = (0..20).map(|_| v(7, 3)).collect();
        let r3: Vec<_> = (0..10).map(|i| v(3, i)).collect();
        for t in &r1 {
            bank.update(StreamId(0), t);
        }
        for t in &r2 {
            bank.update(StreamId(1), t);
        }
        for t in &r3 {
            bank.update(StreamId(2), t);
        }
        let exact = exact_chain_count(&r1, &r2, &r3) as f64; // 30*20*10 = 6000
        assert_eq!(exact, 6000.0);
        let est = bank.estimate_join_count();
        let rel_err = (est - exact).abs() / exact;
        assert!(rel_err < 0.35, "est={est} exact={exact} rel_err={rel_err}");
    }

    #[test]
    fn count_estimate_unbiased_over_seeds() {
        // Average the estimator over many independent banks: the mean must
        // converge to the exact count (unbiasedness), much tighter than any
        // single estimate.
        let q = chain_query();
        let r1: Vec<_> = (0..8).flat_map(|a| (0..2).map(move |b| v(a % 4, b))).collect();
        let r2: Vec<_> = (0..10).map(|i| v(i % 4, i % 3)).collect();
        let r3: Vec<_> = (0..9).map(|i| v(i % 3, i)).collect();
        let exact = exact_chain_count(&r1, &r2, &r3) as f64;
        assert!(exact > 0.0);
        let seeds = 300;
        let mut sum = 0.0;
        for seed in 0..seeds {
            let mut bank = SketchBank::new(
                &q,
                BankConfig {
                    s1: 4,
                    s2: 1,
                    seed,
                },
            );
            for t in &r1 {
                bank.update(StreamId(0), t);
            }
            for t in &r2 {
                bank.update(StreamId(1), t);
            }
            for t in &r3 {
                bank.update(StreamId(2), t);
            }
            sum += bank.estimate_join_count();
        }
        let mean = sum / seeds as f64;
        let rel_err = (mean - exact).abs() / exact;
        assert!(rel_err < 0.25, "mean={mean} exact={exact}");
    }

    #[test]
    fn productivity_separates_hot_from_cold_tuples() {
        // R2/R3 heavily favour value 9; a fresh R1 tuple with A1=9 must get
        // a much larger productivity estimate than one with A1=0 (absent).
        let q = chain_query();
        let mut bank = SketchBank::new(
            &q,
            BankConfig {
                s1: 400,
                s2: 3,
                seed: 21,
            },
        );
        for i in 0..50 {
            bank.update(StreamId(1), &v(9, i % 4));
        }
        for i in 0..40 {
            bank.update(StreamId(2), &v(i % 4, 0));
        }
        let hot = bank.productivity(StreamId(0), &v(9, 0));
        let cold = bank.productivity(StreamId(0), &v(0, 0));
        // Exact productivities: hot joins 50 R2-tuples × 10 matching R3 each
        // = 500; cold joins nothing.
        assert!(
            hot > 10.0 * cold.max(1.0),
            "hot={hot} cold={cold} should be separated"
        );
        let exact_hot = 500.0;
        assert!((hot - exact_hot).abs() / exact_hot < 0.5, "hot={hot}");
    }

    #[test]
    fn productivity_for_middle_stream_uses_both_neighbours() {
        let q = chain_query();
        let mut bank = SketchBank::new(
            &q,
            BankConfig {
                s1: 400,
                s2: 3,
                seed: 5,
            },
        );
        for _ in 0..20 {
            bank.update(StreamId(0), &v(1, 0));
        }
        for _ in 0..30 {
            bank.update(StreamId(2), &v(2, 0));
        }
        // t = (1, 2) matches 20 left-side and 30 right-side tuples -> 600.
        let p = bank.productivity(StreamId(1), &v(1, 2));
        assert!((p - 600.0).abs() / 600.0 < 0.4, "p={p}");
        // t = (1, 5): no right-side partner -> ~0.
        let dead = bank.productivity(StreamId(1), &v(1, 5));
        assert!(dead.abs() < 150.0, "dead={dead}");
    }

    #[test]
    fn reset_zeroes_counts_but_keeps_families() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 4,
            s2: 1,
            seed: 3,
        };
        let mut bank = SketchBank::new(&q, cfg);
        bank.update(StreamId(0), &v(1, 1));
        assert_eq!(bank.tuples_seen(StreamId(0)), 1);
        bank.reset();
        assert_eq!(bank.tuples_seen(StreamId(0)), 0);
        assert_eq!(bank.estimate_join_count(), 0.0);
        // Families survive reset: updating again gives the same state as a
        // fresh bank updated once.
        bank.update(StreamId(0), &v(1, 1));
        let mut fresh = SketchBank::new(&q, cfg);
        fresh.update(StreamId(0), &v(1, 1));
        assert_eq!(bank.estimate_join_count(), fresh.estimate_join_count());
    }

    #[test]
    fn empty_bank_estimates_zero() {
        let q = chain_query();
        let mut bank = SketchBank::new(&q, BankConfig::default());
        assert_eq!(bank.estimate_join_count(), 0.0);
        assert_eq!(bank.productivity(StreamId(0), &v(1, 1)), 0.0);
    }

    #[test]
    fn snapshot_returns_row_and_zeroes_it() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 6,
            s2: 1,
            seed: 11,
        };
        let mut bank = SketchBank::new(&q, cfg);
        bank.update(StreamId(1), &v(4, 2));
        bank.update(StreamId(1), &v(4, 2));
        let expected: Vec<i64> = (0..6).map(|c| bank.sketch_value(c, StreamId(1))).collect();
        assert!(expected.iter().any(|&x| x != 0));
        let mut snap = vec![0i64; 6];
        bank.take_stream_snapshot(StreamId(1), &mut snap);
        assert_eq!(snap, expected);
        assert_eq!(bank.counters_row(StreamId(1)), vec![0i64; 6].as_slice());
        assert_eq!(bank.tuples_seen(StreamId(1)), 0);
    }

    #[test]
    fn packed_signs_match_scalar_signs_and_hit_cache() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 70,
            s2: 1,
            seed: 13,
        };
        let bank = SketchBank::new(&q, cfg);
        let vals = v(5, 9);
        let mut words = Vec::new();
        bank.packed_signs_into(StreamId(1), &vals, &mut words);
        for c in 0..70 {
            let packed = if (words[c / 64] >> (c % 64)) & 1 == 1 { -1 } else { 1 };
            assert_eq!(packed, bank.sign_in_copy(c, StreamId(1), &vals), "copy {c}");
        }
        let before = bank.sign_cache_stats();
        bank.packed_signs_into(StreamId(1), &vals, &mut words);
        let after = bank.sign_cache_stats();
        assert_eq!(after.misses, before.misses, "second lookup is all hits");
        assert!(after.hits > before.hits);
        bank.clear_sign_cache();
        assert_eq!(bank.sign_cache_stats().entries, 0);
    }
}
