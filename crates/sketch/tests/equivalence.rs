//! Bit-identity of the flat SoA sketch kernels against the original
//! array-of-structs layout.
//!
//! The seed implementation stored one `Copy_ { Vec<FourWiseHash>,
//! Vec<AtomicSketch> }` per sketch copy and walked them pointer-chasing;
//! the rework stores coefficients copy-major per predicate and counters in
//! one stream-major `Vec<i64>`, evaluates ±1 signs into bit-packed words,
//! and freezes last-epoch cross-products. **None of that may change a
//! single output bit under a fixed seed.** This suite rebuilds the legacy
//! layout verbatim (from the still-public [`FourWiseHash`] /
//! [`AtomicSketch`] primitives) and drives both implementations through
//! identical workloads — golden vectors plus property-based random
//! schedules covering epoch rollovers in both time- and tuple-window mode.
//!
//! The legacy reference folds every arrival eagerly; the bank under test
//! defers folds per distinct join key until a reader settles them
//! (DESIGN.md §17). The deferred-fold properties below interleave every
//! settling reader with random updates and require the same bits.

use mstream_sketch::{
    median_of_means_slice, AtomicSketch, BankConfig, EpochSpec, FourWiseHash, SketchBank,
    TumblingSketches, PENDING_FOLD_BOUND,
};
use mstream_types::{
    Catalog, JoinQuery, StreamId, StreamSchema, VDur, VTime, Value, WindowSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Legacy reference implementation (the seed's AoS layout, verbatim logic).
// ---------------------------------------------------------------------------

struct LegacyCopy {
    families: Vec<FourWiseHash>,
    sketches: Vec<AtomicSketch>,
}

struct LegacyBank {
    s1: usize,
    s2: usize,
    incidence: Vec<Vec<(usize, usize)>>,
    copies: Vec<LegacyCopy>,
}

impl LegacyBank {
    fn new(query: &JoinQuery, config: BankConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_streams = query.n_streams();
        let n_preds = query.predicates().len();
        let copies = (0..config.copies())
            .map(|_| LegacyCopy {
                families: (0..n_preds)
                    .map(|_| FourWiseHash::random(&mut rng))
                    .collect(),
                sketches: vec![AtomicSketch::new(); n_streams],
            })
            .collect();
        let incidence = (0..n_streams)
            .map(|s| query.incident(StreamId(s)).to_vec())
            .collect();
        LegacyBank {
            s1: config.s1,
            s2: config.s2,
            incidence,
            copies,
        }
    }

    fn update(&mut self, stream: StreamId, values: &[Value]) {
        let k = stream.index();
        let incidence = &self.incidence[k];
        for copy in &mut self.copies {
            let mut sign = 1i64;
            for &(pred, attr) in incidence {
                sign *= copy.families[pred].sign(values[attr].raw());
            }
            copy.sketches[k].add(sign);
        }
    }

    fn sign_in_copy(&self, c: usize, stream: StreamId, values: &[Value]) -> i64 {
        let mut sign = 1i64;
        for &(pred, attr) in &self.incidence[stream.index()] {
            sign *= self.copies[c].families[pred].sign(values[attr].raw());
        }
        sign
    }

    fn take_stream_snapshot(&mut self, stream: StreamId) -> Vec<i64> {
        let k = stream.index();
        self.copies
            .iter_mut()
            .map(|copy| {
                let v = copy.sketches[k].value();
                copy.sketches[k].reset();
                v
            })
            .collect()
    }

    fn reset(&mut self) {
        for copy in &mut self.copies {
            for s in &mut copy.sketches {
                s.reset();
            }
        }
    }

    fn estimate_join_count(&self) -> f64 {
        let per_copy: Vec<f64> = self
            .copies
            .iter()
            .map(|copy| copy.sketches.iter().map(|s| s.value() as f64).product())
            .collect();
        median_of_means_slice(self.s1, self.s2, &per_copy)
    }

    fn productivity(&self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let per_copy: Vec<f64> = self
            .copies
            .iter()
            .map(|copy| {
                let mut est = 1.0f64;
                for (k, s) in copy.sketches.iter().enumerate() {
                    if k != i {
                        est *= s.value() as f64;
                    }
                }
                let mut sign = 1i64;
                for &(pred, attr) in &self.incidence[i] {
                    sign *= copy.families[pred].sign(values[attr].raw());
                }
                est * sign as f64
            })
            .collect();
        median_of_means_slice(self.s1, self.s2, &per_copy)
    }
}

/// The seed's tumbling-epoch layer: `last[c][k]` copy-major snapshots and
/// the sign-first per-copy fold, plus the event-time `prev` snapshot that
/// late tuples are scored against.
struct LegacyTumbling {
    bank: LegacyBank,
    last: Vec<Vec<i64>>,
    has_last: Vec<bool>,
    prev: Vec<Vec<i64>>,
    has_prev: Vec<bool>,
    epoch: EpochSpec,
    next_roll: VTime,
    arrivals: Vec<u64>,
}

impl LegacyTumbling {
    fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        let bank = LegacyBank::new(query, config);
        let n_streams = query.n_streams();
        let next_roll = match epoch {
            EpochSpec::Time(n) => VTime::ZERO + n,
            EpochSpec::PerStreamTuples(_) => VTime::ZERO,
        };
        LegacyTumbling {
            last: vec![vec![0; n_streams]; config.copies()],
            has_last: vec![false; n_streams],
            prev: vec![vec![0; n_streams]; config.copies()],
            has_prev: vec![false; n_streams],
            epoch,
            next_roll,
            arrivals: vec![0; n_streams],
            bank,
        }
    }

    fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
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
                    let snapshot = self.bank.take_stream_snapshot(stream);
                    for (c, v) in snapshot.into_iter().enumerate() {
                        self.prev[c][k] = self.last[c][k];
                        self.last[c][k] = v;
                    }
                    self.has_prev[k] = self.has_last[k];
                    self.has_last[k] = true;
                    true
                } else {
                    false
                }
            }
            EpochSpec::Time(_) => false,
        };
        rolled || rolled_tuple
    }

    fn roll_all(&mut self) {
        self.prev.clone_from(&self.last);
        self.has_prev.clone_from(&self.has_last);
        for (c, copy) in self.bank.copies.iter().enumerate() {
            for (k, s) in copy.sketches.iter().enumerate() {
                self.last[c][k] = s.value();
            }
        }
        self.bank.reset();
        self.has_last.fill(true);
    }

    fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let copies = self.bank.copies.len();
        let mut per_copy = vec![0.0f64; copies];
        for (c, slot) in per_copy.iter_mut().enumerate() {
            let mut est = self.bank.sign_in_copy(c, stream, values) as f64;
            for k in 0..self.has_last.len() {
                if k == i {
                    continue;
                }
                let x = if self.has_last[k] {
                    self.last[c][k]
                } else {
                    self.bank.copies[c].sketches[k].value()
                };
                est *= x as f64;
            }
            *slot = est;
        }
        median_of_means_slice(self.bank.s1, self.bank.s2, &per_copy)
    }

    /// Late-tuple scoring: a time-mode timestamp before the current epoch
    /// reads the `prev` snapshot, falling back per stream to `last`, then
    /// to the live counters.
    fn productivity_at(&mut self, stream: StreamId, values: &[Value], ts: VTime) -> f64 {
        let late = match self.epoch {
            EpochSpec::Time(n) => ts < self.next_roll - n,
            EpochSpec::PerStreamTuples(_) => false,
        };
        if !late || !self.has_prev.iter().any(|&h| h) {
            return self.productivity(stream, values);
        }
        let i = stream.index();
        let copies = self.bank.copies.len();
        let mut per_copy = vec![0.0f64; copies];
        for (c, slot) in per_copy.iter_mut().enumerate() {
            let mut est = self.bank.sign_in_copy(c, stream, values) as f64;
            for k in 0..self.has_last.len() {
                if k == i {
                    continue;
                }
                let x = if self.has_prev[k] {
                    self.prev[c][k]
                } else if self.has_last[k] {
                    self.last[c][k]
                } else {
                    self.bank.copies[c].sketches[k].value()
                };
                est *= x as f64;
            }
            *slot = est;
        }
        median_of_means_slice(self.bank.s1, self.bank.s2, &per_copy)
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

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

/// Deterministic pseudo-workload: `(stream, values, seconds)` triples.
fn workload(len: u64, spread: u64) -> Vec<(StreamId, Vec<Value>, VTime)> {
    (0..len)
        .map(|i| {
            // Mildly skewed values so the sign cache sees both hits and
            // misses; time advances non-monotonically within a second but
            // monotonically overall.
            let s = StreamId((i % 3) as usize);
            let a = (i * i + 7 * i) % spread;
            let b = (i / 2) % spread;
            (s, v(a, b), VTime::from_secs(i / 4))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Golden-vector equivalence.
// ---------------------------------------------------------------------------

#[test]
fn bank_estimates_bit_identical_on_golden_workload() {
    let q = chain_query();
    for (s1, s2, seed) in [(1, 1, 0u64), (7, 1, 1), (16, 3, 42), (130, 2, 0xDEAD)] {
        let cfg = BankConfig { s1, s2, seed };
        let mut new = SketchBank::new(&q, cfg);
        let mut old = LegacyBank::new(&q, cfg);
        for (s, vals, _) in workload(200, 23) {
            new.update(s, &vals);
            old.update(s, &vals);
        }
        assert_eq!(
            new.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits(),
            "join count diverged at s1={s1} s2={s2} seed={seed}"
        );
        for probe in 0..30u64 {
            for stream in 0..3 {
                let vals = v(probe % 23, (probe * 3) % 23);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &vals).to_bits(),
                    old.productivity(sid, &vals).to_bits(),
                    "productivity diverged: s1={s1} s2={s2} seed={seed} \
                     stream={stream} probe={probe}"
                );
            }
        }
    }
}

#[test]
fn per_copy_state_matches_legacy_exactly() {
    // Stronger than output equality: every counter and every sign agrees.
    let q = chain_query();
    let cfg = BankConfig {
        s1: 65, // odd size straddling a packed-word boundary
        s2: 1,
        seed: 9,
    };
    let mut new = SketchBank::new(&q, cfg);
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, _) in workload(120, 11) {
        new.update(s, &vals);
        old.update(s, &vals);
    }
    for c in 0..cfg.copies() {
        for k in 0..3 {
            assert_eq!(
                new.sketch_value(c, StreamId(k)),
                old.copies[c].sketches[k].value(),
                "counter diverged at copy {c} stream {k}"
            );
        }
        for probe in 0..10u64 {
            let vals = v(probe, probe % 3);
            for k in 0..3 {
                assert_eq!(
                    new.sign_in_copy(c, StreamId(k), &vals),
                    old.sign_in_copy(c, StreamId(k), &vals),
                    "sign diverged at copy {c} stream {k} probe {probe}"
                );
            }
        }
    }
}

#[test]
fn tumbling_time_epochs_bit_identical_across_rollovers() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 40,
        s2: 2,
        seed: 77,
    };
    let epoch = EpochSpec::Time(VDur::from_secs(10));
    let mut new = TumblingSketches::new(&q, cfg, epoch);
    let mut old = LegacyTumbling::new(&q, cfg, epoch);
    for (i, (s, vals, t)) in workload(300, 17).into_iter().enumerate() {
        let rolled_new = new.observe(s, &vals, t);
        let rolled_old = old.observe(s, &vals, t);
        assert_eq!(rolled_new, rolled_old, "rollover cue diverged at {i}");
        // Probe from every stream each step so first-epoch fallback, mixed
        // and frozen paths all get exercised, before AND after rollovers.
        if i % 7 == 0 {
            for stream in 0..3 {
                let probe = v((i as u64) % 17, (i as u64 / 3) % 17);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &probe).to_bits(),
                    old.productivity(sid, &probe).to_bits(),
                    "tumbling productivity diverged at step {i} stream {stream}"
                );
            }
            assert_eq!(
                new.estimate_join_count().to_bits(),
                old.bank.estimate_join_count().to_bits(),
                "tumbling join count diverged at step {i}"
            );
        }
    }
}

#[test]
fn tumbling_tuple_epochs_bit_identical_with_snapshots() {
    // PerStreamTuples rolls through `take_stream_snapshot`: streams roll
    // independently, so the mixed last/current fallback path stays live for
    // straggler streams long after others have frozen.
    let q = chain_query();
    let cfg = BankConfig {
        s1: 33,
        s2: 1,
        seed: 123,
    };
    let epoch = EpochSpec::PerStreamTuples(8);
    let mut new = TumblingSketches::new(&q, cfg, epoch);
    let mut old = LegacyTumbling::new(&q, cfg, epoch);
    for (i, (s, vals, t)) in workload(250, 9).into_iter().enumerate() {
        // Skew arrivals: stream 2 only sees every third tuple, so it lags
        // a full epoch behind the others.
        if s == StreamId(2) && i % 3 != 0 {
            continue;
        }
        assert_eq!(new.observe(s, &vals, t), old.observe(s, &vals, t));
        if i % 5 == 0 {
            for stream in 0..3 {
                let probe = v((i as u64) % 9, (i as u64) % 4);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &probe).to_bits(),
                    old.productivity(sid, &probe).to_bits(),
                    "tuple-mode productivity diverged at step {i} stream {stream}"
                );
            }
        }
    }
}

#[test]
fn current_productivity_matches_bank_path() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 50,
        s2: 1,
        seed: 4,
    };
    let mut new = TumblingSketches::new(&q, cfg, EpochSpec::Time(VDur::from_secs(50)));
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, t) in workload(100, 13) {
        new.observe(s, &vals, t);
        old.update(s, &vals);
    }
    for probe in 0..10u64 {
        let vals = v(probe % 13, probe % 5);
        assert_eq!(
            new.current_productivity(StreamId(0), &vals).to_bits(),
            old.productivity(StreamId(0), &vals).to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Property-based equivalence over random schedules.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads, sizings and seeds: the SoA bank and the legacy
    /// bank agree bit for bit on every estimate.
    #[test]
    fn bank_equivalence_holds_for_random_workloads(
        seed in any::<u64>(),
        s1 in 1usize..24,
        s2 in 1usize..4,
        steps in prop::collection::vec(
            (0usize..3, 0u64..12, 0u64..12), 1..120),
        probes in prop::collection::vec(
            (0usize..3, 0u64..12, 0u64..12), 1..12),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2, seed };
        let mut new = SketchBank::new(&q, cfg);
        let mut old = LegacyBank::new(&q, cfg);
        for (s, a, b) in steps {
            new.update(StreamId(s), &v(a, b));
            old.update(StreamId(s), &v(a, b));
        }
        prop_assert_eq!(
            new.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits()
        );
        for (s, a, b) in probes {
            prop_assert_eq!(
                new.productivity(StreamId(s), &v(a, b)).to_bits(),
                old.productivity(StreamId(s), &v(a, b)).to_bits()
            );
        }
    }

    /// Random schedules with epoch rollovers in both window modes: the
    /// tumbling layers agree bit for bit, including the frozen-cross-product
    /// fast path and the first-epoch fallback.
    #[test]
    fn tumbling_equivalence_holds_across_rollovers(
        seed in any::<u64>(),
        s1 in 1usize..16,
        time_mode in any::<bool>(),
        period in 1u64..12,
        steps in prop::collection::vec(
            (0usize..3, 0u64..8, 0u64..8, 0u64..40), 1..100),
        probes in prop::collection::vec(
            (0usize..3, 0u64..8, 0u64..8), 1..8),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2: 1, seed };
        let epoch = if time_mode {
            EpochSpec::Time(VDur::from_secs(period))
        } else {
            EpochSpec::PerStreamTuples(period)
        };
        let mut new = TumblingSketches::new(&q, cfg, epoch);
        let mut old = LegacyTumbling::new(&q, cfg, epoch);
        let mut now = 0u64;
        for (s, a, b, dt) in steps {
            // Time must be monotone; accumulate the random increments.
            now += dt / 8;
            let t = VTime::from_secs(now);
            prop_assert_eq!(
                new.observe(StreamId(s), &v(a, b), t),
                old.observe(StreamId(s), &v(a, b), t)
            );
        }
        for (s, a, b) in &probes {
            prop_assert_eq!(
                new.productivity(StreamId(*s), &v(*a, *b)).to_bits(),
                old.productivity(StreamId(*s), &v(*a, *b)).to_bits()
            );
        }
        // Interleave another burst after probing (cross rows must
        // invalidate correctly), then probe again.
        for i in 0..10u64 {
            now += 1;
            let t = VTime::from_secs(now);
            prop_assert_eq!(
                new.observe(StreamId((i % 3) as usize), &v(i % 5, i % 4), t),
                old.observe(StreamId((i % 3) as usize), &v(i % 5, i % 4), t)
            );
        }
        for (s, a, b) in &probes {
            prop_assert_eq!(
                new.productivity(StreamId(*s), &v(*a, *b)).to_bits(),
                old.productivity(StreamId(*s), &v(*a, *b)).to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred folds vs the eager reference.
// ---------------------------------------------------------------------------

/// More distinct keys on one stream than the pending table holds, so
/// feeding them forces at least one table-full settle.
fn distinct_burst(first: u64) -> Vec<Vec<Value>> {
    (0..PENDING_FOLD_BOUND as u64 + 37)
        .map(|i| v(first + i, i % 7))
        .collect()
}

/// A JSON round trip of the bank (its pending folds included).
fn round_trip(bank: &SketchBank) -> SketchBank {
    let json = serde_json::to_string(bank).expect("bank serializes");
    serde_json::from_str(&json).expect("bank deserializes")
}

#[test]
fn serde_round_trip_keeps_pending_folds() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 37,
        s2: 2,
        seed: 0xFEED,
    };
    let mut new = SketchBank::new(&q, cfg);
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, _) in workload(90, 7) {
        new.update(s, &vals);
        old.update(s, &vals);
    }
    let pending = new.pending_keys();
    assert!(pending > 0, "the workload leaves folds pending");
    let mut back = round_trip(&new);
    assert_eq!(
        back.pending_keys(),
        pending,
        "pending folds survive the trip"
    );
    // Updates after the trip land on the rebuilt pending index.
    for (s, vals, _) in workload(40, 7) {
        back.update(s, &vals);
        new.update(s, &vals);
        old.update(s, &vals);
    }
    for b in [&mut back, &mut new] {
        assert_eq!(
            b.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits()
        );
        for probe in 0..12u64 {
            let vals = v(probe % 7, (probe * 5) % 7);
            for k in 0..3 {
                assert_eq!(
                    b.productivity(StreamId(k), &vals).to_bits(),
                    old.productivity(StreamId(k), &vals).to_bits(),
                    "stream {k} probe {probe}"
                );
            }
        }
    }
    // A settled bank round-trips too.
    assert_eq!(new.pending_keys(), 0);
    let mut settled = round_trip(&new);
    for k in 0..3 {
        assert_eq!(
            settled.counters_row(StreamId(k)),
            new.counters_row(StreamId(k))
        );
        assert_eq!(
            settled.tuples_seen(StreamId(k)),
            new.tuples_seen(StreamId(k))
        );
    }
}

#[test]
fn pending_table_stays_within_its_bound() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 9,
        s2: 1,
        seed: 5,
    };
    let mut new = SketchBank::new(&q, cfg);
    let mut old = LegacyBank::new(&q, cfg);
    let mut peak = 0;
    for round in 0..3u64 {
        for vals in distinct_burst(round * 10_000) {
            new.update(StreamId(1), &vals);
            old.update(StreamId(1), &vals);
            peak = peak.max(new.pending_keys());
            assert!(new.pending_keys() <= PENDING_FOLD_BOUND);
        }
    }
    assert_eq!(
        peak, PENDING_FOLD_BOUND,
        "the table fills before it settles"
    );
    for c in 0..cfg.copies() {
        assert_eq!(
            new.sketch_value(c, StreamId(1)),
            old.copies[c].sketches[1].value()
        );
    }
}

#[test]
fn wide_streams_fold_at_once_and_stay_exact() {
    // A 6-way star whose hub joins five spokes: the hub has more incident
    // attributes than a pending key holds, so its arrivals fold at once
    // while the spokes' arrivals defer.
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("H", &["A1", "A2", "A3", "A4", "A5"]));
    let spokes = ["S1", "S2", "S3", "S4", "S5"];
    for s in spokes {
        c.add_stream(StreamSchema::new(s, &["A1"]));
    }
    let pairs: Vec<(String, String)> = spokes
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("H.A{}", i + 1), format!("{s}.A1")))
        .collect();
    let pairs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let q = JoinQuery::from_names(c, &pairs, WindowSpec::secs(60)).unwrap();
    let cfg = BankConfig {
        s1: 21,
        s2: 3,
        seed: 31,
    };
    let mut new = SketchBank::new(&q, cfg);
    let mut old = LegacyBank::new(&q, cfg);
    let hub = |i: u64| (0..5).map(|a| Value((i + a) % 4)).collect::<Vec<_>>();
    for i in 0..120u64 {
        let (s, vals) = if i % 3 == 0 {
            (StreamId(0), hub(i))
        } else {
            (StreamId(1 + (i as usize % 5)), vec![Value(i % 4)])
        };
        let pending = new.pending_keys();
        new.update(s, &vals);
        old.update(s, &vals);
        if s == StreamId(0) {
            assert_eq!(new.pending_keys(), pending, "hub arrivals never defer");
        }
    }
    assert_eq!(
        new.estimate_join_count().to_bits(),
        old.estimate_join_count().to_bits()
    );
    for i in 0..8u64 {
        assert_eq!(
            new.productivity(StreamId(0), &hub(i)).to_bits(),
            old.productivity(StreamId(0), &hub(i)).to_bits()
        );
        for k in 1..6 {
            let vals = [Value(i % 4)];
            assert_eq!(
                new.productivity(StreamId(k), &vals).to_bits(),
                old.productivity(StreamId(k), &vals).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random update schedules interleaved with every settling reader of
    /// the bank — estimate, productivity, raw counters, per-stream
    /// snapshots, reset, table-full bursts and serde round trips — agree
    /// bit for bit with the eager legacy bank.
    #[test]
    fn deferred_bank_matches_eager_reference(
        seed in any::<u64>(),
        s1 in 1usize..12,
        s2 in 1usize..3,
        ops in prop::collection::vec(
            (0u8..10, 0usize..3, 0u64..9, 0u64..9), 1..200),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2, seed };
        let mut new = SketchBank::new(&q, cfg);
        let mut old = LegacyBank::new(&q, cfg);
        for (op, s, a, b) in ops {
            let sid = StreamId(s);
            match op {
                0..=4 => {
                    new.update(sid, &v(a, b));
                    old.update(sid, &v(a, b));
                }
                5 => prop_assert_eq!(
                    new.estimate_join_count().to_bits(),
                    old.estimate_join_count().to_bits()
                ),
                6 => prop_assert_eq!(
                    new.productivity(sid, &v(a, b)).to_bits(),
                    old.productivity(sid, &v(a, b)).to_bits()
                ),
                7 => {
                    let c = a as usize % cfg.copies();
                    prop_assert_eq!(new.sketch_value(c, sid), old.copies[c].sketches[s].value());
                    prop_assert_eq!(new.tuples_seen(sid), old.copies[c].sketches[s].tuples());
                }
                8 => {
                    let mut snapshot = vec![0; cfg.copies()];
                    new.take_stream_snapshot(sid, &mut snapshot);
                    prop_assert_eq!(snapshot, old.take_stream_snapshot(sid));
                }
                _ => match a % 3 {
                    0 => {
                        new.reset();
                        old.reset();
                    }
                    1 => {
                        for vals in distinct_burst(b * 1000) {
                            new.update(sid, &vals);
                            old.update(sid, &vals);
                        }
                    }
                    _ => new = round_trip(&new),
                },
            }
            prop_assert!(new.pending_keys() <= PENDING_FOLD_BOUND);
        }
        for k in 0..3 {
            let want: Vec<i64> = old.copies.iter().map(|c| c.sketches[k].value()).collect();
            prop_assert_eq!(new.counters_row(StreamId(k)), want.as_slice());
        }
    }

    /// The same interleaving through the tumbling layer, in both epoch
    /// disciplines: first-epoch mixed-path productivity, late
    /// `productivity_at` against the previous epoch, live estimates,
    /// current-epoch productivity, and bursts that fill the pending table
    /// between rollovers.
    #[test]
    fn deferred_tumbling_matches_eager_reference(
        seed in any::<u64>(),
        s1 in 1usize..10,
        time_mode in any::<bool>(),
        period in 1u64..12,
        ops in prop::collection::vec(
            (0u8..10, 0usize..3, 0u64..8, 0u64..8, 0u64..30), 1..160),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2: 1, seed };
        let epoch = if time_mode {
            EpochSpec::Time(VDur::from_secs(period))
        } else {
            EpochSpec::PerStreamTuples(period)
        };
        let mut new = TumblingSketches::new(&q, cfg, epoch);
        let mut old = LegacyTumbling::new(&q, cfg, epoch);
        let mut now = 0u64;
        for (op, s, a, b, dt) in ops {
            let sid = StreamId(s);
            match op {
                0..=4 => {
                    now += dt / 8;
                    let t = VTime::from_secs(now);
                    prop_assert_eq!(new.observe(sid, &v(a, b), t), old.observe(sid, &v(a, b), t));
                }
                5 => prop_assert_eq!(
                    new.productivity(sid, &v(a, b)).to_bits(),
                    old.productivity(sid, &v(a, b)).to_bits()
                ),
                6 => {
                    let ts = VTime::from_secs(now.saturating_sub(dt % (2 * period + 1)));
                    prop_assert_eq!(
                        new.productivity_at(sid, &v(a, b), ts).to_bits(),
                        old.productivity_at(sid, &v(a, b), ts).to_bits()
                    );
                }
                7 => prop_assert_eq!(
                    new.estimate_join_count().to_bits(),
                    old.bank.estimate_join_count().to_bits()
                ),
                8 => prop_assert_eq!(
                    new.current_productivity(sid, &v(a, b)).to_bits(),
                    old.bank.productivity(sid, &v(a, b)).to_bits()
                ),
                _ => {
                    let t = VTime::from_secs(now);
                    for vals in distinct_burst(b * 1000) {
                        prop_assert_eq!(new.observe(sid, &vals, t), old.observe(sid, &vals, t));
                    }
                }
            }
        }
        for s in 0..3 {
            let probe = v(s as u64, 1);
            prop_assert_eq!(
                new.productivity(StreamId(s), &probe).to_bits(),
                old.productivity(StreamId(s), &probe).to_bits()
            );
        }
    }
}
