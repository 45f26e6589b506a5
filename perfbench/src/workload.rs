//! The four workloads: query text, generated trace, engine sizing and the
//! exact-join oracle each run is checked against.

use crate::check::mix;
use mstream_core::mstream_join::ExactJoin;
use mstream_core::mstream_types::{JoinQuery, StreamId, VDur, VTime, Value};
use mstream_core::mstream_workload::{RegionsConfig, RegionsGenerator, Trace};
use mstream_query::parse_query;

/// The paper's evaluation query (Fig 3): a 3-way chain over 500 s windows.
pub const PAPER_CHAIN: &str = "SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS], R2(A1, A2), \
     R3(A1, A2) WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
/// The 3-way star through `A1` over 500 s windows.
pub const PAPER_STAR: &str = "SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS], R2(A1, A2), \
     R3(A1, A2) WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1";
/// `R1 ⋈ R2` on `A1`.
pub const PAIR_12: &str =
    "SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS], R2(A1, A2) WHERE R1.A1 = R2.A1";
/// `R2 ⋈ R3` on `A2`.
pub const PAIR_23: &str =
    "SELECT * FROM R2(A1, A2) [RANGE 500 SECONDS], R3(A1, A2) WHERE R2.A2 = R3.A2";
/// A cyclic triangle: every stream joins both others.
pub const TRIANGLE: &str = "SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS], R2(A1, A2), \
     R3(A1, A2) WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND R3.A2 = R1.A1";
/// The keyed 3-way star over 100-tuple windows (one partition key).
pub const ZIPF_STAR: &str = "SELECT * FROM R1(A1, A2) [ROWS 100], R2(A1, A2), R3(A1, A2) \
     WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1";

/// The standing-query shapes of `multi_churn`, registered three times each.
pub const MULTI_SHAPES: [&str; 5] = [PAPER_CHAIN, PAPER_STAR, PAIR_12, PAIR_23, TRIANGLE];
/// Arrivals between two `multi_churn` control-plane steps.
pub const CHURN_EVERY: usize = 3000;

/// Trace stream names: stream `k` of every trace is `R{k+1}`.
pub const STREAM_NAMES: [&str; 3] = ["R1", "R2", "R3"];

/// Which engine a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ShedJoinEngine`.
    Single,
    /// `MultiQueryEngine` with runtime add/remove.
    Multi,
    /// `ShardedJoinEngine` behind the event-time front end.
    Sharded,
}

/// One named workload.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Engine driven.
    pub kind: Kind,
    /// Query text (the first standing query for `multi_churn`).
    pub query: &'static str,
    /// Arrivals per second of virtual time.
    pub rate: f64,
    /// Per-window tuple budget (25% of the full window).
    pub capacity: usize,
    /// Worker threads (sharded only).
    pub shards: usize,
    /// Disorder bound and maximum delivery lateness, in virtual µs.
    pub disorder_micros: u64,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_skew",
        kind: Kind::Single,
        query: PAPER_CHAIN,
        rate: 10.0,
        capacity: 418,
        shards: 1,
        disorder_micros: 0,
    },
    Workload {
        name: "zipf_rollover",
        kind: Kind::Single,
        query: ZIPF_STAR,
        rate: 1000.0,
        capacity: 25,
        shards: 1,
        disorder_micros: 0,
    },
    Workload {
        name: "multi_churn",
        kind: Kind::Multi,
        query: PAPER_CHAIN,
        rate: 10.0,
        capacity: 418,
        shards: 1,
        disorder_micros: 0,
    },
    Workload {
        name: "sharded_zipf",
        kind: Kind::Sharded,
        query: ZIPF_STAR,
        rate: 1000.0,
        capacity: 25,
        shards: 2,
        disorder_micros: 16_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Zipf exponent and key domain of the Zipf trace.
const ZIPF_THETA: f64 = 1.5;
const ZIPF_DOMAIN: u64 = 1000;
const ZIPF_ARRIVALS: usize = 300_000;

impl Workload {
    /// Virtual time between arrivals.
    pub fn dt(&self) -> VDur {
        VDur::from_rate(self.rate)
    }

    /// Arrival `i`'s virtual timestamp.
    pub fn ts(&self, i: usize) -> VTime {
        VTime::ZERO + self.dt().mul(i as u64)
    }

    /// The workload's trace for `seed`: the same seed gives the same trace.
    pub fn trace(&self, seed: u64) -> Trace {
        match self.name {
            "paper_skew" => regions((1.6, 2.0), seed),
            "multi_churn" => regions((0.1, 0.5), seed),
            _ => zipf(seed),
        }
    }

    /// The order in which arrival positions are delivered: in order, or
    /// (with a disorder bound) each arrival delayed by a seeded jitter of
    /// at most the bound, so no delivery is later than the bound covers.
    pub fn delivery(&self, n: usize, seed: u64) -> Vec<usize> {
        let mut keyed: Vec<(u64, usize)> = (0..n)
            .map(|i| {
                let jitter = match self.disorder_micros {
                    0 => 0,
                    k => mix(seed ^ mix(i as u64)) % (k + 1),
                };
                (self.ts(i).as_micros() + jitter, i)
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    }
}

/// Seed of the regions data set's layout and tuples. Fixed, so that run
/// seeds reorder one data set instead of drawing data sets whose join
/// sizes differ several-fold; chosen so that a `paper_skew` pass takes
/// about a second (the generator's default seed emits 0.93G rows per
/// pass, about six seconds).
const REGIONS_DATA_SEED: u64 = 2;

/// The Table-1 regions data set (10K tuples per relation) with the given
/// within-region skew range, fed round-robin. `seed` shuffles each
/// relation's arrival order, so every seed replays the same tuples in
/// another stationary order.
fn regions(z_intra: (f64, f64), seed: u64) -> Trace {
    let mut config = RegionsConfig::with_z_intra(z_intra.0, z_intra.1);
    config.seed = REGIONS_DATA_SEED;
    let data = RegionsGenerator::new(config)
        .expect("Table-1 configuration is valid")
        .generate();
    let mut per_stream: Vec<Vec<Vec<Value>>> = vec![Vec::new(); STREAM_NAMES.len()];
    for item in data.items {
        per_stream[item.stream.index()].push(item.values.as_slice().to_vec());
    }
    let mut state = seed;
    for tuples in &mut per_stream {
        for i in (1..tuples.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            tuples.swap(i, (mix(state) % (i as u64 + 1)) as usize);
        }
    }
    Trace::interleave(per_stream)
}

/// A Zipf(θ) hot-key trace: arrivals rotate over the three streams, the
/// join key `A1` follows Zipf(θ) over the key domain and `A2` is uniform.
fn zipf(seed: u64) -> Trace {
    let weights: Vec<f64> = (1..=ZIPF_DOMAIN)
        .map(|k| (k as f64).powf(-ZIPF_THETA))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(state)
    };
    let mut trace = Trace::new();
    for i in 0..ZIPF_ARRIVALS {
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let key = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
        trace.push(
            StreamId(i % 3),
            vec![Value(key), Value(next() % ZIPF_DOMAIN)],
        );
    }
    trace
}

/// Parses a query text; the benchmark's own texts always parse.
pub fn query(text: &str) -> JoinQuery {
    parse_query(text).expect("benchmark query text parses")
}

/// Trace stream of each of `query`'s local streams (by stream name).
pub fn trace_streams(query: &JoinQuery) -> Vec<usize> {
    query
        .catalog()
        .iter()
        .map(|(_, s)| {
            STREAM_NAMES
                .iter()
                .position(|n| *n == s.name)
                .expect("benchmark queries read R1..R3")
        })
        .collect()
}

/// Exact-join row counts of `query` over `trace[from..]`, sampled after
/// every arrival position in `marks` (positions at or past the end read
/// the final count). Arrival `i` is processed at `w.ts(i)`, as the engines
/// see it.
pub fn exact_counts(
    w: &Workload,
    query: &JoinQuery,
    trace: &Trace,
    from: usize,
    marks: &[usize],
) -> Vec<u64> {
    let streams = trace_streams(query);
    let mut local = [usize::MAX; 3];
    for (k, &g) in streams.iter().enumerate() {
        local[g] = k;
    }
    let mut join = ExactJoin::new(query.clone());
    let mut out = vec![0; marks.len()];
    for (i, item) in trace.items.iter().enumerate().skip(from) {
        for (m, &mark) in marks.iter().enumerate() {
            if mark == i {
                out[m] = join.total_output();
            }
        }
        let k = local[item.stream.index()];
        if k != usize::MAX {
            join.process(StreamId(k), item.values.clone(), w.ts(i));
        }
    }
    for (m, &mark) in marks.iter().enumerate() {
        if mark >= trace.len() {
            out[m] = join.total_output();
        }
    }
    out
}

/// One control-plane step of `multi_churn`, applied just before arrival
/// `at`: remove the duplicate registered as `remove`, then register a
/// fresh copy of shape `add`.
pub struct Churn {
    /// Arrival position the step precedes.
    pub at: usize,
    /// `(shape, replica)` of the duplicate removed.
    pub remove: (usize, usize),
    /// Shape added.
    pub add: usize,
}

/// The churn schedule over a trace of `n` arrivals: every
/// [`CHURN_EVERY`] arrivals drop one duplicate (third replicas first,
/// then second) and add a fresh query, cycling through the shapes.
pub fn churn_schedule(n: usize) -> Vec<Churn> {
    let removable: Vec<(usize, usize)> = [2, 1]
        .iter()
        .flat_map(|&r| (0..MULTI_SHAPES.len()).map(move |s| (s, r)))
        .collect();
    (1..)
        .map(|k| k * CHURN_EVERY)
        .take_while(|&at| at < n)
        .zip(removable)
        .enumerate()
        .map(|(k, (at, remove))| Churn {
            at,
            remove,
            add: k % MULTI_SHAPES.len(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_in_the_seed() {
        for name in ["zipf_rollover", "paper_skew"] {
            let w = find(name).unwrap();
            assert_eq!(w.trace(7), w.trace(7));
            assert_ne!(w.trace(7), w.trace(8));
        }
    }

    #[test]
    fn regions_seeds_reorder_the_same_tuples() {
        let w = find("paper_skew").unwrap();
        let sorted = |t: Trace| {
            let mut v: Vec<_> = t.items.into_iter().map(|i| (i.stream, i.values)).collect();
            v.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
            v
        };
        assert_eq!(sorted(w.trace(1)), sorted(w.trace(2)));
    }

    #[test]
    fn delivery_lateness_stays_within_the_bound() {
        let w = find("sharded_zipf").unwrap();
        let order = w.delivery(5000, 3);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..5000).collect::<Vec<_>>(), "a permutation");
        assert_ne!(order, seen, "actually shuffled");
        let mut hwm = 0u64;
        for &i in &order {
            let ts = w.ts(i).as_micros();
            hwm = hwm.max(ts);
            assert!(
                hwm - ts <= w.disorder_micros,
                "arrival {i} is later than the bound"
            );
        }
    }

    #[test]
    fn churn_schedule_removes_duplicates_only() {
        let s = churn_schedule(30_000);
        assert_eq!(s.len(), 9);
        assert_eq!(s[0].at, 3000);
        assert!(s.iter().all(|c| c.remove.1 > 0), "first replicas stay");
        let mut removed: Vec<_> = s.iter().map(|c| c.remove).collect();
        removed.dedup();
        assert_eq!(removed.len(), 9);
    }

    #[test]
    fn every_query_text_parses_and_maps_to_trace_streams() {
        for text in MULTI_SHAPES.iter().chain([&ZIPF_STAR]) {
            let q = query(text);
            assert_eq!(trace_streams(&q).len(), q.n_streams());
        }
        assert_eq!(trace_streams(&query(PAIR_23)), vec![1, 2]);
    }
}
