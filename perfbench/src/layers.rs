//! Standalone layer replays: a workload's generated tuples driven straight
//! through one layer's public functions, each call timed on its own.
//!
//! * sketch — `TumblingSketches::observe` and `::productivity`;
//! * window — `WindowStore::expire`, `::insert` and `::evict_min` on
//!   FIFO-scored stores held to the workload's capacity;
//! * join — `mstream_join::probe_count` against those stores.

use crate::check::ratio;
use crate::workload::{self, Workload};
use mstream_core::mstream_join::{probe_count, ProbePlan};
use mstream_core::mstream_sketch::{BankConfig, EpochSpec, TumblingSketches};
use mstream_core::mstream_types::{JoinQuery, SeqNo, StreamId, Tuple, WindowSpec};
use mstream_core::mstream_window::WindowStore;
use mstream_core::mstream_workload::Trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-call costs measured by the replays, in ns (each includes one
/// `Instant` pair; see [`timer_ns`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// `observe` ns per call.
    pub observe_ns: f64,
    /// `productivity` ns per call.
    pub productivity_ns: f64,
    /// `insert` ns per call.
    pub insert_ns: f64,
    /// ns per arrival to `expire` every store.
    pub expire_ns: f64,
    /// `evict_min` ns per call.
    pub evict_ns: f64,
    /// `probe_count` ns per emitted row.
    pub probe_ns_per_row: f64,
}

/// The epoch discipline the engine derives for `query`: the window length
/// for time windows, per-stream tuple counts for tuple windows.
fn epoch_of(query: &JoinQuery) -> EpochSpec {
    match query.window(StreamId(0)) {
        WindowSpec::Time(p) => EpochSpec::Time(p),
        WindowSpec::Tuples(n) => EpochSpec::PerStreamTuples(n),
    }
}

/// Replays `trace` (in order) through the sketch, window and join layers
/// of `w`'s query, stopping early once `budget` has elapsed.
pub fn replay(w: &Workload, trace: &Trace, budget: Duration) -> Replay {
    let query = workload::query(w.query);
    let local = workload::trace_streams(&query);
    let started = Instant::now();
    let mut out = Replay::default();

    let mut sketches = TumblingSketches::new(&query, BankConfig::default(), epoch_of(&query));
    let (mut observe, mut productivity, mut n) = (0u64, 0u64, 0u64);
    for (i, item) in trace.items.iter().enumerate() {
        let Some(k) = local.iter().position(|&g| g == item.stream.index()) else {
            continue;
        };
        let (stream, values, now) = (StreamId(k), item.values.as_slice(), w.ts(i));
        let t0 = Instant::now();
        black_box(sketches.observe(stream, values, now));
        let t1 = Instant::now();
        black_box(sketches.productivity(stream, values));
        let t2 = Instant::now();
        observe += (t1 - t0).as_nanos() as u64;
        productivity += (t2 - t1).as_nanos() as u64;
        n += 1;
        if n % 1024 == 0 && started.elapsed() > budget / 2 {
            break;
        }
    }
    out.observe_ns = ratio(observe, n);
    out.productivity_ns = ratio(productivity, n);

    let mut stores: Vec<WindowStore> = (0..query.n_streams())
        .map(|k| {
            let s = StreamId(k);
            WindowStore::new(query.window(s), query.join_attrs(s), usize::MAX / 2)
        })
        .collect();
    let plans = ProbePlan::all(&query);
    let (mut expire, mut insert, mut evict, mut probe) = (0u64, 0u64, 0u64, 0u64);
    let (mut evictions, mut rows, mut m) = (0u64, 0u64, 0u64);
    for (i, item) in trace.items.iter().enumerate() {
        let Some(k) = local.iter().position(|&g| g == item.stream.index()) else {
            continue;
        };
        let now = w.ts(i);
        let tuple = Tuple::new(StreamId(k), now, SeqNo(i as u64), item.values.clone());
        let t0 = Instant::now();
        for store in &mut stores {
            black_box(store.expire(now));
        }
        let t1 = Instant::now();
        rows += black_box(probe_count(&plans[k], &tuple, &stores));
        let t2 = Instant::now();
        // FIFO scoring: the oldest resident has the lowest priority.
        black_box(stores[k].insert(tuple, i as f64));
        let t3 = Instant::now();
        expire += (t1 - t0).as_nanos() as u64;
        probe += (t2 - t1).as_nanos() as u64;
        insert += (t3 - t2).as_nanos() as u64;
        if stores[k].len() > w.capacity {
            let t4 = Instant::now();
            black_box(stores[k].evict_min());
            evict += t4.elapsed().as_nanos() as u64;
            evictions += 1;
        }
        m += 1;
        if m % 1024 == 0 && started.elapsed() > budget {
            break;
        }
    }
    out.expire_ns = ratio(expire, m);
    out.insert_ns = ratio(insert, m);
    out.evict_ns = ratio(evict, evictions);
    out.probe_ns_per_row = ratio(probe, rows);
    out
}

/// Median cost of one empty `Instant` pair, in ns — the floor every timed
/// call carries.
pub fn timer_ns() -> f64 {
    let mut samples: Vec<u64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}
