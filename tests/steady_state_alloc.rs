//! Steady-state ingest allocates nothing.
//!
//! A counting global allocator (this test binary only) counts the heap
//! allocations made on the ingesting thread. After a warm-up half of the
//! trace — windows full, expiry running, every reusable buffer at its
//! working size — the per-arrival path of the single-query engine and of
//! the multi-query engine (probe or trie walk, expire, score, insert,
//! shed) must make at most one allocation per 1000 arrivals, on a Zipf
//! hot-key trace and on the paper's regions trace. FIFO keeps the sketch
//! machinery out of the measurement.

use mstream_core::mstream_workload::{RegionsConfig, RegionsGenerator, Zipf};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter (per thread,
/// so the test harness's own threads never pollute a measurement).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const NAMES: [&str; 3] = ["R1", "R2", "R3"];

/// A query over the named streams with the given predicates.
fn query(names: &[&str], preds: &[(&str, &str)], window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    for &name in names {
        c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    JoinQuery::from_names(c, preds, window).expect("valid query")
}

/// The multi-query workload's shapes: chain, star, two pairs, triangle.
fn shapes(window: WindowSpec) -> [JoinQuery; 5] {
    let r123 = &NAMES[..];
    [
        query(r123, &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], window),
        query(r123, &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")], window),
        query(&["R1", "R2"], &[("R1.A1", "R2.A1")], window),
        query(&["R2", "R3"], &[("R2.A2", "R3.A2")], window),
        query(
            r123,
            &[("R1.A2", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R1.A1")],
            window,
        ),
    ]
}

/// `(stream index, row)` arrivals of the regions workload (z-intra
/// 0.1–0.5, 6000 tuples per stream).
fn regions_trace() -> Vec<(usize, Vec<Value>)> {
    let mut config = RegionsConfig::with_z_intra(0.1, 0.5);
    config.tuples_per_relation = 6000;
    let trace = RegionsGenerator::new(config)
        .expect("valid config")
        .generate();
    trace
        .items
        .iter()
        .map(|it| (it.stream.index(), it.values.to_vec()))
        .collect()
}

/// `(stream index, row)` arrivals with Zipf(1.5) keys on `A1`.
fn zipf_trace(n: usize) -> Vec<(usize, Vec<Value>)> {
    let mut rng = StdRng::seed_from_u64(15);
    let zipf = Zipf::new(1000, 1.5);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..3);
            let key = zipf.sample(&mut rng) as u64;
            (s, vec![Value(key), Value(rng.gen_range(0..100))])
        })
        .collect()
}

/// Feeds `trace` at 10 arrivals per virtual second through `ingest`;
/// returns the allocations made during the second half.
fn steady_allocs(
    trace: &[(usize, Vec<Value>)],
    mut ingest: impl FnMut(usize, Vec<Value>, VTime),
) -> u64 {
    let rows: Vec<(usize, Vec<Value>, VTime)> = trace
        .iter()
        .enumerate()
        .map(|(i, (s, v))| (*s, v.clone(), VTime::from_micros(i as u64 * 100_000)))
        .collect();
    let half = rows.len() / 2;
    let mut before = 0;
    for (i, (s, v, ts)) in rows.into_iter().enumerate() {
        if i == half {
            before = allocs();
        }
        ingest(s, v, ts);
    }
    allocs() - before
}

fn check(what: &str, arrivals: usize, steady: u64) {
    let measured = (arrivals - arrivals / 2) as u64;
    assert!(
        steady * 1000 <= measured,
        "{what}: {steady} allocations over {measured} steady-state arrivals"
    );
}

fn solo(q: JoinQuery, capacity: usize, trace: &[(usize, Vec<Value>)]) -> u64 {
    let mut e = EngineBuilder::new(q)
        .policy(Fifo)
        .capacity_per_window(capacity)
        .build()
        .expect("engine builds");
    let mut sink = CountSink::default();
    steady_allocs(trace, |s, v, ts| {
        if s < e.query().n_streams() {
            e.ingest(Arrival::new(StreamId(s), v, ts), &mut sink);
        }
    })
}

/// Two replicas of every query, so classes fan out to two members.
fn multi(queries: &[JoinQuery], capacity: usize, trace: &[(usize, Vec<Value>)]) -> u64 {
    let mut b = EngineBuilder::new_multi()
        .policy(Fifo)
        .capacity_per_window(capacity);
    for q in queries.iter().chain(queries) {
        b.register(q.clone()).expect("query registers");
    }
    let mut e = b.build_multi().expect("engine builds");
    let global: Vec<StreamId> = NAMES
        .iter()
        .map(|n| e.stream_id(n).expect("stream registered"))
        .collect();
    let mut sink = CountSink::default();
    steady_allocs(trace, |s, v, ts| {
        e.ingest(Arrival::new(global[s], v, ts), &mut sink);
    })
}

#[test]
fn steady_state_ingest_does_not_allocate() {
    let regions = regions_trace();
    let zipf = zipf_trace(20_000);
    let range = WindowSpec::secs(500);
    let rows = WindowSpec::Tuples(100);
    let [chain, star, _, _, triangle] = shapes(range);
    let [_, zipf_star, ..] = shapes(rows);
    check(
        "solo chain, regions",
        regions.len(),
        solo(chain, 418, &regions),
    );
    check(
        "solo triangle, regions",
        regions.len(),
        solo(triangle, 418, &regions),
    );
    check(
        "solo star at full memory, regions",
        regions.len(),
        solo(star, 1 << 16, &regions),
    );
    check("solo star, zipf", zipf.len(), solo(zipf_star, 25, &zipf));
    check(
        "multi, regions",
        regions.len(),
        multi(&shapes(range), 418, &regions),
    );
    check("multi, zipf", zipf.len(), multi(&shapes(rows), 25, &zipf));
}
