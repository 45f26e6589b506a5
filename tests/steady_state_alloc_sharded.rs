//! Steady-state sharded ingest allocates nothing.
//!
//! The sharded engine's workers ingest on their own threads, so this
//! binary counts allocations process-wide (one test, so no other test
//! thread runs beside it). After a warm-up half of a keyed Zipf star
//! trace, the coordinator (mint, route, channel send) and every worker
//! (probe, expire, sketch observe and rollover, score, insert, shed) must
//! together make at most one allocation per 1000 arrivals, at S=1 and
//! S=2, under FIFO and under MSketch.

use mstream_core::mstream_workload::Zipf;
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a process-wide allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a static
// atomic that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The paper's three streams joined on `A1` (one attribute class, so the
/// query partitions by key), over `ROWS 100` windows.
fn keyed_star() -> JoinQuery {
    let mut c = Catalog::new();
    for name in ["R1", "R2", "R3"] {
        c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")],
        WindowSpec::Tuples(100),
    )
    .expect("valid query")
}

/// Arrivals with Zipf(1.5) keys on `A1`, 10 per virtual second.
fn zipf_trace(n: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(15);
    let zipf = Zipf::new(1000, 1.5);
    (0..n)
        .map(|i| {
            let s = rng.gen_range(0..3);
            let key = zipf.sample(&mut rng) as u64;
            let row = vec![Value(key), Value(rng.gen_range(0..100))];
            Arrival::new(StreamId(s), row, VTime::from_micros(i as u64 * 100_000))
        })
        .collect()
}

/// Allocations made while the second half of `trace` is ingested.
fn steady_allocs(policy: impl ShedPolicy + 'static, shards: usize, trace: &[Arrival]) -> u64 {
    let mut engine = EngineBuilder::new(keyed_star())
        .policy(policy)
        .capacity_per_window(25)
        // The coordinator primes its pool of batch buffers on demand, up
        // to the channel depth + 2 per worker, whenever a worker falls
        // behind. A shallow channel caps that one-time priming at a few
        // buffers, so a late stall on a loaded host cannot pass for a
        // per-arrival allocation.
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 2,
            ..ShardConfig::default()
        })
        .build_sharded()
        .expect("engine builds");
    assert_eq!(engine.shards(), shards, "the keyed star partitions");
    let arrivals = trace.to_vec();
    let half = arrivals.len() / 2;
    let mut before = 0;
    for (i, a) in arrivals.into_iter().enumerate() {
        if i == half {
            before = ALLOCS.load(Ordering::Relaxed);
        }
        engine.ingest(a);
    }
    let steady = ALLOCS.load(Ordering::Relaxed) - before;
    engine.finish().expect("workers exit cleanly");
    steady
}

#[test]
fn steady_state_sharded_ingest_does_not_allocate() {
    // A workspace-wide build unifies the `audit` feature into this crate
    // (`mstream-audit` enables it), and then every worker re-audits its
    // whole operator after each arrival, allocating by design. The
    // production path is measured in a build without the feature:
    // `cargo test -p mstream-core --test steady_state_alloc_sharded`,
    // which `scripts/check.sh` runs.
    if cfg!(feature = "audit") {
        eprintln!("skipped: the audit feature checks invariants per arrival");
        return;
    }
    let trace = zipf_trace(40_000);
    let measured = (trace.len() - trace.len() / 2) as u64;
    for shards in [1, 2] {
        for (name, steady) in [
            ("FIFO", steady_allocs(Fifo, shards, &trace)),
            ("MSketch", steady_allocs(MSketch, shards, &trace)),
        ] {
            assert!(
                steady * 1000 <= measured,
                "{name} at S={shards}: {steady} allocations over {measured} steady-state arrivals"
            );
        }
    }
}
