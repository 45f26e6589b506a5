//! Microbenchmarks of the storage substrate: window-store insert/evict,
//! index probes, probe kernels, and queue shedding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mstream_core::mstream_join::{probe_each, ProbePlan};
use mstream_core::mstream_window::{Arena, FlatIndex, QueueVictim, ShedQueue, Slot, WindowStore};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn tup(seq: u64, ts: u64, a: u64, b: u64) -> Tuple {
    Tuple::new(
        StreamId(0),
        VTime::from_secs(ts),
        SeqNo(seq),
        vec![Value(a), Value(b)],
    )
}

/// Insert into a full window (every call pays one eviction).
fn bench_insert_evict(c: &mut Criterion) {
    let mut store = WindowStore::new(WindowSpec::Time(VDur::from_secs(1 << 30)), vec![0, 1], 1024);
    let mut rng = StdRng::seed_from_u64(1);
    let mut seq = 0u64;
    for _ in 0..1024 {
        store.insert(tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100)), rng.gen());
        seq += 1;
    }
    c.bench_function("window_insert_with_eviction", |b| {
        b.iter(|| {
            let t = tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100));
            seq += 1;
            black_box(store.insert(t, rng.gen()));
        })
    });
}

/// Hash-index probe on a 1024-tuple window.
fn bench_probe(c: &mut Criterion) {
    let mut store = WindowStore::new(WindowSpec::Time(VDur::from_secs(1 << 30)), vec![0, 1], 2048);
    let mut rng = StdRng::seed_from_u64(2);
    for seq in 0..1024u64 {
        store.insert(tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100)), 1.0);
    }
    c.bench_function("window_probe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 100;
            black_box(store.probe(0, Value(v)).len())
        })
    });
}

/// Priority rebuild of a full 1024-tuple window (epoch rollover cost,
/// excluding the scoring itself).
fn bench_rebuild(c: &mut Criterion) {
    let mut store = WindowStore::new(WindowSpec::Time(VDur::from_secs(1 << 30)), vec![0, 1], 1024);
    let mut rng = StdRng::seed_from_u64(3);
    for seq in 0..1024u64 {
        store.insert(tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100)), rng.gen());
    }
    c.bench_function("window_rebuild_priorities_1024", |b| {
        b.iter(|| {
            store.rebuild_priorities(|t, _| ((t.seq.0 % 97) as f64, 0.0));
        })
    });
}

/// Queue offers into a full queue under each victim mode.
fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_offer_full");
    for (label, mode) in [
        ("min_priority", QueueVictim::MinPriority),
        ("random", QueueVictim::Random),
        ("oldest", QueueVictim::Oldest),
    ] {
        let mut queue = ShedQueue::new(100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seq = 0u64;
        for _ in 0..100 {
            queue.offer(tup(seq, 0, 1, 1), rng.gen(), mode, &mut rng);
            seq += 1;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let t = tup(seq, 0, 1, 1);
                seq += 1;
                black_box(queue.offer(t, rng.gen(), mode, &mut rng));
            })
        });
    }
    group.finish();
}

/// The probe kernel on a 3-stream chain (middle origin — the star fast
/// path), populated windows, random arrivals.
fn bench_probe_kernel(c: &mut Criterion) {
    let names = ["R1", "R2", "R3"];
    let mut cat = Catalog::new();
    for name in names {
        cat.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    let q = JoinQuery::from_names(
        cat,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(1 << 20),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut stores: Vec<WindowStore> = (0..3)
        .map(|s| WindowStore::new(q.window(StreamId(s)), q.join_attrs(StreamId(s)), 2048))
        .collect();
    let mut seq = 0u64;
    for (s, store) in stores.iter_mut().enumerate() {
        for _ in 0..1024 {
            let t = Tuple::new(
                StreamId(s),
                VTime::ZERO,
                SeqNo(seq),
                vec![Value(rng.gen_range(0..64)), Value(rng.gen_range(0..64))],
            );
            store.insert(t, 0.0);
            seq += 1;
        }
    }
    let mut group = c.benchmark_group("probe_kernel_chain3_mid");
    let plan = ProbePlan::new(&q, StreamId(1));
    let mut v = 0u64;
    group.bench_function("iterative", |b| {
        b.iter(|| {
            v = (v + 1) % 64;
            let t = Tuple::new(StreamId(1), VTime::ZERO, SeqNo(seq), vec![Value(v), Value((v * 7) % 64)]);
            let n = probe_each(&plan, &t, &stores, |m| {
                black_box(m.origin());
            });
            black_box(n)
        })
    });
    group.finish();
}

/// Raw single-key probe: the open-addressed `FlatIndex` against the
/// `HashMap<Value, Vec<Slot>>` it replaced, same contents.
fn bench_flat_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut arena: Arena<u64> = Arena::new();
    let mut flat = FlatIndex::new();
    let mut legacy: HashMap<Value, Vec<Slot>> = HashMap::new();
    for i in 0..4096u64 {
        let key = rng.gen_range(0..512);
        let slot = arena.insert(i);
        flat.insert(key, slot);
        legacy.entry(Value(key)).or_default().push(slot);
    }
    let mut group = c.benchmark_group("index_probe_4096");
    let mut v = 0u64;
    group.bench_function("flat", |b| {
        b.iter(|| {
            v = (v + 1) % 512;
            black_box(flat.probe(black_box(v)).len())
        })
    });
    group.bench_function("hashmap", |b| {
        b.iter(|| {
            v = (v + 1) % 512;
            black_box(legacy.get(&Value(black_box(v))).map_or(0, Vec::len))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_evict,
    bench_probe,
    bench_rebuild,
    bench_queue,
    bench_probe_kernel,
    bench_flat_index
);
criterion_main!(benches);
