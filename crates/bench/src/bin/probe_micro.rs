//! Self-timed eviction and index-probe microbenches: the flat hot path vs
//! the pre-rewrite one, on the same machine in the same process.
//!
//! Because the legacy structures no longer exist in the library, this bin
//! carries faithful replicas of what they were: the old
//! `HashMap<Value, Vec<Slot>>`-indexed window store is rebuilt here from
//! public pieces (`Arena` + std `HashMap`) with the exact per-entry layout
//! `WindowStore` used to have. The index comparison first asserts the two
//! sides hold identical contents, then times them.
//!
//! Flags: `--quick` (smaller workloads, for CI sanity), `--json PATH`
//! (emit rows for BENCH_probe.json), plus the common `--seed`.

use mstream_bench::{args, table, Args};
use mstream_core::mstream_window::{Arena, FlatIndex, Slot, WindowStore};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One comparison row: the legacy path, the flat path, and the ratio.
#[derive(Serialize)]
struct Row {
    bench: String,
    baseline: String,
    baseline_ns_per_op: f64,
    flat_ns_per_op: f64,
    speedup: f64,
    ops: u64,
}

/// Best-of-`repeats` wall time of `f`, in ns per `ops` operations.
fn time_ns_per_op(repeats: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / ops as f64
}

fn tup(stream: usize, seq: u64, a: u64, b: u64) -> Tuple {
    Tuple::new(
        StreamId(stream),
        VTime::ZERO,
        SeqNo(seq),
        vec![Value(a), Value(b)],
    )
}

// ---------------------------------------------------------------------------
// Legacy store replica: the exact pre-rewrite layout. One heap-allocated
// `index_pos` per entry, `HashMap<Value, Vec<Slot>>` per indexed attribute,
// and a priority heap whose position map is a `HashMap<Slot, usize>` — the
// layout `IndexedHeap` had before its positions were flattened to a vector.

struct LegacyHeap {
    heap: Vec<(Slot, f64, u64)>,
    positions: HashMap<Slot, usize>,
}

impl LegacyHeap {
    fn new() -> Self {
        LegacyHeap {
            heap: Vec::new(),
            positions: HashMap::new(),
        }
    }

    fn less(a: &(Slot, f64, u64), b: &(Slot, f64, u64)) -> bool {
        (a.1, a.2) < (b.1, b.2)
    }

    fn insert(&mut self, slot: Slot, score: f64, tie: u64) {
        let pos = self.heap.len();
        self.heap.push((slot, score, tie));
        self.positions.insert(slot, pos);
        self.sift_up(pos);
    }

    fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.first().map(|&(s, score, _)| (s, score))
    }

    fn remove(&mut self, slot: Slot) {
        let pos = self.positions.remove(&slot).expect("slot in heap");
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos <= last && pos < self.heap.len() {
            self.positions.insert(self.heap[pos].0, pos);
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !Self::less(&self.heap[pos], &self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.positions.insert(self.heap[pos].0, pos);
            self.positions.insert(self.heap[parent].0, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let (l, r) = (2 * pos + 1, 2 * pos + 2);
            let mut min = pos;
            if l < self.heap.len() && Self::less(&self.heap[l], &self.heap[min]) {
                min = l;
            }
            if r < self.heap.len() && Self::less(&self.heap[r], &self.heap[min]) {
                min = r;
            }
            if min == pos {
                break;
            }
            self.heap.swap(pos, min);
            self.positions.insert(self.heap[pos].0, pos);
            self.positions.insert(self.heap[min].0, min);
            pos = min;
        }
    }
}

struct LegacyEntry {
    tuple: Tuple,
    index_pos: Vec<u32>,
}

struct LegacyStore {
    join_attrs: Vec<usize>,
    arena: Arena<LegacyEntry>,
    indexes: Vec<HashMap<Value, Vec<Slot>>>,
    heap: LegacyHeap,
}

impl LegacyStore {
    fn new(join_attrs: Vec<usize>) -> Self {
        let n = join_attrs.len();
        LegacyStore {
            join_attrs,
            arena: Arena::new(),
            indexes: (0..n).map(|_| HashMap::new()).collect(),
            heap: LegacyHeap::new(),
        }
    }

    fn insert(&mut self, tuple: Tuple, score: f64) -> Slot {
        let tie = tuple.seq.0;
        let n_idx = self.join_attrs.len();
        let slot = self.arena.insert(LegacyEntry {
            tuple,
            index_pos: vec![0; n_idx],
        });
        for a in 0..n_idx {
            let value = self.arena.get(slot).unwrap().tuple.values[self.join_attrs[a]];
            let bucket = self.indexes[a].entry(value).or_default();
            let pos = bucket.len() as u32;
            bucket.push(slot);
            self.arena.get_mut(slot).unwrap().index_pos[a] = pos;
        }
        self.heap.insert(slot, score, tie);
        slot
    }

    fn evict_min(&mut self) -> Option<Tuple> {
        let (slot, _) = self.heap.peek_min()?;
        let entry = self.arena.remove(slot).expect("heap entries live");
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let value = entry.tuple.values[attr];
            let bucket = self.indexes[a].get_mut(&value).expect("indexed");
            let pos = entry.index_pos[a] as usize;
            bucket.swap_remove(pos);
            if let Some(&moved) = bucket.get(pos) {
                self.arena.get_mut(moved).unwrap().index_pos[a] = pos as u32;
            }
            if bucket.is_empty() {
                self.indexes[a].remove(&value);
            }
        }
        self.heap.remove(slot);
        Some(entry.tuple)
    }
}

/// Steady-state insert+evict churn: every insert over capacity pays one
/// min-eviction, exercising index insert, swap-remove and heap traffic.
fn bench_insert_evict(capacity: usize, churn: usize, repeats: usize, seed: u64) -> Row {
    let domain = (capacity as u64 / 16).max(4);
    let mk_batch = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..capacity + churn)
            .map(|i| {
                (
                    tup(0, i as u64, rng.gen_range(0..domain), rng.gen_range(0..domain)),
                    rng.gen::<f64>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let batch = mk_batch(seed);
    let run_flat = || {
        let mut w = WindowStore::new(WindowSpec::secs(1 << 20), vec![0, 1], capacity);
        for (t, score) in &batch {
            black_box(w.insert(t.clone(), *score));
        }
        black_box(w.len());
    };
    let run_legacy = || {
        let mut w = LegacyStore::new(vec![0, 1]);
        for (t, score) in &batch {
            w.insert(t.clone(), *score);
            if w.arena.len() > capacity {
                black_box(w.evict_min());
            }
        }
        black_box(w.arena.len());
    };
    run_flat();
    run_legacy();
    let flat = time_ns_per_op(repeats, batch.len() as u64, run_flat);
    let base = time_ns_per_op(repeats, batch.len() as u64, run_legacy);
    Row {
        bench: format!("insert_evict_cap{capacity}"),
        baseline: "HashMap<Value,Vec<Slot>> store replica".to_string(),
        baseline_ns_per_op: base,
        flat_ns_per_op: flat,
        speedup: base / flat,
        ops: batch.len() as u64,
    }
}

/// Raw index probe throughput: FlatIndex vs the legacy HashMap index, same
/// contents, verified equal before timing.
fn bench_index_probe(n_slots: usize, probes: usize, repeats: usize, seed: u64) -> Row {
    let domain = (n_slots as u64 / 8).max(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena: Arena<u64> = Arena::new();
    let mut flat = FlatIndex::new();
    let mut legacy: HashMap<Value, Vec<Slot>> = HashMap::new();
    for i in 0..n_slots {
        let key = rng.gen_range(0..domain);
        let slot = arena.insert(i as u64);
        flat.insert(key, slot);
        legacy.entry(Value(key)).or_default().push(slot);
    }
    for k in 0..domain {
        let got: Vec<Slot> = flat.probe(k).iter().collect();
        let want = legacy.get(&Value(k)).cloned().unwrap_or_default();
        assert_eq!(got, want, "index contents diverge at key {k}");
    }
    let keys: Vec<u64> = (0..probes).map(|_| rng.gen_range(0..domain)).collect();
    let run_flat = || {
        let mut total = 0usize;
        for &k in &keys {
            total += flat.probe(black_box(k)).len();
        }
        black_box(total);
    };
    let run_legacy = || {
        let mut total = 0usize;
        for &k in &keys {
            total += legacy.get(&Value(black_box(k))).map_or(0, Vec::len);
        }
        black_box(total);
    };
    run_flat();
    run_legacy();
    let flat_ns = time_ns_per_op(repeats, probes as u64, run_flat);
    let base_ns = time_ns_per_op(repeats, probes as u64, run_legacy);
    Row {
        bench: format!("index_probe_{n_slots}slots"),
        baseline: "HashMap<Value,Vec<Slot>>".to_string(),
        baseline_ns_per_op: base_ns,
        flat_ns_per_op: flat_ns,
        speedup: base_ns / flat_ns,
        ops: probes as u64,
    }
}

fn main() {
    let a = Args::from_env();
    let quick = a.has_flag("--quick");
    let repeats = if quick { 3 } else { 5 };
    let (cap, churn) = if quick { (1_024, 4_096) } else { (4_096, 65_536) };
    let (idx_slots, idx_probes) = if quick {
        (4_096, 100_000)
    } else {
        (16_384, 2_000_000)
    };

    let rows = vec![
        bench_insert_evict(cap, churn, repeats, a.seed + 4),
        bench_index_probe(idx_slots, idx_probes, repeats, a.seed + 5),
    ];

    let header: Vec<String> = ["bench", "baseline ns/op", "flat ns/op", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.clone(),
                format!("{:.1}", r.baseline_ns_per_op),
                format!("{:.1}", r.flat_ns_per_op),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    table::print_table("eviction/index hot path: legacy vs flat", &header, &cells);
    args::maybe_dump_json(&a.json, &rows);
}
