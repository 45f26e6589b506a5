//! Event-time disorder audit: bounded-shuffle injection and the recovery
//! contracts of the reorder-buffer front end (DESIGN.md §13).
//!
//! Three contracts, checked per case across every registered policy:
//!
//! 1. **`K = 0` in-order identity** — an engine with a zero disorder bound
//!    fed the in-order trace must be *bit-identical* to the trusting
//!    (no-front-end) engine: same result rows in the same emit order.
//! 2. **Covered-disorder recovery** — shuffling the trace with lateness
//!    bounded by `K` and feeding it to an engine with disorder bound `K`
//!    must reproduce the in-order run exactly (again bit-identical, for
//!    every policy including `Random`: the front end replays the in-order
//!    arrival sequence, so every RNG draw happens in the same order).
//! 3. **Beyond-bound lateness** — an arrival later than `K` is dropped and
//!    counted in `late_dropped`, never joined, and never a panic: the run's
//!    output stays identical to one that never saw the late arrival.
//!
//! The sharded engine (coordinator-side front end) is held to contract 2
//! against its own in-order run at `S = 1` and the case's shard count, so a
//! sweep covers `S ∈ {1, 2, 4}`.

use crate::gen::{Arrival, Case, ReducedMemory};
use crate::run::{first_diff, normalized_metrics, panic_message, row, Failure, FailureKind};
use mstream_core::ingest::FnSink;
use mstream_core::shard::{Backpressure, HotKeyConfig, ShardConfig};
use mstream_core::{EngineBuilder, EngineMetrics};
use mstream_join::Bindings;
use mstream_shed_policies::{parse_policy, ALL_POLICY_NAMES};
use mstream_sketch::BankConfig;
use mstream_types::{StreamId, VDur, VTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reorders `arrivals` with per-arrival lateness bounded by `bound`,
/// keeping every maximal run of equal timestamps atomic (in original
/// order).
///
/// Each equal-timestamp group gets a random jitter in `[0, bound]` added to
/// its sort key, and groups are stably reordered by `(key, original
/// index)`. If group `h` is delivered before group `g`, then `ts(h) ≤
/// key(h) ≤ key(g) ≤ ts(g) + bound` — so when `g` arrives, every stream's
/// high-water mark is at most `ts(g) + bound`, the watermark is at most
/// `ts(g)`, and `g` is always accepted: the shuffle never exceeds the
/// disorder bound it was built for. Group atomicity matters because the
/// front end breaks equal-timestamp ties by admission order; delivering a
/// group intact replays the in-order tie order exactly.
pub fn inject_disorder(arrivals: &[Arrival], bound: VDur, seed: u64) -> Vec<Arrival> {
    if bound.is_zero() {
        return arrivals.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<(u64, usize, &[Arrival])> = Vec::new();
    let mut i = 0;
    while i < arrivals.len() {
        let ts = arrivals[i].at_micros;
        let mut j = i;
        while j < arrivals.len() && arrivals[j].at_micros == ts {
            j += 1;
        }
        let jitter = rng.gen_range(0..=bound.as_micros());
        groups.push((ts + jitter, groups.len(), &arrivals[i..j]));
        i = j;
    }
    groups.sort_by_key(|&(key, idx, _)| (key, idx));
    groups
        .into_iter()
        .flat_map(|(_, _, g)| g.iter().cloned())
        .collect()
}

/// The per-case disorder bound: seeded off the case so sweeps cover a
/// spread from sub-second to multi-second (relative to the generator's
/// up-to-2s clock steps, that spans "barely disordered" to "heavily
/// interleaved").
pub fn disorder_bound_for(case: &Case) -> VDur {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xD15_0B0D);
    VDur::from_micros(rng.gen_range(100_000..6_000_000u64))
}

/// Runs the event-time disorder audit for `case`.
pub fn run_disorder_case(case: &Case) -> Result<(), Failure> {
    let bound = disorder_bound_for(case);
    let shuffled = inject_disorder(&case.arrivals, bound, case.seed ^ 0x5EED_5EED);

    for &name in ALL_POLICY_NAMES {
        for full_memory in [true, false] {
            let mem = if full_memory { "full" } else { "reduced" };
            let baseline = drive(case, &case.arrivals, name, None, full_memory)?;
            let k0 = drive(
                case,
                &case.arrivals,
                name,
                Some(VDur::from_micros(0)),
                full_memory,
            )?;
            if k0.rows != baseline.rows {
                return Err(Failure {
                    policy: name.into(),
                    kind: FailureKind::DisorderContract,
                    detail: format!(
                        "K=0 in-order run diverged from the trusting engine ({mem} memory): {}",
                        first_diff(&k0.rows, &baseline.rows)
                    ),
                });
            }
            let recovered = drive(case, &shuffled, name, Some(bound), full_memory)?;
            if recovered.rows != baseline.rows {
                return Err(Failure {
                    policy: name.into(),
                    kind: FailureKind::DisorderContract,
                    detail: format!(
                        "covered disorder (K = {:.3}s) failed to reproduce the in-order run \
                         ({mem} memory): {}",
                        bound.as_secs_f64(),
                        first_diff(&recovered.rows, &baseline.rows)
                    ),
                });
            }
            if recovered.late_dropped != 0 {
                return Err(Failure {
                    policy: name.into(),
                    kind: FailureKind::DisorderContract,
                    detail: format!(
                        "covered disorder late-dropped {} arrivals (lateness was bounded by K)",
                        recovered.late_dropped
                    ),
                });
            }
        }
    }

    late_drop_probe(case, &shuffled, bound)?;

    // The sharded coordinator's front end: covered disorder must reproduce
    // the sharded engine's own in-order output at S = 1 and the case's
    // shard count (sweeps thus cover S ∈ {1, 2, 4}).
    for name in ["MSketch", "FIFO"] {
        for shards in [1, case.shards] {
            let baseline = drive_sharded(case, &case.arrivals, name, None, shards)?;
            let recovered = drive_sharded(case, &shuffled, name, Some(bound), shards)?;
            if recovered != baseline {
                return Err(Failure {
                    policy: format!("{name}@x{shards}"),
                    kind: FailureKind::DisorderContract,
                    detail: format!(
                        "sharded covered disorder (K = {:.3}s) diverged from the in-order run: {}",
                        bound.as_secs_f64(),
                        first_diff(&recovered, &baseline)
                    ),
                });
            }
        }
    }

    Ok(())
}

/// One single-engine drive's observables: result rows in emit order (the
/// bit-identity comparisons need order, not just the multiset), the final
/// late-drop counter, and the full engine metrics (the score-cache A/B
/// compares their cache/ns-normalized form).
struct Drive {
    rows: Vec<Vec<u64>>,
    late_dropped: u64,
    metrics: EngineMetrics,
}

/// Drives `arrivals` through a single engine. On a `cache_ab` case with
/// the event-time front end engaged, the trace runs twice — score cache
/// forced on and off — and must be bit-identical; this is the only audit
/// path that exercises the cache's previous-epoch (`generation - 1`)
/// keying, because late-released arrivals score against frozen prior
/// sketches via `productivity_at`.
fn drive(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    disorder: Option<VDur>,
    full_memory: bool,
) -> Result<Drive, Failure> {
    if !(case.cache_ab && disorder.is_some()) {
        return drive_with(case, arrivals, policy, disorder, full_memory, None);
    }
    let on = drive_with(case, arrivals, policy, disorder, full_memory, Some(true))?;
    let off = drive_with(case, arrivals, policy, disorder, full_memory, Some(false))?;
    let fail = |detail: String| Failure {
        policy: policy.into(),
        kind: FailureKind::ScoreCacheDivergence,
        detail,
    };
    if on.rows != off.rows {
        return Err(fail(format!(
            "event-time emissions diverge: {}",
            first_diff(&on.rows, &off.rows)
        )));
    }
    if on.late_dropped != off.late_dropped
        || normalized_metrics(&on.metrics) != normalized_metrics(&off.metrics)
    {
        return Err(fail(format!(
            "event-time normalized metrics diverge: on {:?} vs off {:?}",
            normalized_metrics(&on.metrics),
            normalized_metrics(&off.metrics)
        )));
    }
    Ok(on)
}

/// The single-run body behind [`drive`]: the public ingest path (front
/// end included when `disorder` is set) plus the end-of-trace flush,
/// re-checking structural invariants after every arrival. `cache` pins
/// the productivity score cache for this instance.
fn drive_with(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    disorder: Option<VDur>,
    full_memory: bool,
    cache: Option<bool>,
) -> Result<Drive, Failure> {
    let n = case.n_streams();
    let fail = |detail: String| Failure {
        policy: policy.into(),
        kind: FailureKind::InvariantPanic,
        detail,
    };
    let mut builder = configured(case, arrivals, policy, full_memory);
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    if let Some(on) = cache {
        builder = builder.score_cache(on);
    }
    let mut engine = builder
        .build()
        .map_err(|e| fail(format!("engine construction failed: {e:?}")))?;
    let mut rows = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        let now = VTime::from_micros(a.at_micros);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine.ingest(
                mstream_core::Arrival::new(StreamId(a.stream), values, now),
                &mut FnSink(|b: &Bindings<'_>| rows.push(row(b, n))),
            );
            engine.check_invariants();
        }));
        if let Err(payload) = outcome {
            return Err(fail(format!("arrival #{i}: {}", panic_message(&payload))));
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.flush(&mut FnSink(|b: &Bindings<'_>| rows.push(row(b, n))));
        engine.check_invariants();
    }));
    if let Err(payload) = outcome {
        return Err(fail(format!("flush: {}", panic_message(&payload))));
    }
    let metrics = engine.metrics().clone();
    Ok(Drive {
        rows,
        late_dropped: metrics.late_dropped,
        metrics,
    })
}

/// Contract 3: an arrival later than the bound is dropped, counted, and
/// has zero effect on the output. Appends a timestamp-zero arrival to the
/// shuffled trace — provably beyond the bound whenever every stream's
/// high-water mark has cleared it — and asserts the run still reproduces
/// the unpolluted baseline with exactly one late drop. Cases whose traces
/// cannot force a drop (a stream's high-water mark never clears the bound)
/// skip the probe.
fn late_drop_probe(case: &Case, shuffled: &[Arrival], bound: VDur) -> Result<(), Failure> {
    let n = case.n_streams();
    let mut hwm = vec![0u64; n];
    for a in shuffled {
        hwm[a.stream] = hwm[a.stream].max(a.at_micros);
    }
    let min_hwm = hwm.iter().copied().min().unwrap_or(0);
    if min_hwm <= bound.as_micros() {
        return Ok(());
    }
    let mut polluted = shuffled.to_vec();
    polluted.push(Arrival {
        stream: 0,
        values: vec![0, 0],
        at_micros: 0,
    });
    for name in ["MSketch", "FIFO"] {
        let baseline = drive(case, shuffled, name, Some(bound), true)?;
        let run = drive(case, &polluted, name, Some(bound), true)?;
        if run.late_dropped != 1 {
            return Err(Failure {
                policy: name.into(),
                kind: FailureKind::DisorderContract,
                detail: format!(
                    "beyond-bound arrival counted {} late drops (expected exactly 1)",
                    run.late_dropped
                ),
            });
        }
        if run.rows != baseline.rows {
            return Err(Failure {
                policy: name.into(),
                kind: FailureKind::DisorderContract,
                detail: format!(
                    "a dropped late arrival still changed the output: {}",
                    first_diff(&run.rows, &baseline.rows)
                ),
            });
        }
    }
    Ok(())
}

/// Drives `arrivals` through the sharded engine (coordinator front end
/// when `disorder` is set) at full memory, returning the canonical merged
/// rows.
fn drive_sharded(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    disorder: Option<VDur>,
    shards: usize,
) -> Result<Vec<Vec<u64>>, Failure> {
    let fail = |detail: String| Failure {
        policy: format!("{policy}@x{shards}"),
        kind: FailureKind::InvariantPanic,
        detail,
    };
    let mut builder = configured(case, arrivals, policy, true)
        // As in the exactness differential: skewed routing may land the
        // whole trace on one worker, so full memory must survive that.
        .capacity_per_window((arrivals.len() + 1) * shards);
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    let engine = builder
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 4,
            batch_size: 3,
            backpressure: Backpressure::Block,
            collect_rows: true,
            route_only: false,
            hot_keys: HotKeyConfig {
                enabled: true,
                capacity: 8,
                tracker_capacity: 64,
                epoch_arrivals: 24,
                promote_permille: 200,
                demote_permille: 100,
            },
            broadcast: true,
        })
        .build_sharded()
        .map_err(|e| fail(format!("sharded construction failed: {e:?}")))?;
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut engine = engine;
        for a in arrivals {
            let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
            engine.ingest(mstream_core::Arrival::new(
                StreamId(a.stream),
                values,
                VTime::from_micros(a.at_micros),
            ));
        }
        engine.finish()
    }));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(fail(format!("{e}"))),
        Err(payload) => return Err(fail(panic_message(&payload))),
    };
    let n = case.n_streams();
    let rows: Vec<Vec<u64>> = report
        .rows
        .expect("collect_rows was set")
        .iter()
        .map(|result| {
            let mut r = Vec::with_capacity(n * 3);
            for t in result {
                r.push(t.seq.0);
                r.extend(t.values.iter().map(|v| v.0));
            }
            r
        })
        .collect();
    Ok(rows)
}

/// The shared builder setup, mirroring the exactness differential's
/// configuration (explicit epoch, small sketch bank, case-seeded
/// determinism).
fn configured(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    full_memory: bool,
) -> EngineBuilder {
    let builder = EngineBuilder::new(case.query.clone())
        .boxed_policy(parse_policy(policy).expect("every registered policy parses"))
        .epoch(case.epoch)
        .bank(BankConfig {
            s1: 32,
            s2: 1,
            seed: case.seed,
        })
        .seed(case.seed);
    if full_memory {
        builder.capacity_per_window(arrivals.len() + 1)
    } else {
        match &case.reduced {
            ReducedMemory::PerWindow(c) => builder.capacity_per_window(*c),
            ReducedMemory::PerWindowEach(cs) => builder.capacities(cs.clone()),
            ReducedMemory::GlobalPool(total) => builder.global_pool(*total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_seed, generate_case, install_quiet_hook};

    /// The injected shuffle respects its own bound: replaying the shuffled
    /// trace against a simulated watermark never finds an arrival below it.
    #[test]
    fn injected_disorder_stays_within_the_bound() {
        for i in 0..10u64 {
            let case = generate_case(case_seed(21, i));
            let bound = disorder_bound_for(&case);
            let shuffled = inject_disorder(&case.arrivals, bound, case.seed);
            assert_eq!(shuffled.len(), case.arrivals.len());
            let mut hwm = vec![0u64; case.n_streams()];
            for a in &shuffled {
                hwm[a.stream] = hwm[a.stream].max(a.at_micros);
                let wm = hwm
                    .iter()
                    .copied()
                    .min()
                    .unwrap()
                    .saturating_sub(bound.as_micros());
                assert!(
                    a.at_micros >= wm,
                    "case {i}: arrival at {}µs below watermark {wm}µs",
                    a.at_micros
                );
            }
        }
    }

    /// Equal-timestamp groups travel atomically and in original order.
    #[test]
    fn injected_disorder_keeps_equal_timestamp_groups_atomic() {
        for i in 0..10u64 {
            let case = generate_case(case_seed(22, i));
            let bound = disorder_bound_for(&case);
            let shuffled = inject_disorder(&case.arrivals, bound, case.seed);
            // Within the shuffled trace, arrivals sharing a timestamp must
            // appear consecutively and in their original relative order.
            let originals: Vec<usize> = shuffled
                .iter()
                .map(|a| {
                    case.arrivals
                        .iter()
                        .position(|o| {
                            o.at_micros == a.at_micros
                                && o.stream == a.stream
                                && o.values == a.values
                        })
                        .expect("shuffled arrival exists in the original")
                })
                .collect();
            let mut k = 0;
            while k < shuffled.len() {
                let ts = shuffled[k].at_micros;
                let mut j = k;
                while j < shuffled.len() && shuffled[j].at_micros == ts {
                    j += 1;
                }
                // `position` maps duplicates to the first original index,
                // so within a group the mapped indices are nondecreasing
                // exactly when original order is preserved.
                for w in originals[k..j].windows(2) {
                    assert!(w[0] <= w[1], "case {i}: group order broken at ts {ts}");
                }
                k = j;
            }
        }
    }

    /// A zero bound injects nothing.
    #[test]
    fn zero_bound_is_identity() {
        let case = generate_case(case_seed(23, 0));
        let same = inject_disorder(&case.arrivals, VDur::from_micros(0), 9);
        assert_eq!(same.len(), case.arrivals.len());
        for (a, b) in same.iter().zip(&case.arrivals) {
            assert_eq!((a.stream, a.at_micros), (b.stream, b.at_micros));
        }
    }

    /// A handful of full disorder cases pass end to end.
    #[test]
    fn small_disorder_sweep_passes() {
        install_quiet_hook();
        for i in 0..2u64 {
            let case = generate_case(case_seed(31, i));
            if let Err(f) = run_disorder_case(&case) {
                panic!("disorder case {i} failed: {f}");
            }
        }
    }
}
