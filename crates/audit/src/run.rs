//! The differential runner: engine vs oracle, per policy, per memory mode,
//! with per-arrival structural invariant checks.

use crate::gen::{Arrival, Case, ReducedMemory};
use mstream_core::ingest::FnSink;
use mstream_core::shard::{Backpressure, HotKeyConfig, ShardConfig};
use mstream_core::{EngineBuilder, EngineMetrics};
use mstream_join::{Bindings, ExactJoin};
use mstream_shed_policies::{parse_policy, ALL_POLICY_NAMES};
use mstream_sketch::BankConfig;
use mstream_types::{Partitioning, Row, SeqNo, StreamId, Tuple, VTime, Value};
use mstream_window::{QueueVictim, ShedQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What contract a failing case violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// At 100% memory the engine's result multiset differed from the
    /// exact join's.
    ExactMismatch,
    /// Under reduced memory the engine emitted a result the oracle never
    /// produced (shed output must be a sub-multiset of exact output).
    NotSubMultiset,
    /// A structural invariant check (or any engine internals) panicked.
    InvariantPanic,
    /// The standalone [`ShedQueue`] churn audit panicked.
    QueuePanic,
    /// The sharded engine violated its partitioning contract: wrong shard
    /// count, missing/spurious degrade reason, or channel drops under
    /// blocking backpressure.
    ShardContract,
    /// The event-time front end broke a disorder contract: a `K = 0`
    /// in-order run diverged from the trusting engine, a covered-disorder
    /// run failed to reproduce the in-order output, or a beyond-bound
    /// arrival was not dropped-and-counted cleanly.
    DisorderContract,
    /// A score-cache A/B pair diverged: with the productivity score cache
    /// forced on, the engine emitted different rows or different
    /// (cache/ns-normalized) metrics than with it forced off. The memo is
    /// supposed to be a pure evaluation shortcut (DESIGN.md §16).
    ScoreCacheDivergence,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::ExactMismatch => "exact-mismatch (100% memory)",
            FailureKind::NotSubMultiset => "not-a-sub-multiset (reduced memory)",
            FailureKind::InvariantPanic => "invariant-violation",
            FailureKind::QueuePanic => "queue-invariant-violation",
            FailureKind::ShardContract => "shard-contract-violation",
            FailureKind::DisorderContract => "disorder-contract-violation (event time)",
            FailureKind::ScoreCacheDivergence => "score-cache-divergence (on/off A/B)",
        };
        f.write_str(s)
    }
}

/// A reproducible audit failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Policy under which the failure surfaced (empty for the queue audit).
    pub policy: String,
    /// Violated contract.
    pub kind: FailureKind,
    /// Human-readable specifics (first differing row, panic message, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.policy.is_empty() {
            write!(f, "{}: {}", self.kind, self.detail)
        } else {
            write!(f, "[{}] {}: {}", self.policy, self.kind, self.detail)
        }
    }
}

/// One canonical result row: per-stream `(seq, values…)` flattened in
/// stream order. Two executors agree byte-for-byte on a match exactly when
/// these rows are equal, because sequence numbers are assigned identically
/// (0, 1, 2, … in arrival order) by both.
pub(crate) fn row(b: &Bindings<'_>, n: usize) -> Vec<u64> {
    let mut r = Vec::with_capacity(n * 3);
    for k in 0..n {
        let t = b.tuple(StreamId(k));
        r.push(t.seq.0);
        r.extend(t.values.iter().map(|v| v.0));
    }
    r
}

/// Runs the full differential audit for `case`.
pub fn run_case(case: &Case) -> Result<(), Failure> {
    run_case_on(case, &case.arrivals)
}

/// Runs the differential audit for `case` restricted to `arrivals` (the
/// shrinker re-enters here with progressively smaller traces).
pub fn run_case_on(case: &Case, arrivals: &[Arrival]) -> Result<(), Failure> {
    let n = case.n_streams();

    let mut oracle = ExactJoin::new(case.query.clone());
    let mut oracle_rows: Vec<Vec<u64>> = Vec::new();
    for a in arrivals {
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        oracle.process_each(
            StreamId(a.stream),
            values,
            VTime::from_micros(a.at_micros),
            |b| oracle_rows.push(row(b, n)),
        );
    }
    oracle_rows.sort();

    for &name in ALL_POLICY_NAMES {
        let full = drive_engine(case, arrivals, name, true)?;
        if full != oracle_rows {
            return Err(Failure {
                policy: name.into(),
                kind: FailureKind::ExactMismatch,
                detail: first_diff(&full, &oracle_rows),
            });
        }
        let shed = drive_engine(case, arrivals, name, false)?;
        if let Some(extra) = not_in_multiset(&shed, &oracle_rows) {
            return Err(Failure {
                policy: name.into(),
                kind: FailureKind::NotSubMultiset,
                detail: format!("shed run emitted a row the oracle never did: {extra:?}"),
            });
        }
    }

    // The sharded engine must honour the same two contracts (plus its
    // partitioning metadata) for a deterministic and a sketch policy.
    for name in ["MSketch", "FIFO"] {
        let label = format!("{name}@x{}", case.shards);
        let full = drive_sharded(case, arrivals, name, true)?;
        if full != oracle_rows {
            return Err(Failure {
                policy: label.clone(),
                kind: FailureKind::ExactMismatch,
                detail: first_diff(&full, &oracle_rows),
            });
        }
        let shed = drive_sharded(case, arrivals, name, false)?;
        if let Some(extra) = not_in_multiset(&shed, &oracle_rows) {
            return Err(Failure {
                policy: label,
                kind: FailureKind::NotSubMultiset,
                detail: format!("sharded shed run emitted a row the oracle never did: {extra:?}"),
            });
        }
    }

    queue_audit(case, arrivals)
}

/// Strips the metric fields that legitimately differ between a
/// score-cache-on and score-cache-off run of the same trace: the
/// wall-clock stage timers, the score-cache counters themselves, and the
/// packed-sign cache counters (a score-cache hit skips the packed-sign
/// computation entirely, so sign traffic diverges by design). Everything
/// else — shed counts, emissions, replication, late drops — must match
/// bit for bit.
pub(crate) fn normalized_metrics(m: &EngineMetrics) -> EngineMetrics {
    let mut m = m.clone();
    m.sketch_observe_ns = 0;
    m.priority_rebuild_ns = 0;
    m.score_ns = 0;
    m.sign_cache_hits = 0;
    m.sign_cache_misses = 0;
    m.score_cache_hits = 0;
    m.score_cache_misses = 0;
    m
}

/// Runs one (policy, memory-mode) configuration. On a plain case this is
/// a single engine run; on a `cache_ab` case the trace is driven twice —
/// productivity score cache forced on, then forced off — and any
/// divergence in rows or normalized metrics is a
/// [`FailureKind::ScoreCacheDivergence`].
fn drive_engine(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    full_memory: bool,
) -> Result<Vec<Vec<u64>>, Failure> {
    if !case.cache_ab {
        return Ok(drive_engine_with(case, arrivals, policy, full_memory, None)?.0);
    }
    let (rows_on, metrics_on) = drive_engine_with(case, arrivals, policy, full_memory, Some(true))?;
    let (rows_off, metrics_off) =
        drive_engine_with(case, arrivals, policy, full_memory, Some(false))?;
    let fail = |detail: String| Failure {
        policy: policy.into(),
        kind: FailureKind::ScoreCacheDivergence,
        detail,
    };
    if rows_on != rows_off {
        return Err(fail(format!(
            "emissions diverge (memory {}): {}",
            if full_memory { "full" } else { "reduced" },
            first_diff(&rows_on, &rows_off)
        )));
    }
    if normalized_metrics(&metrics_on) != normalized_metrics(&metrics_off) {
        return Err(fail(format!(
            "normalized metrics diverge (memory {}): on {:?} vs off {:?}",
            if full_memory { "full" } else { "reduced" },
            normalized_metrics(&metrics_on),
            normalized_metrics(&metrics_off)
        )));
    }
    Ok(rows_on)
}

/// Builds the engine for one (policy, memory-mode) run and drives the
/// trace through it, collecting canonical rows and re-checking structural
/// invariants after every arrival. Panics anywhere inside the engine are
/// converted into [`FailureKind::InvariantPanic`]. `cache` pins the
/// productivity score cache on/off for this instance (`None` leaves the
/// default, on).
fn drive_engine_with(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    full_memory: bool,
    cache: Option<bool>,
) -> Result<(Vec<Vec<u64>>, EngineMetrics), Failure> {
    let n = case.n_streams();
    let fail = |detail: String, kind| Failure {
        policy: policy.into(),
        kind,
        detail,
    };
    let mut builder = configured_builder(case, arrivals, policy, full_memory);
    if let Some(on) = cache {
        builder = builder.score_cache(on);
    }
    let mut engine = builder
        .build()
        .map_err(|e| fail(format!("engine construction failed: {e:?}"), FailureKind::InvariantPanic))?;

    let mut rows = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        let now = VTime::from_micros(a.at_micros);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let tuple = engine.mint(mstream_core::Arrival::new(StreamId(a.stream), values, now));
            engine.ingest_tuple(tuple, now, &mut FnSink(|b: &Bindings<'_>| rows.push(row(b, n))));
            engine.check_invariants();
        }));
        if let Err(payload) = outcome {
            return Err(fail(
                format!("arrival #{i}: {}", panic_message(&payload)),
                FailureKind::InvariantPanic,
            ));
        }
    }
    rows.sort();
    let metrics = engine.metrics().clone();
    Ok((rows, metrics))
}

/// The shared [`EngineBuilder`] setup for one (policy, memory-mode) run:
/// explicit epoch and sketch bank, case-seeded determinism, and the case's
/// reduced-memory discipline (full-memory runs size every window to hold
/// the whole trace).
fn configured_builder(
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

/// Drives the trace through a [`mstream_core::ShardedJoinEngine`] at the
/// case's shard count, checks the partitioning contract (real fan-out on
/// partitionable queries, broadcast execution at full width otherwise, no
/// drops under blocking backpressure), and returns the merged canonical
/// rows. The hot-key detector runs with an aggressive decision cadence so
/// even these short traces promote and split heavy hitters (the Zipf-hot
/// case class guarantees skewed inputs every sweep).
fn drive_sharded(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    full_memory: bool,
) -> Result<Vec<Vec<u64>>, Failure> {
    if !case.cache_ab {
        return Ok(drive_sharded_with(case, arrivals, policy, full_memory, None)?.0);
    }
    let (rows_on, metrics_on) =
        drive_sharded_with(case, arrivals, policy, full_memory, Some(true))?;
    let (rows_off, metrics_off) =
        drive_sharded_with(case, arrivals, policy, full_memory, Some(false))?;
    let fail = |detail: String| Failure {
        policy: format!("{policy}@x{}", case.shards),
        kind: FailureKind::ScoreCacheDivergence,
        detail,
    };
    if rows_on != rows_off {
        return Err(fail(format!(
            "sharded emissions diverge (memory {}): {}",
            if full_memory { "full" } else { "reduced" },
            first_diff(&rows_on, &rows_off)
        )));
    }
    if normalized_metrics(&metrics_on) != normalized_metrics(&metrics_off) {
        return Err(fail(format!(
            "sharded normalized metrics diverge (memory {}): on {:?} vs off {:?}",
            if full_memory { "full" } else { "reduced" },
            normalized_metrics(&metrics_on),
            normalized_metrics(&metrics_off)
        )));
    }
    Ok(rows_on)
}

/// The single-run body behind [`drive_sharded`]: returns the merged rows
/// plus the combined cross-shard metrics so the A/B wrapper can compare
/// both. `cache` pins the score cache for every worker in the instance.
fn drive_sharded_with(
    case: &Case,
    arrivals: &[Arrival],
    policy: &str,
    full_memory: bool,
    cache: Option<bool>,
) -> Result<(Vec<Vec<u64>>, EngineMetrics), Failure> {
    let fail = |detail: String, kind| Failure {
        policy: format!("{policy}@x{}", case.shards),
        kind,
        detail,
    };
    let mut builder = configured_builder(case, arrivals, policy, full_memory);
    if let Some(on) = cache {
        builder = builder.score_cache(on);
    }
    if full_memory {
        // The shard layer splits the budget S ways; skewed routing may put
        // most tuples on one shard, so "full memory" must survive the
        // worst case: the whole trace landing on a single worker.
        builder = builder.capacity_per_window((arrivals.len() + 1) * case.shards);
    }
    let mut engine = builder
        .shard_config(ShardConfig {
            shards: case.shards,
            channel_capacity: 4,
            batch_size: 3, // deliberately small: exercises mid-trace flushes
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
        .map_err(|e| fail(format!("sharded construction failed: {e:?}"), FailureKind::InvariantPanic))?;

    match case.query.partitioning() {
        Partitioning::ByKey { .. } => {
            if engine.shards() != case.shards || engine.degraded().is_some() {
                return Err(fail(
                    format!(
                        "partitionable query ran on {} shards (requested {}), degraded: {:?}",
                        engine.shards(),
                        case.shards,
                        engine.degraded()
                    ),
                    FailureKind::ShardContract,
                ));
            }
        }
        Partitioning::Single { .. } => {
            if engine.shards() != case.shards || engine.degraded().is_some() {
                return Err(fail(
                    format!(
                        "non-partitionable query must run broadcast at {} shards; got {} shards, degraded: {:?}",
                        case.shards,
                        engine.shards(),
                        engine.degraded()
                    ),
                    FailureKind::ShardContract,
                ));
            }
        }
    }

    let expect_shards = engine.shards();
    let expect_degraded = engine.degraded().map(str::to_owned);
    for a in arrivals {
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        engine.ingest(mstream_core::Arrival::new(
            StreamId(a.stream),
            values,
            VTime::from_micros(a.at_micros),
        ));
    }
    let report = engine
        .finish()
        .map_err(|e| fail(format!("{e}"), FailureKind::InvariantPanic))?;
    if report.shed_channel != 0 {
        return Err(fail(
            format!("{} tuples dropped under Backpressure::Block", report.shed_channel),
            FailureKind::ShardContract,
        ));
    }
    if report.combined.shards != expect_shards
        || report.combined.degraded != expect_degraded
        || report.per_shard.len() != expect_shards
    {
        return Err(fail(
            format!(
                "merged report disagrees with the engine: shards {} vs {}, degraded {:?} vs {:?}, {} per-shard entries",
                report.combined.shards,
                expect_shards,
                report.combined.degraded,
                expect_degraded,
                report.per_shard.len()
            ),
            FailureKind::ShardContract,
        ));
    }

    let n = case.n_streams();
    let mut rows: Vec<Vec<u64>> = report
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
    rows.sort();
    Ok((rows, report.combined.metrics))
}

/// Exercises [`ShedQueue`] with a seeded churn of offers and pops derived
/// from the case trace, re-checking its invariants after every operation.
fn queue_audit(case: &Case, arrivals: &[Arrival]) -> Result<(), Failure> {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xA5A5_5A5A_A5A5_5A5A);
    let capacity = rng.gen_range(1..6usize);
    let mut queue = ShedQueue::new(capacity);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for (i, a) in arrivals.iter().enumerate() {
            let tuple = Tuple::new(
                StreamId(a.stream),
                VTime::from_micros(a.at_micros),
                SeqNo(i as u64),
                a.values.iter().map(|&v| Value(v)).collect::<Row>(),
            );
            let mode = match rng.gen_range(0..3u8) {
                0 => QueueVictim::MinPriority,
                1 => QueueVictim::Random,
                _ => QueueVictim::Oldest,
            };
            let score = rng.gen_range(0.0..100.0f64);
            queue.offer(tuple, score, mode, &mut rng);
            queue.check_invariants();
            if rng.gen_bool(0.3) {
                let _ = queue.pop_front();
                queue.check_invariants();
            }
        }
    }));
    outcome.map_err(|payload| Failure {
        policy: String::new(),
        kind: FailureKind::QueuePanic,
        detail: format!("capacity {capacity}: {}", panic_message(&payload)),
    })
}

/// Last panic rendered by the [`install_quiet_hook`] hook (message +
/// source location), for reports where the payload itself is opaque.
static LAST_PANIC: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

/// Replaces the default panic hook with one that stays quiet (the
/// shrinker re-triggers failures dozens of times) but records each panic's
/// message and location for the audit report. Call once before auditing.
pub fn install_quiet_hook() {
    std::panic::set_hook(Box::new(|info| {
        *LAST_PANIC.lock().unwrap() = Some(info.to_string());
    }));
}

/// Extracts the human-readable message from a caught panic: the payload
/// string if it has one, else whatever [`install_quiet_hook`] recorded.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(rendered) = LAST_PANIC.lock().unwrap().take() {
        rendered
    } else {
        "non-string panic payload".into()
    }
}

/// Describes the first discrepancy between two sorted row multisets.
pub(crate) fn first_diff(got: &[Vec<u64>], want: &[Vec<u64>]) -> String {
    if got.len() != want.len() {
        return format!(
            "row count {} vs oracle {} (first engine row missing from oracle / vice versa: {:?})",
            got.len(),
            want.len(),
            got.iter().find(|r| !want.contains(r)).or_else(|| want.iter().find(|r| !got.contains(r)))
        );
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            return format!("first divergent row: engine {g:?} vs oracle {w:?}");
        }
    }
    "multisets differ in an unlocated way".into()
}

/// Returns a row of `small` that exceeds its multiplicity in `big`, if any.
pub(crate) fn not_in_multiset(small: &[Vec<u64>], big: &[Vec<u64>]) -> Option<Vec<u64>> {
    let mut budget: HashMap<&[u64], i64> = HashMap::new();
    for r in big {
        *budget.entry(r.as_slice()).or_insert(0) += 1;
    }
    for r in small {
        let b = budget.entry(r.as_slice()).or_insert(0);
        *b -= 1;
        if *b < 0 {
            return Some(r.clone());
        }
    }
    None
}
