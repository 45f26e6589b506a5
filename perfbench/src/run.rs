//! One benchmark run of one workload: the end-to-end run (tracing off)
//! and the traced run that derives the per-layer numbers.

use crate::check::{self, median, quantile, quartile, ratio, TraceIndex};
use crate::drive::{self, Call, PassOut, PassSpec, Rows, NO_ARRIVAL};
use crate::layers;
use crate::metrics::{metric, Metric};
use crate::workload::{self, Kind, Workload, MULTI_SHAPES};
use mstream_core::mstream_workload::Trace;
use std::io::Write;
use std::time::{Duration, Instant};

/// Set-ups timed on their own before each timed pass, besides the pass's
/// own.
const SETUPS_PER_PASS: usize = 4;
/// Set-ups a traced run times span by span.
const SETUP_SAMPLES: usize = 15;
/// Fewest timed passes a run makes, whatever its time budget.
const MIN_PASSES: usize = 3;
/// Arrivals whose rows a sharded check pass collects and checks.
const SHARDED_CHECK_PREFIX: usize = 6000;

/// The result of one run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Arrivals offered in the measured passes.
    pub attempted: u64,
    /// Of those, arrivals never joined (late, channel-shed, or in a run
    /// that failed a check).
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Output-check failures.
    pub errors: Vec<String>,
}

/// Exact-join row counts for a workload's trace.
pub struct Oracle {
    /// Whole-trace count (single-query workloads).
    total: u64,
    /// `multi_churn`: per shape, counts at each churn point then at the end.
    shape_marks: Vec<Vec<u64>>,
    /// `multi_churn`: per churn step, the added query's suffix count.
    added: Vec<u64>,
}

impl Oracle {
    /// Runs the exact join(s) the workload's checks need.
    pub fn new(w: &Workload, trace: &Trace) -> Oracle {
        let n = trace.len();
        if w.kind != Kind::Multi {
            let total = workload::exact_counts(w, &workload::query(w.query), trace, 0, &[n])[0];
            return Oracle {
                total,
                shape_marks: Vec::new(),
                added: Vec::new(),
            };
        }
        let schedule = workload::churn_schedule(n);
        let marks: Vec<usize> = schedule.iter().map(|c| c.at).chain([n]).collect();
        let shapes: Vec<_> = MULTI_SHAPES.iter().map(|t| workload::query(t)).collect();
        Oracle {
            total: 0,
            shape_marks: shapes
                .iter()
                .map(|q| workload::exact_counts(w, q, trace, 0, &marks))
                .collect(),
            added: schedule
                .iter()
                .map(|c| workload::exact_counts(w, &shapes[c.add], trace, c.at, &[n])[0])
                .collect(),
        }
    }

    /// Checks a pass's row counts against the exact join.
    pub fn check(&self, w: &Workload, out: &PassOut) -> Result<(), String> {
        if w.kind != Kind::Multi {
            return check::check_within_exact(w.name, out.rows, self.total);
        }
        let at: Vec<usize> = workload::churn_schedule(out.arrivals as usize)
            .iter()
            .map(|c| c.at)
            .collect();
        for (qi, q) in out.queries.iter().enumerate() {
            let exact = if q.from == 0 {
                let mark = q.until.map_or(at.len(), |u| {
                    at.iter().position(|&a| a == u).expect("churn point")
                });
                self.shape_marks[q.shape][mark]
            } else {
                let step = at.iter().position(|&a| a == q.from).expect("churn point");
                self.added[step]
            };
            check::check_within_exact(&format!("query {qi}"), q.rows, exact)?;
        }
        Ok(())
    }

    /// Rows over exact rows. For `multi_churn`, over the queries
    /// registered for the whole run.
    pub fn recall(&self, w: &Workload, out: &PassOut) -> f64 {
        if w.kind != Kind::Multi {
            return check::recall(out.rows, self.total);
        }
        let whole = out
            .queries
            .iter()
            .filter(|q| q.from == 0 && q.until.is_none());
        let (rows, exact) = whole.fold((0, 0), |(r, e), q| {
            (
                r + q.rows,
                e + self.shape_marks[q.shape].last().expect("end mark"),
            )
        });
        check::recall(rows, exact)
    }
}

struct Ctx<'a> {
    w: &'a Workload,
    trace: &'a Trace,
    order: Vec<usize>,
    in_order: Vec<usize>,
    t0: Instant,
}

impl<'a> Ctx<'a> {
    fn spec(
        &self,
        rows: Rows,
        traced: bool,
        order: &'a [usize],
        index: Option<&'a TraceIndex<'a>>,
    ) -> PassSpec<'a> {
        PassSpec {
            w: self.w,
            trace: self.trace,
            order,
            rows,
            index,
            traced,
            t0: self.t0,
        }
    }
}

/// Compares a pass with the reference pass and with the exact join.
fn verify(
    w: &Workload,
    oracle: Option<&Oracle>,
    reference: &PassOut,
    out: &PassOut,
    errors: &mut Vec<String>,
) {
    if out.violations > 0 {
        errors.push(format!(
            "{} rows failed the output check; first: {}",
            out.violations,
            out.first_violation.as_deref().unwrap_or("?")
        ));
    }
    if out.rows != reference.rows {
        errors.push(format!(
            "passes disagree on rows: {} vs {}",
            out.rows, reference.rows
        ));
    }
    if let Some(o) = oracle {
        if let Err(e) = o.check(w, out) {
            errors.push(e);
        }
    }
}

fn ns_quantile(samples: &mut [u32], q: f64, errors: &mut Vec<String>) -> f64 {
    match quantile(samples, q) {
        Some(v) => f64::from(v) / 1000.0,
        None => {
            errors.push(format!(
                "{} latency samples cannot support p{}",
                samples.len(),
                q * 100.0
            ));
            0.0
        }
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed pass, reduced to what the end-to-end metrics need (its
/// spans are dropped, so memory does not grow with the pass count).
struct Timed {
    rate: f64,
    /// Ingest latency p50/p99/p999 of the pass, in µs.
    lat_us: [f64; 3],
    samples: usize,
}

/// The end-to-end run: tracing off, every pass checked. Each timing is
/// taken per pass and summarised over the passes (see `steady` below).
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let t0 = Instant::now();
    let trace = w.trace(seed);
    let n = trace.len();
    let ctx = Ctx {
        w,
        trace: &trace,
        order: w.delivery(n, seed),
        in_order: (0..n).collect(),
        t0,
    };
    let oracle = Oracle::new(w, &trace);
    let oracle_s = t0.elapsed().as_secs_f64();
    let mut errors = Vec::new();

    // Warm-up and reference: fingerprinted, not timed.
    let reference = drive::pass(&ctx.spec(Rows::Fingerprint, false, &ctx.order, None));
    verify(w, Some(&oracle), &reference, &reference, &mut errors);

    let reference_s = t0.elapsed().as_secs_f64() - oracle_s;
    let budget = Duration::from_secs(seconds);
    let measuring = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    let mut setup = Vec::new();
    let (mut attempted, mut not_joined) = (0, 0);
    while passes.len() < MIN_PASSES || measuring.elapsed() < budget {
        // Set-ups are sampled between passes, across the whole run.
        setup.extend(drive::setups(w, SETUPS_PER_PASS, t0));

        let out = drive::pass(&ctx.spec(Rows::Count, false, &ctx.order, None));
        verify(w, Some(&oracle), &reference, &out, &mut errors);
        setup.push((out.parse_ns + out.build_ns) as f64 * 1e-9);
        attempted += out.arrivals;
        not_joined += out.not_joined;
        let mut lat = out.rec.durations(Call::Ingest);
        let samples = lat.len();
        let lat_us = [0.5, 0.99, 0.999].map(|q| ns_quantile(&mut lat, q, &mut errors));
        passes.push(Timed {
            rate: out.arrivals as f64 / out.wall_s,
            lat_us,
            samples,
        });
    }

    // A second fingerprinted pass must reproduce the reference rows. The
    // sharded workload replays in order here: the covered disorder of
    // the measured passes must not change what it emits.
    let measured_s = measuring.elapsed().as_secs_f64();
    let replay = drive::pass(&ctx.spec(Rows::Fingerprint, false, &ctx.in_order, None));
    verify(w, Some(&oracle), &reference, &replay, &mut errors);
    if replay.fp != reference.fp {
        errors.push(format!(
            "passes disagree on the row fingerprint: {:?} vs {:?}",
            replay.fp, reference.fp
        ));
    }

    let correct = errors.is_empty();
    let failed = if correct { not_joined } else { attempted };
    // Each timing is the pass-level figure that three passes in four
    // matched or beat: the lower quartile of pass rates, the upper quartile
    // of each pass's latency quantile. The host's contention lifts in
    // bursts that speed a varying share of passes up; this quartile stays
    // with the steady state most passes see, where the median moves with
    // the share of burst passes.
    let steady =
        |f: &dyn Fn(&Timed) -> f64, q: f64| quartile(&passes.iter().map(f).collect::<Vec<_>>(), q);
    let lat_note = format!(
        "upper quartile over {} passes of each pass's quantile, {} ingest calls per pass",
        passes.len(),
        passes[0].samples
    );
    let metrics = vec![
        metric(
            "arrivals_per_s",
            steady(&|p| p.rate, 0.25),
            format!("lower quartile of {} pass rates", passes.len()),
        ),
        metric(
            "ingest_p50_us",
            steady(&|p| p.lat_us[0], 0.75),
            lat_note.clone(),
        ),
        metric(
            "ingest_p99_us",
            steady(&|p| p.lat_us[1], 0.75),
            lat_note.clone(),
        ),
        metric(
            "recall",
            oracle.recall(w, &reference),
            format!("{} rows per pass", reference.rows),
        ),
        metric(
            "setup_s",
            median(&setup),
            format!("median of {} set-ups", setup.len()),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "VmHWM"),
    ];
    let notes = vec![
        format!(
            "{}: {n} arrivals per pass, {} timed passes, {} rows per pass",
            w.name,
            passes.len(),
            reference.rows
        ),
        format!(
            "timeline (s): trace and oracle {oracle_s:.2}, reference pass {reference_s:.2}, measured {measured_s:.2}, \
             total {:.2}",
            t0.elapsed().as_secs_f64()
        ),
        format!(
            "pass rates (1/s): {}",
            passes.iter().map(|p| format!("{:.0}", p.rate)).collect::<Vec<_>>().join(" ")
        ),
        // Printed, not gated: every pass replays the same trace, so p999
        // is set by the same few heaviest arrivals (on multi_churn, its
        // epoch rollovers) and moves with the seed's arrival order.
        format!(
            "ingest_p999_us = {} us ({lat_note})",
            steady(&|p| p.lat_us[2], 0.75)
        ),
        format!(
            "failed_frac = {} ratio ({failed} of {attempted} arrivals offered never joined)",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        errors,
    }
}

/// The traced run: a checking pass, the layer replays, then alternating
/// untraced and traced passes; per-layer metrics come from the traced
/// passes' spans and the counters the engines expose.
pub fn traced(w: &Workload, seed: u64, seconds: u64, spans_out: &std::path::Path) -> Outcome {
    let t0 = Instant::now();
    let trace = w.trace(seed);
    let n = trace.len();
    let ctx = Ctx {
        w,
        trace: &trace,
        order: w.delivery(n, seed),
        in_order: (0..n).collect(),
        t0,
    };
    let index = TraceIndex::new(&trace, workload::STREAM_NAMES.len(), w.dt().as_micros());
    let mut errors = Vec::new();

    // Set-up spans: parse and build apart.
    let mut parse_us = Vec::new();
    let mut build_us = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let mut rec = drive::Recorder::new(t0, 0);
        match w.kind {
            Kind::Single => drop(drive::build_single(w, &mut rec)),
            Kind::Multi => drop(drive::build_multi(w, &mut rec)),
            Kind::Sharded => {
                let e = drive::build_sharded(w, false, &mut rec);
                e.finish().expect("idle sharded workers exit cleanly");
            }
        }
        parse_us.push(rec.busy_ns(Call::Parse) as f64 / 1e3);
        build_us.push(rec.busy_ns(Call::Build) as f64 / 1e3);
    }

    // Every emitted row checked against its query's predicates and windows.
    // The sharded check keeps the trace's first positions in delivery order
    // (not the first deliveries), so the sequence numbers the coordinator
    // mints still name trace positions.
    let prefix: Vec<usize> = ctx
        .order
        .iter()
        .copied()
        .filter(|&i| i < SHARDED_CHECK_PREFIX)
        .collect();
    let check_order: &[usize] = match w.kind {
        Kind::Sharded => &prefix,
        _ => &ctx.order,
    };
    let checked = drive::pass(&ctx.spec(Rows::Check, false, check_order, Some(&index)));
    verify(w, None, &checked, &checked, &mut errors);

    let budget = Duration::from_secs(seconds);
    let replay = layers::replay(w, &trace, budget / 4);
    let timer_ns = layers::timer_ns();

    let measuring = Instant::now();
    let mut plain: Vec<PassOut> = Vec::new();
    let mut with_spans: Vec<PassOut> = Vec::new();
    while with_spans.len() < MIN_PASSES || measuring.elapsed() < budget * 3 / 4 {
        for traced in [false, true] {
            let out = drive::pass(&ctx.spec(Rows::Count, traced, &ctx.order, None));
            let reference = with_spans.first().or(plain.first()).unwrap_or(&out);
            let mut errs = Vec::new();
            verify(w, None, reference, &out, &mut errs);
            errors.extend(errs);
            if traced {
                with_spans.push(out);
            } else {
                plain.push(out);
            }
        }
    }
    let last = with_spans.last().expect("at least one traced pass");
    let med = |f: &dyn Fn(&PassOut) -> f64| median(&with_spans.iter().map(f).collect::<Vec<_>>());
    let busy_s = |p: &PassOut| p.rec.busy_ns(Call::Ingest) as f64 * 1e-9;
    let stage_ns = |p: &PassOut| {
        let m = &p.metrics;
        (m.sketch_observe_ns + m.score_ns + m.priority_rebuild_ns) as f64
    };
    let wall_traced = med(&|p| p.wall_s);
    let wall_plain = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    let m = &last.metrics;
    let arrivals = last.arrivals;
    let (is_multi, is_sharded) = (w.kind == Kind::Multi, w.kind == Kind::Sharded);
    let shard = last.shard.clone().unwrap_or_default();
    let worker = |f: &dyn Fn(&mstream_core::EngineMetrics) -> u64| -> f64 {
        med(&|p| {
            p.shard
                .as_ref()
                .map_or(0, |s| s.per_shard.iter().map(f).sum::<u64>()) as f64
                * 1e-9
        })
    };
    let imbalance = if shard.routed.is_empty() {
        0.0
    } else {
        let total: u64 = shard.routed.iter().sum();
        let mean = total as f64 / shard.routed.len() as f64;
        *shard.routed.iter().max().expect("non-empty") as f64 / mean
    };
    let (member_rows, class_rows) = last.queries.iter().fold((0, 0), |(m, c), q| {
        let lead = q.class_lead || q.from > 0;
        (m + q.rows, c + if lead { q.rows } else { 0 })
    });
    let span_us = |p: &PassOut, call: Call| -> Vec<f64> {
        p.rec
            .durations(call)
            .iter()
            .map(|&d| f64::from(d) / 1e3)
            .collect()
    };
    let add_us: Vec<f64> = with_spans
        .iter()
        .flat_map(|p| span_us(p, Call::AddQuery))
        .collect();
    let remove_us: Vec<f64> = with_spans
        .iter()
        .flat_map(|p| span_us(p, Call::RemoveQuery))
        .collect();
    let per_arrival = |v: u64| ratio(v, arrivals);
    let only = |cond: bool, v: f64| if cond { v } else { 0.0 };

    let metrics = vec![
        metric(
            "query.parse_us",
            median(&parse_us),
            format!("median of {SETUP_SAMPLES}"),
        ),
        metric(
            "builder.build_us",
            median(&build_us),
            format!("median of {SETUP_SAMPLES}"),
        ),
        metric("engine.ingest_busy_s", med(&busy_s), "sum of ingest spans"),
        metric(
            "engine.self_s",
            med(&|p| busy_s(p) - if is_sharded { 0.0 } else { stage_ns(p) * 1e-9 }),
            "ingest spans minus observe/score/rebuild counters",
        ),
        metric(
            "engine.ns_per_row",
            med(&|p| busy_s(p) * 1e9 / p.rows.max(1) as f64),
            "",
        ),
        metric("join.rows", last.rows as f64, "per pass"),
        metric("join.rows_per_arrival", per_arrival(last.rows), ""),
        metric(
            "join.replay_probe_ns_per_row",
            replay.probe_ns_per_row,
            "probe_count replay",
        ),
        metric("window.expired_per_arrival", per_arrival(m.expired), ""),
        metric("window.resident_end", last.resident_end as f64, ""),
        metric(
            "window.replay_insert_ns",
            replay.insert_ns,
            "WindowStore::insert replay",
        ),
        metric(
            "window.replay_expire_ns",
            replay.expire_ns,
            "expire of every store, per arrival",
        ),
        metric(
            "window.replay_evict_ns",
            replay.evict_ns,
            "WindowStore::evict_min replay",
        ),
        metric(
            "sketch.observe_s",
            med(&|p| p.metrics.sketch_observe_ns as f64 * 1e-9),
            "EngineMetrics",
        ),
        metric(
            "sketch.score_s",
            med(&|p| p.metrics.score_ns as f64 * 1e-9),
            "EngineMetrics",
        ),
        metric(
            "sketch.sign_cache_hit_ratio",
            ratio(m.sign_cache_hits, m.sign_cache_hits + m.sign_cache_misses),
            "",
        ),
        metric(
            "sketch.score_cache_hit_ratio",
            ratio(
                m.score_cache_hits,
                m.score_cache_hits + m.score_cache_misses,
            ),
            "",
        ),
        metric(
            "sketch.replay_observe_ns",
            replay.observe_ns,
            "TumblingSketches::observe replay",
        ),
        metric(
            "sketch.replay_productivity_ns",
            replay.productivity_ns,
            "::productivity replay",
        ),
        metric(
            "shed.rebuild_s",
            med(&|p| p.metrics.priority_rebuild_ns as f64 * 1e-9),
            "EngineMetrics",
        ),
        metric("shed.rollovers", m.epoch_rollovers as f64, ""),
        metric(
            "shed.rebuild_us_per_rollover",
            ratio(m.priority_rebuild_ns, m.epoch_rollovers) / 1e3,
            "",
        ),
        metric(
            "shed.window_shed_per_arrival",
            per_arrival(m.shed_window),
            "",
        ),
        metric("multi.ingest_busy_s", only(is_multi, med(&busy_s)), ""),
        metric("multi.classes_end", last.classes_end as f64, ""),
        metric("multi.stores_end", last.stores_end as f64, ""),
        metric(
            "multi.fanout",
            ratio(member_rows, class_rows),
            "member rows / class rows",
        ),
        metric(
            "multi.add_query_us",
            median(&add_us),
            format!("n={}", add_us.len()),
        ),
        metric(
            "multi.remove_query_us",
            median(&remove_us),
            format!("n={}", remove_us.len()),
        ),
        metric(
            "shard.route_busy_s",
            only(is_sharded, med(&busy_s)),
            "sum of ingest spans",
        ),
        metric(
            "shard.finish_s",
            med(&|p| p.rec.busy_ns(Call::Finish) as f64 * 1e-9),
            "",
        ),
        metric("shard.imbalance", imbalance, "max routed / mean routed"),
        metric(
            "shard.replicated_per_arrival",
            only(is_sharded, per_arrival(m.replicated)),
            "",
        ),
        metric("shard.hot_promoted", shard.hot_promoted as f64, ""),
        metric(
            "shard.worker_observe_s",
            worker(&|m| m.sketch_observe_ns),
            "",
        ),
        metric("shard.worker_score_s", worker(&|m| m.score_ns), ""),
        metric(
            "shard.worker_rebuild_s",
            worker(&|m| m.priority_rebuild_ns),
            "",
        ),
        metric("reorder.late_dropped", m.late_dropped as f64, ""),
        metric(
            "trace.overhead_frac",
            wall_traced / wall_plain - 1.0,
            "traced / untraced wall - 1",
        ),
        metric("trace.timer_ns", timer_ns, "one empty Instant pair"),
    ];
    let stage_share = med(&stage_ns) * 1e-9 / med(&busy_s);
    let mut notes = vec![format!(
        "{}: {n} arrivals, {} traced + {} untraced passes, {} rows checked ({} arrivals)",
        w.name,
        with_spans.len(),
        plain.len(),
        checked.rows,
        check_order.len()
    )];
    if !is_sharded {
        notes.push(format!(
            "sketch observe + score + shed rebuild = {:.1}% of ingest busy time",
            stage_share * 100.0
        ));
    }
    match write_spans(spans_out, last) {
        Ok(()) => notes.push(format!("spans written to {}", spans_out.display())),
        Err(e) => notes.push(format!(
            "could not write spans to {}: {e}",
            spans_out.display()
        )),
    }
    let correct = errors.is_empty();
    let attempted: u64 = with_spans.iter().chain(&plain).map(|p| p.arrivals).sum();
    let not_joined: u64 = with_spans.iter().chain(&plain).map(|p| p.not_joined).sum();
    Outcome {
        correct,
        attempted,
        failed: if correct { not_joined } else { attempted },
        metrics,
        notes,
        errors,
    }
}

/// Writes a traced pass's spans and rollover snapshots as CSV.
fn write_spans(path: &std::path::Path, pass: &PassOut) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "span,start_ns,end_ns,arrival")?;
    for s in &pass.rec.spans {
        let arrival = if s.arrival == NO_ARRIVAL {
            -1
        } else {
            s.arrival as i64
        };
        writeln!(f, "{},{},{},{arrival}", s.call.name(), s.start_ns, s.end_ns)?;
    }
    writeln!(f, "snapshot_arrival,epoch_rollovers,total_output,shed_window,expired,sketch_observe_ns,score_ns,priority_rebuild_ns")?;
    for (i, m) in &pass.rec.snapshots {
        writeln!(
            f,
            "{i},{},{},{},{},{},{},{}",
            m.epoch_rollovers,
            m.total_output,
            m.shed_window,
            m.expired,
            m.sketch_observe_ns,
            m.score_ns,
            m.priority_rebuild_ns
        )?;
    }
    f.flush()
}
