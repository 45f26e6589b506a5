//! Closed-loop passes: one pass builds an engine from query text, feeds it
//! every arrival of the trace through the public API (each `ingest`
//! returns before the next arrival is sent) and collects what it emitted.
//! Every public call a pass makes is timed; a traced pass also keeps
//! each call as a span and snapshots the engine counters at every epoch
//! rollover.

use crate::check::{mix, Fingerprint, RowChecker, RowView, TraceIndex};
use crate::workload::{self, Kind, Workload, MULTI_SHAPES};
use mstream_core::mstream_join::Bindings;
use mstream_core::mstream_types::{QueryId, StreamId, Value};
use mstream_core::mstream_workload::Trace;
use mstream_core::prelude::*;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The public calls a span can wrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `mstream_query::parse_query` (all of a pass's query texts).
    Parse,
    /// `EngineBuilder::register` + `build*` (worker spawn included).
    Build,
    /// One `ingest`.
    Ingest,
    /// `ShedJoinEngine::flush` at end of trace.
    Flush,
    /// `ShardedJoinEngine::finish` (drains and joins the workers).
    Finish,
    /// `MultiQueryEngine::add_query`.
    AddQuery,
    /// `MultiQueryEngine::remove_query`.
    RemoveQuery,
}

impl Call {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Call::Parse => "parse",
            Call::Build => "build",
            Call::Ingest => "ingest",
            Call::Flush => "flush",
            Call::Finish => "finish",
            Call::AddQuery => "add_query",
            Call::RemoveQuery => "remove_query",
        }
    }
}

/// Marks a span with no parent arrival (set-up and end-of-trace calls).
pub const NO_ARRIVAL: u64 = u64::MAX;

/// One timed public call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call.
    pub call: Call,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// End, in ns since the run began.
    pub end_ns: u64,
    /// Trace position of the arrival the call served, or [`NO_ARRIVAL`].
    pub arrival: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects call timings for one pass.
pub struct Recorder {
    t0: Instant,
    /// Every timed call of the pass, in call order.
    pub spans: Vec<Span>,
    /// `(trace position, counters)` after each arrival that rolled an epoch
    /// (traced single/multi passes only).
    pub snapshots: Vec<(u64, EngineMetrics)>,
}

impl Recorder {
    /// A recorder whose span clock starts at `t0`, sized for `expected`
    /// spans. Untraced passes keep the same spans (their durations are the
    /// latency samples) but take no counter snapshots.
    pub fn new(t0: Instant, expected: usize) -> Self {
        Recorder {
            t0,
            spans: Vec::with_capacity(expected + 16),
            snapshots: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` as one span.
    #[inline]
    pub fn time<R>(&mut self, call: Call, arrival: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let span = Span {
            call,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            arrival,
        };
        self.spans.push(span);
        r
    }

    /// Total ns inside spans of `call`.
    pub fn busy_ns(&self, call: Call) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.call == call)
            .map(Span::ns)
            .sum()
    }

    /// Durations (ns, saturated to `u32`) of every span of `call`.
    pub fn durations(&self, call: Call) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.call == call)
            .map(|s| s.ns().min(u64::from(u32::MAX)) as u32)
            .collect()
    }
}

/// What a pass's emission sink does with each result row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rows {
    /// Count only (timed passes).
    Count,
    /// Count and fingerprint (rows named by the arriving tuple's sequence
    /// number and its partners' window slots).
    Fingerprint,
    /// Count, fingerprint (rows named by their tuples' sequence numbers),
    /// and check every row's tuples, predicates and windows.
    Check,
}

/// The emission sink of every pass.
pub struct RowSink<'a> {
    mode: Rows,
    /// Rows received.
    pub rows: u64,
    /// Fingerprint of the rows received (modes other than `Count`).
    pub fp: Fingerprint,
    index: Option<&'a TraceIndex<'a>>,
    /// Row checker per query id (`Check` mode).
    checkers: Vec<Option<RowChecker>>,
    /// Rows that failed the check.
    pub violations: u64,
    /// The first failure, for the report.
    pub first_violation: Option<String>,
}

impl<'a> RowSink<'a> {
    /// A sink in `mode`; `Check` needs the trace index.
    pub fn new(mode: Rows, index: Option<&'a TraceIndex<'a>>) -> Self {
        assert!(
            mode != Rows::Check || index.is_some(),
            "checking needs the trace index"
        );
        RowSink {
            mode,
            rows: 0,
            fp: Fingerprint::default(),
            index,
            checkers: Vec::new(),
            violations: 0,
            first_violation: None,
        }
    }

    fn set_checker(&mut self, id: QueryId, checker: RowChecker) {
        if self.mode != Rows::Check {
            return;
        }
        if self.checkers.len() <= id.index() {
            self.checkers.resize_with(id.index() + 1, || None);
        }
        self.checkers[id.index()] = Some(checker);
    }

    /// Checks one row given per-stream (seq, ts µs, values).
    fn check_row(&mut self, query: QueryId, seqs: &[u64], ts: &[u64], values: &[&[Value]]) {
        let index = self.index.expect("check mode has an index");
        let verdict = match self.checkers.get(query.index()).and_then(Option::as_ref) {
            Some(c) => c.check(index, &RowView { seqs, ts, values }),
            None => Err(format!("row from unregistered query {}", query.0)),
        };
        if let Err(e) = verdict {
            self.violations += 1;
            self.first_violation
                .get_or_insert(format!("query {}: {e}", query.0));
        }
    }

    /// Fingerprints and checks the rows a sharded run collected
    /// (stream-ordered tuples).
    fn check_rows(&mut self, rows: &[Vec<Tuple>]) {
        for row in rows {
            let seqs: Vec<u64> = row.iter().map(|t| t.seq.0).collect();
            let ts: Vec<u64> = row.iter().map(|t| t.ts.as_micros()).collect();
            let values: Vec<&[Value]> = row.iter().map(|t| t.values.as_slice()).collect();
            self.rows += 1;
            self.fp.add(QueryId::SOLO.0, seqs.iter().copied());
            self.check_row(QueryId::SOLO, &seqs, &ts, &values);
        }
    }
}

impl EmitSink for RowSink<'_> {
    #[inline]
    fn emit(&mut self, query: QueryId, b: &Bindings<'_>) {
        self.rows += 1;
        if self.mode == Rows::Count {
            return;
        }
        let n = b.n_streams();
        if self.mode == Rows::Fingerprint {
            // The arriving tuple's sequence number and its partners' window
            // slots name a row without dereferencing the partners; the
            // engine is deterministic, so equal passes hand out equal slots.
            let words = (0..n).map(|k| match b.slot(StreamId(k)) {
                Some(slot) => {
                    let mut word = SlotWord(0);
                    slot.hash(&mut word);
                    word.0
                }
                None => b.origin_tuple().seq.0,
            });
            self.fp.add(query.0, words);
            return;
        }
        let mut seqs = [0u64; 3];
        for (k, s) in seqs.iter_mut().enumerate().take(n) {
            *s = b.seq(StreamId(k)).0;
        }
        self.fp.add(query.0, seqs[..n].iter().copied());
        let mut ts = [0u64; 3];
        let mut values: [&[Value]; 3] = [&[], &[], &[]];
        for k in 0..n {
            let t = b.tuple(StreamId(k));
            ts[k] = t.ts.as_micros();
            values[k] = t.values.as_slice();
        }
        self.check_row(query, &seqs[..n], &ts[..n], &values[..n]);
    }
}

/// Packs a window slot handle (index and generation, each hashed as a
/// `u32`) into one word.
struct SlotWord(u64);

impl Hasher for SlotWord {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 << 32) | u64::from(v);
    }
}

/// Per-query outcome of a `multi_churn` pass.
#[derive(Clone, Debug)]
pub struct QueryOut {
    /// Shape index into [`MULTI_SHAPES`].
    pub shape: usize,
    /// Trace position it was registered before (0 = from the start).
    pub from: usize,
    /// Trace position it was removed before (`None` = stayed to the end).
    pub until: Option<usize>,
    /// Whether it is the first replica of a shape registered at the start
    /// (the member whose rows stand for its class's rows).
    pub class_lead: bool,
    /// Rows emitted under its id.
    pub rows: u64,
}

/// Coordinator and worker outcome of a sharded pass.
#[derive(Clone, Debug, Default)]
pub struct ShardOut {
    /// Probe deliveries routed to each shard.
    pub routed: Vec<u64>,
    /// Each worker's counters.
    pub per_shard: Vec<EngineMetrics>,
    /// Hot-key promotions.
    pub hot_promoted: u64,
}

/// Everything one pass produced.
pub struct PassOut {
    /// ns spent parsing query text.
    pub parse_ns: u64,
    /// ns spent registering and building (including worker spawn).
    pub build_ns: u64,
    /// Wall time of the whole feed loop (ingest, flush/finish, add/remove).
    pub wall_s: f64,
    /// Arrivals offered.
    pub arrivals: u64,
    /// Rows emitted (all queries).
    pub rows: u64,
    /// Fingerprint of the emitted rows; for sharded passes, of the run's
    /// per-shard counters unless rows were collected.
    pub fp: Fingerprint,
    /// Rows that failed the output check, and the first failure.
    pub violations: u64,
    /// First failed row, if any.
    pub first_violation: Option<String>,
    /// Arrivals offered but never joined (late-dropped, channel-shed).
    pub not_joined: u64,
    /// Final engine counters (summed over shards).
    pub metrics: EngineMetrics,
    /// Resident tuples at the end.
    pub resident_end: usize,
    /// `multi_churn` per-query outcome.
    pub queries: Vec<QueryOut>,
    /// `multi_churn` classes and stores alive at the end.
    pub classes_end: usize,
    /// Live stores at the end (`multi_churn`).
    pub stores_end: usize,
    /// Sharded outcome.
    pub shard: Option<ShardOut>,
    /// The pass's timed calls.
    pub rec: Recorder,
}

/// How a pass is fed and observed.
pub struct PassSpec<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Its trace.
    pub trace: &'a Trace,
    /// Delivery order of trace positions.
    pub order: &'a [usize],
    /// Row handling.
    pub rows: Rows,
    /// Trace index (needed by `Rows::Check`).
    pub index: Option<&'a TraceIndex<'a>>,
    /// Keep spans for the trace file and snapshot counters at rollovers.
    pub traced: bool,
    /// The run's clock origin.
    pub t0: Instant,
}

/// Runs one pass of `spec.w`'s engine.
pub fn pass(spec: &PassSpec<'_>) -> PassOut {
    match spec.w.kind {
        Kind::Single => single(spec),
        Kind::Multi => multi(spec),
        Kind::Sharded => sharded(spec),
    }
}

fn arrival(spec: &PassSpec<'_>, i: usize, stream: StreamId) -> Arrival {
    Arrival::new(stream, spec.trace.items[i].values.clone(), spec.w.ts(i))
}

fn empty_out(rec: Recorder, parse_ns: u64, build_ns: u64, arrivals: usize) -> PassOut {
    PassOut {
        parse_ns,
        build_ns,
        wall_s: 0.0,
        arrivals: arrivals as u64,
        rows: 0,
        fp: Fingerprint::default(),
        violations: 0,
        first_violation: None,
        not_joined: 0,
        metrics: EngineMetrics::default(),
        resident_end: 0,
        queries: Vec::new(),
        classes_end: 0,
        stores_end: 0,
        shard: None,
        rec,
    }
}

/// Builds a single-query engine from query text: parse, then build.
pub fn build_single(w: &Workload, rec: &mut Recorder) -> ShedJoinEngine {
    let query = rec.time(Call::Parse, NO_ARRIVAL, || workload::query(w.query));
    rec.time(Call::Build, NO_ARRIVAL, || {
        EngineBuilder::new(query)
            .policy(MSketch)
            .capacity_per_window(w.capacity)
            .build()
            .expect("single-query engine builds")
    })
}

fn single(spec: &PassSpec<'_>) -> PassOut {
    let n = spec.order.len();
    let mut rec = Recorder::new(spec.t0, n);
    let mut engine = build_single(spec.w, &mut rec);
    let (parse_ns, build_ns) = (rec.busy_ns(Call::Parse), rec.busy_ns(Call::Build));
    let checker = RowChecker::new(engine.query(), workload::trace_streams(engine.query()));
    let mut sink = RowSink::new(spec.rows, spec.index);
    sink.set_checker(QueryId::SOLO, checker);
    let mut rollovers = 0;
    let started = Instant::now();
    for &i in spec.order {
        let a = arrival(spec, i, spec.trace.items[i].stream);
        rec.time(Call::Ingest, i as u64, || engine.ingest(a, &mut sink));
        if spec.traced {
            let m = engine.metrics();
            if m.epoch_rollovers != rollovers {
                rollovers = m.epoch_rollovers;
                rec.snapshots.push((i as u64, m.clone()));
            }
        }
    }
    rec.time(Call::Flush, NO_ARRIVAL, || engine.flush(&mut sink));
    let wall_s = started.elapsed().as_secs_f64();
    let metrics = engine.metrics().clone();
    let mut out = empty_out(rec, parse_ns, build_ns, n);
    out.wall_s = wall_s;
    out.rows = sink.rows;
    out.fp = sink.fp;
    out.violations = sink.violations;
    out.first_violation = sink.first_violation;
    out.not_joined = metrics.late_dropped;
    out.resident_end = engine.total_resident();
    out.metrics = metrics;
    out
}

/// The standing queries of a `multi_churn` engine built from text.
pub struct MultiEngine {
    /// The engine.
    pub engine: MultiQueryEngine,
    /// `ids[shape][replica]`.
    pub ids: Vec<Vec<QueryId>>,
}

/// Builds the `multi_churn` engine: parse every standing query, register
/// three replicas of each shape, build.
pub fn build_multi(w: &Workload, rec: &mut Recorder) -> MultiEngine {
    let queries: Vec<JoinQuery> = rec.time(Call::Parse, NO_ARRIVAL, || {
        MULTI_SHAPES.iter().map(|t| workload::query(t)).collect()
    });
    rec.time(Call::Build, NO_ARRIVAL, || {
        let mut b = EngineBuilder::new_multi()
            .policy(MSketch)
            .capacity_per_window(w.capacity);
        let mut ids = vec![Vec::new(); MULTI_SHAPES.len()];
        for _replica in 0..3 {
            for (s, q) in queries.iter().enumerate() {
                ids[s].push(b.register(q.clone()).expect("standing query registers"));
            }
        }
        MultiEngine {
            engine: b.build_multi().expect("multi-query engine builds"),
            ids,
        }
    })
}

fn multi(spec: &PassSpec<'_>) -> PassOut {
    let n = spec.order.len();
    let mut rec = Recorder::new(spec.t0, n);
    let MultiEngine { mut engine, ids } = build_multi(spec.w, &mut rec);
    let (parse_ns, build_ns) = (rec.busy_ns(Call::Parse), rec.busy_ns(Call::Build));
    let shapes: Vec<JoinQuery> = MULTI_SHAPES.iter().map(|t| workload::query(t)).collect();
    let mut sink = RowSink::new(spec.rows, spec.index);
    let mut queries = Vec::new();
    let mut live: Vec<(QueryId, usize)> = Vec::new();
    for (s, reps) in ids.iter().enumerate() {
        for (r, &id) in reps.iter().enumerate() {
            sink.set_checker(
                id,
                RowChecker::new(&shapes[s], workload::trace_streams(&shapes[s])),
            );
            live.push((id, queries.len()));
            queries.push(QueryOut {
                shape: s,
                from: 0,
                until: None,
                class_lead: r == 0,
                rows: 0,
            });
        }
    }
    let global: Vec<StreamId> = workload::STREAM_NAMES
        .iter()
        .map(|name| engine.stream_id(name).expect("every stream is registered"))
        .collect();
    let schedule = workload::churn_schedule(n);
    let mut next_churn = schedule.iter().peekable();
    let mut rollovers = 0;
    let started = Instant::now();
    for &i in spec.order {
        if let Some(c) = next_churn.next_if(|c| c.at == i) {
            let id = ids[c.remove.0][c.remove.1];
            let slot = live
                .iter()
                .position(|&(q, _)| q == id)
                .expect("removed query is live");
            let (_, qi) = live.swap_remove(slot);
            queries[qi].rows = engine
                .query_stats(id)
                .expect("live query has stats")
                .produced;
            queries[qi].until = Some(i);
            rec.time(Call::RemoveQuery, i as u64, || engine.remove_query(id));
            let fresh = shapes[c.add].clone();
            let id = rec.time(Call::AddQuery, i as u64, || engine.add_query(fresh));
            let id = id.expect("fresh query registers");
            sink.set_checker(
                id,
                RowChecker::new(&shapes[c.add], workload::trace_streams(&shapes[c.add])),
            );
            live.push((id, queries.len()));
            queries.push(QueryOut {
                shape: c.add,
                from: i,
                until: None,
                class_lead: false,
                rows: 0,
            });
        }
        let item = &spec.trace.items[i];
        let a = arrival(spec, i, global[item.stream.index()]);
        rec.time(Call::Ingest, i as u64, || engine.ingest(a, &mut sink));
        if spec.traced {
            let m = engine.metrics();
            if m.epoch_rollovers != rollovers {
                rollovers = m.epoch_rollovers;
                rec.snapshots.push((i as u64, m.clone()));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    for &(id, qi) in &live {
        queries[qi].rows = engine
            .query_stats(id)
            .expect("live query has stats")
            .produced;
    }
    let metrics = engine.metrics().clone();
    let mut out = empty_out(rec, parse_ns, build_ns, n);
    out.wall_s = wall_s;
    out.rows = queries.iter().map(|q| q.rows).sum();
    out.fp = sink.fp;
    out.violations = sink.violations;
    out.first_violation = sink.first_violation;
    if spec.rows != Rows::Count && sink.rows != out.rows {
        out.violations += 1;
        out.first_violation.get_or_insert(format!(
            "sink received {} rows, per-query counters say {}",
            sink.rows, out.rows
        ));
    }
    out.not_joined = metrics.late_dropped;
    out.resident_end = engine.total_resident();
    out.classes_end = engine.n_classes();
    out.stores_end = engine.n_stores();
    out.metrics = metrics;
    out.queries = queries;
    out
}

/// Arrivals per worker batch. Channel sends are then one route call in
/// 256: p99 stays among plain route calls and p999 among sends, instead
/// of either straddling the two.
const SHARD_BATCH: usize = 256;

/// Builds the sharded engine from query text (spawns the workers).
pub fn build_sharded(w: &Workload, collect_rows: bool, rec: &mut Recorder) -> ShardedJoinEngine {
    let query = rec.time(Call::Parse, NO_ARRIVAL, || workload::query(w.query));
    rec.time(Call::Build, NO_ARRIVAL, || {
        EngineBuilder::new(query)
            .policy(MSketch)
            .capacity_per_window(w.capacity)
            .disorder_bound(VDur::from_micros(w.disorder_micros))
            .shard_config(ShardConfig {
                shards: w.shards,
                batch_size: SHARD_BATCH,
                backpressure: Backpressure::Block,
                collect_rows,
                ..ShardConfig::default()
            })
            .build_sharded()
            .expect("sharded engine builds")
    })
}

/// Runs a sharded pass over `spec.order`. With `Rows::Check` the workers
/// collect every row, which is checked and fingerprinted; otherwise the
/// fingerprint covers the per-shard counters, which a deterministic
/// replay reproduces exactly.
fn sharded(spec: &PassSpec<'_>) -> PassOut {
    let n = spec.order.len();
    let mut rec = Recorder::new(spec.t0, n);
    let collect = spec.rows == Rows::Check;
    let mut engine = build_sharded(spec.w, collect, &mut rec);
    let (parse_ns, build_ns) = (rec.busy_ns(Call::Parse), rec.busy_ns(Call::Build));
    let started = Instant::now();
    for &i in spec.order {
        let a = arrival(spec, i, spec.trace.items[i].stream);
        rec.time(Call::Ingest, i as u64, || engine.ingest(a));
    }
    let report = rec.time(Call::Finish, NO_ARRIVAL, || engine.finish());
    let wall_s = started.elapsed().as_secs_f64();
    let report = report.expect("sharded workers exit cleanly");
    let mut out = empty_out(rec, parse_ns, build_ns, n);
    out.wall_s = wall_s;
    out.rows = report.combined.metrics.total_output;
    if let Some(rows) = report.rows.as_ref() {
        let mut sink = RowSink::new(spec.rows, spec.index);
        let query = workload::query(spec.w.query);
        sink.set_checker(
            QueryId::SOLO,
            RowChecker::new(&query, workload::trace_streams(&query)),
        );
        sink.check_rows(rows);
        out.fp = sink.fp;
        out.violations = sink.violations;
        out.first_violation = sink.first_violation;
        if sink.rows != out.rows {
            out.violations += 1;
            out.first_violation.get_or_insert(format!(
                "{} rows collected, counters say {}",
                sink.rows, out.rows
            ));
        }
    } else {
        let mut h = 0u64;
        for (k, m) in report.per_shard.iter().enumerate() {
            for v in [
                m.total_output,
                m.processed,
                m.replicated,
                m.shed_window,
                m.expired,
                m.epoch_rollovers,
            ] {
                h = mix(h ^ v);
            }
            h = mix(h ^ report.routed[k] ^ (report.resident[k] as u64) << 32);
        }
        out.fp = Fingerprint {
            rows: out.rows,
            sum: mix(h ^ report.hot_promoted),
        };
    }
    out.not_joined = report.combined.metrics.late_dropped + report.shed_channel;
    out.resident_end = report.resident.iter().sum();
    out.metrics = report.combined.metrics.clone();
    out.shard = Some(ShardOut {
        routed: report.routed.clone(),
        per_shard: report.per_shard.clone(),
        hot_promoted: report.hot_promoted,
    });
    out
}

/// Times `k` engine set-ups (query text to ready engine) and returns each
/// one's seconds; sharded engines are finished again so their workers
/// exit.
pub fn setups(w: &Workload, k: usize, t0: Instant) -> Vec<f64> {
    (0..k)
        .map(|_| {
            let mut rec = Recorder::new(t0, 0);
            match w.kind {
                Kind::Single => drop(build_single(w, &mut rec)),
                Kind::Multi => drop(build_multi(w, &mut rec)),
                Kind::Sharded => {
                    let e = build_sharded(w, false, &mut rec);
                    let secs = setup_secs(&rec);
                    e.finish().expect("idle sharded workers exit cleanly");
                    return secs;
                }
            }
            setup_secs(&rec)
        })
        .collect()
}

fn setup_secs(rec: &Recorder) -> f64 {
    (rec.busy_ns(Call::Parse) + rec.busy_ns(Call::Build)) as f64 * 1e-9
}
