//! The shedding multi-way join engine (paper §4, Algorithm 1).

use crate::ingest::{Arrival, EmitSink, IngestOutcome, IngestRole};
use crate::report::EngineMetrics;
use mstream_join::{probe_each_with, ProbePlan, ProbeScratch};
use mstream_shed_policies::{clamp_score, PriorityCtx, Requirements, ShedPolicy};
use mstream_sketch::{BankConfig, EpochSpec, TumblingFreq, TumblingSketches};
use mstream_types::{
    JoinQuery, QueryId, Result, SeqNo, StreamId, Tuple, VDur, VTime, WindowSpec,
};
use mstream_window::{QueueVictim, ReorderBuffer, Slot, WindowStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// How window memory is allocated across streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemoryMode {
    /// The same fixed number of tuples for every window (the allocation
    /// used in all of the paper's reported experiments).
    PerWindow(usize),
    /// An explicit per-stream allocation.
    PerWindowEach(Vec<usize>),
    /// One shared pool: windows grow freely but when the total exceeds the
    /// pool, the globally least-priority tuple (across all windows) is
    /// evicted — the variable-allocation variant the paper tried and found
    /// "not so significant" (§5.1.1); reproduced as an ablation.
    GlobalPool(usize),
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Window memory allocation.
    pub memory: MemoryMode,
    /// AGMS sketch sizing (only materialized if the policy needs sketches).
    pub bank: BankConfig,
    /// Tumbling-epoch discipline; `None` derives the paper's default
    /// (epoch length = join-window length `p`, or per-stream tuple counts
    /// for tuple-based windows).
    pub epoch: Option<EpochSpec>,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Bounded-disorder event-time front end (DESIGN.md §13). `None` (the
    /// default) keeps the legacy arrival-time semantics: timestamps are
    /// trusted as given, monotone or not, and processing happens at each
    /// arrival's own timestamp. `Some(k)` arms per-stream reorder buffers:
    /// arrivals are admitted while `ts >= watermark` (the cross-stream
    /// minimum high-water mark minus `k`), released to the operator in
    /// `(ts, admission)` order as the watermark advances, and dropped with
    /// [`EngineMetrics::late_dropped`] accounting once later than the
    /// bound. `Some(VDur::ZERO)` is valid: no lateness tolerance, but
    /// cross-stream timestamp alignment still applies.
    pub disorder: Option<VDur>,
    /// Epoch-memoized productivity scoring (DESIGN.md §16), on by default.
    /// Cached and uncached runs are bit-identical by construction — the
    /// memo stores the exact `f64` under an exact key — so turning it off
    /// only serves A/B comparisons (the audit harness runs both in one
    /// process).
    pub score_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memory: MemoryMode::PerWindow(1024),
            bank: BankConfig::default(),
            epoch: None,
            seed: 0xEA51,
            disorder: None,
            score_cache: true,
        }
    }
}

/// The event-time ingest front end: per-stream reorder buffers, per-stream
/// high-water marks, and the admission counter that keeps same-timestamp
/// arrivals replaying in arrival order.
pub(crate) struct EventTimeFrontEnd {
    /// The disorder bound `K`.
    pub(crate) bound: VDur,
    /// One reorder buffer per stream.
    pub(crate) buffers: Vec<ReorderBuffer<Arrival>>,
    /// Per-stream maximum timestamp seen (streams with no arrivals yet
    /// hold `VTime::ZERO`, pinning the watermark at the origin until every
    /// stream has spoken).
    pub(crate) hwm: Vec<VTime>,
    /// Admission counter: the tiebreak that orders same-timestamp releases.
    pub(crate) admitted: u64,
}

impl EventTimeFrontEnd {
    pub(crate) fn new(bound: VDur, n_streams: usize) -> Self {
        EventTimeFrontEnd {
            bound,
            buffers: (0..n_streams).map(|_| ReorderBuffer::new()).collect(),
            hwm: vec![VTime::ZERO; n_streams],
            admitted: 0,
        }
    }

    /// `wm = min_s(hwm_s) - K`, saturating at the origin. No accepted
    /// arrival can carry a timestamp below this (lateness is bounded by
    /// `K` relative to the slowest stream's high-water mark), so buffered
    /// tuples strictly below it are safe to release.
    pub(crate) fn watermark(&self) -> VTime {
        let min_hwm = self
            .hwm
            .iter()
            .copied()
            .min()
            .expect("a join has at least one stream");
        min_hwm - self.bound
    }
}

/// A multi-way sliding-window join that sheds load by priority.
///
/// Per arriving tuple (Algorithm 1): update the current tumbling sketch,
/// expire stale tuples from every window, emit the join results the tuple
/// produces against all other windows, score it with the active policy's
/// priority measure, and store it — evicting the least-priority resident if
/// its window (or the global pool) is full. Tumbling-epoch rollovers
/// rebuild all priorities ("reset all the priority queues").
pub struct ShedJoinEngine {
    query: JoinQuery,
    policy: Box<dyn ShedPolicy>,
    reqs: Requirements,
    memory: MemoryMode,
    stores: Vec<WindowStore>,
    plans: Vec<ProbePlan>,
    sketches: Option<TumblingSketches>,
    partner_freq: Option<TumblingFreq>,
    rng: StdRng,
    next_seq: SeqNo,
    metrics: EngineMetrics,
    /// Per-stream scratch reused across arrivals for per-slot produced
    /// counting (coalesced heap rescoring).
    produced_scratch: Vec<ProducedScratch>,
    /// Probe-kernel buffers reused by every arrival.
    probe_scratch: ProbeScratch,
    /// Bounded-disorder reorder buffers; `None` runs the legacy
    /// arrival-time path untouched.
    front: Option<EventTimeFrontEnd>,
}

/// A sparse per-stream accumulator for produced-output deltas gathered
/// during one arrival's probe and applied as **one** coalesced heap update
/// per touched slot. `delta` is indexed by the dense arena slot index and
/// is all-zeros between flushes; `touched` records each credited slot in
/// first-match order. Replaces a `HashMap<(stream, Slot), u64>` scratch:
/// no SipHash in the match callback and no `drain().collect()` allocation
/// per arrival. A flush follows every probe, before anything can expire
/// or evict, so an index names the same live slot from credit to flush.
#[derive(Default)]
pub(crate) struct ProducedScratch {
    delta: Vec<u64>,
    pub(crate) touched: Vec<Slot>,
}

impl ProducedScratch {
    #[inline]
    pub(crate) fn add(&mut self, slot: Slot, n: u64) {
        let i = slot.index();
        if i >= self.delta.len() {
            self.delta.resize(i + 1, 0);
        }
        if self.delta[i] == 0 {
            self.touched.push(slot);
        }
        self.delta[i] += n;
    }

    /// Drains the pending credits, invoking `apply(slot, count)` once per
    /// credited slot in first-credit order. Leaves the scratch all-zero.
    #[inline]
    pub(crate) fn drain_credits(&mut self, mut apply: impl FnMut(Slot, u64)) {
        let mut touched = std::mem::take(&mut self.touched);
        for slot in touched.drain(..) {
            let cnt = std::mem::take(&mut self.delta[slot.index()]);
            apply(slot, cnt);
        }
        self.touched = touched;
    }
}

impl ShedJoinEngine {
    /// Builds an engine for `query` shedding with `policy`.
    pub fn new(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
    ) -> Result<Self> {
        let n = query.n_streams();
        let capacities = resolve_capacities(&config.memory, n)?;
        let stores = (0..n)
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), capacities[s])
            })
            .collect();
        let reqs = policy.requirements();
        let epoch = if reqs.sketches || reqs.partner_freq {
            Some(match config.epoch {
                Some(e) => e,
                None => default_epoch(&query)?,
            })
        } else {
            None
        };
        let mut sketches = reqs
            .sketches
            .then(|| TumblingSketches::new(&query, config.bank, epoch.expect("resolved above")));
        if let Some(s) = sketches.as_mut() {
            s.set_score_cache(config.score_cache);
        }
        let partner_freq = reqs
            .partner_freq
            .then(|| TumblingFreq::new(&query, epoch.expect("resolved above")));
        Ok(ShedJoinEngine {
            plans: ProbePlan::all(&query),
            query,
            policy,
            reqs,
            memory: config.memory,
            stores,
            sketches,
            partner_freq,
            rng: StdRng::seed_from_u64(config.seed),
            next_seq: SeqNo(0),
            metrics: EngineMetrics::default(),
            produced_scratch: (0..n).map(|_| ProducedScratch::default()).collect(),
            probe_scratch: ProbeScratch::default(),
            front: config.disorder.map(|k| EventTimeFrontEnd::new(k, n)),
        })
    }

    /// The query being executed.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The active policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Accumulated counters. Sketch-side cache statistics (packed-sign and
    /// productivity-score memos) are snapshotted here, at read time — not
    /// on every arrival, which put two counter copies on the per-ingest
    /// hot path for values nobody reads mid-run.
    pub fn metrics(&mut self) -> &EngineMetrics {
        if let Some(sketches) = self.sketches.as_ref() {
            let signs = sketches.sign_cache_stats();
            self.metrics.sign_cache_hits = signs.hits;
            self.metrics.sign_cache_misses = signs.misses;
            let scores = sketches.score_cache_stats();
            self.metrics.score_cache_hits = scores.hits;
            self.metrics.score_cache_misses = scores.misses;
        }
        &self.metrics
    }

    /// Resident tuples in `stream`'s window, or `None` if `stream` is not
    /// one of this query's streams.
    pub fn window_len(&self, stream: StreamId) -> Option<usize> {
        self.stores.get(stream.index()).map(WindowStore::len)
    }

    /// Total resident tuples across every window (per-shard occupancy in a
    /// sharded run).
    pub fn total_resident(&self) -> usize {
        self.stores.iter().map(WindowStore::len).sum()
    }

    /// Structural audit of the whole operator: every window store's
    /// arena/index/heap/expiry agreement, the tumbling sketches' epoch and
    /// frozen-cross-product coherence, and the mode-aware memory bound
    /// (per-window capacities, or the pooled total in
    /// [`MemoryMode::GlobalPool`], where individual stores are unbounded
    /// but the sum must respect the pool).
    ///
    /// O(resident tuples) and worse; compiled only under the `audit`
    /// feature, where the differential harness calls it after every
    /// arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub fn check_invariants(&self) {
        for store in &self.stores {
            store.check_invariants();
        }
        if let Some(sketches) = self.sketches.as_ref() {
            sketches.check_invariants();
        }
        match &self.memory {
            // Store-local capacity bounds are asserted inside
            // `WindowStore::check_invariants`; nothing extra to add.
            MemoryMode::PerWindow(_) | MemoryMode::PerWindowEach(_) => {}
            MemoryMode::GlobalPool(total) => {
                let resident: usize = self.stores.iter().map(|s| s.len()).sum();
                assert!(
                    resident <= *total,
                    "pool overrun: {resident} resident > {total} budget"
                );
            }
        }
        if let Some(front) = self.front.as_ref() {
            // Everything still buffered must be at or ahead of the
            // watermark: earlier entries were either released or late-dropped.
            let wm = front.watermark();
            for (k, buf) in front.buffers.iter().enumerate() {
                if let Some((ts, _)) = buf.peek_key() {
                    assert!(
                        ts >= wm,
                        "stream {k} holds a releasable arrival: {ts:?} < watermark {wm:?}"
                    );
                }
            }
        }
    }

    /// Mints an [`Arrival`] into a sequence-numbered tuple without
    /// processing it.
    ///
    /// Use this when the tuple will be processed *later* (queued input,
    /// sharded dispatch): sequence numbers are assigned in arrival order,
    /// independent of service order.
    pub fn mint(&mut self, arrival: Arrival) -> Tuple {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        Tuple::new(arrival.stream, arrival.ts, seq, arrival.values)
    }

    /// The single entry point for feeding the engine: mints `arrival` and
    /// runs it through the operator at its arrival timestamp, passing every
    /// join result it completes to `sink`.
    ///
    /// # Timestamp contract
    /// Without a disorder bound ([`EngineConfig::disorder`] = `None`),
    /// timestamps are trusted as given — monotone or not — and the arrival
    /// is processed immediately at its own timestamp. With a bound `K`, the
    /// event-time front end takes over: the arrival is buffered and later
    /// replayed in timestamp order, unless its timestamp has already fallen
    /// behind the watermark (`min` cross-stream high-water mark minus `K`),
    /// in which case it is dropped — counted in
    /// [`EngineMetrics::late_dropped`], never joined, and **never a
    /// panic**. Regressions within the bound are therefore absorbed;
    /// regressions beyond it are accounted, not amplified.
    pub fn ingest(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        if self.front.is_some() {
            return self.ingest_event_time(arrival, sink);
        }
        let now = arrival.ts;
        let tuple = self.mint(arrival);
        self.ingest_tuple(tuple, now, sink)
    }

    /// Event-time ingest: advance this stream's high-water mark, admit or
    /// late-drop the arrival against the watermark, then release every
    /// buffered arrival the new watermark proves safe.
    fn ingest_event_time(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        let front = self.front.as_mut().expect("caller checked");
        let k = arrival.stream.index();
        if arrival.ts > front.hwm[k] {
            front.hwm[k] = arrival.ts;
        }
        let wm = front.watermark();
        if arrival.ts < wm {
            // Later than the disorder bound: the reorder guarantee no
            // longer covers it (its window contemporaries may already have
            // been released and expired), so joining it would produce
            // results an in-order run never would. Count and drop.
            self.metrics.late_dropped += 1;
            return IngestOutcome {
                produced: 0,
                stored: false,
                shed: 0,
            };
        }
        let entry = front.admitted;
        front.admitted += 1;
        front.buffers[k].push(arrival.ts, entry, arrival);
        self.release_below(Some(wm), sink)
    }

    /// Releases buffered arrivals in merged `(ts, admission)` order while
    /// the head's timestamp is strictly below `wm` (`None` releases
    /// everything — end-of-trace flush). Strictness matters: a future
    /// accepted arrival carries `ts >= wm`, so nothing released here can
    /// ever be preceded by one still to come. Each release is processed at
    /// its **own** timestamp through the unchanged pipeline — a covered
    /// disorder run is literally a replay of the in-order run.
    fn release_below(&mut self, wm: Option<VTime>, sink: &mut impl EmitSink) -> IngestOutcome {
        let mut total = IngestOutcome {
            produced: 0,
            stored: true,
            shed: 0,
        };
        loop {
            let front = self.front.as_mut().expect("event-time engines only");
            let mut head: Option<(VTime, u64, usize)> = None;
            for (k, buf) in front.buffers.iter().enumerate() {
                if let Some((ts, entry)) = buf.peek_key() {
                    if head.map_or(true, |(ht, he, _)| (ts, entry) < (ht, he)) {
                        head = Some((ts, entry, k));
                    }
                }
            }
            let Some((ts, _, k)) = head else { break };
            if let Some(wm) = wm {
                if ts >= wm {
                    break;
                }
            }
            let (_, _, arrival) = front.buffers[k].pop().expect("peeked entry exists");
            let now = arrival.ts;
            let tuple = self.mint(arrival);
            let out = self.ingest_tuple(tuple, now, sink);
            total.produced += out.produced;
            total.shed += out.shed;
        }
        total
    }

    /// Drains the event-time reorder buffers at end of trace, releasing
    /// every still-buffered arrival in `(ts, admission)` order regardless
    /// of the watermark. No-op (and all-zero outcome) without a disorder
    /// bound.
    pub fn flush(&mut self, sink: &mut impl EmitSink) -> IngestOutcome {
        if self.front.is_none() {
            return IngestOutcome {
                produced: 0,
                stored: true,
                shed: 0,
            };
        }
        self.release_below(None, sink)
    }

    /// The current event-time watermark (`None` without a disorder bound).
    pub fn watermark(&self) -> Option<VTime> {
        self.front.as_ref().map(EventTimeFrontEnd::watermark)
    }

    /// The configured disorder bound (`None` = legacy arrival-time path).
    pub fn disorder_bound(&self) -> Option<VDur> {
        self.front.as_ref().map(|f| f.bound)
    }

    /// Arrivals currently held in the reorder buffers (0 without a bound).
    pub fn buffered(&self) -> usize {
        self.front
            .as_ref()
            .map_or(0, |f| f.buffers.iter().map(ReorderBuffer::len).sum())
    }

    /// Runs one already-minted tuple through the join operator at time
    /// `now` (its arrival timestamp may be earlier if it waited in an input
    /// queue or a shard channel), passing every result combination to
    /// `sink`.
    pub fn ingest_tuple(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        self.ingest_tuple_as(tuple, now, sink, IngestRole::FULL)
    }

    /// Role-parameterized form of [`ShedJoinEngine::ingest_tuple`], the
    /// primitive behind replicated delivery in the sharded engine.
    ///
    /// Every role observes sketches, expires windows, scores and stores the
    /// tuple — so replicated copies keep estimation state and tuple-window
    /// expiry counters advancing identically on every shard. The role only
    /// gates the *probe* (whether this delivery emits join results) and the
    /// *accounting* (whether it counts as the arrival's one `processed`
    /// delivery or as a `replicated` copy). `IngestRole::FULL` is exactly
    /// the classic path: `ingest_tuple` delegates here unconditionally, so
    /// an unsharded engine and an S=1 sharded engine execute the same code.
    pub fn ingest_tuple_as(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
        role: IngestRole,
    ) -> IngestOutcome {
        let stream = tuple.stream;
        // 1. Fold into the current tumbling estimation state (AGMS sketches
        //    and/or exact arrival-frequency tables); on epoch rollover,
        //    rebuild every window's priorities against the fresh snapshot.
        let mut rolled = false;
        if self.sketches.is_some() || self.partner_freq.is_some() {
            let t0 = Instant::now();
            if let Some(sketches) = self.sketches.as_mut() {
                rolled |= sketches.observe(stream, &tuple.values, now);
            }
            if let Some(freq) = self.partner_freq.as_mut() {
                rolled |= freq.observe(stream, &tuple.values, now);
            }
            self.metrics.sketch_observe_ns += t0.elapsed().as_nanos() as u64;
        }
        if rolled {
            self.metrics.epoch_rollovers += 1;
            if self.reqs.recompute_on_epoch {
                let t0 = Instant::now();
                self.rebuild_all_priorities(now);
                self.metrics.priority_rebuild_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        // 2. Delete expired tuples from every window.
        self.expire_all(now);
        // 3. Emit the join results produced by this tuple. Store-only
        //    replicas skip the probe entirely: their arrival's results are
        //    emitted by the one shard that received the FULL delivery.
        let track = self.reqs.produced_counters;
        let origin = stream.index();
        let produced = if role.probe {
            let scratch = &mut self.produced_scratch;
            let plan = &self.plans[origin];
            probe_each_with(&mut self.probe_scratch, plan, &tuple, &self.stores, |b| {
                if track {
                    for (k, s) in scratch.iter_mut().enumerate() {
                        if k != origin {
                            let slot = b.slot(StreamId(k)).expect("bound in match");
                            s.add(slot, 1);
                        }
                    }
                }
                sink.emit(QueryId::SOLO, b);
            })
        } else {
            0
        };
        self.metrics.total_output += produced;
        if role.count_processed {
            self.metrics.processed += 1;
        } else {
            self.metrics.replicated += 1;
        }
        // 4. Credit output to the participating window tuples and refresh
        //    their priorities (the RS measure depends on produced counts):
        //    one coalesced heap update per touched slot.
        if track && produced > 0 {
            self.flush_produced();
        }
        // 5. Score and store the arriving tuple, shedding if full.
        let t0 = Instant::now();
        let (score, state) = self.score_window_with_state(&tuple, 0, now);
        self.metrics.score_ns += t0.elapsed().as_nanos() as u64;
        let (stored, shed) = self.insert_with_shedding(tuple, score, state);
        IngestOutcome {
            produced,
            stored,
            shed,
        }
    }

    /// Applies the arrival's produced-output credits: one coalesced
    /// `add_produced` + priority refresh per touched slot, in first-credit
    /// order. Refreshes use the per-tuple state cached at the last full
    /// scoring, keeping the paper's "productivity computed at most twice
    /// per lifetime" discipline.
    fn flush_produced(&mut self) {
        let Self {
            policy,
            stores,
            produced_scratch,
            ..
        } = self;
        for (k, scratch) in produced_scratch.iter_mut().enumerate() {
            scratch.drain_credits(|slot, cnt| {
                let Some(total) = stores[k].add_produced(slot, cnt) else {
                    return;
                };
                let state = stores[k].state(slot).expect("counted slot is live");
                let score = clamp_score(policy.refresh_priority(state, total));
                stores[k].update_priority(slot, score);
            });
        }
    }

    /// Notes an arrival on `stream` that is being processed *elsewhere*
    /// (another shard of a partitioned execution), so tuple-based window
    /// expiration here still counts every operator-reaching arrival of the
    /// stream, not just the ones routed to this engine.
    pub fn note_foreign_arrival(&mut self, stream: StreamId) {
        self.stores[stream.index()].note_arrival();
    }

    /// Bulk form of [`ShedJoinEngine::note_foreign_arrival`]: notes `n`
    /// foreign arrivals on `stream` in one call (a coalesced tick summary
    /// from the shard coordinator).
    pub fn note_foreign_arrivals(&mut self, stream: StreamId, n: u64) {
        self.stores[stream.index()].note_arrivals(n);
    }

    /// Priority a policy assigns `tuple` if it were queued right now.
    pub fn queue_score(&mut self, tuple: &Tuple, now: VTime) -> f64 {
        let event_time = self.front.is_some();
        let Self {
            query,
            policy,
            sketches,
            partner_freq,
            rng,
            ..
        } = self;
        let mut ctx = PriorityCtx {
            query,
            sketches: sketches.as_mut(),
            partner_freq: partner_freq.as_ref(),
            now,
            rng,
            event_time,
        };
        clamp_score(policy.queue_priority(&mut ctx, tuple))
    }

    /// The queue-victim mode of the active policy.
    pub fn queue_victim(&self) -> QueueVictim {
        self.policy.queue_victim()
    }

    /// The engine's seeded rng (shared with the queue for victim draws so a
    /// whole run remains a single deterministic random sequence).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Records that the input queue shed a tuple before it reached the
    /// operator.
    pub fn note_queue_shed(&mut self) {
        self.metrics.shed_queue += 1;
    }

    /// Estimated size of the full multi-way join over the current epoch
    /// (diagnostics; `None` when the policy runs sketch-free). Settles the
    /// sketches' pending folds first, hence `&mut self`.
    pub fn estimate_join_count(&mut self) -> Option<f64> {
        self.sketches.as_mut().map(|s| s.estimate_join_count())
    }

    fn score_window_with_state(
        &mut self,
        tuple: &Tuple,
        produced: u64,
        now: VTime,
    ) -> (f64, f64) {
        let event_time = self.front.is_some();
        let Self {
            query,
            policy,
            sketches,
            partner_freq,
            rng,
            ..
        } = self;
        let mut ctx = PriorityCtx {
            query,
            sketches: sketches.as_mut(),
            partner_freq: partner_freq.as_ref(),
            now,
            rng,
            event_time,
        };
        // All scores funnel through the finite clamp before they reach a
        // priority heap — third-party policies included.
        let (score, state) = policy.window_priority_with_state(&mut ctx, tuple, produced);
        (clamp_score(score), state)
    }

    fn rebuild_all_priorities(&mut self, now: VTime) {
        let Self {
            query,
            policy,
            stores,
            sketches,
            partner_freq,
            rng,
            ..
        } = self;
        // Residents are rescored against the *current* epoch snapshot even
        // in event-time mode: the paper's rollover rescoring asks "how
        // productive will this tuple be from now on", not "which epoch did
        // it arrive in" — and the trusting engine does exactly this, which
        // the K = 0 bit-identity contract (DESIGN.md §13) pins. Event-time
        // epoch targeting applies only where a tuple's own timestamp is the
        // scoring instant: admission scoring and queue admission.
        let grouped = policy.groupable_estimate();
        for store in stores.iter_mut() {
            if grouped {
                // Walk residents grouped by distinct join key: one
                // estimation-kernel run per key, fanned out to every slot
                // holding that key through the cheap produced-count
                // combiner (DESIGN.md §16).
                store.rebuild_priorities_grouped(|tuple, produced, shared| {
                    let mut ctx = PriorityCtx {
                        query,
                        sketches: sketches.as_mut(),
                        partner_freq: partner_freq.as_ref(),
                        now,
                        rng,
                        event_time: false,
                    };
                    let estimate =
                        shared.unwrap_or_else(|| policy.window_estimate(&mut ctx, tuple));
                    let (score, state) =
                        policy.window_priority_from_estimate(&mut ctx, tuple, produced, estimate);
                    (clamp_score(score), state, estimate)
                });
            } else {
                store.rebuild_priorities(|tuple, produced| {
                    let mut ctx = PriorityCtx {
                        query,
                        sketches: sketches.as_mut(),
                        partner_freq: partner_freq.as_ref(),
                        now,
                        rng,
                        event_time: false,
                    };
                    let (score, state) =
                        policy.window_priority_with_state(&mut ctx, tuple, produced);
                    (clamp_score(score), state)
                });
            }
        }
    }

    fn expire_all(&mut self, now: VTime) {
        for store in &mut self.stores {
            self.metrics.expired += store.expire(now) as u64;
        }
    }

    /// Returns `(stored, shed)`: whether the arriving tuple remained
    /// resident, and how many tuples (possibly itself) were evicted.
    fn insert_with_shedding(&mut self, tuple: Tuple, score: f64, state: f64) -> (bool, u64) {
        let stream = tuple.stream.index();
        match self.memory {
            MemoryMode::PerWindow(_) | MemoryMode::PerWindowEach(_) => {
                let outcome = self.stores[stream].insert_scored(tuple, score, state);
                let stored = outcome.slot.is_some();
                if let mstream_window::Eviction::Evicted(_) = outcome.eviction {
                    self.metrics.shed_window += 1;
                    (stored, 1)
                } else {
                    (stored, 0)
                }
            }
            MemoryMode::GlobalPool(total) => {
                let seq = tuple.seq;
                let outcome = self.stores[stream].insert_scored(tuple, score, state);
                debug_assert_eq!(
                    outcome.eviction,
                    mstream_window::Eviction::None,
                    "pool-mode stores are unbounded; only the engine evicts"
                );
                let mut stored = true;
                let mut shed = 0u64;
                while self.stores.iter().map(WindowStore::len).sum::<usize>() > total {
                    // Global minimum under the same (score, seq) order the
                    // per-store heaps use, so cross-window ties still evict
                    // the oldest tuple first — never the just-inserted one
                    // ahead of an equally-scored elder.
                    let victim_store = self
                        .stores
                        .iter()
                        .enumerate()
                        .filter_map(|(i, st)| {
                            st.peek_min().map(|(slot, p)| {
                                let seq = st.tuple(slot).expect("heap slot is live").seq;
                                (i, p, seq)
                            })
                        })
                        .min_by(|a, b| {
                            a.1.partial_cmp(&b.1)
                                .expect("finite priorities")
                                .then(a.2.cmp(&b.2))
                        })
                        .map(|(i, _, _)| i)
                        .expect("pool over limit implies a resident tuple");
                    let (victim, _) = self.stores[victim_store]
                        .evict_min()
                        .expect("store has a minimum");
                    if victim.seq == seq {
                        stored = false;
                    }
                    self.metrics.shed_window += 1;
                    shed += 1;
                }
                (stored, shed)
            }
        }
    }
}

/// Resolves a [`MemoryMode`] into per-store capacities for an `n`-stream
/// query, validating it in the process (shared by the engine, the builder
/// and the sharded coordinator).
///
/// Pool mode yields effectively-unbounded stores: ALL enforcement happens
/// in the engine's post-insert loop, which evicts the global (cross-window)
/// minimum. Giving a store a finite capacity would let it self-evict its
/// *local* minimum when it alone exceeds the pool — the wrong victim
/// (possibly the just-inserted tuple out of tie order), and one the
/// metrics would never see.
pub(crate) fn resolve_capacities(
    memory: &MemoryMode,
    n: usize,
) -> core::result::Result<Vec<usize>, crate::builder::BuildError> {
    use crate::builder::BuildError;
    let capacities: Vec<usize> = match memory {
        MemoryMode::PerWindow(c) => vec![*c; n],
        MemoryMode::PerWindowEach(cs) => {
            if cs.len() != n {
                return Err(BuildError::CapacityCountMismatch {
                    got: cs.len(),
                    expected: n,
                });
            }
            cs.clone()
        }
        MemoryMode::GlobalPool(total) => {
            if *total == 0 {
                return Err(BuildError::ZeroWindowCapacity);
            }
            vec![usize::MAX / 2; n]
        }
    };
    if capacities.contains(&0) {
        return Err(BuildError::ZeroWindowCapacity);
    }
    Ok(capacities)
}

/// The paper's default epoch: `n = p` for time windows; per-stream tuple
/// counts for tuple-based windows (§4.1). Mixed window kinds require an
/// explicit epoch choice.
pub(crate) fn default_epoch(
    query: &JoinQuery,
) -> core::result::Result<EpochSpec, crate::builder::BuildError> {
    if query.all_tuple_based() {
        let count = query
            .windows()
            .iter()
            .map(|w| match w {
                WindowSpec::Tuples(c) => *c,
                WindowSpec::Time(_) => unreachable!("all_tuple_based checked"),
            })
            .max()
            .expect("queries have >= 2 streams");
        return Ok(EpochSpec::PerStreamTuples(count));
    }
    match query.max_time_window() {
        Some(p) if query.windows().iter().all(|w| matches!(w, WindowSpec::Time(_))) => {
            Ok(EpochSpec::Time(p))
        }
        _ => Err(crate::builder::BuildError::EpochUnderivable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::CountSink;
    use mstream_shed_policies::{Bjoin, Fifo, MSketch, MSketchRs, RandomLoad};
    use mstream_types::{Catalog, Error, StreamSchema, VDur, Value};

    fn chain3(window_secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(window_secs),
        )
        .unwrap()
    }

    fn cfg(capacity: usize) -> EngineConfig {
        EngineConfig {
            memory: MemoryMode::PerWindow(capacity),
            bank: BankConfig {
                s1: 50,
                s2: 1,
                seed: 7,
            },
            epoch: None,
            seed: 3,
            disorder: None,
            score_cache: true,
        }
    }

    fn v(a: u64, b: u64) -> Vec<Value> {
        vec![Value(a), Value(b)]
    }

    /// Test shorthand for the ingest path; returns the produced count.
    fn arrive(engine: &mut ShedJoinEngine, s: StreamId, vals: Vec<Value>, now: VTime) -> u64 {
        engine
            .ingest(Arrival::new(s, vals, now), &mut CountSink::default())
            .produced
    }

    #[test]
    fn unshedded_engine_matches_exact_join() {
        // With capacity >= arrivals the engine must be exact regardless of
        // policy.
        use mstream_join::ExactJoin;
        use rand::Rng;
        let mut engine =
            ShedJoinEngine::new(chain3(50), Box::new(MSketch), cfg(10_000)).unwrap();
        let mut exact = ExactJoin::new(chain3(50));
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..500u64 {
            let now = VTime::from_secs(i / 5);
            let s = StreamId(rng.gen_range(0..3));
            let vals = v(rng.gen_range(0..6), rng.gen_range(0..6));
            let a = arrive(&mut engine, s, vals.clone(), now);
            let b = exact.process(s, vals, now);
            assert_eq!(a, b, "arrival {i}");
        }
        assert_eq!(engine.metrics().total_output, exact.total_output());
        assert!(engine.metrics().total_output > 0);
        assert_eq!(engine.metrics().shed_window, 0);
    }

    #[test]
    fn all_policies_run_and_respect_capacity() {
        use rand::Rng;
        let policies: Vec<Box<dyn ShedPolicy>> = vec![
            Box::new(MSketch),
            Box::new(MSketchRs),
            Box::new(mstream_shed_policies::Age),
            Box::new(mstream_shed_policies::Life),
            Box::new(Bjoin),
            Box::new(RandomLoad),
            Box::new(Fifo),
        ];
        for policy in policies {
            let name = policy.name();
            let mut engine = ShedJoinEngine::new(chain3(100), policy, cfg(16)).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            for i in 0..600u64 {
                let now = VTime::from_secs(i / 3);
                let s = StreamId(rng.gen_range(0..3));
                arrive(&mut engine, s, v(rng.gen_range(0..5), rng.gen_range(0..5)), now);
                for k in 0..3 {
                    assert!(
                        engine.window_len(StreamId(k)).unwrap() <= 16,
                        "{name}: window over capacity"
                    );
                }
            }
            assert!(
                engine.metrics().shed_window > 0,
                "{name}: tight memory must shed"
            );
        }
    }

    #[test]
    fn score_cache_on_and_off_runs_are_bit_identical() {
        // The epoch memo stores the exact f64 under an exact key, so a
        // cached run must replay the uncached run bit for bit: same
        // emissions in the same order, same shed decisions, same counters
        // — up to the cache statistics themselves (a score-cache hit skips
        // the packed-sign path, so sign-cache traffic legitimately
        // differs) and wall-clock ns.
        use crate::ingest::VecSink;
        use rand::Rng;
        let policies: &[fn() -> Box<dyn ShedPolicy>] = &[
            || Box::new(MSketch),
            || Box::new(MSketchRs),
            || Box::new(mstream_shed_policies::Age),
        ];
        for mk in policies {
            let run = |cached: bool| {
                let config = EngineConfig {
                    score_cache: cached,
                    ..cfg(16)
                };
                let mut engine = ShedJoinEngine::new(chain3(40), mk(), config).unwrap();
                let mut sink = VecSink::default();
                let mut rng = StdRng::seed_from_u64(9);
                for i in 0..600u64 {
                    let now = VTime::from_secs(i / 3);
                    let s = StreamId(rng.gen_range(0..3));
                    let vals = v(rng.gen_range(0..4), rng.gen_range(0..4));
                    engine.ingest(Arrival::new(s, vals, now), &mut sink);
                }
                let mut metrics = engine.metrics().clone();
                let cache = (metrics.score_cache_hits, metrics.score_cache_misses);
                metrics.sketch_observe_ns = 0;
                metrics.priority_rebuild_ns = 0;
                metrics.score_ns = 0;
                metrics.sign_cache_hits = 0;
                metrics.sign_cache_misses = 0;
                metrics.score_cache_hits = 0;
                metrics.score_cache_misses = 0;
                (sink.rows, metrics, cache)
            };
            let name = mk().name();
            let (rows_on, metrics_on, cache_on) = run(true);
            let (rows_off, metrics_off, cache_off) = run(false);
            assert_eq!(rows_on, rows_off, "{name}: emissions diverged");
            assert_eq!(metrics_on, metrics_off, "{name}: metrics diverged");
            assert_eq!(cache_off, (0, 0), "{name}: disabled cache counts nothing");
            assert!(
                cache_on.0 + cache_on.1 > 0,
                "{name}: a groupable sketch policy must exercise the cache"
            );
        }
    }

    #[test]
    fn msketch_keeps_productive_tuples_under_pressure() {
        // Stream R1 sees two kinds of tuples: A1=1 (productive: R2/R3 are
        // full of partners) and A1=0 (dead weight). With a tiny window,
        // MSketch should retain the productive kind and out-produce FIFO.
        let run = |policy: Box<dyn ShedPolicy>| {
            let mut engine = ShedJoinEngine::new(chain3(1000), policy, cfg(8)).unwrap();
            for i in 0..200u64 {
                let now = VTime::from_secs(i);
                arrive(&mut engine, StreamId(1), v(1, 2), now);
                arrive(&mut engine, StreamId(2), v(2, 0), now);
                // Alternate productive / dead R1 tuples: FIFO retains the
                // last 8 (half dead), MSketch retains 8 productive ones, so
                // the R2/R3 arrivals that probe W1 find twice the partners.
                let a = if i % 2 == 0 { 1 } else { 0 };
                arrive(&mut engine, StreamId(0), v(a, 0), now);
            }
            engine.metrics().total_output
        };
        let msketch = run(Box::new(MSketch));
        let fifo = run(Box::new(Fifo));
        assert!(
            msketch > fifo,
            "MSketch ({msketch}) should beat FIFO ({fifo}) on skewed data"
        );
    }

    #[test]
    fn global_pool_respects_total_budget() {
        use rand::Rng;
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(30);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketch), config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..300u64 {
            let s = StreamId(rng.gen_range(0..3));
            arrive(&mut engine, s, v(rng.gen_range(0..4), 0), VTime::from_secs(i));
            let total: usize = (0..3).map(|k| engine.window_len(StreamId(k)).unwrap()).sum();
            assert!(total <= 30, "pool bound violated: {total}");
        }
        assert!(engine.metrics().shed_window > 0);
    }

    #[test]
    fn global_pool_ties_evict_oldest_across_windows() {
        // Empty sketches give every MSketch arrival score 0, so pool
        // eviction order is decided purely by the (score, seq) tie-break:
        // the globally oldest tuple goes first, never the one that was just
        // inserted. Values are chosen to never join (no produced updates).
        // Arrive in DESCENDING stream order so the oldest tied tuple lives
        // in the highest-indexed store: a score-only comparison that
        // resolves ties by store order would evict the fresh tuple instead.
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(2);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketch), config).unwrap();
        arrive(&mut engine, StreamId(2), v(1, 1), VTime::ZERO);
        arrive(&mut engine, StreamId(1), v(2, 2), VTime::ZERO);
        // Third arrival overflows the pool; seq 0 (window 2) must go, even
        // though the arrival landed in window 0.
        arrive(&mut engine, StreamId(0), v(3, 3), VTime::ZERO);
        assert_eq!(engine.window_len(StreamId(2)).unwrap(), 0, "oldest evicted");
        assert_eq!(engine.window_len(StreamId(1)).unwrap(), 1);
        assert_eq!(engine.window_len(StreamId(0)).unwrap(), 1, "fresh tuple survives the tie");
        assert_eq!(engine.metrics().shed_window, 1);
    }

    #[test]
    fn global_pool_counts_single_window_overflow() {
        // All arrivals land in ONE window. Before pool enforcement moved
        // entirely into the engine, the store (sized to the whole pool)
        // would silently self-evict its local minimum here: the pool stayed
        // within budget but `shed_window` never saw those evictions.
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(2);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(Fifo), config).unwrap();
        for i in 0..5u64 {
            arrive(&mut engine, StreamId(0), v(i, i), VTime::ZERO);
        }
        assert_eq!(engine.window_len(StreamId(0)).unwrap(), 2, "pool bound enforced");
        assert_eq!(
            engine.metrics().shed_window,
            3,
            "every pool eviction is counted exactly once"
        );
    }

    #[test]
    fn global_pool_zero_budget_rejected() {
        let mut config = cfg(1);
        config.memory = MemoryMode::GlobalPool(0);
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), config)
            .err()
            .expect("zero pool must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn bjoin_runs_through_shedding_and_epoch_rollovers() {
        use rand::Rng;
        // Exercise the tumbling frequency tables across inserts, evictions,
        // expirations and epoch rollovers.
        let mut engine = ShedJoinEngine::new(chain3(20), Box::new(Bjoin), cfg(8)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..1500u64 {
            let s = StreamId(rng.gen_range(0..3));
            arrive(&mut engine, 
                s,
                v(rng.gen_range(0..4), rng.gen_range(0..4)),
                // ~0.7 arrivals/s/stream against 20s windows of 8 slots:
                // slow enough that hot tuples can outlive the window
                // (expirations), fast enough to overflow it (evictions).
                VTime::from_secs(i / 2),
            );
        }
        assert!(engine.metrics().expired > 0, "expirations exercised");
        assert!(engine.metrics().shed_window > 0, "evictions exercised");
    }

    #[test]
    fn produced_counters_feed_rs_priorities() {
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketchRs), cfg(64)).unwrap();
        // A hot R2 tuple that produces on every R1/R3 arrival.
        arrive(&mut engine, StreamId(1), v(1, 1), VTime::ZERO);
        arrive(&mut engine, StreamId(2), v(1, 0), VTime::ZERO);
        let mut produced = 0;
        for i in 0..10u64 {
            produced += arrive(&mut engine, StreamId(0), v(1, 0), VTime::from_secs(i));
        }
        assert_eq!(produced, 10);
        assert_eq!(engine.metrics().total_output, 10);
    }

    #[test]
    fn epoch_rollover_rebuilds_priorities() {
        let mut config = cfg(32);
        config.epoch = Some(EpochSpec::Time(VDur::from_secs(10)));
        let mut engine = ShedJoinEngine::new(chain3(100), Box::new(MSketch), config).unwrap();
        for i in 0..50u64 {
            arrive(&mut engine, StreamId(i as usize % 3), v(1, 1), VTime::from_secs(i));
        }
        assert!(engine.metrics().epoch_rollovers >= 4);
    }

    #[test]
    fn stage_timings_and_cache_stats_accumulate() {
        let mut config = cfg(32);
        config.epoch = Some(EpochSpec::Time(VDur::from_secs(10)));
        let mut engine = ShedJoinEngine::new(chain3(100), Box::new(MSketch), config).unwrap();
        for i in 0..60u64 {
            // Heavy value repetition: the packed-sign cache must hit.
            arrive(&mut engine, StreamId(i as usize % 3), v(i % 4, i % 3), VTime::from_secs(i));
        }
        let m = engine.metrics();
        assert!(m.sketch_observe_ns > 0, "observe stage timed");
        assert!(m.score_ns > 0, "scoring stage timed");
        assert!(m.priority_rebuild_ns > 0, "rollover rebuilds timed");
        assert!(m.sign_cache_misses > 0);
        assert!(
            m.sign_cache_hits > m.sign_cache_misses,
            "repeated values must be served from the sign cache \
             (hits={}, misses={})",
            m.sign_cache_hits,
            m.sign_cache_misses
        );
        // Sketch-free policies leave the sketch counters untouched.
        let mut plain = ShedJoinEngine::new(chain3(100), Box::new(Fifo), cfg(32)).unwrap();
        arrive(&mut plain, StreamId(0), v(1, 1), VTime::ZERO);
        assert_eq!(plain.metrics().sign_cache_hits, 0);
        assert_eq!(plain.metrics().sketch_observe_ns, 0);
    }

    #[test]
    fn invalid_capacity_rejected() {
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), {
            let mut c = cfg(0);
            c.memory = MemoryMode::PerWindow(0);
            c
        })
        .err()
        .expect("zero capacity must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), {
            let mut c = cfg(1);
            c.memory = MemoryMode::PerWindowEach(vec![1, 2]);
            c
        })
        .err()
        .expect("capacity count mismatch must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn tuple_based_windows_get_tuple_epochs() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        c.add_stream(StreamSchema::new("R2", &["A1"]));
        let q = JoinQuery::from_names(c, &[("R1.A1", "R2.A1")], WindowSpec::Tuples(20)).unwrap();
        let engine = ShedJoinEngine::new(q, Box::new(MSketch), cfg(8)).unwrap();
        // Constructed without error: the default epoch resolved to
        // PerStreamTuples(20).
        assert_eq!(engine.policy_name(), "MSketch");
    }

    #[test]
    fn deterministic_runs_per_seed() {
        use rand::Rng;
        let run = |seed: u64| {
            let mut config = cfg(16);
            config.seed = seed;
            let mut engine =
                ShedJoinEngine::new(chain3(100), Box::new(RandomLoad), config).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for i in 0..400u64 {
                let s = StreamId(rng.gen_range(0..3));
                arrive(&mut engine, 
                    s,
                    v(rng.gen_range(0..5), rng.gen_range(0..5)),
                    VTime::from_secs(i / 4),
                );
            }
            engine.metrics().total_output
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds shed differently");
    }
}
