//! The shared multi-query data plane: one engine, N standing queries.
//!
//! [`MultiQueryEngine`] inverts the ownership of the single-query engine:
//! instead of a query owning its windows, the *engine* owns one
//! [`WindowStore`] (with its flat indexes) per **stream × window** and
//! registered queries borrow them. Registration groups queries into
//! **classes** — structurally identical queries (same streams, windows and
//! predicates) collapse into one class that is planned, estimated, scored
//! and probed exactly once; its emissions fan out to every member
//! [`QueryId`]. Distinct classes that touch the same `(stream, window)`
//! pair share the store outright, and their probe plans are merged into a
//! per-arrival-stream **probe trie** so a shared plan prefix (the same
//! equi-predicate over the same stores) is enumerated once and its partial
//! probe results are reused by every query hanging off it.
//!
//! # Ownership and exactness
//!
//! Every store has a deterministic **owner**: the lowest-id class using it.
//! The owner's policy scores insertions, takes the produced-output credits
//! of its own emissions, and rebuilds the store's priorities on its epoch
//! rollovers — so the owner's stores evolve bit-for-bit as they would in
//! that query's solo run, even under shedding. Queries that share a store
//! they do not own get the full exactness contract only at full memory
//! (identical contents, identical bucket order → bit-identical output
//! modulo stream tags, see below); under shedding their output is a
//! sub-multiset of their exact output, shaped by the owner's policy.
//!
//! # Registration semantics
//!
//! [`MultiQueryEngine::add_query`] mid-run always creates a fresh class
//! with **fresh stores** (never reusing resident state), so a query
//! registered mid-run sees only tuples admitted after registration —
//! deterministic state handoff with no retroactive results.
//! [`MultiQueryEngine::remove_query`] drops the member; a class with no
//! members left is dismantled and any store losing its last user is freed
//! immediately (its memory budget with it). Query ids are dense
//! registration-order indices and are never reused.
//!
//! # Stream tags in emissions
//!
//! Stored tuples carry the *owner class's local* stream tag; the arriving
//! tuple in a [`Bindings`] carries the engine's *global* tag. Consumers
//! identifying result rows should therefore key on `(ts, values)` (plus
//! emission order), not on `Tuple::stream` — the differential tests and
//! the audit harness do exactly this.

use crate::builder::BuildError;
use crate::engine::{default_epoch, EngineConfig, MemoryMode, ProducedScratch};
use crate::ingest::{Arrival, EmitSink, IngestOutcome};
use crate::report::EngineMetrics;
use mstream_join::{Bindings, ProbePlan, StoreLookup};
use mstream_shed_policies::{clamp_score, PriorityCtx, Requirements, ShedPolicy};
use mstream_sketch::{TumblingFreq, TumblingSketches};
use mstream_types::{
    Catalog, EquiPredicate, JoinQuery, QueryId, SeqNo, StreamId, Tuple, VTime, Value, WindowSpec,
};
use mstream_window::{Slot, WindowStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::multi_shard::{MultiRunReport, ShardedMultiEngine};

/// One shared window store plus its sharing bookkeeping.
struct StoreEntry {
    store: WindowStore,
    /// The global stream this store holds tuples of.
    gstream: StreamId,
    /// Classes using this store, in registration order; `users[0]` is the
    /// owner whose policy governs scoring and shedding here.
    users: Vec<usize>,
    /// Tuples shed from this store (evictions before expiry).
    shed: u64,
}

/// One class of structurally identical registered queries.
struct QueryClass {
    /// The class's query in its own local stream space (`StreamId(0..n)`).
    query: JoinQuery,
    /// Member queries, in registration order; every emission fans out to
    /// each of them.
    members: Vec<QueryId>,
    plans: Vec<ProbePlan>,
    policy: Box<dyn ShedPolicy>,
    reqs: Requirements,
    sketches: Option<TumblingSketches>,
    partner_freq: Option<TumblingFreq>,
    rng: StdRng,
    /// Local stream `k` → global stream id.
    gstream_of: Vec<StreamId>,
    /// Local stream `k` → store table index.
    store_of: Vec<usize>,
}

impl QueryClass {
    /// The local stream id of global stream `g` in this class, if any.
    fn local_of(&self, g: StreamId) -> Option<StreamId> {
        self.gstream_of.iter().position(|&x| x == g).map(StreamId)
    }
}

/// Per registered query state (dense by [`QueryId`]).
struct QueryState {
    class: usize,
    produced: u64,
}

/// Per-query counters reported by [`MultiQueryEngine::query_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Join results emitted under this query's id.
    pub produced: u64,
    /// Tuples shed from the stores this query reads (shared stores count
    /// the same eviction for every user).
    pub shed: u64,
}

/// A position in the probe-trie path: the arriving tuple or an
/// already-bound trie depth. Canonicalizing plan steps into path positions
/// (instead of query-local stream ids) is what lets structurally matching
/// steps of *different* queries merge into one trie node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathRef {
    Origin,
    Depth(usize),
}

/// One merged probe step shared by every class whose canonical plan
/// traverses it. `terminals` lists the classes whose plans complete here.
struct TrieNode {
    /// Store table index probed by this step.
    store: usize,
    /// Schema attribute hash-probed on that store.
    probe_attr: usize,
    /// Where the probe value comes from.
    drive: (PathRef, usize),
    /// Residual equi-checks `(bound position, bound attr, candidate
    /// attr)`.
    residual: Vec<(PathRef, usize, usize)>,
    /// `(class id, class-local origin stream)` pairs completing here.
    terminals: Vec<(usize, StreamId)>,
    children: Vec<TrieNode>,
    /// Drive and residuals read only the arriving tuple, so the candidate
    /// list is the same under every parent candidate: the parent probes it
    /// once per visit instead of once per parent candidate.
    origin_only: bool,
}

/// One live store as the per-arrival loops see it: its id, stream, owner
/// class and the owner's local stream for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LiveStore {
    store: usize,
    gstream: StreamId,
    owner: usize,
    local: StreamId,
}

/// Applies every pending produced-output credit of every store: one
/// coalesced `add_produced` + priority refresh per touched live slot,
/// refreshed by the store owner's policy (credits are only accrued by
/// owner-class emissions, keeping the owner's counters solo-identical).
/// The multi-query twin of the solo engine's `flush_produced`; shares its
/// generation-safe [`ProducedScratch`]. Only live stores can hold credits:
/// every ingest call drains them before it returns, and a freed store's
/// scratch is reset with it.
fn flush_credit_stores(
    stores: &mut [Option<StoreEntry>],
    scratches: &mut [ProducedScratch],
    classes: &[Option<QueryClass>],
    live: &[LiveStore],
) {
    for l in live {
        let scratch = &mut scratches[l.store];
        if scratch.touched.is_empty() {
            continue;
        }
        let entry = stores[l.store].as_mut().expect("listed store is live");
        let policy = &classes[l.owner].as_ref().expect("owner is live").policy;
        scratch.drain_credits(|slot, cnt| {
            let Some(total) = entry.store.add_produced(slot, cnt) else {
                return;
            };
            let state = entry.store.state(slot).expect("credited slot is live");
            let score = clamp_score(policy.refresh_priority(state, total));
            entry.store.update_priority(slot, score);
        });
    }
}

/// A query-local view of the shared store table: local stream `k` resolves
/// through the class's `store_of` mapping. This is the [`StoreLookup`]
/// behind every multi-query [`Bindings`].
struct MappedStores<'a> {
    entries: &'a [Option<StoreEntry>],
    map: &'a [usize],
}

impl StoreLookup for MappedStores<'_> {
    #[inline]
    fn store(&self, stream: StreamId) -> &WindowStore {
        &self.entries[self.map[stream.index()]]
            .as_ref()
            .expect("mapped store is live")
            .store
    }
}

/// One engine executing N standing window-join queries over shared
/// per-stream state. See the module docs for the sharing and exactness
/// model; construction goes through
/// [`crate::EngineBuilder::build_multi`].
pub struct MultiQueryEngine {
    catalog: Catalog,
    policy_proto: Box<dyn ShedPolicy>,
    config: EngineConfig,
    queries: Vec<Option<QueryState>>,
    classes: Vec<Option<QueryClass>>,
    stores: Vec<Option<StoreEntry>>,
    /// Per-store produced-credit scratch (parallel to `stores`).
    scratches: Vec<ProducedScratch>,
    /// Per global stream: merged probe-trie roots.
    tries: Vec<Vec<TrieNode>>,
    /// Per global stream: `(class id, class-local stream)` of every live
    /// class reading it, ascending class id.
    observers: Vec<Vec<(usize, StreamId)>>,
    /// Every live store, ascending store id. With `observers` this keeps
    /// the per-arrival loops proportional to the live plane, not to every
    /// class and store ever registered.
    live_stores: Vec<LiveStore>,
    /// Trie-walk buffers reused by every arrival.
    walk_scratch: WalkScratch,
    next_seq: SeqNo,
    metrics: EngineMetrics,
    /// Cache counters of classes dismantled by
    /// [`MultiQueryEngine::remove_query`], folded in at teardown so the
    /// engine-level cache statistics stay monotone as classes (and the
    /// sketch banks carrying the live counters) come and go.
    retired_cache: RetiredCacheStats,
    /// Recycled buffer behind [`MultiQueryEngine::ingest_batch`].
    batch_scratch: Vec<(Tuple, VTime)>,
}

/// Sketch-side cache counters surviving their class (see
/// [`MultiQueryEngine::remove_query`]).
#[derive(Clone, Copy, Debug, Default)]
struct RetiredCacheStats {
    sign_hits: u64,
    sign_misses: u64,
    score_hits: u64,
    score_misses: u64,
}

impl RetiredCacheStats {
    fn absorb(&mut self, sketches: &TumblingSketches) {
        let signs = sketches.sign_cache_stats();
        self.sign_hits += signs.hits;
        self.sign_misses += signs.misses;
        let scores = sketches.score_cache_stats();
        self.score_hits += scores.hits;
        self.score_misses += scores.misses;
    }
}

/// Maps `query`'s local streams into `catalog` by stream *name*, appending
/// streams the catalog has not seen and rejecting schema conflicts. Shared
/// by the in-process engine and the sharded coordinator (whose routing
/// table must mirror its workers' merged catalogs exactly).
pub(crate) fn merge_into_catalog(
    catalog: &mut Catalog,
    query: &JoinQuery,
) -> Result<Vec<StreamId>, BuildError> {
    let mut gstream_of = Vec::with_capacity(query.n_streams());
    for (_, schema) in query.catalog().iter() {
        let existing = catalog
            .iter()
            .find(|(_, s)| s.name == schema.name)
            .map(|(g, s)| (g, s.attrs.clone()));
        let g = match existing {
            Some((g, attrs)) => {
                if attrs != schema.attrs {
                    return Err(BuildError::SchemaMismatch {
                        stream: schema.name.clone(),
                    });
                }
                g
            }
            None => catalog.add_stream(schema.clone()),
        };
        gstream_of.push(g);
    }
    Ok(gstream_of)
}

/// A query's structural signature: two queries with equal signatures are
/// the same standing computation and collapse into one class.
fn class_signature(q: &JoinQuery) -> (Vec<String>, Vec<WindowSpec>, Vec<EquiPredicate>) {
    let names = q.catalog().iter().map(|(_, s)| s.name.clone()).collect();
    (names, q.windows().to_vec(), q.predicates().to_vec())
}

impl MultiQueryEngine {
    /// Builds the engine over `queries` (registration order = dense query
    /// ids). Prefer [`crate::EngineBuilder::build_multi`], which validates
    /// the configuration first.
    pub(crate) fn new(
        queries: Vec<JoinQuery>,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
    ) -> Result<Self, BuildError> {
        if queries.is_empty() {
            return Err(BuildError::NoQueries);
        }
        let mut engine = MultiQueryEngine {
            catalog: Catalog::new(),
            policy_proto: policy,
            config,
            queries: Vec::new(),
            classes: Vec::new(),
            stores: Vec::new(),
            scratches: Vec::new(),
            tries: Vec::new(),
            observers: Vec::new(),
            live_stores: Vec::new(),
            walk_scratch: WalkScratch::default(),
            next_seq: SeqNo(0),
            metrics: EngineMetrics::default(),
            retired_cache: RetiredCacheStats::default(),
            batch_scratch: Vec::new(),
        };
        engine.per_window_capacity()?;
        // Group into classes first so structurally identical queries share
        // everything, then plan the store table with the attr-index union
        // of all users before any store is constructed.
        let mut specs: Vec<(JoinQuery, Vec<QueryId>)> = Vec::new();
        for (i, q) in queries.into_iter().enumerate() {
            let sig = class_signature(&q);
            match specs.iter_mut().find(|(e, _)| class_signature(e) == sig) {
                Some((_, members)) => members.push(QueryId(i as u32)),
                None => specs.push((q, vec![QueryId(i as u32)])),
            }
        }
        struct Planned {
            gstream: StreamId,
            window: WindowSpec,
            attrs: Vec<usize>,
            users: Vec<usize>,
        }
        let mut planned: Vec<Planned> = Vec::new();
        let mut class_maps: Vec<(Vec<StreamId>, Vec<usize>)> = Vec::new();
        for (cid, (q, _)) in specs.iter().enumerate() {
            let gstream_of = engine.merge_catalog(q)?;
            let mut store_of = Vec::with_capacity(q.n_streams());
            for (k, &g) in gstream_of.iter().enumerate() {
                let window = q.window(StreamId(k));
                let mut attrs = q.join_attrs(StreamId(k));
                attrs.sort_unstable();
                attrs.dedup();
                let si = match planned
                    .iter()
                    .position(|p| p.gstream == g && p.window == window)
                {
                    Some(si) => {
                        let p = &mut planned[si];
                        for a in attrs {
                            if !p.attrs.contains(&a) {
                                p.attrs.push(a);
                            }
                        }
                        p.attrs.sort_unstable();
                        if !p.users.contains(&cid) {
                            p.users.push(cid);
                        }
                        si
                    }
                    None => {
                        planned.push(Planned {
                            gstream: g,
                            window,
                            attrs,
                            users: vec![cid],
                        });
                        planned.len() - 1
                    }
                };
                store_of.push(si);
            }
            class_maps.push((gstream_of, store_of));
        }
        let capacity = engine.per_window_capacity()?;
        for p in planned {
            engine.stores.push(Some(StoreEntry {
                store: WindowStore::new(p.window, p.attrs.clone(), capacity),
                gstream: p.gstream,
                users: p.users,
                shed: 0,
            }));
            engine.scratches.push(ProducedScratch::default());
        }
        for ((q, members), (gstream_of, store_of)) in specs.into_iter().zip(class_maps) {
            let cid = engine.classes.len();
            let class = make_class(
                q,
                members.clone(),
                gstream_of,
                store_of,
                engine.policy_proto.clone(),
                &engine.config,
            )?;
            engine.classes.push(Some(class));
            for m in members {
                if engine.queries.len() <= m.index() {
                    engine.queries.resize_with(m.index() + 1, || None);
                }
                engine.queries[m.index()] = Some(QueryState {
                    class: cid,
                    produced: 0,
                });
            }
        }
        engine.rebuild_tries();
        Ok(engine)
    }

    /// The per-window capacity of the (sole supported) memory mode.
    fn per_window_capacity(&self) -> Result<usize, BuildError> {
        match &self.config.memory {
            MemoryMode::PerWindow(0) => Err(BuildError::ZeroWindowCapacity),
            MemoryMode::PerWindow(c) => Ok(*c),
            MemoryMode::PerWindowEach(_) => Err(BuildError::UnsupportedMulti {
                what: "MemoryMode::PerWindowEach",
            }),
            MemoryMode::GlobalPool(_) => Err(BuildError::UnsupportedMulti {
                what: "MemoryMode::GlobalPool",
            }),
        }
    }

    /// Maps `query`'s local streams into the global catalog by stream
    /// *name*, appending streams the catalog has not seen and rejecting
    /// schema conflicts.
    fn merge_catalog(&mut self, query: &JoinQuery) -> Result<Vec<StreamId>, BuildError> {
        merge_into_catalog(&mut self.catalog, query)
    }

    /// The merged global catalog; [`Arrival::stream`] ids passed to
    /// [`MultiQueryEngine::ingest`] index into it.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The global id of the stream named `name`.
    pub fn stream_id(&self, name: &str) -> Option<StreamId> {
        self.catalog
            .iter()
            .find(|(_, s)| s.name == name)
            .map(|(g, _)| g)
    }

    /// Queries currently registered (removed queries do not count).
    pub fn n_queries(&self) -> usize {
        self.queries.iter().flatten().count()
    }

    /// Query ids handed out so far (dense; includes removed queries).
    pub fn n_registered(&self) -> usize {
        self.queries.len()
    }

    /// Distinct query classes currently active — the unit of planning,
    /// estimation and scoring work.
    pub fn n_classes(&self) -> usize {
        self.classes.iter().flatten().count()
    }

    /// Live shared window stores — the unit of resident memory.
    pub fn n_stores(&self) -> usize {
        self.stores.iter().flatten().count()
    }

    /// The query executed for `id` (its class's local-stream-space query).
    pub fn query(&self, id: QueryId) -> Option<&JoinQuery> {
        let state = self.queries.get(id.index())?.as_ref()?;
        self.classes[state.class].as_ref().map(|c| &c.query)
    }

    /// Accumulated engine-level counters. Sketch-side cache statistics
    /// are snapshotted here, at read time: the sum over every live class's
    /// sketch bank plus the folded baseline of classes already dismantled
    /// by [`MultiQueryEngine::remove_query`] — so the counters stay
    /// monotone across query churn.
    pub fn metrics(&mut self) -> &EngineMetrics {
        let mut total = self.retired_cache;
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.sketches.as_ref() {
                total.absorb(sk);
            }
        }
        self.metrics.sign_cache_hits = total.sign_hits;
        self.metrics.sign_cache_misses = total.sign_misses;
        self.metrics.score_cache_hits = total.score_hits;
        self.metrics.score_cache_misses = total.score_misses;
        &self.metrics
    }

    /// Per-query produced/shed counters, `None` if `id` was never
    /// registered or has been removed.
    pub fn query_stats(&self, id: QueryId) -> Option<QueryStats> {
        let state = self.queries.get(id.index())?.as_ref()?;
        let class = self.classes[state.class].as_ref()?;
        let shed = class
            .store_of
            .iter()
            .map(|&si| self.stores[si].as_ref().map_or(0, |e| e.shed))
            .sum();
        Some(QueryStats {
            produced: state.produced,
            shed,
        })
    }

    /// Total resident tuples across every live store.
    pub fn total_resident(&self) -> usize {
        self.stores
            .iter()
            .flatten()
            .map(|e| e.store.len())
            .sum()
    }

    /// Structural audit of the shared data plane: every live store's
    /// internal invariants, every class's sketch coherence, and the
    /// sharing bookkeeping (owners exist, mappings in range). Compiled
    /// only under the `audit` feature.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub fn check_invariants(&self) {
        for entry in self.stores.iter().flatten() {
            entry.store.check_invariants();
            assert!(!entry.users.is_empty(), "stores without users are freed");
            for &cid in &entry.users {
                assert!(
                    self.classes.get(cid).is_some_and(|c| c.is_some()),
                    "store user class {cid} is live"
                );
            }
        }
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.sketches.as_ref() {
                sk.check_invariants();
            }
            for (&si, &g) in class.store_of.iter().zip(&class.gstream_of) {
                let entry = self.stores[si].as_ref().expect("class store is live");
                assert_eq!(entry.gstream, g, "store mapping agrees on stream");
            }
            for &m in &class.members {
                assert!(
                    self.queries[m.index()].is_some(),
                    "class member {m} is registered"
                );
            }
        }
    }

    /// Registers a new standing query at runtime and returns its id.
    ///
    /// The query always gets a fresh class with fresh stores — even if it
    /// is structurally identical to a running one — so it sees only
    /// tuples admitted after this call (deterministic handoff). Its
    /// schema must agree with the global catalog on any stream name it
    /// shares.
    pub fn add_query(&mut self, query: JoinQuery) -> Result<QueryId, BuildError> {
        let capacity = self.per_window_capacity()?;
        let snapshot = self.catalog.clone();
        let gstream_of = match self.merge_catalog(&query) {
            Ok(m) => m,
            Err(e) => {
                self.catalog = snapshot;
                return Err(e);
            }
        };
        let cid = self.classes.len();
        let first_store = self.stores.len();
        let store_of: Vec<usize> = (0..query.n_streams()).map(|k| first_store + k).collect();
        let windows: Vec<WindowSpec> = (0..query.n_streams())
            .map(|k| query.window(StreamId(k)))
            .collect();
        let attr_sets: Vec<Vec<usize>> = (0..query.n_streams())
            .map(|k| {
                let mut a = query.join_attrs(StreamId(k));
                a.sort_unstable();
                a.dedup();
                a
            })
            .collect();
        let qid = QueryId(self.queries.len() as u32);
        let class = match make_class(
            query,
            vec![qid],
            gstream_of.clone(),
            store_of,
            self.policy_proto.clone(),
            &self.config,
        ) {
            Ok(c) => c,
            Err(e) => {
                self.catalog = snapshot;
                return Err(e);
            }
        };
        for ((&g, window), attrs) in gstream_of.iter().zip(windows).zip(attr_sets) {
            self.stores.push(Some(StoreEntry {
                store: WindowStore::new(window, attrs, capacity),
                gstream: g,
                users: vec![cid],
                shed: 0,
            }));
            self.scratches.push(ProducedScratch::default());
        }
        self.classes.push(Some(class));
        self.queries.push(Some(QueryState {
            class: cid,
            produced: 0,
        }));
        self.rebuild_tries();
        Ok(qid)
    }

    /// Deregisters `id`: it stops emitting immediately. When it was its
    /// class's last member the class is dismantled, and stores left with
    /// no users are freed on the spot (their memory budget with them).
    /// Returns `false` if `id` is unknown or already removed. Survivor
    /// queries are not perturbed: shared stores keep evolving, and a
    /// shared store whose owner departs is handed to its next-oldest user
    /// (which rescoring picks up from the next epoch rollover).
    pub fn remove_query(&mut self, id: QueryId) -> bool {
        let Some(state) = self.queries.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let cid = state.class;
        let class = self.classes[cid].as_mut().expect("member's class is live");
        class.members.retain(|&q| q != id);
        if class.members.is_empty() {
            let retired = std::mem::take(&mut self.classes[cid]).expect("checked");
            if let Some(sk) = retired.sketches.as_ref() {
                // The class's sketch bank dies here; bank its cache
                // counters so engine-level stats stay monotone.
                self.retired_cache.absorb(sk);
            }
            let store_of = retired.store_of;
            for si in store_of {
                let entry = self.stores[si].as_mut().expect("class store is live");
                let owned = entry.users[0] == cid;
                entry.users.retain(|&c| c != cid);
                match entry.users.first() {
                    None => {
                        self.stores[si] = None;
                        self.scratches[si] = ProducedScratch::default();
                    }
                    Some(&heir) if owned => {
                        // Residents carry the departed owner's local stream
                        // tag; the heir scores them under its own.
                        let heir = self.classes[heir].as_ref().expect("store user is live");
                        let k = heir
                            .store_of
                            .iter()
                            .position(|&s| s == si)
                            .expect("heir uses the store");
                        entry.store.retag(StreamId(k));
                    }
                    Some(_) => {}
                }
            }
        }
        self.rebuild_tries();
        true
    }

    /// Mints an [`Arrival`] (global stream id) into a sequence-numbered
    /// tuple without processing it.
    pub fn mint(&mut self, arrival: Arrival) -> Tuple {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        Tuple::new(arrival.stream, arrival.ts, seq, arrival.values)
    }

    /// Feeds one arrival (addressed by **global** stream id) through the
    /// shared data plane: every interested class observes it, probes once
    /// through the merged trie, and fans results out to its member
    /// queries via `sink`. Returns the aggregate outcome across all
    /// queries.
    pub fn ingest(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        let now = arrival.ts;
        let tuple = self.mint(arrival);
        self.ingest_tuple(tuple, now, sink)
    }

    /// Runs one already-minted tuple (global stream tag) through the data
    /// plane at time `now` — the primitive the sharded coordinator feeds.
    pub fn ingest_tuple(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        self.ingest_tuple_inner::<FrameKernel>(tuple, now, sink, false)
    }

    /// Runs a pre-minted batch through the shared data plane, replaying
    /// the per-arrival path bit-identically (same fan-out emissions in the
    /// same order, same shed decisions) with the batch amortizations of
    /// the solo engine: an upfront pass software-prefetches each tuple's
    /// origin-driven trie-root probes, and produced-credit rescoring is
    /// deferred — flushed before any owner rollover rebuild, before any
    /// at-capacity insert, and at batch end. Items are drained; the
    /// vector's capacity is retained for recycling.
    pub fn ingest_tuple_batch(
        &mut self,
        items: &mut Vec<(Tuple, VTime)>,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        self.ingest_batch_with::<FrameKernel>(items, sink)
    }

    fn ingest_batch_with<K: TrieKernel>(
        &mut self,
        items: &mut Vec<(Tuple, VTime)>,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        for (tuple, _) in items.iter() {
            let Some(roots) = self.tries.get(tuple.stream.index()) else {
                continue;
            };
            for node in roots {
                // Trie roots are driven by the arriving tuple itself.
                let (PathRef::Origin, attr) = &node.drive else {
                    continue;
                };
                if let Some(entry) = self.stores[node.store].as_ref() {
                    entry.store.prefetch(node.probe_attr, tuple.values[*attr]);
                }
            }
        }
        let mut total = IngestOutcome {
            produced: 0,
            stored: true,
            shed: 0,
        };
        for (tuple, now) in items.drain(..) {
            let out = self.ingest_tuple_inner::<K>(tuple, now, sink, true);
            total.produced += out.produced;
            total.shed += out.shed;
            total.stored = out.stored;
        }
        flush_credit_stores(
            &mut self.stores,
            &mut self.scratches,
            &self.classes,
            &self.live_stores,
        );
        total
    }

    /// Batch counterpart of [`MultiQueryEngine::ingest`]: mints every
    /// arrival and feeds [`MultiQueryEngine::ingest_tuple_batch`].
    pub fn ingest_batch(
        &mut self,
        arrivals: impl IntoIterator<Item = Arrival>,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        let mut items = std::mem::take(&mut self.batch_scratch);
        items.clear();
        for arrival in arrivals {
            let now = arrival.ts;
            let tuple = self.mint(arrival);
            items.push((tuple, now));
        }
        let out = self.ingest_tuple_batch(&mut items, sink);
        self.batch_scratch = items;
        out
    }

    fn ingest_tuple_inner<K: TrieKernel>(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
        defer_credits: bool,
    ) -> IngestOutcome {
        let g = tuple.stream;
        assert!(
            g.index() < self.catalog.len(),
            "arrival stream {g} is not in the engine catalog"
        );
        let Self {
            queries,
            classes,
            stores,
            scratches,
            tries,
            observers,
            live_stores,
            walk_scratch,
            metrics,
            ..
        } = self;
        // 1. Every interested class folds the arrival into its estimation
        //    state under its *local* stream id; a class whose epoch rolls
        //    over rebuilds the priorities of the stores it owns (exactly
        //    its solo rollover, store tuples already carry its tags).
        for &(cid, k) in &observers[g.index()] {
            let class = classes[cid].as_mut().expect("observer class is live");
            let mut rolled = false;
            if let Some(sk) = class.sketches.as_mut() {
                rolled |= sk.observe(k, &tuple.values, now);
            }
            if let Some(fr) = class.partner_freq.as_mut() {
                rolled |= fr.observe(k, &tuple.values, now);
            }
            if !rolled {
                continue;
            }
            metrics.epoch_rollovers += 1;
            if !class.reqs.recompute_on_epoch {
                continue;
            }
            // The rebuild reads produced counts: land any credits still
            // pending from earlier arrivals of a batch first (no-op on the
            // per-arrival path, whose scratches are always drained).
            flush_credit_stores(stores, scratches, classes, live_stores);
            let class = classes[cid].as_mut().expect("class observed above");
            let QueryClass {
                query,
                policy,
                sketches,
                partner_freq,
                rng,
                store_of,
                ..
            } = class;
            let grouped = policy.groupable_estimate();
            for &si in store_of.iter() {
                let entry = stores[si].as_mut().expect("class store is live");
                if entry.users.first() != Some(&cid) {
                    continue;
                }
                if grouped {
                    // One estimation-kernel run per distinct join key,
                    // fanned out to every slot holding that key
                    // (DESIGN.md §16) — same grouped walk as the solo
                    // engine's rollover.
                    entry.store.rebuild_priorities_grouped(|t, produced, shared| {
                        let mut ctx = PriorityCtx {
                            query,
                            sketches: sketches.as_mut(),
                            partner_freq: partner_freq.as_ref(),
                            now,
                            rng,
                            event_time: false,
                        };
                        let estimate =
                            shared.unwrap_or_else(|| policy.window_estimate(&mut ctx, t));
                        let (score, state) =
                            policy.window_priority_from_estimate(&mut ctx, t, produced, estimate);
                        (clamp_score(score), state, estimate)
                    });
                } else {
                    entry.store.rebuild_priorities(|t, produced| {
                        let mut ctx = PriorityCtx {
                            query,
                            sketches: sketches.as_mut(),
                            partner_freq: partner_freq.as_ref(),
                            now,
                            rng,
                            event_time: false,
                        };
                        let (score, state) =
                            policy.window_priority_with_state(&mut ctx, t, produced);
                        (clamp_score(score), state)
                    });
                }
            }
        }
        // 2. Expire every live store. Expirations always proceed
        //    oldest-first, so expiring a store between its owner's events
        //    changes only the batching of removals, never their sequence —
        //    owner-solo equivalence is preserved.
        for l in live_stores.iter() {
            let entry = stores[l.store].as_mut().expect("listed store is live");
            metrics.expired += entry.store.expire(now) as u64;
        }
        // 3. Probe every interested class through the merged trie, before
        //    any insertion (the paper's operator probes partner windows
        //    only). Shared prefixes are enumerated once.
        let produced = match tries.get(g.index()) {
            Some(roots) => {
                let mut ctx = ProbeCtx {
                    entries: stores,
                    classes,
                    queries,
                    scratches,
                    sink,
                    tuple: &tuple,
                };
                K::walk(&mut ctx, roots, walk_scratch)
            }
            None => 0,
        };
        metrics.total_output += produced;
        metrics.processed += 1;
        // 4. Apply produced-output credits: one coalesced heap update per
        //    touched slot (see `flush_credit_stores`). Batched arrivals
        //    leave them pending instead, so a slot matched by many batch
        //    members still costs one update.
        if !defer_credits {
            flush_credit_stores(stores, scratches, classes, live_stores);
        }
        // 5. Store the arrival once per (stream, window) store, scored and
        //    tagged by the store's owner; shed if full. A full store evicts
        //    by priority, so the batched path lands pending refreshes
        //    first to pick the same victim the per-arrival replay would.
        let arrival_stores = || live_stores.iter().filter(|l| l.gstream == g);
        if defer_credits
            && arrival_stores().any(|l| {
                let store = &stores[l.store]
                    .as_ref()
                    .expect("listed store is live")
                    .store;
                store.len() >= store.capacity()
            })
        {
            flush_credit_stores(stores, scratches, classes, live_stores);
        }
        let mut stored = false;
        let mut shed = 0u64;
        for l in arrival_stores() {
            let entry = stores[l.store].as_mut().expect("listed store is live");
            let class = classes[l.owner].as_mut().expect("owner is live");
            let mut local = tuple.clone();
            local.stream = l.local;
            let (score, state) = {
                let QueryClass {
                    query,
                    policy,
                    sketches,
                    partner_freq,
                    rng,
                    ..
                } = class;
                let mut ctx = PriorityCtx {
                    query,
                    sketches: sketches.as_mut(),
                    partner_freq: partner_freq.as_ref(),
                    now,
                    rng,
                    event_time: false,
                };
                let (s, st) = policy.window_priority_with_state(&mut ctx, &local, 0);
                (clamp_score(s), st)
            };
            let outcome = entry.store.insert_scored(local, score, state);
            stored |= outcome.slot.is_some();
            if let mstream_window::Eviction::Evicted(_) = outcome.eviction {
                entry.shed += 1;
                metrics.shed_window += 1;
                shed += 1;
            }
        }
        IngestOutcome {
            produced,
            stored,
            shed,
        }
    }

    /// Notes `n` arrivals of global stream `g` processed on another shard,
    /// so tuple-based window expiry here counts every operator-reaching
    /// arrival.
    pub fn note_foreign_arrivals(&mut self, g: StreamId, n: u64) {
        for l in self.live_stores.iter().filter(|l| l.gstream == g) {
            let entry = self.stores[l.store].as_mut().expect("listed store is live");
            entry.store.note_arrivals(n);
        }
    }

    /// Rebuilds the per-stream probe tries and the compact per-arrival
    /// lists (`observers`, `live_stores`) from the live classes and stores
    /// (called after every registration change; ascending-id insertion
    /// keeps the merge and every per-arrival loop order deterministic).
    fn rebuild_tries(&mut self) {
        let mut tries: Vec<Vec<TrieNode>> = (0..self.catalog.len()).map(|_| Vec::new()).collect();
        for cid in 0..self.classes.len() {
            let Some(class) = self.classes[cid].as_ref() else {
                continue;
            };
            for k in 0..class.query.n_streams() {
                let g = class.gstream_of[k];
                let steps = canon_steps(class, StreamId(k));
                debug_assert!(!steps.is_empty(), "joins have at least two streams");
                let mut cur: &mut Vec<TrieNode> = &mut tries[g.index()];
                for (j, step) in steps.iter().enumerate() {
                    let pos = match cur.iter().position(|n| {
                        n.store == step.store
                            && n.probe_attr == step.probe_attr
                            && n.drive == step.drive
                            && n.residual == step.residual
                    }) {
                        Some(p) => p,
                        None => {
                            cur.push(TrieNode {
                                store: step.store,
                                probe_attr: step.probe_attr,
                                drive: step.drive,
                                residual: step.residual.clone(),
                                terminals: Vec::new(),
                                children: Vec::new(),
                                origin_only: step.drive.0 == PathRef::Origin
                                    && step.residual.iter().all(|r| r.0 == PathRef::Origin),
                            });
                            cur.len() - 1
                        }
                    };
                    if j + 1 == steps.len() {
                        cur[pos].terminals.push((cid, StreamId(k)));
                        break;
                    }
                    cur = &mut cur[pos].children;
                }
            }
        }
        self.tries = tries;
        let mut observers: Vec<Vec<(usize, StreamId)>> =
            (0..self.catalog.len()).map(|_| Vec::new()).collect();
        for (cid, class) in self.classes.iter().enumerate() {
            let Some(class) = class.as_ref() else {
                continue;
            };
            for (k, &g) in class.gstream_of.iter().enumerate() {
                // A class observes each global stream once, under its first
                // local stream on it.
                if class.local_of(g) == Some(StreamId(k)) {
                    observers[g.index()].push((cid, StreamId(k)));
                }
            }
        }
        self.observers = observers;
        self.live_stores = self
            .stores
            .iter()
            .enumerate()
            .filter_map(|(si, entry)| {
                let entry = entry.as_ref()?;
                let owner = entry.users[0];
                let class = self.classes[owner].as_ref().expect("owner is live");
                let k = class
                    .store_of
                    .iter()
                    .position(|&s| s == si)
                    .expect("owner uses its store");
                Some(LiveStore {
                    store: si,
                    gstream: entry.gstream,
                    owner,
                    local: StreamId(k),
                })
            })
            .collect();
    }
}

/// A class plan step canonicalized into path-position space.
struct CanonStep {
    store: usize,
    probe_attr: usize,
    drive: (PathRef, usize),
    residual: Vec<(PathRef, usize, usize)>,
}

/// Rewrites `class`'s probe plan for local origin `k` so that every stream
/// reference becomes a path position — the representation under which
/// structurally matching steps of different queries compare equal.
fn canon_steps(class: &QueryClass, origin: StreamId) -> Vec<CanonStep> {
    let plan = &class.plans[origin.index()];
    let mut pos_of: Vec<Option<PathRef>> = vec![None; class.query.n_streams()];
    pos_of[origin.index()] = Some(PathRef::Origin);
    plan.steps()
        .iter()
        .enumerate()
        .map(|(j, step)| {
            let canon = CanonStep {
                store: class.store_of[step.stream.index()],
                probe_attr: step.probe_attr,
                drive: (
                    pos_of[step.drive_stream.index()].expect("drive stream bound before use"),
                    step.drive_attr,
                ),
                residual: step
                    .residual
                    .iter()
                    .map(|&(bs, ba, ca)| {
                        (
                            pos_of[bs.index()].expect("residual stream bound before use"),
                            ba,
                            ca,
                        )
                    })
                    .collect(),
            };
            pos_of[step.stream.index()] = Some(PathRef::Depth(j));
            canon
        })
        .collect()
}

/// Constructs one query class (shared by build-time registration and
/// runtime [`MultiQueryEngine::add_query`]).
fn make_class(
    query: JoinQuery,
    members: Vec<QueryId>,
    gstream_of: Vec<StreamId>,
    store_of: Vec<usize>,
    policy: Box<dyn ShedPolicy>,
    config: &EngineConfig,
) -> Result<QueryClass, BuildError> {
    let reqs = policy.requirements();
    let epoch = if reqs.sketches || reqs.partner_freq {
        Some(match config.epoch {
            Some(e) => e,
            None => default_epoch(&query)?,
        })
    } else {
        None
    };
    let mut sketches = reqs.sketches.then(|| {
        TumblingSketches::new(&query, config.bank, epoch.expect("resolved above"))
    });
    if let (Some(on), Some(s)) = (config.score_cache, sketches.as_mut()) {
        s.set_score_cache(on);
    }
    let partner_freq = reqs
        .partner_freq
        .then(|| TumblingFreq::new(&query, epoch.expect("resolved above")));
    Ok(QueryClass {
        plans: ProbePlan::all(&query),
        query,
        members,
        policy,
        reqs,
        sketches,
        partner_freq,
        rng: StdRng::seed_from_u64(config.seed),
        gstream_of,
        store_of,
    })
}

/// The shared data plane one arrival's trie walk reads and credits.
struct ProbeCtx<'a, S: EmitSink> {
    entries: &'a [Option<StoreEntry>],
    classes: &'a [Option<QueryClass>],
    queries: &'a mut [Option<QueryState>],
    scratches: &'a mut [ProducedScratch],
    sink: &'a mut S,
    /// The arriving tuple (global stream tag; only values/ts/seq are read).
    tuple: &'a Tuple,
}

impl<S: EmitSink> ProbeCtx<'_, S> {
    /// The owner class of store `si`.
    fn owner(&self, si: usize) -> usize {
        self.entries[si].as_ref().expect("path store is live").users[0]
    }
}

/// A probe-trie enumeration kernel: walks one global stream's trie roots
/// for the arriving tuple, emits every match to the member queries and
/// returns the number of emissions. Production runs [`FrameKernel`]; the
/// recursive walker it replaced implements this trait only in tests, as
/// the order-exact differential reference.
trait TrieKernel {
    fn walk<'a, S: EmitSink>(
        ctx: &mut ProbeCtx<'a, S>,
        roots: &'a [TrieNode],
        scratch: &mut WalkScratch,
    ) -> u64;
}

/// A candidate list: the inline head and spill tail of an index bucket.
type Cands<'a> = (&'a [Slot], &'a [Slot]);

/// One open node visit of [`FrameKernel`]: the node's candidate list, the
/// resume cursor, the child to enter next under the bound candidate, and
/// where this visit's hoisted residual values, resolved terminals and
/// hoisted child candidates start in the walk buffers.
struct Frame<'a> {
    node: &'a TrieNode,
    head: &'a [Slot],
    tail: &'a [Slot],
    cursor: usize,
    /// Next child to enter under the bound candidate; `None` between
    /// candidates.
    child: Option<usize>,
    res_base: usize,
    term_base: usize,
    hoist_base: usize,
    /// Candidates that passed the residual checks: each is one row of
    /// every terminal here.
    rows: u64,
}

/// A terminal class resolved once per node visit: what its rows need of
/// the class, borrowed for the walk.
struct Term<'a> {
    members: &'a [QueryId],
    /// Class-local stream → store table index.
    store_of: &'a [usize],
    /// Whether the class's policy takes produced credits.
    credits: bool,
    /// Class id, for owner checks on produced credits.
    cid: usize,
    /// Class-local origin stream.
    origin: StreamId,
    /// Class-local stream bound at this node's depth.
    local: usize,
    /// This terminal's binding slots (one per class-local stream) start
    /// here in [`WalkScratch::binds`].
    bind_base: usize,
}

/// Trie-walk buffers owned by the engine and reused by every arrival, so
/// the steady-state walk allocates nothing. The borrowing buffers are empty
/// between walks and re-typed to each walk's borrow (see [`recycle`]).
#[derive(Default)]
struct WalkScratch {
    /// `(slot, store)` bound at each depth above the open node.
    path: Vec<(Slot, usize)>,
    /// Hoisted residual `(left-hand value, candidate attr)` pairs.
    res: Vec<(Value, usize)>,
    /// Per resolved terminal: its class-local slot bindings.
    binds: Vec<Option<Slot>>,
    frames: Vec<Frame<'static>>,
    terms: Vec<Term<'static>>,
    /// Per child of an open node: its candidates when the node hoisted
    /// them (`origin_only` children), else `None`.
    hoisted: Vec<Option<Cands<'static>>>,
}

/// Empties `v` and re-types it, keeping its allocation: collecting a
/// drained `vec::IntoIter` into a `Vec` of an equally laid-out type reuses
/// the buffer in place. The walk buffers hold borrows of one arrival's
/// stores and trie, so each walk re-types them to its own lifetime.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the buffer was cleared"))
        .collect()
}

/// Whether candidate tuple `values` passes every hoisted residual check.
#[inline]
fn residuals_hold(values: &[Value], res: &[(Value, usize)]) -> bool {
    res.iter().all(|&(v, ca)| values[ca] == v)
}

/// The production trie kernel, the multi-query twin of the solo
/// `probe_n`: an explicit frame stack over the merged trie. Entering a node
/// probes its candidates and returns at once if there are none; otherwise
/// it hoists the residual values, resolves every terminal's class, plan map
/// and members and binds its upper-depth slots, and probes each
/// origin-driven child once for the whole visit. The candidate loop then
/// writes one slot per terminal and calls the sink per member; a leaf
/// drains all its candidates in one loop. Emission order is the recursive
/// walk's: candidate outer, terminals in trie order, members in
/// registration order, then the children.
struct FrameKernel;

impl TrieKernel for FrameKernel {
    fn walk<'a, S: EmitSink>(
        ctx: &mut ProbeCtx<'a, S>,
        roots: &'a [TrieNode],
        scratch: &mut WalkScratch,
    ) -> u64 {
        let mut w = FrameWalk {
            path: std::mem::take(&mut scratch.path),
            res: std::mem::take(&mut scratch.res),
            binds: std::mem::take(&mut scratch.binds),
            frames: recycle(std::mem::take(&mut scratch.frames)),
            terms: recycle(std::mem::take(&mut scratch.terms)),
            hoisted: recycle(std::mem::take(&mut scratch.hoisted)),
            produced: 0,
            ctx,
        };
        for root in roots {
            w.enter(root, None);
            while let Some(top) = w.frames.len().checked_sub(1) {
                w.step(top);
            }
        }
        // Every visit has closed, so every span is truncated back to empty.
        let produced = w.produced;
        scratch.path = w.path;
        scratch.res = w.res;
        scratch.binds = w.binds;
        scratch.frames = recycle(w.frames);
        scratch.terms = recycle(w.terms);
        scratch.hoisted = recycle(w.hoisted);
        produced
    }
}

/// One [`FrameKernel`] walk: the plane plus the walk buffers re-typed to
/// this arrival's borrows.
struct FrameWalk<'a, 'c, S: EmitSink> {
    ctx: &'c mut ProbeCtx<'a, S>,
    path: Vec<(Slot, usize)>,
    res: Vec<(Value, usize)>,
    binds: Vec<Option<Slot>>,
    frames: Vec<Frame<'a>>,
    terms: Vec<Term<'a>>,
    hoisted: Vec<Option<Cands<'a>>>,
    produced: u64,
}

impl<'a, S: EmitSink> FrameWalk<'a, '_, S> {
    fn store(&self, si: usize) -> &'a WindowStore {
        let entries: &'a [Option<StoreEntry>] = self.ctx.entries;
        &entries[si].as_ref().expect("trie store is live").store
    }

    /// Resolves a path-position attribute reference against the path.
    fn value_at(&self, r: PathRef, attr: usize) -> Value {
        match r {
            PathRef::Origin => self.ctx.tuple.values[attr],
            PathRef::Depth(j) => {
                let (slot, si) = self.path[j];
                self.store(si)
                    .tuple(slot)
                    .expect("bound slot is live")
                    .values[attr]
            }
        }
    }

    fn candidates(&self, node: &TrieNode) -> Cands<'a> {
        let drive = self.value_at(node.drive.0, node.drive.1);
        self.store(node.store).probe(node.probe_attr, drive).parts()
    }

    /// Opens a visit of `node` at depth `path.len()`, using the candidates
    /// its parent hoisted if any. A visit that cannot emit anything — no
    /// candidates, or no terminals and only empty hoisted children — opens
    /// no frame.
    fn enter(&mut self, node: &'a TrieNode, hoisted: Option<Cands<'a>>) {
        let (head, tail) = hoisted.unwrap_or_else(|| self.candidates(node));
        if head.is_empty() && tail.is_empty() {
            return;
        }
        let hoist_base = self.hoisted.len();
        let mut reachable = !node.terminals.is_empty();
        for child in &node.children {
            let cands = child.origin_only.then(|| self.candidates(child));
            reachable |= cands.map_or(true, |(h, t)| !h.is_empty() || !t.is_empty());
            self.hoisted.push(cands);
        }
        if !reachable {
            self.hoisted.truncate(hoist_base);
            return;
        }
        let res_base = self.res.len();
        for &(r, ba, ca) in &node.residual {
            let v = self.value_at(r, ba);
            self.res.push((v, ca));
        }
        let term_base = self.terms.len();
        let depth = self.path.len();
        let classes: &'a [Option<QueryClass>] = self.ctx.classes;
        for &(cid, origin) in &node.terminals {
            let class = classes[cid].as_ref().expect("terminal class is live");
            let steps = class.plans[origin.index()].steps();
            let bind_base = self.binds.len();
            self.binds.resize(bind_base + class.query.n_streams(), None);
            let binds = &mut self.binds[bind_base..];
            for (step, &(slot, _)) in steps.iter().zip(&self.path) {
                binds[step.stream.index()] = Some(slot);
            }
            self.terms.push(Term {
                members: &class.members,
                store_of: &class.store_of,
                credits: class.reqs.produced_counters,
                cid,
                origin,
                local: steps[depth].stream.index(),
                bind_base,
            });
        }
        self.frames.push(Frame {
            node,
            head,
            tail,
            cursor: 0,
            child: None,
            res_base,
            term_base,
            hoist_base,
            rows: 0,
        });
    }

    /// Advances the open visit at depth `top`: a leaf drains and closes;
    /// an inner node enters its next child under the bound candidate, or
    /// binds and emits its next candidate, or closes.
    fn step(&mut self, top: usize) {
        let f = &self.frames[top];
        let node = f.node;
        if node.children.is_empty() {
            self.drain(top);
            return self.close(top);
        }
        if let Some(i) = f.child {
            if let Some(child) = node.children.get(i) {
                let hoisted = self.hoisted[f.hoist_base + i];
                self.frames[top].child = Some(i + 1);
                return self.enter(child, hoisted);
            }
        }
        let store = self.store(node.store);
        let f = &mut self.frames[top];
        let rvals = &self.res[f.res_base..];
        let mut next = None;
        while f.cursor < f.head.len() + f.tail.len() {
            let c = f.cursor;
            f.cursor += 1;
            let slot = match f.head.get(c) {
                Some(&slot) => slot,
                None => f.tail[c - f.head.len()],
            };
            if rvals.is_empty()
                || residuals_hold(
                    &store.tuple(slot).expect("probed slot is live").values,
                    rvals,
                )
            {
                next = Some(slot);
                break;
            }
        }
        let Some(slot) = next else {
            return self.close(top);
        };
        f.rows += 1;
        f.child = Some(0);
        let terms = &self.terms[f.term_base..];
        emit_row(
            self.ctx,
            terms,
            &mut self.binds,
            &self.path[..top],
            node.store,
            slot,
        );
        self.path.truncate(top);
        self.path.push((slot, node.store));
    }

    /// Emits every candidate of the leaf visit at depth `top`.
    fn drain(&mut self, top: usize) {
        let f = &self.frames[top];
        let store = self.store(f.node.store);
        let rvals = &self.res[f.res_base..];
        let terms = &self.terms[f.term_base..];
        let upper = &self.path[..top];
        let mut rows = 0;
        for part in [f.head, f.tail] {
            for &slot in part {
                if !rvals.is_empty()
                    && !residuals_hold(
                        &store.tuple(slot).expect("probed slot is live").values,
                        rvals,
                    )
                {
                    continue;
                }
                rows += 1;
                emit_row(self.ctx, terms, &mut self.binds, upper, f.node.store, slot);
            }
        }
        self.frames[top].rows = rows;
    }

    /// Closes the visit at depth `top`: credits its rows to every member
    /// of every terminal in one step and releases its buffer spans.
    fn close(&mut self, top: usize) {
        let f = self.frames.pop().expect("frame at current depth");
        if f.rows > 0 {
            for t in &self.terms[f.term_base..] {
                for &qid in t.members {
                    if let Some(q) = self.ctx.queries[qid.index()].as_mut() {
                        q.produced += f.rows;
                    }
                }
                self.produced += f.rows * t.members.len() as u64;
            }
        }
        if let Some(t) = self.terms.get(f.term_base) {
            self.binds.truncate(t.bind_base);
        }
        self.path.truncate(top);
        self.res.truncate(f.res_base);
        self.terms.truncate(f.term_base);
        self.hoisted.truncate(f.hoist_base);
    }
}

/// Emits one row of every terminal resolved at a node visit: binds `slot`
/// (of store `store`, at the visit's depth) in each terminal's slots,
/// accrues the owner's produced credits in path order (upper depths, then
/// this one), and hands the bindings to every member query.
fn emit_row<S: EmitSink>(
    ctx: &mut ProbeCtx<'_, S>,
    terms: &[Term<'_>],
    binds: &mut [Option<Slot>],
    upper: &[(Slot, usize)],
    store: usize,
    slot: Slot,
) {
    for t in terms {
        let binds = &mut binds[t.bind_base..t.bind_base + t.store_of.len()];
        binds[t.local] = Some(slot);
        if t.credits {
            for &(s, si) in upper.iter().chain([(slot, store)].iter()) {
                if ctx.owner(si) == t.cid {
                    ctx.scratches[si].add(s, 1);
                }
            }
        }
        let lookup = MappedStores {
            entries: ctx.entries,
            map: t.store_of,
        };
        let bindings = Bindings::from_parts(t.origin, ctx.tuple, binds, &lookup);
        for &qid in t.members {
            ctx.sink.emit(qid, &bindings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::ingest::{CountSink, QueryRowsSink, VecSink};
    use mstream_shed_policies::Fifo;
    use mstream_types::{Row, StreamSchema};

    fn pair_query(l: &str, r: &str, secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(l, &["k", "v"]));
        c.add_stream(StreamSchema::new(r, &["k", "v"]));
        JoinQuery::from_names(
            c,
            &[(&format!("{l}.k"), &format!("{r}.k"))],
            WindowSpec::secs(secs),
        )
        .unwrap()
    }

    fn chain_query(a: &str, b: &str, c_name: &str, secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(a, &["k", "v"]));
        c.add_stream(StreamSchema::new(b, &["k", "v"]));
        c.add_stream(StreamSchema::new(c_name, &["k", "v"]));
        JoinQuery::from_names(
            c,
            &[
                (&format!("{a}.k"), &format!("{b}.k")),
                (&format!("{b}.v"), &format!("{c_name}.k")),
            ],
            WindowSpec::secs(secs),
        )
        .unwrap()
    }

    fn multi(queries: Vec<JoinQuery>, capacity: usize) -> MultiQueryEngine {
        let mut b = EngineBuilder::new_multi()
            .policy(Fifo)
            .capacity_per_window(capacity);
        for q in queries {
            b.register(q).unwrap();
        }
        b.build_multi().unwrap()
    }

    /// A deterministic little trace over streams by name. Keys derive
    /// from the round-robin *cycle* index so they do not correlate with
    /// the stream (a `i % 3` key would be constant per stream whenever
    /// the stream count divides 3).
    fn trace(names: &[&str], len: u64) -> Vec<(String, Row, VTime)> {
        (0..len)
            .map(|i| {
                let s = names[(i % names.len() as u64) as usize];
                let cycle = i / names.len() as u64;
                let row: Row = vec![Value(cycle % 3), Value(cycle % 5)].into();
                (s.to_string(), row, VTime::from_secs(i))
            })
            .collect()
    }

    fn feed(e: &mut MultiQueryEngine, t: &[(String, Row, VTime)], sink: &mut QueryRowsSink) {
        for (name, row, ts) in t {
            let g = e.stream_id(name).expect("stream registered");
            e.ingest(Arrival::new(g, row.clone(), *ts), sink);
        }
    }

    /// Projects an emitted row to comparable form (stream tags differ
    /// between the shared and the solo engines by design).
    fn key_rows(rows: &[Vec<Tuple>]) -> Vec<Vec<(VTime, Row)>> {
        rows.iter()
            .map(|r| r.iter().map(|t| (t.ts, t.values.clone())).collect())
            .collect()
    }

    fn solo_rows(query: JoinQuery, t: &[(String, Row, VTime)], capacity: usize) -> Vec<Vec<Tuple>> {
        let mut e = EngineBuilder::new(query)
            .policy(Fifo)
            .capacity_per_window(capacity)
            .build()
            .unwrap();
        let mut sink = VecSink::default();
        for (name, row, ts) in t {
            let Ok(attr) = e.query().catalog().resolve(&format!("{name}.k")) else {
                continue; // stream not in this query
            };
            e.ingest(Arrival::new(attr.stream, row.clone(), *ts), &mut sink);
        }
        sink.rows
    }

    #[test]
    fn duplicate_queries_collapse_into_one_class_and_fan_out() {
        let mut e = multi(vec![pair_query("L", "R", 60), pair_query("L", "R", 60)], 64);
        assert_eq!(e.n_queries(), 2);
        assert_eq!(e.n_classes(), 1, "duplicates share one class");
        assert_eq!(e.n_stores(), 2, "one store per stream, not per query");
        let t = trace(&["L", "R"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        assert!(!sink.rows[0].is_empty());
        assert_eq!(
            key_rows(&sink.rows[0]),
            key_rows(&sink.rows[1]),
            "both duplicates see identical results"
        );
        let s0 = e.query_stats(QueryId(0)).unwrap();
        let s1 = e.query_stats(QueryId(1)).unwrap();
        assert_eq!(s0, s1);
        assert_eq!(s0.produced, sink.rows[0].len() as u64);
    }

    #[test]
    fn full_memory_matches_each_solo_run() {
        // Duplicate + overlapping-subgraph + disjoint mix.
        let queries = vec![
            pair_query("L", "R", 60),
            pair_query("L", "R", 60),
            chain_query("L", "R", "X", 60),
            pair_query("A", "B", 60),
        ];
        let mut e = multi(queries.clone(), 100_000);
        let t = trace(&["L", "R", "X", "A", "B"], 120);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        for (i, q) in queries.into_iter().enumerate() {
            let solo = solo_rows(q, &t, 100_000);
            assert_eq!(
                key_rows(&sink.rows[i]),
                key_rows(&solo),
                "query {i} diverged from its solo run"
            );
        }
    }

    #[test]
    fn overlapping_subgraphs_share_stores() {
        let e = multi(
            vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)],
            64,
        );
        assert_eq!(e.n_classes(), 2);
        // L and R are shared; only X is extra: 3 stores, not 5.
        assert_eq!(e.n_stores(), 3);
    }

    #[test]
    fn different_windows_get_distinct_stores() {
        let e = multi(vec![pair_query("L", "R", 60), pair_query("L", "R", 120)], 64);
        assert_eq!(e.n_classes(), 2);
        assert_eq!(e.n_stores(), 4, "window is part of the sharing key");
    }

    #[test]
    fn add_query_sees_only_the_suffix() {
        let mut e = multi(vec![pair_query("L", "R", 60)], 1 << 20);
        let t = trace(&["L", "R"], 60);
        let (head, tail) = t.split_at(30);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, head, &mut sink);
        let q1 = e.add_query(pair_query("L", "R", 60)).unwrap();
        assert_eq!(q1, QueryId(1));
        assert_eq!(e.n_classes(), 2, "runtime additions never share state");
        feed(&mut e, tail, &mut sink);
        // The late query matches a solo run over the suffix only.
        let solo = solo_rows(pair_query("L", "R", 60), tail, 1 << 20);
        assert_eq!(key_rows(&sink.rows[1]), key_rows(&solo));
        // And the original query is unperturbed by the registration.
        let full = solo_rows(pair_query("L", "R", 60), &t, 1 << 20);
        assert_eq!(key_rows(&sink.rows[0]), key_rows(&full));
    }

    #[test]
    fn remove_query_frees_stores_and_stops_emitting() {
        let mut e = multi(vec![pair_query("L", "R", 60), pair_query("A", "B", 60)], 64);
        assert_eq!(e.n_stores(), 4);
        let t = trace(&["L", "R", "A", "B"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        assert!(e.remove_query(QueryId(1)));
        assert!(!e.remove_query(QueryId(1)), "double removal is a no-op");
        assert_eq!(e.n_stores(), 2, "sole-user stores freed");
        assert_eq!(e.n_queries(), 1);
        let before = sink.rows[1].len();
        feed(&mut e, &t, &mut sink);
        assert_eq!(sink.rows[1].len(), before, "removed query emits nothing");
        assert!(sink.rows[0].len() > 0);
        assert!(e.query_stats(QueryId(1)).is_none());
    }

    #[test]
    fn remove_query_keeps_cache_counters_monotone() {
        // Engine-level cache statistics live in the per-class sketch
        // banks; dismantling a class must fold its counts into the retired
        // baseline, never lose them.
        let mut b = EngineBuilder::new_multi()
            .policy(mstream_shed_policies::MSketch)
            .capacity_per_window(16);
        b.register(pair_query("L", "R", 30)).unwrap();
        b.register(pair_query("A", "B", 30)).unwrap();
        let mut e = b.build_multi().unwrap();
        let t = trace(&["L", "R", "A", "B"], 200);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        let before = e.metrics().clone();
        let activity = before.score_cache_hits + before.score_cache_misses;
        assert!(activity > 0, "sketch scoring must exercise the cache");
        assert!(e.remove_query(QueryId(1)));
        let after = e.metrics().clone();
        assert!(
            after.score_cache_hits >= before.score_cache_hits
                && after.score_cache_misses >= before.score_cache_misses
                && after.sign_cache_hits >= before.sign_cache_hits
                && after.sign_cache_misses >= before.sign_cache_misses,
            "cache counters went backwards across remove_query:\n{before:?}\n{after:?}"
        );
        // The survivor keeps counting on top of the retired baseline.
        feed(&mut e, &t, &mut sink);
        let later = e.metrics().clone();
        assert!(
            later.score_cache_hits + later.score_cache_misses
                >= after.score_cache_hits + after.score_cache_misses,
            "counters stay monotone after churn"
        );
    }

    #[test]
    fn shared_store_removal_keeps_survivors() {
        let mut e = multi(
            vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)],
            1 << 20,
        );
        let t = trace(&["L", "R", "X"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t.clone()[..20], &mut sink);
        assert!(e.remove_query(QueryId(0)));
        assert_eq!(e.n_stores(), 3, "shared stores survive, owner hands off");
        feed(&mut e, &t[20..], &mut sink);
        let solo = solo_rows(chain_query("L", "R", "X", 60), &t, 1 << 20);
        assert_eq!(key_rows(&sink.rows[1]), key_rows(&solo));
    }

    #[test]
    fn owner_handoff_retags_residents_for_the_heir() {
        // The chain owns store X under local stream 2; its heir, the pair,
        // reads X as local stream 1 and must rescore the residents under
        // that tag at its next rollover.
        let mut b = EngineBuilder::new_multi()
            .policy(mstream_shed_policies::MSketch)
            .capacity_per_window(8);
        b.register(chain_query("L", "R", "X", 30)).unwrap();
        b.register(pair_query("R", "X", 30)).unwrap();
        let mut e = b.build_multi().unwrap();
        let t = trace(&["L", "R", "X"], 300);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t[..150], &mut sink);
        assert!(e.remove_query(QueryId(0)));
        let x = e.stream_id("X").unwrap();
        let heir = e.live_stores.iter().find(|l| l.gstream == x).unwrap();
        assert_eq!((heir.owner, heir.local), (1, StreamId(1)));
        let store = &e.stores[heir.store].as_ref().unwrap().store;
        assert!(!store.is_empty());
        assert!(store.iter().all(|(_, t)| t.stream == StreamId(1)));
        let rollovers = e.metrics().epoch_rollovers;
        feed(&mut e, &t[150..], &mut sink);
        assert!(e.metrics().epoch_rollovers > rollovers, "the heir rescored");
    }

    #[test]
    fn shed_output_is_a_sub_multiset_of_exact() {
        let mut tight = multi(vec![pair_query("L", "R", 60)], 2);
        let mut exact = multi(vec![pair_query("L", "R", 60)], 1 << 20);
        let t = trace(&["L", "R"], 80);
        let (mut s1, mut s2) = (QueryRowsSink::default(), QueryRowsSink::default());
        feed(&mut tight, &t, &mut s1);
        feed(&mut exact, &t, &mut s2);
        assert!(tight.metrics().shed_window > 0, "capacity 2 must shed");
        let mut exact_keys = key_rows(&s2.rows[0]);
        for row in key_rows(&s1.rows[0]) {
            let pos = exact_keys
                .iter()
                .position(|r| *r == row)
                .expect("shed output must be a sub-multiset of exact");
            exact_keys.swap_remove(pos);
        }
        let stats = tight.query_stats(QueryId(0)).unwrap();
        assert!(stats.shed > 0);
    }

    #[test]
    fn schema_mismatch_on_add_is_rejected_and_rolled_back() {
        let mut e = multi(vec![pair_query("L", "R", 60)], 64);
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v", "w"]));
        c.add_stream(StreamSchema::new("Z", &["k", "v"]));
        let clash = JoinQuery::from_names(c, &[("L.k", "Z.k")], WindowSpec::secs(60)).unwrap();
        assert!(matches!(
            e.add_query(clash),
            Err(BuildError::SchemaMismatch { .. })
        ));
        assert_eq!(e.catalog().len(), 2, "failed registration leaves no trace");
        assert_eq!(e.n_queries(), 1);
        let mut sink = CountSink::default();
        let g = e.stream_id("L").unwrap();
        e.ingest(Arrival::new(g, vec![Value(1), Value(2)], VTime::ZERO), &mut sink);
    }

    /// The recursive trie walker that [`FrameKernel`] replaced, kept as
    /// the order-exact differential reference for it.
    mod reference {
        use super::super::*;

        pub(super) struct RecursiveKernel;

        impl TrieKernel for RecursiveKernel {
            fn walk<'a, S: EmitSink>(
                ctx: &mut ProbeCtx<'a, S>,
                roots: &'a [TrieNode],
                _: &mut WalkScratch,
            ) -> u64 {
                let mut w = Walk {
                    ctx,
                    path: Vec::new(),
                    produced: 0,
                };
                for node in roots {
                    w.walk(node);
                }
                w.produced
            }
        }

        struct Walk<'c, 'a, S: EmitSink> {
            ctx: &'c mut ProbeCtx<'a, S>,
            /// `(slot, store index)` bound at each trie depth.
            path: Vec<(Slot, usize)>,
            produced: u64,
        }

        impl<S: EmitSink> Walk<'_, '_, S> {
            fn value_at(&self, r: PathRef, attr: usize) -> Value {
                match r {
                    PathRef::Origin => self.ctx.tuple.values[attr],
                    PathRef::Depth(j) => {
                        let (slot, si) = self.path[j];
                        self.ctx.entries[si]
                            .as_ref()
                            .expect("path store is live")
                            .store
                            .tuple(slot)
                            .expect("bound slot is live")
                            .values[attr]
                    }
                }
            }

            /// Depth-first enumeration: candidates of this node's store,
            /// residual filtering, terminal emissions, then children.
            fn walk(&mut self, node: &TrieNode) {
                let entries = self.ctx.entries;
                let drive = self.value_at(node.drive.0, node.drive.1);
                let res: Vec<(Value, usize)> = node
                    .residual
                    .iter()
                    .map(|&(r, ba, ca)| (self.value_at(r, ba), ca))
                    .collect();
                let store = &entries[node.store]
                    .as_ref()
                    .expect("trie store is live")
                    .store;
                for slot in store.probe(node.probe_attr, drive).iter() {
                    if !res.is_empty() {
                        let t = store.tuple(slot).expect("probed slot is live");
                        if !res.iter().all(|&(v, ca)| t.values[ca] == v) {
                            continue;
                        }
                    }
                    self.path.push((slot, node.store));
                    for &(cid, origin_local) in &node.terminals {
                        self.emit(cid, origin_local);
                    }
                    for child in &node.children {
                        self.walk(child);
                    }
                    self.path.pop();
                }
            }

            /// Emits one completed match of class `cid` to every member
            /// query, and accrues produced credits on the stores the class
            /// owns.
            fn emit(&mut self, cid: usize, origin_local: StreamId) {
                let class = self.ctx.classes[cid]
                    .as_ref()
                    .expect("terminal class is live");
                let plan = &class.plans[origin_local.index()];
                let mut slots = vec![None; class.query.n_streams()];
                for (j, step) in plan.steps().iter().enumerate() {
                    slots[step.stream.index()] = Some(self.path[j].0);
                }
                if class.reqs.produced_counters {
                    for &(slot, si) in self.path.iter() {
                        if self.ctx.owner(si) == cid {
                            self.ctx.scratches[si].add(slot, 1);
                        }
                    }
                }
                let lookup = MappedStores {
                    entries: self.ctx.entries,
                    map: &class.store_of,
                };
                let bindings = Bindings::from_parts(origin_local, self.ctx.tuple, &slots, &lookup);
                for &qid in &class.members {
                    if let Some(q) = self.ctx.queries[qid.index()].as_mut() {
                        q.produced += 1;
                    }
                    self.ctx.sink.emit(qid, &bindings);
                    self.produced += 1;
                }
            }
        }
    }

    /// Records every emission as `(query, bound slot per local stream)`.
    #[derive(Default)]
    struct SlotSink(Vec<(QueryId, Vec<Option<Slot>>)>);

    impl EmitSink for SlotSink {
        fn emit(&mut self, query: QueryId, b: &Bindings<'_>) {
            let slots = (0..b.n_streams()).map(|k| b.slot(StreamId(k))).collect();
            self.0.push((query, slots));
        }
    }

    /// One standing query over named streams `s` (2 or 3 names): a pair,
    /// a chain, a star or a residual-bearing triangle.
    fn shape_query(shape: usize, s: &[&str], window: WindowSpec) -> JoinQuery {
        let mut c = Catalog::new();
        for &name in s {
            c.add_stream(StreamSchema::new(name, &["k", "v"]));
        }
        let a = |i: usize, attr: &str| format!("{}.{attr}", s[i]);
        let preds: Vec<(String, String)> = match shape {
            0 => vec![(a(0, "k"), a(1, "k"))],
            1 => vec![(a(0, "k"), a(1, "k")), (a(1, "v"), a(2, "k"))],
            2 => vec![(a(0, "k"), a(1, "k")), (a(1, "k"), a(2, "k"))],
            _ => vec![
                (a(0, "v"), a(1, "k")),
                (a(1, "v"), a(2, "k")),
                (a(2, "v"), a(0, "k")),
            ],
        };
        let preds: Vec<(&str, &str)> = preds
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        JoinQuery::from_names(c, &preds, window).unwrap()
    }

    const NAMES: [&str; 4] = ["A", "B", "C", "D"];

    /// A random standing query: 1 in 3 repeats the previous draw exactly
    /// (duplicates fan out), and the small stream/shape/window space makes
    /// shared prefixes, middle-origin (origin-driven) children and
    /// triangles common.
    fn random_query(rng: &mut StdRng, last: &mut Option<JoinQuery>) -> JoinQuery {
        use rand::Rng;
        if let Some(q) = last.as_ref().filter(|_| rng.gen_range(0..3) == 0) {
            return q.clone();
        }
        let shape = rng.gen_range(0..4);
        let width = if shape == 0 { 2 } else { 3 };
        let mut names = NAMES.to_vec();
        let mut s = Vec::new();
        for _ in 0..width {
            s.push(names.remove(rng.gen_range(0..names.len())));
        }
        let window = match rng.gen_range(0..3) {
            0 => WindowSpec::secs(20),
            1 => WindowSpec::secs(40),
            _ => WindowSpec::Tuples(25),
        };
        let q = shape_query(shape, &s, window);
        *last = Some(q.clone());
        q
    }

    /// Everything a kernel run makes observable: every emission, every
    /// ingest outcome, the final per-query stats and the shed counters.
    #[derive(Debug, PartialEq)]
    struct Observed {
        emitted: Vec<(QueryId, Vec<Option<Slot>>)>,
        outcomes: Vec<IngestOutcome>,
        stats: Vec<Option<QueryStats>>,
        shed_window: u64,
        expired: u64,
        total_output: u64,
    }

    /// Drives one random churn scenario (derived from `seed`) through the
    /// multi-query engine with trie kernel `K`.
    fn run_scenario<K: TrieKernel>(seed: u64) -> Observed {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = rng.gen_range(0..2) == 0;
        let capacity = [6, 16, 1 << 12][rng.gen_range(0..3)];
        let batched = rng.gen_range(0..2) == 0;
        let mut last = None;
        let mut b = EngineBuilder::new_multi()
            .capacity_per_window(capacity)
            .seed(seed);
        b = if rs {
            b.policy(mstream_shed_policies::MSketchRs)
        } else {
            b.policy(mstream_shed_policies::MSketch)
        };
        for _ in 0..rng.gen_range(1..=6) {
            b.register(random_query(&mut rng, &mut last)).unwrap();
        }
        let mut e = b.build_multi().unwrap();
        let mut sink = SlotSink::default();
        let mut outcomes = Vec::new();
        let mut batch = Vec::new();
        for i in 0..300u64 {
            if rng.gen_range(0..60) == 0 {
                flush::<K>(&mut e, &mut batch, &mut sink, &mut outcomes);
                let live: Vec<QueryId> = (0..e.n_registered() as u32)
                    .map(QueryId)
                    .filter(|&q| e.query(q).is_some())
                    .collect();
                if live.len() > 1 && rng.gen_range(0..2) == 0 {
                    assert!(e.remove_query(live[rng.gen_range(0..live.len())]));
                } else {
                    e.add_query(random_query(&mut rng, &mut last)).unwrap();
                }
            }
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let row = vec![Value(rng.gen_range(0..3)), Value(rng.gen_range(0..3))];
            let Some(g) = e.stream_id(name) else {
                continue;
            };
            let arrival = Arrival::new(g, row, VTime::from_micros(i * 250_000));
            if batched {
                let now = arrival.ts;
                batch.push((e.mint(arrival), now));
                if rng.gen_range(0..6) == 0 {
                    flush::<K>(&mut e, &mut batch, &mut sink, &mut outcomes);
                }
            } else {
                let now = arrival.ts;
                let tuple = e.mint(arrival);
                outcomes.push(e.ingest_tuple_inner::<K>(tuple, now, &mut sink, false));
            }
        }
        flush::<K>(&mut e, &mut batch, &mut sink, &mut outcomes);
        let stats = (0..e.n_registered() as u32)
            .map(|q| e.query_stats(QueryId(q)))
            .collect();
        let m = e.metrics().clone();
        Observed {
            emitted: sink.0,
            outcomes,
            stats,
            shed_window: m.shed_window,
            expired: m.expired,
            total_output: m.total_output,
        }
    }

    /// Ingests the pending batch of [`run_scenario`], if any, through
    /// kernel `K`.
    fn flush<K: TrieKernel>(
        e: &mut MultiQueryEngine,
        batch: &mut Vec<(Tuple, VTime)>,
        sink: &mut SlotSink,
        outcomes: &mut Vec<IngestOutcome>,
    ) {
        if !batch.is_empty() {
            outcomes.push(e.ingest_batch_with::<K>(batch, sink));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The frame-stack kernel replays the recursive walker exactly:
        /// the same emissions (query and bound slot per local stream) in
        /// the same order, the same per-arrival outcomes and shed
        /// decisions, and the same per-query stats — under MSketch and the
        /// produced-credit-driven MSketch-RS, per arrival and batched,
        /// across mid-trace registration changes.
        #[test]
        fn frame_kernel_matches_the_recursive_reference(seed in proptest::any::<u64>()) {
            let got = run_scenario::<FrameKernel>(seed);
            let want = run_scenario::<reference::RecursiveKernel>(seed);
            proptest::prop_assert!(!want.outcomes.is_empty());
            proptest::prop_assert_eq!(got, want, "seed {}", seed);
        }
    }

    #[test]
    fn per_arrival_lists_track_only_the_live_plane() {
        let mut e = multi(
            vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)],
            64,
        );
        let shapes = [
            pair_query("L", "R", 60),
            chain_query("L", "R", "X", 60),
            pair_query("A", "B", 30),
        ];
        let mut sink = CountSink::default();
        let g = e.stream_id("L").unwrap();
        for i in 0..500u64 {
            let id = e
                .add_query(shapes[i as usize % shapes.len()].clone())
                .unwrap();
            e.ingest(
                Arrival::new(g, vec![Value(i % 3), Value(1)], VTime::from_secs(i)),
                &mut sink,
            );
            assert!(e.remove_query(id));
        }
        // Brute force over every slot ever allocated.
        let mut observers: Vec<Vec<(usize, StreamId)>> = vec![Vec::new(); e.catalog.len()];
        for (cid, class) in e.classes.iter().enumerate() {
            for (k, &g) in class.iter().flat_map(|c| c.gstream_of.iter().enumerate()) {
                observers[g.index()].push((cid, StreamId(k)));
            }
        }
        assert_eq!(e.observers, observers);
        let live: Vec<usize> = (0..e.stores.len())
            .filter(|&si| e.stores[si].is_some())
            .collect();
        assert_eq!(
            e.live_stores.iter().map(|l| l.store).collect::<Vec<_>>(),
            live
        );
        assert_eq!(e.live_stores.len(), 3, "L, R and X survive the churn");
        for l in &e.live_stores {
            let entry = e.stores[l.store].as_ref().unwrap();
            assert_eq!((l.gstream, l.owner), (entry.gstream, entry.users[0]));
            let owner = e.classes[l.owner].as_ref().unwrap();
            assert_eq!(owner.store_of[l.local.index()], l.store);
        }
        assert!(
            e.classes.len() > 500,
            "every churn step allocated a class slot"
        );
    }
}
