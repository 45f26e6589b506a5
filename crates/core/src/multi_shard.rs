//! Sharded execution of the multi-query data plane.
//!
//! [`ShardedMultiEngine`] runs one [`MultiQueryEngine`] per worker thread
//! and routes each arrival **once**, by its partitioning key, to the shard
//! owning that key slice — every query interested in the arrival is then
//! served on that shard from the shared stores, so routing cost does not
//! grow with the number of registered queries.
//!
//! # Partitioning across a query set
//!
//! A multi-shard run needs every query to be key-partitionable
//! ([`Partitioning::ByKey`]) *and* all queries to agree on the partitioning
//! attribute of every global stream they share (otherwise a tuple would
//! have to live on two different shards for two different queries). When
//! either condition fails, the engine degrades to one shard and reports
//! why ([`ShardedMultiEngine::degraded`]) — the result is still exact,
//! just not parallel. Hot-key splitting and broadcast mode are
//! single-query affordances and are not applied here.
//!
//! # Runtime registration across shards
//!
//! [`ShardedMultiEngine::add_query`] / [`remove_query`] broadcast the
//! registration to every worker over the same FIFO channels that carry
//! tuples, so each worker observes the registration at exactly the same
//! point of its routed sub-trace — a query added mid-run sees, on every
//! shard, precisely the tuples routed after the broadcast. Pending expiry
//! ticks are flushed to **all** shards first, so tuple-based windows of
//! the new query never count pre-registration arrivals.

use crate::builder::BuildError;
use crate::engine::EngineConfig;
use crate::ingest::{Arrival, QueryRowsSink};
use crate::multi::{merge_into_catalog, MultiQueryEngine, QueryStats};
use crate::report::EngineMetrics;
use crate::shard::{split_bank, split_memory, splitmix64, Backpressure, ShardConfig};
use crossbeam::channel::{bounded, Receiver, Sender};
use mstream_shed_policies::ShedPolicy;
use mstream_types::{
    Catalog, Error, JoinQuery, Partitioning, QueryId, SeqNo, StreamId, Tuple, WindowSpec,
};
use std::cmp::Ordering;
use std::thread::JoinHandle;
use std::time::Instant;

/// One coordinator→worker message. Registration changes ride the same
/// FIFO channel as data, which is what makes their position in each
/// shard's sub-trace deterministic.
enum MultiMsg {
    /// A routed arrival (globally minted; processed at its own timestamp).
    Tuple(Tuple),
    /// Coalesced foreign-arrival counts per global stream, keeping
    /// tuple-based window expiry exact on shards that did not receive the
    /// arrivals.
    Ticks(Vec<(StreamId, u64)>),
    /// Register a new standing query (broadcast; workers assign the same
    /// dense id because they process the same registration sequence).
    Add(JoinQuery),
    /// Deregister a query (broadcast).
    Remove(QueryId),
}

/// What one worker hands back at the end of the run.
struct MultiWorkerOut {
    metrics: EngineMetrics,
    /// Per registered query id: produced/shed counters (`None` for
    /// removed queries).
    stats: Vec<Option<QueryStats>>,
    rows: Option<Vec<Vec<Vec<Tuple>>>>,
    resident: usize,
}

/// The merged outcome of a sharded multi-query run.
#[derive(Clone, Debug)]
pub struct MultiRunReport {
    /// Per registered query id: produced/shed counters summed across
    /// shards (removed queries report zeros).
    pub stats: Vec<QueryStats>,
    /// Combined engine counters across all workers.
    pub metrics: EngineMetrics,
    /// Per query id, every result row (tuples in the query's local stream
    /// order), merged across shards into canonical per-stream-seq order —
    /// only when [`ShardConfig::collect_rows`] was set.
    pub rows: Option<Vec<Vec<Vec<Tuple>>>>,
    /// Final resident tuples summed over all shards.
    pub resident: usize,
    /// Arrivals dropped at full worker channels under
    /// [`Backpressure::Shed`].
    pub shed_channel: u64,
    /// Workers the run actually used.
    pub shards: usize,
    /// Why a multi-shard request fell back to one shard, if it did.
    pub degraded: Option<String>,
    /// Coordinator wall-clock for the whole run.
    pub wall_time: std::time::Duration,
}

/// Computes the per-global-stream partitioning attribute the whole query
/// set agrees on, or the reason it cannot ([`Err`] degrades to one shard).
/// `key_of` is indexed by global stream id; streams no query partitions on
/// stay `None` (unreachable for arrivals, since every registered stream
/// belongs to some query).
fn key_plan(
    catalog_len: usize,
    sets: &[(Vec<StreamId>, &JoinQuery)],
) -> Result<Vec<Option<usize>>, String> {
    let mut key_of: Vec<Option<usize>> = vec![None; catalog_len];
    for (gstream_of, query) in sets {
        match query.partitioning() {
            Partitioning::ByKey { key_attrs } => {
                for (k, &g) in gstream_of.iter().enumerate() {
                    let attr = key_attrs[k];
                    match key_of[g.index()] {
                        None => key_of[g.index()] = Some(attr),
                        Some(prev) if prev == attr => {}
                        Some(prev) => {
                            return Err(format!(
                                "stream {g} is partitioned on attr {prev} by one query \
                                 and attr {attr} by another"
                            ));
                        }
                    }
                }
            }
            Partitioning::Single { reason } => {
                return Err(format!("a registered query is not partitionable: {reason}"));
            }
        }
    }
    Ok(key_of)
}

/// N standing queries over worker-sharded shared state. Construction goes
/// through [`crate::EngineBuilder::build_multi_sharded`]; see the module
/// docs for the partitioning and registration model.
pub struct ShardedMultiEngine {
    shards: usize,
    degraded: Option<String>,
    /// The coordinator's mirror of every worker's merged catalog (they
    /// evolve in lockstep through [`ShardedMultiEngine::add_query`]).
    catalog: Catalog,
    /// Global stream → partitioning attribute (multi-shard runs only).
    key_of: Vec<Option<usize>>,
    /// Whether any registered query uses tuple-based windows (and S > 1),
    /// requiring foreign-arrival ticks.
    needs_ticks: bool,
    backpressure: Backpressure,
    senders: Vec<Sender<MultiMsg>>,
    handles: Vec<JoinHandle<MultiWorkerOut>>,
    /// `pending[shard][gstream]`: arrivals routed elsewhere since that
    /// shard's last delivery (flushed ahead of its next message).
    pending: Vec<Vec<u64>>,
    /// Dense query ids handed out so far (mirrors every worker).
    n_registered: usize,
    next_seq: SeqNo,
    shed_channel: u64,
    started: Instant,
}

impl ShardedMultiEngine {
    /// Spawns the workers, each owning a full [`MultiQueryEngine`] over
    /// `1/S` of the key space (and `1/S` of the memory and sketch
    /// budgets). Prefer [`crate::EngineBuilder::build_multi_sharded`].
    pub(crate) fn new(
        queries: Vec<JoinQuery>,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
        shard: ShardConfig,
    ) -> Result<Self, BuildError> {
        if queries.is_empty() {
            return Err(BuildError::NoQueries);
        }
        if shard.shards == 0 {
            return Err(BuildError::ZeroShards);
        }
        if shard.channel_capacity == 0 {
            return Err(BuildError::Engine(Error::InvalidConfig(
                "shard channel capacity must be >= 1".into(),
            )));
        }
        let mut catalog = Catalog::new();
        let mut sets = Vec::with_capacity(queries.len());
        for q in &queries {
            let gstream_of = merge_into_catalog(&mut catalog, q)?;
            sets.push((gstream_of, q));
        }
        let (shards, degraded, key_of) = if shard.shards == 1 {
            (1, None, vec![None; catalog.len()])
        } else {
            match key_plan(catalog.len(), &sets) {
                Ok(key_of) => (shard.shards, None, key_of),
                Err(reason) => (1, Some(reason), vec![None; catalog.len()]),
            }
        };
        drop(sets);
        let needs_ticks = shards > 1
            && queries
                .iter()
                .any(|q| q.windows().iter().any(|w| matches!(w, WindowSpec::Tuples(_))));
        let memory = split_memory(&config.memory, shards);
        let bank = split_bank(&config.bank, shards);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut worker_config = config.clone();
            worker_config.memory = memory.clone();
            worker_config.bank = bank;
            worker_config.disorder = None;
            // A 1-shard run keeps the master seed so it is bit-identical
            // to the in-process multi engine; multi-shard workers get
            // independent derived streams.
            if shards > 1 {
                worker_config.seed = splitmix64(config.seed ^ (i as u64 + 1));
            }
            let engine = MultiQueryEngine::new(queries.clone(), policy.clone(), worker_config)?;
            let (tx, rx) = bounded(shard.channel_capacity);
            let collect_rows = shard.collect_rows;
            handles.push(std::thread::spawn(move || {
                multi_worker_loop(engine, rx, collect_rows)
            }));
            senders.push(tx);
        }
        let n_registered = queries.len();
        Ok(ShardedMultiEngine {
            shards,
            degraded,
            catalog,
            key_of,
            needs_ticks,
            backpressure: shard.backpressure,
            senders,
            handles,
            pending: vec![Vec::new(); shards],
            n_registered,
            next_seq: SeqNo(0),
            shed_channel: 0,
            started: Instant::now(),
        })
    }

    /// Workers the engine actually runs on (1 when the query set
    /// degraded).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Why a multi-shard request fell back to one shard, if it did.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The merged global catalog arrivals are addressed against.
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

    /// Query ids handed out so far (dense; includes removed queries).
    pub fn n_registered(&self) -> usize {
        self.n_registered
    }

    /// Registers a new standing query on every shard and returns its id
    /// (the same id each worker assigns, since registrations ride the
    /// same FIFO order everywhere).
    ///
    /// On a multi-shard run the query must be key-partitionable and agree
    /// with the running set on every shared stream's partitioning
    /// attribute — there is no online re-partitioning, so an incompatible
    /// query is rejected rather than degraded.
    pub fn add_query(&mut self, query: JoinQuery) -> Result<QueryId, BuildError> {
        let snapshot = self.catalog.clone();
        let gstream_of = merge_into_catalog(&mut self.catalog, &query)?;
        if self.shards > 1 {
            let sets = [(gstream_of.clone(), &query)];
            let mut grown = self.key_of.clone();
            grown.resize(self.catalog.len(), None);
            match key_plan(self.catalog.len(), &sets) {
                Ok(new_keys) => {
                    for (g, attr) in new_keys.into_iter().enumerate() {
                        match (grown[g], attr) {
                            (Some(prev), Some(a)) if prev != a => {
                                self.catalog = snapshot;
                                return Err(BuildError::Engine(Error::InvalidConfig(format!(
                                    "added query partitions stream {} on attr {a}, \
                                     running set uses attr {prev}",
                                    StreamId(g)
                                ))));
                            }
                            (None, Some(a)) => grown[g] = Some(a),
                            _ => {}
                        }
                    }
                }
                Err(reason) => {
                    self.catalog = snapshot;
                    return Err(BuildError::Engine(Error::InvalidConfig(format!(
                        "cannot add to a {}-shard run: {reason}",
                        self.shards
                    ))));
                }
            }
            self.key_of = grown;
        } else {
            self.key_of.resize(self.catalog.len(), None);
        }
        self.needs_ticks |= self.shards > 1
            && query
                .windows()
                .iter()
                .any(|w| matches!(w, WindowSpec::Tuples(_)));
        // New-stream pending lanes default to zero on demand (Vec grows in
        // `note_pending`), nothing to do here.
        let qid = QueryId(self.n_registered as u32);
        self.n_registered += 1;
        self.broadcast(|| MultiMsg::Add(query.clone()));
        Ok(qid)
    }

    /// Deregisters `id` on every shard. Unknown ids are a worker-side
    /// no-op, so this never fails at the coordinator.
    pub fn remove_query(&mut self, id: QueryId) {
        self.broadcast(|| MultiMsg::Remove(id));
    }

    /// Routes one arrival (addressed by **global** stream id) to the
    /// shard owning its key, flushing that shard's pending expiry ticks
    /// first. Single-shard runs (including degraded ones) route
    /// everything to worker 0.
    pub fn ingest(&mut self, arrival: Arrival) {
        let g = arrival.stream;
        assert!(
            g.index() < self.catalog.len(),
            "arrival stream {g} is not in the engine catalog"
        );
        let seq = self.next_seq;
        self.next_seq = seq.next();
        let tuple = Tuple::new(g, arrival.ts, seq, arrival.values);
        let target = match self.key_of[g.index()] {
            Some(attr) if self.shards > 1 => {
                (splitmix64(tuple.values[attr].0) % self.shards as u64) as usize
            }
            _ => 0,
        };
        if self.needs_ticks {
            for shard in 0..self.shards {
                if shard != target {
                    self.note_pending(shard, g);
                }
            }
            self.flush_pending(target);
        }
        if !self.send(target, MultiMsg::Tuple(tuple)) {
            // Channel-shed arrival: no shard processed it, but the shards
            // still tick so tuple-window expiry stays exact.
            self.shed_channel += 1;
            if self.needs_ticks {
                self.note_pending(target, g);
            }
        }
    }

    /// Ends the run: flushes trailing ticks, joins every worker, and
    /// merges their reports (rows per query in canonical per-stream-seq
    /// order when collected).
    pub fn finish(mut self) -> Result<MultiRunReport, Error> {
        for shard in 0..self.shards {
            self.flush_pending(shard);
        }
        self.senders.clear(); // Dropping the senders ends the worker loops.
        let handles = std::mem::take(&mut self.handles);
        let mut metrics = EngineMetrics::default();
        let mut stats = vec![QueryStats::default(); self.n_registered];
        let mut resident = 0usize;
        let mut per_worker_rows: Option<Vec<Vec<Vec<Vec<Tuple>>>>> = None;
        let mut failure: Option<Error> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(out) => {
                    metrics.merge(&out.metrics);
                    resident += out.resident;
                    for (q, s) in out.stats.iter().enumerate() {
                        if let Some(s) = s {
                            stats[q].produced += s.produced;
                            stats[q].shed += s.shed;
                        }
                    }
                    if let Some(rows) = out.rows {
                        per_worker_rows.get_or_insert_with(Vec::new).push(rows);
                    }
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&'static str>().copied())
                        .unwrap_or("non-string panic payload");
                    failure.get_or_insert(Error::Shard(format!("worker {i} panicked: {msg}")));
                }
            }
        }
        if let Some(err) = failure {
            return Err(err);
        }
        let rows = per_worker_rows.map(|per_worker| {
            let mut merged: Vec<Vec<Vec<Tuple>>> = vec![Vec::new(); self.n_registered];
            for worker in per_worker {
                for (q, mut rows) in worker.into_iter().enumerate() {
                    if q < merged.len() {
                        merged[q].append(&mut rows);
                    }
                }
            }
            // Each join combination is produced on exactly one shard, so
            // per-stream seq vectors are unique keys and this canonical
            // order is identical across shard counts.
            for rows in &mut merged {
                rows.sort_unstable_by(|a, b| row_seq_cmp(a, b));
            }
            merged
        });
        Ok(MultiRunReport {
            stats,
            metrics,
            rows,
            resident,
            shed_channel: self.shed_channel,
            shards: self.shards,
            degraded: self.degraded.clone(),
            wall_time: self.started.elapsed(),
        })
    }

    /// Records one foreign arrival of `g` for `shard`.
    fn note_pending(&mut self, shard: usize, g: StreamId) {
        let lanes = &mut self.pending[shard];
        if lanes.len() <= g.index() {
            lanes.resize(g.index() + 1, 0);
        }
        lanes[g.index()] += 1;
    }

    /// Sends `shard`'s pending tick summary, if any.
    fn flush_pending(&mut self, shard: usize) {
        if self.pending[shard].iter().all(|&c| c == 0) {
            return;
        }
        let ticks: Vec<(StreamId, u64)> = self.pending[shard]
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(g, c)| (StreamId(g), std::mem::take(c)))
            .collect();
        // Tick loss under Shed backpressure re-queues, keeping counters
        // exact whenever the channel drains again.
        if !self.send(shard, MultiMsg::Ticks(ticks.clone())) {
            for (g, n) in ticks {
                let lanes = &mut self.pending[shard];
                if lanes.len() <= g.index() {
                    lanes.resize(g.index() + 1, 0);
                }
                lanes[g.index()] += n;
            }
        }
    }

    /// Sends registration traffic to every shard, after flushing all
    /// pending ticks (so tuple-window state on each shard is exact at the
    /// registration point). Registration is never shed, even under
    /// [`Backpressure::Shed`] — it blocks.
    fn broadcast(&mut self, mut msg: impl FnMut() -> MultiMsg) {
        for shard in 0..self.shards {
            self.flush_pending(shard);
        }
        for shard in 0..self.shards {
            let _ = self.senders[shard].send(msg());
        }
    }

    /// Sends one message, honoring the backpressure mode. Returns whether
    /// the message was delivered (send errors only occur when a worker
    /// died; its panic is reported at [`ShardedMultiEngine::finish`]).
    fn send(&mut self, shard: usize, msg: MultiMsg) -> bool {
        match self.backpressure {
            Backpressure::Block => self.senders[shard].send(msg).is_ok(),
            Backpressure::Shed => self.senders[shard].try_send(msg).is_ok(),
        }
    }
}

/// Canonical result-row order: per-stream sequence numbers.
fn row_seq_cmp(a: &[Tuple], b: &[Tuple]) -> Ordering {
    a.iter().map(|t| t.seq).cmp(b.iter().map(|t| t.seq))
}

fn multi_worker_loop(
    mut engine: MultiQueryEngine,
    rx: Receiver<MultiMsg>,
    collect_rows: bool,
) -> MultiWorkerOut {
    let mut sink = QueryRowsSink::default();
    while let Ok(msg) = rx.recv() {
        match msg {
            MultiMsg::Tuple(tuple) => {
                let now = tuple.ts;
                engine.ingest_tuple(tuple, now, &mut sink);
                #[cfg(feature = "audit")]
                engine.check_invariants();
            }
            MultiMsg::Ticks(ticks) => {
                for (g, n) in ticks {
                    engine.note_foreign_arrivals(g, n);
                }
            }
            MultiMsg::Add(query) => {
                engine
                    .add_query(query)
                    .expect("coordinator-validated registration");
            }
            MultiMsg::Remove(id) => {
                engine.remove_query(id);
            }
        }
        if !collect_rows {
            for rows in &mut sink.rows {
                rows.clear();
            }
        }
    }
    let stats = (0..engine.n_registered())
        .map(|q| engine.query_stats(QueryId(q as u32)))
        .collect();
    let rows = collect_rows.then(|| {
        let mut rows = sink.rows;
        rows.resize_with(engine.n_registered(), Vec::new);
        rows
    });
    MultiWorkerOut {
        resident: engine.total_resident(),
        metrics: engine.metrics().clone(),
        stats,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use mstream_shed_policies::Fifo;
    use mstream_types::{Row, StreamSchema, VTime, Value};

    fn pair_query(l: &str, r: &str, secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(l, &["k", "v"]));
        c.add_stream(StreamSchema::new(r, &["k", "v"]));
        JoinQuery::from_names(
            c,
            &[(&format!("{l}.k"), &format!("{r}.k"))],
            mstream_types::WindowSpec::secs(secs),
        )
        .unwrap()
    }

    fn build(queries: Vec<JoinQuery>, shards: usize) -> ShardedMultiEngine {
        let mut b = EngineBuilder::new_multi()
            .policy(Fifo)
            .capacity_per_window(1 << 16)
            .shards(shards)
            .shard_config(ShardConfig {
                shards,
                collect_rows: true,
                ..ShardConfig::default()
            });
        for q in queries {
            b.register(q).unwrap();
        }
        b.build_multi_sharded().unwrap()
    }

    fn trace(names: &[&str], len: u64) -> Vec<(String, Row, VTime)> {
        (0..len)
            .map(|i| {
                let s = names[(i % names.len() as u64) as usize];
                let row: Row = vec![Value(i % 3), Value(i % 5)].into();
                (s.to_string(), row, VTime::from_secs(i))
            })
            .collect()
    }

    fn run(mut e: ShardedMultiEngine, t: &[(String, Row, VTime)]) -> MultiRunReport {
        for (name, row, ts) in t {
            let g = e.stream_id(name).unwrap();
            e.ingest(Arrival::new(g, row.clone(), *ts));
        }
        e.finish().unwrap()
    }

    fn keys(rows: &[Vec<Tuple>]) -> Vec<Vec<(VTime, Row)>> {
        rows.iter()
            .map(|r| r.iter().map(|t| (t.ts, t.values.clone())).collect())
            .collect()
    }

    #[test]
    fn sharded_matches_single_shard_per_query() {
        let queries = vec![pair_query("L", "R", 600), pair_query("A", "B", 600)];
        let t = trace(&["L", "R", "A", "B"], 200);
        let r1 = run(build(queries.clone(), 1), &t);
        let r2 = run(build(queries, 2), &t);
        assert_eq!(r2.shards, 2);
        assert!(r2.degraded.is_none());
        let (rows1, rows2) = (r1.rows.unwrap(), r2.rows.unwrap());
        for q in 0..2 {
            assert!(!rows1[q].is_empty());
            assert_eq!(keys(&rows1[q]), keys(&rows2[q]), "query {q} diverged");
        }
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn runtime_add_and_remove_propagate_to_all_shards() {
        let mut e = build(vec![pair_query("L", "R", 600)], 2);
        let t = trace(&["L", "R"], 120);
        let (head, tail) = t.split_at(60);
        for (name, row, ts) in head {
            let g = e.stream_id(name).unwrap();
            e.ingest(Arrival::new(g, row.clone(), *ts));
        }
        let q1 = e.add_query(pair_query("L", "R", 600)).unwrap();
        assert_eq!(q1, QueryId(1));
        for (name, row, ts) in tail {
            let g = e.stream_id(name).unwrap();
            e.ingest(Arrival::new(g, row.clone(), *ts));
        }
        e.remove_query(QueryId(0));
        let report = e.finish().unwrap();
        let rows = report.rows.unwrap();
        // The suffix-only query matches a 1-shard run over the suffix.
        let solo = run(build(vec![pair_query("L", "R", 600)], 1), tail);
        assert_eq!(keys(&rows[1]), keys(&solo.rows.unwrap()[0]));
        // Removed queries drop their counters (stats report zeros), but
        // the rows they emitted before removal were already delivered.
        assert_eq!(report.stats[0], QueryStats::default());
        assert!(!rows[0].is_empty(), "removed query ran until removal");
    }

    #[test]
    fn conflicting_partitioning_degrades_to_one_shard() {
        // Q0 partitions L on attr 0; Q1 joins L.v (attr 1) with Z.k.
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v"]));
        c.add_stream(StreamSchema::new("Z", &["k", "v"]));
        let clash =
            JoinQuery::from_names(c, &[("L.v", "Z.k")], mstream_types::WindowSpec::secs(600))
                .unwrap();
        let e = build(vec![pair_query("L", "R", 600), clash], 4);
        assert_eq!(e.shards(), 1);
        assert!(e.degraded().is_some());
    }

    #[test]
    fn incompatible_runtime_add_is_rejected_on_multi_shard() {
        let mut e = build(vec![pair_query("L", "R", 600)], 2);
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v"]));
        c.add_stream(StreamSchema::new("Z", &["k", "v"]));
        let clash =
            JoinQuery::from_names(c, &[("L.v", "Z.k")], mstream_types::WindowSpec::secs(600))
                .unwrap();
        assert!(e.add_query(clash).is_err());
        assert_eq!(e.n_registered(), 1, "failed add leaves the id space alone");
        let t = trace(&["L", "R"], 40);
        let report = run(e, &t);
        assert!(report.stats[0].produced > 0);
    }
}
