//! N-way probe execution against window stores.
//!
//! The probe kernel is iterative (an explicit frame stack instead of
//! recursion) and hoists everything loop-invariant out of the candidate
//! loops: each step's drive value and its residual-predicate left-hand
//! values are computed once per frame, not re-derived through a
//! `bound_value` call per candidate, and a candidate tuple is dereferenced
//! only when the step actually has residual checks. The 2- and 3-stream
//! shapes the benchmarks exercise get specialized fast paths (single-step,
//! two-step star, two-step chain); plans with residual predicates or more
//! steps run the general kernel. All variants enumerate matches in exactly
//! the order of the original recursive kernel ([`probe_each_recursive`],
//! kept for differential tests), so results are bit-identical.
//!
//! Engines probe through [`probe_each_with`] and a [`ProbeScratch`] they
//! own: the slot bindings, hoisted residual values and frame stack are
//! reused across arrivals, so steady-state probing allocates nothing.

use crate::plan::{PlanStep, ProbePlan};
use mstream_types::{StreamId, Tuple, Value};
use mstream_window::{Slot, WindowStore};

/// Resolves a query-local stream id to the window store backing it.
///
/// The single-query engines keep their stores in a dense `Vec` indexed by
/// stream, so a plain slice implements this directly. The multi-query
/// engine owns one store table shared by all registered queries and hands
/// each query a *mapped* view (query-local stream `k` → some shared store),
/// which is why [`Bindings`] reads tuples through this trait instead of
/// indexing a slice.
pub trait StoreLookup {
    /// The window store holding tuples of query-local stream `stream`.
    fn store(&self, stream: StreamId) -> &WindowStore;
}

impl StoreLookup for &[WindowStore] {
    #[inline]
    fn store(&self, stream: StreamId) -> &WindowStore {
        &self[stream.index()]
    }
}

/// A zero-copy view of one join match: the arriving tuple plus one bound
/// window tuple per other stream.
pub struct Bindings<'a> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    /// `slots[k]` = the bound window slot of stream `k` (`None` for the
    /// origin stream).
    slots: &'a [Option<Slot>],
    stores: &'a dyn StoreLookup,
}

impl<'a> Bindings<'a> {
    /// Assembles a match view from raw parts. Engine-internal: consumers
    /// receive `Bindings` from probe callbacks; only join executors (the
    /// probe kernels here and the multi-query trie walker) construct them.
    #[doc(hidden)]
    pub fn from_parts(
        origin: StreamId,
        origin_tuple: &'a Tuple,
        slots: &'a [Option<Slot>],
        stores: &'a dyn StoreLookup,
    ) -> Self {
        Bindings {
            origin,
            origin_tuple,
            slots,
            stores,
        }
    }

    /// The value of `attr` on `stream` within this match.
    pub fn value(&self, stream: StreamId, attr: usize) -> Value {
        if stream == self.origin {
            self.origin_tuple.values[attr]
        } else {
            let slot = self.slots[stream.index()].expect("stream bound in match");
            self.stores
                .store(stream)
                .tuple(slot)
                .expect("bound slot is live")
                .values[attr]
        }
    }

    /// The bound window slot of `stream` (`None` for the origin stream).
    pub fn slot(&self, stream: StreamId) -> Option<Slot> {
        self.slots[stream.index()]
    }

    /// The full bound tuple of `stream` (the arriving tuple for the origin
    /// stream). Lets consumers identify matches by arrival identity — e.g.
    /// the differential audit harness keys result rows on per-stream
    /// sequence numbers.
    pub fn tuple(&self, stream: StreamId) -> &Tuple {
        if stream == self.origin {
            self.origin_tuple
        } else {
            let slot = self.slots[stream.index()].expect("stream bound in match");
            self.stores
                .store(stream)
                .tuple(slot)
                .expect("bound slot is live")
        }
    }

    /// The arrival sequence number of the tuple bound on `stream`.
    pub fn seq(&self, stream: StreamId) -> mstream_types::SeqNo {
        self.tuple(stream).seq
    }

    /// The arriving tuple that triggered this probe.
    pub fn origin_tuple(&self) -> &Tuple {
        self.origin_tuple
    }

    /// The arriving tuple's stream.
    pub fn origin(&self) -> StreamId {
        self.origin
    }

    /// Number of streams participating in the match (the query's stream
    /// count).
    pub fn n_streams(&self) -> usize {
        self.slots.len()
    }
}

/// Reusable buffers of the probe kernels: the per-stream slot bindings,
/// the hoisted residual values and the general kernel's frame stack. An
/// engine keeps one and hands it to [`probe_each_with`] on every arrival,
/// so the buffers reach their steady-state size once and are never
/// reallocated.
#[derive(Default)]
pub struct ProbeScratch {
    slots: Vec<Option<Slot>>,
    res: Vec<(Value, usize)>,
    /// Always empty between probes; re-typed to each probe's borrow (see
    /// [`recycle`]) so its allocation outlives the frames it held.
    frames: Vec<Frame<'static>>,
}

/// Enumerates every combination of window tuples joining with
/// `origin_tuple`, invoking `on_match` per combination. Returns the count.
///
/// `stores[k]` must be the window of stream `k`; the origin's own store is
/// never probed (the paper's operator probes *before* inserting the
/// arriving tuple into its window). Allocates its buffers per call; hot
/// paths use [`probe_each_with`].
pub fn probe_each<F: FnMut(&Bindings<'_>)>(
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    on_match: F,
) -> u64 {
    let mut scratch = ProbeScratch::default();
    probe_each_with(&mut scratch, plan, origin_tuple, stores, on_match)
}

/// [`probe_each`] over caller-owned buffers: identical matches in
/// identical order, without allocating once `scratch` has warmed up.
pub fn probe_each_with<F: FnMut(&Bindings<'_>)>(
    scratch: &mut ProbeScratch,
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    mut on_match: F,
) -> u64 {
    debug_assert_eq!(plan.origin(), origin_tuple.stream);
    let steps = plan.steps();
    let origin = plan.origin();
    let ProbeScratch { slots, res, frames } = scratch;
    slots.clear();
    slots.resize(stores.len(), None);
    match steps {
        [] => {
            on_match(&Bindings {
                origin,
                origin_tuple,
                slots,
                stores: &stores,
            });
            1
        }
        [step] => probe_1(step, origin, origin_tuple, stores, slots, &mut on_match),
        [s0, s1] if s0.residual.is_empty() && s1.residual.is_empty() => {
            probe_2(s0, s1, origin, origin_tuple, stores, slots, &mut on_match)
        }
        _ => {
            let mut live = recycle(std::mem::take(frames));
            let count = probe_n(
                steps,
                origin,
                origin_tuple,
                stores,
                slots,
                res,
                &mut live,
                &mut on_match,
            );
            *frames = recycle(live);
            count
        }
    }
}

/// Counts join combinations without inspecting them.
pub fn probe_count(plan: &ProbePlan, origin_tuple: &Tuple, stores: &[WindowStore]) -> u64 {
    probe_each(plan, origin_tuple, stores, |_| {})
}

/// Single probe step (2-stream query). The drive value comes straight off
/// the arriving tuple; candidates need dereferencing only when residual
/// predicates exist (and their left-hand values are hoisted — at step 0
/// only the origin is bound).
fn probe_1<F: FnMut(&Bindings<'_>)>(
    step: &PlanStep,
    origin: StreamId,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    slots: &mut [Option<Slot>],
    on_match: &mut F,
) -> u64 {
    debug_assert_eq!(step.drive_stream, origin, "step 0 is driven by the origin");
    let store = &stores[step.stream.index()];
    let cands = store.probe(step.probe_attr, origin_tuple.values[step.drive_attr]);
    let si = step.stream.index();
    let mut count = 0u64;
    if step.residual.is_empty() {
        let (head, tail) = cands.parts();
        for part in [head, tail] {
            for &slot in part {
                slots[si] = Some(slot);
                count += 1;
                on_match(&Bindings {
                    origin,
                    origin_tuple,
                    slots,
                    stores: &stores,
                });
            }
        }
    } else {
        // Residual left-hand sides are all origin attributes here.
        let vals = &origin_tuple.values;
        for slot in cands.iter() {
            let t = store.tuple(slot).expect("probed slot is live");
            if step.residual.iter().all(|&(bs, ba, ca)| {
                debug_assert_eq!(bs, origin);
                t.values[ca] == vals[ba]
            }) {
                slots[si] = Some(slot);
                count += 1;
                on_match(&Bindings {
                    origin,
                    origin_tuple,
                    slots,
                    stores: &stores,
                });
            }
        }
    }
    slots[si] = None;
    count
}

/// Two residual-free probe steps (3-stream acyclic query). Star shapes
/// (both steps driven by the origin) hoist the second candidate list out of
/// the outer loop entirely; chain shapes dereference the outer candidate
/// once for its drive value and never touch the inner candidates' tuples.
fn probe_2<F: FnMut(&Bindings<'_>)>(
    s0: &PlanStep,
    s1: &PlanStep,
    origin: StreamId,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    slots: &mut [Option<Slot>],
    on_match: &mut F,
) -> u64 {
    debug_assert_eq!(s0.drive_stream, origin, "step 0 is driven by the origin");
    let store0 = &stores[s0.stream.index()];
    let store1 = &stores[s1.stream.index()];
    let c0 = store0.probe(s0.probe_attr, origin_tuple.values[s0.drive_attr]);
    let (i0, i1) = (s0.stream.index(), s1.stream.index());
    let mut count = 0u64;
    if s1.drive_stream == origin {
        // Star: the inner candidate list does not depend on the outer slot.
        let c1 = store1.probe(s1.probe_attr, origin_tuple.values[s1.drive_attr]);
        if !c1.is_empty() {
            for slot0 in c0.iter() {
                slots[i0] = Some(slot0);
                for slot1 in c1.iter() {
                    slots[i1] = Some(slot1);
                    count += 1;
                    on_match(&Bindings {
                        origin,
                        origin_tuple,
                        slots,
                        stores: &stores,
                    });
                }
            }
        }
    } else {
        // Chain: the inner probe is keyed by the outer candidate's tuple.
        debug_assert_eq!(s1.drive_stream, s0.stream, "drive stream bound at step 0");
        for slot0 in c0.iter() {
            let t0 = store0.tuple(slot0).expect("probed slot is live");
            let c1 = store1.probe(s1.probe_attr, t0.values[s1.drive_attr]);
            if c1.is_empty() {
                continue;
            }
            slots[i0] = Some(slot0);
            for slot1 in c1.iter() {
                slots[i1] = Some(slot1);
                count += 1;
                on_match(&Bindings {
                    origin,
                    origin_tuple,
                    slots,
                    stores: &stores,
                });
            }
        }
    }
    slots[i0] = None;
    slots[i1] = None;
    count
}

/// Empties a frame buffer and re-types it to a new borrow, keeping its
/// allocation: collecting a drained `vec::IntoIter` into a `Vec` of an
/// equally laid-out type reuses the source buffer in place.
fn recycle<'b>(mut frames: Vec<Frame<'_>>) -> Vec<Frame<'b>> {
    frames.clear();
    frames
        .into_iter()
        .map(|_| -> Frame<'b> { unreachable!("the buffer was cleared") })
        .collect()
}

/// One suspended enumeration level of the general kernel: a step's
/// candidate list (inline head + spill tail), the resume cursor, and where
/// this step's hoisted residual values start in the shared scratch.
struct Frame<'a> {
    head: &'a [Slot],
    tail: &'a [Slot],
    cursor: usize,
    res_base: usize,
}

impl<'a> Frame<'a> {
    #[inline]
    fn next(&mut self) -> Option<Slot> {
        let c = self.cursor;
        self.cursor += 1;
        if c < self.head.len() {
            Some(self.head[c])
        } else {
            self.tail.get(c - self.head.len()).copied()
        }
    }
}

/// The general iterative kernel: an explicit depth-first frame stack over
/// the plan's steps. Entering a frame computes the step's drive value and
/// hoists its residual left-hand values once; the candidate loop then only
/// dereferences tuples for steps that actually carry residual checks.
///
/// `res` holds the hoisted residual `(left-hand value, candidate attr)`
/// pairs of all active frames (`res_base` marks each frame's span); both
/// it and `frames` come in empty and leave empty.
#[allow(clippy::too_many_arguments)]
fn probe_n<'a, F: FnMut(&Bindings<'_>)>(
    steps: &[PlanStep],
    origin: StreamId,
    origin_tuple: &Tuple,
    stores: &'a [WindowStore],
    slots: &mut [Option<Slot>],
    res: &mut Vec<(Value, usize)>,
    frames: &mut Vec<Frame<'a>>,
    on_match: &mut F,
) -> u64 {
    let mut count = 0u64;
    res.clear();
    let enter = |step: &PlanStep,
                 slots: &[Option<Slot>],
                 res: &mut Vec<(Value, usize)>|
     -> Frame<'a> {
        let drive = bound_value(
            origin,
            origin_tuple,
            stores,
            slots,
            step.drive_stream,
            step.drive_attr,
        );
        let res_base = res.len();
        for &(bs, ba, ca) in &step.residual {
            res.push((
                bound_value(origin, origin_tuple, stores, slots, bs, ba),
                ca,
            ));
        }
        let (head, tail) = stores[step.stream.index()]
            .probe(step.probe_attr, drive)
            .parts();
        Frame {
            head,
            tail,
            cursor: 0,
            res_base,
        }
    };
    frames.push(enter(&steps[0], slots, res));
    while let Some(depth) = frames.len().checked_sub(1) {
        let step = &steps[depth];
        let store = &stores[step.stream.index()];
        if depth + 1 == steps.len() {
            // Innermost level: every surviving candidate is a match — drain
            // the whole frame in one tight loop (last frames are always
            // fresh, so the cursor is at 0) instead of a stack round-trip
            // per match.
            let f = frames.last().expect("frame at current depth");
            let rvals = &res[f.res_base..];
            let si = step.stream.index();
            for part in [f.head, f.tail] {
                for &slot in part {
                    if !rvals.is_empty() {
                        let t = store.tuple(slot).expect("probed slot is live");
                        if !rvals.iter().all(|&(v, ca)| t.values[ca] == v) {
                            continue;
                        }
                    }
                    slots[si] = Some(slot);
                    count += 1;
                    on_match(&Bindings {
                        origin,
                        origin_tuple,
                        slots,
                        stores: &stores,
                    });
                }
            }
            slots[si] = None;
            let f = frames.pop().expect("frame at current depth");
            res.truncate(f.res_base);
            continue;
        }
        let chosen = {
            let f = frames.last_mut().expect("frame at current depth");
            let rvals = &res[f.res_base..];
            let mut chosen = None;
            while let Some(slot) = f.next() {
                if rvals.is_empty() {
                    chosen = Some(slot);
                    break;
                }
                let t = store.tuple(slot).expect("probed slot is live");
                if rvals.iter().all(|&(v, ca)| t.values[ca] == v) {
                    chosen = Some(slot);
                    break;
                }
            }
            chosen
        };
        match chosen {
            Some(slot) => {
                slots[step.stream.index()] = Some(slot);
                let f = enter(&steps[depth + 1], slots, res);
                frames.push(f);
            }
            None => {
                slots[step.stream.index()] = None;
                let f = frames.pop().expect("frame at current depth");
                res.truncate(f.res_base);
            }
        }
    }
    count
}

/// The original recursive probe kernel, retained verbatim as a differential
/// reference: the iterative kernel must visit the exact same matches in the
/// exact same order (`tests/probe_equivalence.rs`, probe microbenches).
/// Not part of the public API.
#[doc(hidden)]
pub fn probe_each_recursive<F: FnMut(&Bindings<'_>)>(
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    mut on_match: F,
) -> u64 {
    debug_assert_eq!(plan.origin(), origin_tuple.stream);
    let mut slots: Vec<Option<Slot>> = vec![None; stores.len()];
    let mut count = 0u64;
    recurse(
        plan,
        0,
        origin_tuple,
        stores,
        &mut slots,
        &mut count,
        &mut on_match,
    );
    count
}

fn recurse<F: FnMut(&Bindings<'_>)>(
    plan: &ProbePlan,
    step_idx: usize,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    slots: &mut Vec<Option<Slot>>,
    count: &mut u64,
    on_match: &mut F,
) {
    if step_idx == plan.steps().len() {
        *count += 1;
        let bindings = Bindings {
            origin: plan.origin(),
            origin_tuple,
            slots,
            stores: &stores,
        };
        on_match(&bindings);
        return;
    }
    let step = &plan.steps()[step_idx];
    let drive_value = bound_value(
        plan.origin(),
        origin_tuple,
        stores,
        slots,
        step.drive_stream,
        step.drive_attr,
    );
    let store = &stores[step.stream.index()];
    let candidates = store.probe(step.probe_attr, drive_value);
    for slot in candidates.iter() {
        let tuple = store.tuple(slot).expect("probed slot is live");
        let residual_ok = step.residual.iter().all(|&(bs, ba, ca)| {
            bound_value(plan.origin(), origin_tuple, stores, slots, bs, ba) == tuple.values[ca]
        });
        if !residual_ok {
            continue;
        }
        slots[step.stream.index()] = Some(slot);
        recurse(
            plan,
            step_idx + 1,
            origin_tuple,
            stores,
            slots,
            count,
            on_match,
        );
        slots[step.stream.index()] = None;
    }
}

/// Reads an attribute of a bound stream (origin or already-probed window).
fn bound_value(
    origin: StreamId,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    slots: &[Option<Slot>],
    stream: StreamId,
    attr: usize,
) -> Value {
    if stream == origin {
        origin_tuple.values[attr]
    } else {
        let slot = slots[stream.index()].expect("drive stream bound before use");
        stores[stream.index()]
            .tuple(slot)
            .expect("bound slot is live")
            .values[attr]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, JoinQuery, SeqNo, StreamSchema, VTime, WindowSpec};

    fn chain3() -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(500),
        )
        .unwrap()
    }

    fn stores_for(q: &JoinQuery) -> Vec<WindowStore> {
        (0..q.n_streams())
            .map(|s| {
                WindowStore::new(
                    q.window(StreamId(s)),
                    q.join_attrs(StreamId(s)),
                    1_000,
                )
            })
            .collect()
    }

    fn tup(stream: usize, seq: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(stream),
            VTime::ZERO,
            SeqNo(seq),
            vec![Value(a), Value(b)],
        )
    }

    #[test]
    fn chain_probe_counts_combinations() {
        let q = chain3();
        let mut stores = stores_for(&q);
        // W2: two tuples (5, 8); W3: three tuples with A1=8.
        stores[1].insert(tup(1, 0, 5, 8), 0.0);
        stores[1].insert(tup(1, 1, 5, 8), 0.0);
        stores[2].insert(tup(2, 2, 8, 1), 0.0);
        stores[2].insert(tup(2, 3, 8, 2), 0.0);
        stores[2].insert(tup(2, 4, 8, 3), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        // Arriving R1 tuple with A1=5 joins 2 R2-tuples × 3 R3-tuples.
        let t = tup(0, 9, 5, 0);
        assert_eq!(probe_count(&plan, &t, &stores), 6);
        // Non-matching arrival produces nothing.
        let t = tup(0, 10, 6, 0);
        assert_eq!(probe_count(&plan, &t, &stores), 0);
    }

    #[test]
    fn probe_from_middle_stream() {
        let q = chain3();
        let mut stores = stores_for(&q);
        stores[0].insert(tup(0, 0, 7, 0), 0.0);
        stores[0].insert(tup(0, 1, 7, 0), 0.0);
        stores[2].insert(tup(2, 2, 4, 0), 0.0);
        let plan = ProbePlan::new(&q, StreamId(1));
        // R2 tuple (7, 4): matches both R1 tuples and the R3 tuple.
        assert_eq!(probe_count(&plan, &tup(1, 9, 7, 4), &stores), 2);
        // R2 tuple (7, 5): right side empty -> nothing.
        assert_eq!(probe_count(&plan, &tup(1, 10, 7, 5), &stores), 0);
    }

    #[test]
    fn bindings_expose_values_and_slots() {
        let q = chain3();
        let mut stores = stores_for(&q);
        stores[1].insert(tup(1, 0, 5, 8), 0.0);
        stores[2].insert(tup(2, 1, 8, 42), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        let t = tup(0, 9, 5, 77);
        let mut seen = Vec::new();
        let count = probe_each(&plan, &t, &stores, |b| {
            assert_eq!(b.origin(), StreamId(0));
            assert_eq!(b.origin_tuple().seq, SeqNo(9));
            assert_eq!(b.value(StreamId(0), 1), Value(77));
            assert_eq!(b.value(StreamId(1), 1), Value(8));
            assert_eq!(b.value(StreamId(2), 1), Value(42));
            assert!(b.slot(StreamId(0)).is_none());
            assert!(b.slot(StreamId(1)).is_some());
            seen.push(b.slot(StreamId(2)).unwrap());
        });
        assert_eq!(count, 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(stores[2].tuple(seen[0]).unwrap().values[1], Value(42));
    }

    #[test]
    fn triangle_residual_filters_matches() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        let q = JoinQuery::from_names(
            c,
            &[
                ("R1.A1", "R2.A1"),
                ("R2.A2", "R3.A1"),
                ("R3.A2", "R1.A2"),
            ],
            WindowSpec::secs(500),
        )
        .unwrap();
        let mut stores = stores_for(&q);
        stores[1].insert(tup(1, 0, 1, 2), 0.0);
        // Two R3 candidates match R2.A2 = R3.A1 = 2, but only one closes
        // the cycle R3.A2 = R1.A2 = 9.
        stores[2].insert(tup(2, 1, 2, 9), 0.0);
        stores[2].insert(tup(2, 2, 2, 8), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        let t = tup(0, 9, 1, 9);
        assert_eq!(probe_count(&plan, &t, &stores), 1);
    }

    #[test]
    fn exhaustive_against_nested_loops() {
        // Brute-force cross-check on small random-ish relations.
        let q = chain3();
        let mut stores = stores_for(&q);
        let mut seq = 0;
        let mut w: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 3];
        for s in 0..3usize {
            for i in 0..20u64 {
                let (a, b) = ((i * 7 + s as u64) % 5, (i * 3 + s as u64) % 4);
                stores[s].insert(tup(s, seq, a, b), 0.0);
                w[s].push((a, b));
                seq += 1;
            }
        }
        let plans = ProbePlan::all(&q);
        for (s, plan) in plans.iter().enumerate() {
            let t = tup(s, 999, 2, 3);
            let got = probe_count(plan, &t, &stores);
            // Nested-loop reference with W_s replaced by {t}.
            let (ta, tb) = (2u64, 3u64);
            let mut expect = 0u64;
            let r1: Vec<(u64, u64)> = if s == 0 { vec![(ta, tb)] } else { w[0].clone() };
            let r2: Vec<(u64, u64)> = if s == 1 { vec![(ta, tb)] } else { w[1].clone() };
            let r3: Vec<(u64, u64)> = if s == 2 { vec![(ta, tb)] } else { w[2].clone() };
            for &(a1, _) in &r1 {
                for &(b1, b2) in &r2 {
                    if a1 == b1 {
                        for &(c1, _) in &r3 {
                            if b2 == c1 {
                                expect += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(got, expect, "origin {s}");
        }
    }

    #[test]
    fn iterative_matches_recursive_order() {
        // The three dispatch shapes (chain-from-end = probe_2 chain,
        // middle-origin = probe_2 star, triangle = probe_n with residuals)
        // must all enumerate matches in the recursive kernel's order.
        let q = chain3();
        let mut stores = stores_for(&q);
        let mut seq = 0;
        for (s, store) in stores.iter_mut().enumerate() {
            for i in 0..15u64 {
                store.insert(tup(s, seq, (i * 5 + s as u64) % 4, (i * 3) % 4), 0.0);
                seq += 1;
            }
        }
        for plan in ProbePlan::all(&q) {
            let t = tup(plan.origin().index(), 999, 2, 3);
            let mut got = Vec::new();
            let n1 = probe_each(&plan, &t, &stores, |b| {
                got.push((0..3).map(|k| b.seq(StreamId(k))).collect::<Vec<_>>());
            });
            let mut want = Vec::new();
            let n2 = probe_each_recursive(&plan, &t, &stores, |b| {
                want.push((0..3).map(|k| b.seq(StreamId(k))).collect::<Vec<_>>());
            });
            assert_eq!(n1, n2);
            assert_eq!(got, want, "match order diverged (origin {:?})", plan.origin());
        }
    }
}
