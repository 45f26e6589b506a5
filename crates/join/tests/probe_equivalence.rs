//! Differential test of the iterative probe kernel against the original
//! recursive one, kept here as the reference: on random chain, star and
//! cyclic queries with random window contents, `probe_each` must visit the
//! **exact same matches in the exact same order** as [`probe_recursive`]
//! from every origin stream. Covers all dispatch shapes: single-step,
//! two-step star, two-step chain, and the general frame-stack kernel (3+
//! steps, residual predicates).

use mstream_join::{probe_each, ProbePlan};
use mstream_types::{
    Catalog, JoinQuery, SeqNo, StreamId, StreamSchema, Tuple, VTime, Value, WindowSpec,
};
use mstream_window::{Slot, WindowStore};
use proptest::prelude::*;

/// The original recursive probe kernel: binds one plan step per level,
/// candidates in index order, and records each match as the sequence
/// numbers of its tuples in stream order.
fn probe_recursive(plan: &ProbePlan, origin: &Tuple, stores: &[WindowStore]) -> Vec<Vec<SeqNo>> {
    fn bound_value(
        origin: &Tuple,
        stores: &[WindowStore],
        slots: &[Option<Slot>],
        stream: StreamId,
        attr: usize,
    ) -> Value {
        if stream == origin.stream {
            origin.values[attr]
        } else {
            let slot = slots[stream.index()].expect("drive stream bound before use");
            stores[stream.index()]
                .tuple(slot)
                .expect("bound slot is live")
                .values[attr]
        }
    }

    fn recurse(
        plan: &ProbePlan,
        step_idx: usize,
        origin: &Tuple,
        stores: &[WindowStore],
        slots: &mut [Option<Slot>],
        out: &mut Vec<Vec<SeqNo>>,
    ) {
        let Some(step) = plan.steps().get(step_idx) else {
            let seqs = slots.iter().enumerate().map(|(k, slot)| match slot {
                Some(slot) => stores[k].tuple(*slot).expect("bound slot is live").seq,
                None => origin.seq,
            });
            out.push(seqs.collect());
            return;
        };
        let drive = bound_value(origin, stores, slots, step.drive_stream, step.drive_attr);
        let store = &stores[step.stream.index()];
        for slot in store.probe(step.probe_attr, drive).iter() {
            let tuple = store.tuple(slot).expect("probed slot is live");
            let residual_ok = step.residual.iter().all(|&(bs, ba, ca)| {
                bound_value(origin, stores, slots, bs, ba) == tuple.values[ca]
            });
            if !residual_ok {
                continue;
            }
            slots[step.stream.index()] = Some(slot);
            recurse(plan, step_idx + 1, origin, stores, slots, out);
            slots[step.stream.index()] = None;
        }
    }

    assert_eq!(plan.origin(), origin.stream);
    let mut slots = vec![None; stores.len()];
    let mut out = Vec::new();
    recurse(plan, 0, origin, stores, &mut slots, &mut out);
    out
}

/// Every match of the iterative kernel, recorded as in [`probe_recursive`].
fn probe_iterative(plan: &ProbePlan, origin: &Tuple, stores: &[WindowStore]) -> Vec<Vec<SeqNo>> {
    let mut got = Vec::new();
    let n = probe_each(plan, origin, stores, |b| {
        got.push((0..stores.len()).map(|k| b.seq(StreamId(k))).collect());
    });
    assert_eq!(
        n as usize,
        got.len(),
        "returned count equals matches visited"
    );
    got
}

fn stores_for(q: &JoinQuery) -> Vec<WindowStore> {
    (0..q.n_streams())
        .map(|s| WindowStore::new(q.window(StreamId(s)), q.join_attrs(StreamId(s)), 10_000))
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

/// The query shapes under test, by name.
fn query(shape: usize) -> JoinQuery {
    let names = ["R1", "R2", "R3", "R4"];
    let mk = |n: usize| {
        let mut c = Catalog::new();
        for &name in &names[..n] {
            c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
        }
        c
    };
    let w = WindowSpec::secs(500);
    match shape {
        // chain2: one predicate, single-step plans.
        0 => JoinQuery::from_names(mk(2), &[("R1.A1", "R2.A1")], w).unwrap(),
        // chain3: two-step chain from the ends, star from the middle.
        1 => JoinQuery::from_names(mk(3), &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], w).unwrap(),
        // star3: R1 in the middle — two-step star from R1.
        2 => JoinQuery::from_names(mk(3), &[("R1.A1", "R2.A1"), ("R1.A2", "R3.A1")], w).unwrap(),
        // triangle: cyclic, one residual predicate.
        3 => JoinQuery::from_names(
            mk(3),
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R1.A2")],
            w,
        )
        .unwrap(),
        // chain4: three-step plans through the general kernel.
        4 => JoinQuery::from_names(
            mk(4),
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R4.A1")],
            w,
        )
        .unwrap(),
        // cycle4: 4-cycle — three plan steps plus a residual closing edge.
        _ => JoinQuery::from_names(
            mk(4),
            &[
                ("R1.A1", "R2.A1"),
                ("R2.A2", "R3.A1"),
                ("R3.A2", "R4.A1"),
                ("R4.A2", "R1.A2"),
            ],
            w,
        )
        .unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn iterative_kernel_matches_recursive(
        shape in 0usize..6,
        // Small value domain so joins actually fan out.
        data in proptest::collection::vec((0u64..4, 0u64..4), 10..80),
        probe_vals in (0u64..4, 0u64..4),
    ) {
        let q = query(shape);
        let n = q.n_streams();
        let mut stores = stores_for(&q);
        for (i, &(a, b)) in data.iter().enumerate() {
            stores[i % n].insert(tup(i % n, i as u64, a, b), 0.0);
        }
        for origin in 0..n {
            let plan = ProbePlan::new(&q, StreamId(origin));
            let t = tup(origin, 9999, probe_vals.0, probe_vals.1);
            let got = probe_iterative(&plan, &t, &stores);
            let want = probe_recursive(&plan, &t, &stores);
            prop_assert_eq!(&got, &want, "match order (shape {}, origin {})", shape, origin);
        }
    }
}

#[test]
fn iterative_matches_recursive_order() {
    // A fixed, join-heavy chain: the two-step chain shape from both ends
    // and the two-step star shape from the middle.
    let q = query(1);
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
        let want = probe_recursive(&plan, &t, &stores);
        assert!(!want.is_empty(), "origin {:?} joins", plan.origin());
        assert_eq!(
            probe_iterative(&plan, &t, &stores),
            want,
            "origin {:?}",
            plan.origin()
        );
    }
}
