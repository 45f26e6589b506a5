//! Multi-way sliding-window join execution.
//!
//! The paper's operator (§2, Figure 1) processes one tuple at a time: when
//! tuple `t` of stream `S_i` reaches the join operator, expired tuples are
//! deleted from every window, the join result produced by `t` against all
//! *other* windows is emitted, and `t` is stored in `W_i`. This crate
//! implements the probing machinery that all engines (shedding or exact)
//! share:
//!
//! * [`ProbePlan`] — a per-origin-stream evaluation order over the join
//!   graph: BFS from the origin so every step probes a hash index on one
//!   driving predicate and verifies any remaining predicates by value.
//! * [`probe_each`] / [`probe_count`] — enumeration of all combinations of
//!   window tuples that join with the arriving tuple, with a zero-copy
//!   [`Bindings`] view for consumers (output counting, per-tuple produced
//!   counters, windowed aggregates). Engines call [`probe_each_with`] with
//!   a reused [`ProbeScratch`] so the per-arrival probe never allocates.
//! * [`ExactJoin`] — the unbounded-memory reference executor: ground truth
//!   for "ratio of approximate and exact result" (Figure 4) and for the
//!   aggregate/quantile error metrics (Figure 7).

//!
//! ```
//! use mstream_join::ExactJoin;
//! use mstream_types::{Catalog, JoinQuery, StreamId, StreamSchema, VTime, Value, WindowSpec};
//!
//! let mut c = Catalog::new();
//! c.add_stream(StreamSchema::new("L", &["k"]));
//! c.add_stream(StreamSchema::new("R", &["k"]));
//! let query = JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap();
//!
//! let mut join = ExactJoin::new(query);
//! assert_eq!(join.process(StreamId(0), vec![Value(5)], VTime::ZERO), 0);
//! assert_eq!(join.process(StreamId(1), vec![Value(5)], VTime::from_secs(1)), 1);
//! assert_eq!(join.total_output(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod plan;
pub mod probe;

pub use exact::ExactJoin;
pub use plan::{PlanStep, ProbePlan};
pub use probe::{probe_count, probe_each, probe_each_with, Bindings, ProbeScratch, StoreLookup};
