//! Output checks and the arithmetic behind the reported numbers: the
//! order-independent row fingerprint, recall against the exact join, the
//! per-row predicate/window check, the percentile sample rule and metric
//! name validation.

use mstream_core::mstream_types::{JoinQuery, StreamId, Value, WindowSpec};
use mstream_core::mstream_workload::Trace;

/// splitmix64's finalizer: a cheap, well-mixed 64-bit hash step.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-independent fingerprint of a multiset of result rows.
///
/// Each row hashes its query id and the arrival sequence numbers of its
/// tuples in stream order; the fingerprint is the row count plus the
/// wrapping sum of the row hashes, so two runs that emit the same rows in
/// any order agree, and a run that drops, adds or changes a row does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Rows folded in.
    pub rows: u64,
    /// Wrapping sum of the row hashes.
    pub sum: u64,
}

impl Fingerprint {
    /// Folds one row in.
    pub fn add(&mut self, query: u32, seqs: impl IntoIterator<Item = u64>) {
        // Position-keyed odd multipliers keep `(a, b)` and `(b, a)` apart;
        // one finalizing mix spreads the combination over every bit.
        let mut h = u64::from(query).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut k = 0xE703_7ED1_A0B4_28DBu64;
        for s in seqs {
            h = h.rotate_left(23) ^ s.wrapping_mul(k);
            k = k.wrapping_add(0x8EBC_6AF0_9C88_C6E3);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix(h));
    }
}

/// Rows emitted over rows of the exact join on the same trace. An empty
/// exact join is fully recalled by an empty output.
pub fn recall(rows: u64, exact: u64) -> f64 {
    if exact == 0 {
        return if rows == 0 { 1.0 } else { f64::INFINITY };
    }
    rows as f64 / exact as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fails when a shedding run emitted more rows than the exact join has.
pub fn check_within_exact(what: &str, rows: u64, exact: u64) -> Result<(), String> {
    if rows > exact {
        return Err(format!(
            "{what}: {rows} rows exceed the exact join's {exact}"
        ));
    }
    Ok(())
}

/// Whether `n` samples support reporting quantile `q` (0 < q < 1): at
/// least ten samples must lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// The `q`-quantile of `samples` (nearest rank on the sorted samples).
/// Reorders `samples`. `None` when the sample count does not support `q`.
pub fn quantile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() || !percentile_supported(samples.len(), q) {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable(rank);
    Some(*v)
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between the two nearest ranks; 0 for no values.
pub fn quartile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartile(values, 0.5)
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Per-arrival facts about a trace, indexed by arrival position (which is
/// also the sequence number the engines mint for in-order delivery).
pub struct TraceIndex<'a> {
    trace: &'a Trace,
    n_streams: usize,
    /// Virtual arrival time of each position, in microseconds.
    dt_micros: u64,
    /// `ordinal[i]`: arrivals on position `i`'s stream before it.
    ordinal: Vec<u32>,
    /// `before[i * n_streams + s]`: arrivals on stream `s` before `i`.
    before: Vec<u32>,
}

impl<'a> TraceIndex<'a> {
    /// Indexes `trace`, replayed with `dt_micros` between arrivals.
    pub fn new(trace: &'a Trace, n_streams: usize, dt_micros: u64) -> Self {
        let mut counts = vec![0u32; n_streams];
        let mut ordinal = Vec::with_capacity(trace.len());
        let mut before = Vec::with_capacity(trace.len() * n_streams);
        for item in &trace.items {
            before.extend_from_slice(&counts);
            let s = item.stream.index();
            ordinal.push(counts[s]);
            counts[s] += 1;
        }
        TraceIndex {
            trace,
            n_streams,
            dt_micros,
            ordinal,
            before,
        }
    }
}

/// One emitted row as the checker sees it: per query-local stream, the
/// tuple's sequence number, timestamp (µs) and values.
pub struct RowView<'r> {
    /// Sequence numbers, in query-local stream order.
    pub seqs: &'r [u64],
    /// Timestamps in microseconds, in query-local stream order.
    pub ts: &'r [u64],
    /// Attribute values, in query-local stream order.
    pub values: &'r [&'r [Value]],
}

/// Checks emitted rows of one query against its predicates and windows,
/// and their tuples against the trace they came from.
pub struct RowChecker {
    /// Trace stream of each query-local stream.
    streams: Vec<usize>,
    windows: Vec<WindowSpec>,
    /// `(left stream, left attr, right stream, right attr)`, query-local.
    preds: Vec<(usize, usize, usize, usize)>,
}

impl RowChecker {
    /// A checker for `query`, whose local stream `k` reads trace stream
    /// `streams[k]`.
    pub fn new(query: &JoinQuery, streams: Vec<usize>) -> Self {
        assert_eq!(
            streams.len(),
            query.n_streams(),
            "one trace stream per query stream"
        );
        RowChecker {
            windows: (0..query.n_streams())
                .map(|k| query.window(StreamId(k)))
                .collect(),
            preds: query
                .predicates()
                .iter()
                .map(|p| {
                    (
                        p.left.stream.index(),
                        p.left.attr,
                        p.right.stream.index(),
                        p.right.attr,
                    )
                })
                .collect(),
            streams,
        }
    }

    /// Checks one row: every tuple is the trace arrival its sequence
    /// number names (stream, timestamp and values), every predicate holds,
    /// and every partner tuple was inside its window when the row's
    /// newest tuple arrived.
    pub fn check(&self, index: &TraceIndex<'_>, row: &RowView<'_>) -> Result<(), String> {
        let n = self.streams.len();
        if row.seqs.len() != n || row.ts.len() != n || row.values.len() != n {
            return Err(format!(
                "row has {} tuples, query has {n} streams",
                row.seqs.len()
            ));
        }
        for k in 0..n {
            let seq = row.seqs[k];
            let item = index
                .trace
                .items
                .get(seq as usize)
                .ok_or_else(|| format!("stream {k}: seq {seq} is past the trace"))?;
            if item.stream.index() != self.streams[k] {
                return Err(format!("stream {k}: seq {seq} arrived on another stream"));
            }
            if row.ts[k] != seq * index.dt_micros {
                return Err(format!("stream {k}: seq {seq} carries ts {}µs", row.ts[k]));
            }
            if item.values.as_slice() != row.values[k] {
                return Err(format!(
                    "stream {k}: seq {seq} values differ from the trace"
                ));
            }
        }
        for &(ls, la, rs, ra) in &self.preds {
            if row.values[ls][la] != row.values[rs][ra] {
                return Err(format!("predicate {ls}.{la} = {rs}.{ra} does not hold"));
            }
        }
        let newest = (0..n)
            .max_by_key(|&k| row.seqs[k])
            .expect("queries have streams");
        let now_seq = row.seqs[newest] as usize;
        for k in (0..n).filter(|&k| k != newest) {
            let seq = row.seqs[k] as usize;
            if seq == now_seq {
                return Err(format!("stream {k} repeats the newest tuple"));
            }
            let inside = match self.windows[k] {
                WindowSpec::Time(p) => row.ts[k] + p.as_micros() > row.ts[newest],
                // A store stamps each tuple with its 1-based arrival count
                // and expires it once `count` more arrivals have been seen.
                WindowSpec::Tuples(count) => {
                    let seen = index.before[now_seq * index.n_streams + self.streams[k]];
                    u64::from(seen - index.ordinal[seq]) <= count
                }
            };
            if !inside {
                return Err(format!(
                    "stream {k}: seq {seq} is outside its window at seq {now_seq}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_query::parse_query;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(10_000, 0.999));
        assert!(!percentile_supported(9_999, 0.999));
        assert!(percentile_supported(1_000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        let mut few: Vec<u32> = (0..999).collect();
        assert_eq!(quantile(&mut few, 0.99), None);
        let mut many: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut many, 0.5), Some(500));
        assert_eq!(quantile(&mut many, 0.99), Some(990));
    }

    #[test]
    fn recall_and_exact_bound() {
        assert_eq!(recall(25, 100), 0.25);
        assert_eq!(recall(0, 0), 1.0);
        assert!(recall(1, 0).is_infinite());
        assert!(check_within_exact("q", 100, 100).is_ok());
        assert!(check_within_exact("q", 101, 100).is_err());
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let rows = [[1u64, 5, 9], [2, 5, 9], [3, 6, 7]];
        let mut a = Fingerprint::default();
        for r in rows {
            a.add(0, r);
        }
        let mut b = Fingerprint::default();
        for r in rows.iter().rev() {
            b.add(0, *r);
        }
        assert_eq!(a, b);
        let mut c = Fingerprint::default();
        for r in [[1u64, 5, 9], [2, 5, 9], [3, 6, 8]] {
            c.add(0, r);
        }
        assert_eq!(a.rows, c.rows);
        assert_ne!(a, c, "a changed sequence number changes the fingerprint");
        let mut d = Fingerprint::default();
        for r in rows {
            d.add(1, r);
        }
        assert_ne!(a, d, "the emitting query is part of the row");
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartile(&v, 0.25), 2.0);
        assert_eq!(quartile(&v, 0.75), 4.0);
        assert_eq!(quartile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["arrivals_per_s", "sketch.observe_s", "p-99", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "has space",
            "semi;colon",
            "µs",
            ".leading",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    /// R1 ⋈ R2 ⋈ R3 on a 3-stream chain with a 3-tuple window on every
    /// stream, over a hand-built trace where arrival `i` has ts `i·10µs`.
    fn fixture() -> (JoinQuery, Trace) {
        let q = parse_query(
            "SELECT * FROM R1(A1, A2) [ROWS 3], R2(A1, A2), R3(A1, A2) \
             WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1",
        )
        .unwrap();
        let mut t = Trace::new();
        for (s, a, b) in [
            (0, 1, 0),
            (1, 1, 2),
            (2, 2, 0),
            (1, 1, 2),
            (1, 1, 2),
            (1, 1, 2),
            (2, 2, 5),
        ] {
            t.push(StreamId(s), vec![Value(a), Value(b)]);
        }
        (q, t)
    }

    fn row_of(t: &Trace, seqs: [u64; 3]) -> (Vec<u64>, Vec<u64>, Vec<Vec<Value>>) {
        let ts = seqs.iter().map(|s| s * 10).collect();
        let vals = seqs
            .iter()
            .map(|&s| t.items[s as usize].values.as_slice().to_vec())
            .collect();
        (seqs.to_vec(), ts, vals)
    }

    fn run_check(
        c: &RowChecker,
        idx: &TraceIndex<'_>,
        row: &(Vec<u64>, Vec<u64>, Vec<Vec<Value>>),
    ) -> Result<(), String> {
        let values: Vec<&[Value]> = row.2.iter().map(Vec::as_slice).collect();
        c.check(
            idx,
            &RowView {
                seqs: &row.0,
                ts: &row.1,
                values: &values,
            },
        )
    }

    #[test]
    fn valid_rows_pass_and_corrupted_rows_are_caught() {
        let (q, t) = fixture();
        let idx = TraceIndex::new(&t, 3, 10);
        let c = RowChecker::new(&q, vec![0, 1, 2]);
        let good = row_of(&t, [0, 1, 2]);
        assert_eq!(run_check(&c, &idx, &good), Ok(()));

        // A corrupted value breaks both the trace identity and a predicate.
        let mut bad_value = good.clone();
        bad_value.2[2][0] = Value(3);
        assert!(run_check(&c, &idx, &bad_value).is_err());

        // A tuple relabelled with another arrival's sequence number (seq
        // 3 is an R2 tuple with the same values, but it arrived later).
        let mut bad_seq = good.clone();
        bad_seq.0[1] = 3;
        assert!(run_check(&c, &idx, &bad_seq)
            .unwrap_err()
            .contains("carries ts"));

        // Relabelled consistently (seq and timestamp of arrival 3), it is
        // another valid row: R2's seq 3 probing R1's seq 0 and R3's seq 2.
        let mut later = good.clone();
        later.0[1] = 3;
        later.1[1] = 30;
        assert_eq!(run_check(&c, &idx, &later), Ok(()));

        // A wrong timestamp.
        let mut bad_ts = good.clone();
        bad_ts.1[0] = 5;
        assert!(run_check(&c, &idx, &bad_ts).is_err());

        // A tuple on the wrong stream.
        let wrong_stream = row_of(&t, [1, 1, 2]);
        assert!(run_check(&c, &idx, &wrong_stream).is_err());
    }

    #[test]
    fn tuple_window_bounds_are_enforced() {
        let (q, mut t) = fixture();
        t.items[6].values = vec![Value(2), Value(5)].into();
        let idx = TraceIndex::new(&t, 3, 10);
        let c = RowChecker::new(&q, vec![0, 1, 2]);
        // At seq 6 (R3) the last three R2 arrivals are seqs 3, 4 and 5:
        // seq 3 is inside the 3-tuple window, seq 1 has expired.
        assert_eq!(run_check(&c, &idx, &row_of(&t, [0, 3, 6])), Ok(()));
        let expired = run_check(&c, &idx, &row_of(&t, [0, 1, 6]));
        assert!(expired.unwrap_err().contains("outside its window"));
    }

    #[test]
    fn time_window_bounds_are_enforced() {
        let q = parse_query("SELECT * FROM L(k) [RANGE 1 SECONDS], R(k) WHERE L.k = R.k").unwrap();
        let mut t = Trace::new();
        t.push(StreamId(0), vec![Value(4)]);
        t.push(StreamId(1), vec![Value(4)]);
        let c = RowChecker::new(&q, vec![0, 1]);
        // 0.5 s apart: inside a 1 s window.
        let near = TraceIndex::new(&t, 2, 500_000);
        let vals: Vec<&[Value]> = t.items.iter().map(|i| i.values.as_slice()).collect();
        let ok = c.check(
            &near,
            &RowView {
                seqs: &[0, 1],
                ts: &[0, 500_000],
                values: &vals,
            },
        );
        assert_eq!(ok, Ok(()));
        // Exactly 1 s apart: `ts + p <= now` has expired the partner.
        let far = TraceIndex::new(&t, 2, 1_000_000);
        let late = c.check(
            &far,
            &RowView {
                seqs: &[0, 1],
                ts: &[0, 1_000_000],
                values: &vals,
            },
        );
        assert!(late.is_err());
    }
}
