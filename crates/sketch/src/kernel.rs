//! Flat, branch-light kernels over the SoA sketch state: one scalar
//! implementation, **bit-identical** to the legacy array-of-structs
//! layout.
//!
//! Every function here works on contiguous slices laid out *stream-major*:
//! the counters (or last-epoch snapshots) of stream `k` occupy
//! `buf[k * copies .. (k + 1) * copies]`, element `c` belonging to copy
//! `c`. The kernels iterate copy-innermost, and every floating-point
//! reduction folds in exactly the order the legacy AoS implementation used
//! — ascending stream index, left to right over copies — so estimates stay
//! bit-identical (multiplying by ±1 is an exact sign-bit flip and commutes
//! with everything else). The one reduction that crosses copies — the mean
//! stage of median-of-means ([`group_sums`]) — folds each group strictly
//! serially, because IEEE-754 addition is not associative.
//! `tests/equivalence.rs` pins all of this against the legacy layout.
//!
//! The sign kernels walk each 64-copy word bit-serially: the word is
//! shifted right by one per copy and its low bit read, instead of shifting
//! it by the copy index. A shift by a constant is one cheap instruction;
//! a shift by a per-element count is several on baseline x86-64.

// ---------------------------------------------------------------------------
// Shape guards.
// ---------------------------------------------------------------------------

/// Validates the packed-sign shape contract: one sign bit available for
/// every element (`len <= words.len() * 64`).
#[inline]
fn check_sign_shape(words: &[u64], len: usize, what: &str) {
    assert!(
        len <= words.len() * 64,
        "fewer packed sign bits than {what}"
    );
}

/// Validates the stream-major shape contract of [`column_products`],
/// returning `true` if there is nothing to do (`copies == 0`, which is
/// only legal with empty buffers — a mis-shaped non-empty buffer used to
/// slip through the old `copies.max(1)` modulo guard and panic deep inside
/// `chunks_exact`).
#[inline]
fn check_column_shape(buf: &[i64], copies: usize, out: &[f64]) -> bool {
    if copies == 0 {
        assert!(
            buf.is_empty() && out.is_empty(),
            "zero copies with non-empty buffers ({} counters, {} outputs)",
            buf.len(),
            out.len()
        );
        return true;
    }
    assert_eq!(out.len(), copies, "output must hold one product per copy");
    assert_eq!(buf.len() % copies, 0, "buffer is not stream-major");
    false
}

/// Validates the group-major shape contract of [`group_sums`].
#[inline]
fn check_group_shape(per_copy: &[f64], s1: usize, s2: usize) {
    assert_eq!(per_copy.len(), s1 * s2, "copy count must be s1*s2");
}

// ---------------------------------------------------------------------------
// The public kernel API.
// ---------------------------------------------------------------------------

/// Adds `weight` copies of the packed ±1 signs in `words` into per-copy
/// counters: `counters[c] += weight` where bit `c` is clear, `−weight`
/// where set. The bank folds each distinct pending join key once with its
/// arrival count as the weight (DESIGN.md §17); integer addition is exact,
/// so one weighted fold equals `weight` unit folds bit for bit.
///
/// `counters` may be shorter than the bit capacity of `words` (the last
/// word's tail bits are ignored); it must not be longer. Empty `counters`
/// (with any `words`, including none) is a no-op.
pub fn fold_weighted_signs(words: &[u64], weight: i64, counters: &mut [i64]) {
    check_sign_shape(words, counters.len(), "counters");
    for (chunk, &w) in counters.chunks_mut(64).zip(words) {
        let mut bits = w;
        for cnt in chunk {
            *cnt += signed_weight(weight, bits & 1);
            bits >>= 1;
        }
    }
}

/// `weight` when `bit` is 0, `−weight` when it is 1 — a branch-free
/// conditional negation (`(w ^ m) − m` with `m` all-ones or zero), since
/// AGMS sign bits are pseudo-random and a branch would mispredict.
#[inline(always)]
fn signed_weight(weight: i64, bit: u64) -> i64 {
    let m = -(bit as i64);
    (weight ^ m) - m
}

/// Per-copy product of the counters of every stream except `exclude`
/// (pass `usize::MAX` — or any index `>= n`— to include all streams):
/// `out[c] = Π_{k ≠ exclude} buf[k·copies + c]`, multiplied in ascending
/// stream order starting from 1.0, matching the legacy fold exactly.
///
/// `copies == 0` is legal only with empty `buf` and `out` (and is a
/// no-op); a non-empty buffer must be an exact multiple of `copies`.
pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
    if check_column_shape(buf, copies, out) {
        return;
    }
    out.fill(1.0);
    for (k, row) in buf.chunks_exact(copies).enumerate() {
        if k == exclude {
            continue;
        }
        multiply_row(out, row);
    }
}

/// Multiplies one stream-row of counters into an accumulator:
/// `acc[c] *= row[c]`. Used by the mixed last/current fallback path.
#[inline]
pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
    for (o, &v) in acc.iter_mut().zip(row) {
        *o *= v as f64;
    }
}

/// Negates `vals[c]` wherever bit `c` of `words` is set (sign −1).
/// Exact: IEEE negation flips the sign bit only, which is how it is
/// implemented here — an unconditional XOR instead of a data-dependent
/// branch, because AGMS signs are pseudo-random and mispredict ~half the
/// time.
pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
    check_sign_shape(words, vals.len(), "values");
    for (chunk, &w) in vals.chunks_mut(64).zip(words) {
        let mut bits = w;
        for v in chunk {
            *v = f64::from_bits(v.to_bits() ^ (bits << 63));
            bits >>= 1;
        }
    }
}

/// The fused two-partner mixed path (3-stream joins, the paper's shape):
/// `out[c] = ±(a[c] · b[c])` with the packed sign applied as an exact
/// sign-bit flip. Bit-identical to `fill(1.0)` + [`multiply_row`] per
/// row + [`apply_packed_signs`] — `1.0 · x` is exact and negation only
/// toggles the sign bit — in one pass over the counters instead of four.
pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "row/output length mismatch");
    assert_eq!(b.len(), out.len(), "row/output length mismatch");
    check_sign_shape(words, out.len(), "values");
    for (((o_chunk, a_chunk), b_chunk), &w) in out
        .chunks_mut(64)
        .zip(a.chunks(64))
        .zip(b.chunks(64))
        .zip(words)
    {
        let mut bits = w;
        for ((o, &x), &y) in o_chunk.iter_mut().zip(a_chunk).zip(b_chunk) {
            let p = (x as f64) * (y as f64);
            *o = f64::from_bits(p.to_bits() ^ (bits << 63));
            bits >>= 1;
        }
    }
}

/// `dst[c] = ±src[c]` according to the packed signs — the entire frozen
/// cross-product productivity query: one sign lookup and one copy per
/// sketch copy, no multiplies.
pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "source/destination length mismatch");
    check_sign_shape(words, src.len(), "values");
    for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
        let mut bits = w;
        for (d, &s) in chunk.iter_mut().zip(s_chunk) {
            *d = f64::from_bits(s.to_bits() ^ (bits << 63));
            bits >>= 1;
        }
    }
}

/// The mean stage of median-of-means: appends to `groups` the serial sum
/// of each of the `s2` groups of `s1` consecutive `per_copy` values
/// (group-major layout). The **within-group fold order is strictly
/// serial** — f64 addition is not associative, so an in-group tree would
/// change bits.
pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
    check_group_shape(per_copy, s1, s2);
    for g in 0..s2 {
        let sum: f64 = per_copy[g * s1..(g + 1) * s1].iter().sum();
        groups.push(sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_adds_signed_units() {
        let mut counters = vec![0i64; 70];
        // Copies 0 and 65 negative, everything else positive.
        let words = [1u64, 1 << 1];
        fold_weighted_signs(&words, 1, &mut counters);
        assert_eq!(counters[0], -1);
        assert_eq!(counters[1], 1);
        assert_eq!(counters[64], 1);
        assert_eq!(counters[65], -1);
        assert_eq!(counters.iter().sum::<i64>(), 70 - 4);
        fold_weighted_signs(&words, 1, &mut counters);
        assert_eq!(counters[0], -2);
        assert_eq!(counters[69], 2);
        // A weight of w is w unit folds.
        fold_weighted_signs(&words, 5, &mut counters);
        assert_eq!(counters[0], -7);
        assert_eq!(counters[65], -7);
        assert_eq!(counters[69], 7);
        fold_weighted_signs(&words, 0, &mut counters);
        assert_eq!(counters[0], -7);
    }

    #[test]
    fn column_products_exclude_and_full() {
        // 3 streams × 2 copies, stream-major.
        let buf = [2i64, 3, 5, 7, -1, 10];
        let mut out = [0.0f64; 2];
        column_products(&buf, 2, usize::MAX, &mut out);
        assert_eq!(out, [-(2.0 * 5.0), 3.0 * 7.0 * 10.0]);
        column_products(&buf, 2, 1, &mut out);
        assert_eq!(out, [-2.0, 3.0 * 10.0]);
        column_products(&buf, 2, 0, &mut out);
        assert_eq!(out, [-5.0, 7.0 * 10.0]);
    }

    #[test]
    fn multiply_row_accumulates() {
        let mut acc = [1.0f64, -2.0];
        multiply_row(&mut acc, &[3, 4]);
        assert_eq!(acc, [3.0, -8.0]);
    }

    #[test]
    fn apply_and_signed_copy_agree() {
        let words = [0b1010u64];
        let src = [1.5f64, 2.5, 0.0, -4.0];
        let mut a = src;
        apply_packed_signs(&words, &mut a);
        let mut b = [0.0f64; 4];
        signed_copy(&words, &src, &mut b);
        assert_eq!(a, [1.5, -2.5, 0.0, 4.0]);
        assert_eq!(a, b);
        // Negative zero round-trips exactly.
        let mut z = [0.0f64];
        apply_packed_signs(&[1], &mut z);
        assert!(z[0] == 0.0 && z[0].is_sign_negative());
    }

    #[test]
    fn product2_matches_unfused_path() {
        // 70 copies to cross a word boundary; values include zero and
        // negatives so sign handling of every magnitude is exercised.
        let a: Vec<i64> = (0..70).map(|i| i - 35).collect();
        let b: Vec<i64> = (0..70).map(|i| 2 * i - 11).collect();
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_0F0F_0F0F_0F0F];
        let mut unfused = vec![1.0f64; 70];
        multiply_row(&mut unfused, &a);
        multiply_row(&mut unfused, &b);
        apply_packed_signs(&words, &mut unfused);
        let mut fused = vec![0.0f64; 70];
        product2_signed(&a, &b, &words, &mut fused);
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            unfused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fused pass must be bit-identical (negative zero included)"
        );
    }

    #[test]
    #[should_panic(expected = "fewer packed sign bits")]
    fn fold_rejects_short_words() {
        let mut counters = vec![0i64; 65];
        fold_weighted_signs(&[0], 1, &mut counters);
    }

    #[test]
    fn fold_accepts_empty_counters_with_no_words() {
        // Regression: the old chunked loop indexed `words[w_idx]` by
        // position; the zip form cannot touch `words` when there is no
        // counter chunk to fold into.
        let mut counters: Vec<i64> = Vec::new();
        fold_weighted_signs(&[], 1, &mut counters);
        fold_weighted_signs(&[0xFFFF_FFFF_FFFF_FFFF], 3, &mut counters);
        assert!(counters.is_empty());
    }

    #[test]
    fn column_products_zero_copies_is_empty_noop() {
        // Regression: `copies == 0` used to reach `chunks_exact(0)` and
        // panic with an unrelated message; now it is an explicit no-op for
        // empty buffers only.
        let mut out: Vec<f64> = Vec::new();
        column_products(&[], 0, usize::MAX, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero copies with non-empty buffers")]
    fn column_products_zero_copies_rejects_data() {
        // Regression: the old `copies.max(1)` modulo guard silently
        // accepted this mis-shaped buffer.
        let mut out = [0.0f64; 2];
        column_products(&[1, 2, 3], 0, usize::MAX, &mut out);
    }

    #[test]
    #[should_panic(expected = "buffer is not stream-major")]
    fn column_products_rejects_ragged_buffer() {
        let mut out = [0.0f64; 2];
        column_products(&[1, 2, 3], 2, usize::MAX, &mut out);
    }

    #[test]
    fn group_sums_keeps_serial_order() {
        // Adversarial magnitudes where fold order is observable: a tree
        // reduction of [1e16, 1.0, -1e16, 1.0] gives 2.0, the serial fold
        // gives 1.0 — the answer every group must produce.
        let per_copy: Vec<f64> = (0..6 * 4)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        let mut groups = Vec::new();
        group_sums(&per_copy, 4, 6, &mut groups);
        assert_eq!(groups, vec![1.0; 6], "serial in-group fold order");
    }
}
