//! Flat, branch-light kernels over the SoA sketch state, in three
//! interchangeable implementations: a scalar reference path, a portable
//! fixed-width lane path, and (on `x86_64`) AVX2 specializations for the
//! sign-application kernels — all **bit-identical** by construction.
//!
//! Every function here works on contiguous slices laid out *stream-major*:
//! the counters (or last-epoch snapshots) of stream `k` occupy
//! `buf[k * copies .. (k + 1) * copies]`, element `c` belonging to copy
//! `c`. The kernels iterate copy-innermost, and every floating-point
//! reduction folds in exactly the order the legacy AoS implementation used
//! — ascending stream index, left to right over copies — so estimates stay
//! bit-identical (multiplying by ±1 is an exact sign-bit flip and commutes
//! with everything else).
//!
//! # Why lane parallelism preserves bit-identity
//!
//! Each kernel below computes output index `c` from inputs at index `c`
//! only — counter folds, per-copy products, sign XORs are all elementwise.
//! A lane-parallel form evaluates the *same* operation sequence per index;
//! only the order **across** independent indexes changes, which is not
//! observable. The one reduction that crosses indexes — the mean stage of
//! median-of-means — keeps its serial within-group fold order in every
//! mode ([`group_sums`] lane-parallelizes **across** groups, never inside
//! one), because IEEE-754 addition is not associative and the estimates
//! are pinned bit-for-bit against the legacy layout. `tests/equivalence.rs`
//! proves all of this for every mode, including ragged tails and extreme
//! counters.
//!
//! # Dispatch
//!
//! The public top-level functions dispatch once per process via
//! [`kernel_mode`]: `MSTREAM_KERNEL=scalar|lanes|native` overrides; the
//! default is the best mode the CPU supports (`native` = AVX2 where
//! detected, otherwise the portable lane path). The [`scalar`] and
//! [`lanes`] modules stay public so the equivalence suite and the benches
//! can pin a specific implementation.

use std::sync::OnceLock;

/// Lane width of the portable vector kernels (f64x4 / i64x4-sized blocks,
/// one 256-bit register on the machines this targets).
pub const LANES: usize = 4;

/// Which kernel implementation the dispatching entry points run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The legacy one-element-per-iteration reference path.
    Scalar,
    /// Portable fixed-width lane blocks ([`LANES`] elements per step).
    Lanes,
    /// AVX2 `std::arch` specializations for the sign-application kernels
    /// (the remaining kernels run the lane path, which the compiler
    /// vectorizes with the same width).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl KernelMode {
    fn resolve() -> KernelMode {
        match std::env::var("MSTREAM_KERNEL").as_deref() {
            Ok("scalar") => KernelMode::Scalar,
            Ok("lanes") => KernelMode::Lanes,
            _ => KernelMode::native(),
        }
    }

    /// The best mode this CPU supports.
    fn native() -> KernelMode {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelMode::Avx2;
        }
        KernelMode::Lanes
    }
}

/// The process-wide kernel mode, resolved once on first use: the
/// `MSTREAM_KERNEL` environment variable (`scalar`, `lanes` or `native`)
/// when set, otherwise the best mode the CPU supports. Every mode is
/// bit-identical; the knob exists for benchmarking and bisection.
pub fn kernel_mode() -> KernelMode {
    static MODE: OnceLock<KernelMode> = OnceLock::new();
    *MODE.get_or_init(KernelMode::resolve)
}

// ---------------------------------------------------------------------------
// Shape guards, shared by every implementation.
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
// Dispatching entry points (the public kernel API).
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
    match kernel_mode() {
        KernelMode::Scalar => scalar::fold_weighted_signs(words, weight, counters),
        _ => lanes::fold_weighted_signs(words, weight, counters),
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
    match kernel_mode() {
        KernelMode::Scalar => scalar::column_products(buf, copies, exclude, out),
        _ => lanes::column_products(buf, copies, exclude, out),
    }
}

/// Multiplies one stream-row of counters into an accumulator:
/// `acc[c] *= row[c]`. Used by the mixed last/current fallback path.
#[inline]
pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
    match kernel_mode() {
        KernelMode::Scalar => scalar::multiply_row(acc, row),
        _ => lanes::multiply_row(acc, row),
    }
}

/// Negates `vals[c]` wherever bit `c` of `words` is set (sign −1).
/// Exact: IEEE negation flips the sign bit only, which is how it is
/// implemented here — an unconditional XOR instead of a data-dependent
/// branch, because AGMS signs are pseudo-random and mispredict ~half the
/// time.
pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
    check_sign_shape(words, vals.len(), "values");
    match kernel_mode() {
        KernelMode::Scalar => scalar::apply_packed_signs(words, vals),
        KernelMode::Lanes => lanes::apply_packed_signs(words, vals),
        #[cfg(target_arch = "x86_64")]
        KernelMode::Avx2 => avx2::apply_packed_signs(words, vals),
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
    match kernel_mode() {
        KernelMode::Scalar => scalar::product2_signed(a, b, words, out),
        _ => lanes::product2_signed(a, b, words, out),
    }
}

/// `dst[c] = ±src[c]` according to the packed signs — the entire frozen
/// cross-product productivity query: one sign lookup and one copy per
/// sketch copy, no multiplies.
pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "source/destination length mismatch");
    check_sign_shape(words, src.len(), "values");
    match kernel_mode() {
        KernelMode::Scalar => scalar::signed_copy(words, src, dst),
        KernelMode::Lanes => lanes::signed_copy(words, src, dst),
        #[cfg(target_arch = "x86_64")]
        KernelMode::Avx2 => avx2::signed_copy(words, src, dst),
    }
}

/// The mean stage of median-of-means: appends to `groups` the serial sum
/// of each of the `s2` groups of `s1` consecutive `per_copy` values
/// (group-major layout). Every mode keeps the **within-group fold order
/// strictly serial** — f64 addition is not associative, so an in-group
/// tree would change bits — and the lane path parallelizes only *across*
/// independent groups.
pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
    check_group_shape(per_copy, s1, s2);
    match kernel_mode() {
        KernelMode::Scalar => scalar::group_sums(per_copy, s1, s2, groups),
        _ => lanes::group_sums(per_copy, s1, s2, groups),
    }
}

// ---------------------------------------------------------------------------
// Scalar reference path.
// ---------------------------------------------------------------------------

/// The one-element-per-iteration reference implementations. Shape guards
/// live in the dispatching entry points; these assume validated inputs
/// (public so the equivalence suite and benches can pin this path).
pub mod scalar {
    use super::signed_weight;

    /// Scalar [`super::fold_weighted_signs`].
    pub fn fold_weighted_signs(words: &[u64], weight: i64, counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            for (b, cnt) in chunk.iter_mut().enumerate() {
                *cnt += signed_weight(weight, (w >> b) & 1);
            }
        }
    }

    /// Scalar [`super::column_products`].
    pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
        out.fill(1.0);
        for (k, row) in buf.chunks_exact(copies).enumerate() {
            if k == exclude {
                continue;
            }
            for (o, &v) in out.iter_mut().zip(row) {
                *o *= v as f64;
            }
        }
    }

    /// Scalar [`super::multiply_row`].
    #[inline]
    pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
        for (o, &v) in acc.iter_mut().zip(row) {
            *o *= v as f64;
        }
    }

    /// Scalar [`super::apply_packed_signs`].
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = f64::from_bits(v.to_bits() ^ (((w >> b) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::product2_signed`].
    pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
        for (((o_chunk, a_chunk), b_chunk), &w) in out
            .chunks_mut(64)
            .zip(a.chunks(64))
            .zip(b.chunks(64))
            .zip(words)
        {
            for (bit, ((o, &x), &y)) in o_chunk.iter_mut().zip(a_chunk).zip(b_chunk).enumerate() {
                let p = (x as f64) * (y as f64);
                *o = f64::from_bits(p.to_bits() ^ (((w >> bit) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::signed_copy`].
    pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
        for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
            for ((b, d), &s) in chunk.iter_mut().enumerate().zip(s_chunk) {
                *d = f64::from_bits(s.to_bits() ^ (((w >> b) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::group_sums`]: one serial sum per group, groups in
    /// ascending order.
    pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
        for g in 0..s2 {
            let sum: f64 = per_copy[g * s1..(g + 1) * s1].iter().sum();
            groups.push(sum);
        }
    }
}

// ---------------------------------------------------------------------------
// Portable lane path.
// ---------------------------------------------------------------------------

/// Fixed-width lane implementations on stable Rust: [`super::LANES`]-wide
/// blocks via `chunks_exact` with a scalar tail, shaped so the compiler
/// keeps each block in one vector register. Bit-identical to [`scalar`]
/// because every block computes the same per-index operation sequence;
/// only the interleaving across independent indexes changes.
pub mod lanes {
    use super::{signed_weight, LANES};

    /// Lane [`super::fold_weighted_signs`]: [`LANES`] counters per step,
    /// sign bits expanded in-register order.
    pub fn fold_weighted_signs(words: &[u64], weight: i64, counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                for (l, cnt) in block.iter_mut().enumerate() {
                    *cnt += signed_weight(weight, (w >> (base + l as u32)) & 1);
                }
                base += LANES as u32;
            }
            for (b, cnt) in blocks.into_remainder().iter_mut().enumerate() {
                *cnt += signed_weight(weight, (w >> (base + b as u32)) & 1);
            }
        }
    }

    /// Lane [`super::column_products`]: the per-copy running products of a
    /// [`LANES`]-block live in one register across the stream sweep; each
    /// copy still multiplies streams in ascending order from 1.0.
    pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
        out.fill(1.0);
        for (k, row) in buf.chunks_exact(copies).enumerate() {
            if k == exclude {
                continue;
            }
            multiply_row(out, row);
        }
    }

    /// Lane [`super::multiply_row`].
    #[inline]
    pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
        let mut blocks = acc.chunks_exact_mut(LANES);
        let mut rows = row.chunks_exact(LANES);
        for (block, r) in (&mut blocks).zip(&mut rows) {
            for (o, &v) in block.iter_mut().zip(r) {
                *o *= v as f64;
            }
        }
        for (o, &v) in blocks
            .into_remainder()
            .iter_mut()
            .zip(rows.remainder())
        {
            *o *= v as f64;
        }
    }

    /// Lane [`super::apply_packed_signs`]: XORs a 4-bit slice of the sign
    /// word into the sign bits of [`LANES`] values per step.
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                for (l, v) in block.iter_mut().enumerate() {
                    *v = f64::from_bits(v.to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for (b, v) in blocks.into_remainder().iter_mut().enumerate() {
                *v = f64::from_bits(v.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    /// Lane [`super::product2_signed`].
    pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
        for (((o_chunk, a_chunk), b_chunk), &w) in out
            .chunks_mut(64)
            .zip(a.chunks(64))
            .zip(b.chunks(64))
            .zip(words)
        {
            let mut o_blocks = o_chunk.chunks_exact_mut(LANES);
            let mut a_blocks = a_chunk.chunks_exact(LANES);
            let mut b_blocks = b_chunk.chunks_exact(LANES);
            let mut base = 0u32;
            for ((o, xa), xb) in (&mut o_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
                for l in 0..LANES {
                    let p = (xa[l] as f64) * (xb[l] as f64);
                    o[l] = f64::from_bits(p.to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for (bit, ((o, &x), &y)) in o_blocks
                .into_remainder()
                .iter_mut()
                .zip(a_blocks.remainder())
                .zip(b_blocks.remainder())
                .enumerate()
            {
                let p = (x as f64) * (y as f64);
                *o = f64::from_bits(p.to_bits() ^ (((w >> (base + bit as u32)) & 1) << 63));
            }
        }
    }

    /// Lane [`super::signed_copy`].
    pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
        for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
            let mut d_blocks = chunk.chunks_exact_mut(LANES);
            let mut s_blocks = s_chunk.chunks_exact(LANES);
            let mut base = 0u32;
            for (d, s) in (&mut d_blocks).zip(&mut s_blocks) {
                for l in 0..LANES {
                    d[l] = f64::from_bits(s[l].to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for ((b, d), &s) in d_blocks
                .into_remainder()
                .iter_mut()
                .enumerate()
                .zip(s_blocks.remainder())
            {
                *d = f64::from_bits(s.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    // The four-way zip in [`group_sums`] spells the lanes out by hand.
    const _LANES_IS_FOUR: () = assert!(LANES == 4);

    /// Lane [`super::group_sums`]: [`LANES`] *independent groups* advance
    /// together, each keeping its own strictly serial accumulator — lane
    /// parallelism across groups, never inside one, so every group's sum
    /// is bit-identical to the scalar serial fold.
    pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
        let mut g = 0usize;
        while g + LANES <= s2 {
            // Four bounds-checked row slices up front; the inner loop then
            // walks them in lockstep through zips, which elide per-element
            // bounds checks and leave four independent add chains for the
            // CPU to run in parallel.
            let rest = &per_copy[g * s1..];
            let (r0, rest) = rest.split_at(s1);
            let (r1, rest) = rest.split_at(s1);
            let (r2, rest) = rest.split_at(s1);
            let r3 = &rest[..s1];
            // -0.0, not +0.0: `Iterator::sum::<f64>` folds from -0.0 (the
            // additive identity that preserves the sign of a -0.0-only
            // group), and the scalar path inherits that. +0.0 here would
            // flip the sign bit of all-negative-zero groups.
            let mut acc = [-0.0f64; LANES];
            for (((&x0, &x1), &x2), &x3) in r0.iter().zip(r1).zip(r2).zip(r3) {
                acc[0] += x0;
                acc[1] += x1;
                acc[2] += x2;
                acc[3] += x3;
            }
            groups.extend_from_slice(&acc);
            g += LANES;
        }
        for tail in g..s2 {
            let sum: f64 = per_copy[tail * s1..(tail + 1) * s1].iter().sum();
            groups.push(sum);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 specializations (x86_64 only).
// ---------------------------------------------------------------------------

/// AVX2 `std::arch` specializations for the sign-application kernels: the
/// packed sign bits expand to a `{0, 1<<63}` lane mask in-register
/// (broadcast + variable shift) and XOR into four values per instruction.
/// Sign application is a pure bit operation, so these are exact for every
/// input including NaNs and ±0.0. Only reached after
/// `is_x86_feature_detected!("avx2")` at dispatch resolution.
///
/// This module is the one sanctioned `unsafe` island of the crate (see
/// the crate-level `deny(unsafe_code)`): the only unsafety is the
/// `target_feature` calling contract, discharged by the runtime
/// detection; all loads and stores are bounds-derived from safe slices.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::LANES;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi64x,
        _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_srlv_epi64, _mm256_storeu_si256,
        _mm256_xor_si256,
    };

    /// Builds the `{0, 1<<63}` sign-flip mask for bits
    /// `base..base + LANES` of `w`.
    ///
    /// # Safety
    /// Requires AVX2 (enforced by the callers' `target_feature` scope).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_mask(w: u64, base: u32) -> __m256i {
        let shifts = _mm256_add_epi64(
            _mm256_set1_epi64x(base as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        );
        let bits = _mm256_and_si256(
            _mm256_srlv_epi64(_mm256_set1_epi64x(w as i64), shifts),
            _mm256_set1_epi64x(1),
        );
        _mm256_slli_epi64::<63>(bits)
    }

    /// AVX2 body of [`apply_packed_signs`]: `vals` and `words` already
    /// shape-checked by the dispatcher.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_packed_signs_impl(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                let p = block.as_mut_ptr() as *mut __m256i;
                let v = _mm256_loadu_si256(p);
                _mm256_storeu_si256(p, _mm256_xor_si256(v, sign_mask(w, base)));
                base += LANES as u32;
            }
            for (b, v) in blocks.into_remainder().iter_mut().enumerate() {
                *v = f64::from_bits(v.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    /// AVX2 body of [`signed_copy`].
    #[target_feature(enable = "avx2")]
    unsafe fn signed_copy_impl(words: &[u64], src: &[f64], dst: &mut [f64]) {
        for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
            let mut d_blocks = chunk.chunks_exact_mut(LANES);
            let mut s_blocks = s_chunk.chunks_exact(LANES);
            let mut base = 0u32;
            for (d, s) in (&mut d_blocks).zip(&mut s_blocks) {
                let v = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                _mm256_storeu_si256(
                    d.as_mut_ptr() as *mut __m256i,
                    _mm256_xor_si256(v, sign_mask(w, base)),
                );
                base += LANES as u32;
            }
            for ((b, d), &s) in d_blocks
                .into_remainder()
                .iter_mut()
                .enumerate()
                .zip(s_blocks.remainder())
            {
                *d = f64::from_bits(s.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    /// AVX2 [`super::apply_packed_signs`]. Panics if AVX2 is unavailable
    /// (the dispatcher only selects this mode after runtime detection).
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 kernels selected without avx2"
        );
        // SAFETY: AVX2 presence asserted above; slice accesses are safe.
        unsafe { apply_packed_signs_impl(words, vals) }
    }

    /// AVX2 [`super::signed_copy`]. Panics if AVX2 is unavailable.
    pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 kernels selected without avx2"
        );
        // SAFETY: AVX2 presence asserted above; slice accesses are safe.
        unsafe { signed_copy_impl(words, src, dst) }
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
    fn group_sums_keeps_serial_order_in_every_mode() {
        // Adversarial magnitudes where fold order is observable: a tree
        // reduction of [1e16, 1.0, -1e16, 1.0] gives 2.0, the serial fold
        // gives 1.0. Both lane and scalar modes must produce the serial
        // answer for every group.
        let per_copy: Vec<f64> = (0..6 * 4)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        for groups_impl in [scalar::group_sums, lanes::group_sums] {
            let mut groups = Vec::new();
            groups_impl(&per_copy, 4, 6, &mut groups);
            assert_eq!(groups, vec![1.0; 6], "serial in-group fold order");
        }
        let mut dispatched = Vec::new();
        group_sums(&per_copy, 4, 6, &mut dispatched);
        assert_eq!(dispatched, vec![1.0; 6]);
    }

    #[test]
    fn kernel_mode_resolves() {
        // Whatever the host supports, the resolved mode is stable and the
        // dispatching kernels run under it (the equivalence suite pins
        // bit-identity across modes).
        assert_eq!(kernel_mode(), kernel_mode());
    }
}
