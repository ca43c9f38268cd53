//! Blocked kernels for batched model inference.
//!
//! The batched prediction paths in `xai-models` funnel through these
//! kernels. They are *cache-blocked* — several output values are produced
//! per pass over the shared operand, so the right-hand side stays in
//! registers/L1 — but the **reduction dimension is never tiled or
//! reordered**. Each output is accumulated in ascending index order,
//! exactly like the naive [`crate::dot`] loop, so every result is
//! bit-identical to the corresponding scalar expression. That contract is
//! what lets the batched explainer paths in `xai-shapley` / `xai-surrogate`
//! promise bit-identical output to their scalar counterparts
//! (`tests/batch_equivalence.rs` enforces it end to end).
//!
//! The mat-vec kernels also have **masked** variants (`masked_matvec`,
//! `masked_affine_fold`) for zero-copy coalition evaluation (DESIGN.md
//! §12): instead of materializing a perturbed copy of the background
//! matrix, the masked kernel reads the *instance* value for
//! columns whose bit is set in a `u64` coalition mask and the *background*
//! value otherwise. The accumulation order is identical to the unmasked
//! kernel run over the materialized mixture, so masked results are
//! bit-identical to the copy-and-patch path they replace. The `_many`
//! twins (`masked_matvec_many`, `masked_affine_fold_many`) evaluate a
//! whole round of masks in one call, hoisting the weighted products into
//! arena scratch so the per-mask loop is addition-only — same bits,
//! roundly fewer instructions.

use crate::matrix::{dot, Matrix};

/// Returns true when feature `k` is replaced by the instance value under
/// `mask` (coalition member ⇒ read the instance column).
#[inline(always)]
fn masked(mask: u64, k: usize) -> bool {
    mask >> k & 1 == 1
}

/// Rows of output produced per pass over the shared right-hand operand.
const ROW_BLOCK: usize = 4;

/// Blocked matrix–vector product: `out[i] = dot(a.row(i), v)`.
///
/// Processes [`ROW_BLOCK`] rows per pass with one independent accumulator
/// each (instruction-level parallelism; `v` is read once per block from
/// cache). Each accumulator runs over `k` in ascending order starting from
/// `0.0`, so `out[i]` is bit-identical to `dot(a.row(i), v)`.
pub fn matvec_blocked(a: &Matrix, v: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), v.len(), "matvec arity mismatch");
    let m = a.rows();
    let mut out = vec![0.0; m];
    let mut i = 0;
    while i + ROW_BLOCK <= m {
        let (r0, r1, r2, r3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (k, &vk) in v.iter().enumerate() {
            s0 += r0[k] * vk;
            s1 += r1[k] * vk;
            s2 += r2[k] * vk;
            s3 += r3[k] * vk;
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
        i += ROW_BLOCK;
    }
    while i < m {
        out[i] = dot(a.row(i), v);
        i += 1;
    }
    out
}

/// Blocked affine map with *bias-first* accumulation:
/// `out[i] = ((bias + row[0]·v[0]) + row[1]·v[1]) + …`.
///
/// This is the association produced by an augmented dot product
/// `dot([bias, v], [1, row])` — the shape of a logistic-regression margin —
/// which differs in floating point from `bias + dot(row, v)` (sum first,
/// bias last). Models whose scalar path folds the intercept *into* the
/// accumulation must use this kernel to stay bit-identical.
pub fn affine_fold(a: &Matrix, v: &[f64], bias: f64) -> Vec<f64> {
    assert_eq!(a.cols(), v.len(), "affine arity mismatch");
    let m = a.rows();
    let mut out = vec![0.0; m];
    let mut i = 0;
    while i + ROW_BLOCK <= m {
        let (r0, r1, r2, r3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        let (mut s0, mut s1, mut s2, mut s3) = (bias, bias, bias, bias);
        for (k, &vk) in v.iter().enumerate() {
            s0 += r0[k] * vk;
            s1 += r1[k] * vk;
            s2 += r2[k] * vk;
            s3 += r3[k] * vk;
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
        i += ROW_BLOCK;
    }
    while i < m {
        let row = a.row(i);
        let mut s = bias;
        for (k, &vk) in v.iter().enumerate() {
            s += row[k] * vk;
        }
        out[i] = s;
        i += 1;
    }
    out
}

/// Columns of output produced per pass in [`gemm_nt`].
const COL_BLOCK: usize = 4;

/// Blocked `A·Bᵀ`: `out[(i, j)] = dot(a.row(i), b.row(j))`.
///
/// `a` is `m×k`, `b` is `n×k`; the result is `m×n`. The kernel blocks over
/// [`COL_BLOCK`] rows of `b` (output columns) with one accumulator each, so
/// a panel of `b` is streamed once per `a`-row; the `k` loop always runs in
/// ascending order from `0.0`, keeping every entry bit-identical to the
/// naive dot product. This is the MLP hidden-layer kernel (`X·W₁ᵀ`).
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "gemm_nt inner-dimension mismatch");
    let (m, n, kk) = (a.rows(), b.rows(), a.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        let mut j = 0;
        while j + COL_BLOCK <= n {
            let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for k in 0..kk {
                let av = arow[k];
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += COL_BLOCK;
        }
        while j < n {
            orow[j] = dot(arow, b.row(j));
            j += 1;
        }
    }
    out
}

/// Masked matrix–vector product over a coalition view:
/// `out[i] = dot(mix(i), v)` where `mix(i)[k]` is `instance[k]` when bit
/// `k` of `mask` is set and `background[(i, k)]` otherwise.
///
/// No mixture row is ever materialized. Accumulation runs over `k` in
/// ascending order from `0.0` per output — the same association as
/// [`matvec_blocked`] over the materialized mixture, hence bit-identical.
/// For masked columns the product `v[k]·instance[k]` is hoisted out of the
/// row loop (one multiply instead of one per background row); hoisting a
/// multiplication never changes its bits.
///
/// `out` must have exactly `background.rows()` elements; it is overwritten.
///
/// # Panics
/// Panics on arity mismatch or when `background.cols() > 64` (the mask is
/// a `u64` bitset).
pub fn masked_matvec(background: &Matrix, instance: &[f64], mask: u64, v: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    masked_accumulate(background, instance, mask, v, out);
}

/// Masked affine map with *bias-first* accumulation, the coalition-view
/// twin of [`affine_fold`]: `out[i] = ((bias + mix(i)[0]·v[0]) + …)`.
///
/// Same masked-column semantics and bit-identity argument as
/// [`masked_matvec`]; the accumulators simply start at `bias`.
pub fn masked_affine_fold(
    background: &Matrix,
    instance: &[f64],
    mask: u64,
    v: &[f64],
    bias: f64,
    out: &mut [f64],
) {
    out.fill(bias);
    masked_accumulate(background, instance, mask, v, out);
}

/// Shared k-outer accumulation loop for the masked vector kernels. `out`
/// holds one running accumulator per background row; each `k` step adds
/// that column's contribution to every row, so per-row accumulation order
/// is ascending `k` — exactly the scalar `dot` association.
fn masked_accumulate(background: &Matrix, instance: &[f64], mask: u64, v: &[f64], out: &mut [f64]) {
    let (b, d) = background.shape();
    assert_eq!(instance.len(), d, "masked kernel instance arity mismatch");
    assert_eq!(v.len(), d, "masked kernel weight arity mismatch");
    assert_eq!(out.len(), b, "masked kernel output length mismatch");
    assert!(d <= 64, "masked kernels support at most 64 features, got {d}");
    let bg = background.as_slice();
    for (k, &vk) in v.iter().enumerate() {
        if masked(mask, k) {
            let p = vk * instance[k];
            for o in out.iter_mut() {
                *o += p;
            }
        } else {
            for (bi, o) in out.iter_mut().enumerate() {
                *o += vk * bg[bi * d + k];
            }
        }
    }
}

/// Batched twin of [`masked_matvec`]: evaluates every mask in `masks`
/// into consecutive `background.rows()`-length blocks of `out`
/// (coalition-major). Bit-identical to calling [`masked_matvec`] once per
/// mask, but the weighted products are hoisted out of the per-mask loop
/// (see [`masked_accumulate_many`]), so the hot loop is pure additions —
/// this is the throughput kernel behind Kernel SHAP's masked rounds.
///
/// `out` must have exactly `masks.len() × background.rows()` elements; it
/// is overwritten.
pub fn masked_matvec_many(
    background: &Matrix,
    instance: &[f64],
    masks: &[u64],
    v: &[f64],
    out: &mut [f64],
) {
    masked_accumulate_many(background, instance, masks, v, 0.0, out);
}

/// Batched twin of [`masked_affine_fold`]: bias-first masked margins for
/// every mask in `masks`, written coalition-major into `out`. Same
/// hoisting and bit-identity argument as [`masked_matvec_many`]; the
/// accumulators simply start at `bias`.
pub fn masked_affine_fold_many(
    background: &Matrix,
    instance: &[f64],
    masks: &[u64],
    v: &[f64],
    bias: f64,
    out: &mut [f64],
) {
    masked_accumulate_many(background, instance, masks, v, bias, out);
}

/// Shared batched masked accumulation. Two hoists make the per-mask loop
/// addition-only without touching the float semantics:
///
/// - `p[k] = v[k]·instance[k]` (the masked-column contribution) is
///   computed once per *call* instead of once per mask;
/// - `vbt[k][r] = v[k]·background[(r, k)]` (the unmasked-column
///   contribution) is precomputed column-major into arena scratch, so each
///   unmasked step is one contiguous vector add.
///
/// Per output row the accumulation is still `init`, then ascending `k`,
/// and every addend is the *same product of the same operands* as in
/// [`masked_accumulate`] — hoisting a multiplication never changes its
/// bits, so each block equals the single-mask kernel exactly.
fn masked_accumulate_many(
    background: &Matrix,
    instance: &[f64],
    masks: &[u64],
    v: &[f64],
    init: f64,
    out: &mut [f64],
) {
    let (b, d) = background.shape();
    assert_eq!(instance.len(), d, "masked kernel instance arity mismatch");
    assert_eq!(v.len(), d, "masked kernel weight arity mismatch");
    assert_eq!(out.len(), masks.len() * b, "masked kernel output length mismatch");
    assert!(d <= 64, "masked kernels support at most 64 features, got {d}");
    if b == 0 || masks.is_empty() {
        return;
    }
    let bg = background.as_slice();
    // Addend table, two `b`-length columns per feature: column `2k` holds
    // the unmasked contribution `v[k]·background[(r, k)]`, column `2k + 1`
    // the masked one (`v[k]·instance[k]`, replicated). The per-mask loop
    // then selects by *index arithmetic* on the mask bit — no data-
    // dependent branch, which matters because coalition bit patterns are
    // adversarially unpredictable to the branch predictor.
    crate::arena::with_scratch(2 * d * b, |tbl| {
        for k in 0..d {
            let vk = v[k];
            let pk = vk * instance[k];
            let (bg_col, inst_col) = tbl[2 * k * b..(2 * k + 2) * b].split_at_mut(b);
            for (r, c) in bg_col.iter_mut().enumerate() {
                *c = vk * bg[r * d + k];
            }
            inst_col.fill(pk);
        }
        // Compile-time block widths keep the whole accumulator in
        // registers across the k loop (one store-back per mask); other
        // widths take the in-place loop with identical operation order.
        match b {
            2 => masked_round_fixed::<2>(tbl, masks, d, init, out),
            4 => masked_round_fixed::<4>(tbl, masks, d, init, out),
            8 => masked_round_fixed::<8>(tbl, masks, d, init, out),
            16 => masked_round_fixed::<16>(tbl, masks, d, init, out),
            _ => {
                for (chunk, &mask) in out.chunks_exact_mut(b).zip(masks) {
                    chunk.fill(init);
                    for k in 0..d {
                        let bit = (mask >> k & 1) as usize;
                        let src = &tbl[(2 * k + bit) * b..(2 * k + bit + 1) * b];
                        for (o, &w) in chunk.iter_mut().zip(src) {
                            *o += w;
                        }
                    }
                }
            }
        }
    });
}

/// One masked round at a compile-time background width `B`: the running
/// sums live in a `[f64; B]` register file across the feature loop and
/// are stored back once per mask. Operation order per output row is
/// identical to the dynamic-width loop in [`masked_accumulate_many`]
/// (`init`, then ascending `k`), so the results are bit-identical.
fn masked_round_fixed<const B: usize>(
    tbl: &[f64],
    masks: &[u64],
    d: usize,
    init: f64,
    out: &mut [f64],
) {
    // Two masks in flight per iteration: their accumulator files are
    // independent, so the adds interleave instead of serializing on one
    // chain of dependent f64 additions.
    let mut chunks = out.chunks_exact_mut(2 * B);
    let mut pairs = masks.chunks_exact(2);
    for (chunk, pair) in (&mut chunks).zip(&mut pairs) {
        let (m0, m1) = (pair[0], pair[1]);
        let mut a0 = [init; B];
        let mut a1 = [init; B];
        for k in 0..d {
            let s0 = &tbl[(2 * k + (m0 >> k & 1) as usize) * B..][..B];
            let s1 = &tbl[(2 * k + (m1 >> k & 1) as usize) * B..][..B];
            for (o, &w) in a0.iter_mut().zip(s0) {
                *o += w;
            }
            for (o, &w) in a1.iter_mut().zip(s1) {
                *o += w;
            }
        }
        chunk[..B].copy_from_slice(&a0);
        chunk[B..].copy_from_slice(&a1);
    }
    for (chunk, &mask) in chunks.into_remainder().chunks_exact_mut(B).zip(pairs.remainder()) {
        let mut acc = [init; B];
        for k in 0..d {
            let src = &tbl[(2 * k + (mask >> k & 1) as usize) * B..][..B];
            for (o, &w) in acc.iter_mut().zip(src) {
                *o += w;
            }
        }
        chunk.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(rows: usize, cols: usize, salt: u64) -> Matrix {
        // Deterministic awkward values: irrational-ish magnitudes so any
        // accumulation reorder would change low-order bits.
        Matrix::from_fn(rows, cols, |i, j| {
            let t = (i * cols + j) as f64 + salt as f64 * 0.618;
            (t * 1.414_213_562_373_095).sin() * 3.0 + 0.1
        })
    }

    #[test]
    fn matvec_blocked_is_bit_identical_to_dot() {
        for rows in [0usize, 1, 3, 4, 5, 8, 11] {
            let a = probe(rows, 7, 1);
            let v: Vec<f64> = (0..7).map(|k| ((k * k) as f64).sqrt() - 1.2).collect();
            let blocked = matvec_blocked(&a, &v);
            let naive: Vec<f64> = (0..rows).map(|i| dot(a.row(i), &v)).collect();
            assert_eq!(blocked, naive, "rows={rows}");
        }
    }

    #[test]
    fn matvec_blocked_matches_matrix_matvec() {
        let a = probe(9, 5, 2);
        let v = vec![0.3, -1.7, 2.2, 0.0, 5.5];
        assert_eq!(matvec_blocked(&a, &v), a.matvec(&v));
    }

    #[test]
    fn affine_fold_reproduces_augmented_dot() {
        let a = probe(10, 6, 3);
        let w: Vec<f64> = (0..7).map(|k| (k as f64 - 2.5) * 0.317).collect();
        let folded = affine_fold(&a, &w[1..], w[0]);
        for i in 0..a.rows() {
            let mut aug = vec![1.0];
            aug.extend_from_slice(a.row(i));
            assert_eq!(folded[i], dot(&w, &aug), "row {i}");
        }
    }

    #[test]
    fn affine_fold_differs_from_bias_last_in_general() {
        // Sanity check of the doc claim: bias-first and bias-last are
        // different FP associations (they agree only by coincidence).
        let a = probe(64, 9, 4);
        let v: Vec<f64> = (0..9).map(|k| ((k + 1) as f64).ln() - 0.9).collect();
        let first = affine_fold(&a, &v, 0.123_456_789);
        let last: Vec<f64> = matvec_blocked(&a, &v)
            .into_iter()
            .map(|s| 0.123_456_789 + s)
            .collect();
        assert!(
            first.iter().zip(&last).any(|(x, y)| x != y),
            "expected at least one low-order-bit difference"
        );
        // ... while staying equal to ~1e-15 relative.
        for (x, y) in first.iter().zip(&last) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
        }
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_dot_grid() {
        for (m, n, k) in [(0, 3, 4), (5, 0, 4), (1, 1, 1), (6, 7, 5), (8, 4, 9), (3, 10, 2)] {
            let a = probe(m, k, 5);
            let b = probe(n, k, 6);
            let c = gemm_nt(&a, &b);
            assert_eq!(c.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(c[(i, j)], dot(a.row(i), b.row(j)), "({i},{j}) of {m}x{n}x{k}");
                }
            }
        }
    }

    #[test]
    fn gemm_nt_matches_matmul_with_transpose() {
        let a = probe(6, 4, 7);
        let b = probe(5, 4, 8);
        let via_t = a.matmul(&b.transpose());
        let direct = gemm_nt(&a, &b);
        assert!(direct.approx_eq(&via_t, 1e-12));
    }

    /// Materializes the coalition mixture the masked kernels read in place:
    /// instance value where the mask bit is set, background value otherwise.
    fn mixture(background: &Matrix, instance: &[f64], mask: u64) -> Matrix {
        Matrix::from_fn(background.rows(), background.cols(), |i, k| {
            if masked(mask, k) {
                instance[k]
            } else {
                background[(i, k)]
            }
        })
    }

    /// Mask patterns exercised by every masked-kernel test: empty, full,
    /// each singleton, and a handful of irregular subsets.
    fn mask_patterns(d: usize) -> Vec<u64> {
        let full = if d == 64 { u64::MAX } else { (1u64 << d) - 1 };
        let mut masks = vec![0, full];
        for k in 0..d {
            masks.push(1u64 << k);
        }
        masks.push(0b1011_0101 & full);
        masks.push(0b0100_1010 & full);
        masks.push(full & !1);
        masks
    }

    #[test]
    fn masked_matvec_is_bit_identical_to_materialized() {
        for rows in [1usize, 3, 4, 8, 11] {
            let bg = probe(rows, 9, 11);
            let inst: Vec<f64> = (0..9).map(|k| (k as f64 * 2.399).cos() * 1.7).collect();
            let v: Vec<f64> = (0..9).map(|k| ((k * k) as f64).sqrt() - 1.2).collect();
            let mut out = vec![f64::NAN; rows];
            for mask in mask_patterns(9) {
                masked_matvec(&bg, &inst, mask, &v, &mut out);
                let expect = matvec_blocked(&mixture(&bg, &inst, mask), &v);
                assert_eq!(out, expect, "rows={rows} mask={mask:#b}");
            }
        }
    }

    #[test]
    fn masked_affine_fold_is_bit_identical_to_materialized() {
        let bg = probe(8, 6, 12);
        let inst: Vec<f64> = (0..6).map(|k| (k as f64 * 1.093).sin() - 0.4).collect();
        let w: Vec<f64> = (0..7).map(|k| (k as f64 - 2.5) * 0.317).collect();
        let mut out = vec![f64::NAN; 8];
        for mask in mask_patterns(6) {
            masked_affine_fold(&bg, &inst, mask, &w[1..], w[0], &mut out);
            let expect = affine_fold(&mixture(&bg, &inst, mask), &w[1..], w[0]);
            assert_eq!(out, expect, "mask={mask:#b}");
        }
    }

    #[test]
    fn masked_many_kernels_are_bit_identical_to_per_mask_calls() {
        for rows in [1usize, 4, 8, 11] {
            let bg = probe(rows, 9, 15);
            let inst: Vec<f64> = (0..9).map(|k| (k as f64 * 0.731).cos() * 2.1).collect();
            let w: Vec<f64> = (0..10).map(|k| (k as f64 - 4.5) * 0.277).collect();
            let masks = mask_patterns(9);
            let mut many = vec![f64::NAN; masks.len() * rows];
            let mut single = vec![f64::NAN; rows];

            masked_matvec_many(&bg, &inst, &masks, &w[1..], &mut many);
            for (chunk, &mask) in many.chunks_exact(rows).zip(&masks) {
                masked_matvec(&bg, &inst, mask, &w[1..], &mut single);
                assert_eq!(chunk, &single[..], "matvec rows={rows} mask={mask:#b}");
            }

            masked_affine_fold_many(&bg, &inst, &masks, &w[1..], w[0], &mut many);
            for (chunk, &mask) in many.chunks_exact(rows).zip(&masks) {
                masked_affine_fold(&bg, &inst, mask, &w[1..], w[0], &mut single);
                assert_eq!(chunk, &single[..], "affine rows={rows} mask={mask:#b}");
            }
        }
        // Degenerate shapes are no-ops, not panics.
        let bg = probe(3, 2, 16);
        masked_matvec_many(&bg, &[0.5, 0.5], &[], &[1.0, 2.0], &mut []);
        let empty = Matrix::zeros(0, 2);
        masked_matvec_many(&empty, &[0.5, 0.5], &[1, 2], &[1.0, 2.0], &mut []);
    }
}
