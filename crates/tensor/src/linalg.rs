//! Rank-2 matrix products, including the transposed variants used by
//! backpropagation and the allocation-free `_into` variants used by the
//! Monte-Carlo evaluation hot path.
//!
//! Every product is computed in register tiles: up to `MR` rows × `NR`
//! columns of `C` (4 columns for `A·Bᵀ`) sit in local accumulators while
//! `k` runs innermost, so a tile's partial sums never travel through
//! memory (Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication", ACM TOMS 2008). `A·B` and `Aᵀ·B` are one kernel that
//! reads `A` through (row, column) strides. Narrow remainders get 4-, 2-
//! and 1-column tiles, so a 9-column output is an 8-wide tile plus a
//! 1-wide one, each with a tile's worth of independent accumulators.
//!
//! Tiling only changes which elements are in flight, never the order of
//! additions within one element: each output sums its `k` terms in order
//! from `+0.0`, a multiply then an add (no fused multiply-add). So every
//! entry point agrees with a single sequential accumulator, bit for bit,
//! and an `_into` product is bit-identical to its allocating twin. No
//! term is skipped: `0 · NaN` and `0 · ∞` are NaN in every variant. (A
//! zero term is exact to skip when the other factor is finite — a sum
//! started at `+0.0` never becomes `-0.0` — but in a register tile the
//! test costs more than the multiply-add it saves.)

use crate::Tensor;

/// Rows of C one register tile holds (`for_each_tile!` matches on 1..=4).
const MR: usize = 4;
/// Columns of C one `nn`/`tn` register tile holds.
const NR: usize = 8;
/// Columns of C one `nt` register tile holds.
const NT_COLS: usize = 4;

/// Counts the call in the kernel telemetry: `2·m·k·n` floating-point
/// operations (one multiply and one add per term).
#[inline]
fn count_flops(m: usize, k: usize, n: usize) {
    telemetry::static_counter!("tensor_gemm_flops_total").add((2 * m * k * n) as u64);
}

/// Runs `tile::<R, W>(i0, j0)` over an `m × n` output with `R ≤ MR` rows
/// and `W ∈ {wide, 4, 2, 1}` columns, so a narrow remainder still keeps a
/// whole tile of independent accumulators in flight.
macro_rules! for_each_tile {
    ($m:expr, $n:expr, $wide:expr, $tile:ident($($arg:expr),*)) => {{
        let (m, n) = ($m, $n);
        let mut i0 = 0;
        while i0 < m {
            let rows = (m - i0).min(MR);
            match rows {
                4 => for_each_tile!(@cols 4, i0, n, $wide, $tile($($arg),*)),
                3 => for_each_tile!(@cols 3, i0, n, $wide, $tile($($arg),*)),
                2 => for_each_tile!(@cols 2, i0, n, $wide, $tile($($arg),*)),
                _ => for_each_tile!(@cols 1, i0, n, $wide, $tile($($arg),*)),
            }
            i0 += rows;
        }
    }};
    (@cols $r:literal, $i0:expr, $n:expr, $wide:expr, $tile:ident($($arg:expr),*)) => {{
        let mut j0 = 0;
        while j0 + $wide <= $n {
            $tile::<$r, { $wide }>($($arg,)* $i0, j0);
            j0 += $wide;
        }
        if $wide > 4 && j0 + 4 <= $n {
            $tile::<$r, 4>($($arg,)* $i0, j0);
            j0 += 4;
        }
        if j0 + 2 <= $n {
            $tile::<$r, 2>($($arg,)* $i0, j0);
            j0 += 2;
        }
        if j0 < $n {
            $tile::<$r, 1>($($arg,)* $i0, j0);
        }
    }};
}

/// One `R × W` tile of `C = op(A)·B`, where element `(i, kk)` of `op(A)`
/// is `a[i·rs + kk·cs]` and `B` is row-major `[k, n]`.
///
/// The tile lives in local accumulators with `k` innermost; each element
/// sums its `k` terms in order from `+0.0`, a multiply then an add.
#[inline(always)]
fn strided_tile<const R: usize, const W: usize>(
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    c: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (kk, brow) in b.chunks_exact(n).enumerate() {
        let bv: &[f32; W] = brow[j0..j0 + W].try_into().expect("tile fits the row");
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * rs + kk * cs];
            for (x, &y) in row.iter_mut().zip(bv) {
                *x += av * y;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

/// `C = op(A)·B` through [`strided_tile`]: the kernel behind both
/// [`gemm_into`] (`op(A) = A`) and [`gemm_tn_into`] (`op(A) = Aᵀ`).
fn gemm_strided(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    count_flops(m, k, n);
    // `chunks_exact(0)` panics, and an empty `C` has nothing to write.
    if n == 0 {
        return;
    }
    for_each_tile!(m, n, NR, strided_tile(a, strides, b, c, n));
}

/// `C = A·B` on raw row-major slices: `[m, k] x [k, n] -> [m, n]`.
///
/// `c` is fully overwritten, so recycled scratch buffers can be passed
/// directly. This is the kernel behind both [`Matmul::matmul`] and
/// [`Matmul::matmul_into`]; layers that need to run on reshaped views
/// (e.g. a dense layer folding `[N, ...]` input to `[N, features]`) can
/// call it without materializing a rank-2 tensor.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_into output length mismatch");
    gemm_strided(a, (k, 1), b, c, (m, k, n));
}

/// `C = Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// See [`gemm_into`] for overwriting and panic behaviour.
pub fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_into output length mismatch");
    gemm_strided(a, (1, m), b, c, (m, k, n));
}

/// One `R × W` tile of `C = A·Bᵀ`: `R` rows of `A` against `W` rows of
/// `B`, both contiguous in `k`, with the same per-element order as
/// [`strided_tile`].
#[inline(always)]
fn nt_tile<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (k, n): (usize, usize),
    i0: usize,
    j0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    let brows: [&[f32]; W] = std::array::from_fn(|j| &b[(j0 + j) * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let bv: [f32; W] = std::array::from_fn(|j| brows[j][kk]);
        for (row, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[kk];
            for (x, &y) in row.iter_mut().zip(&bv) {
                *x += av * y;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

/// `C = A·Bᵀ` on raw row-major slices: `[m, k] x [n, k] -> [m, n]`.
///
/// See [`gemm_into`] for overwriting and panic behaviour. Output elements
/// are dot products of rows; a tile of `MR` rows × [`NT_COLS`] columns
/// shares each loaded term across the tile.
pub fn gemm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_into output length mismatch");
    count_flops(m, k, n);
    for_each_tile!(m, n, NT_COLS, nt_tile(a, b, c, (k, n)));
}

/// Matrix-product operations on rank-2 tensors.
///
/// Implemented for [`Tensor`]; the trait exists so downstream crates can
/// write generic code over alternative matrix backends in tests. The
/// `_into` variants write into a caller-provided output tensor of the
/// correct shape, allowing scratch buffers to be reused across calls; they
/// are bit-identical to the allocating variants.
pub trait Matmul {
    /// `self @ other` for `[m, k] x [k, n] -> [m, n]`.
    fn matmul(&self, other: &Self) -> Self;
    /// `selfᵀ @ other` for `[k, m] x [k, n] -> [m, n]` without materializing
    /// the transpose.
    fn matmul_tn(&self, other: &Self) -> Self;
    /// `self @ otherᵀ` for `[m, k] x [n, k] -> [m, n]` without materializing
    /// the transpose.
    fn matmul_nt(&self, other: &Self) -> Self;
    /// [`Matmul::matmul`] writing into `out` (shape `[m, n]`), overwriting
    /// its contents without allocating.
    fn matmul_into(&self, other: &Self, out: &mut Self);
    /// [`Matmul::matmul_tn`] writing into `out` (shape `[m, n]`).
    fn matmul_tn_into(&self, other: &Self, out: &mut Self);
    /// [`Matmul::matmul_nt`] writing into `out` (shape `[m, n]`).
    fn matmul_nt_into(&self, other: &Self, out: &mut Self);
}

/// Validates rank-2 operands and returns `(m, k, n)` for the `nn` product.
fn nn_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

fn tn_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be rank 2");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn leading dimension mismatch");
    (m, k, n)
}

fn nt_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt trailing dimension mismatch");
    (m, k, n)
}

fn check_out(out: &Tensor, m: usize, n: usize) {
    assert_eq!(
        out.dims(),
        &[m, n],
        "matmul output shape mismatch: {} vs [{m}, {n}]",
        out.shape()
    );
}

impl Matmul for Tensor {
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = nn_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared leading
    /// dimensions differ.
    fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = tn_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_tn_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the trailing dimensions
    /// differ.
    fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = nt_dims(self, other);
        let mut out = Tensor::zeros(&[m, n]);
        gemm_nt_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul`], plus if `out` is not `[m, n]`.
    fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = nn_dims(self, other);
        check_out(out, m, n);
        gemm_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul_tn`], plus if `out` is not `[m, n]`.
    fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = tn_dims(self, other);
        check_out(out, m, n);
        gemm_tn_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }

    /// # Panics
    ///
    /// Panics like [`Matmul::matmul_nt`], plus if `out` is not `[m, n]`.
    fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = nt_dims(self, other);
        check_out(out, m, n);
        gemm_nt_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }
}

/// Outer product of two rank-1 tensors: `[m] x [n] -> [m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 1.
///
/// # Example
///
/// ```
/// use tensor::{outer, Tensor};
///
/// let u = Tensor::from_slice(&[1.0, 2.0]);
/// let v = Tensor::from_slice(&[3.0, 4.0]);
/// assert_eq!(outer(&u, &v).as_slice(), &[3.0, 4.0, 6.0, 8.0]);
/// ```
pub fn outer(u: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(u.rank(), 1, "outer lhs must be rank 1");
    assert_eq!(v.rank(), 1, "outer rhs must be rank 1");
    let (m, n) = (u.len(), v.len());
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        let ui = u.as_slice()[i];
        let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (o, &vv) in row.iter_mut().zip(v.as_slice()) {
            *o = ui * vv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(2)).as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(2).matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]).unwrap();
        let tn = a.matmul_tn(&b);
        let expected = a.transposed().matmul(&b);
        for (x, y) in tn.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }

        let c = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0], &[2, 2]).unwrap();
        let d = Tensor::from_vec(vec![2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]).unwrap();
        let nt = c.matmul_nt(&d);
        let expected = c.matmul(&d.transposed());
        for (x, y) in nt.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_ones() {
        // Dimensions straddling the unroll width exercise main + tail loops.
        for (m, k, n) in [(1, 1, 1), (3, 5, 9), (8, 8, 8), (7, 17, 13)] {
            let a = Tensor::from_vec(
                (0..m * k)
                    .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37)
                    .collect(),
                &[m, k],
            )
            .unwrap();
            let b = Tensor::from_vec(
                (0..k * n)
                    .map(|i| ((i * 23 % 17) as f32 - 8.0) * 0.59)
                    .collect(),
                &[k, n],
            )
            .unwrap();
            let mut out = Tensor::full(&[m, n], f32::NAN); // into() must fully overwrite
            a.matmul_into(&b, &mut out);
            assert_eq!(out.as_slice(), a.matmul(&b).as_slice(), "nn {m}x{k}x{n}");

            let at = a.transposed(); // [k, m] stored transposed
            at.matmul_tn_into(&b, &mut out);
            assert_eq!(
                out.as_slice(),
                at.matmul_tn(&b).as_slice(),
                "tn {m}x{k}x{n}"
            );

            let bt = b.transposed(); // [n, k]
            a.matmul_nt_into(&bt, &mut out);
            assert_eq!(
                out.as_slice(),
                a.matmul_nt(&bt).as_slice(),
                "nt {m}x{k}x{n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 3]);
        a.matmul_into(&b, &mut out);
    }

    /// The three variants must agree on non-finite propagation: a zero in
    /// the left operand multiplied by NaN/±∞ in the right is NaN and must
    /// not be skipped away (IEEE `0.0 · NaN = NaN`).
    #[test]
    fn zero_times_non_finite_propagates_in_all_variants() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // a has an exact zero in the position that meets the bad value.
            let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
            let b = Tensor::from_vec(vec![bad, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
            let nn = a.matmul(&b);
            assert!(nn.as_slice()[0].is_nan(), "matmul masked 0·{bad}");

            let at = a.transposed();
            let tn = at.matmul_tn(&b);
            assert!(tn.as_slice()[0].is_nan(), "matmul_tn masked 0·{bad}");

            let bt = b.transposed();
            let nt = a.matmul_nt(&bt);
            assert!(nt.as_slice()[0].is_nan(), "matmul_nt masked 0·{bad}");
        }
    }

    /// With a non-finite right operand the variants must agree elementwise
    /// (NaN positions included) — previously `matmul`/`matmul_tn` skipped
    /// zero terms unconditionally while `matmul_nt` did not.
    #[test]
    fn variants_agree_elementwise_under_non_finite_inputs() {
        let a = Tensor::from_vec(vec![0.0, 1.0, -2.0, 0.0, 0.5, 0.0], &[2, 3]).unwrap();
        let b =
            Tensor::from_vec(vec![f32::NAN, 2.0, f32::INFINITY, -1.0, 0.0, 3.0], &[3, 2]).unwrap();
        let nn = a.matmul(&b);
        let tn = a.transposed().matmul_tn(&b);
        let nt = a.matmul_nt(&b.transposed());
        for ((&x, &y), &z) in nn.as_slice().iter().zip(tn.as_slice()).zip(nt.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "nn vs tn disagree");
            assert_eq!(x.to_bits(), z.to_bits(), "nn vs nt disagree");
        }
    }

    /// NaN/±∞ in the *left* operand flows through the product too (no skip
    /// triggers: NaN ≠ 0.0).
    #[test]
    fn non_finite_lhs_propagates() {
        let a = Tensor::from_vec(vec![f32::NAN, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert!(a.matmul(&b).as_slice().iter().all(|v| v.is_nan()));
    }

    /// The zero-skip stays active for finite inputs, and skipping is
    /// bit-transparent: a sparse product equals its dense recomputation.
    #[test]
    fn zero_skip_is_bit_transparent_for_finite_inputs() {
        let a = Tensor::from_vec(
            (0..6 * 9)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.31).sin()
                    }
                })
                .collect(),
            &[6, 9],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..9 * 11).map(|i| (i as f32 * 0.17).cos()).collect(),
            &[9, 11],
        )
        .unwrap();
        let fast = a.matmul(&b);
        // Dense reference: same loop order, no skip.
        let (m, k, n) = (6, 9, 11);
        let mut dense = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a.as_slice()[i * k + kk];
                for j in 0..n {
                    dense[i * n + j] += aik * b.as_slice()[kk * n + j];
                }
            }
        }
        for (x, y) in fast.as_slice().iter().zip(&dense) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_slices_handle_non_rank2_views() {
        // A [2, 2, 2] batch folded to [4, 2] without reshaping.
        let a: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let b = [1.0f32, 0.0, 0.0, 1.0];
        let mut c = vec![f32::NAN; 8];
        gemm_into(&a, &b, &mut c, 4, 2, 2);
        assert_eq!(c, a);
    }

    /// Same bits, or NaN on both sides: which NaN payload survives an add
    /// of two NaNs depends on operand order, which IEEE leaves open.
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Every variant equals one sequential accumulator per output element,
    /// started at `+0.0`, bit for bit: on every row and column remainder
    /// of the register tile, on empty dimensions, with signed zeros, huge
    /// and non-finite operands, and a third of the left operand exactly
    /// zero (the post-ReLU case).
    #[test]
    fn gemm_variants_match_single_accumulator_reference() {
        let value = |i: usize| match i % 11 {
            0 => -0.0,
            5 => (i as f32 * 0.37).sin() * 1e30,
            _ => (i as f32 * 0.731).sin(),
        };
        let lhs = |i: usize| if i % 3 == 1 { 0.0 } else { value(i) };
        for m in 0..=MR + 1 {
            for k in [0usize, 1, 3, 17, 150] {
                for n in 0..=2 * NR + 1 {
                    // Logical operands: a is [m, k], b is [k, n].
                    let a: Vec<f32> = (0..m * k).map(lhs).collect();
                    let mut b: Vec<f32> = (0..k * n).map(|i| value(i + 7)).collect();
                    if k * n > 4 {
                        b[4] = f32::INFINITY;
                    }
                    if k * n > 9 {
                        b[k * n - 9] = f32::NAN;
                    }
                    if k * n > 13 {
                        b[13] = f32::NEG_INFINITY;
                    }
                    let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
                    let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
                    let mut reference = vec![0.0f32; m * n];
                    for i in 0..m {
                        for j in 0..n {
                            let mut acc = 0.0f32;
                            for kk in 0..k {
                                acc += a[i * k + kk] * b[kk * n + j];
                            }
                            reference[i * n + j] = acc;
                        }
                    }
                    let mut c = vec![f32::NAN; m * n];
                    for variant in ["nn", "tn", "nt"] {
                        c.fill(f32::NAN);
                        match variant {
                            "nn" => gemm_into(&a, &b, &mut c, m, k, n),
                            "tn" => gemm_tn_into(&at, &b, &mut c, m, k, n),
                            _ => gemm_nt_into(&a, &bt, &mut c, m, k, n),
                        }
                        for (e, (&x, &y)) in c.iter().zip(&reference).enumerate() {
                            assert!(
                                same(x, y),
                                "{variant} m {m} k {k} n {n} at ({}, {}): {x} vs {y}",
                                e / n,
                                e % n
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn outer_product() {
        let u = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let v = Tensor::from_slice(&[4.0, 5.0]);
        let o = outer(&u, &v);
        assert_eq!(o.dims(), &[3, 2]);
        assert_eq!(o.at(&[2, 1]), 15.0);
    }
}
