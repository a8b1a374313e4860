//! Rank-2 matrix products, including the transposed variants used by
//! backpropagation and the allocation-free `_into` variants used by the
//! Monte-Carlo evaluation hot path.
//!
//! All variants share the same blocked microkernels, so an `_into` product
//! is bit-identical to its allocating twin. Each output element accumulates
//! its `k` terms in the same (sequential) order in every variant and in the
//! unrolled and scalar tails alike — blocking only changes *which* elements
//! are in flight, never the order of additions within one element — so
//! results are reproducible down to the last ULP regardless of entry point.

use crate::Tensor;

/// Inner-loop unroll width of the matmul microkernels.
const UNROLL: usize = 8;

/// Whether skipping `a == 0.0` terms is numerically transparent.
///
/// IEEE-754 addition of `±0.0 · b` to a partial sum is a no-op only when
/// `b` is finite (and the partial sum is not `-0.0`, which row-major
/// accumulation from a `+0.0` start never produces). When `b` contains a
/// NaN or ±∞, `0.0 · b` is NaN and **must** be propagated — a zeroed
/// weight or activation would otherwise mask a non-finite operand, hiding
/// e.g. an overflowing activation under stuck-at-zero faults. The skip is
/// therefore enabled only when every element of `b` is finite.
///
/// The O(len) scan is evaluated lazily via [`ZeroSkip`] — a product with
/// a zero-free left operand never pays for it.
#[inline]
fn zero_skip_is_safe(b: &[f32]) -> bool {
    b.iter().all(|v| v.is_finite())
}

/// Lazily memoized [`zero_skip_is_safe`] verdict for one kernel call.
#[derive(Default)]
struct ZeroSkip(Option<bool>);

impl ZeroSkip {
    /// Whether the zero-skip may fire, scanning `b` on first use only.
    #[inline]
    fn allowed(&mut self, b: &[f32]) -> bool {
        *self.0.get_or_insert_with(|| zero_skip_is_safe(b))
    }
}

/// `c[i·n + j] += s · b[j]`, 8-wide unrolled.
///
/// Each `c[j]` receives exactly one fused term per call, so per-element
/// accumulation order is identical to the scalar loop.
#[inline]
fn axpy_row(s: f32, b: &[f32], c: &mut [f32]) {
    let mut cc = c.chunks_exact_mut(UNROLL);
    let mut bc = b.chunks_exact(UNROLL);
    for (cv, bv) in (&mut cc).zip(&mut bc) {
        cv[0] += s * bv[0];
        cv[1] += s * bv[1];
        cv[2] += s * bv[2];
        cv[3] += s * bv[3];
        cv[4] += s * bv[4];
        cv[5] += s * bv[5];
        cv[6] += s * bv[6];
        cv[7] += s * bv[7];
    }
    for (cv, &bv) in cc.into_remainder().iter_mut().zip(bc.remainder()) {
        *cv += s * bv;
    }
}

/// `C = A·B` on raw row-major slices: `[m, k] x [k, n] -> [m, n]`.
///
/// `c` is zeroed before accumulation, so recycled scratch buffers can be
/// passed directly. This is the kernel behind both [`Matmul::matmul`] and
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
    c.fill(0.0);
    let mut skip = ZeroSkip::default();
    // i-k-j ordering keeps the inner loop streaming over contiguous rows.
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 && skip.allowed(b) {
                continue;
            }
            axpy_row(aik, &b[kk * n..(kk + 1) * n], &mut c[i * n..(i + 1) * n]);
        }
    }
}

/// `C = Aᵀ·B` on raw row-major slices: `[k, m] x [k, n] -> [m, n]`.
///
/// See [`gemm_into`] for zeroing and panic behaviour.
pub fn gemm_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), k * m, "gemm_tn_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn_into output length mismatch");
    c.fill(0.0);
    let mut skip = ZeroSkip::default();
    for kk in 0..k {
        let arow = &a[kk * m..(kk + 1) * m];
        let brow = &b[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 && skip.allowed(b) {
                continue;
            }
            axpy_row(av, brow, &mut c[i * n..(i + 1) * n]);
        }
    }
}

/// Output columns [`gemm_nt_into`] keeps in flight per row.
const NT_COLS: usize = 4;

/// `C = A·Bᵀ` on raw row-major slices: `[m, k] x [n, k] -> [m, n]`.
///
/// See [`gemm_into`] for zeroing and panic behaviour. Output elements are
/// independent dot products, each with a single sequential accumulator,
/// preserving bit-exact summation order. Four output columns of a row are
/// accumulated side by side, so their additions overlap instead of
/// waiting on one accumulator's add latency; each column still sums its
/// `k` terms in order from `0.0`.
///
/// Unlike the `nn`/`tn` kernels there is no zero-skip here: in this
/// layout a skip would save one fused multiply-add (not a whole row) at
/// the price of a compare in the innermost loop of every dense product.
/// The variants still agree bitwise — the `nn`/`tn` skip only fires when
/// it is numerically transparent.
pub fn gemm_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::Timer::start(telemetry::duration_histogram!("tensor_gemm_seconds"));
    assert_eq!(a.len(), m * k, "gemm_nt_into lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_into rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_into output length mismatch");
    if k == 0 || n == 0 {
        c.fill(0.0);
        return;
    }
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let mut cgroups = crow.chunks_exact_mut(NT_COLS);
        let mut bgroups = b.chunks_exact(NT_COLS * k);
        for (cg, bg) in (&mut cgroups).zip(&mut bgroups) {
            let (b0, rest) = bg.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            let mut acc = [0.0f32; NT_COLS];
            for ((((&av, &x0), &x1), &x2), &x3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                acc[0] += av * x0;
                acc[1] += av * x1;
                acc[2] += av * x2;
                acc[3] += av * x3;
            }
            cg.copy_from_slice(&acc);
        }
        for (cv, brow) in cgroups
            .into_remainder()
            .iter_mut()
            .zip(bgroups.remainder().chunks_exact(k))
        {
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *cv = acc;
        }
    }
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

    /// The column-grouped `gemm_nt_into` equals one sequential
    /// accumulator per output element, bit for bit, on every remainder
    /// width and on empty dimensions, with signed zeros and non-finite
    /// operands in the mix.
    #[test]
    fn gemm_nt_matches_single_accumulator_reference() {
        let value = |i: usize| match i % 11 {
            0 => -0.0,
            5 => (i as f32 * 0.37).sin() * 1e30,
            _ => (i as f32 * 0.731).sin(),
        };
        for m in [0usize, 1, 3] {
            for k in [0usize, 1, 3, 17] {
                for n in 0..=9 {
                    let a: Vec<f32> = (0..m * k).map(value).collect();
                    let mut b: Vec<f32> = (0..n * k).map(|i| value(i + 7)).collect();
                    if n * k > 4 {
                        b[4] = f32::INFINITY;
                    }
                    let mut c = vec![f32::NAN; m * n];
                    gemm_nt_into(&a, &b, &mut c, m, k, n);
                    for i in 0..m {
                        for j in 0..n {
                            let mut acc = 0.0f32;
                            for kk in 0..k {
                                acc += a[i * k + kk] * b[j * k + kk];
                            }
                            assert_eq!(
                                c[i * n + j].to_bits(),
                                acc.to_bits(),
                                "m {m} k {k} n {n} at ({i}, {j})"
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
