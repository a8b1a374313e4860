//! Closed-form statistics of every fault family, measured through the
//! injection hot path (`DriftModel::perturb_slice`) with fixed seeds.
//!
//! Each check draws n ≥ 50 000 perturbed copies of one weight. Means are
//! held to 5 standard errors of the closed-form spread (σ/√n); variances
//! to 5 standard errors estimated from the sample's own fourth central
//! moment (√((m₄ − s⁴)/n)); rates to 5 binomial standard errors
//! (√(p(1−p)/n)). Deterministic families are checked for exact levels.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{
    BitFlipFault, DeviceVariation, DriftModel, FaultSpec, GaussianAdditive, LevelQuantization,
    LogNormalDrift, StuckAtFault, UniformAdditive, UniformDrift,
};

/// Standard errors each statistical check allows.
const K: f64 = 5.0;
const N: usize = 200_000;

/// `n` perturbed copies of `w`, through `perturb_slice`.
fn draw(model: &dyn DriftModel, w: f32, n: usize, seed: u64) -> Vec<f32> {
    let pristine = vec![w; n];
    let mut out = vec![0.0f32; n];
    model.perturb_slice(&pristine, &mut out, &mut ChaCha8Rng::seed_from_u64(seed));
    out
}

/// Sample mean, variance and fourth central moment, in f64.
struct Moments {
    n: f64,
    mean: f64,
    var: f64,
    m4: f64,
}

fn moments(xs: &[f32]) -> Moments {
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    let central = |p: i32| xs.iter().map(|&x| (x as f64 - mean).powi(p)).sum::<f64>() / n;
    Moments {
        n,
        mean,
        var: central(2),
        m4: central(4),
    }
}

fn assert_within(what: &str, got: f64, want: f64, se: f64) {
    assert!(
        (got - want).abs() <= K * se,
        "{what}: got {got}, closed form {want}, |diff| {} > {K} SE ({se})",
        (got - want).abs()
    );
}

/// Mean within K·σ/√n of `mean`, variance within K standard errors of
/// `var`.
fn assert_moments(name: &str, xs: &[f32], mean: f64, var: f64) {
    let m = moments(xs);
    assert_within(&format!("{name} mean"), m.mean, mean, (var / m.n).sqrt());
    let var_se = ((m.m4 - m.var * m.var) / m.n).sqrt();
    assert_within(&format!("{name} variance"), m.var, var, var_se);
}

fn rate(xs: &[f32], pred: impl Fn(f32) -> bool) -> f64 {
    xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
}

fn assert_rate(what: &str, got: f64, p: f64, n: usize) {
    assert_within(what, got, p, (p * (1.0 - p) / n as f64).sqrt());
}

#[test]
fn lognormal_matches_closed_form() {
    // θ·e^λ, λ ~ N(0, σ²): mean w·e^{σ²/2}, variance w²(e^{σ²}−1)e^{σ²}.
    for (w, s) in [(1.5f64, 0.5f64), (-0.8, 0.25)] {
        let xs = draw(&LogNormalDrift::new(s as f32), w as f32, N, 11);
        let (s2, w2) = (s * s, w * w);
        let mean = w * (s2 / 2.0).exp();
        let var = w2 * (s2.exp() - 1.0) * s2.exp();
        assert_moments(&format!("lognormal w={w} σ={s}"), &xs, mean, var);
    }
}

#[test]
fn gaussian_matches_closed_form() {
    // θ + ε, ε ~ N(0, σ²): mean w, variance σ².
    let (w, s) = (0.7f64, 0.3f64);
    let xs = draw(&GaussianAdditive::new(s as f32), w as f32, N, 12);
    assert_moments("gaussian", &xs, w, s * s);
}

#[test]
fn uniform_drift_matches_closed_form() {
    // θ·(1 + U(−δ, δ)): mean w, variance w²δ²/3.
    let (w, d) = (2.0f64, 0.4f64);
    let xs = draw(&UniformDrift::new(d as f32), w as f32, N, 13);
    assert_moments("uniform drift", &xs, w, w * w * d * d / 3.0);
    assert!(xs.iter().all(|&x| (1.2..2.8).contains(&x)));
}

#[test]
fn uniform_read_matches_closed_form() {
    // θ + U(−δ, δ): mean w, variance δ²/3, whatever the magnitude of w.
    let (w, d) = (-0.3f64, 0.2f64);
    let xs = draw(&UniformAdditive::new(d as f32), w as f32, N, 14);
    assert_moments("uniform read", &xs, w, d * d / 3.0);
}

#[test]
fn device_variation_at_small_sigma_matches_closed_form() {
    // θ·max(0, 1 + σε): at σ = 0.05 the clamp sits 20σ away, so mean w
    // and variance w²σ².
    let (w, s) = (1.2f64, 0.05f64);
    let xs = draw(&DeviceVariation::new(s as f32), w as f32, N, 15);
    assert_moments("devvar", &xs, w, w * w * s * s);
}

#[test]
fn stuck_at_rates_and_mixture_mean() {
    // 0 with p₀, ±max (sign of w) with p_max, else w.
    let (p0, pm, max, w) = (0.1f64, 0.05f64, 3.0f64, -1.0f64);
    let xs = draw(
        &StuckAtFault::new(p0 as f32, pm as f32, max as f32),
        w as f32,
        N,
        16,
    );
    assert_rate("stuck-at-zero rate", rate(&xs, |x| x == 0.0), p0, N);
    assert_rate("stuck-at-max rate", rate(&xs, |x| x == -3.0), pm, N);
    assert_rate("untouched rate", rate(&xs, |x| x == -1.0), 1.0 - p0 - pm, N);
    let mean = pm * -max + (1.0 - p0 - pm) * w;
    let second = pm * max * max + (1.0 - p0 - pm) * w * w;
    assert_moments("stuck-at mixture", &xs, mean, second - mean * mean);
}

/// The fixed-point levels of an 8-bit code over [-1, 1].
fn bitflip_level(code: u32) -> f32 {
    let step = 2.0f32 / 255.0;
    code as f32 * step - 1.0
}

#[test]
fn bit_flip_at_zero_probability_lands_exactly_on_levels() {
    let model = BitFlipFault::new(0.0, 8, 1.0);
    let sweep: Vec<f32> = (0..5_000)
        .map(|i| -1.2 + 2.4 * i as f32 / 4_999.0)
        .collect();
    let mut out = vec![0.0f32; sweep.len()];
    model.perturb_slice(&sweep, &mut out, &mut ChaCha8Rng::seed_from_u64(17));
    let step = 2.0f32 / 255.0;
    for (&w, &x) in sweep.iter().zip(&out) {
        let code = ((w + 1.0) / step).round().clamp(0.0, 255.0) as u32;
        assert_eq!(x.to_bits(), bitflip_level(code).to_bits(), "{w} -> {x}");
    }
}

#[test]
fn bit_flip_flips_each_bit_at_its_rate() {
    // w = −1 is code 0, so the output's code is the flip mask itself.
    let p = 0.1f64;
    let xs = draw(&BitFlipFault::new(p as f32, 8, 1.0), -1.0, N, 18);
    let step = 2.0f32 / 255.0;
    let codes: Vec<u32> = xs
        .iter()
        .map(|&x| {
            let code = ((x + 1.0) / step).round() as u32;
            assert_eq!(x.to_bits(), bitflip_level(code).to_bits(), "off-level {x}");
            code
        })
        .collect();
    for bit in 0..8 {
        let set = codes.iter().filter(|&&c| c & (1 << bit) != 0).count() as f64 / N as f64;
        assert_rate(&format!("bit {bit} flip rate"), set, p, N);
    }
}

#[test]
fn quantize_snaps_to_the_nearest_exact_level() {
    let (levels, range) = (16u32, 1.5f32);
    let model = LevelQuantization::new(levels, range);
    let step = 2.0 * range / (levels - 1) as f32;
    let grid: Vec<f32> = (0..levels).map(|k| k as f32 * step - range).collect();
    let sweep: Vec<f32> = (0..5_000)
        .map(|i| -2.0 + 4.0 * i as f32 / 4_999.0)
        .collect();
    let mut out = vec![0.0f32; sweep.len()];
    model.perturb_slice(&sweep, &mut out, &mut ChaCha8Rng::seed_from_u64(19));
    for (&w, &x) in sweep.iter().zip(&out) {
        assert!(grid.contains(&x), "{w} -> {x} is not a level");
        let clamped = w.clamp(-range, range);
        assert!((x - clamped).abs() <= step / 2.0 + 1e-6, "{w} -> {x}");
    }
}

#[test]
fn composite_chain_matches_closed_form() {
    // quantize:16 then lognormal:0.4 — log-normal moments around the
    // quantized level q (0.5 snaps to 7/15 on 16 levels over [-1, 1]).
    let model = "quantize:16+lognormal:0.4"
        .parse::<FaultSpec>()
        .unwrap()
        .build()
        .unwrap();
    let q = LevelQuantization::new(16, 1.0).perturb_words(0.5, &[]) as f64;
    assert!((q - 7.0 / 15.0).abs() < 1e-6, "level {q}");
    let s2 = 0.4f64 * 0.4;
    let xs = draw(model.as_ref(), 0.5, N, 20);
    let mean = q * (s2 / 2.0).exp();
    let var = q * q * (s2.exp() - 1.0) * s2.exp();
    assert_moments("quantize+lognormal", &xs, mean, var);
}
