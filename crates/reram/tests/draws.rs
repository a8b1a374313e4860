//! Per-weight pins of every fault model: the output bits of
//! `DriftModel::perturb` over a fixed input sweep, and where each model
//! leaves the RNG stream afterwards (which pins how many words it draws
//! per weight). Captured from the per-weight `&mut dyn RngCore`
//! implementation; any faster path must reproduce them exactly.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reram::{DriftModel, FaultSpec};

/// Every family with non-trivial parameters, the zero-parameter variants,
/// and composite chains, all spelled in the `FaultSpec` grammar.
const SPECS: [&str; 18] = [
    "lognormal:0.5",
    "gaussian:0.3",
    "uniform:0.4",
    "uniformread:0.2",
    "devvar:0.15",
    "devvar:4",
    "stuckat:0.2,0.05,1",
    "bitflip:0.01",
    "bitflip:0.3,4,2",
    "quantize:16",
    "lognormal:0",
    "gaussian:0",
    "uniform:0",
    "uniformread:0",
    "devvar:0",
    "stuckat:0,0,1",
    "quantize:16+lognormal:0.4+devvar:0.1",
    "stuckat:0.05,0.02,2+bitflip:0.1,6,1.5+gaussian:0.2",
];

/// A finite input sweep: signed zeros, values inside and beyond the
/// quantizer ranges, and tiny and large magnitudes.
fn inputs() -> Vec<f32> {
    let mut v = vec![
        0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0, 1e-30, -1e-30, 1e6, -1e6,
    ];
    v.extend((0..245).map(|i| ((i as f32) * 0.731).sin() * 2.5));
    v
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn build(spec: &str) -> Box<dyn DriftModel> {
    spec.parse::<FaultSpec>().unwrap().build().unwrap()
}

/// Output digest and the next stream word after perturbing the sweep.
fn per_weight(model: &dyn DriftModel) -> (u64, u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let out: Vec<u32> = inputs()
        .iter()
        .map(|&w| model.perturb(w, &mut rng).to_bits())
        .collect();
    (digest(out), rng.next_u32())
}

/// `(spec, output digest, next stream word)` per [`SPECS`] entry.
const GOLDEN: [(&str, u64, u32); 18] = [
    ("lognormal:0.5", 0x1eed_d115_a176_e9d8, 0x03c8523b),
    ("gaussian:0.3", 0x54d5_4fc8_5f77_fac2, 0x03c8523b),
    ("uniform:0.4", 0x8f67_8e69_1bb2_24fa, 0x3f7276f0),
    ("uniformread:0.2", 0x1b88_439e_1916_f3b9, 0x3f7276f0),
    ("devvar:0.15", 0x203c_e77e_a326_53f5, 0x03c8523b),
    ("devvar:4", 0x1d38_9187_444b_1c47, 0x03c8523b),
    ("stuckat:0.2,0.05,1", 0xf487_5686_76b3_4962, 0x3f7276f0),
    ("bitflip:0.01", 0x1ff6_bc54_8bf0_f1b2, 0x8fc9744f),
    ("bitflip:0.3,4,2", 0x2d73_2f79_9bb7_21b8, 0xbbafa64e),
    ("quantize:16", 0x53c4_66ef_0bf3_f6f1, 0xfef49ff1),
    ("lognormal:0", 0xea7c_571b_3dfe_7963, 0xfef49ff1),
    ("gaussian:0", 0xea7c_571b_3dfe_7963, 0x03c8523b),
    ("uniform:0", 0xea7c_571b_3dfe_7963, 0xfef49ff1),
    ("uniformread:0", 0xea7c_571b_3dfe_7963, 0xfef49ff1),
    ("devvar:0", 0xea7c_571b_3dfe_7963, 0xfef49ff1),
    ("stuckat:0,0,1", 0xea7c_571b_3dfe_7963, 0x3f7276f0),
    (
        "quantize:16+lognormal:0.4+devvar:0.1",
        0xebce_9af6_8b1f_228e,
        0xbbafa64e,
    ),
    (
        "stuckat:0.05,0.02,2+bitflip:0.1,6,1.5+gaussian:0.2",
        0x6b2c_b420_883b_48f6,
        0x65139b05,
    ),
];

#[test]
fn per_weight_perturb_matches_golden_bits_and_draws() {
    assert_eq!(GOLDEN.map(|g| g.0), SPECS);
    for (spec, expected, next_word) in GOLDEN {
        let (got, tail) = per_weight(build(spec).as_ref());
        assert_eq!(got, expected, "{spec}: output bits moved");
        assert_eq!(tail, next_word, "{spec}: draws per weight changed");
    }
}

/// A chain that draws more words per weight than either stack buffer
/// holds, so both provided methods take their fallback paths.
fn long_chain() -> Box<dyn DriftModel> {
    Box::new(reram::CompositeFault::new(
        (0..17)
            .map(|_| Box::new(reram::BitFlipFault::new(0.1, 16, 1.0)) as Box<dyn DriftModel>)
            .collect(),
    ))
}

fn all_models() -> Vec<(String, Box<dyn DriftModel>)> {
    let mut models: Vec<_> = SPECS.iter().map(|s| (s.to_string(), build(s))).collect();
    models.push(("17 x bitflip:0.1,16,1".into(), long_chain()));
    models
}

/// `perturb_slice` is per-weight `perturb` over the same stream, bit for
/// bit, and leaves the stream at the same position: for every model, on
/// empty, single, odd and multi-buffer lengths, from aligned and
/// mid-block starts.
#[test]
fn perturb_slice_equals_per_weight_perturb() {
    let sweep = inputs();
    for (name, model) in all_models() {
        for len in [0usize, 1, 7, 129, 1000] {
            for skip in [0usize, 5, 63] {
                let pristine: Vec<f32> = sweep.iter().copied().cycle().take(len).collect();
                let mut sliced = ChaCha8Rng::seed_from_u64(77);
                let mut stepped = ChaCha8Rng::seed_from_u64(77);
                for _ in 0..skip {
                    let _ = sliced.next_u32();
                    let _ = stepped.next_u32();
                }
                let mut out = vec![f32::NAN; len];
                model.perturb_slice(&pristine, &mut out, &mut sliced);
                let expected: Vec<u32> = pristine
                    .iter()
                    .map(|&w| model.perturb(w, &mut stepped).to_bits())
                    .collect();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "{name}: len {len} skip {skip}");
                assert_eq!(
                    sliced.next_u64(),
                    stepped.next_u64(),
                    "{name}: len {len} skip {skip}: stream position"
                );
            }
        }
    }
}

/// Counts the words a model pulls from the stream.
struct Counting {
    inner: ChaCha8Rng,
    words: usize,
}

impl RngCore for Counting {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 2;
        self.inner.next_u64()
    }
}

/// The draw contract: every model consumes exactly `words()` stream words
/// per weight, whatever the weight (NaN and infinities included).
#[test]
fn every_model_draws_exactly_its_words_per_weight() {
    let mut values = inputs();
    values.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    for (name, model) in all_models() {
        let mut rng = Counting {
            inner: ChaCha8Rng::seed_from_u64(5),
            words: 0,
        };
        for &w in &values {
            let before = rng.words;
            let _ = model.perturb(w, &mut rng);
            assert_eq!(rng.words - before, model.words(), "{name} at {w}");
        }
    }
}

/// A NaN weight stays NaN under bit flips, on both paths, as it does
/// under every other family: a diverged network must not read as a
/// healthy one. The flip words are still drawn, so the stream position
/// does not depend on the weight.
#[test]
fn bit_flip_propagates_nan() {
    let model = reram::BitFlipFault::new(0.3, 8, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    assert!(model.perturb(f32::NAN, &mut rng).is_nan());
    let pristine = [0.5, f32::NAN, -0.25];
    let mut out = [0.0f32; 3];
    let mut sliced = ChaCha8Rng::seed_from_u64(2);
    model.perturb_slice(&pristine, &mut out, &mut sliced);
    assert!(out[1].is_nan(), "bitflip: NaN -> {}", out[1]);
    let mut finite = ChaCha8Rng::seed_from_u64(2);
    let mut finite_out = [0.0f32; 3];
    model.perturb_slice(&[0.5, 0.0, -0.25], &mut finite_out, &mut finite);
    assert_eq!(out[2].to_bits(), finite_out[2].to_bits());
    assert_eq!(sliced.next_u32(), finite.next_u32());
    for spec in [
        "quantize:16",
        "lognormal:0.5",
        "stuckat:0,0,1",
        "devvar:0.2",
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(build(spec).perturb(f32::NAN, &mut rng).is_nan(), "{spec}");
    }
}
