//! Bit-identity of the workspace train step (`Layer::forward_ws` in
//! `Mode::Train`, `Layer::backward_ws`, pooled loss gradients, in-place
//! optimizers) through a recycled pool against the provided
//! `forward`/`backward` (a fresh pool per call), across every layer family
//! and whole-model training loops — plus golden bit-value pins captured
//! from earlier builds, proving each refactor changed buffer provenance
//! and nothing else.

use baselines::{
    train_awp, train_epochs, train_erm, train_ftna, train_step, AwpConfig, Codebook, TrainConfig,
};
use bayesft::Engine;
use models::{LeNet5, Mlp, MlpConfig};
use nn::{
    backward_ws_divergence, softmax_cross_entropy, Activation, Adam, AlphaDropout, AvgPool2d,
    BatchNorm, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, GroupNorm, Identity, InstanceNorm,
    Layer, LayerNorm, MaxPool2d, Mode, Optimizer, PreActBlock, Relu, Residual, Sequential, Sgd,
    Workspace,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::Tensor;

/// FNV-1a over the bit patterns of every parameter value, in visit order.
fn param_digest(net: &mut dyn Layer) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    net.visit_params(&mut |p| {
        for &v in p.value.as_slice() {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    });
    h
}

fn assert_bwd_matches(layer: &dyn Layer, x: &Tensor, what: &str) {
    assert_eq!(
        backward_ws_divergence(layer, x, Mode::Train),
        0,
        "{what}: recycled-pool train step diverged from a fresh pool"
    );
}

#[test]
fn dense_and_activations_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let x = Tensor::randn(&[5, 7], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Dense::new(7, 3, &mut rng), &x, "dense");
    for act in Activation::all() {
        assert_bwd_matches(act.build().as_ref(), &x, "activation");
    }
    // Rank folding: dense accepts [N, ..., in] and folds leading dims.
    let folded = Tensor::randn(&[3, 2, 4], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Dense::new(4, 2, &mut rng), &folded, "dense rank-fold");
}

#[test]
fn structural_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Identity::new(), &x, "identity");
    // Stochastic layers: clone_box copies the RNG state, so both replicas
    // draw identical masks.
    assert_bwd_matches(&Dropout::new(0.5, 3), &x, "dropout");
    assert_bwd_matches(&Dropout::new(0.0, 3), &x, "dropout rate 0");
    assert_bwd_matches(&AlphaDropout::new(0.5, 3), &x, "alpha_dropout");
    assert_bwd_matches(&Sequential::empty(), &x, "empty sequential");

    let residual = Residual::new(
        Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
        ]),
        None,
    );
    assert_bwd_matches(&residual, &x, "residual identity-shortcut");

    let projected = Residual::new(
        Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))]),
        Some(Sequential::new(vec![Box::new(Dense::new(4, 6, &mut rng))])),
    );
    assert_bwd_matches(&projected, &x, "residual projection-shortcut");

    let preact = PreActBlock::new(
        Sequential::new(vec![
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 4, &mut rng)),
        ]),
        None,
    );
    assert_bwd_matches(&preact, &x, "preact block");
}

#[test]
fn conv_and_pooling_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&Conv2d::new(3, 5, 3, 1, 1, &mut rng), &x, "conv 3x3 pad");
    assert_bwd_matches(&Conv2d::new(3, 4, 3, 2, 0, &mut rng), &x, "conv strided");
    assert_bwd_matches(&MaxPool2d::new(2, 2), &x, "max_pool2d");
    assert_bwd_matches(&AvgPool2d::new(2, 2), &x, "avg_pool2d");
    assert_bwd_matches(&GlobalAvgPool::new(), &x, "global_avg_pool");
    assert_bwd_matches(&Flatten::new(), &x, "flatten");
}

#[test]
fn norm_layers_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let x2 = Tensor::randn(&[4, 6], 1.0, 2.0, &mut rng);
    assert_bwd_matches(&BatchNorm::new(6), &x2, "batch_norm rank-2");
    assert_bwd_matches(&LayerNorm::new(6), &x2, "layer_norm rank-2");
    assert_bwd_matches(&InstanceNorm::new(6), &x2, "instance_norm rank-2");
    assert_bwd_matches(&GroupNorm::new(6, 3), &x2, "group_norm rank-2");
    let x4 = Tensor::randn(&[2, 4, 3, 3], -1.0, 1.5, &mut rng);
    assert_bwd_matches(&BatchNorm::new(4), &x4, "batch_norm rank-4");
    assert_bwd_matches(&LayerNorm::new(4), &x4, "layer_norm rank-4");
    assert_bwd_matches(&InstanceNorm::new(4), &x4, "instance_norm rank-4");
    assert_bwd_matches(&GroupNorm::new(4, 2), &x4, "group_norm rank-4");
}

#[test]
fn whole_models_match() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mlp = Mlp::new(
        &MlpConfig::new(10, 3)
            .depth(4)
            .hidden(16)
            .activation(Activation::Gelu),
        &mut rng,
    );
    let x = Tensor::randn(&[4, 10], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&mlp, &x, "mlp");

    let lenet = LeNet5::new(1, 14, 10, &mut rng);
    let img = Tensor::randn(&[2, 1, 14, 14], 0.0, 1.0, &mut rng);
    assert_bwd_matches(&lenet, &img, "lenet5");
}

/// Plain training loop — provided `forward`, allocating loss, provided
/// `backward`, optimizer step — the reference the pooled step must
/// reproduce bit for bit.
fn legacy_steps(net: &mut dyn Layer, x: &Tensor, labels: &[usize], opt: &mut dyn Optimizer) {
    for _ in 0..10 {
        let logits = net.forward(x, Mode::Train);
        let out = softmax_cross_entropy(&logits, labels);
        let _ = net.backward(&out.grad);
        opt.step(net);
    }
}

fn ws_steps(net: &mut dyn Layer, x: &Tensor, labels: &[usize], opt: &mut dyn Optimizer) {
    let mut ws = Workspace::new();
    for _ in 0..10 {
        let _ = train_step(net, x, labels, opt, &mut ws);
    }
}

/// Ten-step optimizer loops on a fixed batch: the workspace step must match
/// the legacy loop bitwise, and both must match the digests captured from
/// the pre-refactor build for every optimizer family.
#[test]
fn optimizer_loops_are_bit_identical_and_match_pre_refactor_goldens() {
    let x = Tensor::from_vec(
        (0..32).map(|i| ((i as f32) * 0.37).sin()).collect(),
        &[8, 4],
    )
    .unwrap();
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let mk = || {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        Mlp::new(&MlpConfig::new(4, 3).hidden(6), &mut r)
    };
    type OptCase = (&'static str, fn() -> Box<dyn Optimizer>, u64);
    let cases: [OptCase; 4] = [
        ("sgd", || Box::new(Sgd::new(0.1)), 0xc84f055e68d4cb63),
        (
            "sgd+momentum",
            || Box::new(Sgd::new(0.05).momentum(0.9)),
            0x5de46f1e39e9c9f5,
        ),
        (
            "sgd+wd+clip",
            || {
                Box::new(
                    Sgd::new(0.05)
                        .momentum(0.9)
                        .weight_decay(0.01)
                        .clip_norm(1.0),
                )
            },
            0x041f5e570e6d61da,
        ),
        ("adam", || Box::new(Adam::new(0.05)), 0x2e4fb25b39dd7cb7),
    ];
    for (name, mk_opt, golden) in cases {
        let mut legacy = mk();
        legacy_steps(&mut legacy, &x, &labels, mk_opt().as_mut());
        let mut workspace = mk();
        ws_steps(&mut workspace, &x, &labels, mk_opt().as_mut());
        let legacy_digest = param_digest(&mut legacy);
        assert_eq!(
            legacy_digest,
            param_digest(&mut workspace),
            "{name}: workspace loop diverged from legacy loop"
        );
        assert_eq!(
            legacy_digest, golden,
            "{name}: weights diverged from the pre-refactor build"
        );
    }
}

/// A LeNet conv/pool/flatten chain through three momentum-SGD steps pins
/// the convolution/pooling backward_ws kernels end to end.
#[test]
fn lenet_training_matches_pre_refactor_golden() {
    let run = |workspace: bool| -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut lenet = LeNet5::new(1, 14, 4, &mut rng);
        let img = Tensor::randn(&[4, 1, 14, 14], 0.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 3];
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            if workspace {
                let _ = train_step(&mut lenet, &img, &labels, &mut opt, &mut ws);
            } else {
                let logits = lenet.forward(&img, Mode::Train);
                let out = softmax_cross_entropy(&logits, &labels);
                let _ = lenet.backward(&out.grad);
                opt.step(&mut lenet);
            }
        }
        param_digest(&mut lenet)
    };
    let legacy = run(false);
    assert_eq!(legacy, run(true), "workspace LeNet training diverged");
    assert_eq!(
        legacy, 0xf56555a00a947833,
        "diverged from pre-refactor build"
    );
}

/// `train_epochs` (now the workspace path, with shuffling and partial
/// batches) reproduces the pre-refactor losses and weights bit for bit.
#[test]
fn train_epochs_matches_pre_refactor_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = datasets::moons(120, 0.1, &mut rng);
    let mut net = Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 0.1,
        momentum: 0.9,
        seed: 5,
    };
    let losses = train_epochs(&mut net, &data, &cfg);
    let bits: Vec<u32> = losses.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        vec![1059172250, 1053440642, 1047888117],
        "epoch losses diverged from the pre-refactor build"
    );
    assert_eq!(param_digest(&mut net), 0x99ee317a69770da8);
    let mut first = Vec::new();
    net.visit_params(&mut |p| {
        if first.len() < 4 {
            first.extend(
                p.value
                    .as_slice()
                    .iter()
                    .take(4 - first.len())
                    .map(|v| v.to_bits()),
            );
        }
    });
    assert_eq!(first, vec![1051496224, 1033245264, 1025499248, 3190763888]);
}

/// ERM / AWP / FTNA trainers reproduce their pre-refactor weight digests
/// on the workspace path.
#[test]
fn baseline_trainers_match_pre_refactor_goldens() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = datasets::moons(100, 0.1, &mut rng);
    let cfg = TrainConfig::fast_test();
    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng));
    let mut awp = train_awp(net, &data, &cfg, &AwpConfig { gamma: 0.02 });
    assert_eq!(param_digest(awp.net.as_mut()), 0x016b2d22c3b27820, "awp");

    let cb = Codebook::hadamard(2);
    let mut rng2 = ChaCha8Rng::seed_from_u64(7);
    let _ = datasets::moons(100, 0.1, &mut rng2);
    let net = Box::new(Mlp::new(&MlpConfig::new(2, cb.bits()).hidden(8), &mut rng2));
    let mut ftna = train_ftna(net, &data, &cfg, cb);
    assert_eq!(param_digest(ftna.net.as_mut()), 0xdbf9d700b9272b3d, "ftna");

    let mut rng3 = ChaCha8Rng::seed_from_u64(13);
    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng3));
    let mut erm = train_erm(net, &data, &cfg);
    assert_eq!(param_digest(erm.net.as_mut()), 0xfd168402fa233fca, "erm");
}

/// The full engine loop (train → Monte-Carlo eval → GP → fine-tune) on the
/// workspace training path reproduces the pre-refactor RunReport and final
/// weights bit for bit, serial and parallel alike.
#[test]
fn engine_run_matches_pre_refactor_golden_serial_and_parallel() {
    let run = |workers: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = datasets::moons(160, 0.1, &mut rng);
        let (train, val) = data.split(0.8, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(12), &mut rng));
        Engine::builder()
            .trials(3)
            .epochs_per_trial(1)
            .final_epochs(1)
            .mc_samples(2)
            .sigma(0.5)
            .train(TrainConfig::fast_test())
            .seed(19)
            .parallelism(workers)
            .run(net, &train, &val)
            .expect("engine run")
    };
    let serial = run(1);
    assert_eq!(
        serial.report.best_objective.to_bits(),
        0x3febd55560000000,
        "best objective diverged from the pre-refactor build"
    );
    let alpha_bits: Vec<u64> = serial
        .report
        .best_alpha
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(alpha_bits, vec![4600864569083755700, 4586414101153231552]);
    let trial_bits: Vec<u64> = serial
        .report
        .trials
        .iter()
        .map(|t| t.objective.to_bits())
        .collect();
    assert_eq!(
        trial_bits,
        vec![
            4605868869087657984,
            4605915781404819456,
            4606009606576013312
        ]
    );
    let mut serial_model = serial.model;
    assert_eq!(param_digest(serial_model.net.as_mut()), 0xac1559445fe9430b);

    let parallel = run(4);
    assert!(serial.report.deterministic_eq(&parallel.report));
    let mut parallel_model = parallel.model;
    assert_eq!(
        param_digest(parallel_model.net.as_mut()),
        0xac1559445fe9430b,
        "parallel run weights diverged"
    );
}

/// Eval-mode forwards invalidate the gradient tape (capacity retained):
/// a stray `backward` must fail loudly instead of silently
/// backpropagating through the stale activations of an earlier training
/// step.
#[test]
#[should_panic(expected = "eval-mode forward")]
fn dense_backward_after_eval_forward_panics() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut fc = Dense::new(3, 2, &mut rng);
    let x = Tensor::ones(&[2, 3]);
    let _ = fc.forward(&x, Mode::Train);
    let _ = fc.forward(&x, Mode::Eval); // invalidates the tape
    let _ = fc.backward(&Tensor::ones(&[2, 2]));
}

#[test]
#[should_panic(expected = "eval invalidates the tape")]
fn conv_backward_after_eval_forward_panics() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
    let x = Tensor::ones(&[1, 1, 5, 5]);
    let _ = conv.forward(&x, Mode::Train);
    let _ = conv.forward(&x, Mode::Eval); // invalidates the tape
    let _ = conv.backward(&Tensor::ones(&[1, 2, 5, 5]));
}

#[test]
#[should_panic(expected = "eval invalidates the tape")]
fn max_pool_backward_after_eval_forward_panics() {
    let mut pool = MaxPool2d::new(2, 2);
    let x = Tensor::ones(&[1, 1, 4, 4]);
    let _ = pool.forward(&x, Mode::Train);
    let _ = pool.forward(&x, Mode::Eval); // invalidates the tape
    let _ = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
}

/// FNV-1a over the bit patterns of `values`, folded into `h`.
fn fold_bits(h: &mut u64, values: &[f32]) {
    for &v in values {
        *h ^= v.to_bits() as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Digests of one layer's train step and eval pass: `[train forward
/// output, input gradient, parameter gradients, eval forward output]`.
/// `ws = None` drives the provided `forward`/`backward`; `Some` drives
/// `forward_ws`/`backward_ws` on the given (possibly recycled) pool.
fn layer_step_digests(layer: &mut dyn Layer, x: &Tensor, ws: Option<&mut Workspace>) -> [u64; 4] {
    let mut d = [0xcbf29ce484222325u64; 4];
    let grad_of = |y: &Tensor| {
        let g: Vec<f32> = (0..y.len()).map(|i| ((i as f32) * 0.61).cos()).collect();
        Tensor::from_vec(g, y.dims()).unwrap()
    };
    let (y, gx, e) = match ws {
        None => {
            let y = layer.forward(x, Mode::Train);
            let gx = layer.backward(&grad_of(&y));
            (y, gx, layer.forward(x, Mode::Eval))
        }
        Some(ws) => {
            let y = layer.forward_ws(x, Mode::Train, ws);
            let gx = layer.backward_ws(&grad_of(&y), ws);
            let e = layer.forward_ws(x, Mode::Eval, ws);
            let out = (y.clone(), gx.clone(), e.clone());
            ws.recycle(y);
            ws.recycle(gx);
            ws.recycle(e);
            out
        }
    };
    fold_bits(&mut d[0], y.as_slice());
    fold_bits(&mut d[1], gx.as_slice());
    layer.visit_params(&mut |p| fold_bits(&mut d[2], p.grad.as_slice()));
    fold_bits(&mut d[3], e.as_slice());
    d
}

/// Train- and eval-mode outputs plus input and parameter gradients of the
/// normalization layers and the spatial transformer, pinned to the bits
/// of the build where these layers had only an allocating body. Both the
/// provided `forward`/`backward` and the workspace path (fresh, then
/// recycled pool) must reproduce them.
#[test]
fn norm_and_stn_layers_match_allocating_era_goldens() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let x2 = Tensor::randn(&[5, 6], 0.5, 1.5, &mut rng);
    let x4 = Tensor::randn(&[2, 4, 3, 3], -1.0, 1.5, &mut rng);
    let img = Tensor::randn(&[2, 1, 8, 8], 0.5, 0.3, &mut rng);
    let mut stn = models::SpatialTransformer::new(1, 8, &mut rng);
    // Nudge the affine head off identity so sampling is non-trivial.
    let total = {
        let mut n = 0;
        stn.visit_params(&mut |_| n += 1);
        n
    };
    let mut idx = 0;
    stn.visit_params(&mut |p| {
        if idx == total - 1 {
            p.value = Tensor::from_slice(&[0.9, 0.05, 0.02, -0.03, 0.95, -0.01]);
        }
        idx += 1;
    });
    type Case = (&'static str, Box<dyn Layer>, Tensor, [u64; 4]);
    let cases: Vec<Case> = vec![
        (
            "batch_norm rank-2",
            Box::new(BatchNorm::new(6)),
            x2.clone(),
            [
                0x56a623ecbc8873cd,
                0x64c52e8cb63e2efd,
                0x15fbf4ca56dbba3f,
                0xa6209c9758673243,
            ],
        ),
        (
            "layer_norm rank-2",
            Box::new(LayerNorm::new(6)),
            x2.clone(),
            [
                0x0adcfd1f51d24e10,
                0x16ba6c8675b690db,
                0xb299e31d2f00d6ee,
                0x0adcfd1f51d24e10,
            ],
        ),
        (
            "instance_norm rank-2",
            Box::new(InstanceNorm::new(6)),
            x2.clone(),
            [
                0x0adcfd1f51d24e10,
                0x16ba6c8675b690db,
                0xb299e31d2f00d6ee,
                0x0adcfd1f51d24e10,
            ],
        ),
        (
            "group_norm rank-2",
            Box::new(GroupNorm::new(6, 3)),
            x2,
            [
                0x0d7e41262756e90c,
                0x29f84db08e23b6a0,
                0x13f93c40075c0da8,
                0x0d7e41262756e90c,
            ],
        ),
        (
            "batch_norm rank-4",
            Box::new(BatchNorm::new(4)),
            x4.clone(),
            [
                0x1352a4d88f5d5343,
                0xbafcd2b14fe85e67,
                0x19a711c928688038,
                0x19b421e9fed101b5,
            ],
        ),
        (
            "layer_norm rank-4",
            Box::new(LayerNorm::new(4)),
            x4.clone(),
            [
                0x1c356cc3306d25af,
                0x84f6dd12c3f10934,
                0xd925f04c63478ab5,
                0x1c356cc3306d25af,
            ],
        ),
        (
            "instance_norm rank-4",
            Box::new(InstanceNorm::new(4)),
            x4.clone(),
            [
                0xedd7f7c8aab5b2b8,
                0x86698306e1287ac3,
                0xd3df5fa1e37be071,
                0xedd7f7c8aab5b2b8,
            ],
        ),
        (
            "group_norm rank-4",
            Box::new(GroupNorm::new(4, 2)),
            x4,
            [
                0x20392a3d11c3d827,
                0x5dcab7e72e1b849d,
                0x871cb30885b30577,
                0x20392a3d11c3d827,
            ],
        ),
        (
            "spatial_transformer",
            Box::new(stn),
            img,
            [
                0xfa440188f53b66cd,
                0x0168b48e51e5c006,
                0x4c02a0b918213a42,
                0xfa440188f53b66cd,
            ],
        ),
    ];
    let mut ws = Workspace::new();
    for (name, layer, x, golden) in cases {
        let plain = layer_step_digests(layer.clone_box().as_mut(), &x, None);
        assert_eq!(
            plain, golden,
            "{name}: diverged from the allocating-era build"
        );
        for pass in 0..2 {
            let pooled = layer_step_digests(layer.clone_box().as_mut(), &x, Some(&mut ws));
            assert_eq!(pooled, golden, "{name}: workspace pass {pass} diverged");
        }
    }
}

fn value_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-sample bits of every Monte-Carlo drift evaluator a paper figure or
/// the engine reads — `drift_accuracy` (softmax and FTNA codebook
/// decoders), `reram_v_accuracy`, `accuracy_vs_sigma`, and the
/// `DriftObjective` under both metrics on flat and image data — pinned to
/// the build that ran each through its own driver.
#[test]
fn drift_evaluators_match_pre_refactor_goldens() {
    use baselines::{drift_accuracy, reram_v_accuracy, ReRamVConfig};
    use bayesft::{accuracy_vs_sigma, DriftObjective, ObjectiveMetric};
    use reram::LogNormalDrift;

    let mut rng = ChaCha8Rng::seed_from_u64(21);
    // 150 rows: two full 64-row batches plus a 22-row remainder.
    let data = datasets::moons(150, 0.1, &mut rng);
    let cfg = TrainConfig::fast_test();
    let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(8), &mut rng));
    let mut erm = train_erm(net, &data, &cfg);
    let cb = Codebook::hadamard(2);
    let net = Box::new(Mlp::new(&MlpConfig::new(2, cb.bits()).hidden(8), &mut rng));
    let mut ftna = train_ftna(net, &data, &cfg, cb);

    let softmax = drift_accuracy(&mut erm, &data, &LogNormalDrift::new(0.8), 5, 3);
    assert_eq!(
        value_bits(&softmax.values),
        vec![0x3f6147ae, 0x3f51eb85, 0x3f4b17e5, 0x3f58bf26, 0x3f5dddde],
        "softmax decoder"
    );
    let codebook = drift_accuracy(&mut ftna, &data, &LogNormalDrift::new(0.8), 5, 3);
    assert_eq!(
        value_bits(&codebook.values),
        vec![0x3f5f92c6, 0x3f51eb85, 0x3f5f92c6, 0x3f3f258c, 0x3f570a3d],
        "codebook decoder"
    );

    let reram_v = reram_v_accuracy(&mut erm, &data, 0.8, 4, 5, &ReRamVConfig::default());
    assert_eq!(
        value_bits(&reram_v.values),
        vec![0x3f5c28f6, 0x3f40da74, 0x3f5dddde, 0x3f555555],
        "reram_v"
    );

    let sweep: Vec<u32> = accuracy_vs_sigma(&mut erm, &data, &[0.0, 0.6, 1.2], 3, 9)
        .iter()
        .flat_map(|(_, stats)| value_bits(&stats.values))
        .collect();
    assert_eq!(
        sweep,
        vec![
            0x3f6147ae, 0x3f6147ae, 0x3f6147ae, 0x3f570a3d, 0x3f6147ae, 0x3f555555, 0x3f5a740e,
            0x3f5a740e, 0x3f47ae14
        ],
        "accuracy_vs_sigma"
    );

    let neg_loss = DriftObjective::with_sigmas(vec![0.3, 0.9], 3).metric(ObjectiveMetric::NegLoss);
    let serial = neg_loss.evaluate(erm.net.as_mut(), &data, 17);
    assert_eq!(
        value_bits(&serial.values),
        vec![0xbe5a8153, 0xbe679ca4, 0xbe688c44, 0xbfac1163, 0xbea61901, 0xbe98afe3],
        "neg-loss objective"
    );
    let parallel = neg_loss.evaluate_parallel(erm.net.as_mut(), &data, 17, 2);
    assert_eq!(
        parallel.values, serial.values,
        "neg-loss objective, 2 workers"
    );

    // Image batches: flattened for an MLP, fed as-is to LeNet.
    let digits = datasets::digits(9, &mut rng);
    let mut flat = Mlp::new(&MlpConfig::new(14 * 14, 10).hidden(16), &mut rng);
    let acc = DriftObjective::new(0.5, 3).evaluate(&mut flat, &digits, 23);
    assert_eq!(
        value_bits(&acc.values),
        vec![0x3dfa4fa5, 0x3d638e39, 0x3dcccccd],
        "mlp on images"
    );
    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    let lenet_loss = DriftObjective::new(0.5, 3)
        .metric(ObjectiveMetric::NegLoss)
        .evaluate(&mut lenet, &digits, 29);
    assert_eq!(
        value_bits(&lenet_loss.values),
        vec![0xc064c59e, 0xc046aa74, 0xc07744ac],
        "lenet neg-loss"
    );
}
