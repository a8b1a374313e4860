//! Criterion micro-benchmarks for the performance-critical kernels under
//! every figure: drift injection (per fault family, in ns/weight, and the
//! ChaCha keystream in ns/word), the fused Monte-Carlo trial hot path
//! (latency *and* bytes allocated), Monte-Carlo objective evaluation,
//! GP fit + suggest, convolution forward/backward, and matmul kernels
//! (square, and GFLOP/s at every shape LeNet-5 and the digits MLP train
//! with, next to the conv lowerings in ns per call).
//!
//! Set `BENCH_QUICK=1` for CI-sized sample counts, and `CRITERION_JSON=
//! path.json` to dump every measurement (including the bytes-allocated
//! gauges) as a JSON artifact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use baselines::train_step;
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use models::{LeNet5, Mlp, MlpConfig};
use nn::{softmax_cross_entropy, Layer, Mode, Optimizer, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{FaultInjector, LogNormalDrift};
use tensor::{Matmul, Tensor};

/// Counts allocator traffic so benches can report bytes per trial.
struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn samples(full: usize) -> usize {
    if quick() {
        (full / 4).max(3)
    } else {
        full
    }
}

fn bench_drift_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift_injection");
    group.sample_size(samples(20));
    for depth in [3usize, 9] {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(depth).hidden(64), &mut rng);
        let snapshot = FaultInjector::snapshot(&mut net);
        let drift = LogNormalDrift::new(0.6);
        // Fused hot path: one pass, straight from the snapshot.
        group.bench_with_input(
            BenchmarkId::new("inject_from_mlp_depth", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(1);
                    FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
                })
            },
        );
        snapshot.restore_into(&mut net).unwrap();
    }
    group.finish();
}

/// Median wall-clock nanoseconds of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Injection cost per weight of each fault mix of the `campaign-mc`
/// benchmark workload, and the raw keystream cost per word, as medians.
fn bench_inject_family(_c: &mut Criterion) {
    const SPECS: [&str; 6] = [
        "lognormal:0.6",
        "stuckat:0.05,0.02,2",
        "bitflip:0.002",
        "quantize:16+lognormal:0.4+devvar:0.1",
        "gaussian:0.15",
        "uniformread:0.1",
    ];
    let reps = samples(101);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(3).hidden(64), &mut rng);
    let snapshot = FaultInjector::snapshot(&mut net);
    let weights = snapshot.scalar_count() as f64;
    for spec in SPECS {
        let model = spec
            .parse::<reram::FaultSpec>()
            .and_then(|s| s.build())
            .expect("campaign-mc fault specs are valid");
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ns = median_ns(reps, || {
            FaultInjector::inject_from(&snapshot, &mut net, model.as_ref(), &mut rng).unwrap();
        });
        record_metric(format!("inject_family/{spec}"), ns / weights, "ns/weight");
    }
    snapshot.restore_into(&mut net).unwrap();

    let mut words = vec![0u32; 4096];
    let ns = median_ns(reps, || rng.fill_u32(std::hint::black_box(&mut words)));
    record_metric("chacha_fill_u32", ns / words.len() as f64, "ns/word");
}

/// The steady-state Monte-Carlo trial (the paper's Eq. 4 inner loop):
/// latency and allocator traffic of the fused/workspace form.
fn bench_mc_trial(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(3).hidden(64), &mut rng);
    let x = Tensor::randn(&[16, 196], 0.0, 1.0, &mut rng);
    let snapshot = FaultInjector::snapshot(&mut net);
    let drift = LogNormalDrift::new(0.6);

    let mut group = c.benchmark_group("mc_trial");
    group.sample_size(samples(40));
    let mut ws = Workspace::new();
    group.bench_function("fused_inject_forward_ws", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
            let y = net.forward_ws(&x, Mode::Eval, &mut ws);
            let v = y.sum();
            ws.recycle(y);
            v
        })
    });
    group.finish();

    // Allocator traffic per steady-state trial, outside the timing loops:
    // warm the workspace, then measure the steady state.
    let trials = 32u64;
    let mut ws = Workspace::new();
    for t in 0..2 {
        let mut rng = ChaCha8Rng::seed_from_u64(t);
        FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
        let y = net.forward_ws(&x, Mode::Eval, &mut ws);
        ws.recycle(y);
    }
    let before = BYTES.load(Ordering::SeqCst);
    for t in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(t);
        FaultInjector::inject_from(&snapshot, &mut net, &drift, &mut rng).unwrap();
        let y = net.forward_ws(&x, Mode::Eval, &mut ws);
        let _ = y.sum();
        ws.recycle(y);
    }
    let fused_bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "mc_trial/fused_bytes_per_trial",
        fused_bytes as f64 / trials as f64,
        "bytes/iter",
    );
    snapshot.restore_into(&mut net).unwrap();
}

/// The steady-state SGD training step (the loop dominating every BayesOpt
/// trial's wall-clock): latency and allocator traffic, legacy
/// (`forward`/allocating loss/`backward`) vs workspace
/// (`forward_ws`/pooled loss/`backward_ws` + in-place optimizer) form —
/// bit-identical weights either way.
fn bench_train_step(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).depth(3).hidden(64), &mut rng);
    let x = Tensor::randn(&[16, 196], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    let mut group = c.benchmark_group("train_step");
    group.sample_size(samples(40));
    let mut opt = Sgd::new(0.01).momentum(0.9).clip_norm(5.0);
    group.bench_function("legacy_forward_backward", |b| {
        b.iter(|| {
            let logits = net.forward(&x, Mode::Train);
            let out = softmax_cross_entropy(&logits, &labels);
            let _ = net.backward(&out.grad);
            opt.step(&mut net);
            out.loss
        })
    });
    let mut ws = Workspace::new();
    group.bench_function("workspace_forward_backward", |b| {
        b.iter(|| train_step(&mut net, &x, &labels, &mut opt, &mut ws))
    });
    group.finish();

    // Allocator traffic per steady-state step, outside the timing loops.
    let steps = 32u64;
    for _ in 0..steps {
        let logits = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&logits, &labels);
        let _ = net.backward(&out.grad);
        opt.step(&mut net);
    }
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..steps {
        let logits = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&logits, &labels);
        let _ = net.backward(&out.grad);
        opt.step(&mut net);
    }
    let legacy_bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "train_step/legacy_bytes_per_step",
        legacy_bytes as f64 / steps as f64,
        "bytes/iter",
    );

    // Warm the workspace and caches, then measure the steady state.
    let mut ws = Workspace::new();
    for _ in 0..3 {
        let _ = train_step(&mut net, &x, &labels, &mut opt, &mut ws);
    }
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..steps {
        let _ = train_step(&mut net, &x, &labels, &mut opt, &mut ws);
    }
    let ws_bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "train_step/workspace_bytes_per_step",
        ws_bytes as f64 / steps as f64,
        "bytes/iter",
    );

    // Conv training step: LeNet through the same pair of loops.
    let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
    let img = Tensor::randn(&[8, 1, 14, 14], 0.0, 1.0, &mut rng);
    let img_labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut group = c.benchmark_group("train_step_lenet");
    group.sample_size(samples(20));
    let mut opt = Sgd::new(0.01).momentum(0.9).clip_norm(5.0);
    group.bench_function("legacy_forward_backward", |b| {
        b.iter(|| {
            let logits = lenet.forward(&img, Mode::Train);
            let out = softmax_cross_entropy(&logits, &img_labels);
            let _ = lenet.backward(&out.grad);
            opt.step(&mut lenet);
            out.loss
        })
    });
    let mut ws = Workspace::new();
    group.bench_function("workspace_forward_backward", |b| {
        b.iter(|| train_step(&mut lenet, &img, &img_labels, &mut opt, &mut ws))
    });
    group.finish();
}

fn bench_mc_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_objective");
    group.sample_size(samples(10));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let data = datasets::digits(8, &mut rng);
    let mut net = Mlp::new(&MlpConfig::new(196, 10).hidden(48), &mut rng);
    for t in [1usize, 4] {
        let obj = bayesft::DriftObjective::new(0.6, t);
        group.bench_with_input(BenchmarkId::new("samples", t), &t, |b, _| {
            b.iter(|| obj.evaluate(&mut net, &data, 3))
        });
    }
    // The engine's hot path: the same marginalization fanned out over
    // worker threads (results are bit-identical to serial).
    let obj = bayesft::DriftObjective::new(0.6, 16);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("samples16_workers", workers),
            &workers,
            |b, &w| b.iter(|| obj.evaluate_parallel(&mut net, &data, 3, w)),
        );
    }
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_process");
    group.sample_size(samples(30));
    for n in [8usize, 32] {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.37).sin().abs(), (i as f64 * 0.73).cos().abs()])
            .collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                let mut gp = bayesopt::GaussianProcess::new(
                    bayesopt::SquaredExponential::isotropic(1.0, 0.3),
                    1e-6,
                );
                gp.fit(x.clone(), y.clone()).unwrap();
                gp.posterior(&[0.5, 0.5]).unwrap()
            })
        });
    }
    // Full suggest cycle.
    let mut bo = bayesopt::BayesOpt::new(4, bayesopt::SquaredExponential::isotropic(1.0, 0.3));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for i in 0..16 {
        let x: Vec<f64> = (0..4).map(|d| ((i * 7 + d) as f64 * 0.13) % 1.0).collect();
        bo.tell(x, (i as f64 * 0.3).sin());
    }
    group.bench_function("suggest_16obs_4d", |b| {
        b.iter(|| bo.suggest(&mut rng).unwrap())
    });
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward_backward");
    group.sample_size(samples(20));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = LeNet5::new(1, 14, 10, &mut rng);
    let x = Tensor::randn(&[8, 1, 14, 14], 0.0, 1.0, &mut rng);
    group.bench_function("lenet_fwd_batch8", |b| {
        b.iter(|| net.forward(&x, Mode::Eval))
    });
    let mut ws = Workspace::new();
    group.bench_function("lenet_fwd_ws_batch8", |b| {
        b.iter(|| {
            let y = net.forward_ws(&x, Mode::Eval, &mut ws);
            let v = y.sum();
            ws.recycle(y);
            v
        })
    });
    group.bench_function("lenet_fwd_bwd_batch8", |b| {
        b.iter(|| {
            let y = net.forward(&x, Mode::Train);
            net.backward(&Tensor::ones(y.dims()))
        })
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(samples(30));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for n in [32usize, 128] {
        let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        let b_mat = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("square", n), &n, |b, _| {
            b.iter(|| a.matmul(&b_mat))
        });
        let mut out = Tensor::zeros(&[n, n]);
        group.bench_with_input(BenchmarkId::new("square_into", n), &n, |b, _| {
            b.iter(|| a.matmul_into(&b_mat, &mut out))
        });
    }
    // Sparse lhs (stuck-at-0 faults and post-ReLU activations look like
    // this): costs what the dense product costs, as no term is skipped.
    let n = 128;
    let a_sparse = Tensor::from_vec(
        (0..n * n)
            .map(|i| {
                if i % 4 == 0 {
                    (i as f32 * 0.13).sin()
                } else {
                    0.0
                }
            })
            .collect(),
        &[n, n],
    )
    .unwrap();
    let b_mat = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(&[n, n]);
    group.bench_function("square_into_sparse75", |b| {
        b.iter(|| a_sparse.matmul_into(&b_mat, &mut out))
    });
    group.finish();
}

/// `(model, layer, variant, m, k, n)` of every product one training step
/// of LeNet-5 on 14×14 digits (per sample for the convolutions, batch 32
/// for the dense head) and of the runner's digits MLP (196→32→32→10,
/// batch 32) runs: forward `nn`, weight-gradient `nt`/`tn` and
/// input-gradient `tn`/`nt`.
const GEMM_SHAPES: [(&str, &str, &str, usize, usize, usize); 21] = [
    ("lenet5", "conv1", "nn", 6, 25, 196),
    ("lenet5", "conv1", "nt", 6, 196, 25),
    ("lenet5", "conv1", "tn", 25, 6, 196),
    ("lenet5", "conv2", "nn", 16, 150, 9),
    ("lenet5", "conv2", "nt", 16, 9, 150),
    ("lenet5", "conv2", "tn", 150, 16, 9),
    ("lenet5", "fc1", "nn", 32, 16, 48),
    ("lenet5", "fc1", "tn", 16, 32, 48),
    ("lenet5", "fc1", "nt", 32, 48, 16),
    ("lenet5", "fc2", "nn", 32, 48, 10),
    ("lenet5", "fc2", "tn", 48, 32, 10),
    ("lenet5", "fc2", "nt", 32, 10, 48),
    ("mlp", "fc1", "nn", 32, 196, 32),
    ("mlp", "fc1", "tn", 196, 32, 32),
    ("mlp", "fc1", "nt", 32, 32, 196),
    ("mlp", "fc2", "nn", 32, 32, 32),
    ("mlp", "fc2", "tn", 32, 32, 32),
    ("mlp", "fc2", "nt", 32, 32, 32),
    ("mlp", "fc3", "nn", 32, 32, 10),
    ("mlp", "fc3", "tn", 32, 32, 10),
    ("mlp", "fc3", "nt", 32, 10, 32),
];

/// GFLOP/s of each gemm variant at the shapes training really runs, and
/// ns per call of the conv lowerings of LeNet-5 on 14×14 digits, as
/// medians.
fn bench_kernel_shapes(_c: &mut Criterion) {
    let reps = samples(401);
    for (model, layer, variant, m, k, n) in GEMM_SHAPES {
        // Operand lengths: m·k and k·n in every layout.
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.37).sin()
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut c = vec![0.0f32; m * n];
        let gemm = match variant {
            "nn" => tensor::gemm_into,
            "tn" => tensor::gemm_tn_into,
            _ => tensor::gemm_nt_into,
        };
        let ns = median_ns(reps, || gemm(&a, &b, std::hint::black_box(&mut c), m, k, n));
        record_metric(
            format!("gemm_shape/{model}/{layer}/{variant}"),
            (2 * m * k * n) as f64 / ns,
            "GFLOP/s",
        );
    }
    for (layer, spec, hw) in [
        ("conv1", tensor::Conv2dSpec::new(1, 6, 5, 1, 2), 14),
        ("conv2", tensor::Conv2dSpec::new(6, 16, 5, 1, 0), 7),
    ] {
        let (oh, ow) = spec.output_hw(hw, hw);
        let image: Vec<f32> = (0..spec.in_channels * hw * hw)
            .map(|i| (i as f32 * 0.21).sin())
            .collect();
        let mut col = vec![0.0f32; spec.patch_len() * oh * ow];
        let ns = median_ns(reps, || {
            tensor::im2col_into(&image, std::hint::black_box(&mut col), &spec, hw, hw)
        });
        record_metric(format!("im2col/{layer}"), ns, "ns/call");
        let mut grad = vec![0.0f32; image.len()];
        let ns = median_ns(reps, || {
            tensor::col2im_into(&col, std::hint::black_box(&mut grad), &spec, hw, hw)
        });
        record_metric(format!("col2im/{layer}"), ns, "ns/call");
    }
}

/// Campaign scheduling overhead: the same four-scenario campaign through
/// the work-stealing shard pool at 1 and 2 shards (outcomes are
/// bit-identical; only wall-clock may differ), plus the result-store
/// persistence round-trip (fsync'd appends + tolerant load + atomic
/// compaction).
fn bench_campaign(c: &mut Criterion) {
    use scenarios::{Campaign, CampaignRunner, ResultStore, Scenario, TaskKind};

    let campaign = Campaign::new(
        "bench",
        (0..4u64)
            .map(|i| {
                Scenario::new(format!("s{i}"), vec!["lognormal:0.4".parse().unwrap()])
                    .seed(i)
                    .budgets(2, 2, 1, 1)
                    .task(TaskKind::Moons {
                        samples: 80,
                        noise: 0.1,
                    })
            })
            .collect(),
    );
    let mut group = c.benchmark_group("campaign");
    group.sample_size(samples(10));
    for shards in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            // A fresh runner per iteration: the memo cache would otherwise
            // turn every iteration after the first into pure cache hits.
            b.iter(|| CampaignRunner::new().shards(n).run_campaign(&campaign))
        });
    }
    group.finish();

    // Store round-trip on precomputed outcomes, measured once: fsync'd
    // appends + tolerant load + atomic compaction, no engine time.
    let outcomes: Vec<_> = CampaignRunner::new()
        .run_campaign(&campaign)
        .into_iter()
        .map(|r| r.result.expect("bench scenarios run"))
        .collect();
    let path = std::env::temp_dir().join(format!("bayesft-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::open(&path);
    let start = std::time::Instant::now();
    for outcome in &outcomes {
        store.append("bench", outcome).expect("bench store appends");
    }
    let records = store.load().expect("bench store loads");
    store.compact().expect("bench store compacts");
    record_metric(
        "campaign/persist_load_compact_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    record_metric(
        "campaign/records_persisted",
        records.len() as f64,
        "records",
    );
    let _ = std::fs::remove_file(&path);
}

/// Cost of the telemetry primitives the instrumented kernels pay per
/// call — a counter bump, a histogram observation, and the full
/// `Timer`/`Span` enter+drop pairs — against the bare `Instant::now()`
/// pair a hand-rolled timer would cost anyway. No trace sink is
/// installed, so spans take the cheap path (the production default).
fn bench_telemetry(c: &mut Criterion) {
    let counter = telemetry::static_counter!("bench_telemetry_ops_total");
    let hist = telemetry::duration_histogram!("bench_telemetry_seconds");

    let mut group = c.benchmark_group("telemetry");
    group.sample_size(samples(40));
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_observe", |b| b.iter(|| hist.observe(1.25e-4)));
    group.bench_function("timer_start_drop", |b| {
        b.iter(|| telemetry::Timer::start(hist))
    });
    group.bench_function("span_enter_drop_no_sink", |b| {
        b.iter(|| telemetry::Span::enter("bench.span", hist))
    });
    // The stripped baseline: what the same timing window costs with the
    // telemetry layer deleted (two clock reads, nothing recorded).
    group.bench_function("bare_instant_pair", |b| {
        b.iter(|| std::time::Instant::now().elapsed())
    });
    group.finish();

    // Steady-state allocator traffic: recording must be allocation-free
    // (registration above was the only allocating step).
    let iters = 4096u64;
    let before = BYTES.load(Ordering::SeqCst);
    for _ in 0..iters {
        counter.inc();
        let _t = telemetry::Timer::start(hist);
        let _s = telemetry::Span::enter("bench.span", hist);
    }
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    record_metric(
        "telemetry/bytes_per_instrumented_op",
        bytes as f64 / iters as f64,
        "bytes/iter",
    );
}

criterion_group!(
    benches,
    bench_drift_injection,
    bench_inject_family,
    bench_mc_trial,
    bench_train_step,
    bench_mc_objective,
    bench_gp,
    bench_conv,
    bench_matmul,
    bench_kernel_shapes,
    bench_campaign,
    bench_telemetry
);
criterion_main!(benches);
