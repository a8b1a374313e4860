//! `fig3-lenet`: the Fig. 3(b) five-method comparison on LeNet-5/digits
//! at `Scale::Medium` — ERM, FTNA, ReRAM-V, AWP, then BayesFT through the
//! `Engine` — driven from the `bench`, `baselines` and `bayesft` public
//! functions with `parallelism(1)`. (`bench::compare_methods` is not
//! called: it fixes `parallelism(0)`, all cores.)
//!
//! Why: conv forward/backward (im2col + gemm) and baseline training
//! dominate and injection is a smaller share, so a kernel change shows
//! here and an inject-only change should move this workload less than
//! `campaign-mc`. It also carries the paper's headline: BayesFT accuracy
//! under drift.
//!
//! A job is one figure cell: one method's Monte-Carlo accuracy at one σ.
//!
//! The task instance — digits data, initial weights, training shuffles and
//! the BayesFT search seed — is fixed, as the paper's Fig. 3(b) is one
//! fixed MNIST/LeNet instance. The workload seed drives the Monte-Carlo
//! drift streams of the 30 figure cells. Across task seeds, LeNet at this
//! budget ends anywhere from chance to 50 % accuracy (IQR/median of the
//! search objective 0.89 over seeds 1–10), which no bound could absorb.

use std::path::Path;
use std::time::Instant;

use baselines::{
    reram_v_accuracy, train_awp, train_erm, train_ftna, AwpConfig, Codebook, ReRamVConfig,
    TrainedModel,
};
use bayesft::{accuracy_vs_sigma, DriftObjective, Engine, RunReport, SIGMA_GRID};
use bench::{make_task, train_config, Scale, Task};
use models::ModelKind;
use nn::Layer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{mix_seed, DriftModel, LogNormalDrift, McStats};
use serde_json::Value;

use crate::host;
use crate::measure::{run_rounds, Check, Measured, SETUPS};
use crate::pace::Steps;
use crate::probes::{self, EvalLog, Shape, TimedObjective};
use crate::stats::fnv64;
use crate::trace::{self, Tracer, ROOT};
use crate::PerLayer;

const SCALE: Scale = Scale::Medium;
/// Drift level the BayesFT objective targets (ladder {0, σ/2, σ}), as in
/// `bench::compare_methods`.
const TARGET_SIGMA: f32 = 0.9;
const SHAPE: Shape = Shape::LeNet {
    channels: 1,
    hw: 14,
    classes: 10,
};
const METHODS: [&str; 5] = ["ERM", "FTNA", "ReRAM-V", "AWP", "BayesFT"];

/// Seed of the digits data.
const TASK_SEED: u64 = 11;
/// Seed of the initial weights, the training shuffles and the search, as
/// in `bench::compare_methods`.
const MODEL_SEED: u64 = 42;

/// Seed of the figure cells' Monte-Carlo drift streams.
fn sweep_seed(seed: u64) -> u64 {
    mix_seed(seed, 0x5eed) % 1_000_000
}

fn lenet(classes: usize, seed: u64) -> Box<dyn Layer> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ModelKind::LeNet5.build(1, 14, classes, &mut rng)
}

/// Generate the digits task and warm the conv path with one untrained
/// evaluation.
fn set_up() -> Task {
    let task = make_task("digits", SCALE, TASK_SEED);
    let mut warm = TrainedModel {
        net: lenet(task.classes, 0),
        decoder: baselines::OutputDecoder::Softmax,
        method: "warm-up",
    };
    std::hint::black_box(warm.accuracy(&task.test));
    task
}

/// One figure cell.
#[derive(Debug, Clone)]
struct Cell {
    method: &'static str,
    sigma: f32,
    stats: McStats,
}

/// What one round produced.
struct Round {
    cells: Vec<Cell>,
    report: RunReport,
    engine_samples: u64,
    log: Option<EvalLog>,
}

/// Numbers the steps of a round and times each one.
struct Stepper<'a> {
    steps: &'a mut Steps,
    next: usize,
}

impl Stepper<'_> {
    fn time<R>(&mut self, job: bool, f: impl FnOnce() -> R) -> R {
        let index = self.next;
        self.next += 1;
        self.steps.time(index, job, &host::own_cpu_seconds, f)
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    tracer: &mut Tracer,
    st: &mut Stepper<'_>,
    job: u64,
    method: &'static str,
    model: &mut TrainedModel,
    task: &Task,
    trials: usize,
    seed: u64,
    cells: &mut Vec<Cell>,
) {
    for &sigma in &SIGMA_GRID {
        let mut point = st.time(true, || {
            tracer.span("baselines.sweep", job, |_| {
                accuracy_vs_sigma(model, &task.test, &[sigma], trials, seed)
            })
        });
        let (_, stats) = point.pop().expect("one σ in, one point out");
        cells.push(Cell {
            method,
            sigma,
            stats,
        });
    }
}

/// The five-method comparison, each call a timed step; spans are recorded
/// when `tracer` is on, and then the engine's objective is the timed
/// wrapper.
fn round(task: &Task, seed: u64, tracer: &mut Tracer, steps: &mut Steps, r: usize) -> Round {
    let ms = MODEL_SEED;
    let ss = sweep_seed(seed);
    let cfg = train_config(SCALE, ms);
    let trials = SCALE.mc_trials();
    let mut cells = Vec::with_capacity(METHODS.len() * SIGMA_GRID.len());
    let job = |m: usize| (r * METHODS.len() + m) as u64;
    let traced = tracer.enabled();
    steps.start_round();
    let mut st = Stepper { steps, next: 0 };
    tracer.span(ROOT, r as u64, |t| {
        // ERM
        let mut erm = st.time(false, || {
            let net = t.span("models.build", job(0), |_| lenet(task.classes, ms));
            t.span("baselines.train_erm", job(0), |_| {
                train_erm(net, &task.train, &cfg)
            })
        });
        sweep(
            t,
            &mut st,
            job(0),
            "ERM",
            &mut erm,
            task,
            trials,
            ss,
            &mut cells,
        );

        // FTNA
        let mut ftna = st.time(false, || {
            let cb = Codebook::hadamard(task.classes);
            let net = t.span("models.build", job(1), |_| lenet(cb.bits(), ms));
            t.span("baselines.train_ftna", job(1), |_| {
                train_ftna(net, &task.train, &cfg, cb)
            })
        });
        sweep(
            t,
            &mut st,
            job(1),
            "FTNA",
            &mut ftna,
            task,
            trials,
            ss,
            &mut cells,
        );

        // ReRAM-V: the ERM model, calibrated deployment.
        let reram_cfg = ReRamVConfig::default();
        for &sigma in &SIGMA_GRID {
            let stats = st.time(true, || {
                t.span("baselines.reram_v", job(2), |_| {
                    reram_v_accuracy(&mut erm, &task.test, sigma, trials, ss, &reram_cfg)
                })
            });
            cells.push(Cell {
                method: "ReRAM-V",
                sigma,
                stats,
            });
        }

        // AWP
        let mut awp = st.time(false, || {
            let net = t.span("models.build", job(3), |_| lenet(task.classes, ms));
            t.span("baselines.train_awp", job(3), |_| {
                train_awp(net, &task.train, &cfg, &AwpConfig::default())
            })
        });
        sweep(
            t,
            &mut st,
            job(3),
            "AWP",
            &mut awp,
            task,
            trials,
            ss,
            &mut cells,
        );

        // BayesFT through the engine, serial Monte-Carlo.
        let (result, log) = st.time(false, || {
            let net = t.span("models.build", job(4), |_| lenet(task.classes, ms));
            let builder = Engine::builder()
                .trials(SCALE.bo_trials())
                .epochs_per_trial((SCALE.epochs() / 3).max(1))
                .mc_samples(trials)
                .sigma(TARGET_SIGMA)
                .train(cfg.clone())
                .seed(ms)
                .parallelism(1);
            t.span("core.engine", job(4), |t| {
                if traced {
                    let ladder = DriftObjective::with_sigmas(
                        vec![0.0, TARGET_SIGMA / 2.0, TARGET_SIGMA],
                        trials,
                    );
                    let (objective, log) = TimedObjective::new(ladder);
                    let result = builder
                        .objective(objective)
                        .run(net, &task.train, &task.test)
                        .expect("engine run");
                    let log = std::mem::take(&mut *log.lock().expect("eval log poisoned"));
                    for &(s, e) in &log.intervals {
                        t.record("core.eval", job(4), s, e);
                    }
                    (result, Some(log))
                } else {
                    let result = builder
                        .run(net, &task.train, &task.test)
                        .expect("engine run");
                    (result, None)
                }
            })
        });
        let mut bft = result.model;
        sweep(
            t,
            &mut st,
            job(4),
            "BayesFT",
            &mut bft,
            task,
            trials,
            ss,
            &mut cells,
        );
        let report = result.report;
        // One objective call per trial over the three-level σ ladder.
        let engine_samples = (report.trials.len() * 3 * trials) as u64;
        Round {
            cells,
            report,
            engine_samples,
            log,
        }
    })
}

fn same_cells(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.method == y.method
                && x.sigma == y.sigma
                && x.stats.values.len() == y.stats.values.len()
                && x.stats
                    .values
                    .iter()
                    .zip(&y.stats.values)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Mean accuracy of `method` over the σ-grid points ≥ 0.6.
fn drift_acc(cells: &[Cell], method: &str) -> f64 {
    let hi: Vec<f64> = cells
        .iter()
        .filter(|c| c.method == method && c.sigma >= 0.6)
        .map(|c| f64::from(c.stats.mean))
        .collect();
    hi.iter().sum::<f64>() / hi.len() as f64
}

/// Digest of a round's outputs: every cell sample and the search's
/// trials and best architecture, bit for bit.
fn outputs_digest(r: &Round) -> String {
    let mut bytes = Vec::new();
    for c in &r.cells {
        for v in &c.stats.values {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    for t in &r.report.trials {
        bytes.extend(t.objective.to_bits().to_le_bytes());
        for a in &t.alpha {
            bytes.extend(a.to_bits().to_le_bytes());
        }
    }
    for a in &r.report.best_alpha {
        bytes.extend(a.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

fn round_samples(r: &Round) -> u64 {
    r.cells
        .iter()
        .map(|c| c.stats.values.len() as u64)
        .sum::<u64>()
        + r.engine_samples
}

/// The untraced measurement; also the first half of a traced run.
fn measure(seed: u64, seconds: f64) -> (Measured, Task, Round) {
    let mut m = Measured::default();
    let mut task = None;
    for _ in 0..SETUPS {
        m.setup.start_round();
        task = Some(m.setup.time(0, false, &host::own_cpu_seconds, set_up));
    }
    let task = task.expect("set up at least once");
    let pid = std::process::id();
    let mut first: Option<Round> = None;
    let mut mismatched = 0;
    let mut tracer = Tracer::new(false);
    run_rounds(seconds, 3, |r| {
        let out = round(&task, seed, &mut tracer, &mut m.steps, r);
        m.attempted += out.cells.len() as u64;
        m.mc_samples += round_samples(&out);
        match &first {
            None => first = Some(out),
            Some(f) => {
                if !(f.report.deterministic_eq(&out.report) && same_cells(&f.cells, &out.cells)) {
                    mismatched += 1;
                    m.failed += out.cells.len() as u64;
                }
            }
        }
        Ok(m.steps.jobs())
    })
    .expect("figure rounds do not fail");
    m.peak_rss_mb = host::peak_rss_mb(pid).unwrap_or(0.0);
    let first = first.expect("at least one round ran");
    m.best_objective = first.report.best_objective;
    m.output_digest = Some(outputs_digest(&first));
    m.checks.push(Check::new(
        "fig3-lenet: RunReport deterministic_eq and every cell bit-identical across rounds",
        mismatched == 0,
        format!("{} rounds, {mismatched} differed", m.steps.rounds()),
    ));
    m.checks.push(Check::new(
        "fig3-lenet: all five methods swept the full σ grid",
        first.cells.len() == METHODS.len() * SIGMA_GRID.len(),
        format!("{} cells", first.cells.len()),
    ));
    let bft = drift_acc(&first.cells, "BayesFT");
    let erm = drift_acc(&first.cells, "ERM");
    m.notes
        .push(("quality.bayesft_drift_acc".into(), bft, "ratio"));
    m.notes.push(("quality.erm_drift_acc".into(), erm, "ratio"));
    (m, task, first)
}

/// The untraced run.
pub fn untraced(seed: u64, seconds: f64) -> Result<Measured, String> {
    Ok(measure(seed, seconds).0)
}

/// The traced run: untraced rounds for half the time, traced rounds for
/// the other half, then the layer probes.
pub fn traced(seed: u64, seconds: f64, per_layer: &mut PerLayer) -> Result<Measured, String> {
    let (mut m, task, reference) = measure(seed, seconds / 2.0);
    let untraced_wall = m.steps.figures().raw_wall_s;
    let mut tracer = Tracer::new(true);
    let mut traced_steps = Steps::default();
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let r = rounds.len();
        rounds.push(round(&task, seed, &mut tracer, &mut traced_steps, r));
    }
    let n = rounds.len() as f64;
    m.checks.push(Check::new(
        "fig3-lenet: traced rounds (timed objective) reproduce the untraced report and cells",
        rounds.iter().all(|r| {
            r.report.deterministic_eq(&reference.report) && same_cells(&r.cells, &reference.cells)
        }),
        format!("{} traced rounds", rounds.len()),
    ));
    let logs: Vec<&EvalLog> = rounds.iter().filter_map(|r| r.log.as_ref()).collect();
    let wrapped: u64 = logs.iter().map(|l| l.samples).sum();
    let computed: u64 = rounds.iter().map(|r| r.engine_samples).sum();
    m.checks.push(Check::new(
        "fig3-lenet: computed engine MC samples equal the objective's count",
        wrapped == computed,
        format!("computed {computed}, counted {wrapped}"),
    ));

    let spans = tracer.spans();
    crate::attribution_metrics(per_layer, spans, untraced_wall, n);
    let per_round_ms = |name: &str| trace::duration_of(spans, name) * 1e3 / n;
    per_layer.set(
        "baselines.train_erm_ms",
        per_round_ms("baselines.train_erm"),
    );
    per_layer.set(
        "baselines.train_ftna_ms",
        per_round_ms("baselines.train_ftna"),
    );
    per_layer.set(
        "baselines.train_awp_ms",
        per_round_ms("baselines.train_awp"),
    );
    per_layer.set("baselines.reram_v_ms", per_round_ms("baselines.reram_v"));
    per_layer.set(
        "baselines.sweep_ms",
        per_round_ms("baselines.sweep") + per_round_ms("baselines.reram_v"),
    );
    let timings = |f: fn(&RunReport) -> f64| rounds.iter().map(|r| f(&r.report)).sum::<f64>() / n;
    per_layer.set("core.suggest_ms", timings(|r| r.timings.suggest_ms));
    per_layer.set("core.train_ms", timings(|r| r.timings.train_ms));
    per_layer.set("core.eval_ms", timings(|r| r.timings.eval_ms));
    per_layer.set("core.finetune_ms", timings(|r| r.timings.finetune_ms));
    let traced_wall = trace::attribute(spans).traced_wall;
    per_layer.set(
        "core.eval_share",
        trace::self_time_of(spans, "core.eval") / traced_wall,
    );
    let evals: usize = logs.iter().map(|l| l.intervals.len()).sum();
    per_layer.set("core.eval_calls", evals as f64 / n);
    per_layer.set("core.engine_runs", 1.0);
    let allocs: u64 = logs.iter().map(|l| l.allocs).sum();
    let bytes: u64 = logs.iter().map(|l| l.alloc_bytes).sum();
    per_layer.set("core.allocs_per_mc_sample", allocs as f64 / wrapped as f64);
    per_layer.set(
        "core.alloc_bytes_per_mc_sample",
        bytes as f64 / wrapped as f64,
    );
    let trials = reference.report.trials.len() as f64;
    per_layer.set(
        "bayesopt.suggest_ms_per_call",
        timings(|r| r.timings.suggest_ms) / trials,
    );

    let samples = round_samples(&reference);
    let test_len = task.test.len() as u64;
    per_layer.set("work.mc_samples", samples as f64);
    per_layer.set("work.scenarios", 1.0);
    per_layer.set("work.jobs", reference.cells.len() as f64);
    per_layer.set(
        "reram.weights_perturbed",
        (samples * SHAPE.param_count() as u64) as f64,
    );
    per_layer.set(
        "tensor.gemm_flops",
        (samples * test_len * SHAPE.gemm_flops_per_input()) as f64,
    );
    per_layer.set(
        "tensor.im2col_bytes",
        (samples * test_len * SHAPE.im2col_bytes_per_input()) as f64,
    );
    per_layer.set(
        "quality.bayesft_drift_acc",
        drift_acc(&reference.cells, "BayesFT"),
    );
    per_layer.set("quality.erm_drift_acc", drift_acc(&reference.cells, "ERM"));

    // Layer probes on this workload's LeNet and drift models.
    let cfg = train_config(SCALE, MODEL_SEED);
    let mut trained = train_erm(lenet(task.classes, MODEL_SEED), &task.train, &cfg);
    per_layer.set(
        "nn.forward_us_per_sample",
        probes::forward_probe(trained.net.as_mut(), &task.test, false),
    );
    per_layer.set(
        "nn.train_epoch_ms",
        probes::train_epoch_probe(trained.net.as_ref(), &task.train),
    );
    per_layer.set("tensor.gemm_gflops", SHAPE.gemm_gflops(32));
    let faults: Vec<std::sync::Arc<dyn DriftModel>> = SIGMA_GRID
        .iter()
        .filter(|&&s| s > 0.0)
        .map(|&s| std::sync::Arc::new(LogNormalDrift::new(s)) as std::sync::Arc<dyn DriftModel>)
        .collect();
    let mut nets = vec![trained.net];
    let (us, ns) = probes::inject_probe(&mut nets, &faults);
    per_layer.set("reram.inject_us_per_sample", us);
    per_layer.set("reram.ns_per_weight", ns);

    let dir = Path::new(".perfbench").join(format!("fig3-lenet-{}", std::process::id()));
    crate::write_trace(&dir, &tracer);
    Ok(m)
}

/// The workload's full config, for the result record.
pub fn config(seed: u64) -> Value {
    let mut v = Value::object();
    v.insert("seed", seed);
    v.insert("task", "digits");
    v.insert("task_seed", TASK_SEED);
    v.insert("model", "LeNet-5 (1x14x14, 10 classes)");
    v.insert("model_seed", MODEL_SEED);
    v.insert("sweep_seed", sweep_seed(seed));
    v.insert("scale", "Medium");
    v.insert("per_class", SCALE.per_class(10));
    v.insert("epochs", SCALE.epochs());
    v.insert("mc_trials", SCALE.mc_trials());
    v.insert("bo_trials", SCALE.bo_trials());
    v.insert("target_sigma", TARGET_SIGMA);
    v.insert("sigma_grid", SIGMA_GRID.to_vec());
    v.insert(
        "methods",
        METHODS.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
    );
    v.insert("parallelism", 1usize);
    v
}
