//! `campaign-mc`: a serial 12-scenario campaign (4 fault mixes × 3 tasks)
//! through `CampaignRunner::run_campaign_report` into a fresh store.
//!
//! Why: the ROADMAP unit of record. Engine eval (fault injection plus MLP
//! forward passes) and training dominate; conv kernels are bypassed, so a
//! `reram` or `core::objective` change shows here and a conv-kernel change
//! should not.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use baselines::TrainConfig;
use bayesft::{DriftObjective, Engine, RunReport, SharedDropoutSpace};
use datasets::ClassificationDataset;
use models::{Mlp, MlpConfig};
use nn::Layer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::mix_seed;
use scenarios::{
    Campaign, CampaignRunner, ResultStore, RunControl, Scenario, ScenarioOutcome, ScenarioRun,
    SpaceKind, TaskKind,
};
use serde_json::Value;

use crate::host;
use crate::measure::{run_rounds, work_dir, Check, Measured, SETUPS};
use crate::pace::Steps;
use crate::probes::{self, Shape, TimedObjective};
use crate::stats::fnv64;
use crate::trace::{self, Tracer, ROOT};
use crate::PerLayer;

/// The fault mixes of `examples/campaign.json`, with its search spaces.
pub(crate) const FAULT_MIXES: [(&[&str], &str); 4] = [
    (&["lognormal:0.6"], "per_layer"),
    (&["stuckat:0.05,0.02,2", "bitflip:0.002"], "per_layer"),
    (&["quantize:16+lognormal:0.4+devvar:0.1"], "shared"),
    (&["gaussian:0.15", "uniformread:0.1"], "per_layer"),
];

/// The three tasks, in campaign order within each fault mix.
const TASKS: [&str; 3] = [
    r#"{"kind": "moons", "samples": 240, "noise": 0.1}"#,
    r#"{"kind": "digits", "per_class": 10}"#,
    r#"{"kind": "shapes", "per_class": 10}"#,
];

/// Fixed budgets: trials, MC samples, epochs per trial, final epochs.
const BUDGETS: (usize, usize, usize, usize) = (6, 6, 3, 3);

/// The campaign document for `seed`: the only input the program gets.
pub fn campaign_json(seed: u64) -> String {
    let (trials, mc, epochs, final_epochs) = BUDGETS;
    let mut scenarios = Vec::new();
    for (m, (faults, space)) in FAULT_MIXES.iter().enumerate() {
        for (t, task) in TASKS.iter().enumerate() {
            let faults: Vec<String> = faults.iter().map(|f| format!("\"{f}\"")).collect();
            scenarios.push(format!(
                r#"{{"name": "mix{m}-task{t}", "faults": [{}], "task": {task}, "space": "{space}", "trials": {trials}, "mc_samples": {mc}, "epochs_per_trial": {epochs}, "final_epochs": {final_epochs}, "seed": {}}}"#,
                faults.join(", "),
                mix_seed(seed, (m * 3 + t) as u64) % 1_000_000,
            ));
        }
    }
    format!(
        r#"{{"name": "perfbench-campaign-mc", "scenarios": [{}]}}"#,
        scenarios.join(", ")
    )
}

/// Monte-Carlo samples a scenario's engine run evaluates: one objective
/// call per trial, `mc_samples` per fault model.
fn scenario_samples(sc: &Scenario) -> u64 {
    (sc.trials * sc.faults.len() * sc.mc_samples) as u64
}

/// The MLP a scenario's task trains, as `scenarios` builds it.
fn shape_of(task: TaskKind) -> Shape {
    let (input, classes) = match task {
        TaskKind::Moons { .. } => (2, 2),
        TaskKind::Digits { .. } => (14 * 14, 10),
        TaskKind::Shapes { .. } => (3 * 16 * 16, 10),
    };
    let hidden = if input <= 2 { 16 } else { 32 };
    Shape::Mlp {
        input,
        hidden,
        classes,
    }
}

/// Validation-set size of a scenario (the 20 % split of its data).
fn val_len(task: TaskKind) -> usize {
    let total = match task {
        TaskKind::Moons { samples, .. } => samples,
        TaskKind::Digits { per_class } | TaskKind::Shapes { per_class } => 10 * per_class,
    };
    total - (total as f64 * 0.8).round() as usize
}

struct Setup {
    campaign: Campaign,
    store: ResultStore,
}

/// Parse the generated campaign, open a fresh store, and warm up with the
/// first scenario at smoke budgets on a throwaway runner.
fn set_up(seed: u64, dir: &Path) -> Setup {
    let campaign =
        Campaign::from_json_str(&campaign_json(seed)).expect("generated campaign parses");
    let path = dir.join("store.jsonl");
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::open(path);
    let warm = campaign.scenarios[0].clamped_quick();
    CampaignRunner::new()
        .parallelism(1)
        .shards(1)
        .run_scenario(&warm)
        .expect("warm-up scenario runs");
    Setup { campaign, store }
}

/// Compacts the store and digests its canonical bytes.
fn compacted_digest(store: &ResultStore) -> (String, u64) {
    store.compact().expect("compaction succeeds");
    let bytes = std::fs::read(store.path()).expect("read the compacted store");
    (fnv64(&bytes), bytes.len() as u64)
}

fn fresh_store(store: &ResultStore) {
    let _ = std::fs::remove_file(store.path());
}

/// What one untraced round produced.
struct RoundOut {
    runs: Vec<ScenarioRun>,
    failed: usize,
    digest: String,
}

/// One untraced round: the runner's campaign, each scenario a step timed
/// from the previous scenario's end to its own (observer callbacks). The
/// runner calls the observer before it appends the scenario to the store,
/// so each step holds the previous scenario's append and fsync, and one
/// last step, from the final callback to the campaign's return, holds the
/// final scenario's.
fn untraced_round(setup: &Setup, steps: &mut Steps) -> RoundOut {
    fresh_store(&setup.store);
    let runner = CampaignRunner::new().parallelism(1).shards(1);
    steps.start_round();
    let state = Mutex::new((Instant::now(), host::own_cpu_seconds(), steps));
    let observer = |run: &ScenarioRun| {
        let mut st = state.lock().expect("step state poisoned");
        let wall = st.0.elapsed().as_secs_f64();
        let cpu = host::own_cpu_seconds() - st.1;
        st.2.record(run.index, true, wall, cpu);
        st.0 = Instant::now();
        st.1 = host::own_cpu_seconds();
    };
    state.lock().expect("step state poisoned").0 = Instant::now();
    let report = runner
        .run_campaign_report_with(
            &setup.campaign,
            Some(&setup.store),
            RunControl {
                observer: Some(&observer),
                ..RunControl::default()
            },
        )
        .expect("campaign persists");
    let st = state.into_inner().expect("step state poisoned");
    let tail = (st.0.elapsed().as_secs_f64(), host::own_cpu_seconds() - st.1);
    st.2.record(setup.campaign.scenarios.len(), false, tail.0, tail.1);
    let (digest, _) = compacted_digest(&setup.store);
    RoundOut {
        failed: report.failed + (report.total - report.completed - report.failed),
        runs: report.runs,
        digest,
    }
}

fn reports(runs: &[ScenarioRun]) -> Vec<Option<RunReport>> {
    runs.iter()
        .map(|r| r.result.as_ref().ok().map(|o| o.report.clone()))
        .collect()
}

/// The untraced measurement, also the first half of a traced run.
fn measure(seed: u64, seconds: f64, dir: &Path) -> (Measured, Setup, Vec<RunReport>, String) {
    let mut m = Measured::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        m.setup.start_round();
        setup = Some(
            m.setup
                .time(0, false, &host::own_cpu_seconds, || set_up(seed, dir)),
        );
    }
    let setup = setup.expect("set up at least once");
    let total = setup.campaign.scenarios.len();
    let samples_per_round: u64 = setup.campaign.scenarios.iter().map(scenario_samples).sum();

    let mut first: Option<(String, Vec<Option<RunReport>>)> = None;
    let mut digest_mismatches = 0;
    let mut report_mismatches = 0;
    run_rounds(seconds, 3, |_| {
        let out = untraced_round(&setup, &mut m.steps);
        m.attempted += total as u64;
        m.failed += out.failed as u64;
        m.mc_samples += samples_per_round;
        let these = reports(&out.runs);
        match &first {
            None => {
                let objectives: Vec<f64> = out
                    .runs
                    .iter()
                    .filter_map(|r| r.result.as_ref().ok())
                    .map(|o| o.report.best_objective)
                    .collect();
                m.best_objective = objectives.iter().sum::<f64>() / objectives.len().max(1) as f64;
                first = Some((out.digest, these));
            }
            Some((digest, reference)) => {
                let same_digest = *digest == out.digest;
                let same_reports = reference.iter().zip(&these).all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a.deterministic_eq(b),
                    _ => false,
                });
                digest_mismatches += usize::from(!same_digest);
                report_mismatches += usize::from(!same_reports);
                if !(same_digest && same_reports) {
                    m.failed += total as u64;
                }
            }
        }
        Ok(m.steps.jobs())
    })
    .expect("campaign rounds do not fail");
    m.peak_rss_mb = host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let (digest, reference) = first.expect("at least one round ran");
    m.output_digest = Some(digest.clone());
    m.checks.push(Check::new(
        "campaign-mc: compacted store digest identical across rounds",
        digest_mismatches == 0,
        format!(
            "digest {digest}, {} rounds, {digest_mismatches} mismatched",
            m.steps.rounds()
        ),
    ));
    m.checks.push(Check::new(
        "campaign-mc: RunReports deterministic_eq across rounds",
        report_mismatches == 0,
        format!("{report_mismatches} rounds differed"),
    ));
    let reference: Vec<RunReport> = reference.into_iter().flatten().collect();
    m.checks.push(Check::new(
        "campaign-mc: every scenario completed",
        reference.len() == total,
        format!("{} of {total}", reference.len()),
    ));
    (m, setup, reference, digest)
}

/// Seed streams of `scenarios::runner` (dataset, init, shuffler). The
/// traced replica must match them; the report and store-digest checks
/// prove it does.
const DATA_STREAM: u64 = 0xda7a;
const INIT_STREAM: u64 = 0x1417;
const TRAIN_STREAM: u64 = 0x7124;

/// The runner's task construction, replicated so the traced run can wrap
/// the objective and time each stage.
fn build_task(sc: &Scenario) -> (ClassificationDataset, ClassificationDataset, Box<dyn Layer>) {
    let mut data_rng = ChaCha8Rng::seed_from_u64(mix_seed(sc.seed, DATA_STREAM));
    let mut init_rng = ChaCha8Rng::seed_from_u64(mix_seed(sc.seed, INIT_STREAM));
    let data = match sc.task {
        TaskKind::Moons { samples, noise } => datasets::moons(samples, noise, &mut data_rng),
        TaskKind::Digits { per_class } => datasets::digits(per_class, &mut data_rng),
        TaskKind::Shapes { per_class } => datasets::shapes(per_class, &mut data_rng),
    };
    let (train, val) = data.split(0.8, &mut data_rng);
    let Shape::Mlp {
        input,
        hidden,
        classes,
    } = shape_of(sc.task)
    else {
        unreachable!("campaign tasks train MLPs")
    };
    let net = Box::new(Mlp::new(
        &MlpConfig::new(input, classes).hidden(hidden),
        &mut init_rng,
    ));
    (train, val, net)
}

/// Per-round accumulators of a traced run.
#[derive(Default)]
struct TracedTotals {
    reports: Vec<RunReport>,
    samples: u64,
    evals: u64,
    allocs: u64,
    alloc_bytes: u64,
    store_appends: u64,
    store_bytes: u64,
    digest: String,
}

fn traced_round(setup: &Setup, tracer: &mut Tracer, round: usize) -> TracedTotals {
    fresh_store(&setup.store);
    let campaign = &setup.campaign;
    let total = campaign.scenarios.len();
    let mut out = TracedTotals::default();
    tracer.span(ROOT, round as u64, |t| {
        for (i, sc) in campaign.scenarios.iter().enumerate() {
            let job = (round * total + i) as u64;
            t.span("scenarios.scenario", job, |t| {
                let started = Instant::now();
                let (train, val, mut net) = t.span("datasets.build_task", job, |_| build_task(sc));
                let digest = sc.digest();
                let objective = DriftObjective::from_specs(&sc.faults, sc.mc_samples)
                    .expect("campaign fault specs build");
                let (objective, log) = TimedObjective::new(objective);
                let result = t.span("core.engine", job, |t| {
                    let mut builder = Engine::builder()
                        .objective(objective)
                        .trials(sc.trials)
                        .epochs_per_trial(sc.epochs_per_trial)
                        .final_epochs(sc.final_epochs)
                        .seed(sc.seed)
                        .parallelism(1)
                        .train(TrainConfig {
                            seed: mix_seed(sc.seed, TRAIN_STREAM),
                            ..TrainConfig::default()
                        });
                    if sc.space == SpaceKind::Shared {
                        builder = builder.space(SharedDropoutSpace::probe(net.as_mut()));
                    }
                    let result = builder.run(net, &train, &val).expect("engine run");
                    let log = log.lock().expect("eval log poisoned");
                    for &(s, e) in &log.intervals {
                        t.record("core.eval", job, s, e);
                    }
                    out.samples += log.samples;
                    out.evals += log.intervals.len() as u64;
                    out.allocs += log.allocs;
                    out.alloc_bytes += log.alloc_bytes;
                    result
                });
                let report = result
                    .report
                    .with_scenario(sc.name.clone(), digest.clone())
                    .with_campaign_position(i, total);
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let outcome = ScenarioOutcome {
                    scenario: sc.clone(),
                    digest,
                    report: report.clone(),
                    from_cache: false,
                    from_store: false,
                    wall_ms,
                    compute_wall_ms: wall_ms,
                    shard: 0,
                };
                t.span("scenarios.store_append", job, |_| {
                    setup
                        .store
                        .append(&campaign.name, &outcome)
                        .expect("store append")
                });
                out.reports.push(report);
            });
        }
    });
    out.store_appends = total as u64;
    let (digest, bytes) = compacted_digest(&setup.store);
    out.digest = digest;
    out.store_bytes = bytes;
    out
}

/// The traced run: untraced rounds for half the time (the overhead
/// baseline), traced rounds for the other half, then the layer probes.
pub fn traced(seed: u64, seconds: f64, per_layer: &mut PerLayer) -> Result<Measured, String> {
    let dir = work_dir("campaign-mc");
    let (mut m, setup, reference, digest) = measure(seed, seconds / 2.0, &dir);
    let untraced_wall = m.steps.figures().raw_wall_s;
    let mut tracer = Tracer::new(true);
    let mut rounds: Vec<TracedTotals> = Vec::new();
    let started = Instant::now();
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let r = rounds.len();
        rounds.push(traced_round(&setup, &mut tracer, r));
    }
    let n = rounds.len() as f64;
    let per_round = |f: &dyn Fn(&TracedTotals) -> f64| rounds.iter().map(f).sum::<f64>() / n;

    let replica_ok = rounds.iter().all(|r| {
        r.digest == digest
            && r.reports.len() == reference.len()
            && r.reports
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.deterministic_eq(b))
    });
    m.checks.push(Check::new(
        "campaign-mc: traced replica reproduces the runner's reports and store digest",
        replica_ok,
        format!("{} traced rounds against digest {digest}", rounds.len()),
    ));
    let computed: u64 = setup.campaign.scenarios.iter().map(scenario_samples).sum();
    m.checks.push(Check::new(
        "campaign-mc: computed MC samples equal the objective's count",
        rounds.iter().all(|r| r.samples == computed),
        format!("computed {computed} per round"),
    ));

    let spans = tracer.spans();
    crate::attribution_metrics(per_layer, spans, untraced_wall, n);
    let timing = |f: fn(&RunReport) -> f64| per_round(&|r| r.reports.iter().map(f).sum());
    per_layer.set("core.suggest_ms", timing(|r| r.timings.suggest_ms));
    per_layer.set("core.train_ms", timing(|r| r.timings.train_ms));
    per_layer.set("core.eval_ms", timing(|r| r.timings.eval_ms));
    per_layer.set("core.finetune_ms", timing(|r| r.timings.finetune_ms));
    let eval_self = trace::self_time_of(spans, "core.eval");
    per_layer.set(
        "core.eval_share",
        eval_self / trace::attribute(spans).traced_wall,
    );
    per_layer.set("core.eval_calls", per_round(&|r| r.evals as f64));
    let samples: u64 = rounds.iter().map(|r| r.samples).sum();
    let allocs: u64 = rounds.iter().map(|r| r.allocs).sum();
    let alloc_bytes: u64 = rounds.iter().map(|r| r.alloc_bytes).sum();
    per_layer.set("core.allocs_per_mc_sample", allocs as f64 / samples as f64);
    per_layer.set(
        "core.alloc_bytes_per_mc_sample",
        alloc_bytes as f64 / samples as f64,
    );
    let trials: usize = rounds[0].reports.iter().map(|r| r.trials.len()).sum();
    per_layer.set(
        "bayesopt.suggest_ms_per_call",
        timing(|r| r.timings.suggest_ms) / trials as f64,
    );
    per_layer.set(
        "scenarios.scenario_ms",
        (trace::self_time_of(spans, "scenarios.scenario")
            + trace::self_time_of(spans, "datasets.build_task"))
            * 1e3
            / n,
    );
    per_layer.set(
        "scenarios.store_append_ms",
        trace::duration_of(spans, "scenarios.store_append") * 1e3 / n,
    );
    per_layer.set(
        "scenarios.store_appends",
        per_round(&|r| r.store_appends as f64),
    );
    per_layer.set(
        "scenarios.store_bytes",
        per_round(&|r| r.store_bytes as f64),
    );
    per_layer.set("scenarios.cache_hit_ratio", 0.0);

    // Work counts per round, computed from the spec and the model shapes.
    let scenarios = &setup.campaign.scenarios;
    let weights: u64 = scenarios
        .iter()
        .map(|sc| scenario_samples(sc) * shape_of(sc.task).param_count() as u64)
        .sum();
    let flops: u64 = scenarios
        .iter()
        .map(|sc| {
            scenario_samples(sc)
                * val_len(sc.task) as u64
                * shape_of(sc.task).gemm_flops_per_input()
        })
        .sum();
    per_layer.set("work.mc_samples", computed as f64);
    per_layer.set("work.scenarios", scenarios.len() as f64);
    per_layer.set("work.jobs", scenarios.len() as f64);
    per_layer.set("core.engine_runs", scenarios.len() as f64);
    per_layer.set("reram.weights_perturbed", weights as f64);
    per_layer.set("tensor.gemm_flops", flops as f64);
    per_layer.set("tensor.im2col_bytes", 0.0);

    // Layer probes on the workload's three MLPs and its fault models.
    let mut nets = Vec::new();
    let mut gflops = Vec::new();
    let mut forward = Vec::new();
    let mut epoch = Vec::new();
    // The first fault mix covers each task once.
    for sc in &scenarios[..TASKS.len()] {
        let (train, val, mut net) = build_task(sc);
        let shape = shape_of(sc.task);
        forward.push(probes::forward_probe(net.as_mut(), &val, true));
        epoch.push(probes::train_epoch_probe(net.as_ref(), &train));
        gflops.push(shape.gemm_gflops(32));
        nets.push(net);
    }
    let faults: Vec<_> = FAULT_MIXES
        .iter()
        .flat_map(|(specs, _)| specs.iter())
        .map(|s| {
            s.parse::<reram::FaultSpec>()
                .expect("fault spec parses")
                .build_arc()
                .expect("fault model builds")
        })
        .collect();
    let (us, ns) = probes::inject_probe(&mut nets, &faults);
    per_layer.set("reram.inject_us_per_sample", us);
    per_layer.set("reram.ns_per_weight", ns);
    per_layer.set(
        "nn.forward_us_per_sample",
        forward.iter().sum::<f64>() / forward.len() as f64,
    );
    per_layer.set(
        "nn.train_epoch_ms",
        epoch.iter().sum::<f64>() / epoch.len() as f64,
    );
    per_layer.set(
        "tensor.gemm_gflops",
        gflops.iter().sum::<f64>() / gflops.len() as f64,
    );

    crate::write_trace(&dir, &tracer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(m)
}

/// The untraced run.
pub fn untraced(seed: u64, seconds: f64) -> Result<Measured, String> {
    let dir = work_dir("campaign-mc");
    let (m, _, _, _) = measure(seed, seconds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(m)
}

/// The workload's full config, for the result record.
pub fn config(seed: u64) -> Value {
    let mut v = Value::object();
    v.insert("seed", seed);
    v.insert("runner", "CampaignRunner::new().parallelism(1).shards(1)");
    let (trials, mc, epochs, final_epochs) = BUDGETS;
    let mut budgets = Value::object();
    budgets.insert("trials", trials);
    budgets.insert("mc_samples", mc);
    budgets.insert("epochs_per_trial", epochs);
    budgets.insert("final_epochs", final_epochs);
    v.insert("budgets", budgets);
    v.insert(
        "campaign",
        serde_json::from_str(&campaign_json(seed)).expect("generated campaign is JSON"),
    );
    v
}
