//! `perfbench` — the end-to-end and per-layer benchmark of the BayesFT
//! workspace. See `perfbench/README.md` for the metrics, the workloads
//! and why each was chosen.
//!
//! ```text
//! perfbench --workload <campaign-mc|fig3-lenet|serve-jobs|all> [--seed <n>]
//!           [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable report, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced (`--trace 0`), or the per-layer metrics from a traced run
//! (`--trace 1`). `all` runs the three workloads in turn, each with its
//! report and result line. Exits non-zero when a correctness check fails.

mod alloc;
mod campaign_mc;
mod fig3_lenet;
mod host;
mod measure;
mod pace;
mod probes;
mod serve_jobs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use measure::{checks_json, Check};
use trace::{Span, Tracer};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Default workload seed; [`HELD_OUT_SEED`] confirms later claims on
/// inputs no change was tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for held-out confirmation.
pub const HELD_OUT_SEED: u64 = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["campaign-mc", "fig3-lenet", "serve-jobs"];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.closure_error_ms", "ms"),
    ("self_ms.scenarios", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.baselines", "ms"),
    ("self_ms.models", "ms"),
    ("self_ms.datasets", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.residual", "ms"),
    ("work.mc_samples", "count"),
    ("work.scenarios", "count"),
    ("work.jobs", "count"),
    ("scenarios.scenario_ms", "ms"),
    ("scenarios.store_append_ms", "ms"),
    ("scenarios.store_appends", "count"),
    ("scenarios.store_bytes", "B"),
    ("scenarios.cache_hit_ratio", "ratio"),
    ("core.suggest_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.finetune_ms", "ms"),
    ("core.eval_share", "ratio"),
    ("core.eval_calls", "count"),
    ("core.allocs_per_mc_sample", "count"),
    ("core.alloc_bytes_per_mc_sample", "B"),
    ("reram.inject_us_per_sample", "us"),
    ("reram.weights_perturbed", "count"),
    ("reram.ns_per_weight", "ns"),
    ("nn.forward_us_per_sample", "us"),
    ("nn.train_epoch_ms", "ms"),
    ("tensor.gemm_flops", "flop"),
    ("tensor.im2col_bytes", "B"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("baselines.train_erm_ms", "ms"),
    ("baselines.train_ftna_ms", "ms"),
    ("baselines.train_awp_ms", "ms"),
    ("baselines.reram_v_ms", "ms"),
    ("baselines.sweep_ms", "ms"),
    ("bayesopt.suggest_ms_per_call", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.refusals", "count"),
    ("quality.erm_drift_acc", "ratio"),
    ("quality.bayesft_drift_acc", "ratio"),
    ("core.engine_runs", "count"),
    ("trace.spans", "count"),
];

/// The per-layer metric values of a traced run, every name pre-set to 0,
/// and the self-time table printed with them.
pub struct PerLayer {
    values: BTreeMap<&'static str, f64>,
    table: Vec<String>,
}

impl PerLayer {
    fn new() -> Self {
        PerLayer {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            table: Vec::new(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }
}

/// Fills the attribution metrics shared by every workload: traced wall,
/// overhead, per-layer self times per round, residual and span count.
pub fn attribution_metrics(
    per_layer: &mut PerLayer,
    spans: &[Span],
    untraced_wall: f64,
    rounds: f64,
) {
    let a = trace::attribute(spans);
    let traced_wall: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::ROOT)
        .map(|s| s.end - s.start)
        .collect();
    let traced_median = stats::median(&traced_wall);
    per_layer.set("trace.wall_s", traced_median);
    per_layer.set("trace.untraced_wall_s", untraced_wall);
    per_layer.set("trace.overhead_s", traced_median - untraced_wall);
    per_layer.set("trace.residual_share", a.residual / a.traced_wall);
    per_layer.set("trace.closure_error_ms", a.closure_error() * 1e3);
    per_layer.set("trace.spans", spans.len() as f64);
    for (layer, secs) in &a.layers {
        let name = match layer.as_str() {
            "scenarios" => "self_ms.scenarios",
            "core" => "self_ms.core",
            "baselines" => "self_ms.baselines",
            "models" => "self_ms.models",
            "datasets" => "self_ms.datasets",
            "serve" => "self_ms.serve",
            other => panic!("span layer {other} has no self-time metric"),
        };
        per_layer.set(name, secs * 1e3 / rounds);
    }
    per_layer.set("self_ms.residual", a.residual * 1e3 / rounds);
    per_layer.table.push(format!(
        "self-time shares of the traced wall ({:.3} s over {rounds} rounds, residual included; \
         layers + residual - wall = {:.2e} s):",
        a.traced_wall,
        a.closure_error()
    ));
    for (layer, share) in a.shares() {
        per_layer
            .table
            .push(format!("  {layer:<12} {:>6.1} %", share * 100.0));
    }
}

/// Writes the recorded spans next to the run's other files.
pub fn write_trace(dir: &Path, tracer: &Tracer) {
    let path = dir.with_extension("trace.json");
    let written = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&tracer.to_json())));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 100.0) {
                    return Err("--seconds must be in (0, 100]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

const RESULTS: &str = ".perfbench/results.jsonl";

/// The result records earlier runs in this checkout appended.
fn previous_records() -> Vec<Value> {
    std::fs::read_to_string(RESULTS)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .collect()
}

/// Appends the run's record to `.perfbench/results.jsonl`, marked with
/// whether the previous record there came from a different host; returns
/// that mark.
fn record(record: &mut Value, fingerprint: &str, previous: &[Value]) -> bool {
    let mismatch = previous
        .last()
        .and_then(|v| {
            v.get("host")?
                .get("fingerprint")?
                .as_str()
                .map(str::to_string)
        })
        .is_some_and(|p| p != fingerprint);
    record.insert("host_mismatch", mismatch);
    let line = serde_json::to_string(record) + "\n";
    let written = std::fs::create_dir_all(".perfbench").and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(RESULTS)
            .and_then(|mut f| f.write_all(line.as_bytes()))
    });
    if let Err(e) = written {
        eprintln!("warning: could not append {RESULTS}: {e}");
    }
    mismatch
}

/// Runs one workload, prints its report and result line, and returns
/// whether every check held.
fn run(workload: &str, args: &Args, campaign_exe: &Path, host: &host::HostStamp) -> bool {
    let config = match workload {
        "campaign-mc" => campaign_mc::config(args.seed),
        "fig3-lenet" => fig3_lenet::config(args.seed),
        _ => serve_jobs::config(args.seed),
    };
    let mut per_layer = PerLayer::new();
    let measured = match (workload, args.trace) {
        ("campaign-mc", false) => campaign_mc::untraced(args.seed, args.seconds),
        ("campaign-mc", true) => campaign_mc::traced(args.seed, args.seconds, &mut per_layer),
        ("fig3-lenet", false) => fig3_lenet::untraced(args.seed, args.seconds),
        ("fig3-lenet", true) => fig3_lenet::traced(args.seed, args.seconds, &mut per_layer),
        (_, false) => serve_jobs::untraced(args.seed, args.seconds, campaign_exe),
        (_, true) => serve_jobs::traced(args.seed, args.seconds, campaign_exe, &mut per_layer),
    };
    let mut measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return false;
        }
    };
    let previous = previous_records();
    // Outputs that differ from an earlier run of the same seed in this
    // checkout are flagged, not failed: the program may have changed in
    // between. Within a run, every round must repeat exactly (checked above).
    let earlier_digest = measured.output_digest.as_ref().and_then(|_| {
        previous.iter().rev().find_map(|v| {
            let same =
                v.get("workload")?.as_str()? == workload && v.get("seed")?.as_u64()? == args.seed;
            same.then(|| v.get("output_digest")?.as_str().map(str::to_string))?
        })
    });
    let outputs_changed = earlier_digest.is_some() && earlier_digest != measured.output_digest;
    let e2e = measured.end_to_end();
    let figures = measured.steps.figures();
    measured.checks.push(Check::new(
        "p50 and p90 job latency each have >= 10 jobs beyond them",
        !e2e["job_latency_p90_ms"].0.is_nan(),
        format!("{} job latencies", figures.latency_ms.len()),
    ));
    let correct = measured.correct();

    println!(
        "perfbench {workload} seed {} ({}s)",
        args.seed, args.seconds
    );
    println!(
        "host: {} | nproc {} | {} | calibration {:.3} ms",
        host.cpu_model,
        host.nproc,
        host.features.join(","),
        host.calibration_s * 1e3
    );
    println!(
        "set-up x{}, {} rounds; median pace {:.1} us (reference {:.1} us); as measured: \
         wall {:.6} s, cpu {:.6} s",
        measured.setup.rounds(),
        measured.steps.rounds(),
        figures.pace_s * 1e6,
        pace::REFERENCE_PACE_S * 1e6,
        figures.raw_wall_s,
        figures.raw_cpu_s
    );
    for (name, (value, unit)) in &e2e {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    for (name, value, unit) in &measured.notes {
        println!("  {name:<26} {value:>14.6} {unit}   (not gated)");
    }
    if args.trace {
        println!("per-layer (traced run, per round unless the name says otherwise):");
        for &(name, unit) in &PER_LAYER {
            println!("  {name:<32} {:>16.6} {unit}", per_layer.values[name]);
        }
        for line in &per_layer.table {
            println!("{line}");
        }
    }
    for c in &measured.checks {
        println!(
            "  [{}] {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }

    let mut metrics = Value::object();
    let mut out = |name: &str, value: f64, unit: &str| {
        let mut m = Value::object();
        m.insert("value", value);
        m.insert("unit", unit);
        metrics.insert(name, m);
    };
    if args.trace {
        for &(name, unit) in &PER_LAYER {
            out(name, per_layer.values[name], unit);
        }
    } else {
        for (name, (value, unit)) in &e2e {
            out(name, *value, unit);
        }
    }

    let mut rec = Value::object();
    rec.insert("workload", workload);
    rec.insert("seed", args.seed);
    let role = match args.seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    };
    rec.insert("seed_role", role);
    rec.insert("seconds", args.seconds);
    rec.insert("trace", args.trace);
    rec.insert("host", host.to_json());
    rec.insert("config", config);
    rec.insert("metrics", metrics.clone());
    rec.insert("checks", checks_json(&measured.checks));
    if let Some(digest) = &measured.output_digest {
        rec.insert("output_digest", digest.as_str());
    }
    rec.insert("outputs_changed", outputs_changed);
    if outputs_changed {
        println!(
            "note: outputs differ from the previous run of this seed in this checkout ({:?} then, {:?} now)",
            earlier_digest, measured.output_digest
        );
    }
    if record(&mut rec, &host.fingerprint(), &previous) {
        println!(
            "note: the previous result record came from a different host; do not compare them"
        );
    }

    let mut result = Value::object();
    result.insert("correct", correct);
    result.insert("attempted", measured.attempted);
    result.insert("failed", measured.failed);
    result.insert("metrics", metrics);
    println!("{}", serde_json::to_string(&result));
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload builds the daemon binary first, so the first run in a
    // checkout builds everything any workload needs.
    let campaign_exe = match serve_jobs::build_campaign_binary() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = host::HostStamp::probe();
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for workload in workloads {
        correct &= run(workload, &args, &campaign_exe, &host);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::Measured;

    /// The metric names and units here must be the ones `BENCHMARK.json`
    /// declares, or a run would report metrics the file does not list.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name/unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), declared);
        let e2e: Vec<(String, String)> = Measured::default()
            .end_to_end()
            .into_iter()
            .map(|(n, (_, u))| (n.to_string(), u.to_string()))
            .collect();
        let mut in_json = listed("end_to_end");
        in_json.sort();
        assert_eq!(in_json, e2e);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
