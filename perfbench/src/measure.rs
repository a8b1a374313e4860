//! What a workload run measured, the round loop every workload shares, and
//! the metric records printed from it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::pace::Steps;
use crate::stats::{min_samples_for, tail_percentile};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Rounds stop once this much time has passed, whatever the sample
/// counts, so a run ends well inside its time limit.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

impl Check {
    /// A check named `name` that holds when `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up repetition, as a one-step round.
    pub setup: Steps,
    /// The steps of every measured round.
    pub steps: Steps,
    /// Peak resident memory of the working process, MB.
    pub peak_rss_mb: f64,
    /// Operations attempted (scenarios, figure cells, served jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Monte-Carlo drift samples evaluated over all measured rounds.
    pub mc_samples: u64,
    /// Mean `best_objective` over the workload's BayesFT searches.
    pub best_objective: f64,
    /// Digest of outputs that must repeat exactly for the same seed, run
    /// after run (`None` where they depend on the run's length).
    pub output_digest: Option<String>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Extra figures printed for people, not gated.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Measured {
    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The end-to-end metrics, by name, with units. Every round does the
    /// same work, so a round's time is the sum over its steps of each
    /// step's median time on the reference pace, and rates are per-round
    /// work over it.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, (f64, &'static str)> {
        let f = self.steps.figures();
        let rounds = self.steps.rounds().max(1) as f64;
        let samples = self.mc_samples as f64 / rounds;
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        let pct = |q| tail_percentile(&f.latency_ms, q).unwrap_or(f64::NAN);
        BTreeMap::from([
            ("setup_s", (self.setup.figures().wall_s, "s")),
            ("wall_s", (f.wall_s, "s")),
            ("cpu_s", (f.cpu_s, "s")),
            ("peak_rss_mb", (self.peak_rss_mb, "MB")),
            ("ok_share", (ok / self.attempted.max(1) as f64, "ratio")),
            ("mc_samples_per_s", (samples / f.wall_s, "1/s")),
            ("jobs_per_s", (f.jobs as f64 / f.wall_s, "1/s")),
            ("job_latency_p50_ms", (pct(0.5), "ms")),
            ("job_latency_p90_ms", (pct(0.9), "ms")),
            ("quality.best_objective", (self.best_objective, "ratio")),
        ])
    }
}

/// Runs `round(i)` for rounds `i = 0, 1, …` until `seconds` have passed,
/// at least `min_rounds` ran, and there are enough job samples for a p90
/// with ten beyond it — or [`HARD_CAP`] passed. `round` returns the job
/// samples so far ([`Steps::jobs`]); its first error stops the loop.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<usize, String>,
) -> Result<(), String> {
    let started = Instant::now();
    let need = min_samples_for(0.9);
    let mut i = 0;
    loop {
        let jobs = round(i)?;
        i += 1;
        let elapsed = started.elapsed();
        let done = elapsed.as_secs_f64() >= seconds && i >= min_rounds && jobs >= need;
        if done || elapsed >= HARD_CAP {
            return Ok(());
        }
    }
}

/// A fresh, empty directory for one run's files under the checkout's
/// `.perfbench/` directory.
pub fn work_dir(workload: &str) -> PathBuf {
    let dir = Path::new(".perfbench").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// The checks as a JSON array.
pub fn checks_json(checks: &[Check]) -> Value {
    Value::Array(
        checks
            .iter()
            .map(|c| {
                let mut v = Value::object();
                v.insert("name", c.name.as_str());
                v.insert("ok", c.ok);
                v.insert("detail", c.detail.as_str());
                v
            })
            .collect(),
    )
}
