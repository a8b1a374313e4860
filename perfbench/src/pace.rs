//! Host pace: a fixed kernel timed between the measured steps of a round,
//! so that timings can be put on one scale however fast the host runs.
//!
//! On a shared host a vCPU's speed wanders — by up to 2× for seconds at a
//! time, and over whole runs — as neighbours come and go. The pace kernel
//! is timed right before and right after every step; the mean of the two
//! readings is the step's local pace. Only a step's on-CPU share slows
//! with the host, so its time is rescaled to the reference pace in that
//! share:
//!
//! ```text
//! normalized = wall × (u × REFERENCE / pace + (1 − u)),   u = min(cpu / wall, 1)
//! normalized_cpu = cpu × REFERENCE / pace
//! ```
//!
//! A compute step (u ≈ 1) is fully rescaled; a step that mostly waits
//! (a served job, u ≈ 0.05) keeps its wall time. A slower program still
//! reads slower: the pace kernel is the benchmark's own code and does not
//! change with the program.

use std::time::Instant;

use crate::stats::median;

/// The pace every timing is rescaled to: the kernel's median reading on
/// the 2-vCPU Xeon (AVX-512) host the benchmark was defined on.
pub const REFERENCE_PACE_S: f64 = 50e-6;

/// Fastest of 3 passes of a fixed 64×64×64 f32 matrix product (about
/// 50 µs each), written here so it does not move when the workspace's
/// kernels do.
pub fn kernel_s() -> f64 {
    (0..3).map(|_| kernel_once()).fold(f64::INFINITY, f64::min)
}

fn kernel_once() -> f64 {
    const N: usize = 64;
    let a: [f32; N * N] = std::array::from_fn(|i| (i % 17) as f32 * 0.25);
    let b: [f32; N * N] = std::array::from_fn(|i| (i % 13) as f32 * 0.5);
    let mut c = [0.0f32; N * N];
    let t = Instant::now();
    for i in 0..N {
        for k in 0..N {
            let aik = std::hint::black_box(a[i * N + k]);
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
    std::hint::black_box(&c);
    t.elapsed().as_secs_f64()
}

/// One measured step of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Position of the step within its round (same work in every round).
    pub index: usize,
    /// Whether the step is a job (counted in latency and throughput).
    pub job: bool,
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the working process(es).
    pub cpu_s: f64,
    /// Pace reading before the step.
    pub pace_before: f64,
    /// Pace reading after the step.
    pub pace_after: f64,
}

/// The steps of all measured rounds of a run.
#[derive(Debug, Default)]
pub struct Steps {
    steps: Vec<Step>,
    last_pace: f64,
    rounds: usize,
}

/// Round figures on the reference pace.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFigures {
    /// Sum over step positions of the median normalized wall time.
    pub wall_s: f64,
    /// Sum over step positions of the median normalized CPU time.
    pub cpu_s: f64,
    /// The same two sums as measured, without rescaling.
    pub raw_wall_s: f64,
    /// See `raw_wall_s`.
    pub raw_cpu_s: f64,
    /// Job steps per round.
    pub jobs: usize,
    /// Normalized latency of every job step, ms.
    pub latency_ms: Vec<f64>,
    /// Median pace reading of the run, seconds.
    pub pace_s: f64,
}

impl Steps {
    /// Begins a round: the pace reading before its first step.
    pub fn start_round(&mut self) {
        self.rounds += 1;
        self.last_pace = kernel_s();
    }

    /// Rounds started.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Records a step that ran just now, then reads the pace after it
    /// (which is also the reading before the next step).
    pub fn record(&mut self, index: usize, job: bool, wall_s: f64, cpu_s: f64) {
        let after = kernel_s();
        self.steps.push(Step {
            index,
            job,
            wall_s,
            cpu_s,
            pace_before: self.last_pace,
            pace_after: after,
        });
        self.last_pace = after;
    }

    /// Times `f` as step `index`, with CPU read by `cpu`.
    pub fn time<R>(
        &mut self,
        index: usize,
        job: bool,
        cpu: &dyn Fn() -> f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let c0 = cpu();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        self.record(index, job, wall, cpu() - c0);
        out
    }

    /// Job steps recorded so far.
    pub fn jobs(&self) -> usize {
        self.steps.iter().filter(|s| s.job).count()
    }

    /// Assembles the round figures on the reference pace.
    pub fn figures(&self) -> RoundFigures {
        figures(&self.steps)
    }
}

impl Step {
    fn pace(&self) -> f64 {
        0.5 * (self.pace_before + self.pace_after)
    }

    /// Wall time rescaled to the reference pace in its on-CPU share.
    pub fn normalized_wall_s(&self) -> f64 {
        let u = if self.wall_s > 0.0 {
            (self.cpu_s / self.wall_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.wall_s * (u * REFERENCE_PACE_S / self.pace() + (1.0 - u))
    }

    /// CPU time rescaled to the reference pace.
    pub fn normalized_cpu_s(&self) -> f64 {
        self.cpu_s * REFERENCE_PACE_S / self.pace()
    }
}

fn figures(steps: &[Step]) -> RoundFigures {
    let positions = steps.iter().map(|s| s.index + 1).max().unwrap_or(0);
    let sum_of_medians = |f: &dyn Fn(&Step) -> f64| -> f64 {
        (0..positions)
            .filter_map(|i| {
                let v: Vec<f64> = steps.iter().filter(|s| s.index == i).map(f).collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .sum()
    };
    let mut job_positions: Vec<usize> = steps.iter().filter(|s| s.job).map(|s| s.index).collect();
    job_positions.sort_unstable();
    job_positions.dedup();
    let paces: Vec<f64> = steps.iter().map(|s| s.pace_after).collect();
    RoundFigures {
        wall_s: sum_of_medians(&Step::normalized_wall_s),
        cpu_s: sum_of_medians(&Step::normalized_cpu_s),
        raw_wall_s: sum_of_medians(&|s| s.wall_s),
        raw_cpu_s: sum_of_medians(&|s| s.cpu_s),
        jobs: job_positions.len(),
        latency_ms: steps
            .iter()
            .filter(|s| s.job)
            .map(|s| s.normalized_wall_s() * 1e3)
            .collect(),
        pace_s: if paces.is_empty() {
            0.0
        } else {
            median(&paces)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(index: usize, job: bool, wall_s: f64, cpu_s: f64, slow: f64) -> Step {
        Step {
            index,
            job,
            wall_s: wall_s * slow,
            cpu_s: cpu_s * slow,
            pace_before: REFERENCE_PACE_S * slow,
            pace_after: REFERENCE_PACE_S * slow,
        }
    }

    #[test]
    fn compute_steps_are_rescaled_and_waiting_steps_are_not() {
        // A compute step read on a host running 1.8x slow comes back at
        // its reference time; a step that only waited is left as it was.
        let compute = step(0, false, 0.5, 0.5, 1.8);
        assert!((compute.normalized_wall_s() - 0.5).abs() < 1e-12);
        assert!((compute.normalized_cpu_s() - 0.5).abs() < 1e-12);
        let waiting = Step {
            cpu_s: 0.0,
            ..step(0, true, 0.05, 0.0, 1.8)
        };
        assert!((waiting.normalized_wall_s() - 0.05 * 1.8).abs() < 1e-12);
    }

    #[test]
    fn round_figures_sum_per_position_medians() {
        let mut steps = Vec::new();
        for r in 0..30 {
            // Every third round ran on a slowed host.
            let slow = if r % 3 == 0 { 1.8 } else { 1.0 };
            steps.push(step(0, false, 0.5, 0.5, slow));
            steps.push(step(1, true, 0.01, 0.01, slow));
            steps.push(step(2, true, 0.1, 0.1, slow));
        }
        let f = figures(&steps);
        assert!((f.wall_s - 0.61).abs() < 1e-9, "{}", f.wall_s);
        assert!((f.cpu_s - 0.61).abs() < 1e-9);
        assert_eq!(f.jobs, 2);
        assert_eq!(f.latency_ms.len(), 60);
        assert!(f
            .latency_ms
            .iter()
            .all(|&l| (l - 10.0).abs() < 1e-6 || (l - 100.0).abs() < 1e-6));
        assert!(
            (f.raw_wall_s - 0.61).abs() < 1e-9,
            "raw median picks the calm rounds"
        );
    }

    #[test]
    fn pace_kernel_takes_measurable_time() {
        assert!(kernel_s() > 0.0);
    }
}
