//! Layer probes: direct, timed calls into one layer's public functions on
//! a workload's own models, plus work counts computed from model shapes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use baselines::{train_epochs, TrainConfig};
use bayesft::{DriftObjective, EvalCtx, Objective};
use datasets::ClassificationDataset;
use nn::{Layer, Mode, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{DriftModel, FaultInjector, McStats};
use tensor::{gemm_into, im2col_into, Conv2dSpec, Tensor};

use crate::alloc;
use crate::stats::median;

/// What a [`TimedObjective`] saw across its evaluations.
#[derive(Debug, Default)]
pub struct EvalLog {
    /// `(start, end)` of every evaluation, in call order.
    pub intervals: Vec<(Instant, Instant)>,
    /// Monte-Carlo samples evaluated.
    pub samples: u64,
    /// Heap allocations inside the evaluations.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// The real [`DriftObjective`], timed and allocation-counted per call.
/// Handed to `Engine::builder().objective(..)` in traced runs.
pub struct TimedObjective {
    inner: DriftObjective,
    log: Arc<Mutex<EvalLog>>,
}

impl TimedObjective {
    /// Wraps `inner`; the returned log fills as the engine evaluates.
    pub fn new(inner: DriftObjective) -> (Self, Arc<Mutex<EvalLog>>) {
        let log = Arc::new(Mutex::new(EvalLog::default()));
        (
            TimedObjective {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl Objective for TimedObjective {
    fn evaluate(
        &self,
        network: &mut dyn Layer,
        data: &ClassificationDataset,
        ctx: &EvalCtx,
    ) -> McStats {
        let start = Instant::now();
        let (stats, allocs, bytes) =
            alloc::count(|| Objective::evaluate(&self.inner, network, data, ctx));
        let end = Instant::now();
        let mut log = self.log.lock().expect("eval log poisoned");
        log.intervals.push((start, end));
        log.samples += stats.values.len() as u64;
        log.allocs += allocs;
        log.alloc_bytes += bytes;
        stats
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// The architectures the workloads build, with the shape arithmetic that
/// turns them into gemm and im2col work counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `models::Mlp` with `MlpConfig::new(input, classes).hidden(hidden)`
    /// (three dense layers).
    Mlp {
        /// Input features.
        input: usize,
        /// Hidden width.
        hidden: usize,
        /// Output classes.
        classes: usize,
    },
    /// `models::LeNet5::new(channels, hw, classes)`.
    LeNet {
        /// Input channels.
        channels: usize,
        /// Input side length.
        hw: usize,
        /// Output classes.
        classes: usize,
    },
}

/// One dense layer (`in → out`) or one convolution at its input size.
#[derive(Debug, Clone, Copy)]
enum Op {
    Dense { inputs: usize, outputs: usize },
    Conv { spec: Conv2dSpec, hw: usize },
}

impl Shape {
    fn ops(&self) -> Vec<Op> {
        match *self {
            Shape::Mlp {
                input,
                hidden,
                classes,
            } => vec![
                Op::Dense {
                    inputs: input,
                    outputs: hidden,
                },
                Op::Dense {
                    inputs: hidden,
                    outputs: hidden,
                },
                Op::Dense {
                    inputs: hidden,
                    outputs: classes,
                },
            ],
            Shape::LeNet {
                channels,
                hw,
                classes,
            } => {
                // Mirrors `models::LeNet5::new`; `param_count` checks it.
                let c1 = Conv2dSpec::new(channels, 6, 5, 1, 2);
                let p1 = c1.output_hw(hw, hw).0 / 2;
                let c2 = Conv2dSpec::new(6, 16, 5, 1, 0);
                let h2 = c2.output_hw(p1, p1).0;
                let p2 = (h2 - 2) / 2 + 1;
                vec![
                    Op::Conv { spec: c1, hw },
                    Op::Conv { spec: c2, hw: p1 },
                    Op::Dense {
                        inputs: 16 * p2 * p2,
                        outputs: 48,
                    },
                    Op::Dense {
                        inputs: 48,
                        outputs: classes,
                    },
                ]
            }
        }
    }

    /// Trainable scalars implied by the shapes (weights and biases).
    pub fn param_count(&self) -> usize {
        self.ops()
            .iter()
            .map(|op| match *op {
                Op::Dense { inputs, outputs } => inputs * outputs + outputs,
                Op::Conv { spec, .. } => spec.out_channels * spec.patch_len() + spec.out_channels,
            })
            .sum()
    }

    /// Computed gemm FLOPs (2·m·k·n) of one forward pass of one input.
    pub fn gemm_flops_per_input(&self) -> u64 {
        self.ops()
            .iter()
            .map(|op| match *op {
                Op::Dense { inputs, outputs } => 2 * inputs * outputs,
                Op::Conv { spec, hw } => {
                    let (oh, ow) = spec.output_hw(hw, hw);
                    2 * spec.out_channels * spec.patch_len() * oh * ow
                }
            })
            .sum::<usize>() as u64
    }

    /// Computed bytes im2col writes in one forward pass of one input.
    pub fn im2col_bytes_per_input(&self) -> u64 {
        self.ops()
            .iter()
            .map(|op| match *op {
                Op::Dense { .. } => 0,
                Op::Conv { spec, hw } => {
                    let (oh, ow) = spec.output_hw(hw, hw);
                    4 * spec.patch_len() * oh * ow
                }
            })
            .sum::<usize>() as u64
    }

    /// Measured gemm GFLOP/s over this shape's products (dense layers at
    /// `batch` rows, convolutions per image), timed with `gemm_into` on
    /// im2col'd inputs built by `im2col_into`.
    pub fn gemm_gflops(&self, batch: usize) -> f64 {
        let mut flops = 0u64;
        let mut secs = 0.0;
        for op in self.ops() {
            let (m, k, n) = match op {
                Op::Dense { inputs, outputs } => (batch, inputs, outputs),
                Op::Conv { spec, hw } => {
                    let (oh, ow) = spec.output_hw(hw, hw);
                    (spec.out_channels, spec.patch_len(), oh * ow)
                }
            };
            let a: Vec<f32> = (0..m * k).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
            let b: Vec<f32> = match op {
                Op::Conv { spec, hw } => {
                    let image: Vec<f32> = (0..spec.in_channels * hw * hw)
                        .map(|i| ((i % 5) as f32 - 2.0) * 0.2)
                        .collect();
                    let mut col = vec![0.0f32; k * n];
                    im2col_into(&image, &mut col, &spec, hw, hw);
                    col
                }
                Op::Dense { .. } => (0..k * n).map(|i| ((i % 11) as f32 - 5.0) * 0.05).collect(),
            };
            let mut c = vec![0.0f32; m * n];
            // Repeat to about 2·10⁷ FLOPs per shape so timer resolution
            // does not matter.
            let per_call = (2 * m * k * n) as u64;
            let reps = (20_000_000 / per_call).clamp(3, 20_000);
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..reps {
                        gemm_into(
                            std::hint::black_box(&a),
                            std::hint::black_box(&b),
                            &mut c,
                            m,
                            k,
                            n,
                        );
                    }
                    std::hint::black_box(&c);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            flops += per_call * reps;
            secs += median(&times);
        }
        flops as f64 / secs / 1e9
    }
}

/// Microseconds per `inject_from` call and nanoseconds per perturbed
/// weight, over every `(network, fault model)` pair.
pub fn inject_probe(nets: &mut [Box<dyn Layer>], faults: &[Arc<dyn DriftModel>]) -> (f64, f64) {
    const CALLS: usize = 200;
    let mut secs = 0.0;
    let mut calls = 0usize;
    let mut weights = 0usize;
    for net in nets.iter_mut() {
        let snapshot = FaultInjector::snapshot(net.as_mut());
        for (i, fault) in faults.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
            let t = Instant::now();
            for _ in 0..CALLS {
                FaultInjector::inject_from(&snapshot, net.as_mut(), fault.as_ref(), &mut rng)
                    .expect("snapshot taken from this network");
            }
            secs += t.elapsed().as_secs_f64();
            calls += CALLS;
            weights += CALLS * snapshot.scalar_count();
        }
        snapshot
            .restore(net.as_mut())
            .expect("snapshot taken from this network");
    }
    (secs * 1e6 / calls as f64, secs * 1e9 / weights as f64)
}

/// Microseconds per input of `Layer::forward_ws` in eval mode over `data`
/// (median of 5 passes).
pub fn forward_probe(net: &mut dyn Layer, data: &ClassificationDataset, flatten: bool) -> f64 {
    let batches: Vec<Tensor> = data
        .batches(64)
        .map(|(x, _)| {
            if flatten {
                let n = x.dims()[0];
                let rest: usize = x.dims()[1..].iter().product();
                x.reshaped(&[n, rest]).expect("element count preserved")
            } else {
                x
            }
        })
        .collect();
    let mut ws = Workspace::new();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for x in &batches {
                let out = net.forward_ws(x, Mode::Eval, &mut ws);
                ws.recycle(std::hint::black_box(out));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e6 / data.len() as f64
}

/// Milliseconds of one `baselines::train_epochs` epoch on a copy of `net`
/// (median of 3).
pub fn train_epoch_probe(net: &dyn Layer, data: &ClassificationDataset) -> f64 {
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut copy = net.clone_box();
            let t = Instant::now();
            std::hint::black_box(train_epochs(copy.as_mut(), data, &cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{LeNet5, Mlp, MlpConfig};

    #[test]
    fn shape_arithmetic_matches_the_built_models() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut mlp = Mlp::new(&MlpConfig::new(196, 10).hidden(32), &mut rng);
        let mlp_shape = Shape::Mlp {
            input: 196,
            hidden: 32,
            classes: 10,
        };
        assert_eq!(mlp.param_count(), mlp_shape.param_count());
        assert_eq!(
            mlp_shape.gemm_flops_per_input(),
            2 * (196 * 32 + 32 * 32 + 32 * 10)
        );
        assert_eq!(mlp_shape.im2col_bytes_per_input(), 0);

        let mut lenet = LeNet5::new(1, 14, 10, &mut rng);
        let lenet_shape = Shape::LeNet {
            channels: 1,
            hw: 14,
            classes: 10,
        };
        assert_eq!(lenet.param_count(), lenet_shape.param_count());
        // conv1: 6×25 patches over 14×14; conv2: 16×150 over 3×3.
        assert_eq!(
            lenet_shape.im2col_bytes_per_input(),
            4 * (25 * 196 + 150 * 9)
        );
    }
}
