//! AWP: adversarial weight perturbation (Wu et al., ref. [18]).
//!
//! Each step climbs the loss in weight space before computing the update
//! gradient: `δ = γ·‖w‖·g/‖g‖` per parameter tensor, gradients are taken at
//! `w + δ`, and the update is applied to the pristine `w`. The paper
//! observes AWP can *hurt* on hard tasks ("the strong adversarial attack on
//! the neural network parameters caused training failures"), which this
//! implementation reproduces at large `gamma`.

use datasets::ClassificationDataset;
use nn::{softmax_cross_entropy_ws, Layer, Mode, Optimizer, Param, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::FaultInjector;

use crate::{eval::shaped_batch, OutputDecoder, TrainConfig, TrainedModel};

/// AWP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwpConfig {
    /// Relative adversarial step size γ (the paper's experiments correspond
    /// to an aggressive setting; 0.01–0.1 is typical in the AWP paper).
    pub gamma: f32,
}

impl Default for AwpConfig {
    fn default() -> Self {
        AwpConfig { gamma: 0.02 }
    }
}

/// Trains `net` with adversarial weight perturbation and bundles it with a
/// softmax decoder.
pub fn train_awp(
    mut net: Box<dyn Layer>,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
    awp: &AwpConfig,
) -> TrainedModel {
    let mut opt = Sgd::new(cfg.lr).momentum(cfg.momentum).clip_norm(5.0);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut ws = Workspace::new();
    for _ in 0..cfg.epochs {
        let shuffled = data.shuffled(&mut rng);
        for (x, labels) in shuffled.batches(cfg.batch_size) {
            let x = shaped_batch(net.as_ref(), x.as_slice(), x.dims(), &mut ws);
            // 1. Gradient at the current weights (workspace train path).
            net.zero_grads();
            let logits = net.forward_ws(&x, Mode::Train, &mut ws);
            let out = softmax_cross_entropy_ws(&logits, &labels, &mut ws);
            ws.recycle(logits);
            let grad_in = net.backward_ws(&out.grad, &mut ws);
            ws.recycle(grad_in);
            ws.recycle(out.grad);
            // 2. Adversarial ascent: w ← w + γ‖w‖·g/‖g‖ per tensor.
            let snapshot = FaultInjector::snapshot(net.as_mut());
            net.visit_params(&mut |p| {
                let gnorm = p.grad.norm();
                if gnorm > 1e-12 {
                    let scale = awp.gamma * p.value.norm() / gnorm;
                    let Param { value, grad, .. } = p;
                    value.add_scaled(grad, scale);
                }
            });
            // 3. Gradient at the perturbed weights.
            net.zero_grads();
            let logits = net.forward_ws(&x, Mode::Train, &mut ws);
            let out = softmax_cross_entropy_ws(&logits, &labels, &mut ws);
            ws.recycle(logits);
            let grad_in = net.backward_ws(&out.grad, &mut ws);
            ws.recycle(grad_in);
            ws.recycle(out.grad);
            // 4. Restore pristine weights (keeping the robust gradients) and
            //    step.
            let mut grads = Vec::new();
            net.visit_params(&mut |p| grads.push(p.grad.clone()));
            snapshot
                .restore_into(net.as_mut())
                .expect("snapshot was taken from this network");
            let mut i = 0;
            net.visit_params(&mut |p| {
                p.grad = grads[i].clone();
                i += 1;
            });
            opt.step(net.as_mut());
            ws.recycle(x);
        }
    }
    TrainedModel {
        net,
        decoder: OutputDecoder::Softmax,
        method: "awp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::moons;
    use models::{Mlp, MlpConfig};

    #[test]
    fn awp_learns_moons() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_awp(net, &data, &cfg, &AwpConfig::default());
        let acc = model.accuracy(&data);
        assert!(acc > 0.85, "AWP accuracy on moons: {acc}");
    }

    #[test]
    fn weights_are_restored_after_each_step() {
        // With gamma = 0 AWP must behave exactly like ERM.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(100, 0.1, &mut rng);
        let cfg = TrainConfig::fast_test();

        let mut rng_a = ChaCha8Rng::seed_from_u64(42);
        let net_a = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng_a));
        let mut erm = crate::train_erm(net_a, &data, &cfg);

        let mut rng_b = ChaCha8Rng::seed_from_u64(42);
        let net_b = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng_b));
        let mut awp = train_awp(net_b, &data, &cfg, &AwpConfig { gamma: 0.0 });

        // Same initialization, same shuffling seed, no perturbation → same
        // weights.
        let wa = FaultInjector::snapshot(erm.net.as_mut());
        let wb = FaultInjector::snapshot(awp.net.as_mut());
        assert_eq!(wa.scalar_count(), wb.scalar_count());
        let acc_a = erm.accuracy(&data);
        let acc_b = awp.accuracy(&data);
        assert!((acc_a - acc_b).abs() < 1e-6, "{acc_a} vs {acc_b}");
    }

    #[test]
    fn extreme_gamma_degrades_training() {
        // Reproduces the paper's observation that over-strong weight attacks
        // cause training failures.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let data = moons(200, 0.1, &mut rng);
        let cfg = TrainConfig {
            epochs: 15,
            ..TrainConfig::fast_test()
        };
        let net_mild = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let mut mild = train_awp(net_mild, &data, &cfg, &AwpConfig { gamma: 0.02 });
        let net_wild = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng));
        let mut wild = train_awp(net_wild, &data, &cfg, &AwpConfig { gamma: 5.0 });
        assert!(
            mild.accuracy(&data) >= wild.accuracy(&data),
            "extreme AWP should not beat mild AWP"
        );
    }
}
