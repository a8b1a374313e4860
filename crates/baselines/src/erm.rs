//! ERM: plain empirical-risk minimization (the paper's primary baseline).

use datasets::ClassificationDataset;
use nn::{softmax_cross_entropy_ws, Layer, Mode, Optimizer, Sgd, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{eval::shaped_batch, OutputDecoder, TrainConfig, TrainedModel};

/// Runs standard mini-batch SGD cross-entropy training in place and returns
/// the mean training loss of each epoch.
///
/// The step runs on the workspace train path — `forward_ws`, a pooled loss
/// gradient, `backward_ws`, and an in-place optimizer — so after the first
/// batch warms the buffer pool, each step performs zero heap allocations.
/// Image batches are flattened for an MLP exactly as the eval pass does.
pub fn train_epochs(
    net: &mut dyn Layer,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
) -> Vec<f32> {
    let mut opt = Sgd::new(cfg.lr).momentum(cfg.momentum).clip_norm(5.0);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut ws = Workspace::new();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let shuffled = data.shuffled(&mut rng);
        let mut loss_sum = 0.0;
        let mut batches = 0;
        for (x, labels) in shuffled.batches(cfg.batch_size) {
            let x = shaped_batch(net, x.as_slice(), x.dims(), &mut ws);
            loss_sum += train_step(net, &x, &labels, &mut opt, &mut ws);
            ws.recycle(x);
            batches += 1;
        }
        epoch_losses.push(loss_sum / batches.max(1) as f32);
    }
    epoch_losses
}

/// One allocation-free SGD step on a prepared batch: workspace forward,
/// pooled softmax cross-entropy gradient, workspace backward, in-place
/// optimizer update. Returns the batch loss.
///
/// Exposed so custom training loops (benches, the zero-allocation test
/// harness) share the exact step `train_epochs` runs.
pub fn train_step(
    net: &mut dyn Layer,
    x: &tensor::Tensor,
    labels: &[usize],
    opt: &mut dyn Optimizer,
    ws: &mut Workspace,
) -> f32 {
    let logits = net.forward_ws(x, Mode::Train, ws);
    let out = softmax_cross_entropy_ws(&logits, labels, ws);
    ws.recycle(logits);
    let grad_in = net.backward_ws(&out.grad, ws);
    ws.recycle(out.grad);
    ws.recycle(grad_in);
    opt.step(net);
    out.loss
}

/// Trains `net` with plain ERM and bundles it with a softmax decoder.
///
/// See the crate-level example.
pub fn train_erm(
    mut net: Box<dyn Layer>,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
) -> TrainedModel {
    let _ = train_epochs(net.as_mut(), data, cfg);
    TrainedModel {
        net,
        decoder: OutputDecoder::Softmax,
        method: "erm",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::moons;
    use models::{Mlp, MlpConfig};

    #[test]
    fn erm_learns_moons() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_erm(net, &data, &cfg);
        let acc = model.accuracy(&data);
        assert!(acc > 0.9, "ERM accuracy on moons: {acc}");
    }

    #[test]
    fn epoch_losses_decrease() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(200, 0.1, &mut rng);
        let mut net = Mlp::new(&MlpConfig::new(2, 2).hidden(16), &mut rng);
        let losses = train_epochs(&mut net, &data, &TrainConfig::fast_test());
        assert_eq!(losses.len(), 5);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses {losses:?}"
        );
    }
}
