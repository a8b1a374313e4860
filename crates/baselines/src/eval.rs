//! The eval pass every accuracy and drift evaluation shares, and the
//! Monte-Carlo drift accuracy built on it (all methods except ReRAM-V,
//! which has its own calibration protocol).

use datasets::ClassificationDataset;
use nn::{Layer, Mode, Workspace};
use reram::{monte_carlo, DriftModel, McStats};
use tensor::{Tensor, MAX_RANK};

use crate::{OutputDecoder, TrainedModel};

/// Rows per evaluation batch.
const EVAL_BATCH: usize = 64;

/// `src` (a batch of `dims[0]` rows laid out as `dims`) copied into a
/// pooled tensor shaped for `net`: flattened to `[n, features]` for an MLP
/// fed image rows, in its own layout otherwise.
pub(crate) fn shaped_batch(
    net: &dyn Layer,
    src: &[f32],
    dims: &[usize],
    ws: &mut Workspace,
) -> Tensor {
    let mut x = if net.name() == "mlp" && dims.len() > 2 {
        ws.take_tensor(&[dims[0], dims[1..].iter().product()])
    } else {
        ws.take_tensor(dims)
    };
    x.as_mut_slice().copy_from_slice(src);
    x
}

/// One eval-mode pass of `net` over `data` in 64-row batches: each batch is
/// copied into a pooled tensor shaped for the net, run through
/// [`Layer::forward_ws`], and handed with its labels (and the pool) to
/// `per_batch`. Every buffer goes back to `ws`, so once the pool is warm a
/// pass allocates nothing.
pub fn eval_pass(
    net: &mut dyn Layer,
    data: &ClassificationDataset,
    ws: &mut Workspace,
    mut per_batch: impl FnMut(&Tensor, &[usize], &mut Workspace),
) {
    let images = data.images();
    let (rank, row) = (images.rank(), data.feature_len());
    let mut dims = [0usize; MAX_RANK];
    dims[..rank].copy_from_slice(images.dims());
    for start in (0..data.len()).step_by(EVAL_BATCH) {
        let end = (start + EVAL_BATCH).min(data.len());
        dims[0] = end - start;
        let src = &images.as_slice()[start * row..end * row];
        let x = shaped_batch(net, src, &dims[..rank], ws);
        let out = net.forward_ws(&x, Mode::Eval, ws);
        ws.recycle(x);
        per_batch(&out, &data.labels()[start..end], ws);
        ws.recycle(out);
    }
}

/// Top-1 accuracy of `net` on `data` under `decoder`, through
/// [`eval_pass`].
pub fn eval_accuracy(
    net: &mut dyn Layer,
    decoder: &OutputDecoder,
    data: &ClassificationDataset,
    ws: &mut Workspace,
) -> f32 {
    let mut correct = 0usize;
    eval_pass(net, data, ws, |out, labels, _| {
        correct += labels
            .iter()
            .enumerate()
            .filter(|&(r, &label)| decoder.decode_row(out.row(r)) == label)
            .count();
    });
    correct as f32 / data.len().max(1) as f32
}

/// Monte-Carlo accuracy of a trained model under a drift model: the
/// estimator of the paper's Eq. (4) with the metric set to test accuracy,
/// run through [`reram::monte_carlo`] with `seed` as the level's master
/// seed.
///
/// The model is unchanged afterwards.
///
/// # Panics
///
/// Panics if `trials == 0`.
///
/// # Example
///
/// ```
/// use baselines::{drift_accuracy, train_erm, TrainConfig};
/// use datasets::moons;
/// use models::{Mlp, MlpConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use reram::LogNormalDrift;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let data = moons(100, 0.1, &mut rng);
/// let net = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng));
/// let mut model = train_erm(net, &data, &TrainConfig::fast_test());
/// let stats = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.5), 4, 7);
/// assert_eq!(stats.values.len(), 4);
/// ```
pub fn drift_accuracy(
    model: &mut TrainedModel,
    data: &ClassificationDataset,
    drift: &dyn DriftModel,
    trials: usize,
    seed: u64,
) -> McStats {
    let decoder = &model.decoder;
    McStats::from_values(monte_carlo(
        model.net.as_mut(),
        &[(drift, seed)],
        trials,
        1,
        |net, ws| eval_accuracy(net, decoder, data, ws),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_erm, TrainConfig};
    use datasets::moons;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use reram::LogNormalDrift;

    #[test]
    fn accuracy_degrades_with_sigma() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let data = moons(300, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2).hidden(24), &mut rng));
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::fast_test()
        };
        let mut model = train_erm(net, &data, &cfg);
        let low = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.1), 8, 1);
        let high = drift_accuracy(&mut model, &data, &LogNormalDrift::new(2.5), 8, 1);
        assert!(
            low.mean > high.mean,
            "drift must hurt: σ=0.1 → {}, σ=2.5 → {}",
            low.mean,
            high.mean
        );
    }

    #[test]
    fn sigma_zero_matches_clean_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = moons(200, 0.1, &mut rng);
        let net = Box::new(Mlp::new(&MlpConfig::new(2, 2), &mut rng));
        let mut model = train_erm(net, &data, &TrainConfig::fast_test());
        let clean = model.accuracy(&data);
        let stats = drift_accuracy(&mut model, &data, &LogNormalDrift::new(0.0), 3, 2);
        assert!((stats.mean - clean).abs() < 1e-6);
        assert!(stats.std < 1e-9);
    }
}
