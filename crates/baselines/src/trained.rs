//! Trained-model bundle: a network plus the decoder mapping raw outputs to
//! class predictions.

use datasets::ClassificationDataset;
use nn::{Layer, Mode, Workspace};
use tensor::Tensor;

use crate::Codebook;

/// Shared training hyper-parameters for all baseline methods.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A deliberately tiny budget for unit tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// How raw network outputs become class predictions.
#[derive(Debug, Clone)]
pub enum OutputDecoder {
    /// Row-wise argmax over class logits (the usual softmax head).
    Softmax,
    /// FTNA decoding: binarize the output bits and pick the codebook row
    /// with minimum Hamming distance.
    Codebook(Codebook),
}

impl OutputDecoder {
    /// The class predicted by one row of raw network output.
    pub(crate) fn decode_row(&self, out: &[f32]) -> usize {
        match self {
            OutputDecoder::Softmax => tensor::argmax_nan_low(out),
            OutputDecoder::Codebook(cb) => cb.decode(out),
        }
    }
}

/// A trained network together with its output decoder.
pub struct TrainedModel {
    /// The trained network.
    pub net: Box<dyn Layer>,
    /// Output decoding rule.
    pub decoder: OutputDecoder,
    /// Method label for reports (e.g. `"erm"`, `"awp"`).
    pub method: &'static str,
}

impl TrainedModel {
    /// Predicts class indices for a batch (images or flat rows, matching
    /// what the network was trained on).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let out = self.net.forward(x, Mode::Eval);
        (0..out.dims()[0])
            .map(|r| self.decoder.decode_row(out.row(r)))
            .collect()
    }

    /// Top-1 accuracy on a dataset, through [`crate::eval_accuracy`].
    pub fn accuracy(&mut self, data: &ClassificationDataset) -> f32 {
        crate::eval_accuracy(
            self.net.as_mut(),
            &self.decoder,
            data,
            &mut Workspace::new(),
        )
    }
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("method", &self.method)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{Mlp, MlpConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn softmax_decoder_is_argmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = TrainedModel {
            net: Box::new(Mlp::new(&MlpConfig::new(2, 3), &mut rng)),
            decoder: OutputDecoder::Softmax,
            method: "erm",
        };
        let preds = model.predict(&Tensor::ones(&[4, 2]));
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn shaped_batch_flattens_only_for_mlp() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::new(&MlpConfig::new(4, 2), &mut rng);
        let mut ws = Workspace::new();
        let img = Tensor::ones(&[2, 1, 2, 2]);
        let x = crate::eval::shaped_batch(&mlp, img.as_slice(), img.dims(), &mut ws);
        assert_eq!(x.dims(), &[2, 4]);
        let lenet = models::LeNet5::new(1, 14, 2, &mut rng);
        let img14 = Tensor::ones(&[2, 1, 14, 14]);
        let x = crate::eval::shaped_batch(&lenet, img14.as_slice(), img14.dims(), &mut ws);
        assert_eq!(x.dims(), &[2, 1, 14, 14]);
        assert_eq!(x.as_slice(), img14.as_slice());
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TrainConfig::default();
        assert!(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.lr > 0.0);
    }
}
