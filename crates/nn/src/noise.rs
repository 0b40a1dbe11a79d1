//! Noise-injection layers: the paper's fixed Gaussian noise and the trainable
//! Shredder-style noise mask.

use crate::{Layer, Mode, Param};
use ensembler_tensor::{Rng, Tensor};

/// Additive noise with a *fixed* pattern, the `N(0, σ)` term of the Ensembler
/// paper (Eq. 2 and 3).
///
/// The noise tensor has the shape of a single sample's feature map and is
/// broadcast over the batch. Because the pattern is fixed (not resampled per
/// forward pass), each stage-1 network learns to undo *its own* noise, which
/// is what drives the N client heads apart — the property Proposition 1 of
/// the paper relies on.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{FixedNoise, Layer, Mode};
/// use ensembler_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(9);
/// let noise = FixedNoise::new(&[4, 8, 8], 0.1, &mut rng);
/// let x = Tensor::zeros(&[2, 4, 8, 8]);
/// let y = noise.forward(&x, Mode::Eval);
/// // Both samples receive the same pattern.
/// assert_eq!(&y.data()[..256], &y.data()[256..]);
/// ```
#[derive(Debug, Clone)]
pub struct FixedNoise {
    pattern: Tensor,
    sigma: f32,
}

impl FixedNoise {
    /// Samples a fixed Gaussian pattern of the given per-sample `shape` with
    /// standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(shape: &[usize], sigma: f32, rng: &mut Rng) -> Self {
        assert!(
            sigma >= 0.0,
            "noise standard deviation must be non-negative"
        );
        let pattern = Tensor::from_fn(shape, |_| rng.normal_with(0.0, sigma));
        Self { pattern, sigma }
    }

    /// Reconstructs a layer from a previously sampled `pattern` (the model
    /// artifact loader's path). The pattern is adopted verbatim, so a
    /// restored client transmits bit-identical features.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite; artifact loading
    /// validates the stored sigma before calling this.
    pub fn from_pattern(pattern: Tensor, sigma: f32) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise standard deviation must be finite and non-negative"
        );
        Self { pattern, sigma }
    }

    /// Creates a noiseless layer (identity), useful for the "None" baseline.
    pub fn disabled(shape: &[usize]) -> Self {
        Self {
            pattern: Tensor::zeros(shape),
            sigma: 0.0,
        }
    }

    /// The standard deviation the pattern was drawn with.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// The fixed per-sample noise pattern.
    pub fn pattern(&self) -> &Tensor {
        &self.pattern
    }

    /// Replaces the noise pattern with a freshly sampled one (used between
    /// training stages when the client re-keys its noise).
    pub fn resample(&mut self, rng: &mut Rng) {
        let sigma = self.sigma;
        self.pattern = Tensor::from_fn(self.pattern.shape(), |_| rng.normal_with(0.0, sigma));
    }

    /// Adds the pattern to every sample of `x` in place: the inference
    /// forward without a copy of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or its length is not a multiple of the
    /// pattern's.
    pub fn add_to(&self, x: &mut Tensor) {
        let per_sample = self.pattern.len();
        assert!(
            !x.is_empty() && x.len().is_multiple_of(per_sample),
            "input length {} is not a multiple of the noise pattern length {per_sample}",
            x.len()
        );
        for chunk in x.data_mut().chunks_mut(per_sample) {
            for (v, n) in chunk.iter_mut().zip(self.pattern.data()) {
                *v += n;
            }
        }
    }

    fn add_pattern(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        self.add_to(&mut out);
        out
    }
}

impl Layer for FixedNoise {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        self.add_pattern(input)
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        // Backward needs no cache: the pattern is an additive constant.
        self.add_pattern(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // Additive constant: gradient passes through unchanged.
        grad_output.clone()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "fixed_noise"
    }
}

/// Trainable additive noise mask — the Shredder baseline.
///
/// Shredder (Mireshghallah et al., ASPLOS 2020) learns a noise tensor that is
/// added to the intermediate features before they leave the client. The noise
/// is trained with two opposing objectives: keep classification accuracy
/// (cross-entropy gradient flowing through this layer) while growing the
/// noise magnitude to destroy mutual information with the input. The second
/// objective appears here as a configurable "expansion" term added directly
/// to the noise gradient during [`LearnedNoise::apply_expansion_grad`].
#[derive(Debug, Clone)]
pub struct LearnedNoise {
    noise: Param,
    expansion_weight: f32,
}

impl LearnedNoise {
    /// Creates a trainable noise mask of the given per-sample `shape`,
    /// initialised from `N(0, sigma)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(shape: &[usize], sigma: f32, expansion_weight: f32, rng: &mut Rng) -> Self {
        assert!(
            sigma >= 0.0,
            "noise standard deviation must be non-negative"
        );
        let init = Tensor::from_fn(shape, |_| rng.normal_with(0.0, sigma));
        Self {
            noise: Param::new(init),
            expansion_weight,
        }
    }

    /// The current noise tensor.
    pub fn noise(&self) -> &Tensor {
        &self.noise.value
    }

    /// Weight of the noise-expansion objective.
    pub fn expansion_weight(&self) -> f32 {
        self.expansion_weight
    }

    /// Adds the gradient of the Shredder noise-expansion objective
    /// `-expansion_weight * ||noise||^2 / len` to the accumulated noise
    /// gradient. Minimising the total loss therefore *grows* the noise.
    pub fn apply_expansion_grad(&mut self) {
        let len = self.noise.value.len().max(1) as f32;
        let scale = -2.0 * self.expansion_weight / len;
        let contribution = self.noise.value.scale(scale);
        self.noise.grad.add_assign(&contribution);
    }
}

impl Layer for LearnedNoise {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        let per_sample = self.noise.value.len();
        assert!(
            !input.is_empty() && input.len().is_multiple_of(per_sample),
            "input length {} is not a multiple of the noise length {per_sample}",
            input.len()
        );
        let mut out = input.clone();
        for chunk in out.data_mut().chunks_mut(per_sample) {
            for (v, n) in chunk.iter_mut().zip(self.noise.value.data()) {
                *v += n;
            }
        }
        out
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // Backward needs no cache: the mask gradient is dY summed per sample.
        self.forward(input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // d(out)/d(noise) = 1 for every sample in the batch: accumulate the
        // per-sample gradients into the shared mask.
        let per_sample = self.noise.value.len();
        for chunk in grad_output.data().chunks(per_sample) {
            for (g, acc) in chunk.iter().zip(self.noise.grad.data_mut()) {
                *acc += g;
            }
        }
        grad_output.clone()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.noise]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.noise]
    }

    fn name(&self) -> &'static str {
        "learned_noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_noise_is_deterministic_and_broadcasts() {
        let mut rng = Rng::seed_from(0);
        let noise = FixedNoise::new(&[2, 3, 3], 0.5, &mut rng);
        let x = Tensor::zeros(&[4, 2, 3, 3]);
        let y1 = noise.forward(&x, Mode::Train);
        let y2 = noise.forward(&x, Mode::Eval);
        assert_eq!(y1, y2, "fixed noise must not be resampled per call");
        let per = 2 * 3 * 3;
        assert_eq!(&y1.data()[..per], noise.pattern().data());
        assert_eq!(&y1.data()[per..2 * per], noise.pattern().data());
        assert!((noise.sigma() - 0.5).abs() < f32::EPSILON);
    }

    #[test]
    fn fixed_noise_gradient_is_identity() {
        let mut rng = Rng::seed_from(1);
        let mut noise = FixedNoise::new(&[2, 2, 2], 0.1, &mut rng);
        let _ = noise.forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Train);
        let g = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        assert_eq!(noise.backward(&g), g);
        assert_eq!(noise.parameter_count(), 0);
    }

    #[test]
    fn disabled_noise_is_identity() {
        let noise = FixedNoise::disabled(&[3, 4, 4]);
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32);
        assert_eq!(noise.forward(&x, Mode::Train), x);
        assert_eq!(noise.sigma(), 0.0);
    }

    #[test]
    fn resample_changes_the_pattern() {
        let mut rng = Rng::seed_from(2);
        let mut noise = FixedNoise::new(&[8], 1.0, &mut rng);
        let before = noise.pattern().clone();
        noise.resample(&mut rng);
        assert_ne!(before, *noise.pattern());
    }

    #[test]
    fn distinct_seeds_give_quasi_orthogonal_patterns() {
        // The paper's stage-1 argument: independently sampled Gaussian noise
        // patterns are nearly orthogonal in high dimension.
        let mut rng_a = Rng::seed_from(10);
        let mut rng_b = Rng::seed_from(20);
        let a = FixedNoise::new(&[1, 2048], 0.1, &mut rng_a);
        let b = FixedNoise::new(&[1, 2048], 0.1, &mut rng_b);
        let cs = a.pattern().cosine_similarity_per_sample(b.pattern()).item();
        assert!(cs.abs() < 0.1, "expected quasi-orthogonality, got {cs}");
    }

    #[test]
    fn learned_noise_accumulates_batch_gradient() {
        let mut rng = Rng::seed_from(3);
        let mut noise = LearnedNoise::new(&[4], 0.1, 0.0, &mut rng);
        let x = Tensor::zeros(&[3, 4]);
        let _ = noise.forward(&x, Mode::Train);
        let g = Tensor::ones(&[3, 4]);
        let gi = noise.backward(&g);
        assert_eq!(gi, g);
        // Three samples each contribute a gradient of one.
        assert_eq!(noise.params()[0].grad.data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn expansion_gradient_grows_the_noise() {
        let mut rng = Rng::seed_from(4);
        let mut noise = LearnedNoise::new(&[4], 1.0, 0.5, &mut rng);
        noise.apply_expansion_grad();
        // Gradient must point opposite to the noise value (so that a gradient
        // descent step increases the magnitude).
        for (n, g) in noise
            .noise()
            .data()
            .iter()
            .zip(noise.params()[0].grad.data())
        {
            assert!(n * g <= 0.0);
        }
        assert!((noise.expansion_weight() - 0.5).abs() < f32::EPSILON);
    }

    #[test]
    #[should_panic(expected = "not a multiple of the noise pattern length")]
    fn mismatched_feature_shape_panics() {
        let mut rng = Rng::seed_from(5);
        let noise = FixedNoise::new(&[5], 0.1, &mut rng);
        let _ = noise.forward(&Tensor::zeros(&[2, 4]), Mode::Train);
    }
}
