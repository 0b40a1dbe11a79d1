//! Int8 inference counterparts of the GEMM-backed layers.
//!
//! The quantization scheme (see [`ensembler_tensor::quant`]) is symmetric:
//! weights carry one per-tensor scale fixed at quantization time; activations
//! are quantized on the fly with one scale **per batch sample**, so a
//! sample's int8 result never depends on what else shares its mini-batch —
//! the inference engine's coalescing guarantee carries over to int8
//! unchanged.
//!
//! Only the layers that are GEMMs at heart ([`Linear`], [`Conv2d`] and the
//! convolutions inside [`crate::ResidualBlock`]) get true int8 arithmetic;
//! everything
//! else (batch norm, activations, pooling, noise) is cheap and element-wise
//! and keeps running in `f32` between the quantized GEMMs, exactly like the
//! mixed-precision int8 pipelines surveyed in the LUT-DNN hardware
//! literature. A layer that has no quantized counterpart falls back to its
//! normal `f32` forward ([`QLayer::Fallback`]).
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::quant::QSequential;
//! use ensembler_nn::{Layer, Linear, Mode, Relu, Sequential};
//! use ensembler_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Sequential::new(vec![
//!     Box::new(Linear::new(8, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 4, &mut rng)),
//! ]);
//! let qnet = QSequential::from_sequential(&net);
//! let x = Tensor::ones(&[2, 8]);
//! let (y, qy) = (net.forward(&x, Mode::Eval), qnet.forward(&x));
//! assert_eq!(y.shape(), qy.shape());
//! // Quantized outputs track the f32 ones to within a few quantization steps.
//! for (a, b) in y.data().iter().zip(qy.data()) {
//!     assert!((a - b).abs() < 0.1, "{a} vs {b}");
//! }
//! ```

use crate::{BatchNorm2d, Conv2d, Layer, Linear, Mode, Sequential};
use ensembler_tensor::{im2col_i8, qgemm_nn, Conv2dGeometry, QTensor, QTensorBatch, Tensor};

/// Transposes a row-major `[rows, cols]` `i8` matrix into `[cols, rows]`.
///
/// Weight matrices are transposed once at quantization time so every int8
/// product runs through the one packed [`qgemm_nn`] kernel layout.
fn transpose_i8(data: &[i8], rows: usize, cols: usize) -> Vec<i8> {
    let mut out = vec![0i8; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    out
}

/// Int8 counterpart of [`Linear`]: pre-quantized weights, activations
/// quantized per sample on the fly, `i8×i8→i32` accumulation, dequantized
/// `f32` output with the bias added in full precision.
#[derive(Debug, Clone)]
pub struct QLinear {
    /// Quantized weight, stored transposed as `[in, out]`.
    weight_t: Vec<i8>,
    weight_scale: f32,
    bias: Tensor,
    in_features: usize,
    out_features: usize,
}

impl QLinear {
    /// Quantizes a trained [`Linear`] layer's weights for int8 inference.
    pub fn from_linear(layer: &Linear) -> Self {
        let q = QTensor::quantize(&layer.weight().value);
        let (out_features, in_features) = (layer.out_features(), layer.in_features());
        Self {
            weight_t: transpose_i8(q.data(), out_features, in_features),
            weight_scale: q.scale(),
            bias: layer.bias().value.clone(),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Transposed quantized weight (`[in, out]`), for the fused plan stages.
    pub(crate) fn weight_t(&self) -> &[i8] {
        &self.weight_t
    }

    /// Per-tensor weight scale.
    pub(crate) fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Full-precision bias.
    pub(crate) fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Computes `y = x W^T + b` with int8 arithmetic: each input row is
    /// quantized with its own scale, so row `i` of the output is independent
    /// of the rest of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[batch, in_features]`.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 2, "QLinear expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "QLinear expected {} input features, got {}",
            self.in_features,
            input.shape()[1]
        );
        let batch = input.shape()[0];
        let q = QTensorBatch::quantize_batch(input);
        let acc = qgemm_nn(
            q.data(),
            &self.weight_t,
            batch,
            self.in_features,
            self.out_features,
        );
        let mut out = vec![0.0f32; batch * self.out_features];
        let bias = self.bias.data();
        for n in 0..batch {
            let rescale = q.scales()[n] * self.weight_scale;
            let row = &acc[n * self.out_features..(n + 1) * self.out_features];
            let out_row = &mut out[n * self.out_features..(n + 1) * self.out_features];
            for ((o, &a), &b) in out_row.iter_mut().zip(row).zip(bias) {
                *o = a as f32 * rescale + b;
            }
        }
        Tensor::from_vec(out, &[batch, self.out_features]).expect("output sized to batch*out")
    }
}

/// Int8 counterpart of [`Conv2d`]: the input is quantized per sample, lowered
/// with the `i8` `im2col`, multiplied through [`qgemm_nn`] against the
/// pre-quantized (transposed) weight and dequantized straight into NCHW with
/// the bias added in `f32`.
#[derive(Debug, Clone)]
pub struct QConv2d {
    /// Quantized weight, stored transposed as `[in_channels*k*k, out_channels]`.
    weight_t: Vec<i8>,
    weight_scale: f32,
    bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    geometry: Conv2dGeometry,
}

impl QConv2d {
    /// Quantizes a trained [`Conv2d`] layer's weights for int8 inference.
    pub fn from_conv(layer: &Conv2d) -> Self {
        let q = QTensor::quantize(&layer.weight().value);
        let geometry = layer.geometry();
        let fan_in = layer.in_channels() * geometry.kernel * geometry.kernel;
        Self {
            weight_t: transpose_i8(q.data(), layer.out_channels(), fan_in),
            weight_scale: q.scale(),
            bias: layer.bias().value.clone(),
            in_channels: layer.in_channels(),
            out_channels: layer.out_channels(),
            geometry,
        }
    }

    /// Output shape for a given NCHW input shape.
    ///
    /// # Panics
    ///
    /// Panics if `input_shape` is not rank-4 or the channel count differs.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 4, "expected NCHW shape");
        assert_eq!(input_shape[1], self.in_channels, "channel mismatch");
        vec![
            input_shape[0],
            self.out_channels,
            self.geometry.output_extent(input_shape[2]),
            self.geometry.output_extent(input_shape[3]),
        ]
    }

    /// Number of input channels.
    pub(crate) fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub(crate) fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution geometry.
    pub(crate) fn geometry(&self) -> Conv2dGeometry {
        self.geometry
    }

    /// Runs the int8 convolution on an NCHW batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank-4 or its channel count differs.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "QConv2d expects NCHW input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "QConv2d expected {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let [b, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let out_shape = self.output_shape(input.shape());
        let (out_c, out_h, out_w) = (out_shape[1], out_shape[2], out_shape[3]);
        let plane = out_h * out_w;
        let fan_in = c * self.geometry.kernel * self.geometry.kernel;

        // Per-sample quantization, then an i8 lowering: zero padding maps to
        // quantized zero, so lowering commutes with quantization exactly.
        let q = QTensorBatch::quantize_batch(input);
        let cols = im2col_i8(q.data(), b, c, h, w, self.geometry);
        let acc = qgemm_nn(&cols, &self.weight_t, b * plane, fan_in, out_c);

        // Dequantize + bias, transposing the [B*OH*OW, Cout] rows into NCHW.
        let mut out = vec![0.0f32; b * out_c * plane];
        let bias = self.bias.data();
        for n in 0..b {
            let rescale = q.scales()[n] * self.weight_scale;
            for p in 0..plane {
                let row = &acc[(n * plane + p) * out_c..(n * plane + p + 1) * out_c];
                for (co, &a) in row.iter().enumerate() {
                    out[n * out_c * plane + co * plane + p] = a as f32 * rescale + bias[co];
                }
            }
        }
        Tensor::from_vec(out, &out_shape).expect("output sized to NCHW shape")
    }
}

/// Int8 counterpart of [`crate::ResidualBlock`]: the three convolutions run
/// int8, the batch norms and ReLUs stay `f32`.
#[derive(Debug, Clone)]
pub struct QResidualBlock {
    conv1: QConv2d,
    bn1: BatchNorm2d,
    conv2: QConv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(QConv2d, BatchNorm2d)>,
}

impl QResidualBlock {
    /// Assembles the quantized block from a block's parts (called by
    /// [`crate::ResidualBlock`]'s `quantize_layer`).
    #[allow(clippy::similar_names)]
    pub(crate) fn from_parts(
        conv1: &Conv2d,
        bn1: &BatchNorm2d,
        conv2: &Conv2d,
        bn2: &BatchNorm2d,
        shortcut: Option<(&Conv2d, &BatchNorm2d)>,
    ) -> Self {
        Self {
            conv1: QConv2d::from_conv(conv1),
            bn1: bn1.clone(),
            conv2: QConv2d::from_conv(conv2),
            bn2: bn2.clone(),
            shortcut: shortcut.map(|(conv, bn)| (QConv2d::from_conv(conv), bn.clone())),
        }
    }

    /// Runs the block with int8 convolutions (inference only).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let main = self.conv1.forward(input);
        let main = self.bn1.forward(&main, Mode::Eval);
        let main = main.map(|x| x.max(0.0));
        let main = self.conv2.forward(&main);
        let main = self.bn2.forward(&main, Mode::Eval);

        let skip = match &self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input);
                bn.forward(&s, Mode::Eval)
            }
            None => input.clone(),
        };
        main.add(&skip).map(|x| x.max(0.0))
    }
}

/// One stage of a quantized pipeline: an int8 layer where one exists, the
/// original `f32` layer otherwise.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// An int8 fully-connected layer.
    Linear(QLinear),
    /// An int8 convolution.
    Conv(QConv2d),
    /// A residual block with int8 convolutions (boxed: it is by far
    /// the largest variant).
    Residual(Box<QResidualBlock>),
    /// A nested quantized pipeline.
    Sequential(QSequential),
    /// A layer with no int8 counterpart, evaluated in `f32` (inference mode).
    Fallback(Box<dyn Layer>),
}

impl QLayer {
    /// Runs the layer on `input` (inference only).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        match self {
            QLayer::Linear(l) => l.forward(input),
            QLayer::Conv(l) => l.forward(input),
            QLayer::Residual(l) => l.forward(input),
            QLayer::Sequential(l) => l.forward(input),
            QLayer::Fallback(l) => l.forward(input, Mode::Eval),
        }
    }

    /// Short human-readable name mirroring [`Layer::name`].
    pub fn name(&self) -> &'static str {
        match self {
            QLayer::Linear(_) => "q_linear",
            QLayer::Conv(_) => "q_conv2d",
            QLayer::Residual(_) => "q_residual_block",
            QLayer::Sequential(_) => "q_sequential",
            QLayer::Fallback(l) => l.name(),
        }
    }
}

/// The int8 counterpart of [`Sequential`]: every contained layer replaced by
/// its [`Layer::quantize_layer`] result.
///
/// Inference-only and immutable: `forward` takes `&self`, so a quantized
/// pipeline can be shared behind an `Arc` and serve concurrent batches under
/// the same contract as the `f32` [`crate::Layer::forward`] path.
#[derive(Debug, Clone)]
pub struct QSequential {
    layers: Vec<QLayer>,
}

impl QSequential {
    /// Quantizes every layer of a pipeline (weights are quantized once,
    /// here; activations are quantized per batch at inference time).
    pub fn from_sequential(net: &Sequential) -> Self {
        Self {
            layers: net.layers().iter().map(|l| l.quantize_layer()).collect(),
        }
    }

    /// The contained stages.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Number of stages that actually run int8 arithmetic (recursing into
    /// nested pipelines and residual blocks).
    pub fn quantized_layer_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Linear(_) | QLayer::Conv(_) => 1,
                QLayer::Residual(r) => 2 + usize::from(r.shortcut.is_some()),
                QLayer::Sequential(s) => s.quantized_layer_count(),
                QLayer::Fallback(_) => 0,
            })
            .sum()
    }

    /// Runs the pipeline on `input` (inference only).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_body, ResNetConfig};
    use crate::{Relu, ResidualBlock};
    use ensembler_tensor::Rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn qlinear_tracks_the_f32_forward() {
        let mut rng = Rng::seed_from(3);
        let fc = Linear::new(32, 16, &mut rng);
        let x = Tensor::from_fn(&[4, 32], |_| rng.uniform(-1.5, 1.5));
        let qfc = QLinear::from_linear(&fc);
        assert_eq!(qfc.in_features(), 32);
        assert_eq!(qfc.out_features(), 16);
        assert_close(&qfc.forward(&x), &fc.forward(&x, Mode::Eval), 0.05);
    }

    #[test]
    fn qconv_tracks_the_f32_forward() {
        let mut rng = Rng::seed_from(4);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qconv = QConv2d::from_conv(&conv);
        assert_eq!(qconv.output_shape(&[2, 3, 8, 8]), vec![2, 8, 8, 8]);
        assert_close(&qconv.forward(&x), &conv.forward(&x, Mode::Eval), 0.08);
    }

    #[test]
    fn strided_qconv_matches_shapes_and_values() {
        let mut rng = Rng::seed_from(5);
        let conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qconv = QConv2d::from_conv(&conv);
        assert_close(&qconv.forward(&x), &conv.forward(&x, Mode::Eval), 0.08);
    }

    #[test]
    fn quantized_outputs_are_independent_of_batch_composition() {
        // The coalescing guarantee: a sample's int8 result must not depend on
        // its batch mates, even though activation scales are data-dependent.
        let mut rng = Rng::seed_from(6);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let qconv = QConv2d::from_conv(&conv);
        let small = Tensor::from_fn(&[1, 2, 6, 6], |_| rng.uniform(-0.1, 0.1));
        let huge = Tensor::from_fn(&[1, 2, 6, 6], |_| rng.uniform(-50.0, 50.0));
        let alone = qconv.forward(&small);
        let together = qconv.forward(&Tensor::stack_batch(&[small, huge]));
        assert_eq!(alone.data(), &together.data()[..alone.len()]);
    }

    #[test]
    fn qresidual_block_tracks_the_f32_block() {
        let mut rng = Rng::seed_from(7);
        let block = ResidualBlock::new(4, 8, 2, &mut rng);
        let x = Tensor::from_fn(&[2, 4, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qblock = match block.quantize_layer() {
            QLayer::Residual(q) => q,
            other => panic!("expected a quantized residual block, got {}", other.name()),
        };
        assert_close(&qblock.forward(&x), &block.forward(&x, Mode::Eval), 0.15);
    }

    #[test]
    fn qsequential_quantizes_gemm_layers_and_falls_back_elsewhere() {
        let mut rng = Rng::seed_from(8);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(crate::Flatten::new()),
            Box::new(Linear::new(4 * 36, 5, &mut rng)),
        ]);
        let qnet = QSequential::from_sequential(&net);
        assert_eq!(qnet.layers().len(), 4);
        assert_eq!(qnet.quantized_layer_count(), 2);
        assert!(matches!(qnet.layers()[0], QLayer::Conv(_)));
        assert!(matches!(qnet.layers()[1], QLayer::Fallback(_)));
        let x = Tensor::from_fn(&[3, 2, 6, 6], |_| rng.uniform(-1.0, 1.0));
        assert_close(&qnet.forward(&x), &net.forward(&x, Mode::Eval), 0.15);
    }

    #[test]
    fn a_quantized_body_tracks_the_f32_body() {
        let config = ResNetConfig::cifar10_like();
        let mut rng = Rng::seed_from(9);
        let body = build_body(&config, &mut rng);
        let qbody = QSequential::from_sequential(&body);
        assert!(qbody.quantized_layer_count() >= 4);
        let head = config.head_output_shape();
        let x = Tensor::from_fn(&[2, head[0], head[1], head[2]], |_| rng.uniform(-1.0, 1.0));
        assert_close(&qbody.forward(&x), &body.forward(&x, Mode::Eval), 0.25);
    }
}
