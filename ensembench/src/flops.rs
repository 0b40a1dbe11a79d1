//! FLOP counts from shapes: the im2col GEMM a convolution lowers to, and
//! the total over a network's graph IR.

use ensembler_nn::graph::{lower_sequential, GraphOp};
use ensembler_nn::Sequential;
use ensembler_tensor::Conv2dGeometry;

/// FLOPs of an `M×K · K×N` GEMM (one multiply and one add per term).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// The im2col GEMM dimensions `(M, K, N)` of a convolution over a
/// `[batch, in_channels, height, width]` input: one row per output
/// position, one column per (input channel, kernel tap), one output column
/// per output channel.
pub fn im2col_dims(
    input: [usize; 4],
    out_channels: usize,
    geom: Conv2dGeometry,
) -> (usize, usize, usize) {
    let [batch, in_channels, height, width] = input;
    let m = batch * geom.output_extent(height) * geom.output_extent(width);
    (m, in_channels * geom.kernel * geom.kernel, out_channels)
}

/// Convolution and linear FLOPs of `net` on an input of `input_shape`.
/// Element-wise ops (batch norm, ReLU, pooling) are not counted.
pub fn net_flops(net: &Sequential, input_shape: &[usize]) -> f64 {
    let mut shape = input_shape.to_vec();
    ops_flops(&lower_sequential(net), &mut shape)
}

fn ops_flops(ops: &[GraphOp], shape: &mut Vec<usize>) -> f64 {
    let mut flops = 0.0;
    for op in ops {
        match op {
            GraphOp::Conv(conv) => {
                let input = [shape[0], shape[1], shape[2], shape[3]];
                let (m, k, n) = im2col_dims(input, conv.out_channels(), conv.geometry());
                flops += gemm_flops(m, k, n);
                *shape = conv.output_shape(shape);
            }
            GraphOp::Linear(linear) => {
                flops += gemm_flops(shape[0], linear.in_features(), linear.out_features());
                *shape = vec![shape[0], linear.out_features()];
            }
            GraphOp::MaxPool(window) => {
                shape[2] /= window;
                shape[3] /= window;
            }
            GraphOp::GlobalAvgPool => shape.truncate(2),
            GraphOp::Flatten => *shape = vec![shape[0], shape[1..].iter().product()],
            GraphOp::Residual { main, shortcut } => {
                if let Some(shortcut) = shortcut {
                    flops += ops_flops(shortcut, &mut shape.clone());
                }
                flops += ops_flops(main, shape);
            }
            GraphOp::Sequence(inner) => flops += ops_flops(inner, shape),
            GraphOp::BatchNorm(_) | GraphOp::Relu | GraphOp::Opaque(_) => {}
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_nn::models::{build_body, build_head, ResNetConfig};
    use ensembler_tensor::Rng;

    #[test]
    fn the_stem_at_batch_32_is_7077888_flop() {
        let (m, k, n) = im2col_dims([32, 3, 16, 16], 16, Conv2dGeometry::new(3, 1, 1));
        assert_eq!((m, k, n), (8192, 27, 16));
        assert_eq!(gemm_flops(m, k, n), 7_077_888.0);
    }

    #[test]
    fn the_block_shapes_match_the_backbone() {
        let same = Conv2dGeometry::new(3, 1, 1);
        assert_eq!(im2col_dims([32, 16, 8, 8], 16, same), (2048, 144, 16));
        assert_eq!(im2col_dims([8, 16, 8, 8], 16, same), (512, 144, 16));
        assert_eq!(im2col_dims([32, 32, 4, 4], 32, same), (512, 288, 32));
        let down = Conv2dGeometry::new(3, 2, 1);
        assert_eq!(im2col_dims([32, 16, 8, 8], 32, down), (512, 144, 32));
    }

    #[test]
    fn network_flops_add_up_from_the_graph() {
        let config = ResNetConfig::cifar10_like();
        let mut rng = Rng::seed_from(1);
        let head = build_head(&config, &mut rng);
        assert_eq!(net_flops(&head, &[32, 3, 16, 16]), 7_077_888.0);
        let body = build_body(&config, &mut rng);
        // Block 1: two 3×3 16→16 convs at 8×8. Block 2: a strided 3×3
        // 16→32 conv, a 3×3 32→32 conv and a 1×1 16→32 projection at 4×4.
        let expected = 2.0 * gemm_flops(2048, 144, 16)
            + gemm_flops(512, 144, 32)
            + gemm_flops(512, 288, 32)
            + gemm_flops(512, 16, 32);
        assert_eq!(net_flops(&body, &[32, 16, 8, 8]), expected);
    }
}
