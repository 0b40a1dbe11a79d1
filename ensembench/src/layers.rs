//! Per-layer measurements of `tensor` and `nn` for the traced
//! `local_batch` run: GEMMs on the exact im2col shapes the backbone lowers
//! to, and the compiled plans the pipeline runs, compiled here from its own
//! head, bodies and tail.

use crate::common::{median_ms, same_bits, BATCH};
use crate::flops::{gemm_flops, net_flops};
use crate::inputs::InputStream;
use ensembler::{Defense, EnsemblerPipeline};
use ensembler_nn::{CompiledPlan, FusionConfig, QCompiledPlan};
use ensembler_tensor::{qgemm_nn, QTensorBatch};
use std::hint::black_box;
use std::time::Duration;

/// Time spent per measured call site.
const BUDGET: Duration = Duration::from_millis(400);
const MIN_REPS: usize = 5;

/// `(metric, M, K, N)` of each timed f32 GEMM.
const GEMMS: [(&str, usize, usize, usize); 5] = [
    ("tensor.gemm_peak_gflops", 512, 512, 512),
    ("tensor.gemm_stem_gflops", 8192, 27, 16),
    ("tensor.gemm_block1_gflops", 2048, 144, 16),
    ("tensor.gemm_block2_gflops", 512, 288, 32),
    ("tensor.gemm_b8_gflops", 512, 144, 16),
];

/// GEMM rates of `tensor`, in GFLOP/s (GOP/s for the int8 kernel).
pub fn tensor_metrics(seed: u64) -> Vec<(&'static str, f64)> {
    let stream = InputStream::new(seed, "gemm");
    let mut out = Vec::new();
    for (i, (name, m, k, n)) in GEMMS.into_iter().enumerate() {
        let a = stream.tensor(2 * i as u64, &[m, k], -1.0, 1.0);
        let b = stream.tensor(2 * i as u64 + 1, &[k, n], -1.0, 1.0);
        let ms = median_ms(MIN_REPS, BUDGET, || {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        out.push((name, gemm_flops(m, k, n) / ms / 1e6));
    }
    let (m, k, n) = (2048, 144, 16);
    let to_i8 = |index: u64, len: usize| -> Vec<i8> {
        let t = stream.tensor(index, &[len], -127.0, 127.0);
        t.data().iter().map(|v| *v as i8).collect()
    };
    let (a, b) = (to_i8(100, m * k), to_i8(101, k * n));
    let ms = median_ms(MIN_REPS, BUDGET, || {
        black_box(qgemm_nn(black_box(&a), black_box(&b), m, k, n));
    });
    out.push(("tensor.qgemm_block1_gops", gemm_flops(m, k, n) / ms / 1e6));
    out
}

/// Plan timings of `nn` on one batch of [`BATCH`] images, with the serving
/// default [`FusionConfig`], and whether the body and tail plans matched the
/// pipeline's own stage outputs bit for bit.
pub fn nn_metrics(pipeline: &EnsemblerPipeline, seed: u64) -> (Vec<(&'static str, f64)>, bool) {
    let fusion = FusionConfig::default();
    let size = pipeline.config().image_size;
    let images = InputStream::new(seed, "plans").images(0, BATCH, size);
    let transmitted = pipeline.client_features(&images).expect("head runs");
    let maps = pipeline.server_outputs(&transmitted).expect("bodies run");
    let combined = pipeline.selector().combine(&maps).expect("selection runs");
    let body = &pipeline.server_bodies()[0];

    let head_plan = CompiledPlan::compile(pipeline.head(), fusion);
    let body_plan = CompiledPlan::compile(body, fusion);
    let qbody_plan = QCompiledPlan::compile(body, fusion);
    let tail_plan = CompiledPlan::compile(pipeline.tail(), fusion);
    let qinput = QTensorBatch::quantize_batch(&transmitted).dequantize();

    let run = |plan: &CompiledPlan, x| plan.run(x).expect("plan runs");
    let exact = same_bits(run(&body_plan, &transmitted).data(), maps[0].data())
        && same_bits(
            run(&tail_plan, &combined).data(),
            pipeline.classify(&maps).expect("tail runs").data(),
        );

    let head_ms = median_ms(MIN_REPS, BUDGET, || {
        black_box(run(&head_plan, &images));
    });
    let body_ms = median_ms(MIN_REPS, BUDGET, || {
        black_box(run(&body_plan, &transmitted));
    });
    let qbody_ms = median_ms(MIN_REPS, BUDGET, || {
        black_box(qbody_plan.run(&qinput).expect("int8 plan runs"));
    });
    let tail_ms = median_ms(MIN_REPS, BUDGET, || {
        black_box(run(&tail_plan, &combined));
    });
    let head_flops = net_flops(pipeline.head(), images.shape());
    let body_flops = net_flops(body, transmitted.shape());
    (
        vec![
            ("nn.head_ms", head_ms),
            ("nn.head_gflops", head_flops / head_ms / 1e6),
            ("nn.body_ms", body_ms),
            ("nn.body_gflops", body_flops / body_ms / 1e6),
            ("nn.qbody_ms", qbody_ms),
            ("nn.tail_ms", tail_ms),
        ],
        exact,
    )
}
