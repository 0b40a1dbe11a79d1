//! `local_batch`: one caller thread, closed loop, in-process
//! `Defense::predict` on batches of 32 images. One operation is a pair of
//! calls on fresh batches: the f32 `EnsemblerPipeline`, then
//! `QuantizedDefense::quantize` of it, so both precisions share every
//! host-contention episode and the latency of an operation is unimodal.

use crate::common::{
    block_rate, grouped_percentile, mean, median_ms, nproc, pct_change, same_bits, setup_reps,
    timed_setup, Outcome, PhaseTally, BATCH, BLOCK_S, MODEL_SEED, N, P,
};
use crate::inputs::InputStream;
use crate::layers;
use crate::trace::{span, Tracer};
use crate::Args;
use ensembler::{
    Defense, DefenseKind, EnsemblerPipeline, Precision, QuantizedDefense, SinglePipeline,
};
use ensembler_serve::demo_pipeline;
use ensembler_tensor::{QTensorBatch, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Setup {
    pipeline: Arc<EnsemblerPipeline>,
    int8: Arc<QuantizedDefense>,
}

fn phase_name(precision: Precision) -> &'static str {
    match precision {
        Precision::F32 => "f32",
        Precision::Int8 => "int8",
    }
}

/// The stage calls `predict` composes, each in its own span when traced:
/// for int8 the quantize and dequantize steps `QuantizedDefense` performs
/// around its int8 bodies are separate stages.
fn staged(
    defense: &dyn Defense,
    images: &Tensor,
    tracer: Option<&Tracer>,
    op: u64,
) -> Result<Tensor, String> {
    let precision = defense.precision();
    let run = |parent| -> Result<Tensor, ensembler::EnsemblerError> {
        let features = span(tracer, "client_features", parent, op, |_| {
            defense.client_features(images)
        })?;
        let maps = match precision {
            Precision::F32 => span(tracer, "server_outputs", parent, op, |_| {
                defense.server_outputs(&features)
            })?,
            Precision::Int8 => {
                let q = span(tracer, "quantize", parent, op, |_| {
                    QTensorBatch::quantize_batch(&features)
                });
                let qmaps = span(tracer, "server_outputs_q", parent, op, |_| {
                    defense.server_outputs_quantized(&q)
                })?;
                span(tracer, "dequantize", parent, op, |_| {
                    qmaps.iter().map(QTensorBatch::dequantize).collect()
                })
            }
        };
        span(tracer, "classify", parent, op, |_| defense.classify(&maps))
    };
    let name = match precision {
        Precision::F32 => "predict_f32",
        Precision::Int8 => "predict_int8",
    };
    span(tracer, name, None, op, run).map_err(|e| e.to_string())
}

/// One precision's calls within a block: per-call seconds and the answers,
/// by input index.
#[derive(Default)]
struct PhaseRun {
    op_seconds: Vec<f64>,
    answers: Vec<(u64, Result<Tensor, String>)>,
}

/// Calls `predict` (or, when traced, the staged composition) of each
/// defense in turn on fresh batches `first..` of its stream until `seconds`
/// have passed: one run per defense.
fn run_block(
    defenses: &[&dyn Defense; 2],
    streams: &[InputStream; 2],
    first: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> [PhaseRun; 2] {
    let size = defenses[0].config().image_size;
    let mut runs = [PhaseRun::default(), PhaseRun::default()];
    let start = Instant::now();
    let mut index = first;
    while start.elapsed().as_secs_f64() < seconds {
        for ((defense, stream), run) in defenses.iter().zip(streams).zip(&mut runs) {
            let images = stream.images(index, BATCH, size);
            let t = Instant::now();
            let answer = match tracer {
                None => defense.predict(&images).map_err(|e| e.to_string()),
                Some(_) => staged(*defense, &images, tracer, index),
            };
            run.op_seconds.push(t.elapsed().as_secs_f64());
            run.answers.push((index, answer));
        }
        index += 1;
    }
    runs
}

/// Recomputes every answer outside the timed loop — through the staged
/// composition for `predict` answers and through `predict` for staged
/// ones — and counts the answers that differ in any bit.
fn count_failed(defense: &dyn Defense, stream: &InputStream, run: &PhaseRun, traced: bool) -> u64 {
    let size = defense.config().image_size;
    let mut failed = 0;
    for (index, answer) in &run.answers {
        let images = stream.images(*index, BATCH, size);
        let reference = if traced {
            defense.predict(&images).map_err(|e| e.to_string())
        } else {
            staged(defense, &images, None, *index)
        };
        let ok = match (answer, reference) {
            (Ok(a), Ok(r)) => same_bits(a.data(), r.data()),
            _ => false,
        };
        failed += u64::from(!ok);
    }
    failed
}

fn build() -> Result<Setup, String> {
    let pipeline = Arc::new(demo_pipeline(N, P, MODEL_SEED).map_err(|e| e.to_string())?);
    let int8 = Arc::new(QuantizedDefense::quantize(
        Arc::clone(&pipeline) as Arc<dyn Defense>
    ));
    // Warm the lazily compiled plans and check, before any timing, that
    // `predict` equals the staged composition at both precisions.
    let size = pipeline.config().image_size;
    let images = InputStream::new(0, "warm").images(0, BATCH, size);
    for defense in [&*pipeline as &dyn Defense, &*int8] {
        let direct = defense.predict(&images).map_err(|e| e.to_string())?;
        let composed = staged(defense, &images, None, 0)?;
        if !same_bits(direct.data(), composed.data()) {
            return Err(format!(
                "{} predict differs from its staged composition",
                phase_name(defense.precision())
            ));
        }
    }
    Ok(Setup { pipeline, int8 })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup, setup_s) = timed_setup(setup_reps(args), build, drop)?;
    let mut outcome = Outcome::default();
    let tracer = args.trace.then(Tracer::default);

    // A traced run traces every other block, so the tracing overhead and
    // the stage residual compare neighbouring blocks.
    let defenses: [&dyn Defense; 2] = [&*setup.pipeline, &*setup.int8];
    let streams = defenses.map(|d| InputStream::new(args.seed, phase_name(d.precision())));
    let blocks = ((args.seconds / BLOCK_S).round() as usize).max(2);
    let mut runs = Vec::with_capacity(blocks);
    let mut next = 0u64;
    for block in 0..blocks {
        let block_tracer = tracer.as_ref().filter(|_| block % 2 == 1);
        let pair = run_block(&defenses, &streams, next, BLOCK_S, block_tracer);
        next += pair[0].answers.len() as u64;
        runs.push((block_tracer.is_some(), pair));
    }

    let mut rates = Vec::new();
    let mut latency_blocks = Vec::new();
    let mut pair_ms = [Vec::new(), Vec::new()];
    let mut untraced_op_ms = [0.0; 2];
    for (slot, defense) in defenses.into_iter().enumerate() {
        let mut tally = PhaseTally {
            name: phase_name(defense.precision()),
            attempted: 0,
            failed: 0,
        };
        let mut op_seconds = Vec::new();
        for (traced, pair) in &runs {
            tally.attempted += pair[slot].answers.len() as u64;
            tally.failed += count_failed(defense, &streams[slot], &pair[slot], *traced);
            if !traced {
                op_seconds.extend(&pair[slot].op_seconds);
            }
        }
        untraced_op_ms[slot] = mean(&op_seconds) * 1e3;
        outcome.phases.push(tally);
    }
    for (traced, [f32_run, int8_run]) in &runs {
        // One operation: the f32 and int8 calls on one index, in ms.
        let ms: Vec<f64> = f32_run
            .op_seconds
            .iter()
            .zip(&int8_run.op_seconds)
            .map(|(a, b)| (a + b) * 1e3)
            .collect();
        if !traced {
            rates.push(2.0 * BATCH as f64 * ms.len() as f64 / ms.iter().sum::<f64>() * 1e3);
            latency_blocks.push(ms.clone());
        }
        pair_ms[usize::from(*traced)].extend(ms);
    }

    match &tracer {
        None => {
            outcome.metric("setup_s", setup_s);
            outcome.metric("throughput_img_s", block_rate(&mut rates));
            outcome.metric("latency_p50_ms", grouped_percentile(&latency_blocks, 0.5));
            outcome.metric("latency_p90_ms", grouped_percentile(&latency_blocks, 0.9));
        }
        Some(tracer) => {
            outcome.metric(
                "trace.overhead_pct",
                pct_change(mean(&pair_ms[0]), mean(&pair_ms[1])),
            );
            traced_metrics(&mut outcome, &setup, tracer, untraced_op_ms, args.seed);
        }
    }
    outcome.spans.extend(tracer.map(|t| ("local_batch", t)));
    Ok(outcome)
}

fn traced_metrics(
    outcome: &mut Outcome,
    setup: &Setup,
    tracer: &Tracer,
    untraced_op_ms: [f64; 2],
    seed: u64,
) {
    for (name, value) in layers::tensor_metrics(seed) {
        outcome.metric(name, value);
    }
    let (nn, exact) = layers::nn_metrics(&setup.pipeline, seed);
    if !exact {
        outcome
            .problems
            .push("plans compiled from the pipeline's parts differ from its stages".into());
    }
    let body_ms = nn
        .iter()
        .find(|(n, _)| *n == "nn.body_ms")
        .map(|(_, v)| *v)
        .expect("nn metrics include the body");
    for (name, value) in nn {
        outcome.metric(name, value);
    }

    let stage = |name| tracer.mean_ms(name);
    let f32_stages = ["client_features", "server_outputs", "classify"];
    let int8_stages = ["quantize", "server_outputs_q", "dequantize"];
    // The client stages run in both phases, so each phase's sum takes them
    // from the spans under its own op spans.
    let f32_sum: f64 = f32_stages
        .iter()
        .map(|s| stage_in(tracer, s, "predict_f32"))
        .sum();
    let int8_sum: f64 = ["client_features", "classify"]
        .iter()
        .map(|s| stage_in(tracer, s, "predict_int8"))
        .sum::<f64>()
        + int8_stages.iter().map(|s| stage(s)).sum::<f64>();
    outcome.metric(
        "ensembler.client_features_ms",
        stage_in(tracer, "client_features", "predict_f32"),
    );
    outcome.metric("ensembler.server_outputs_ms", stage("server_outputs"));
    outcome.metric(
        "ensembler.classify_ms",
        stage_in(tracer, "classify", "predict_f32"),
    );
    outcome.metric("ensembler.quantize_ms", stage("quantize"));
    outcome.metric("ensembler.server_outputs_q_ms", stage("server_outputs_q"));
    outcome.metric("ensembler.dequantize_ms", stage("dequantize"));
    let residual = |untraced: f64, sum: f64| (untraced - sum) / untraced * 100.0;
    let f32_residual = residual(untraced_op_ms[0], f32_sum);
    let int8_residual = residual(untraced_op_ms[1], int8_sum);
    for (precision, r) in [("f32", f32_residual), ("int8", int8_residual)] {
        if r.abs() > 10.0 {
            eprintln!("warning: {precision} stage spans leave a {r:.1}% residual (limit 10%)");
        }
    }
    outcome.metric("ensembler.stage_residual_pct", f32_residual);
    outcome.metric("ensembler.stage_residual_int8_pct", int8_residual);
    outcome.metric(
        "ensembler.fanout_efficiency",
        N as f64 * body_ms / (stage("server_outputs") * N.min(nproc()) as f64),
    );

    // The paper's overhead figure on this machine: the same backbone with
    // no defense and one body, against the ensemble, batch by batch.
    let single = SinglePipeline::new(
        setup.pipeline.config().clone(),
        DefenseKind::NoDefense,
        MODEL_SEED,
    )
    .expect("the demo backbone is valid");
    let images =
        InputStream::new(seed, "overhead").images(0, BATCH, setup.pipeline.config().image_size);
    let budget = Duration::from_millis(800);
    let single_ms = median_ms(5, budget, || {
        std::hint::black_box(single.predict(&images).expect("single predict"));
    });
    let ensemble_ms = median_ms(5, budget, || {
        std::hint::black_box(setup.pipeline.predict(&images).expect("predict"));
    });
    outcome.metric(
        "ensembler.overhead_vs_single_pct",
        pct_change(single_ms, ensemble_ms),
    );
}

/// Mean duration of the spans named `name` whose parent is a `parent` span.
fn stage_in(tracer: &Tracer, name: &str, parent: &str) -> f64 {
    mean(&tracer.child_durations_ms(name, parent))
}
