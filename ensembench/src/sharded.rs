//! `sharded_batch`: one caller thread, closed loop, `ShardRouter::predict`
//! on batches of 32 images. Two in-process worker `DefenseServer`s on
//! loopback serve bodies `0..2` in f32 and `2..4` in int8.

use crate::common::{
    block_rate, grouped_percentile, mean, pct_change, same_bits, setup_reps, timed_setup, Outcome,
    PhaseTally, BATCH, BLOCK_S, MODEL_SEED, N, P,
};
use crate::inputs::InputStream;
use crate::stats::{highest_supported_percentile, median};
use crate::trace::{span, Tracer};
use crate::wire;
use crate::Args;
use ensembler::{Defense, QuantizedDefense};
use ensembler_serve::{demo_pipeline, DefenseServer, RemoteDefense, ServerConfig};
use ensembler_shard::{Placement, RouterConfig, ShardRouter};
use ensembler_tensor::{QTensorBatch, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Body ranges of the two workers.
const F32_RANGE: (usize, usize) = (0, 2);
const INT8_RANGE: (usize, usize) = (2, 4);
/// Answers by input index.
type Answers = Vec<(u64, Result<Tensor, String>)>;

/// Batches timed leg by leg in a traced run.
const LEG_BATCHES: u64 = 40;

struct Setup {
    pipeline: Arc<dyn Defense>,
    int8: Arc<QuantizedDefense>,
    f32_worker: DefenseServer,
    int8_worker: DefenseServer,
    router: ShardRouter,
}

impl Setup {
    fn close(self) {
        drop(self.router);
        self.f32_worker.shutdown();
        self.int8_worker.shutdown();
    }
}

/// The in-process composition a sharded answer must equal: the f32 bodies
/// of `0..2`, the int8 bodies of `2..4` on quantized features, merged in
/// index order.
fn composed_maps(setup: &Setup, features: &Tensor) -> Result<Vec<Tensor>, String> {
    let (lo, hi) = F32_RANGE;
    let mut maps = setup
        .pipeline
        .server_outputs_range(features, lo, hi)
        .map_err(|e| e.to_string())?;
    let (lo, hi) = INT8_RANGE;
    let q = QTensorBatch::quantize_batch(features);
    let qmaps = setup
        .int8
        .server_outputs_quantized_range(&q, lo, hi)
        .map_err(|e| e.to_string())?;
    maps.extend(qmaps.iter().map(QTensorBatch::dequantize));
    Ok(maps)
}

fn composed_predict(setup: &Setup, images: &Tensor) -> Result<Tensor, String> {
    let features = setup
        .pipeline
        .client_features(images)
        .map_err(|e| e.to_string())?;
    let maps = composed_maps(setup, &features)?;
    setup.pipeline.classify(&maps).map_err(|e| e.to_string())
}

fn build(seed: u64) -> Result<Setup, String> {
    let pipeline: Arc<dyn Defense> =
        Arc::new(demo_pipeline(N, P, MODEL_SEED).map_err(|e| e.to_string())?);
    let int8 = Arc::new(QuantizedDefense::quantize(Arc::clone(&pipeline)));
    let bind = |defense: Arc<dyn Defense>| {
        DefenseServer::bind(defense, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| e.to_string())
    };
    let f32_worker = bind(Arc::clone(&pipeline))?;
    let int8_worker = bind(Arc::clone(&int8) as Arc<dyn Defense>)?;
    let placement = Placement::parse(
        &[
            format!(
                "{}={}..{}",
                f32_worker.local_addr(),
                F32_RANGE.0,
                F32_RANGE.1
            ),
            format!(
                "{}={}..{},int8",
                int8_worker.local_addr(),
                INT8_RANGE.0,
                INT8_RANGE.1
            ),
        ],
        N,
    )
    .map_err(|e| e.to_string())?;
    let router = ShardRouter::new(Arc::clone(&pipeline), placement, RouterConfig::default())
        .map_err(|e| e.to_string())?;
    let setup = Setup {
        pipeline,
        int8,
        f32_worker,
        int8_worker,
        router,
    };
    // Before timing (and warming every plan and connection): sharded ==
    // the in-process f32/int8 composition, bit-exact.
    let gate = InputStream::new(seed, "gate");
    let size = setup.pipeline.config().image_size;
    for (k, batch) in [(0, BATCH), (1, 1)] {
        let images = gate.images(k, batch, size);
        let sharded = setup.router.predict(&images).map_err(|e| e.to_string())?;
        if !same_bits(sharded.data(), composed_predict(&setup, &images)?.data()) {
            return Err("sharded predict differs from the in-process composition".into());
        }
    }
    Ok(setup)
}

/// Router calls on fresh batches `first..` until `seconds` have passed:
/// per-call seconds and answers by input index.
fn run_phase(
    setup: &Setup,
    stream: &InputStream,
    first: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Vec<f64>, Answers) {
    let size = setup.pipeline.config().image_size;
    let (mut times, mut answers) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut index = first;
    while start.elapsed().as_secs_f64() < seconds {
        let images = stream.images(index, BATCH, size);
        let t = Instant::now();
        let answer = match tracer {
            None => setup.router.predict(&images).map_err(|e| e.to_string()),
            Some(_) => span(tracer, "predict", None, index, |parent| {
                let router = &setup.router;
                let features = span(tracer, "client_features", parent, index, |_| {
                    router.client_features(&images)
                })?;
                let maps = span(tracer, "scatter", parent, index, |_| {
                    router.server_outputs(&features)
                })?;
                span(tracer, "classify", parent, index, |_| {
                    router.classify(&maps)
                })
            })
            .map_err(|e: ensembler::EnsemblerError| e.to_string()),
        };
        times.push(t.elapsed().as_secs_f64());
        answers.push((index, answer));
        index += 1;
    }
    (times, answers)
}

fn count_failed(setup: &Setup, stream: &InputStream, answers: &Answers) -> u64 {
    let size = setup.pipeline.config().image_size;
    let mut failed = 0;
    for (index, answer) in answers {
        let reference = composed_predict(setup, &stream.images(*index, BATCH, size));
        let ok = matches!((answer, reference), (Ok(a), Ok(r)) if same_bits(a.data(), r.data()));
        failed += u64::from(!ok);
    }
    failed
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let (setup, setup_s) = timed_setup(setup_reps(args), || build(seed), Setup::close)?;
    let mut outcome = Outcome::default();
    let tracer = args.trace.then(Tracer::default);
    if tracer.is_none() {
        outcome.metric("setup_s", setup_s);
    }
    let stats_before = setup.router.shard_stats();
    let stream = InputStream::new(seed, "sharded");
    let mut tally = PhaseTally {
        name: "sharded",
        attempted: 0,
        failed: 0,
    };
    // One-second blocks; a traced run traces every other block, so the
    // tracing overhead compares neighbouring blocks.
    let blocks = ((args.seconds / BLOCK_S).round() as usize).max(2);
    let mut first = 0;
    let mut rates = Vec::new();
    let mut call_ms = [Vec::new(), Vec::new()];
    let mut block_ms = Vec::new();
    for block in 0..blocks {
        let block_tracer = tracer.as_ref().filter(|_| block % 2 == 1);
        let (times, answers) = run_phase(&setup, &stream, first, BLOCK_S, block_tracer);
        first += answers.len() as u64;
        tally.attempted += answers.len() as u64;
        tally.failed += count_failed(&setup, &stream, &answers);
        let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
        if block_tracer.is_none() {
            rates.push(BATCH as f64 * times.len() as f64 / times.iter().sum::<f64>());
            block_ms.push(ms.clone());
        }
        call_ms[usize::from(block_tracer.is_some())].extend(ms);
    }
    outcome.phases.push(tally);
    if tracer.is_none() {
        // Percentiles are taken per group of blocks (about 200 calls, so
        // about 20 beyond the p90), then the median over groups.
        let n = call_ms[0].len();
        eprintln!(
            "{n} calls support percentiles up to p{}",
            highest_supported_percentile(n).map_or(0.0, |q| q * 100.0)
        );
        outcome.metric("throughput_img_s", block_rate(&mut rates));
        outcome.metric("latency_p50_ms", grouped_percentile(&block_ms, 0.5));
        outcome.metric("latency_p90_ms", grouped_percentile(&block_ms, 0.9));
    }

    if let Some(tracer) = &tracer {
        outcome.metric(
            "trace.overhead_pct",
            pct_change(mean(&call_ms[0]), mean(&call_ms[1])),
        );
        outcome.metric("shard.scatter_ms", tracer.mean_ms("scatter"));
        legs(&mut outcome, &setup, seed)?;
        let stats_after = setup.router.shard_stats();
        let delta = |f: fn(&ensembler_serve::ShardStats) -> u64| -> f64 {
            stats_after
                .iter()
                .zip(&stats_before)
                .map(|(a, b)| f(a) - f(b))
                .sum::<u64>() as f64
        };
        outcome.metric("shard.range_requests", delta(|s| s.requests));
        outcome.metric("shard.hedges_fired", delta(|s| s.hedges_fired));
        outcome.metric("shard.health_flaps", delta(|s| s.health_flaps));
    }
    outcome.spans.extend(tracer.map(|t| ("sharded_batch", t)));
    setup.close();
    Ok(outcome)
}

/// Times the benchmark's own range calls to each worker — concurrently,
/// as the router issues them — beside a router scatter of the same batch,
/// and checks each leg's maps against the in-process composition.
fn legs(outcome: &mut Outcome, setup: &Setup, seed: u64) -> Result<(), String> {
    let f32_conn =
        RemoteDefense::connect(Arc::clone(&setup.pipeline), setup.f32_worker.local_addr())
            .map_err(|e| e.to_string())?;
    let int8_conn = RemoteDefense::connect(
        Arc::clone(&setup.int8) as Arc<dyn Defense>,
        setup.int8_worker.local_addr(),
    )
    .map_err(|e| e.to_string())?;
    let stream = InputStream::new(seed, "legs");
    let size = setup.pipeline.config().image_size;
    let (mut f32_ms, mut int8_ms, mut merge_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = [0usize; 4];
    let mut exact = true;
    for k in 0..LEG_BATCHES {
        let features = setup
            .pipeline
            .client_features(&stream.images(k, BATCH, size))
            .map_err(|e| e.to_string())?;
        let timed = |f: &dyn Fn() -> Result<Vec<Tensor>, String>| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed())
        };
        let f32_leg = || {
            f32_conn
                .server_outputs_range(&features, F32_RANGE.0, F32_RANGE.1)
                .map_err(|e| e.to_string())
        };
        let int8_leg = || {
            let q = QTensorBatch::quantize_batch(&features);
            int8_conn
                .server_outputs_quantized_range(&q, INT8_RANGE.0, INT8_RANGE.1)
                .map(|maps| maps.iter().map(QTensorBatch::dequantize).collect())
                .map_err(|e| e.to_string())
        };
        let ((a, ta), (b, tb)) = std::thread::scope(|s| {
            let other = s.spawn(|| timed(&int8_leg));
            let mine = timed(&f32_leg);
            (mine, other.join().expect("leg thread does not panic"))
        });
        let t = Instant::now();
        setup
            .router
            .server_outputs(&features)
            .map_err(|e| e.to_string())?;
        let scatter = t.elapsed();
        let (a, b) = (a?, b?);
        let want = composed_maps(setup, &features)?;
        exact &= a
            .iter()
            .chain(&b)
            .zip(&want)
            .all(|(g, w)| same_bits(g.data(), w.data()));
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        f32_ms.push(ms(ta));
        int8_ms.push(ms(tb));
        merge_ms.push(ms(scatter) - ms(ta.max(tb)));
        if k == 0 {
            let (req, resp) = wire::range_leg_bytes(F32_RANGE.0, F32_RANGE.1, &features, &a);
            let q = QTensorBatch::quantize_batch(&features);
            let qmaps = setup
                .int8
                .server_outputs_quantized_range(&q, INT8_RANGE.0, INT8_RANGE.1)
                .map_err(|e| e.to_string())?;
            let (qreq, qresp) = wire::range_leg_bytes_q(INT8_RANGE.0, INT8_RANGE.1, &q, &qmaps);
            bytes = [req, resp, qreq, qresp];
        }
    }
    if !exact {
        outcome
            .problems
            .push("a worker leg differs from the in-process composition".into());
    }
    outcome.metric("shard.leg_f32_ms", median(&mut f32_ms));
    outcome.metric("shard.leg_int8_ms", median(&mut int8_ms));
    outcome.metric("shard.merge_overhead_ms", median(&mut merge_ms));
    outcome.metric("serve.f32_leg_request_bytes", bytes[0] as f64);
    outcome.metric("serve.f32_leg_response_bytes", bytes[1] as f64);
    outcome.metric("serve.int8_leg_request_bytes", bytes[2] as f64);
    outcome.metric("serve.int8_leg_response_bytes", bytes[3] as f64);
    Ok(())
}
