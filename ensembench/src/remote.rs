//! `remote_single`: one in-process `DefenseServer` serving the default f32
//! model over one loopback v5 connection, one image per request, driven by
//! a raw pipelining client (one sender thread, one receiver thread).
//!
//! * `light`: open loop at 100 req/s; each latency runs from the request's
//!   due time, so a stalled send charges the requests queued behind it.
//! * `sat`: a closed window keeping exactly 8 requests in flight (the
//!   engine's default `max_batch`).
//!
//! The latency metrics come from `light` and the throughput from `sat`
//! (one image per request, so requests per second are images per second).

use crate::common::{
    block_percentile, block_rate, mean, median_ms, nproc, pct_change, row, same_bits, setup_reps,
    stack, threads_now, timed_setup, Outcome, PhaseTally, BATCH, MODEL_SEED, N, P,
};
use crate::inputs::InputStream;
use crate::stats::{median, nearest_rank, sort};
use crate::trace::{span, Tracer};
use crate::wire::{self, Reply};
use crate::Args;
use ensembler::Defense;
use ensembler_serve::{demo_pipeline, AdmissionConfig, DefenseServer, RemoteDefense, ServerConfig};
use ensembler_tensor::Tensor;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Arrival rate of the `light` phase.
const LIGHT_RATE: f64 = 100.0;
/// Requests kept in flight in the `sat` phase.
const WINDOW: usize = 8;
/// Share of the run given to the `light` phase (at 20 s: 1400 requests, so
/// 14 lie beyond the p99 and 140 beyond the p90; the saturated phase
/// settles within a second).
const LIGHT_SHARE: f64 = 0.7;
/// Blocks per phase.
const BLOCKS: usize = 6;
/// Threads the load generator runs on while a phase is live.
const GENERATOR_THREADS: usize = 2;
/// Connections the load generator opens.
const GENERATOR_CONNECTIONS: usize = 1;
/// Request-id bit marking the end-of-phase marker request.
const MARKER: u64 = 1 << 63;

/// When request `k` of an open-loop phase is due, in seconds after the
/// phase start, and how its latency is charged: from its due time, however
/// late the sender put it on the wire.
#[derive(Debug, Clone, Copy)]
pub struct DueSchedule {
    pub rate: f64,
}

impl DueSchedule {
    pub fn due_s(&self, k: u64) -> f64 {
        k as f64 / self.rate
    }

    /// Latency of request `k` answered `completed_s` after the phase start.
    pub fn latency_ms(&self, k: u64, completed_s: f64) -> f64 {
        (completed_s - self.due_s(k)) * 1e3
    }
}

/// How one phase offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    Open { schedule: DueSchedule, count: u64 },
    Window { depth: usize, seconds: f64 },
}

struct Setup {
    pipeline: Arc<dyn Defense>,
    server: DefenseServer,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Threads of this process that are not the server's while a phase runs.
    own_threads: usize,
    next_id: u64,
}

impl Setup {
    fn close(self) {
        drop(self.writer);
        drop(self.reader);
        self.server.shutdown();
    }
}

/// The per-body maps the in-process pipeline computes for `features`
/// (`[1, C, H, W]` each), batched by [`BATCH`] and split back per request.
fn reference_maps(
    pipeline: &dyn Defense,
    features: &[Tensor],
) -> Result<Vec<Vec<Vec<f32>>>, String> {
    let mut out = Vec::with_capacity(features.len());
    for chunk in features.chunks(BATCH) {
        let maps = pipeline
            .server_outputs(&stack(chunk))
            .map_err(|e| e.to_string())?;
        for i in 0..chunk.len() {
            out.push(maps.iter().map(|m| row(m, i).to_vec()).collect());
        }
    }
    Ok(out)
}

fn features(stream: &InputStream, k: u64, shape: &[usize]) -> Tensor {
    stream.tensor(k, shape, -1.0, 1.0)
}

fn feature_shape(pipeline: &dyn Defense) -> Vec<usize> {
    let s = pipeline.config().head_output_shape();
    vec![1, s[0], s[1], s[2]]
}

fn build(seed: u64) -> Result<Setup, String> {
    let pipeline: Arc<dyn Defense> =
        Arc::new(demo_pipeline(N, P, MODEL_SEED).map_err(|e| e.to_string())?);
    let base_threads = threads_now();
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_connection_inflight_requests: WINDOW as u64,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DefenseServer::bind(Arc::clone(&pipeline), "127.0.0.1:0", config)
        .map_err(|e| e.to_string())?;

    // Before timing: remote == in-process, and a single-image answer equals
    // its row of an in-process batch (the reference the phases use).
    let gate = InputStream::new(seed, "gate");
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr())
        .map_err(|e| e.to_string())?;
    let size = pipeline.config().image_size;
    for k in 0..4 {
        let images = gate.images(k, 1, size);
        let (a, b) = (remote.predict(&images), pipeline.predict(&images));
        match (a, b) {
            (Ok(a), Ok(b)) if same_bits(a.data(), b.data()) => {}
            _ => return Err("remote predict differs from in-process predict".into()),
        }
    }
    let shape = feature_shape(&*pipeline);
    let singles: Vec<Tensor> = (0..4).map(|k| features(&gate, 100 + k, &shape)).collect();
    let reference = reference_maps(&*pipeline, &singles)?;
    for (single, want) in singles.iter().zip(&reference) {
        let got = remote.server_outputs(single).map_err(|e| e.to_string())?;
        if !got.iter().zip(want).all(|(g, w)| same_bits(g.data(), w)) {
            return Err("a single-image answer differs from its batched reference".into());
        }
    }
    drop(remote);

    // The generator's own budget: no more threads and connections than
    // cores, and a window that draws no Overloaded reply.
    if GENERATOR_THREADS > nproc() || GENERATOR_CONNECTIONS > nproc() {
        return Err(format!(
            "the load generator needs {GENERATOR_THREADS} threads on {} cores",
            nproc()
        ));
    }
    let (mut writer, read) = wire::connect(server.local_addr())?;
    read.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(read);
    for k in 0..WINDOW as u64 {
        writer
            .write_all(&wire::encode_request(k, &features(&gate, 200 + k, &shape)))
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..WINDOW {
        let frame = wire::read_frame(&mut reader).map_err(|e| e.to_string())?;
        match wire::decode_reply(&frame)? {
            (_, Reply::Maps(_)) => {}
            (_, Reply::Overloaded) => {
                return Err(format!("a window of {WINDOW} draws Overloaded replies"))
            }
            (_, Reply::Error(e)) => return Err(format!("window probe failed: {e}")),
        }
    }
    Ok(Setup {
        pipeline,
        server,
        writer,
        reader,
        own_threads: base_threads + GENERATOR_THREADS,
        next_id: WINDOW as u64,
    })
}

struct Sent {
    k: u64,
    due: Instant,
    sent: Instant,
    written: Instant,
    bytes: usize,
}

struct Got {
    id: u64,
    at: Instant,
    reply: Reply,
    bytes: usize,
}

/// Everything one phase recorded.
struct PhaseRun {
    start: Instant,
    end: Instant,
    first_id: u64,
    sent: Vec<Sent>,
    got: Vec<Got>,
    transport_error: Option<String>,
    threads_peak: usize,
    queue_depth_max: u64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn run_phase(
    setup: &mut Setup,
    stream: &InputStream,
    load: Load,
    tracer: Option<&Tracer>,
    sample: bool,
) -> PhaseRun {
    let shape = feature_shape(&*setup.pipeline);
    let first_id = setup.next_id;
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let (writer, reader) = (&mut setup.writer, &mut setup.reader);
    let server = &setup.server;

    let (sent, (got, transport_error), samples) = std::thread::scope(|s| {
        let done = &done;
        let sender = s.spawn(move || {
            let mut sent = Vec::new();
            let mut outstanding = 0usize;
            let mut k = 0u64;
            'send: loop {
                let input = features(stream, k, &shape);
                let due = match load {
                    Load::Open { schedule, count } => {
                        if k == count {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(schedule.due_s(k));
                        sleep_until(due);
                        due
                    }
                    Load::Window { depth, seconds } => {
                        while outstanding >= depth {
                            if token_rx.recv().is_err() {
                                break 'send;
                            }
                            outstanding -= 1;
                        }
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        Instant::now()
                    }
                };
                while token_rx.try_recv().is_ok() {
                    outstanding -= 1;
                }
                let sent_at = Instant::now();
                let id = first_id + k;
                let frame = span(tracer, "encode", None, id, |_| {
                    wire::encode_request(id, &input)
                });
                let ok = span(tracer, "write", None, id, |_| {
                    writer.write_all(&frame).is_ok()
                });
                if !ok {
                    break;
                }
                sent.push(Sent {
                    k,
                    due,
                    sent: sent_at,
                    written: Instant::now(),
                    bytes: frame.len(),
                });
                outstanding += 1;
                k += 1;
            }
            // Wait for every answer, then send the marker that releases the
            // receiver: it is the only request in flight, so its answer
            // arrives last.
            while outstanding > 0 && token_rx.recv().is_ok() {
                outstanding -= 1;
            }
            let marker = wire::encode_request(MARKER | (first_id + k), &Tensor::zeros(&shape));
            let _ = writer.write_all(&marker);
            done.store(true, Ordering::SeqCst);
            sent
        });
        let receiver = s.spawn(move || {
            let mut got = Vec::new();
            let error = loop {
                let frame = match wire::read_frame(reader) {
                    Ok(frame) => frame,
                    Err(e) => break Some(format!("read: {e}")),
                };
                let at = Instant::now();
                let (id, reply) = match wire::decode_reply(&frame) {
                    Ok(d) => d,
                    Err(e) => break Some(format!("decode: {e}")),
                };
                if let Some(t) = tracer {
                    t.record("decode", at, Instant::now(), None, id);
                }
                if id & MARKER != 0 {
                    break None;
                }
                got.push(Got {
                    id,
                    at,
                    reply,
                    bytes: frame.len(),
                });
                let _ = token_tx.send(());
            };
            // Dropping the token sender wakes a sender still waiting.
            (got, error)
        });
        let mut samples = (0usize, 0u64);
        if sample {
            while !done.load(Ordering::SeqCst) {
                samples.0 = samples.0.max(threads_now());
                samples.1 = samples.1.max(server.engine_stats().queue_depth);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let sent = sender.join().expect("sender thread does not panic");
        let got = receiver.join().expect("receiver thread does not panic");
        (sent, got, samples)
    });
    setup.next_id = first_id + sent.len() as u64 + 1;
    let end = got.last().map_or(Instant::now(), |g| g.at);
    PhaseRun {
        start,
        end,
        first_id,
        sent,
        got,
        transport_error,
        threads_peak: samples.0,
        queue_depth_max: samples.1,
    }
}

/// Per-request outcome after the phase: `Some(completion instant)` for a
/// verified answer, `None` for a failed one (error frame, transport loss
/// or any bit differing from the in-process reference).
fn verify(
    setup: &Setup,
    stream: &InputStream,
    run: &PhaseRun,
) -> Result<Vec<Option<Instant>>, String> {
    let shape = feature_shape(&*setup.pipeline);
    let inputs: Vec<Tensor> = run
        .sent
        .iter()
        .map(|s| features(stream, s.k, &shape))
        .collect();
    let reference = reference_maps(&*setup.pipeline, &inputs)?;
    let mut outcome = vec![None; run.sent.len()];
    for g in &run.got {
        let Some(k) = g.id.checked_sub(run.first_id).map(|k| k as usize) else {
            continue;
        };
        if let (Some(want), Reply::Maps(maps)) = (reference.get(k), &g.reply) {
            let exact = maps.len() == want.len()
                && maps.iter().zip(want).all(|(m, w)| same_bits(m.data(), w));
            if exact {
                outcome[k] = Some(g.at);
            }
        }
    }
    Ok(outcome)
}

/// Client-side totals of one phase across its blocks.
struct PhaseTotals {
    tally: PhaseTally,
    /// Engine batches and requests executed during the phase's blocks.
    batches: u64,
    requests: u64,
    threads_peak: usize,
    queue_depth_max: u64,
    wall_s: f64,
}

impl PhaseTotals {
    fn new(name: &'static str) -> Self {
        Self {
            tally: PhaseTally {
                name,
                attempted: 0,
                failed: 0,
            },
            batches: 0,
            requests: 0,
            threads_peak: 0,
            queue_depth_max: 0,
            wall_s: 0.0,
        }
    }

    fn mean_batch(&self) -> f64 {
        self.requests as f64 / self.batches.max(1) as f64
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let (mut setup, setup_s) = timed_setup(setup_reps(args), || build(seed), Setup::close)?;
    let mut outcome = Outcome::default();
    let tracer = args.trace.then(Tracer::default);
    let traced = tracer.is_some();
    if !traced {
        outcome.metric("setup_s", setup_s);
    }
    let schedule = DueSchedule { rate: LIGHT_RATE };
    let light_s = args.seconds * LIGHT_SHARE / BLOCKS as f64;
    let sat_s = args.seconds * (1.0 - LIGHT_SHARE) / BLOCKS as f64;
    let stats_before = setup.server.stats();

    // Each phase runs as BLOCKS back-to-back blocks; throughputs are the
    // median of per-block rates. The phases do not alternate: a saturated
    // block straight after an idle-ish light block measured 20-50% below
    // steady state, so `sat` starts with one more block whose answers are
    // checked but whose times are left out. A traced run traces every
    // other timed block.
    let mut blocks = Vec::with_capacity(2 * BLOCKS + 1);
    for (name, load, warmup_blocks) in [
        (
            "light",
            Load::Open {
                schedule,
                count: (light_s * LIGHT_RATE).round() as u64,
            },
            0,
        ),
        (
            "sat",
            Load::Window {
                depth: WINDOW,
                seconds: sat_s,
            },
            1,
        ),
    ] {
        for block in 0..warmup_blocks + BLOCKS {
            let warmup = block < warmup_blocks;
            let block_tracer = tracer
                .as_ref()
                .filter(|_| !warmup && (block - warmup_blocks) % 2 == 1);
            let stream = InputStream::new(seed, &format!("{name}{block}"));
            let before = setup.server.engine_stats();
            let run = run_phase(&mut setup, &stream, load, block_tracer, traced);
            let after = setup.server.engine_stats();
            let traced = block_tracer.is_some();
            blocks.push((name, stream, warmup, traced, run, before, after));
        }
    }

    let mut light = PhaseTotals::new("light");
    let mut sat = PhaseTotals::new("sat");
    let (mut light_latency, mut late, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
    let mut light_blocks = Vec::new();
    let mut sat_rates = Vec::new();
    let mut sat_time_per_req = [(0.0, 0u64); 2];
    let mut overloaded = 0u64;
    let mut bytes = (0, 0);
    for (name, stream, warmup, block_traced, run, before, after) in &blocks {
        let verified = verify(&setup, stream, run)?;
        let totals = if *name == "light" {
            &mut light
        } else {
            &mut sat
        };
        let failed = verified.iter().filter(|v| v.is_none()).count() as u64;
        totals.tally.attempted += run.sent.len() as u64;
        totals.tally.failed += failed;
        overloaded += run
            .got
            .iter()
            .filter(|g| g.reply == Reply::Overloaded)
            .count() as u64;
        if let Some(e) = &run.transport_error {
            outcome
                .problems
                .push(format!("{name} block transport error: {e}"));
        }
        if *warmup {
            continue;
        }
        totals.batches += after.batches_executed - before.batches_executed;
        totals.requests += after.requests_served - before.requests_served;
        totals.threads_peak = totals.threads_peak.max(run.threads_peak);
        totals.queue_depth_max = totals.queue_depth_max.max(run.queue_depth_max);
        let wall_s = (run.end - run.start).as_secs_f64();
        totals.wall_s += wall_s;
        if *name == "light" {
            let mut block_latency = Vec::new();
            for (s, ok) in run.sent.iter().zip(&verified) {
                late.push((s.sent - s.due).as_secs_f64() * 1e3);
                // A failed request misses any latency limit: it is charged
                // the whole block.
                let latency = match ok {
                    Some(at) => schedule.latency_ms(s.k, (*at - run.start).as_secs_f64()),
                    None => wall_s * 1e3,
                };
                block_latency.push(latency);
                if let (Some(at), true) = (ok, block_traced) {
                    rtt.push((*at - s.written).as_secs_f64() * 1e3);
                }
            }
            light_latency.extend(&block_latency);
            if !block_traced {
                light_blocks.push(block_latency);
            }
            bytes = (
                run.sent.first().map_or(0, |s| s.bytes),
                run.got.first().map_or(0, |g| g.bytes),
            );
        } else {
            let verified_count = run.sent.len() as u64 - failed;
            if !block_traced {
                sat_rates.push(verified_count as f64 / wall_s);
            }
            let slot = &mut sat_time_per_req[usize::from(*block_traced)];
            slot.0 += wall_s;
            slot.1 += verified_count;
        }
    }
    outcome.phases.push(light.tally.clone());
    outcome.phases.push(sat.tally.clone());
    sort(&mut light_latency);
    sort(&mut late);
    if !traced {
        outcome.metric("throughput_img_s", block_rate(&mut sat_rates));
        outcome.metric("latency_p50_ms", block_percentile(&mut light_blocks, 0.5));
        outcome.metric("latency_p90_ms", block_percentile(&mut light_blocks, 0.9));
        eprintln!(
            "light p99 {:.3} ms over {} requests (reported by traced runs); \
             generator late p99 {:.3} ms",
            nearest_rank(&light_latency, 0.99),
            light_latency.len(),
            nearest_rank(&late, 0.99),
        );
    }

    // The server's counters must agree with the client's tallies. Each
    // block ends with one marker request the server also answers.
    let stats_after = setup.server.stats();
    let markers = blocks.len() as u64;
    let served = stats_after.requests_served - stats_before.requests_served - markers;
    let rejected = stats_after.requests_rejected - stats_before.requests_rejected;
    let errors = stats_after.errors_sent - stats_before.errors_sent;
    let attempted = outcome.attempted();
    if served + rejected != attempted || rejected != overloaded {
        outcome.problems.push(format!(
            "server counted {served} served + {rejected} rejected, client sent {attempted} \
             and saw {overloaded} Overloaded"
        ));
    }

    if let Some(tracer) = &tracer {
        let shape = feature_shape(&*setup.pipeline);
        let stream = InputStream::new(seed, "batch8");
        let batch8 = stack(
            &(0..8)
                .map(|k| features(&stream, k, &shape))
                .collect::<Vec<_>>(),
        );
        let batch8_ms = median_ms(5, Duration::from_millis(500), || {
            std::hint::black_box(setup.pipeline.server_outputs(&batch8).expect("bodies run"));
        });
        let mean_us = |name| mean(&tracer.durations_ms(name)) * 1e3;
        let own = setup.own_threads;
        let per_req = |(seconds, n): (f64, u64)| seconds / n.max(1) as f64;
        outcome.metric("engine.batches", sat.batches as f64);
        outcome.metric("engine.mean_batch", sat.mean_batch());
        outcome.metric(
            "engine.max_batch",
            setup.server.engine_stats().max_batch_observed as f64,
        );
        outcome.metric("engine.queue_depth_max", sat.queue_depth_max as f64);
        outcome.metric("engine.light_batches", light.batches as f64);
        outcome.metric("engine.light_mean_batch", light.mean_batch());
        outcome.metric("engine.batch8_compute_ms", batch8_ms);
        outcome.metric("serve.encode_request_us", mean_us("encode"));
        outcome.metric("serve.decode_response_us", mean_us("decode"));
        outcome.metric("serve.request_bytes", bytes.0 as f64);
        outcome.metric("serve.response_bytes", bytes.1 as f64);
        outcome.metric("serve.rtt_ms", median(&mut rtt));
        outcome.metric(
            "serve.compute_share",
            sat.batches as f64 * batch8_ms / (sat.wall_s * 1e3),
        );
        outcome.metric(
            "serve.threads_peak",
            sat.threads_peak.saturating_sub(own) as f64,
        );
        outcome.metric(
            "serve.threads_peak_light",
            light.threads_peak.saturating_sub(own) as f64,
        );
        outcome.metric("serve.requests_served", served as f64);
        outcome.metric("serve.requests_rejected", rejected as f64);
        outcome.metric("serve.errors_sent", errors as f64);
        outcome.metric("serve.light_p99_ms", nearest_rank(&light_latency, 0.99));
        outcome.metric("gen.late_p99_ms", nearest_rank(&late, 0.99));
        outcome.metric(
            "trace.overhead_pct",
            pct_change(per_req(sat_time_per_req[0]), per_req(sat_time_per_req[1])),
        );
    }
    outcome.spans.extend(tracer.map(|t| ("remote_single", t)));
    setup.close();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_send_charges_the_requests_queued_behind_it() {
        // 100 req/s: request k is due at k·10 ms. The send of request 1
        // stalls until 60 ms and requests 2..=5 queue behind it; each is
        // answered 3 ms after it is sent.
        let schedule = DueSchedule { rate: 100.0 };
        let sent_s = [0.0, 0.060, 0.0601, 0.0602, 0.0603, 0.0604];
        let latencies: Vec<f64> = sent_s
            .iter()
            .enumerate()
            .map(|(k, sent)| schedule.latency_ms(k as u64, sent + 0.003))
            .collect();
        assert!((latencies[0] - 3.0).abs() < 1e-9);
        assert!((latencies[1] - 53.0).abs() < 1e-9);
        assert!((latencies[2] - 43.1).abs() < 1e-9);
        assert!((latencies[5] - 13.4).abs() < 1e-9);
        // Timed from its send, every request would read 3 ms and the stall
        // would vanish from the percentiles.
        assert!(latencies[1..].iter().all(|&l| l > 10.0));
    }
}
