//! Pieces every workload shares: the pipeline under test, set-up timing,
//! bit-exact comparison, phase tallies and the run outcome.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use ensembler_tensor::Tensor;
use std::time::{Duration, Instant};

/// Ensemble size `N` of the pipeline under test.
pub const N: usize = 4;
/// Selected count `P` of the pipeline under test.
pub const P: usize = 2;
/// Weight seed of the pipeline under test (`demo_pipeline(N, P, 7)`).
pub const MODEL_SEED: u64 = 7;
/// Images per batch in the batch workloads.
pub const BATCH: usize = 32;
/// Times set-up runs in an untraced run; `setup_s` is the median. A traced
/// run does not report `setup_s` and sets up once.
pub const SETUP_REPS: usize = 9;
/// Length of one measurement block. Throughputs are taken per block and
/// summarised by [`block_rate`].
pub const BLOCK_S: f64 = 1.0;
/// Blocks pooled into one latency sample by the closed-loop workloads, so
/// that each sample leaves at least ten calls beyond its p90.
pub const LATENCY_GROUP: usize = 4;

/// Operations attempted and failed in one phase.
#[derive(Debug, Clone)]
pub struct PhaseTally {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub phases: Vec<PhaseTally>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed checks outside the per-operation tallies (start-up gates,
    /// server counters that disagree with the client's).
    pub problems: Vec<String>,
    /// Spans of a traced run, by the workload section that recorded them.
    pub spans: Vec<(&'static str, Tracer)>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty() && self.attempted() > 0
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Adds the phases, metrics, problems and spans of `other`.
    pub fn absorb(&mut self, other: Outcome) {
        self.phases.extend(other.phases);
        self.metrics.extend(other.metrics);
        self.problems.extend(other.problems);
        self.spans.extend(other.spans);
    }

    /// Human-readable lines before the JSON result; spans of a traced run
    /// are written to `.bench_spans/`.
    pub fn print_summary(&self, args: &Args) {
        for p in &self.phases {
            println!(
                "phase {:<12} attempted {:>7} failed {}",
                p.name, p.attempted, p.failed
            );
        }
        let list = if args.trace { PER_LAYER } else { END_TO_END };
        for (name, value) in &self.metrics {
            let unit = metrics::find(list, name).map_or("?", |s| s.unit);
            println!("{name:<36} {value:>14.4} {unit}");
        }
        for problem in &self.problems {
            println!("problem: {problem}");
        }
        for (section, tracer) in &self.spans {
            let path = std::path::PathBuf::from(format!(
                ".bench_spans/{}-seed{}-{section}.tsv",
                args.workload, args.seed
            ));
            match tracer.save(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
        }
    }
}

/// Runs `make` `reps` times, closing every instance but the last, and
/// returns the last with the median set-up time in seconds.
pub fn timed_setup<T>(
    reps: usize,
    mut make: impl FnMut() -> Result<T, String>,
    mut close: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            close(previous);
        }
        let start = Instant::now();
        kept = Some(make()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        kept.expect("at least one set-up"),
        stats::median(&mut times),
    ))
}

/// How many times a run sets up: [`SETUP_REPS`] when it reports `setup_s`.
pub fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// Bitwise equality of two `f32` slices (so `-0.0 != 0.0` and equal NaNs
/// match): the benchmark's notion of a correct answer.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Row `i` of a `[B, ...]` tensor.
pub fn row(t: &Tensor, i: usize) -> &[f32] {
    let width = t.len() / t.shape()[0];
    &t.data()[i * width..(i + 1) * width]
}

/// Concatenates `[1, ...]` (or `[b, ...]`) tensors along the batch axis.
pub fn stack(items: &[Tensor]) -> Tensor {
    let mut shape = items[0].shape().to_vec();
    shape[0] = items.iter().map(|t| t.shape()[0]).sum();
    let data = items
        .iter()
        .flat_map(|t| t.data().iter().copied())
        .collect();
    Tensor::from_vec(data, &shape).expect("stacked items share a shape")
}

/// Cores the benchmark may assume.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time of `f` in milliseconds, over at least `min_reps` calls
/// and at least `budget` of calls.
pub fn median_ms(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&mut times)
}

/// The `Threads:` count of this process, from `/proc/self/status`.
pub fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The throughput a run reports from its per-block rates: their median, so
/// a host-contention episode shorter than half the run does not move it.
pub fn block_rate(rates: &mut [f64]) -> f64 {
    stats::median(rates)
}

/// A latency percentile a run reports from per-block samples: the median
/// of the blocks' nearest-rank `q` percentiles, so an episode shorter than
/// half the run does not move it. Warns about a block too small to leave
/// ten samples beyond the percentile.
pub fn block_percentile(blocks: &mut [Vec<f64>], q: f64) -> f64 {
    let mut per_block: Vec<f64> = blocks
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            if !stats::supports(b.len(), q) {
                eprintln!(
                    "warning: a block of {} samples leaves fewer than {} beyond p{}",
                    b.len(),
                    stats::MIN_BEYOND,
                    q * 100.0
                );
            }
            stats::sort(b);
            stats::nearest_rank(b, q)
        })
        .collect();
    stats::median(&mut per_block)
}

/// [`block_percentile`] over groups of [`LATENCY_GROUP`] consecutive blocks.
pub fn grouped_percentile(blocks: &[Vec<f64>], q: f64) -> f64 {
    let mut groups: Vec<Vec<f64>> = blocks.chunks(LATENCY_GROUP).map(|g| g.concat()).collect();
    block_percentile(&mut groups, q)
}

/// Percent change from `base` to `value`.
pub fn pct_change(base: f64, value: f64) -> f64 {
    (value - base) / base * 100.0
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_answer_counts_as_failed() {
        let reference = Tensor::from_vec(vec![0.25, -1.5, 3.0, 0.0], &[2, 2]).unwrap();
        let answer = reference.clone();
        assert!(same_bits(row(&answer, 1), row(&reference, 1)));
        let mut corrupted = answer.into_vec();
        corrupted[3] = -0.0; // equal as floats, different bits
        let corrupted = Tensor::from_vec(corrupted, &[2, 2]).unwrap();
        assert!(same_bits(row(&corrupted, 0), row(&reference, 0)));
        assert!(!same_bits(row(&corrupted, 1), row(&reference, 1)));
    }

    #[test]
    fn set_up_reports_the_median_and_closes_earlier_instances() {
        let mut made = 0;
        let mut closed = Vec::new();
        let (kept, seconds) = timed_setup(
            SETUP_REPS,
            || {
                made += 1;
                Ok(made)
            },
            |v| closed.push(v),
        )
        .unwrap();
        assert_eq!(kept, SETUP_REPS);
        assert_eq!(closed, (1..SETUP_REPS).collect::<Vec<_>>());
        assert!(seconds >= 0.0);
    }

    #[test]
    fn block_percentiles_ignore_a_minority_of_bad_blocks() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let mut blocks = vec![calm.clone(), stalled, calm];
        assert_eq!(block_percentile(&mut blocks, 0.9), 90.0);
        assert_eq!(block_rate(&mut [10.0, 1.0, 11.0]), 10.0);
        let pooled: Vec<Vec<f64>> = (0..LATENCY_GROUP).map(|_| vec![1.0, 2.0]).collect();
        assert_eq!(grouped_percentile(&pooled, 0.5), 1.0);
    }

    #[test]
    fn stacking_concatenates_batches() {
        let a = Tensor::full(&[1, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = stack(&[a, b]);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(row(&s, 2), &[2.0, 2.0]);
    }
}
