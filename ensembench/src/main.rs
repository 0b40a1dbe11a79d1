//! The repository benchmark: three workloads driven through the crates'
//! public functions, every answer checked bit-exact, end-to-end metrics from
//! untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path ensembench/Cargo.toml -- \
//!     --workload local_batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run reports
//! every end-to-end metric from the named workload. A traced run reports
//! every per-layer metric: it runs the traced section of each workload for
//! a third of `--seconds`, and takes the tracing overhead from the named
//! one. See `README.md` beside this package for the workloads, metrics and
//! predicted interactions.

mod common;
mod flops;
mod inputs;
mod layers;
mod local;
mod metrics;
mod remote;
mod sharded;
mod stats;
mod trace;
mod wire;

use common::Outcome;
use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds must be within 1..=60, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The workloads, in the order a traced run runs their sections.
const WORKLOADS: [&str; 3] = ["local_batch", "remote_single", "sharded_batch"];

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "local_batch" => local::run(args),
        "remote_single" => remote::run(args),
        "sharded_batch" => sharded::run(args),
        other => Err(format!(
            "unknown workload {other} ({})",
            WORKLOADS.join(", ")
        )),
    }
}

/// A traced run: every workload's traced section, each for an equal share
/// of `--seconds`. Each reports the per-layer metrics of the layers it
/// exercises; the tracing overhead is the named workload's.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return run_workload(args);
    }
    let mut merged = Outcome::default();
    for workload in WORKLOADS {
        let section = Args {
            workload: workload.to_string(),
            seconds: args.seconds / WORKLOADS.len() as f64,
            ..args.clone()
        };
        let mut outcome = run_workload(&section)?;
        // A section keeps the metrics declared for it; of those every
        // section measures, the named workload's.
        outcome.metrics.retain(|(name, _)| {
            metrics::find(PER_LAYER, name).is_some_and(|spec| {
                spec.workload == workload || (spec.workload == "all" && workload == args.workload)
            })
        });
        merged.absorb(outcome);
    }
    Ok(merged)
}

/// The result line. Every metric of this mode's list must be present, and
/// nothing else.
fn json_line(outcome: &Outcome, args: &Args) -> Result<String, String> {
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut declared = metrics::names(list);
    let mut emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    declared.sort_unstable();
    emitted.sort_unstable();
    if declared != emitted {
        return Err(format!(
            "{} reported {emitted:?}, but declares {declared:?}",
            args.workload
        ));
    }
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        let spec = metrics::find(list, name).expect("checked against the declaration");
        if !stats::is_metric_name(name) || !stats::is_unit(spec.unit) {
            return Err(format!("metric {name} [{}] breaks the grammar", spec.unit));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted(),
        outcome.failed(),
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ensembench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_workload(&args)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ensembench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.print_summary(&args);
    match json_line(&outcome, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ensembench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_command_line_is_validated() {
        let a = args("--workload local_batch --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }
}
