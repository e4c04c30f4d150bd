//! `bench_e2e` — the end-to-end benchmark of the HMMM video database.
//!
//! ```text
//! bench_e2e --workload <serve_open|net_closed|feedback_mixed|ingest>
//!           --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick]
//!           [--repeat <n>] [--out <file>]
//! ```
//!
//! One run builds its inputs from `--seed`, sets the system up (timed),
//! measures one workload for `--seconds`, checks every output against a
//! serial re-derivation, and prints each metric as `name value unit`. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`. Any correctness failure exits nonzero. See README.md
//! beside this file for the metric catalog and why each workload exists.

mod feedback_mixed;
mod fixture;
mod ingest;
mod net_closed;
mod report;
mod serve_open;
mod spans;
mod stats;

use fixture::Scale;
use report::{Outcome, Reported};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_e2e --workload <serve_open|net_closed|feedback_mixed|ingest> \
    --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--repeat <n>] [--out <file>]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut seed = None;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("1") => {
                        it.next();
                        true
                    }
                    Some("0") => {
                        it.next();
                        false
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

/// Runs one workload once.
fn run_once(args: &Args, seed: u64) -> Result<Outcome, String> {
    let scale = Scale::new(args.quick, args.seconds);
    match args.workload.as_str() {
        "serve_open" => serve_open::run(&scale, seed, args.trace),
        "net_closed" => net_closed::run(&scale, seed, args.trace),
        "feedback_mixed" => feedback_mixed::run(&scale, seed, args.trace),
        "ingest" => ingest::run(&scale, seed, args.trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

/// The `--out` document: every run's metrics, samples and notes, plus the
/// median and quartiles of each metric across `--repeat` runs.
fn out_json(args: &Args, runs: &[(u64, Outcome, Reported)]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num = Value::Float;
    let run_docs = runs
        .iter()
        .map(|(seed, outcome, reported)| {
            let metrics = reported
                .iter()
                .map(|&(name, value, _)| (name.to_string(), num(value)))
                .collect();
            let samples = outcome
                .samples
                .iter()
                .map(|(k, &v)| (k.to_string(), Value::UInt(v as u64)))
                .collect();
            let notes = outcome
                .notes
                .iter()
                .map(|(k, &v)| (k.clone(), num(v)))
                .collect();
            Value::Object(vec![
                ("seed".into(), Value::UInt(*seed)),
                ("correct".into(), Value::Bool(outcome.correct())),
                ("attempted".into(), Value::UInt(outcome.attempted)),
                ("failed".into(), Value::UInt(outcome.failed)),
                ("metrics".into(), Value::Object(metrics)),
                ("samples".into(), Value::Object(samples)),
                ("notes".into(), Value::Object(notes)),
            ])
        })
        .collect();
    let mut per_metric: BTreeMap<&str, (Vec<f64>, &str)> = BTreeMap::new();
    for (_, _, reported) in runs {
        for &(name, value, unit) in reported {
            per_metric
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(value);
        }
    }
    let summary = per_metric
        .into_iter()
        .map(|(name, (values, unit))| {
            let sorted = stats::sorted(values);
            let (q1, q3) = stats::quartiles(&sorted).unwrap_or((sorted[0], sorted[0]));
            let median = stats::median(sorted);
            let spread = if median != 0.0 {
                (q3 - q1) / median
            } else {
                0.0
            };
            (
                name.to_string(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(unit.into())),
                    ("median".into(), num(median)),
                    ("q1".into(), num(q1)),
                    ("q3".into(), num(q3)),
                    ("iqr_over_median".into(), num(spread)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("trace".into(), Value::Bool(args.trace)),
        ("quick".into(), Value::Bool(args.quick)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("runs".into(), Value::Array(run_docs)),
        ("summary".into(), Value::Object(summary)),
    ])
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    };
    let mut runs = Vec::with_capacity(args.repeat);
    for i in 0..args.repeat {
        let seed = args.seed.wrapping_add(i as u64);
        let outcome = match run_once(&args, seed) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("bench_e2e: {} (seed {seed}): {e}", args.workload);
                std::process::exit(2);
            }
        };
        let reported = match outcome.reported(args.trace) {
            Ok(reported) => reported,
            Err(e) => {
                eprintln!("bench_e2e: {} (seed {seed}): {e}", args.workload);
                std::process::exit(2);
            }
        };
        for problem in &outcome.problems {
            eprintln!("bench_e2e: CHECK FAILED (seed {seed}): {problem}");
        }
        runs.push((seed, outcome, reported));
    }
    if let Some(path) = &args.out {
        let doc = serde_json::to_string_pretty(&out_json(&args, &runs)).expect("serializes");
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    // Human lines, then the one-line result. Across --repeat runs the
    // result carries each metric's median.
    let correct = runs.iter().all(|(_, o, _)| o.correct());
    let attempted = runs.iter().map(|(_, o, _)| o.attempted).sum();
    let failed = runs.iter().map(|(_, o, _)| o.failed).sum();
    let medians: Reported = runs[0]
        .2
        .iter()
        .enumerate()
        .map(|(k, &(name, _, unit))| {
            (
                name,
                stats::median(runs.iter().map(|r| r.2[k].1).collect()),
                unit,
            )
        })
        .collect();
    for &(name, value, unit) in &medians {
        println!("{name} {value} {unit}");
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &medians)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload ingest --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, "ingest");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Some(12.0));
        assert!(a.trace);
        let b = parse_args(&argv("--workload serve_open --seed 1 --trace 0 --quick")).unwrap();
        assert!(!b.trace && b.quick);
        let c = parse_args(&argv("--workload serve_open --seed 1 --trace --out x.json")).unwrap();
        assert!(c.trace);
        assert_eq!(c.out, Some(PathBuf::from("x.json")));
        assert!(parse_args(&argv("--workload serve_open")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload a --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload a --seed 1 --bogus")).is_err());
    }
}
