//! Protocol model-checker driver. Usage:
//! `interleave-check [--exhaustive] [--format json]`.
//!
//! Runs all four model suites from `hmmm_analyze::mc` — the
//! `SnapshotCell` RCU install, the admission queue + worker-pool
//! lifecycle, the crash-state enumeration of the atomic writer, and the
//! TCP front-end's per-connection request/response lifecycle — asserting
//! every per-step and final-state invariant over every explored
//! interleaving. Exit code 1 on the first violation, with the
//! minimal counterexample schedule printed.
//!
//! Two modes, mirrored by CI's analyze job:
//!
//! * **quick** (default, PR gate): the standard scenario list under a
//!   100 000-state budget per scenario. Today no standard scenario comes
//!   near the budget, so quick mode is still a full proof; the budget is
//!   a forward guard so a grown scenario degrades to a reported
//!   `truncated` verdict instead of an unbounded CI run.
//! * **`--exhaustive`** (push/nightly): adds the extended scenarios
//!   (more threads, more polls, concurrent generations) and removes the
//!   state budget.
//!
//! `--format json` emits one machine-readable object (states, memo hits,
//! verdict per scenario) for CI artifact diffing; `schedules` is a JSON
//! string because exact interleaving counts overflow f64 integers.

use std::process::ExitCode;

use hmmm_analyze::mc::engine::{explore, Counterexample, ExploreConfig, Protocol};
use hmmm_analyze::mc::{admission, connection, crashwrite, snapshot};

/// Per-scenario state budget for quick mode (see module docs).
const QUICK_STATE_BUDGET: usize = 100_000;

struct Row {
    suite: &'static str,
    name: String,
    states: usize,
    transitions: usize,
    memo_hits: usize,
    finals: usize,
    schedules: u128,
    truncated: bool,
}

struct Failure {
    suite: &'static str,
    name: String,
    cx: Option<Box<Counterexample>>,
    message: String,
}

fn run_suite<P: Protocol>(
    suite: &'static str,
    scenarios: Vec<(String, P)>,
    config: &ExploreConfig,
    rows: &mut Vec<Row>,
) -> Result<(), Failure> {
    for (name, protocol) in scenarios {
        match explore(&protocol, config) {
            Ok(r) => rows.push(Row {
                suite,
                name,
                states: r.states,
                transitions: r.transitions,
                memo_hits: r.memo_hits,
                finals: r.finals,
                schedules: r.schedules,
                truncated: r.truncated,
            }),
            Err(cx) => {
                let message = cx.message.clone();
                return Err(Failure {
                    suite,
                    name,
                    cx: Some(cx),
                    message,
                });
            }
        }
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_json(mode: &str, rows: &[Row], failure: Option<&Failure>) {
    let mut out = String::from("{");
    out.push_str(&format!("\"mode\":{},", json_str(mode)));
    out.push_str(&format!(
        "\"verdict\":{},",
        json_str(if failure.is_some() { "violation" } else { "ok" })
    ));
    out.push_str("\"scenarios\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"suite\":{},\"name\":{},\"states\":{},\"transitions\":{},\
             \"memo_hits\":{},\"finals\":{},\"schedules\":{},\
             \"truncated\":{},\"verdict\":\"ok\"}}",
            json_str(r.suite),
            json_str(&r.name),
            r.states,
            r.transitions,
            r.memo_hits,
            r.finals,
            json_str(&r.schedules.to_string()),
            r.truncated,
        ));
    }
    if let Some(f) = failure {
        if !rows.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"suite\":{},\"name\":{},\"verdict\":\"violation\",\"message\":{}",
            json_str(f.suite),
            json_str(&f.name),
            json_str(&f.message),
        ));
        if let Some(cx) = &f.cx {
            out.push_str(&format!(
                ",\"schedule\":[{}],\"trace\":[{}]",
                cx.schedule
                    .iter()
                    .map(|(t, c)| format!("[{t},{c}]"))
                    .collect::<Vec<_>>()
                    .join(","),
                cx.trace
                    .iter()
                    .map(|s| json_str(s))
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out.push('}');
    }
    out.push_str("],");
    let total_states: usize = rows.iter().map(|r| r.states).sum();
    let total_schedules: u128 = rows.iter().fold(0u128, |a, r| a.saturating_add(r.schedules));
    out.push_str(&format!(
        "\"totals\":{{\"scenarios\":{},\"states\":{},\"schedules\":{}}}",
        rows.len(),
        total_states,
        json_str(&total_schedules.to_string()),
    ));
    out.push('}');
    println!("{out}");
}

fn print_text(mode: &str, rows: &[Row]) {
    let mut suite = "";
    for r in rows {
        if r.suite != suite {
            suite = r.suite;
            println!("suite {suite}:");
        }
        println!(
            "  {:<22} states={:<7} transitions={:<7} memo_hits={:<7} finals={:<5} schedules={}{}",
            r.name,
            r.states,
            r.transitions,
            r.memo_hits,
            r.finals,
            r.schedules,
            if r.truncated { " TRUNCATED" } else { "" }
        );
    }
    let total_states: usize = rows.iter().map(|r| r.states).sum();
    let total_schedules: u128 = rows.iter().fold(0u128, |a, r| a.saturating_add(r.schedules));
    println!(
        "interleave-check [{mode}]: {} scenarios OK, {total_states} states, \
         {total_schedules} schedules covered (all invariants hold)",
        rows.len(),
    );
}

fn main() -> ExitCode {
    let mut exhaustive = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--exhaustive" => exhaustive = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => {
                    eprintln!("usage: interleave-check [--exhaustive] [--format json|text]");
                    return ExitCode::from(2);
                }
            },
            "--format=json" => json = true,
            "--format=text" => json = false,
            _ => {
                eprintln!("usage: interleave-check [--exhaustive] [--format json|text]");
                return ExitCode::from(2);
            }
        }
    }
    let mode = if exhaustive { "exhaustive" } else { "quick" };
    let config = if exhaustive {
        ExploreConfig::exhaustive()
    } else {
        ExploreConfig::bounded(QUICK_STATE_BUDGET)
    };

    let mut rows = Vec::new();

    let result = run_suite(
        "snapshot",
        snapshot::standard_scenarios(exhaustive),
        &config,
        &mut rows,
    )
    .and_then(|()| {
        run_suite(
            "admission",
            admission::standard_scenarios(exhaustive),
            &config,
            &mut rows,
        )
    })
    .and_then(|()| {
        run_suite(
            "crashwrite",
            crashwrite::standard_scenarios(exhaustive),
            &config,
            &mut rows,
        )
    })
    .and_then(|()| {
        run_suite(
            "connection",
            connection::standard_scenarios(exhaustive),
            &config,
            &mut rows,
        )
    });

    match result {
        Ok(()) => {
            if json {
                print_json(mode, &rows, None);
            } else {
                print_text(mode, &rows);
            }
            ExitCode::SUCCESS
        }
        Err(f) => {
            if json {
                print_json(mode, &rows, Some(&f));
            } else {
                eprintln!(
                    "interleave-check: INVARIANT VIOLATION [{} / {}]: {}",
                    f.suite, f.name, f.message
                );
                if let Some(cx) = &f.cx {
                    eprintln!("{cx}");
                }
            }
            ExitCode::FAILURE
        }
    }
}
