//! `hmmm` — command-line front end for the HMMM video database suite.
//!
//! ```text
//! hmmm generate --videos 8 --shots 100 --event-rate 0.1 --seed 42 --out db.bin
//! hmmm inspect db.bin
//! hmmm query db.bin "free_kick -> goal" --top 8 [--content-only] [--greedy]
//!                   [--metrics-json out.json] [--trace]
//! hmmm categories db.bin --k 4
//! hmmm matn "foul ->[2] yellow_card|red_card -> player_change"
//! ```
//!
//! The catalog file is the checksummed binary container of `hmmm-storage`
//! (`.json` paths use the JSON codec instead).

use hmmm_core::{
    build_hmmm, build_hmmm_observed, metrics, BuildConfig, CategoryLevel, FeedbackConfig, FeedbackLog, FeedbackSimulator, InMemoryRecorder, OracleConfig,
    PositivePattern, RecorderHandle, RetrievalConfig, Retriever,
};
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::{parse_pattern, Matn, QueryTranslator};
use hmmm_storage::Catalog;
use hmmm_suite::{ingest_archive, AnnotationSource};
use std::io::Write;
use std::process::ExitCode;

/// `print!` without the panic on a failed write: see [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` without the panic on a failed write: see [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that went away (`hmmm query … | head -3`)
/// ends the process quietly with status 0, since nobody wants the rest of
/// the output; any other write error ends it as `error: …` with status 1.
fn emit(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("categories") => cmd_categories(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("matn") => cmd_matn(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; see `hmmm help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hmmm — Hierarchical Markov Model Mediator video database tool

USAGE:
  hmmm generate --out <file> [--videos N] [--shots N] [--event-rate F] [--seed N]
      synthesize an archive, extract features, save the catalog
  hmmm inspect <file>
      print catalog dimensions and per-event counts
  hmmm query <file> <pattern> [--top N] [--content-only]
             [--greedy] [--candidates C]
             [--deadline-ms N] [--deadline-check-interval M]
             [--fault-plan <json|file>]
             [--metrics-json <out>] [--trace]
      build the HMMM and run a temporal pattern query
      (--top-k is accepted as an alias of --top)
      candidate videos and their prune bounds always come from the
      ingest-time coarse index; --candidates C traverses only the C
      highest-bound videos, trading recall for latency (default: all)
      --deadline-ms bounds the query wall clock: on expiry the engine
      returns the best-so-far ranking marked DEGRADED (recall may drop,
      exactness of what is returned does not); --deadline-check-interval
      sets how many beam expansions pass between clock reads (default 64)
      --fault-plan injects deterministic faults (inline JSON if the
      argument starts with '{', else a file path), e.g.
      '{\"panic_on_videos\": [0,2]}' — see crates/core/src/fault.rs
      --metrics-json writes the structured observability report (per-stage
      wall times, counters, cache hit ratio) as JSON;
      --trace prints the span tree of the whole run to stdout
  hmmm categories <file> [--k N]
      cluster videos into categories (the d=3 extension)
  hmmm check <file> [--feedback-rounds N]
      build the HMMM and run the λ-invariant deep audit: A1/A2
      row-stochastic, Π1/Π2/P12 unit mass, L12 strictly 0/1, B2 equal
      to the catalog's counts, B1/B1' in range; with
      --feedback-rounds the audit is repeated after N simulated
      feedback/learning updates (exit 1 on any violation)
  hmmm serve <file> [--workers N] [--queue N] [--deadline-ms N]
             [--top N] [--candidates C] [--fault-plan <json|file>] [--metrics-json <out>]
             [--listen ADDR] [--max-conns N] [--frame-timeout-ms N]
             [--net-fault-plan <json|file>]
      start the in-process query server and answer patterns read from
      stdin, one per line; responses carry the snapshot epoch.
      REPL commands:  :accept <rank>  confirm a result from the last
      response as positive feedback;  :learn  run the Eqs. 1-10 relearn
      and install the new snapshot (audit-gated);  :epoch ;  :quit
      --listen additionally opens the TCP front-end (port 0 picks a free
      port; the resolved address is printed as 'listening on ADDR');
      :quit drains it gracefully, and stdin EOF keeps serving until the
      process is killed (for backgrounded use). --net-fault-plan injects
      seeded network faults (torn frames, corrupted bytes, stalls,
      forced closes) into accepted connections — see docs/SERVING.md
  hmmm loadgen <file> [--clients N] [--requests N] [--zipf F]
             [--think-us N] [--feedback-prob F] [--deadline-ms N]
             [--workers N] [--queue N] [--top N] [--seed N] [--check]
             [--candidates C] [--fault-plan <json|file>] [--metrics-json <out>]
             [--connect ADDR] [--retries N]
             [--net-fault-plan <json|file>]
      run the seeded workload generator (Zipf query mix, Poisson
      arrivals, probabilistic feedback installs) against an in-process
      server and print QPS + p50/p95/p99; --check re-derives every exact
      response serially on the epoch that answered it and exits 1 on any
      mismatch or unaccounted rejection
      --connect drives the same workload over TCP against a running
      `hmmm serve --listen` process instead (no in-process server; pass
      the server's catalog path plus its --candidates/--fault-plan flags so
      --check can rebuild the reference locally); --retries caps wire
      attempts per request, --net-fault-plan injects client-side
      network faults and exercises the retry/backoff path
  hmmm matn <pattern>
      print the MATN view and Graphviz dot of a query
  hmmm help
      this text

PATTERNS:  event ( '->' ['[' gap ']'] event ('|' event)* )*
           e.g. \"free_kick -> goal ->[5] corner_kick|goal_kick\"
EVENTS:    goal corner_kick free_kick foul goal_kick yellow_card red_card player_change

Every subcommand rejects flags it does not know.
";

/// The flags one subcommand accepts: boolean switches, and flags that take
/// the next argument as their value.
struct Flags {
    command: &'static str,
    switches: &'static [&'static str],
    valued: &'static [&'static str],
}

const GENERATE_FLAGS: Flags = Flags {
    command: "generate",
    switches: &[],
    valued: &["--out", "--videos", "--shots", "--event-rate", "--seed"],
};
const INSPECT_FLAGS: Flags = Flags {
    command: "inspect",
    switches: &[],
    valued: &[],
};
const QUERY_FLAGS: Flags = Flags {
    command: "query",
    switches: &["--content-only", "--greedy", "--trace"],
    valued: &[
        "--top",
        "--top-k",
        "--candidates",
        "--deadline-ms",
        "--deadline-check-interval",
        "--fault-plan",
        "--metrics-json",
    ],
};
const CATEGORIES_FLAGS: Flags = Flags {
    command: "categories",
    switches: &[],
    valued: &["--k"],
};
const CHECK_FLAGS: Flags = Flags {
    command: "check",
    switches: &[],
    valued: &["--feedback-rounds"],
};
const SERVE_FLAGS: Flags = Flags {
    command: "serve",
    switches: &[],
    valued: &[
        "--workers",
        "--queue",
        "--deadline-ms",
        "--top",
        "--candidates",
        "--fault-plan",
        "--metrics-json",
        "--listen",
        "--max-conns",
        "--frame-timeout-ms",
        "--net-fault-plan",
    ],
};
const LOADGEN_FLAGS: Flags = Flags {
    command: "loadgen",
    switches: &["--check"],
    valued: &[
        "--clients",
        "--requests",
        "--zipf",
        "--think-us",
        "--feedback-prob",
        "--deadline-ms",
        "--workers",
        "--queue",
        "--top",
        "--seed",
        "--candidates",
        "--fault-plan",
        "--metrics-json",
        "--connect",
        "--retries",
        "--net-fault-plan",
    ],
};
const MATN_FLAGS: Flags = Flags {
    command: "matn",
    switches: &[],
    valued: &[],
};

/// Checks every `--flag` in `args` against `flags` and returns the
/// positional arguments in order. An unknown flag is an error naming it —
/// guessing whether it takes a value would silently swallow the next
/// argument — and so is a valued flag with nothing after it.
fn positionals<'a>(args: &'a [String], flags: &Flags) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if !arg.starts_with("--") {
            out.push(arg);
            i += 1;
        } else if flags.switches.contains(&arg.as_str()) {
            i += 1;
        } else if flags.valued.contains(&arg.as_str()) {
            if i + 1 >= args.len() {
                return Err(format!("{arg} requires a value"));
            }
            i += 2;
        } else {
            return Err(format!(
                "unknown flag {arg} for `hmmm {}`; see `hmmm help`",
                flags.command
            ));
        }
    }
    Ok(out)
}

/// Pulls `--name value` out of an argument list.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Applies the shared `--candidates <C>` flag to a retrieval config (used
/// by `query`, `serve`, and `loadgen`).
fn apply_candidates_flag(args: &[String], config: &mut RetrievalConfig) -> Result<(), String> {
    if let Some(c) = flag_value(args, "--candidates") {
        let c: usize = parse_num(&c, "--candidates")?;
        if c == 0 {
            return Err("--candidates must be ≥ 1".into());
        }
        config.candidate_cut = Some(c);
    }
    Ok(())
}

/// How a candidate cut reads in status lines.
fn cut_label(cut: Option<usize>) -> String {
    cut.map_or("exact".to_string(), |c| format!("top {c}"))
}

/// Parses a `--fault-plan`-style flag: inline JSON when the argument
/// starts with `{`, else a path to a JSON file.
fn parse_fault_plan(args: &[String], name: &str) -> Result<Option<hmmm_core::FaultPlan>, String> {
    let Some(spec) = flag_value(args, name) else {
        return Ok(None);
    };
    let json = if spec.trim_start().starts_with('{') {
        spec
    } else {
        std::fs::read_to_string(&spec).map_err(|e| format!("reading fault plan {spec}: {e}"))?
    };
    let plan: hmmm_core::FaultPlan =
        serde_json::from_str(&json).map_err(|e| format!("parsing fault plan: {e}"))?;
    Ok(Some(plan))
}

fn load(path: &str) -> Result<Catalog, String> {
    load_observed(path, &RecorderHandle::noop())
}

fn load_observed(path: &str, obs: &RecorderHandle) -> Result<Catalog, String> {
    let catalog = if path.ends_with(".json") {
        hmmm_storage::load_json_observed(path, obs)
    } else {
        hmmm_storage::load_binary_observed(path, obs)
    };
    catalog.map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    positionals(args, &GENERATE_FLAGS)?;
    let out = flag_value(args, "--out").ok_or("generate requires --out <file>")?;
    let videos: usize = parse_num(&flag_value(args, "--videos").unwrap_or("8".into()), "--videos")?;
    let shots: usize = parse_num(&flag_value(args, "--shots").unwrap_or("100".into()), "--shots")?;
    let event_rate: f64 = parse_num(
        &flag_value(args, "--event-rate").unwrap_or("0.1".into()),
        "--event-rate",
    )?;
    let seed: u64 = parse_num(&flag_value(args, "--seed").unwrap_or("42".into()), "--seed")?;

    eprintln!("synthesizing {videos} videos × {shots} shots (event rate {event_rate})…");
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos,
        shots_per_video: shots,
        event_rate,
        double_event_rate: 0.15,
        render: RenderConfig::small(),
        seed,
    });
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    if out.ends_with(".json") {
        hmmm_storage::save_json(&catalog, &out).map_err(|e| e.to_string())?;
    } else {
        hmmm_storage::save_binary(&catalog, &out).map_err(|e| e.to_string())?;
    }
    outln!(
        "wrote {out}: {} videos, {} shots, {} events",
        catalog.video_count(),
        catalog.shot_count(),
        catalog.total_events()
    );
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &INSPECT_FLAGS)?;
    let path = pos.first().ok_or("inspect requires a catalog path")?;
    let catalog = load(path)?;
    outln!(
        "{path}: {} videos, {} shots, {} event annotations",
        catalog.video_count(),
        catalog.shot_count(),
        catalog.total_events()
    );
    outln!("\nper-event annotation counts:");
    for kind in EventKind::ALL {
        let n = catalog.shots_with_event(kind).len();
        outln!("  {:<14} {n}", kind.name());
    }
    outln!("\nvideos:");
    for v in catalog.videos() {
        let events: usize = catalog
            .shots_of_video(v.id)
            .iter()
            .map(|s| s.event_count())
            .sum();
        outln!("  {} {:<12} {} shots, {} events", v.id, v.name, v.shot_count(), events);
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &QUERY_FLAGS)?;
    let path = pos.first().ok_or("query requires a catalog path")?;
    let text = pos.get(1).ok_or("query requires a pattern string")?;
    let top: usize = parse_num(
        &flag_value(args, "--top")
            .or_else(|| flag_value(args, "--top-k"))
            .unwrap_or("8".into()),
        "--top",
    )?;
    let metrics_out = flag_value(args, "--metrics-json");
    let trace = flag_present(args, "--trace");

    // One recorder observes the whole command — catalog load, model build,
    // and the retrieval itself — so the report/trace covers end to end.
    let recorder = (metrics_out.is_some() || trace).then(InMemoryRecorder::shared);
    let obs = recorder
        .as_ref()
        .map(InMemoryRecorder::handle)
        .unwrap_or_default();

    let catalog = load_observed(path, &obs)?;
    let model =
        build_hmmm_observed(&catalog, &BuildConfig::default(), &obs).map_err(|e| e.to_string())?;
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile(text).map_err(|e| e.to_string())?;

    let mut config = if flag_present(args, "--content-only") {
        RetrievalConfig::content_only()
    } else {
        RetrievalConfig::default()
    };
    if flag_present(args, "--greedy") {
        config.beam_width = 1;
    }
    apply_candidates_flag(args, &mut config)?;
    if let Some(ms) = flag_value(args, "--deadline-ms") {
        let ms: u64 = parse_num(&ms, "--deadline-ms")?;
        let mut deadline = hmmm_core::DeadlineConfig::new(std::time::Duration::from_millis(ms));
        if let Some(interval) = flag_value(args, "--deadline-check-interval") {
            let interval: u32 = parse_num(&interval, "--deadline-check-interval")?;
            if interval == 0 {
                return Err("--deadline-check-interval must be ≥ 1".into());
            }
            deadline.check_interval = interval;
        }
        config.deadline = Some(deadline);
    } else if flag_present(args, "--deadline-check-interval") {
        return Err("--deadline-check-interval requires --deadline-ms".into());
    }
    if let Some(plan) = parse_fault_plan(args, "--fault-plan")? {
        if !plan.is_empty() {
            eprintln!("fault injection active: degraded output is expected");
        }
        config = config.with_fault_plan(plan);
    }
    config.recorder = obs;
    let cut = config.candidate_cut;
    let retriever = Retriever::new(&model, &catalog, config).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let (results, stats) = retriever.retrieve(&pattern, top).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();

    outln!("query: {text}");
    outln!(
        "{} candidates in {elapsed:.2?} ({} score reads, {}/{} videos visited, \
         {} bound-skipped, {} entries pruned)",
        results.len(),
        stats.cache_lookups,
        stats.videos_visited,
        catalog.video_count(),
        stats.videos_skipped_by_bound,
        stats.entries_pruned,
    );
    outln!(
        "coarse [{}]: {} candidates ({} cut, {} zero-bound skips), \
         {} index bound lookups",
        cut_label(cut),
        stats.coarse_candidates,
        stats.coarse_cut,
        stats.coarse_skipped_zero_ub,
        stats.coarse_bound_lookups,
    );
    if let Some(d) = &stats.degraded {
        let reason = d.reason.as_str();
        outln!(
            "DEGRADED ({reason}): {} videos never admitted, {} videos failed — \
             the ranking below covers only the work that completed",
            d.videos_unvisited, d.videos_failed
        );
        for payload in &stats.panic_payloads {
            outln!("  failed {payload}");
        }
    }
    for (rank, r) in results.iter().enumerate() {
        let steps: Vec<String> = r
            .shots
            .iter()
            .zip(r.events.iter())
            .map(|(&id, &e)| {
                let shot = catalog.shot(id).expect("valid id");
                let truth: Vec<&str> = shot.events.iter().map(|k| k.name()).collect();
                let matched = EventKind::from_index(e).map(|k| k.name()).unwrap_or("?");
                format!("{id}:{matched}[{}]", truth.join("+"))
            })
            .collect();
        outln!("  #{rank} v{} {:.5}  {}", r.video.index(), r.score, steps.join(" -> "));
    }

    if let Some(recorder) = recorder {
        let mut report = recorder.report();
        metrics::derive_retrieval_metrics(&mut report);
        if trace {
            outln!("\ntrace:");
            out!("{}", report.render_trace());
        }
        if let Some(out) = metrics_out {
            let json = report
                .to_json_pretty()
                .map_err(|e| format!("encoding metrics: {e}"))?;
            std::fs::write(&out, json + "\n").map_err(|e| format!("writing {out}: {e}"))?;
            outln!("wrote metrics report to {out}");
        }
    }
    Ok(())
}

fn cmd_categories(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &CATEGORIES_FLAGS)?;
    let path = pos.first().ok_or("categories requires a catalog path")?;
    let k: usize = parse_num(&flag_value(args, "--k").unwrap_or("4".into()), "--k")?;
    let catalog = load(path)?;
    let model = build_hmmm(&catalog, &BuildConfig::default()).map_err(|e| e.to_string())?;
    let cats = CategoryLevel::build(&model, k).ok_or("no videos to cluster")?;
    outln!("{} categories over {} videos:", cats.len(), model.video_count());
    for c in 0..cats.len() {
        let members = cats.videos_of(c);
        let profile: Vec<String> = EventKind::ALL
            .iter()
            .filter(|kind| cats.b3[c][kind.index()] > 0)
            .map(|kind| format!("{}×{}", kind.name(), cats.b3[c][kind.index()]))
            .collect();
        outln!(
            "  category {c} (medoid v{}): {} videos — {}",
            cats.medoids[c],
            members.len(),
            profile.join(", ")
        );
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &CHECK_FLAGS)?;
    let path = pos.first().ok_or("check requires a catalog path")?;
    let rounds: usize = parse_num(
        &flag_value(args, "--feedback-rounds").unwrap_or("0".into()),
        "--feedback-rounds",
    )?;

    let catalog = load(path)?;
    let mut model = build_hmmm(&catalog, &BuildConfig::default()).map_err(|e| e.to_string())?;
    let summary = model
        .deep_audit(&catalog)
        .map_err(|e| format!("λ-invariant audit failed on the freshly built model: {e}"))?;
    outln!("freshly built model audits clean: {summary}");
    if rounds == 0 {
        return Ok(());
    }

    // Re-audit under churn: run the Eqs. 1–10 learning loop with the
    // simulated user and prove Definition 1 still holds after every update.
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator
        .compile("free_kick -> goal")
        .map_err(|e| e.to_string())?;
    let fb_cfg = FeedbackConfig::default();
    let mut oracle = FeedbackSimulator::new(OracleConfig { noise: 0.05, seed: 7 });
    let mut log = FeedbackLog::new();
    for round in 1..=rounds {
        let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default())
            .map_err(|e| e.to_string())?;
        let (results, _) = retriever.retrieve(&pattern, 8).map_err(|e| e.to_string())?;
        let mut confirmed = 0usize;
        for r in &results {
            if oracle.judge(&catalog, &pattern, r) {
                log.record(PositivePattern {
                    query: round as u64,
                    video: r.video,
                    shots: r.shots.clone(),
                    events: r.events.clone(),
                    access: 1.0,
                })
                .map_err(|e| e.to_string())?;
                confirmed += 1;
            }
        }
        let report = log
            .apply(&mut model, &catalog, &fb_cfg)
            .map_err(|e| e.to_string())?;
        let summary = model
            .deep_audit(&catalog)
            .map_err(|e| format!("λ-invariant audit failed after feedback round {round}: {e}"))?;
        outln!(
            "round {round}: {confirmed} confirmed, A1 drift {:.4}, P12 drift {:.4} — audits clean: {summary}",
            report.a1_drift, report.p12_drift
        );
    }
    Ok(())
}

/// Shared by `serve`/`loadgen`: build the epoch-0 snapshot from a catalog
/// file and assemble the server configuration from the common flags.
fn serve_setup(
    args: &[String],
    path: Option<&String>,
    obs: &RecorderHandle,
    retain_history: bool,
) -> Result<(hmmm_serve::ModelSnapshot, hmmm_serve::ServerConfig), String> {
    let path = path.ok_or("a catalog path is required")?;
    let workers: usize =
        parse_num(&flag_value(args, "--workers").unwrap_or("2".into()), "--workers")?;
    let queue: usize = parse_num(&flag_value(args, "--queue").unwrap_or("64".into()), "--queue")?;
    let default_deadline = match flag_value(args, "--deadline-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(parse_num(&ms, "--deadline-ms")?)),
        None => None,
    };
    let catalog = load_observed(path, obs)?;
    let snapshot = hmmm_serve::ModelSnapshot::build(catalog, &BuildConfig::default())
        .map_err(|e| e.to_string())?;
    let mut retrieval = RetrievalConfig::content_only();
    apply_candidates_flag(args, &mut retrieval)?;
    if let Some(plan) = parse_fault_plan(args, "--fault-plan")? {
        if !plan.is_empty() {
            eprintln!("fault injection active: degraded output is expected");
        }
        retrieval = retrieval.with_fault_plan(plan);
    }
    let config = hmmm_serve::ServerConfig {
        workers,
        queue_capacity: queue,
        default_deadline,
        retrieval,
        recorder: obs.clone(),
        retain_snapshot_history: retain_history,
    };
    Ok((snapshot, config))
}

fn write_serve_metrics(recorder: &std::sync::Arc<InMemoryRecorder>, out: &str) -> Result<(), String> {
    let mut report = recorder.report();
    metrics::derive_retrieval_metrics(&mut report);
    metrics::derive_serve_metrics(&mut report);
    metrics::derive_net_metrics(&mut report);
    let json = report
        .to_json_pretty()
        .map_err(|e| format!("encoding metrics: {e}"))?;
    std::fs::write(out, json.clone() + "\n").map_err(|e| format!("writing {out}: {e}"))?;
    // Round-trip gate: a metrics file that does not parse back is a bug
    // worth failing the command over (the serve-smoke CI job relies on it).
    serde_json::from_str::<serde_json::Value>(&json)
        .map_err(|e| format!("metrics report does not re-parse as JSON: {e}"))?;
    outln!("wrote metrics report to {out}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::io::BufRead;
    let pos = positionals(args, &SERVE_FLAGS)?;
    let top: usize = parse_num(&flag_value(args, "--top").unwrap_or("8".into()), "--top")?;
    let metrics_out = flag_value(args, "--metrics-json");
    let recorder = metrics_out.is_some().then(InMemoryRecorder::shared);
    let obs = recorder
        .as_ref()
        .map(InMemoryRecorder::handle)
        .unwrap_or_default();

    let (snapshot, config) = serve_setup(args, pos.first().copied(), &obs, false)?;
    outln!(
        "serving {} videos / {} shots with {} workers (queue {}, candidates {}): {}",
        snapshot.catalog.video_count(),
        snapshot.catalog.shot_count(),
        config.workers,
        config.queue_capacity,
        cut_label(config.retrieval.candidate_cut),
        snapshot.audit,
    );
    outln!("enter a pattern per line; :accept <rank>, :learn, :epoch, :quit");
    let server = std::sync::Arc::new(
        hmmm_serve::QueryServer::start(snapshot, config).map_err(|e| e.to_string())?,
    );
    let net = match flag_value(args, "--listen") {
        Some(addr) => {
            let mut net_cfg = hmmm_serve::NetConfig {
                recorder: obs.clone(),
                ..hmmm_serve::NetConfig::default()
            };
            if let Some(n) = flag_value(args, "--max-conns") {
                net_cfg.max_connections = parse_num(&n, "--max-conns")?;
            }
            if let Some(ms) = flag_value(args, "--frame-timeout-ms") {
                net_cfg.frame_timeout =
                    std::time::Duration::from_millis(parse_num(&ms, "--frame-timeout-ms")?);
            }
            if let Some(plan) = parse_fault_plan(args, "--net-fault-plan")? {
                eprintln!("network fault injection active: accepted streams may be disturbed");
                net_cfg.fault = hmmm_core::FaultHandle::from_plan(plan);
            }
            let net =
                hmmm_serve::NetServer::start(std::sync::Arc::clone(&server), &addr, net_cfg)
                    .map_err(|e| format!("binding {addr}: {e}"))?;
            // The exact line the serve-net-smoke CI job (and any script)
            // parses to learn the resolved port when --listen used port 0.
            outln!("listening on {}", net.local_addr());
            Some(net)
        }
        None => None,
    };
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let fb_cfg = FeedbackConfig::default();
    let mut log = FeedbackLog::new();
    let mut session = 0u64;
    let mut last: Vec<hmmm_core::RankedPattern> = Vec::new();

    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" {
            quit = true;
            break;
        }
        if line == ":epoch" {
            outln!("epoch {}", server.epoch());
            continue;
        }
        if line == ":learn" {
            match server.apply_feedback(&mut log, &fb_cfg) {
                Ok((epoch, report)) => outln!(
                    "installed snapshot epoch {epoch}: {} patterns applied, \
                     A1 drift {:.4}, P12 drift {:.4}",
                    report.patterns_applied, report.a1_drift, report.p12_drift
                ),
                Err(e) => eprintln!("feedback install rejected: {e}"),
            }
            continue;
        }
        if let Some(rank) = line.strip_prefix(":accept") {
            let rank: usize = parse_num(rank.trim(), ":accept rank")?;
            let Some(r) = last.get(rank) else {
                eprintln!("no result #{rank} in the last response");
                continue;
            };
            session += 1;
            match log.record(PositivePattern {
                query: session,
                video: r.video,
                shots: r.shots.clone(),
                events: r.events.clone(),
                access: 1.0,
            }) {
                Ok(()) => outln!(
                    "recorded #{rank} (v{}) as positive; {} pending",
                    r.video.index(),
                    log.pending()
                ),
                Err(e) => eprintln!("rejected feedback: {e}"),
            }
            continue;
        }
        let pattern = match translator.compile(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("bad pattern: {e}");
                continue;
            }
        };
        match server.query(hmmm_serve::QueryRequest::new(pattern, top)) {
            hmmm_serve::ServeOutcome::Completed(response) => {
                outln!(
                    "epoch {} | queued {:.2?} served {:.2?} | {} candidates{}",
                    response.epoch,
                    std::time::Duration::from_nanos(response.queue_ns),
                    std::time::Duration::from_nanos(response.service_ns),
                    response.results.len(),
                    if response.stats.degraded.is_some() {
                        " (DEGRADED)"
                    } else {
                        ""
                    },
                );
                for (rank, r) in response.results.iter().enumerate() {
                    let shots: Vec<String> =
                        r.shots.iter().map(|s| s.to_string()).collect();
                    outln!(
                        "  #{rank} v{} {:.5}  {}",
                        r.video.index(),
                        r.score,
                        shots.join(" -> ")
                    );
                }
                last = response.results;
            }
            hmmm_serve::ServeOutcome::Rejected(reason) => {
                eprintln!("rejected: {reason}");
            }
        }
    }
    match net {
        Some(net) => {
            if !quit {
                // stdin hit EOF while listening (e.g. backgrounded with
                // </dev/null under CI): keep serving until killed.
                loop {
                    std::thread::park();
                }
            }
            // :quit drains the front-end (idle connections get a final
            // Draining notice, in-flight requests finish) before the
            // admission queue closes.
            net.shutdown();
        }
        None => server.close(),
    }
    drop(server); // last Arc: joins the worker pool
    if let (Some(recorder), Some(out)) = (recorder, metrics_out) {
        write_serve_metrics(&recorder, &out)?;
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &LOADGEN_FLAGS)?;
    let path = pos.first().copied();
    let clients: usize =
        parse_num(&flag_value(args, "--clients").unwrap_or("4".into()), "--clients")?;
    let requests: usize =
        parse_num(&flag_value(args, "--requests").unwrap_or("64".into()), "--requests")?;
    let zipf: f64 = parse_num(&flag_value(args, "--zipf").unwrap_or("1.0".into()), "--zipf")?;
    let think_us: u64 =
        parse_num(&flag_value(args, "--think-us").unwrap_or("200".into()), "--think-us")?;
    let feedback_prob: f64 = parse_num(
        &flag_value(args, "--feedback-prob").unwrap_or("0.05".into()),
        "--feedback-prob",
    )?;
    let top: usize = parse_num(&flag_value(args, "--top").unwrap_or("10".into()), "--top")?;
    let seed: u64 = parse_num(&flag_value(args, "--seed").unwrap_or("42".into()), "--seed")?;
    let check = flag_present(args, "--check");
    let metrics_out = flag_value(args, "--metrics-json");
    let recorder = metrics_out.is_some().then(InMemoryRecorder::shared);
    let obs = recorder
        .as_ref()
        .map(InMemoryRecorder::handle)
        .unwrap_or_default();

    if let Some(addr) = flag_value(args, "--connect") {
        let report = run_loadgen_net(
            args, path, &addr, clients, requests, zipf, think_us, top, seed, check, &obs,
        )?;
        print_net_report(&report, check);
        if let (Some(recorder), Some(out)) = (recorder, metrics_out) {
            write_serve_metrics(&recorder, &out)?;
        }
        if !report.healthy() {
            let rejected: usize = report.rejections.values().sum();
            return Err(format!(
                "loadgen net check failed: {} mismatches, {} give-ups, {} + {} of {} \
                 requests unaccounted",
                report.check_mismatches,
                report.give_ups,
                report.completed,
                rejected,
                report.submitted
            ));
        }
        return Ok(());
    }

    let (snapshot, config) = serve_setup(args, path, &obs, check)?;
    eprintln!(
        "loadgen: {clients} clients × {requests} requests (zipf {zipf}, think {think_us}µs, \
         feedback p={feedback_prob}) against {} workers / queue {} / candidates {}{}",
        config.workers,
        config.queue_capacity,
        cut_label(config.retrieval.candidate_cut),
        if check { ", exactness check on" } else { "" },
    );
    let server = hmmm_serve::QueryServer::start(snapshot, config).map_err(|e| e.to_string())?;
    let workload = hmmm_serve::WorkloadConfig {
        clients,
        requests_per_client: requests,
        zipf_exponent: zipf,
        mean_interarrival: std::time::Duration::from_micros(think_us),
        feedback_probability: feedback_prob,
        feedback: FeedbackConfig::default(),
        deadline: None, // the server default (from --deadline-ms) applies
        limit: top,
        seed,
        check,
    };
    let report = hmmm_serve::run_workload(&server, &workload).map_err(|e| e.to_string())?;
    server.join();

    let rejected: usize = report.rejections.values().sum();
    outln!(
        "{} submitted: {} completed ({} degraded), {} rejected | {} feedback installs, \
         max epoch {}",
        report.submitted, report.completed, report.degraded, rejected,
        report.feedback_installs, report.max_epoch,
    );
    for (reason, n) in &report.rejections {
        outln!("  rejected {n} × {reason}");
    }
    outln!(
        "wall {:.2?} | {:.1} qps | p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        std::time::Duration::from_nanos(report.wall_ns),
        report.qps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
    );
    if check {
        outln!(
            "check: {} responses re-derived serially, {} mismatches",
            report.checked, report.check_mismatches
        );
    }
    if let (Some(recorder), Some(out)) = (recorder, metrics_out) {
        write_serve_metrics(&recorder, &out)?;
    }
    if check && !report.healthy() {
        return Err(format!(
            "loadgen check failed: {} mismatches, {} + {} of {} requests unaccounted",
            report.check_mismatches, report.completed, rejected, report.submitted
        ));
    }
    Ok(())
}

/// The `loadgen --connect` path: drive the seeded workload over real
/// sockets against an already-running `hmmm serve --listen` process.
#[allow(clippy::too_many_arguments)] // a CLI argument bundle, not an API
fn run_loadgen_net(
    args: &[String],
    path: Option<&String>,
    addr: &str,
    clients: usize,
    requests: usize,
    zipf: f64,
    think_us: u64,
    top: usize,
    seed: u64,
    check: bool,
    obs: &RecorderHandle,
) -> Result<hmmm_serve::NetLoadReport, String> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad --connect address {addr:?}: {e}"))?;
    let deadline = match flag_value(args, "--deadline-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(parse_num(&ms, "--deadline-ms")?)),
        None => None,
    };
    let mut policy = hmmm_serve::RetryPolicy {
        seed,
        ..hmmm_serve::RetryPolicy::default()
    };
    if let Some(n) = flag_value(args, "--retries") {
        let n: u32 = parse_num(&n, "--retries")?;
        if n == 0 {
            return Err("--retries must be ≥ 1 (it counts attempts, not re-tries)".into());
        }
        policy.max_attempts = n;
    }
    let fault = match parse_fault_plan(args, "--net-fault-plan")? {
        Some(plan) => {
            eprintln!("client-side network fault injection active: retries are expected");
            hmmm_core::FaultHandle::from_plan(plan)
        }
        None => hmmm_core::FaultHandle::noop(),
    };
    // --check re-derives responses against a locally built epoch-0
    // snapshot, so it needs the same catalog file — and the same
    // --candidates / --fault-plan flags — the server was started with.
    let net_check = if check {
        let path = path.ok_or("loadgen --connect --check requires the server's catalog path")?;
        let catalog = load_observed(path, obs)?;
        let snapshot = hmmm_serve::ModelSnapshot::build(catalog, &BuildConfig::default())
            .map_err(|e| e.to_string())?;
        let mut retrieval = RetrievalConfig::content_only();
        apply_candidates_flag(args, &mut retrieval)?;
        if let Some(plan) = parse_fault_plan(args, "--fault-plan")? {
            retrieval = retrieval.with_fault_plan(plan);
        }
        Some(hmmm_serve::NetCheck {
            snapshot: std::sync::Arc::new(snapshot),
            retrieval,
        })
    } else {
        None
    };
    eprintln!(
        "loadgen: {clients} clients × {requests} requests (zipf {zipf}, think {think_us}µs) \
         over TCP against {addr}{}",
        if check { ", exactness check on" } else { "" },
    );
    let config = hmmm_serve::NetWorkloadConfig {
        clients,
        requests_per_client: requests,
        zipf_exponent: zipf,
        mean_interarrival: std::time::Duration::from_micros(think_us),
        deadline,
        limit: top,
        seed,
        policy,
        fault,
        recorder: obs.clone(),
        check: net_check,
    };
    hmmm_serve::run_net_workload(addr, &config).map_err(|e| e.to_string())
}

fn print_net_report(report: &hmmm_serve::NetLoadReport, check: bool) {
    let rejected: usize = report.rejections.values().sum();
    outln!(
        "{} submitted: {} completed ({} degraded), {} rejected | max epoch {}",
        report.submitted, report.completed, report.degraded, rejected, report.max_epoch,
    );
    for (reason, n) in &report.rejections {
        outln!("  rejected {n} × {reason}");
    }
    outln!(
        "net: {} retries ({} successful), {} give-ups, {} mid-response errors \
         ({} reissued)",
        report.retries,
        report.retry_successes,
        report.give_ups,
        report.mid_response_errors,
        report.reissues,
    );
    outln!(
        "wall {:.2?} | {:.1} qps | p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        std::time::Duration::from_nanos(report.wall_ns),
        report.qps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
    );
    if check {
        outln!(
            "check: {} responses re-derived locally, {} mismatches",
            report.checked, report.check_mismatches
        );
    }
}

fn cmd_matn(args: &[String]) -> Result<(), String> {
    let pos = positionals(args, &MATN_FLAGS)?;
    let text = pos.first().ok_or("matn requires a pattern string")?;
    let pattern = parse_pattern(text).map_err(|e| e.to_string())?;
    let matn = Matn::from_pattern(&pattern);
    outln!("canonical : {pattern}");
    outln!("MATN      : {matn}");
    outln!("states    : {}, arcs: {}\n", matn.state_count(), matn.arcs().len());
    out!("{}", matn.to_dot());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // Typos and removed flags must fail loudly instead of swallowing
        // the argument after them.
        for bad in [
            "--no-prun",
            "--deadine-ms",
            "--coarse",
            "--no-sim-cache",
            "--threads",
        ] {
            let args = argv(&["db.json", "goal", bad, "5"]);
            let err = positionals(&args, &QUERY_FLAGS).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("hmmm query"), "{err}");
        }
        // Flags are per subcommand: `--check` belongs to loadgen only.
        let args = argv(&["db.json", "goal", "--check"]);
        assert!(positionals(&args, &QUERY_FLAGS).is_err());
        assert!(positionals(&argv(&["db.json", "--check"]), &LOADGEN_FLAGS).is_ok());
    }

    #[test]
    fn known_flags_are_skipped_around_positionals() {
        let args = argv(&["--top", "3", "db.json", "--trace", "goal -> goal", "--greedy"]);
        let pos = positionals(&args, &QUERY_FLAGS).unwrap();
        assert_eq!(pos, vec!["db.json", "goal -> goal"]);
    }

    #[test]
    fn valued_flag_without_a_value_is_rejected() {
        let args = argv(&["db.json", "goal", "--deadline-ms"]);
        let err = positionals(&args, &QUERY_FLAGS).unwrap_err();
        assert!(err.contains("--deadline-ms requires a value"), "{err}");
    }
}
