//! E11 — hot-path layout sweep: what the blocked SoA kernel buys, and
//! where.
//!
//! Two sweeps, all serial (this measures memory layout, not the machine):
//!
//! 1. **Block size** — Eq.-14 throughput (shot-evaluations/sec) of
//!    `sim::similarity_block` over contiguous blocks of B shots, against
//!    the scalar per-shot reference. This is the kernel that fills each
//!    model's per-epoch score table. Small blocks pay per-call overhead
//!    (a transpose buffer per call); large blocks amortize it over
//!    unit-stride sweeps of the transposed `B_1` rows.
//! 2. **Archive size** — end-to-end content-driven retrieval (shots/sec)
//!    at growing archive sizes, with the forward density of the sparse
//!    `A_1` the traversal walks.
//!
//! The blocked variant is cross-checked bitwise against the scalar
//! reference inside the loop — a layout bug can never ship inside a perf
//! table.
//!
//! ```text
//! cargo run --release -p hmmm-bench --bin exp_kernel_sweep [-- --quick]
//! ```
//!
//! `--quick` shrinks the fixtures and repeats for the CI smoke row.

use hmmm_bench::{skewed_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, sim, BuildConfig, Hmmm, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use std::time::Instant;

fn best_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Sums every Eq.-14 score through the blocked kernel at block size `b`,
/// folding per-block partials in block order (the same sequence the scalar
/// reference below uses, so the sinks compare bitwise).
fn blocked_pass(model: &Hmmm, b: usize, scratch: &mut Vec<f64>) -> f64 {
    let shots = model.shot_count();
    let mut acc = 0.0;
    for e in 0..EventKind::COUNT {
        let mut lo = 0usize;
        while lo < shots {
            let hi = (lo + b).min(shots);
            let row = sim::similarity_block(model, lo..hi, e, scratch);
            acc += row.iter().sum::<f64>();
            lo = hi;
        }
    }
    acc
}

fn scalar_pass(model: &Hmmm, b: usize) -> f64 {
    let shots = model.shot_count();
    let mut acc = 0.0;
    for e in 0..EventKind::COUNT {
        let mut lo = 0usize;
        while lo < shots {
            let hi = (lo + b).min(shots);
            let mut part = 0.0;
            for s in lo..hi {
                part += sim::similarity(model, s, e);
            }
            acc += part;
            lo = hi;
        }
    }
    acc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 1 } else { 3 };
    println!(
        "E11 — blocked SoA kernel + sparse A1 sweep{}\n",
        if quick { " (quick)" } else { "" }
    );

    // --- Sweep 1: block size.
    let (videos, shots_per) = if quick { (16, 60) } else { (80, 250) };
    let catalog = skewed_catalog(
        DataConfig {
            videos,
            shots_per_video: shots_per,
            event_rate: 0.08,
            seed: 0xE11,
        },
        0.005,
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let shots = model.shot_count();
    let evals = (shots * EventKind::COUNT) as f64;

    println!("## Eq.-14 throughput vs block size ({videos} videos × {shots_per} shots)\n");
    let mut t = Table::new(&["variant", "block", "best", "evals/sec"]);
    let reference = scalar_pass(&model, shots.max(1));
    let scalar_secs = best_secs(rounds, || {
        std::hint::black_box(scalar_pass(&model, shots.max(1)));
    });
    t.row_owned(vec![
        "scalar".into(),
        "1".into(),
        format!("{:.3} ms", scalar_secs * 1e3),
        format!("{:.2e}", evals / scalar_secs),
    ]);
    let mut scratch = Vec::new();
    let mut seen = 0usize;
    for &b in &[16usize, 64, 256, 2048, usize::MAX] {
        let b = b.min(shots.max(1));
        if b == seen {
            continue; // clamped onto the previous row — nothing new to say
        }
        seen = b;
        let sink = blocked_pass(&model, b, &mut scratch);
        assert_eq!(
            sink.to_bits(),
            scalar_pass(&model, b).to_bits(),
            "blocked kernel diverged at block size {b}"
        );
        let secs = best_secs(rounds, || {
            std::hint::black_box(blocked_pass(&model, b, &mut scratch));
        });
        t.row_owned(vec![
            "blocked".into(),
            if b == shots { "all".into() } else { b.to_string() },
            format!("{:.3} ms", secs * 1e3),
            format!("{:.2e}", evals / secs),
        ]);
    }
    println!("{t}");
    std::hint::black_box(reference);

    // --- Sweep 2: end-to-end serial retrieval throughput vs archive size.
    println!("\n## content-driven retrieval (serial): shots/sec vs archive size\n");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("goal -> goal").expect("valid");
    let sizes: &[(usize, usize)] = if quick {
        &[(8, 40), (16, 60)]
    } else {
        &[(20, 100), (40, 150), (80, 250)]
    };
    let mut t = Table::new(&["archive", "latency", "shots/sec", "A1 fwd density"]);
    for &(videos, shots_per) in sizes {
        let catalog = skewed_catalog(
            DataConfig {
                videos,
                shots_per_video: shots_per,
                event_rate: 0.08,
                seed: 0xE11 + 11,
            },
            0.005,
        );
        let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
        let nnz: usize = model.locals().iter().map(|l| l.a1().nnz()).sum();
        let slots: usize = model.locals().iter().map(|l| l.len() * (l.len() + 1) / 2).sum();
        let retriever = Retriever::new(&model, &catalog, RetrievalConfig::content_only())
            .expect("consistent");
        let secs = best_secs(rounds, || {
            let (results, _) = retriever.retrieve(&pattern, 10).expect("valid");
            std::hint::black_box(results);
        });
        t.row_owned(vec![
            format!("{videos}×{shots_per}"),
            format!("{:.2} ms", secs * 1e3),
            format!("{:.0}", catalog.shot_count() as f64 / secs),
            format!("{:.3}", nnz as f64 / slots.max(1) as f64),
        ]);
    }
    println!("{t}");
}
