//! E11 — hot-path layout sweep: end-to-end content-driven retrieval
//! (shots/sec) at growing archive sizes, with the forward density of the
//! sparse `A_1` the traversal walks. Serial, so it measures memory layout,
//! not the machine.
//!
//! ```text
//! cargo run --release -p hmmm-bench --bin exp_kernel_sweep [-- --quick]
//! ```
//!
//! `--quick` shrinks the fixtures and repeats for the CI smoke row.

use hmmm_bench::{skewed_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 1 } else { 3 };
    println!(
        "E11 — sparse A1 retrieval sweep{}\n",
        if quick { " (quick)" } else { "" }
    );

    println!("## content-driven retrieval (serial): shots/sec vs archive size\n");
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
