//! Criterion: retrieval engines head-to-head (E5's micro view).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hmmm_baselines::{EventIndexRetriever, ExhaustiveConfig, ExhaustiveRetriever, GreedyRetriever};
use hmmm_bench::{standard_catalog, DataConfig};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let (_, catalog) = standard_catalog(DataConfig {
        videos: 10,
        shots_per_video: 150,
        event_rate: 0.08,
        seed: 0xB1,
    });
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("goal -> free_kick").expect("valid");

    let mut group = c.benchmark_group("retrieval_engines");
    group.bench_function("hmmm_beam3", |b| {
        let r = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
        b.iter(|| black_box(r.retrieve(black_box(&pattern), 10).unwrap()))
    });
    group.bench_function("hmmm_greedy_beam1", |b| {
        let r = Retriever::new(&model, &catalog, RetrievalConfig::paper_greedy()).unwrap();
        b.iter(|| black_box(r.retrieve(black_box(&pattern), 10).unwrap()))
    });
    group.bench_function("exhaustive", |b| {
        let r = ExhaustiveRetriever::new(&model, &catalog, ExhaustiveConfig::default()).unwrap();
        b.iter(|| black_box(r.retrieve(black_box(&pattern), 10).unwrap()))
    });
    group.bench_function("event_index", |b| {
        let r = EventIndexRetriever::new(&model, &catalog).unwrap();
        b.iter(|| black_box(r.retrieve(black_box(&pattern), 10).unwrap()))
    });
    group.bench_function("greedy", |b| {
        let r = GreedyRetriever::new(&model, &catalog).unwrap();
        b.iter(|| black_box(r.retrieve(black_box(&pattern), 10).unwrap()))
    });
    group.finish();
}

fn bench_pattern_length(c: &mut Criterion) {
    let (_, catalog) = standard_catalog(DataConfig {
        videos: 10,
        shots_per_video: 150,
        event_rate: 0.1,
        seed: 0xB2,
    });
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();

    let mut group = c.benchmark_group("hmmm_pattern_length");
    for (c_len, q) in [
        (1usize, "goal"),
        (2, "goal -> free_kick"),
        (3, "free_kick -> goal -> corner_kick"),
        (4, "foul -> free_kick -> goal -> player_change"),
    ] {
        let pattern = translator.compile(q).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(c_len), &pattern, |b, p| {
            b.iter(|| black_box(retriever.retrieve(black_box(p), 10).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_pattern_length);
criterion_main!(benches);
