//! Property: the model's score table is invisible.
//!
//! The per-epoch score table (`Hmmm::sim_row`), filled by the blocked
//! kernel, exists purely as a layout optimization — the block transposes of
//! `B_1` and the packed per-event term lists must never change a single bit
//! of any score the scalar Eq.-14 reference produces, whichever writer
//! (construction, a feedback round, a load) last filled the table. That the
//! table-reading engine ranks like the scalar-Eq.-14 spec in both regimes is
//! `spec_retrieval`'s property.

mod common;

use common::{catalog, pattern};
use hmmm_core::{
    build_hmmm, load_model, save_model, sim, BuildConfig, FeedbackConfig, FeedbackLog, Hmmm,
    PositivePattern, RetrievalConfig, Retriever,
};
use hmmm_media::EventKind;
use hmmm_storage::{ShotId, TestDir, VideoId};
use proptest::prelude::*;

/// Every cell of the table, all shots × all 8 events (unsupported events
/// included), is bitwise the scalar calibrated Eq.-14 score.
fn table_is_scalar_eq14(model: &Hmmm, writer: &str) -> Result<(), TestCaseError> {
    for event in 0..EventKind::COUNT {
        let row = model.sim_row(event);
        prop_assert_eq!(row.len(), model.shot_count());
        for (shot, &score) in row.iter().enumerate() {
            prop_assert_eq!(
                score.to_bits(),
                sim::calibrated_similarity(model, shot, event).to_bits(),
                "{}: shot {} event {}",
                writer,
                shot,
                event
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The score table is bitwise Eq. 14 after each of the three writers:
    /// construction, a feedback round that relearns `P_{1,2}`/`B_1'` (so
    /// events can gain or change feature support), and a save → load.
    #[test]
    fn score_table_is_bitwise_eq14(
        cat in catalog(),
        picks in proptest::collection::vec((0usize..8, 0usize..10, 0usize..EventKind::COUNT), 1..6),
    ) {
        let mut model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        table_is_scalar_eq14(&model, "build")?;

        let mut log = FeedbackLog::new();
        for (q, (v, s, event)) in picks.into_iter().enumerate() {
            let video = VideoId(v % cat.video_count());
            let record = cat.video(video).unwrap();
            log.record(PositivePattern {
                query: q as u64,
                video,
                shots: vec![ShotId(record.shot_range.start + s % record.shot_count())],
                events: vec![event],
                access: 1.0,
            }).unwrap();
        }
        log.apply(&mut model, &cat, &FeedbackConfig::default()).unwrap();
        table_is_scalar_eq14(&model, "feedback")?;

        let dir = TestDir::new("hmmm_score_table");
        save_model(&model, dir.file("model.json")).unwrap();
        let loaded = load_model(dir.file("model.json"), &cat).unwrap();
        table_is_scalar_eq14(&loaded, "load")?;
    }

    /// Both regimes read the table, and the counters say so: wherever a
    /// video is visited a score was read, and no query evaluates Eq. 14 or
    /// builds a table of its own.
    #[test]
    fn both_regimes_read_the_table(cat in catalog(), pat in pattern(), beam in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        for base in [RetrievalConfig::content_only(), RetrievalConfig::default()] {
            let cfg = RetrievalConfig { beam_width: beam, ..base };
            let (_, stats) = Retriever::new(&model, &cat, cfg).unwrap().retrieve(&pat, 10).unwrap();
            if stats.videos_visited > 0 {
                prop_assert!(stats.cache_lookups > 0);
            }
            prop_assert_eq!(stats.sim_evaluations, 0);
            prop_assert_eq!(stats.cache_build_evaluations, 0);
        }
    }
}
