//! E8 — the Figure-1 pipeline end-to-end, with per-stage accuracies:
//! synthesize → detect shot boundaries from pixels → extract features →
//! mine events with the decision tree → build HMMM → query. The per-shot
//! time of each stage is bench_e2e `ingest`'s (`ingest.*_ms_per_shot`).

use hmmm_annotate::evaluate::micro_f1;
use hmmm_annotate::{evaluate_annotations, AnnotatorConfig, EventAnnotator};
use hmmm_bench::{precision_at_k, Table};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{extract_shot, ExtractorConfig, FeatureVector};
use hmmm_media::{
    ArchiveConfig, AudioBuf, EventKind, PixelBuf, RenderConfig, SyntheticArchive,
};
use hmmm_query::QueryTranslator;
use hmmm_shot::{evaluate_cuts, segment_frames, ShotBoundaryDetector, ShotDetectorConfig};
use hmmm_storage::Catalog;

fn main() {
    println!("E8 / Figure 1 — full pipeline, stage accuracy\n");
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 8,
        shots_per_video: 60,
        event_rate: 0.25,
        double_event_rate: 0.1,
        render: RenderConfig::default(),
        seed: 0xE8,
    });

    let mut stage_table = Table::new(&["stage", "accuracy"]);

    // Stage 1: shot-boundary detection.
    let mut f1_sum = 0.0;
    let mut videos: Vec<Vec<(Vec<EventKind>, FeatureVector)>> = Vec::new();
    let extractor = ExtractorConfig::default();
    for video in archive.videos() {
        let frames: Vec<PixelBuf> = video.frame_stream().collect();
        let mut det = ShotBoundaryDetector::new(ShotDetectorConfig::default());
        for f in &frames {
            det.push(f);
        }
        let cuts = det.finish();
        f1_sum += evaluate_cuts(&cuts, &video.true_cuts(), 1).f1();

        let segments = segment_frames(&cuts, frames.len());
        let audio: Vec<f64> = video
            .rendered_shots()
            .flat_map(|rs| rs.audio.samples().to_vec())
            .collect();
        let spf = video.config().samples_per_frame;
        let mut shots = Vec::with_capacity(segments.len());
        for seg in &segments {
            let a0 = seg.start * spf;
            let a1 = (seg.end * spf).min(audio.len());
            let seg_audio = AudioBuf::new(video.config().sample_rate, audio[a0..a1].to_vec());
            let features = extract_shot(&frames[seg.range()], &seg_audio, &extractor);
            let events = overlap_events(video, seg.start, seg.end);
            shots.push((events, features));
        }
        videos.push(shots);
    }
    stage_table.row_owned(vec![
        "shot detection + features".into(),
        format!("cut F1 {:.3}", f1_sum / archive.video_count() as f64),
    ]);

    // Stage 2: decision-tree event mining (train half, test half).
    let half = archive.video_count() / 2;
    let train: Vec<(FeatureVector, Vec<EventKind>)> = videos[..half]
        .iter()
        .flatten()
        .map(|(e, f)| (*f, e.clone()))
        .collect();
    let annotator =
        EventAnnotator::train(&train, AnnotatorConfig::default()).expect("non-empty train");
    let test: Vec<(FeatureVector, Vec<EventKind>)> = videos[half..]
        .iter()
        .flatten()
        .map(|(e, f)| (*f, e.clone()))
        .collect();
    let predicted: Vec<Vec<EventKind>> = test.iter().map(|(f, _)| annotator.annotate(f)).collect();
    let truth: Vec<Vec<EventKind>> = test.iter().map(|(_, e)| e.clone()).collect();
    let mining_f1 = micro_f1(&evaluate_annotations(&predicted, &truth));
    stage_table.row_owned(vec![
        "event mining (train+test)".into(),
        format!("micro-F1 {mining_f1:.3}"),
    ]);

    // Stage 3: catalog + HMMM (mined annotations on the held-out half).
    let mut catalog = Catalog::new();
    for (vi, shots) in videos.into_iter().enumerate() {
        let shots = if vi < half {
            shots
        } else {
            shots
                .into_iter()
                .map(|(_, f)| (annotator.annotate(&f), f))
                .collect()
        };
        catalog.add_video(format!("video-{vi:03}"), shots);
    }
    catalog.validate().expect("consistent");
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    stage_table.row_owned(vec![
        "catalog + HMMM build".into(),
        format!("{} shots modeled", model.shot_count()),
    ]);

    // Stage 4: the query.
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("free_kick -> goal").expect("valid");
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");
    let (results, _) = retriever.retrieve(&pattern, 8).expect("valid");
    let p = precision_at_k(&catalog, &pattern, &results, 8).unwrap_or(0.0);
    stage_table.row_owned(vec![
        "query 'free_kick -> goal'".into(),
        format!("{} candidates, p@8 {p:.2} (vs catalog annotations)", results.len()),
    ]);

    println!("{stage_table}");
    println!("note: p@8 here judges against the *mined* annotations the model saw,");
    println!("matching the paper's setting where the system retrieves what its");
    println!("annotation pipeline produced.");
}

fn overlap_events(
    video: &hmmm_media::SyntheticVideo,
    start: usize,
    end: usize,
) -> Vec<EventKind> {
    let mut events = Vec::new();
    let mut pos = 0usize;
    for i in 0..video.shot_count() {
        let shot = video.shot(i).expect("in range");
        let (s0, s1) = (pos, pos + shot.frames);
        pos = s1;
        let overlap = s1.min(end).saturating_sub(s0.max(start));
        if overlap * 2 > shot.frames {
            events.extend(shot.events.iter().copied());
        }
    }
    events
}
