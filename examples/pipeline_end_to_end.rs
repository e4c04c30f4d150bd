//! The full Figure-1 pipeline, stage by stage, with timings and accuracy:
//! synthetic video → shot-boundary detection → feature extraction →
//! decision-tree event mining → HMMM → temporal query.
//!
//! Unlike `ingest_archive` (which trusts the script's shot boundaries),
//! this example *detects* the boundaries from pixels, so the whole
//! substrate stack is exercised exactly as a real deployment would.
//!
//! ```sh
//! cargo run --release --example pipeline_end_to_end
//! ```

use hmmm_annotate::evaluate::micro_f1;
use hmmm_annotate::{evaluate_annotations, AnnotatorConfig, EventAnnotator};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{extract_shot, ExtractorConfig, FeatureVector};
use hmmm_media::{ArchiveConfig, EventKind, PixelBuf, RenderConfig, SyntheticArchive};
use hmmm_query::QueryTranslator;
use hmmm_shot::{evaluate_cuts, segment_frames, ShotBoundaryDetector, ShotDetectorConfig};
use hmmm_storage::Catalog;
use std::time::Instant;

/// Per-video detected shots: each shot's annotations plus its feature vector.
type DetectedShots = Vec<(Vec<EventKind>, FeatureVector)>;

fn main() {
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 6,
        shots_per_video: 60,
        event_rate: 0.25,
        double_event_rate: 0.1,
        render: RenderConfig::default(),
        seed: 1106,
    });
    println!(
        "stage 0 · synthesize: {} videos / {} shots / {} events",
        archive.video_count(),
        archive.total_shots(),
        archive.total_events()
    );

    // --- Stage 1: shot-boundary detection from pixels.
    let t = Instant::now();
    let mut all_f1 = 0.0;
    let mut detected_catalog: Vec<(usize, DetectedShots)> = Vec::new();
    let extractor = ExtractorConfig::default();

    for (vi, video) in archive.videos().iter().enumerate() {
        let frames: Vec<PixelBuf> = video.frame_stream().collect();
        let mut det = ShotBoundaryDetector::new(ShotDetectorConfig::default());
        for f in &frames {
            det.push(f);
        }
        let cuts = det.finish();
        let truth = video.true_cuts();
        let eval = evaluate_cuts(&cuts, &truth, 1);
        all_f1 += eval.f1();

        // --- Stage 2: features per *detected* shot; ground-truth events are
        // assigned to detected shots by frame-overlap (how a human
        // annotator would label the detected segmentation).
        let segments = segment_frames(&cuts, frames.len());
        let audio = concat_audio(video);
        let samples_per_frame = video.config().samples_per_frame;
        let mut shots = Vec::with_capacity(segments.len());
        for seg in &segments {
            let seg_frames = &frames[seg.range()];
            let a0 = seg.start * samples_per_frame;
            let a1 = (seg.end * samples_per_frame).min(audio.len());
            let seg_audio =
                hmmm_media::AudioBuf::new(video.config().sample_rate, audio[a0..a1].to_vec());
            let features = extract_shot(seg_frames, &seg_audio, &extractor);
            let events = overlap_events(video, seg.start, seg.end);
            shots.push((events, features));
        }
        detected_catalog.push((vi, shots));
    }
    println!(
        "stage 1 · shot detection: mean F1 {:.3} over {} videos ({:.1?})",
        all_f1 / archive.video_count() as f64,
        archive.video_count(),
        t.elapsed()
    );

    // --- Stage 3: decision-tree event mining (train on half the videos).
    let t = Instant::now();
    let train: Vec<(FeatureVector, Vec<EventKind>)> = detected_catalog
        .iter()
        .take(archive.video_count() / 2)
        .flat_map(|(_, shots)| shots.iter().map(|(e, f)| (*f, e.clone())))
        .collect();
    let annotator = EventAnnotator::train(&train, AnnotatorConfig::default())
        .expect("training set non-empty");
    let test: Vec<(FeatureVector, Vec<EventKind>)> = detected_catalog
        .iter()
        .skip(archive.video_count() / 2)
        .flat_map(|(_, shots)| shots.iter().map(|(e, f)| (*f, e.clone())))
        .collect();
    let predicted: Vec<Vec<EventKind>> = test.iter().map(|(f, _)| annotator.annotate(f)).collect();
    let truth: Vec<Vec<EventKind>> = test.iter().map(|(_, e)| e.clone()).collect();
    let metrics = evaluate_annotations(&predicted, &truth);
    println!(
        "stage 2 · event mining: micro-F1 {:.3} on held-out videos ({:.1?})",
        micro_f1(&metrics),
        t.elapsed()
    );
    for m in metrics.iter().filter(|m| m.true_positives + m.false_negatives > 0) {
        println!(
            "    {:<14} p={:.2} r={:.2}",
            m.kind.name(),
            m.precision(),
            m.recall()
        );
    }

    // --- Stage 4: catalog + HMMM over mined annotations.
    let t = Instant::now();
    let mut catalog = Catalog::new();
    for (vi, shots) in detected_catalog.into_iter() {
        let half = archive.video_count() / 2;
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
    catalog.validate().expect("catalog consistent");
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    println!(
        "stage 3 · HMMM build: {} local MMMs, {} shots ({:.1?})",
        model.video_count(),
        model.shot_count(),
        t.elapsed()
    );

    // --- Stage 5: the temporal query.
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("free_kick -> goal").expect("valid");
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");
    let t = Instant::now();
    let (results, stats) = retriever.retrieve(&pattern, 5).expect("valid");
    println!(
        "stage 4 · query 'free_kick -> goal': {} candidates in {:.1?} ({} score reads)",
        results.len(),
        t.elapsed(),
        stats.cache_lookups
    );
    for (rank, r) in results.iter().enumerate() {
        println!(
            "    #{rank} video {} score {:.4} shots {:?}",
            r.video.index(),
            r.score,
            r.shots.iter().map(|s| s.index()).collect::<Vec<_>>()
        );
    }
}

/// Concatenates the audio tracks of all shots of a video.
fn concat_audio(video: &hmmm_media::SyntheticVideo) -> Vec<f64> {
    let mut all = Vec::new();
    for rs in video.rendered_shots() {
        all.extend_from_slice(rs.audio.samples());
    }
    all
}

/// Ground-truth events overlapping a detected frame range.
fn overlap_events(
    video: &hmmm_media::SyntheticVideo,
    start: usize,
    end: usize,
) -> Vec<EventKind> {
    let mut events = Vec::new();
    let mut pos = 0usize;
    for i in 0..video.shot_count() {
        let shot = video.shot(i).expect("in range");
        let shot_start = pos;
        let shot_end = pos + shot.frames;
        pos = shot_end;
        // Majority overlap assigns the scripted events to a detected shot.
        let overlap = shot_end.min(end).saturating_sub(shot_start.max(start));
        if overlap * 2 > shot.frames {
            events.extend(shot.events.iter().copied());
        }
    }
    events
}
