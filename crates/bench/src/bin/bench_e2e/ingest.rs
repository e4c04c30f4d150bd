//! `ingest`: the Figure-1 path, offline half. Set-up trains the event
//! annotator on a seeded training archive; the window then streams seeded
//! videos through it — rendered frames → `ShotBoundaryDetector` →
//! `segment_frames` → `extract_shot` → `EventAnnotator` — one shot at a
//! time into the catalog. After the window the archive gets its λ
//! (`build_hmmm`), the audit, persistence, and a cold start from disk.
//!
//! The query engine does almost nothing here, so a query-path change
//! should leave this workload flat; a features, shot-detection or
//! persistence change should show only here. An operation is one shot:
//! its latency is feature extraction plus annotation, and throughput is
//! shots per second through the whole per-video pipeline.

use crate::fixture::{self, Mix, Scale, LIMIT};
use crate::report::Outcome;
use crate::stats;
use hmmm_annotate::evaluate::micro_f1;
use hmmm_annotate::{evaluate_annotations, AnnotatorConfig, EventAnnotator};
use hmmm_core::{build_hmmm, load_model_with, save_model_with, BuildConfig, InMemoryRecorder};
use hmmm_core::{Hmmm, Retriever};
use hmmm_features::{extract_shot, ExtractorConfig, FeatureVector};
use hmmm_media::{ArchiveConfig, AudioBuf, EventKind, SyntheticArchive, SyntheticVideo};
use hmmm_serve::{ModelSnapshot, QueryRequest, QueryServer, ServeOutcome};
use hmmm_shot::{
    evaluate_cuts, segment_frames, CutEvaluation, ShotBoundaryDetector, ShotDetectorConfig,
};
use hmmm_storage::{load_binary_with, save_binary_with, Catalog, PersistOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 5;
/// Stream videos generated per archive chunk.
const CHUNK: usize = 8;

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".bench_e2e_work").join(format!("ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

/// A seeded archive of `videos` at the run's size and render profile.
fn archive(scale: &Scale, seed: u64, videos: usize) -> SyntheticArchive {
    SyntheticArchive::generate(ArchiveConfig {
        videos,
        shots_per_video: scale.ingest_shots,
        event_rate: 0.25,
        double_event_rate: 0.1,
        render: scale.ingest_render,
        seed,
    })
}

/// Time spent per stage across the window.
#[derive(Debug, Default)]
struct StageTimes {
    render: Duration,
    detect: Duration,
    features: Duration,
    annotate: Duration,
}

/// One video through the per-video pipeline.
struct Ingested {
    /// Catalog rows: annotated events and features, one per detected shot.
    rows: Vec<(Vec<EventKind>, FeatureVector)>,
    /// Ground-truth events of each detected shot (majority overlap).
    truth: Vec<Vec<EventKind>>,
    cuts: CutEvaluation,
    /// Per shot: when its features started, from `origin`, and its latency
    /// (features + annotation) in ms.
    shot_ops: Vec<(Duration, f64)>,
}

/// Renders `video` once, detects its cuts, and extracts and annotates each
/// detected shot. Without an annotator the rows carry the ground truth
/// (the training archive).
fn ingest_video(
    video: &SyntheticVideo,
    annotator: Option<&EventAnnotator>,
    origin: Instant,
    times: &mut StageTimes,
) -> Ingested {
    let t = Instant::now();
    let mut frames = Vec::new();
    let mut audio = Vec::new();
    for shot in video.rendered_shots() {
        frames.extend(shot.frames);
        audio.extend_from_slice(shot.audio.samples());
    }
    times.render += t.elapsed();

    let t = Instant::now();
    let mut detector = ShotBoundaryDetector::new(ShotDetectorConfig::default());
    for frame in &frames {
        detector.push(frame);
    }
    let cuts = detector.finish();
    let segments = segment_frames(&cuts, frames.len());
    times.detect += t.elapsed();

    let extractor = ExtractorConfig::default();
    let spf = video.config().samples_per_frame;
    let mut out = Ingested {
        rows: Vec::with_capacity(segments.len()),
        truth: Vec::with_capacity(segments.len()),
        cuts: evaluate_cuts(&cuts, &video.true_cuts(), 1),
        shot_ops: Vec::with_capacity(segments.len()),
    };
    for seg in &segments {
        let t0 = Instant::now();
        let a0 = (seg.start * spf).min(audio.len());
        let a1 = (seg.end * spf).min(audio.len());
        let seg_audio = AudioBuf::new(video.config().sample_rate, audio[a0..a1].to_vec());
        let features = extract_shot(&frames[seg.range()], &seg_audio, &extractor);
        let t1 = Instant::now();
        let truth = overlap_events(video, seg.start, seg.end);
        let events = match annotator {
            Some(a) => a.annotate(&features),
            None => truth.clone(),
        };
        let t2 = Instant::now();
        times.features += t1 - t0;
        times.annotate += t2 - t1;
        out.shot_ops
            .push((t0 - origin, (t2 - t0).as_secs_f64() * 1e3));
        out.rows.push((events, features));
        out.truth.push(truth);
    }
    out
}

/// Ground-truth events of frames `start..end`: those of every scripted
/// shot the segment covers for more than half its length.
fn overlap_events(video: &SyntheticVideo, start: usize, end: usize) -> Vec<EventKind> {
    let mut events = Vec::new();
    let mut pos = 0usize;
    for shot in video.script().shots() {
        let (s0, s1) = (pos, pos + shot.frames);
        pos = s1;
        if s1.min(end).saturating_sub(s0.max(start)) * 2 > shot.frames {
            events.extend(shot.events.iter().copied());
        }
    }
    events
}

/// Set-up: featurize the training archive, train the annotator. Returns it
/// with the training call's own seconds.
fn train(archive: &SyntheticArchive) -> Result<(EventAnnotator, f64), String> {
    let mut times = StageTimes::default();
    let samples: Vec<(FeatureVector, Vec<EventKind>)> = archive
        .videos()
        .iter()
        .flat_map(|v| ingest_video(v, None, Instant::now(), &mut times).rows)
        .map(|(events, features)| (features, events))
        .collect();
    let t = Instant::now();
    let annotator = EventAnnotator::train(&samples, AnnotatorConfig::default())
        .ok_or("empty training archive")?;
    Ok((annotator, t.elapsed().as_secs_f64()))
}

/// Runs the workload for one seed.
pub fn run(scale: &Scale, seed: u64, trace: bool) -> Result<Outcome, String> {
    let work = WorkDir::new()?;
    let training = archive(scale, fixture::sub_seed(seed, 1), scale.train_videos);
    let ((annotator, train_s), setup_s) =
        fixture::repeated_setup(SETUP_REPS, || (), |()| train(&training))?;

    // The window: whole videos until the time is up.
    let mut times = StageTimes::default();
    let mut videos: Vec<(SyntheticVideo, Ingested)> = Vec::new();
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(scale.seconds);
    let mut chunk = 0u64;
    'window: loop {
        let stream = archive(scale, fixture::sub_seed(seed, 100 + chunk), CHUNK);
        chunk += 1;
        for video in stream.videos() {
            if Instant::now() >= until {
                break 'window;
            }
            let ingested = ingest_video(video, Some(&annotator), started, &mut times);
            videos.push((video.clone(), ingested));
        }
    }

    let mut outcome = Outcome::default();
    let shot_ops: Vec<(Duration, f64)> = videos
        .iter()
        .flat_map(|(_, i)| i.shot_ops.iter().copied())
        .collect();
    let shots = shot_ops.len();
    outcome.attempted = shots as u64;
    outcome.samples.insert("latency", shots);
    outcome.samples.insert("videos", videos.len());
    let (p50, p99, ops_per_s) = stats::windowed(&shot_ops, until - started)?;
    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s);
    m.set("p50_ms", p50);
    m.set("p99_ms", p99);
    m.set("ops_per_s", ops_per_s);

    // The scores cover a fixed prefix of the stream, so they are a pure
    // function of the seed.
    let prefix = videos.get(..scale.f1_videos).ok_or_else(|| {
        format!(
            "only {} videos ingested; the F1 scores need {}",
            videos.len(),
            scale.f1_videos
        )
    })?;
    let cuts = prefix.iter().fold(
        CutEvaluation {
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
        },
        |acc, (_, i)| CutEvaluation {
            true_positives: acc.true_positives + i.cuts.true_positives,
            false_positives: acc.false_positives + i.cuts.false_positives,
            false_negatives: acc.false_negatives + i.cuts.false_negatives,
        },
    );
    let predicted: Vec<Vec<EventKind>> = prefix
        .iter()
        .flat_map(|(_, i)| i.rows.iter().map(|r| r.0.clone()))
        .collect();
    let truth: Vec<Vec<EventKind>> = prefix
        .iter()
        .flat_map(|(_, i)| i.truth.iter().cloned())
        .collect();
    let mining_f1 = micro_f1(&evaluate_annotations(&predicted, &truth));

    // Determinism: the first and last video re-ingested must give the
    // same rows bit for bit.
    for (video, ingested) in [videos.first(), videos.last()].into_iter().flatten() {
        let again = ingest_video(
            video,
            Some(&annotator),
            Instant::now(),
            &mut StageTimes::default(),
        );
        if again.rows != ingested.rows {
            outcome.problem("re-ingesting a video changed its catalog rows".into());
        }
    }

    let mut catalog = Catalog::new();
    for (i, (_, ingested)) in videos.into_iter().enumerate() {
        catalog.add_video(format!("video-{i:04}"), ingested.rows);
    }
    let t = Instant::now();
    let model = build_hmmm(&catalog, &BuildConfig::default()).map_err(|e| e.to_string())?;
    let construct_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    model.deep_audit(&catalog).map_err(|e| e.to_string())?;
    let audit_s = t.elapsed().as_secs_f64();

    let persist = persist_and_cold_start(&work, &catalog, &model, &mut outcome)?;

    if trace {
        let shots = shots as f64;
        let m = &mut outcome.metrics;
        m.set("ingest.train_s", train_s);
        m.set(
            "ingest.render_ms_per_shot",
            times.render.as_secs_f64() * 1e3 / shots,
        );
        m.set(
            "ingest.shot_detect_ms_per_shot",
            times.detect.as_secs_f64() * 1e3 / shots,
        );
        m.set(
            "ingest.features_ms_per_shot",
            times.features.as_secs_f64() * 1e3 / shots,
        );
        m.set(
            "ingest.annotate_ms_per_shot",
            times.annotate.as_secs_f64() * 1e3 / shots,
        );
        m.set("ingest.construct_s", construct_s);
        m.set("ingest.audit_s", audit_s);
        m.set("ingest.cut_f1", cuts.f1());
        m.set("ingest.mining_micro_f1", mining_f1);
        m.set("ingest.cold_start_s", persist.cold_start_s);
        m.set("persist.model_save_s", persist.model_save_s);
        m.set("persist.model_load_s", persist.model_load_s);
        m.set("persist.catalog_save_s", persist.catalog_save_s);
        m.set("persist.catalog_load_s", persist.catalog_load_s);
        m.set(
            "persist.model_bytes_per_shot",
            persist.model_bytes as f64 / shots,
        );
        m.set(
            "persist.atomic_write_retries",
            persist.atomic_write_retries as f64,
        );
        m.set("persist.bak_fallbacks", persist.bak_fallbacks as f64);
    }
    outcome.notes.insert("ingest.cut_f1".into(), cuts.f1());
    outcome
        .notes
        .insert("ingest.mining_micro_f1".into(), mining_f1);
    Ok(outcome)
}

/// What persistence and the cold start measured.
struct Persisted {
    model_save_s: f64,
    catalog_save_s: f64,
    model_load_s: f64,
    catalog_load_s: f64,
    model_bytes: u64,
    cold_start_s: f64,
    atomic_write_retries: u64,
    bak_fallbacks: u64,
}

/// Saves the model (`save_model_with`) and the catalog
/// (`save_binary_with`), then cold-starts a server from the files and
/// answers a first query. The loaded catalog and model must equal the
/// saved ones, and the first answer the in-memory serial ranking.
fn persist_and_cold_start(
    work: &WorkDir,
    catalog: &Catalog,
    model: &Hmmm,
    outcome: &mut Outcome,
) -> Result<Persisted, String> {
    let recorder = InMemoryRecorder::shared();
    let opts = PersistOptions::with_recorder(recorder.handle());
    let model_path = work.0.join("model.json");
    let catalog_path = work.0.join("catalog.bin");

    let t = Instant::now();
    save_model_with(model, &model_path, &opts).map_err(|e| e.to_string())?;
    let model_save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    save_binary_with(catalog, &catalog_path, &opts).map_err(|e| e.to_string())?;
    let catalog_save_s = t.elapsed().as_secs_f64();
    let model_bytes = std::fs::metadata(&model_path)
        .map_err(|e| e.to_string())?
        .len();

    let mix = Mix::soccer()?;
    let cold = Instant::now();
    let loaded_catalog = load_binary_with(&catalog_path, &opts).map_err(|e| e.to_string())?;
    let catalog_load_s = cold.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded_model =
        load_model_with(&model_path, &loaded_catalog, &opts).map_err(|e| e.to_string())?;
    let model_load_s = t.elapsed().as_secs_f64();
    let snapshot =
        ModelSnapshot::from_model(loaded_model, loaded_catalog).map_err(|e| e.to_string())?;
    let server = QueryServer::start(
        snapshot,
        fixture::server_config(hmmm_core::RecorderHandle::noop()),
    )
    .map_err(|e| e.to_string())?;
    let first = server.query(QueryRequest::new(mix.pattern(0).clone(), LIMIT));
    let cold_start_s = cold.elapsed().as_secs_f64();

    let live = server.snapshot();
    if *live.catalog != *catalog {
        outcome.problem("the catalog loaded back differs from the one saved".into());
    }
    if live.model != *model {
        outcome.problem("the model loaded back differs from the one saved".into());
    }
    let mut serial = server.retrieval_config();
    serial.threads = Some(1);
    let expected = Retriever::new(model, catalog, serial)
        .and_then(|r| r.retrieve(mix.pattern(0), LIMIT))
        .map_err(|e| e.to_string())?
        .0;
    match first {
        ServeOutcome::Completed(r) if r.results == expected => {}
        other => outcome.problem(format!(
            "the cold-started server's first answer is wrong: {other:?}"
        )),
    }
    drop(live);
    server.join();
    let report = recorder.report();
    Ok(Persisted {
        model_save_s,
        catalog_save_s,
        model_load_s,
        catalog_load_s,
        model_bytes,
        cold_start_s,
        atomic_write_retries: report.counter(hmmm_storage::CTR_ATOMIC_WRITE_RETRIES),
        bak_fallbacks: report.counter(hmmm_storage::CTR_BAK_FALLBACKS),
    })
}
