//! Twin-comparison shot-boundary detection.

use hmmm_media::PixelBuf;
use serde::{Deserialize, Serialize};

/// Detector thresholds and histogram resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShotDetectorConfig {
    /// Luminance histogram bins.
    pub bins: usize,
    /// χ² distance above which a frame pair is a hard cut.
    pub high_threshold: f64,
    /// χ² distance above which a pair *may* start a gradual transition.
    pub low_threshold: f64,
    /// Consecutive calm pairs that abandon a candidate transition.
    pub calm_patience: usize,
    /// Minimum frames between two boundaries (debounce).
    pub min_shot_len: usize,
}

impl Default for ShotDetectorConfig {
    fn default() -> Self {
        ShotDetectorConfig {
            bins: 32,
            high_threshold: 0.12,
            low_threshold: 0.04,
            calm_patience: 2,
            min_shot_len: 3,
        }
    }
}

/// Streaming twin-comparison detector.
///
/// Feed frames one at a time with [`ShotBoundaryDetector::push`]; boundaries
/// are reported as the index of the first frame of the *new* shot.
///
/// # Examples
///
/// ```
/// use hmmm_media::{PixelBuf, Rgb};
/// use hmmm_shot::{ShotBoundaryDetector, ShotDetectorConfig};
///
/// let mut det = ShotBoundaryDetector::new(ShotDetectorConfig::default());
/// let dark = PixelBuf::filled(16, 16, Rgb::new(10, 10, 10));
/// let bright = PixelBuf::filled(16, 16, Rgb::new(240, 240, 240));
/// for _ in 0..5 { det.push(&dark); }
/// for _ in 0..5 { det.push(&bright); }
/// assert_eq!(det.finish(), vec![5]);
/// ```
#[derive(Debug, Clone)]
pub struct ShotBoundaryDetector {
    config: ShotDetectorConfig,
    prev_hist: Option<Vec<f64>>,
    frame_index: usize,
    cuts: Vec<usize>,
    // Gradual-transition candidate state.
    candidate_start: Option<usize>,
    accumulated: f64,
    calm_run: usize,
}

impl ShotBoundaryDetector {
    /// Creates a detector.
    pub fn new(config: ShotDetectorConfig) -> Self {
        ShotBoundaryDetector {
            config,
            prev_hist: None,
            frame_index: 0,
            cuts: Vec::new(),
            candidate_start: None,
            accumulated: 0.0,
            calm_run: 0,
        }
    }

    /// Pushes the next frame of the stream.
    pub fn push(&mut self, frame: &PixelBuf) {
        let hist = normalized_lum_hist(frame, self.config.bins);
        if let Some(prev) = &self.prev_hist {
            let d = chi_square(prev, &hist);
            self.observe_distance(d);
        }
        self.prev_hist = Some(hist);
        self.frame_index += 1;
    }

    fn observe_distance(&mut self, d: f64) {
        let cfg = &self.config;
        let boundary_at = self.frame_index; // current frame starts the new shot
        let debounce_ok = |cuts: &[usize]| {
            cuts.last()
                .is_none_or(|&last| boundary_at - last >= cfg.min_shot_len)
        };

        if d >= cfg.high_threshold {
            // Hard cut.
            if debounce_ok(&self.cuts) {
                self.cuts.push(boundary_at);
            }
            self.candidate_start = None;
            self.accumulated = 0.0;
            self.calm_run = 0;
        } else if d >= cfg.low_threshold {
            // Inside (or starting) a potential gradual transition.
            if self.candidate_start.is_none() {
                self.candidate_start = Some(boundary_at);
                self.accumulated = 0.0;
            }
            self.accumulated += d;
            self.calm_run = 0;
            if self.accumulated >= cfg.high_threshold {
                if let Some(start) = self.candidate_start.take() {
                    if debounce_ok(&self.cuts) {
                        self.cuts.push(start);
                    }
                }
                self.accumulated = 0.0;
            }
        } else {
            // Calm pair.
            if self.candidate_start.is_some() {
                self.calm_run += 1;
                if self.calm_run > cfg.calm_patience {
                    self.candidate_start = None;
                    self.accumulated = 0.0;
                    self.calm_run = 0;
                }
            }
        }
    }

    /// Finishes the stream and returns the detected boundaries (indices of
    /// the first frame of each new shot, strictly increasing, never 0).
    pub fn finish(self) -> Vec<usize> {
        self.cuts
    }

    /// Convenience: detect boundaries over an in-memory iterator.
    pub fn detect(
        config: ShotDetectorConfig,
        frames: impl IntoIterator<Item = PixelBuf>,
    ) -> Vec<usize> {
        let mut det = ShotBoundaryDetector::new(config);
        for f in frames {
            det.push(&f);
        }
        det.finish()
    }
}

fn normalized_lum_hist(frame: &PixelBuf, bins: usize) -> Vec<f64> {
    frame.luminance_histogram(bins).normalized()
}

fn chi_square(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .filter(|(x, y)| **x + **y > 0.0)
        .map(|(x, y)| {
            let d = x - y;
            d * d / (x + y)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_media::Rgb;

    fn flat(v: u8) -> PixelBuf {
        PixelBuf::filled(16, 16, Rgb::new(v, v, v))
    }

    #[test]
    fn no_cut_in_static_stream() {
        let mut det = ShotBoundaryDetector::new(ShotDetectorConfig::default());
        for _ in 0..20 {
            det.push(&flat(100));
        }
        assert!(det.finish().is_empty());
    }

    #[test]
    fn hard_cut_detected_at_right_frame() {
        let mut det = ShotBoundaryDetector::new(ShotDetectorConfig::default());
        for _ in 0..7 {
            det.push(&flat(20));
        }
        for _ in 0..7 {
            det.push(&flat(220));
        }
        assert_eq!(det.finish(), vec![7]);
    }

    #[test]
    fn debounce_suppresses_adjacent_cuts() {
        let cfg = ShotDetectorConfig {
            min_shot_len: 5,
            ..ShotDetectorConfig::default()
        };
        let mut det = ShotBoundaryDetector::new(cfg);
        // Flicker every frame: only cuts ≥5 frames apart may be kept.
        for i in 0..20 {
            det.push(&flat(if i % 2 == 0 { 20 } else { 220 }));
        }
        let cuts = det.finish();
        for w in cuts.windows(2) {
            assert!(w[1] - w[0] >= 5, "cuts too close: {cuts:?}");
        }
    }

    #[test]
    fn gradual_transition_accumulates() {
        // A slow fade: each pair is below high but above low; the cumulative
        // distance must eventually confirm a boundary at the fade start.
        let cfg = ShotDetectorConfig {
            bins: 32,
            high_threshold: 0.5,
            low_threshold: 0.01,
            calm_patience: 2,
            min_shot_len: 2,
        };
        let mut det = ShotBoundaryDetector::new(cfg);
        for _ in 0..5 {
            det.push(&flat(40));
        }
        for step in 0..10 {
            det.push(&flat(40 + step * 18));
        }
        for _ in 0..5 {
            det.push(&flat(220));
        }
        let cuts = det.finish();
        assert!(!cuts.is_empty(), "fade not detected");
        assert!(
            (5..=12).contains(&cuts[0]),
            "fade boundary {} outside fade window",
            cuts[0]
        );
    }

    #[test]
    fn calm_run_abandons_false_candidate() {
        let cfg = ShotDetectorConfig {
            bins: 32,
            high_threshold: 10.0, // unreachable: nothing may confirm
            low_threshold: 0.01,
            calm_patience: 1,
            min_shot_len: 2,
        };
        let mut det = ShotBoundaryDetector::new(cfg);
        det.push(&flat(40));
        det.push(&flat(60)); // low-level blip
        for _ in 0..10 {
            det.push(&flat(60)); // calm again
        }
        assert!(det.finish().is_empty());
    }

    #[test]
    fn detect_convenience_matches_streaming() {
        let frames: Vec<PixelBuf> = (0..6)
            .map(|i| flat(if i < 3 { 10 } else { 240 }))
            .collect();
        let cuts = ShotBoundaryDetector::detect(ShotDetectorConfig::default(), frames);
        assert_eq!(cuts, vec![3]);
    }
}
