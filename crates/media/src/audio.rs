//! PCM audio buffers — the synthetic "audio tracks".

use serde::{Deserialize, Serialize};

/// A mono PCM audio clip with `f64` samples in `[-1, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AudioBuf {
    sample_rate: u32,
    samples: Vec<f64>,
}

impl AudioBuf {
    /// Wraps raw samples at the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`.
    pub fn new(sample_rate: u32, samples: Vec<f64>) -> Self {
        assert!(sample_rate > 0, "sample rate must be positive");
        AudioBuf {
            sample_rate,
            samples,
        }
    }

    /// Silence of the given length.
    pub fn silence(sample_rate: u32, len: usize) -> Self {
        AudioBuf::new(sample_rate, vec![0.0; len])
    }

    /// Samples per second.
    #[inline]
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Raw samples.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable raw samples (the synthesizer mixes layers in place).
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the clip holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Hard-clips all samples into `[-1, 1]` (after mixing layers).
    pub fn clamp(&mut self) {
        for s in &mut self.samples {
            *s = s.clamp(-1.0, 1.0);
        }
    }

    /// Short-time volume series: RMS of consecutive non-overlapping windows
    /// of `window` samples. This is the "volume" the paper's `volume_*`
    /// features summarize.
    pub fn volume_series(&self, window: usize) -> Vec<f64> {
        if window == 0 {
            return Vec::new();
        }
        self.samples
            .chunks_exact(window)
            .map(hmmm_signal::rms)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let a = AudioBuf::silence(8000, 16000);
        assert_eq!(a.sample_rate(), 8000);
        assert_eq!(a.len(), 16000);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        AudioBuf::new(0, vec![]);
    }

    #[test]
    fn clamp_limits_samples() {
        let mut a = AudioBuf::new(8000, vec![2.0, -3.0, 0.5]);
        a.clamp();
        assert_eq!(a.samples(), &[1.0, -1.0, 0.5]);
    }

    #[test]
    fn volume_series_windows() {
        // 4 samples of amplitude 1, then 4 of amplitude 0.
        let mut s = vec![1.0; 4];
        s.extend(vec![0.0; 4]);
        let a = AudioBuf::new(8000, s);
        let v = a.volume_series(4);
        assert_eq!(v.len(), 2);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert_eq!(v[1], 0.0);
        assert!(a.volume_series(0).is_empty());
    }
}
