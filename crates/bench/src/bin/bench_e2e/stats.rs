//! Order statistics, the open-loop schedule, the ladder's SLO rule and the
//! serve ledger: the pure arithmetic of the benchmark, unit-tested here.

use hmmm_matrix::order::cmp_f64;
use rand::Rng;
use std::time::Duration;

/// Samples a reported tail percentile must leave beyond itself.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending under the workspace's total float order.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| cmp_f64(*a, *b));
    xs
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `pct`% of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), pct) - 1])
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The p99 of an ascending sample, refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it (≥ 1000 samples).
pub fn p99(sorted: &[f64]) -> Result<f64, String> {
    if beyond(sorted.len(), 99.0) < MIN_BEYOND {
        return Err(format!(
            "p99 needs ≥{MIN_BEYOND} samples beyond it; only {} samples",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, 99.0).expect("non-empty"))
}

/// The highest of p99/p95/p90/p50 that leaves [`MIN_BEYOND`] samples
/// beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .map(|p| (p, percentile(sorted, p).expect("non-empty")))
}

/// Median of an unsorted sample (`0.0` when empty).
pub fn median(xs: Vec<f64>) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending sample by the "exclusive"
/// method (Python's `statistics.quantiles(xs, n=4)`); `None` below two
/// samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Equal slices a measured window is cut into by [`windowed`].
pub const SUB_WINDOWS: usize = 5;

/// End-to-end p50, p99 and throughput of a window of `(sent, latency ms)`
/// operations, each the median over [`SUB_WINDOWS`] equal slices of the
/// window by send time, so a disturbance confined to one slice moves none
/// of them. A failed operation carries an infinite latency: it misses
/// every limit and adds no throughput. Operations sent after the window
/// are left out. The p99 is taken per slice when every slice supports one,
/// else over the whole window.
///
/// # Errors
///
/// An empty slice, or too few operations for any supported p99.
pub fn windowed(ops: &[(Duration, f64)], window: Duration) -> Result<(f64, f64, f64), String> {
    let slice_s = window.as_secs_f64() / SUB_WINDOWS as f64;
    let mut slices = vec![Vec::new(); SUB_WINDOWS];
    for &(sent, latency) in ops.iter().filter(|(sent, _)| *sent < window) {
        slices[(sent.as_secs_f64() / slice_s) as usize].push(latency);
    }
    let slices: Vec<Vec<f64>> = slices.into_iter().map(sorted).collect();
    if slices.iter().any(|s| s.is_empty()) {
        return Err("a sub-window of the measured window saw no operation".into());
    }
    let p50 = median(
        slices
            .iter()
            .map(|s| percentile(s, 50.0).expect("non-empty"))
            .collect(),
    );
    let p99 = if slices.iter().all(|s| beyond(s.len(), 99.0) >= MIN_BEYOND) {
        median(slices.iter().map(|s| p99(s).expect("supported")).collect())
    } else {
        p99(&sorted(slices.concat()))?
    };
    let ops_per_s = median(
        slices
            .iter()
            .map(|s| s.iter().filter(|l| l.is_finite()).count() as f64 / slice_s)
            .collect(),
    );
    Ok((p50, p99, ops_per_s))
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Send offsets of an open-loop Poisson schedule of `rate` arrivals per
/// second over `seconds`: exactly `round(rate × seconds)` arrivals at
/// sorted uniform offsets, which is a Poisson process conditioned on its
/// count — so every seed offers the same load.
pub fn poisson_schedule(rng: &mut impl Rng, rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    let offsets = sorted((0..n).map(|_| rng.next_f64() * seconds).collect());
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// One open-loop request's timing, all offsets from the schedule origin:
/// the generator lag (how late the send was) and the latency, which runs
/// from the *scheduled* send so a stalled generator cannot hide a stall of
/// the system.
pub fn open_loop_timing(
    scheduled: Duration,
    sent: Duration,
    done: Duration,
) -> (Duration, Duration) {
    (
        sent.saturating_sub(scheduled),
        done.saturating_sub(scheduled),
    )
}

/// The serve_open service-level objective one ladder step must meet.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Latency limit on the step's p99, milliseconds.
    pub p99_ms: f64,
    /// Largest tolerated share of failed requests.
    pub failed_frac: f64,
    /// Largest tolerated generator lag p99, milliseconds.
    pub lag_p99_ms: f64,
}

/// The measured outcome of one ladder step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency p99 in milliseconds (`None`: too few samples to report).
    pub p99_ms: Option<f64>,
    /// Failed share of the step's requests.
    pub failed_frac: f64,
    /// Generator lag p99 in milliseconds.
    pub lag_p99_ms: f64,
    /// Median latency of the step's last tenth of requests, milliseconds:
    /// above the p99 limit, the queue was still growing when sends ended.
    pub tail_median_ms: f64,
}

impl Slo {
    /// Whether `step` met every limit, with no growing backlog.
    pub fn passes(&self, step: &Step) -> bool {
        step.p99_ms.is_some_and(|p| p <= self.p99_ms)
            && step.failed_frac <= self.failed_frac
            && step.lag_p99_ms <= self.lag_p99_ms
            && step.tail_median_ms <= self.p99_ms
    }

    /// The highest rate of the ladder's passing prefix (`0.0` when the
    /// first step already fails): the ladder stops at its first failure.
    pub fn max_rate(&self, steps: &[Step]) -> f64 {
        steps
            .iter()
            .take_while(|s| self.passes(s))
            .last()
            .map_or(0.0, |s| s.rate)
    }
}

/// The serve_open latency ledger: generator lag + queue + validate +
/// retrieve + residual equals the end-to-end p50, all in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// End-to-end p50.
    pub e2e_p50: f64,
    /// Generator lag p50 (the send's delay past its schedule).
    pub lag_p50: f64,
    /// Admission-queue wait p50.
    pub queue_p50: f64,
    /// `Retriever::new` (validation) p50.
    pub validate_p50: f64,
    /// `retrieve` p50.
    pub retrieve_p50: f64,
}

impl Ledger {
    /// What the named layers leave unexplained (negative when they
    /// over-explain the p50).
    pub fn residual(&self) -> f64 {
        self.e2e_p50 - self.lag_p50 - self.queue_p50 - self.validate_p50 - self.retrieve_p50
    }

    /// The residual's share of the end-to-end p50, by magnitude.
    pub fn unattributed_frac(&self) -> f64 {
        if self.e2e_p50 > 0.0 {
            self.residual().abs() / self.e2e_p50
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(10);
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(p99(&ramp(1000)), Ok(990.0));
        assert!(p99(&ramp(999)).is_err());
        assert!(p99(&[]).is_err());
    }

    #[test]
    fn tail_selector_picks_highest_supported_percentile() {
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(400)), Some((95.0, 380.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(30)), Some((50.0, 15.0)));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn schedule_has_fixed_count_sorted_within_window() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = poisson_schedule(&mut rng, 100.0, 12.0);
        assert_eq!(s.len(), 1200);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|d| d.as_secs_f64() < 12.0));
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(poisson_schedule(&mut again, 100.0, 12.0), s);
    }

    #[test]
    fn latency_runs_from_the_scheduled_send() {
        let ms = Duration::from_millis;
        // On time: no lag; latency is send → done.
        assert_eq!(open_loop_timing(ms(10), ms(10), ms(15)), (ms(0), ms(5)));
        // A generator 3 ms late: the lag is reported and the latency still
        // counts from the schedule, so the stall is not hidden.
        assert_eq!(open_loop_timing(ms(10), ms(13), ms(15)), (ms(3), ms(5)));
        // Clock quirks never underflow.
        assert_eq!(open_loop_timing(ms(10), ms(9), ms(9)), (ms(0), ms(0)));
    }

    #[test]
    fn windowed_medians_ignore_one_disturbed_slice() {
        let window = Duration::from_secs(5);
        // 5 slices of 1 s, 2000 ops each at 1 ms; slice 2 runs 10x slower
        // and drops half its throughput.
        let mut ops = Vec::new();
        for slice in 0..5u64 {
            let n = if slice == 2 { 1000 } else { 2000 };
            for k in 0..n {
                let sent =
                    Duration::from_millis(slice * 1000) + Duration::from_micros(k * 1_000_000 / n);
                let latency = if slice == 2 {
                    10.0
                } else {
                    1.0 + k as f64 / n as f64
                };
                ops.push((sent, latency));
            }
        }
        let (p50, p99, ops_per_s) = windowed(&ops, window).unwrap();
        assert!((1.4..1.6).contains(&p50), "{p50}");
        assert!((1.9..2.0).contains(&p99), "{p99}");
        assert_eq!(ops_per_s, 2000.0);
        // Too few ops per slice for a p99: the whole window's p99 is used.
        let sparse: Vec<_> = ops.iter().step_by(4).copied().collect();
        let (_, p99, _) = windowed(&sparse, window).unwrap();
        assert_eq!(p99, 10.0);
        // Failures add no throughput and miss every limit: 2.5% failing in
        // every slice put each slice's p99 past any limit.
        let mut failing = ops.clone();
        for op in failing.iter_mut().step_by(40) {
            op.1 = f64::INFINITY;
        }
        let (_, p99, ops_per_s) = windowed(&failing, window).unwrap();
        assert_eq!(p99, f64::INFINITY);
        assert_eq!(ops_per_s, 1950.0);
        assert!(windowed(&ops[..100], window).is_err(), "empty slices");
        // Sends past the window do not count.
        let mut late = ops.clone();
        late.extend((0..4000).map(|_| (window, 99.0)));
        assert_eq!(
            windowed(&late, window).unwrap(),
            windowed(&ops, window).unwrap()
        );
    }

    fn step(rate: f64, p99_ms: Option<f64>) -> Step {
        Step {
            rate,
            p99_ms,
            failed_frac: 0.0,
            lag_p99_ms: 0.1,
            tail_median_ms: 5.0,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let slo = Slo {
            p99_ms: 25.0,
            failed_frac: 0.01,
            lag_p99_ms: 2.0,
        };
        let steps = [
            step(100.0, Some(12.0)),
            step(200.0, Some(20.0)),
            step(400.0, Some(90.0)),
            // A later pass must not count: the ladder already stopped.
            step(800.0, Some(10.0)),
        ];
        assert_eq!(slo.max_rate(&steps), 200.0);
        assert_eq!(slo.max_rate(&steps[2..]), 0.0);
        assert!(!slo.passes(&step(100.0, None)), "unsupported p99 fails");
        let mut failing = step(100.0, Some(12.0));
        failing.failed_frac = 0.02;
        assert!(!slo.passes(&failing));
        let mut lagging = step(100.0, Some(12.0));
        lagging.lag_p99_ms = 3.0;
        assert!(!slo.passes(&lagging));
        let mut backlogged = step(100.0, Some(12.0));
        backlogged.tail_median_ms = 40.0;
        assert!(!slo.passes(&backlogged));
    }

    #[test]
    fn ledger_residual_closes_the_sum() {
        let exact = Ledger {
            e2e_p50: 10.0,
            lag_p50: 0.5,
            queue_p50: 0.5,
            validate_p50: 7.0,
            retrieve_p50: 2.0,
        };
        assert_eq!(exact.residual(), 0.0);
        assert_eq!(exact.unattributed_frac(), 0.0);
        let short = Ledger {
            e2e_p50: 10.0,
            lag_p50: 0.0,
            queue_p50: 0.5,
            validate_p50: 7.0,
            retrieve_p50: 1.5,
        };
        assert!((short.residual() - 1.0).abs() < 1e-12);
        assert!((short.unattributed_frac() - 0.1).abs() < 1e-12);
        let over = Ledger {
            e2e_p50: 10.0,
            lag_p50: 0.0,
            queue_p50: 2.0,
            validate_p50: 7.0,
            retrieve_p50: 2.0,
        };
        assert!(over.residual() < 0.0);
        assert!((over.unattributed_frac() - 0.1).abs() < 1e-12);
    }
}
