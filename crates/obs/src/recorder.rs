//! The [`Recorder`] sink trait, the no-op sink, and the cheap
//! [`RecorderHandle`] instrumented code carries.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A metrics/trace sink.
///
/// Implementations must be thread-safe: the serving layer's workers call
/// every method concurrently through one shared recorder. All quantities are
/// commutative (sums, last-write gauges, order-free histograms and span
/// lists), so recorded totals do not depend on scheduling.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Records one observation (in nanoseconds) into the named
    /// fixed-bucket latency histogram.
    fn observe_ns(&self, name: &'static str, nanos: u64);

    /// Records one completed span.
    ///
    /// `path` is a `/`-separated hierarchy ("retrieve/traverse"); `label`
    /// distinguishes repeated instances of the same path (e.g. a video
    /// index); `start` is the span's begin instant (the recorder converts
    /// it to an offset from its own epoch); `wall_ns` its duration.
    fn record_span(&self, path: &'static str, label: Option<u64>, start: Instant, wall_ns: u64);
}

/// A [`Recorder`] that discards everything.
///
/// Exists for call sites that want an explicit sink object; instrumented
/// code should normally use [`RecorderHandle::noop`], which skips the
/// virtual dispatch entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn observe_ns(&self, _name: &'static str, _nanos: u64) {}
    fn record_span(&self, _path: &'static str, _label: Option<u64>, _start: Instant, _wall_ns: u64) {
    }
}

/// The handle instrumented code holds.
///
/// `Default` (and [`RecorderHandle::noop`]) is the disabled state: every
/// operation is an inlined `Option::None` check with no clock read, no
/// lock, and no allocation — cheap enough to live inside
/// `RetrievalConfig` unconditionally.
///
/// Cloning shares the underlying sink (it is an [`Arc`]).
#[derive(Clone, Default)]
pub struct RecorderHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl RecorderHandle {
    /// The disabled handle: records nothing, costs (almost) nothing.
    pub fn noop() -> Self {
        RecorderHandle { inner: None }
    }

    /// Wraps any recorder.
    pub fn from_arc(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle {
            inner: Some(recorder),
        }
    }

    /// `true` when a real sink is attached. Use to gate work that is only
    /// worth doing when someone is listening (derived gauges, snapshots).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.inner {
            r.counter_add(name, delta);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(r) = &self.inner {
            r.gauge_set(name, value);
        }
    }

    /// Records a histogram observation in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, name: &'static str, nanos: u64) {
        if let Some(r) = &self.inner {
            r.observe_ns(name, nanos);
        }
    }

    /// Starts an unlabeled span; the returned guard records the span's
    /// wall time when dropped. Disabled handles return an inert guard
    /// without reading the clock.
    #[inline]
    pub fn span(&self, path: &'static str) -> SpanGuard<'_> {
        self.span_inner(path, None)
    }

    /// Starts a labeled span (e.g. `label` = video index) — see
    /// [`Recorder::record_span`].
    #[inline]
    pub fn span_labeled(&self, path: &'static str, label: u64) -> SpanGuard<'_> {
        self.span_inner(path, Some(label))
    }

    #[inline]
    fn span_inner(&self, path: &'static str, label: Option<u64>) -> SpanGuard<'_> {
        SpanGuard {
            active: self
                .inner
                .as_deref()
                .map(|recorder| (recorder, Instant::now())),
            path,
            label,
        }
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("RecorderHandle(noop)"),
            Some(r) => write!(f, "RecorderHandle({r:?})"),
        }
    }
}

/// Handles compare by sink identity: two noops are equal, two enabled
/// handles are equal only when they share the same underlying recorder.
/// (This keeps `PartialEq`/`Eq` derivable on configs that embed a handle.)
impl PartialEq for RecorderHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for RecorderHandle {}

/// RAII span timer: created by [`RecorderHandle::span`], records
/// `(path, label, start, wall)` into the recorder on drop. Inert (no
/// clock read, nothing recorded) when the handle is disabled.
#[must_use = "a span guard records its timing when dropped; binding it to `_` drops it immediately"]
pub struct SpanGuard<'r> {
    active: Option<(&'r dyn Recorder, Instant)>,
    path: &'static str,
    label: Option<u64>,
}

impl SpanGuard<'_> {
    /// Elapsed time since the span started (zero for inert guards) —
    /// for callers that also want the duration as a value.
    pub fn elapsed_ns(&self) -> u64 {
        self.active
            .as_ref()
            .map(|(_, start)| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((recorder, start)) = self.active.take() {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recorder.record_span(self.path, self.label, start, wall_ns);
        }
    }
}

impl fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("path", &self.path)
            .field("label", &self.label)
            .field("enabled", &self.active.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_inert() {
        let h = RecorderHandle::noop();
        assert!(!h.is_enabled());
        h.counter("x", 1);
        h.gauge("y", 2.0);
        h.observe_ns("z", 3);
        let guard = h.span("a/b");
        assert_eq!(guard.elapsed_ns(), 0);
        drop(guard);
    }

    #[test]
    fn default_is_noop() {
        assert_eq!(RecorderHandle::default(), RecorderHandle::noop());
    }

    #[test]
    fn equality_is_sink_identity() {
        let a = crate::InMemoryRecorder::shared();
        let h1 = RecorderHandle::from_arc(a.clone());
        let h2 = RecorderHandle::from_arc(a);
        let h3 = RecorderHandle::from_arc(crate::InMemoryRecorder::shared());
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h1, RecorderHandle::noop());
    }
}
