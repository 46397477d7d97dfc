//! Host-side profiling spans: scoped wall-clock timers.
//!
//! These measure the *host* (scene build, frame run, trace export,
//! a request's queue wait and engine run), not the simulated machine —
//! the complement of the sim-time [`crate::Tracer`].
//!
//! [`SpanRecorder`] is a cheap, cloneable handle (Tracer pattern:
//! `Option<Arc<..>>`, zero-cost when disabled) recording
//! microsecond-offset [`HostSpan`]s against a fixed origin. The serve
//! path hands one recorder per request through the dispatcher and
//! executor, producing the queue-wait → scene → engine-run → serialize
//! span tree exported by [`crate::host_spans_chrome_json`]; batch tools
//! such as the `trace_export` example time their phases with one and
//! fold its spans into `MetricsReport` in `cooprt-core`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One host-side span, offset-stamped in microseconds against its
/// recorder's origin (so a request's span tree starts near 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostSpan {
    /// Span name (e.g. `"queue_wait"`, `"engine_run"`).
    pub name: String,
    /// Start offset from the recorder's origin, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Spans stored per recorder before further recording is dropped; a
/// request produces a handful, so this only guards against runaway
/// instrumentation.
pub const MAX_SPANS_PER_RECORDER: usize = 64;

#[derive(Debug)]
struct SpanShared {
    origin: Instant,
    spans: Mutex<Vec<HostSpan>>,
}

/// A cheap, cloneable handle recording wall-clock spans against one
/// origin instant.
///
/// Disabled (the default) every method is a no-op costing a single
/// branch, mirroring [`crate::Tracer`] — which is what lets the serve
/// path thread a recorder through the dispatcher and executor
/// unconditionally without perturbing response bytes.
///
/// # Examples
///
/// ```
/// use cooprt_telemetry::SpanRecorder;
///
/// let rec = SpanRecorder::enabled();
/// let v = rec.time("compute", || 6 * 7);
/// assert_eq!(v, 42);
/// let spans = rec.snapshot();
/// assert_eq!(spans.len(), 1);
/// assert_eq!(spans[0].name, "compute");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    inner: Option<Arc<SpanShared>>,
}

impl SpanRecorder {
    /// The disabled recorder: every call is a branch-and-return.
    pub fn disabled() -> Self {
        SpanRecorder { inner: None }
    }

    /// An enabled recorder whose origin is "now".
    pub fn enabled() -> Self {
        SpanRecorder {
            inner: Some(Arc::new(SpanShared {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f`, recording its duration under `name`, and returns its
    /// result. When disabled, `f` still runs (it is the real work) but
    /// nothing is measured or stored.
    #[inline]
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(shared) = &self.inner else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        push_span(shared, name, start, end);
        out
    }

    /// Records a span measured externally as two instants (e.g. the
    /// queue wait between submission and a worker's claim).
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if let Some(shared) = &self.inner {
            push_span(shared, name, start, end);
        }
    }

    /// A copy of the spans recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<HostSpan> {
        self.inner.as_ref().map_or_else(Vec::new, |s| {
            s.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
        })
    }
}

fn push_span(shared: &SpanShared, name: &str, start: Instant, end: Instant) {
    let start_us = start.saturating_duration_since(shared.origin).as_micros() as u64;
    let end_us = end.saturating_duration_since(shared.origin).as_micros() as u64;
    let mut spans = shared.spans.lock().unwrap_or_else(|e| e.into_inner());
    if spans.len() < MAX_SPANS_PER_RECORDER {
        spans.push(HostSpan {
            name: name.to_string(),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_still_runs_the_work() {
        let rec = SpanRecorder::disabled();
        assert_eq!(rec.time("x", || 5), 5);
        rec.record("y", Instant::now(), Instant::now());
        assert!(!rec.is_enabled());
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn recorder_clones_share_one_span_list() {
        let a = SpanRecorder::enabled();
        let b = a.clone();
        a.time("first", || {});
        let t = Instant::now();
        b.record("second", t, t);
        let spans = a.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "first");
        assert_eq!(spans[1].name, "second");
    }

    #[test]
    fn pre_origin_instants_clamp_to_zero() {
        let before = Instant::now();
        let rec = SpanRecorder::enabled();
        rec.record("early", before, before);
        let spans = rec.snapshot();
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 0);
    }

    #[test]
    fn recorder_caps_runaway_span_counts() {
        let rec = SpanRecorder::enabled();
        for _ in 0..(MAX_SPANS_PER_RECORDER + 5) {
            rec.time("s", || {});
        }
        assert_eq!(rec.snapshot().len(), MAX_SPANS_PER_RECORDER);
    }
}
