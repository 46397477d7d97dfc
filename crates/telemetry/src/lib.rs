//! Unified telemetry for the CoopRT reproduction.
//!
//! The simulator measures a lot — cache/DRAM/MSHR counters, predictor
//! stats, per-warp latencies — but counters alone cannot explain *why*
//! a run behaved the way it did. This crate is the observability layer
//! the rest of the workspace plugs into:
//!
//! - [`Tracer`] — a zero-overhead-when-disabled handle for sim-time
//!   event tracing: it collects typed, cycle-stamped [`TraceEvent`]s;
//!   when the tracer is disabled the emission closure is never run.
//! - [`Probe`] / [`Checker`] — the one observation point of a
//!   simulated frame. The engine builds a [`Probe`] per frame from the
//!   run's [`Tracer`] and [`Checker`] and lends it to the RT units, the
//!   LBU and the memory hierarchy; it forwards their events to the
//!   tracer and, when checking, verifies the engine invariants in
//!   frame-local state that it hands to the [`Checker`] at frame end.
//! - [`chrome_trace_json`] — exports a captured [`TraceLog`] as Chrome
//!   trace-event JSON loadable in Perfetto (`ui.perfetto.dev`), with
//!   warps, RT-unit fetch streams, the LBU, caches and DRAM channels as
//!   separate tracks.
//! - [`JsonWriter`] — the hand-rolled JSON emitter shared by the trace
//!   exporter, the metrics report in `cooprt-core`, and the `paper`
//!   bench (correct string escaping, pretty and inline container
//!   styles, fixed-precision floats). The workspace has no external
//!   dependencies, so this is the one JSON producer everything uses.
//! - [`SpanRecorder`] — host-side wall-clock spans: a cloneable,
//!   zero-cost-when-disabled handle. The serve path threads one through
//!   its dispatcher and executor to build per-request span trees
//!   (exported via [`host_spans_chrome_json`]); batch tools fold its
//!   [`HostSpan`]s into `MetricsReport`.
//! - [`Logger`] — leveled structured logging as JSON lines, filtered
//!   by the `COOPRT_LOG` level/target grammar, zero-cost when disabled
//!   (the field closure never runs).
//! - [`PromWriter`] / [`FixedHistogram`] / [`validate_prometheus`] —
//!   Prometheus text-format exposition for the serve path's
//!   `GET /metrics`, with an in-tree format validator.
//! - [`RollingWindow`] — per-second rolling-window latency quantiles,
//!   SLO attainment and error-budget burn for the serve path.
//! - [`validate_chrome_trace`] — a tiny in-tree checker (recursive
//!   descent JSON parser + per-track timestamp monotonicity) so a
//!   malformed writer fails CI, not Perfetto.
//!
//! The hard invariant, enforced by the `golden_cycles` suite in
//! `cooprt-bench`: telemetry is purely observational. Running a frame
//! with the tracer and checker fully enabled must produce
//! bitwise-identical cycle counts to an unobserved run.
//!
//! # Examples
//!
//! ```
//! use cooprt_telemetry::{chrome_trace_json, EventKind, TraceMeta, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.emit(17, || EventKind::WarpIssue { sm: 0, warp: 3 });
//! let log = tracer.take();
//! assert_eq!(log.events.len(), 1);
//! let json = chrome_trace_json(&log, &TraceMeta::new("example"));
//! assert!(json.contains("\"traceEvents\""));
//! ```

mod chrome;
mod json;
mod log;
mod probe;
mod prom;
mod slo;
mod spans;
mod trace;
mod validate;

pub use chrome::{
    chrome_trace_json, host_spans_chrome_json, RequestSpans, TraceMeta, TRACE_SCHEMA_VERSION,
};
pub use json::{json_escape, JsonWriter};
pub use log::{LogFields, LogFilter, LogLevel, LogValue, Logger};
pub use probe::{Checker, Probe};
pub use prom::{
    prom_escape, validate_prometheus, FixedHistogram, HistogramSnapshot, PromCheck, PromKind,
    PromWriter,
};
pub use slo::{RollingWindow, SloConfig, SloSnapshot, MAX_SAMPLES_PER_SEC};
pub use spans::{HostSpan, SpanRecorder, MAX_SPANS_PER_RECORDER};
pub use trace::{AccessOutcome, CacheLevel, EventKind, TraceEvent, TraceLog, Tracer};
pub use validate::{parse_json, validate_chrome_trace, JsonValue, TraceCheck};
