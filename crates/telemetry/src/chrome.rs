//! Export a [`TraceLog`] as Chrome trace-event JSON for Perfetto.
//!
//! The output is the classic `{"traceEvents": [...]}` object format
//! understood by `ui.perfetto.dev` and `chrome://tracing`. Simulation
//! cycles are written as microsecond timestamps (1 cycle = 1 µs), so
//! Perfetto's time axis reads directly in cycles.
//!
//! Track layout: each SM is a process (`SM <k>`) whose threads are the
//! individual warps plus an `RT fetch` track (node-fetch issues and
//! response-FIFO pops) and an `LBU` track (pairing events). The memory
//! hierarchy is one process (`Memory`) whose threads are the per-SM L1
//! caches, the shared L2, and each DRAM channel. Durations exist for
//! `trace_ray` (warp-buffer residency) and `dram_xfer` (channel busy
//! interval); everything else is an instant.

use crate::json::JsonWriter;
use crate::spans::HostSpan;
use crate::trace::{AccessOutcome, CacheLevel, EventKind, TraceLog};
use std::collections::BTreeMap;

/// Version of the exported trace schema (recorded in the document's
/// `metadata` object). Bump when track layout or event names change.
/// v2 adds the `predict` instant on the RT fetch track.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Process id used for the memory-hierarchy tracks.
const MEM_PID: u64 = 0;
/// Thread id of the shared L2 track inside the memory process.
const L2_TID: u64 = 500_000;
/// Base thread id of DRAM channel tracks inside the memory process.
const DRAM_TID_BASE: u64 = 600_000;
/// Thread id of the RT-unit fetch track inside each SM process.
const RT_FETCH_TID: u64 = 900_000;
/// Thread id of the LBU track inside each SM process.
const LBU_TID: u64 = 900_001;
/// Process id of the service-layer track (request markers).
const SERVE_PID: u64 = 999_999;
/// Process id of the front-end track (ray-reordering passes).
const FRONTEND_PID: u64 = 999_998;

/// Document-level metadata folded into the exported trace.
#[derive(Clone, Debug)]
pub struct TraceMeta {
    title: String,
}

impl TraceMeta {
    /// Create metadata with a human-readable title (typically
    /// `"<scene> <policy>"`).
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
        }
    }
}

struct Row {
    name: String,
    ph: char,
    ts: u64,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: Vec<(&'static str, u64)>,
}

/// Destructured event mapping: `(pid, tid, thread name, event name,
/// phase, ts, dur, args)`.
type RowParts = (
    u64,
    u64,
    String,
    &'static str,
    char,
    u64,
    Option<u64>,
    Vec<(&'static str, u64)>,
);

fn sm_pid(sm: u32) -> u64 {
    1 + u64::from(sm)
}

fn cache_event_name(level: CacheLevel, outcome: AccessOutcome) -> &'static str {
    match (level, outcome) {
        (CacheLevel::L1, AccessOutcome::Hit) => "l1_hit",
        (CacheLevel::L1, AccessOutcome::Miss) => "l1_miss",
        (CacheLevel::L1, AccessOutcome::MshrMerge) => "l1_mshr_merge",
        (CacheLevel::L2, AccessOutcome::Hit) => "l2_hit",
        (CacheLevel::L2, AccessOutcome::Miss) => "l2_miss",
        (CacheLevel::L2, AccessOutcome::MshrMerge) => "l2_mshr_merge",
    }
}

/// Render `log` as a Chrome trace-event JSON document.
///
/// Events are stably sorted by timestamp before writing, so within
/// every `(pid, tid)` track timestamps are non-decreasing in file
/// order (verified by [`crate::validate_chrome_trace`]).
pub fn chrome_trace_json(log: &TraceLog, meta: &TraceMeta) -> String {
    let mut rows: Vec<Row> = Vec::with_capacity(log.events.len());
    // Track registry: (pid, tid) -> display name, plus pid -> name.
    let mut procs: BTreeMap<u64, String> = BTreeMap::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();

    let track = |procs: &mut BTreeMap<u64, String>,
                 threads: &mut BTreeMap<(u64, u64), String>,
                 pid: u64,
                 tid: u64,
                 thread_name: String| {
        procs.entry(pid).or_insert_with(|| {
            if pid == MEM_PID {
                "Memory".to_string()
            } else if pid == SERVE_PID {
                "Server".to_string()
            } else if pid == FRONTEND_PID {
                "FrontEnd".to_string()
            } else {
                format!("SM {}", pid - 1)
            }
        });
        threads.entry((pid, tid)).or_insert(thread_name);
    };

    for ev in &log.events {
        let (pid, tid, thread_name, name, ph, ts, dur, args): RowParts = match ev.kind {
            EventKind::WarpIssue { sm, warp } => (
                sm_pid(sm),
                u64::from(warp),
                format!("warp {warp}"),
                "warp_issue",
                'i',
                ev.cycle,
                None,
                vec![],
            ),
            EventKind::WarpRetire { sm, warp } => (
                sm_pid(sm),
                u64::from(warp),
                format!("warp {warp}"),
                "warp_retire",
                'i',
                ev.cycle,
                None,
                vec![],
            ),
            EventKind::TraceBegin {
                sm,
                warp,
                active_rays,
            } => (
                sm_pid(sm),
                u64::from(warp),
                format!("warp {warp}"),
                "trace_ray_issue",
                'i',
                ev.cycle,
                None,
                vec![("active_rays", u64::from(active_rays))],
            ),
            EventKind::TraceEnd {
                sm,
                warp,
                issued_at,
            } => (
                sm_pid(sm),
                u64::from(warp),
                format!("warp {warp}"),
                "trace_ray",
                'X',
                issued_at,
                Some(ev.cycle - issued_at),
                vec![],
            ),
            EventKind::NodeFetch {
                sm,
                warp,
                addr,
                threads,
                ready_at,
            } => (
                sm_pid(sm),
                RT_FETCH_TID,
                "RT fetch".to_string(),
                "node_fetch",
                'i',
                ev.cycle,
                None,
                vec![
                    ("warp", u64::from(warp)),
                    ("addr", addr),
                    ("threads", u64::from(threads)),
                    ("ready_at", ready_at),
                ],
            ),
            EventKind::ResponsePop { sm, addr } => (
                sm_pid(sm),
                RT_FETCH_TID,
                "RT fetch".to_string(),
                "response_pop",
                'i',
                ev.cycle,
                None,
                vec![("addr", addr)],
            ),
            EventKind::LbuMove {
                sm,
                warp,
                helper,
                main,
                main_tid,
            } => (
                sm_pid(sm),
                LBU_TID,
                "LBU".to_string(),
                "lbu_move",
                'i',
                ev.cycle,
                None,
                vec![
                    ("warp", u64::from(warp)),
                    ("helper", u64::from(helper)),
                    ("main", u64::from(main)),
                    ("main_tid", u64::from(main_tid)),
                ],
            ),
            EventKind::CacheAccess {
                sm,
                level,
                line,
                outcome,
            } => {
                let (tid, tname) = match level {
                    CacheLevel::L1 => (u64::from(sm), format!("L1 SM{sm}")),
                    CacheLevel::L2 => (L2_TID, "L2".to_string()),
                };
                (
                    MEM_PID,
                    tid,
                    tname,
                    cache_event_name(level, outcome),
                    'i',
                    ev.cycle,
                    None,
                    vec![("line", line), ("sm", u64::from(sm))],
                )
            }
            EventKind::Predict {
                sm,
                warp,
                lane,
                entry,
                depth,
            } => (
                sm_pid(sm),
                RT_FETCH_TID,
                "RT fetch".to_string(),
                "predict",
                'i',
                ev.cycle,
                None,
                vec![
                    ("warp", u64::from(warp)),
                    ("lane", u64::from(lane)),
                    ("entry", entry),
                    ("depth", u64::from(depth)),
                ],
            ),
            EventKind::Reorder {
                wave,
                rays,
                moved,
                buckets_occupied,
            } => (
                FRONTEND_PID,
                0,
                "reorder".to_string(),
                "reorder_pass",
                'i',
                ev.cycle,
                None,
                vec![
                    ("wave", u64::from(wave)),
                    ("rays", u64::from(rays)),
                    ("moved", u64::from(moved)),
                    ("buckets_occupied", u64::from(buckets_occupied)),
                ],
            ),
            EventKind::Request { id } => (
                SERVE_PID,
                0,
                "requests".to_string(),
                "request",
                'i',
                ev.cycle,
                None,
                vec![("id", id)],
            ),
            EventKind::DramBusy {
                channel,
                start,
                service,
                bytes,
            } => (
                MEM_PID,
                DRAM_TID_BASE + u64::from(channel),
                format!("DRAM ch{channel}"),
                "dram_xfer",
                'X',
                start,
                Some(service),
                vec![("bytes", u64::from(bytes))],
            ),
        };
        track(&mut procs, &mut threads, pid, tid, thread_name);
        rows.push(Row {
            name: name.to_string(),
            ph,
            ts,
            dur,
            pid,
            tid,
            args,
        });
    }

    // Stable sort by timestamp: per-track order is then non-decreasing
    // (X spans are emitted at completion time but stamped at start).
    rows.sort_by_key(|r| r.ts);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("displayTimeUnit", "ms");
    w.begin_object_field("metadata");
    w.field_str("title", &meta.title);
    w.field_str("clock", "1 sim cycle = 1 us");
    w.field_u64("schema_version", u64::from(TRACE_SCHEMA_VERSION));
    w.field_u64("events", rows.len() as u64);
    w.field_u64("dropped_events", log.dropped);
    w.end_object();
    w.begin_array("traceEvents");
    for (pid, pname) in &procs {
        w.begin_inline_object();
        w.field_str("name", "process_name");
        w.field_str("ph", "M");
        w.field_u64("pid", *pid);
        w.field_u64("tid", 0);
        w.begin_inline_object_field("args");
        w.field_str("name", pname);
        w.end_object();
        w.end_object();
    }
    for ((pid, tid), tname) in &threads {
        w.begin_inline_object();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", *pid);
        w.field_u64("tid", *tid);
        w.begin_inline_object_field("args");
        w.field_str("name", tname);
        w.end_object();
        w.end_object();
    }
    for r in &rows {
        w.begin_inline_object();
        w.field_str("name", &r.name);
        w.field_str("ph", &r.ph.to_string());
        w.field_u64("ts", r.ts);
        if let Some(dur) = r.dur {
            w.field_u64("dur", dur);
        }
        if r.ph == 'i' {
            // Instant scope: thread-local.
            w.field_str("s", "t");
        }
        w.field_u64("pid", r.pid);
        w.field_u64("tid", r.tid);
        if !r.args.is_empty() {
            w.begin_inline_object_field("args");
            for (k, v) in &r.args {
                w.field_u64(k, *v);
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One request's host-side span tree, as stored by the serve
/// dispatcher and exported by [`host_spans_chrome_json`].
#[derive(Clone, Debug)]
pub struct RequestSpans {
    /// The server-assigned request id (the `X-Request-Id` header
    /// value), which is also the cycle-0 [`EventKind::Request`] marker
    /// in the sim-time trace of the same request — load both traces
    /// in Perfetto and the id joins them.
    pub request_id: u64,
    /// Wall-clock spans offset from the request's arrival,
    /// microseconds.
    pub spans: Vec<HostSpan>,
}

/// Renders host-side request span trees as a Chrome trace-event JSON
/// document (1 µs = 1 µs here; these are real wall-clock spans, not
/// simulated cycles).
///
/// Track layout: one `Server` process (the same pid as the sim-time
/// trace's request-marker track) with one thread per request
/// named `request <id>`. Spans are complete (`X`) events; rows are
/// stably sorted by timestamp so the document passes
/// [`crate::validate_chrome_trace`].
pub fn host_spans_chrome_json(requests: &[RequestSpans], meta: &TraceMeta) -> String {
    let mut rows: Vec<(u64, &HostSpan)> = Vec::new();
    for req in requests {
        for span in &req.spans {
            rows.push((req.request_id, span));
        }
    }
    rows.sort_by_key(|(_, s)| s.start_us);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("displayTimeUnit", "ms");
    w.begin_object_field("metadata");
    w.field_str("title", &meta.title);
    w.field_str("clock", "host wall clock, us");
    w.field_u64("schema_version", u64::from(TRACE_SCHEMA_VERSION));
    w.field_u64("events", rows.len() as u64);
    w.end_object();
    w.begin_array("traceEvents");
    w.begin_inline_object();
    w.field_str("name", "process_name");
    w.field_str("ph", "M");
    w.field_u64("pid", SERVE_PID);
    w.field_u64("tid", 0);
    w.begin_inline_object_field("args");
    w.field_str("name", "Server");
    w.end_object();
    w.end_object();
    for req in requests {
        w.begin_inline_object();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", SERVE_PID);
        w.field_u64("tid", req.request_id);
        w.begin_inline_object_field("args");
        w.field_str("name", &format!("request {}", req.request_id));
        w.end_object();
        w.end_object();
    }
    for (request_id, span) in &rows {
        w.begin_inline_object();
        w.field_str("name", &span.name);
        w.field_str("ph", "X");
        w.field_u64("ts", span.start_us);
        w.field_u64("dur", span.dur_us);
        w.field_u64("pid", SERVE_PID);
        w.field_u64("tid", *request_id);
        w.begin_inline_object_field("args");
        w.field_u64("request_id", *request_id);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::validate::validate_chrome_trace;

    fn sample_log() -> TraceLog {
        let t = Tracer::enabled();
        t.emit(0, || EventKind::WarpIssue { sm: 0, warp: 4 });
        t.emit(1, || EventKind::TraceBegin {
            sm: 0,
            warp: 4,
            active_rays: 32,
        });
        t.emit(2, || EventKind::NodeFetch {
            sm: 0,
            warp: 4,
            addr: 0x40,
            threads: 7,
            ready_at: 30,
        });
        t.emit(2, || EventKind::CacheAccess {
            sm: 0,
            level: CacheLevel::L1,
            line: 0x40,
            outcome: AccessOutcome::Miss,
        });
        t.emit(2, || EventKind::CacheAccess {
            sm: 0,
            level: CacheLevel::L2,
            line: 0x40,
            outcome: AccessOutcome::Miss,
        });
        t.emit(2, || EventKind::DramBusy {
            channel: 1,
            start: 2,
            service: 4,
            bytes: 64,
        });
        t.emit(30, || EventKind::ResponsePop { sm: 0, addr: 0x40 });
        t.emit(31, || EventKind::LbuMove {
            sm: 0,
            warp: 4,
            helper: 3,
            main: 9,
            main_tid: 9,
        });
        t.emit(40, || EventKind::TraceEnd {
            sm: 0,
            warp: 4,
            issued_at: 1,
        });
        t.emit(41, || EventKind::WarpRetire { sm: 0, warp: 4 });
        t.take()
    }

    #[test]
    fn export_passes_the_in_tree_validator() {
        let json = chrome_trace_json(&sample_log(), &TraceMeta::new("unit test"));
        let check = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(check.events, 10);
        assert!(
            check.tracks >= 5,
            "expected >= 5 tracks, got {}",
            check.tracks
        );
        for name in [
            "warp_issue",
            "warp_retire",
            "trace_ray",
            "node_fetch",
            "response_pop",
            "lbu_move",
            "l1_miss",
            "l2_miss",
            "dram_xfer",
        ] {
            assert!(check.event_names.contains(name), "missing {name}");
        }
    }

    #[test]
    fn reorder_passes_land_on_the_frontend_track() {
        let t = Tracer::enabled();
        t.emit(0, || EventKind::Reorder {
            wave: 0,
            rays: 256,
            moved: 199,
            buckets_occupied: 31,
        });
        t.emit(900, || EventKind::Reorder {
            wave: 1,
            rays: 97,
            moved: 40,
            buckets_occupied: 12,
        });
        let json = chrome_trace_json(&t.take(), &TraceMeta::new("reorder"));
        let check = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(check.events, 2);
        assert!(check.event_names.contains("reorder_pass"));
        assert!(json.contains("\"name\": \"FrontEnd\""));
        assert!(json.contains("\"buckets_occupied\": 31"));
        assert!(json.contains("\"moved\": 199"));
    }

    #[test]
    fn request_markers_land_on_the_server_track() {
        let t = Tracer::enabled();
        t.emit(0, || EventKind::Request { id: 42 });
        t.emit(3, || EventKind::WarpIssue { sm: 0, warp: 0 });
        let json = chrome_trace_json(&t.take(), &TraceMeta::new("req"));
        let check = validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(check.event_names.contains("request"));
        assert!(json.contains("\"name\": \"Server\""));
        assert!(json.contains("\"id\": 42"));
    }

    #[test]
    fn host_span_export_passes_the_validator() {
        let spans = |items: &[(&str, u64, u64)]| -> Vec<HostSpan> {
            items
                .iter()
                .map(|(name, start_us, dur_us)| HostSpan {
                    name: name.to_string(),
                    start_us: *start_us,
                    dur_us: *dur_us,
                })
                .collect()
        };
        let requests = vec![
            RequestSpans {
                request_id: 7,
                spans: spans(&[
                    ("queue_wait", 10, 40),
                    ("scene", 55, 200),
                    ("engine_run", 260, 900),
                    ("serialize", 1165, 30),
                ]),
            },
            RequestSpans {
                request_id: 8,
                spans: spans(&[("queue_wait", 5, 2), ("result_cache", 8, 1)]),
            },
        ];
        let json = host_spans_chrome_json(&requests, &TraceMeta::new("requests"));
        let check = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(check.events, 6);
        assert_eq!(check.tracks, 2, "one track per request");
        for name in ["queue_wait", "scene", "engine_run", "serialize"] {
            assert!(check.event_names.contains(name), "missing {name}");
        }
        assert!(json.contains("\"name\": \"request 7\""));
        assert!(json.contains("\"request_id\": 8"));
    }

    #[test]
    fn spans_are_stamped_at_start_and_sorted() {
        let json = chrome_trace_json(&sample_log(), &TraceMeta::new("t"));
        // The trace_ray X span (emitted at cycle 40) must be stamped at
        // its issue cycle and sorted before later instants.
        let span_pos = json
            .find("\"trace_ray\", \"ph\": \"X\", \"ts\": 1")
            .unwrap();
        let pop_pos = json.find("\"response_pop\"").unwrap();
        assert!(span_pos < pop_pos);
    }
}
