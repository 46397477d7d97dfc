//! `GET /metrics`: the server's counters, in JSON and Prometheus form.
//!
//! All counters are lock-free atomics bumped on the request path; the
//! only locks are around the request-latency samples
//! ([`TraceLatencies`] in microseconds) and the rolling SLO window,
//! each taken once per request after the response is written. Both
//! snapshots are assembled on demand from the counters plus the
//! dispatcher's and caches' own statistics, and no number is stored
//! twice: the request total is the sum of the status-class counters,
//! and a route's request count is its latency histogram's count.
//!
//! The same numbers render two ways: the JSON snapshot (`GET
//! /metrics`, the default) for humans and harnesses, and the
//! Prometheus text exposition (`GET /metrics` with `Accept:
//! text/plain`) for scrapers — every document the server emits must
//! pass the in-tree [`cooprt_telemetry::validate_prometheus`].

use crate::exec::Executor;
use crate::queue::Dispatcher;
use cooprt_core::TraceLatencies;
use cooprt_telemetry::{
    FixedHistogram, HistogramSnapshot, JsonWriter, PromKind, PromWriter, RollingWindow, SloConfig,
    SloSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Latency histogram bucket bounds, microseconds — shared by the
/// per-route request histograms and the dispatcher's queue-wait
/// histogram.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// The response status classes, in counter order.
const STATUS_CLASSES: [&str; 5] = ["1xx", "2xx", "3xx", "4xx", "5xx"];

/// The label set `per-route` metrics aggregate under (low cardinality
/// by construction: path parameters collapse into their route).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics` (either representation).
    Metrics,
    /// `POST /v1/render`.
    Render,
    /// `POST /v1/simulate`.
    Simulate,
    /// `GET /v1/jobs/<id>`.
    Jobs,
    /// `GET /v1/spans/<id>`.
    Spans,
    /// `POST /v1/query`.
    Query,
    /// Anything else, including unparsable requests.
    Other,
}

impl Route {
    /// Every route, in label order.
    pub const ALL: [Route; 8] = [
        Route::Healthz,
        Route::Metrics,
        Route::Render,
        Route::Simulate,
        Route::Jobs,
        Route::Spans,
        Route::Query,
        Route::Other,
    ];

    /// The metric label for this route.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Render => "render",
            Route::Simulate => "simulate",
            Route::Jobs => "jobs",
            Route::Spans => "spans",
            Route::Query => "query",
            Route::Other => "other",
        }
    }

    /// Classifies a request path (query already stripped or not —
    /// only the path prefix matters).
    pub fn of_path(path: &str) -> Route {
        let path = path.split('?').next().unwrap_or("");
        match path {
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            "/v1/render" => Route::Render,
            "/v1/simulate" => Route::Simulate,
            "/v1/query" => Route::Query,
            _ if path.starts_with("/v1/jobs/") => Route::Jobs,
            _ if path.starts_with("/v1/spans/") => Route::Spans,
            _ => Route::Other,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// HTTP-level counters, per-route latency histograms, latency
/// samples, and the rolling SLO window.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Responses by status class, in [`STATUS_CLASSES`] order.
    responses: [AtomicU64; 5],
    /// Request bytes read off sockets (request line + headers + body).
    pub bytes_in: AtomicU64,
    /// Response bytes written to sockets (status line + headers +
    /// body).
    pub bytes_out: AtomicU64,
    /// Per-route latencies, in [`Route::ALL`] order; each one's count
    /// is its route's request count.
    route_latency_us: [FixedHistogram; 8],
    /// Request handling latencies, microseconds (parse → response
    /// flushed).
    latencies_us: Mutex<TraceLatencies>,
    slo: Mutex<RollingWindow>,
    started: Instant,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::with_slo(SloConfig::default())
    }
}

impl ServerMetrics {
    /// A zeroed metrics block with the default SLO window.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed metrics block tracking the given SLO.
    pub fn with_slo(slo: SloConfig) -> Self {
        ServerMetrics {
            connections: AtomicU64::new(0),
            responses: Default::default(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            route_latency_us: std::array::from_fn(|_| FixedHistogram::new(&LATENCY_BUCKETS_US)),
            latencies_us: Mutex::new(TraceLatencies::default()),
            slo: Mutex::new(RollingWindow::new(slo)),
            started: Instant::now(),
        }
    }

    /// Counts a finished response by status class (1xx–5xx each have
    /// their own counter; anything outside 100–599 is counted as 5xx,
    /// since the server itself produced the bogus status).
    fn count_response(&self, status: u16) {
        let class = match status / 100 {
            c @ 1..=4 => usize::from(c) - 1,
            _ => 4,
        };
        self.responses[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's handling latency in microseconds.
    fn record_latency_us(&self, micros: u64) {
        self.latencies_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(micros);
    }

    /// Adds wire bytes to the in/out counters.
    pub fn count_bytes(&self, bytes_in: u64, bytes_out: u64) {
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
    }

    /// Records one finished request end to end: status class,
    /// per-route latency histogram, latency sample, and the SLO window
    /// (where `ok` means "not a 5xx"). This is the only way a request
    /// is counted, so the routes always add up to `http.requests`.
    pub fn observe_request(&self, route: Route, status: u16, latency_us: u64) {
        self.count_response(status);
        self.route_latency_us[route.index()].observe(latency_us);
        self.record_latency_us(latency_us);
        let now_us = self.started.elapsed().as_micros() as u64;
        self.slo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(now_us, latency_us, status < 500);
    }

    /// The current rolling-window SLO summary.
    pub fn slo_snapshot(&self) -> SloSnapshot {
        let now_us = self.started.elapsed().as_micros() as u64;
        self.slo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .snapshot(now_us)
    }

    /// The per-route latency histograms, in [`Route::ALL`] order.
    fn route_latency(&self) -> Vec<(Route, HistogramSnapshot)> {
        Route::ALL
            .iter()
            .map(|&route| (route, self.route_latency_us[route.index()].snapshot()))
            .collect()
    }

    /// Renders the `/metrics` JSON snapshot.
    pub fn to_json(&self, dispatcher: &Dispatcher, executor: &Executor) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let responses = self.responses.each_ref().map(load);
        let mut w = JsonWriter::new();
        w.begin_object();

        w.begin_object_field("http");
        w.field_u64("connections", load(&self.connections));
        w.field_u64("requests", responses.iter().sum());
        for (class, count) in STATUS_CLASSES.iter().zip(responses) {
            w.field_u64(&format!("responses_{class}"), count);
        }
        w.field_u64("bytes_in", load(&self.bytes_in));
        w.field_u64("bytes_out", load(&self.bytes_out));
        w.end_object();

        w.begin_inline_object_field("routes");
        for (route, latency) in self.route_latency() {
            w.field_u64(route.label(), latency.count());
        }
        w.end_object();

        let c = dispatcher.counters();
        w.begin_object_field("jobs");
        w.field_u64("submitted", load(&c.submitted));
        w.field_u64("completed", load(&c.completed));
        w.field_u64("failed", load(&c.failed));
        w.field_u64("rejected_full", load(&c.rejected_full));
        w.field_u64("rejected_draining", load(&c.rejected_draining));
        w.field_u64("queued", dispatcher.queued() as u64);
        w.field_bool("draining", dispatcher.is_draining());
        w.end_object();

        w.begin_inline_object_field("queue");
        w.field_u64("depth", dispatcher.queued() as u64);
        w.field_u64("capacity", dispatcher.queue_capacity() as u64);
        {
            let wait = dispatcher.queue_wait_us().snapshot();
            w.field_u64("wait_count", wait.count());
            w.field_u64("wait_sum_us", wait.sum);
        }
        w.end_object();

        w.begin_inline_object_field("workers");
        w.field_u64("total", dispatcher.workers_total() as u64);
        w.field_u64("busy", dispatcher.busy_workers());
        w.end_object();

        w.begin_object_field("scene_cache");
        w.field_u64("entries", executor.scene_cache().len() as u64);
        w.field_u64("hits", executor.scene_cache().stats().hits());
        w.field_u64("misses", executor.scene_cache().stats().misses());
        w.end_object();

        w.begin_object_field("result_cache");
        w.field_u64("entries", executor.result_cache().len() as u64);
        w.field_u64("hits", executor.result_cache().stats().hits());
        w.field_u64("misses", executor.result_cache().stats().misses());
        w.end_object();

        {
            let mut lat = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
            w.begin_inline_object_field("latency_us");
            w.field_u64("count", lat.len() as u64);
            w.field_u64("p50", lat.quantile(0.5));
            w.field_u64("p95", lat.quantile(0.95));
            w.field_u64("p99", lat.quantile(0.99));
            w.field_u64("max", lat.max());
            w.end_object();
        }

        w.begin_inline_object_field("slo");
        self.slo_snapshot().write_fields(&mut w);
        w.end_object();

        w.end_object();
        w.finish()
    }

    /// Renders the Prometheus text-format exposition (the `Accept:
    /// text/plain` representation of `GET /metrics`). The output is
    /// guaranteed to pass [`cooprt_telemetry::validate_prometheus`]
    /// (asserted by tests and the CI smoke).
    pub fn to_prometheus(&self, dispatcher: &Dispatcher, executor: &Executor) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let route_latency = self.route_latency();
        let mut w = PromWriter::new();

        w.family(
            "cooprt_http_connections_total",
            "Connections accepted.",
            PromKind::Counter,
        );
        w.sample(&[], load(&self.connections));

        w.family(
            "cooprt_http_requests_total",
            "Requests handled, by route.",
            PromKind::Counter,
        );
        for (route, latency) in &route_latency {
            w.sample(&[("route", route.label())], latency.count() as f64);
        }

        w.family(
            "cooprt_http_responses_total",
            "Responses sent, by status class.",
            PromKind::Counter,
        );
        for (class, counter) in STATUS_CLASSES.iter().zip(&self.responses) {
            w.sample(&[("class", class)], load(counter));
        }

        w.family(
            "cooprt_http_bytes_total",
            "Wire bytes, by direction.",
            PromKind::Counter,
        );
        w.sample(&[("direction", "in")], load(&self.bytes_in));
        w.sample(&[("direction", "out")], load(&self.bytes_out));

        w.family(
            "cooprt_request_latency_us",
            "Request handling latency (parse to flush), microseconds, by route.",
            PromKind::Histogram,
        );
        for (route, latency) in &route_latency {
            w.histogram(&[("route", route.label())], latency);
        }

        let c = dispatcher.counters();
        w.family(
            "cooprt_jobs_total",
            "Dispatcher job outcomes.",
            PromKind::Counter,
        );
        for (event, counter) in [
            ("submitted", &c.submitted),
            ("completed", &c.completed),
            ("failed", &c.failed),
            ("rejected_full", &c.rejected_full),
            ("rejected_draining", &c.rejected_draining),
        ] {
            w.sample(&[("event", event)], load(counter));
        }

        w.family(
            "cooprt_queue_depth",
            "Jobs waiting in the admission queue.",
            PromKind::Gauge,
        );
        w.sample(&[], dispatcher.queued() as f64);
        w.family(
            "cooprt_queue_capacity",
            "Admission queue capacity.",
            PromKind::Gauge,
        );
        w.sample(&[], dispatcher.queue_capacity() as f64);

        w.family(
            "cooprt_queue_wait_us",
            "Time jobs waited in the queue before a worker claimed them, microseconds.",
            PromKind::Histogram,
        );
        w.histogram(&[], &dispatcher.queue_wait_us().snapshot());

        w.family("cooprt_workers", "Worker pool occupancy.", PromKind::Gauge);
        w.sample(&[("state", "busy")], dispatcher.busy_workers() as f64);
        w.sample(&[("state", "total")], dispatcher.workers_total() as f64);

        w.family(
            "cooprt_draining",
            "1 once a graceful drain has begun.",
            PromKind::Gauge,
        );
        w.sample(&[], if dispatcher.is_draining() { 1.0 } else { 0.0 });

        w.family(
            "cooprt_cache_requests_total",
            "Cache probes, by cache and outcome.",
            PromKind::Counter,
        );
        for (cache, stats) in [
            ("scene", executor.scene_cache().stats()),
            ("result", executor.result_cache().stats()),
        ] {
            w.sample(&[("cache", cache), ("outcome", "hit")], stats.hits() as f64);
            w.sample(
                &[("cache", cache), ("outcome", "miss")],
                stats.misses() as f64,
            );
        }

        w.family(
            "cooprt_cache_entries",
            "Entries resident, by cache.",
            PromKind::Gauge,
        );
        w.sample(&[("cache", "scene")], executor.scene_cache().len() as f64);
        w.sample(&[("cache", "result")], executor.result_cache().len() as f64);

        let slo = self.slo_snapshot();
        w.family(
            "cooprt_slo_window_latency_us",
            "Rolling-window latency quantiles, microseconds.",
            PromKind::Gauge,
        );
        for (q, v) in [
            ("0.5", slo.p50_us),
            ("0.95", slo.p95_us),
            ("0.99", slo.p99_us),
        ] {
            w.sample(&[("quantile", q)], v as f64);
        }
        w.family(
            "cooprt_slo_window_requests",
            "Requests inside the rolling window.",
            PromKind::Gauge,
        );
        w.sample(&[], slo.count as f64);
        w.family(
            "cooprt_slo_attainment",
            "Fraction of window requests meeting the SLO (1.0 when idle).",
            PromKind::Gauge,
        );
        w.sample(&[], slo.attainment);
        w.family(
            "cooprt_slo_error_budget_burn",
            "Error-budget burn rate over the window (1.0 = burning at the objective's rate).",
            PromKind::Gauge,
        );
        w.sample(&[], slo.error_budget_burn.min(1.0e9));

        w.family(
            "cooprt_uptime_seconds",
            "Seconds since the metrics block was created.",
            PromKind::Gauge,
        );
        w.sample(&[], self.started.elapsed().as_secs_f64());

        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_telemetry::{parse_json, validate_prometheus};
    use std::sync::Arc;

    fn dispatcher() -> Dispatcher {
        Dispatcher::new(Arc::new(Executor::new(1, 1)), 1, 1, 1)
    }

    #[test]
    fn snapshot_reflects_the_counters() {
        let metrics = ServerMetrics::new();
        metrics.connections.fetch_add(2, Ordering::Relaxed);
        metrics.count_response(200);
        metrics.count_response(404);
        metrics.count_response(500);
        for us in [100, 200, 300, 400] {
            metrics.record_latency_us(us);
        }
        let dispatcher = dispatcher();
        let json = metrics.to_json(&dispatcher, dispatcher.executor());
        let doc = parse_json(&json).expect("metrics snapshot parses");
        let http = doc.get("http").unwrap();
        assert_eq!(http.get("connections").unwrap().as_f64(), Some(2.0));
        assert_eq!(http.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(http.get("responses_2xx").unwrap().as_f64(), Some(1.0));
        assert_eq!(http.get("responses_4xx").unwrap().as_f64(), Some(1.0));
        assert_eq!(http.get("responses_5xx").unwrap().as_f64(), Some(1.0));
        let lat = doc.get("latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(4.0));
        assert_eq!(lat.get("max").unwrap().as_f64(), Some(400.0));
        let jobs = doc.get("jobs").unwrap();
        assert_eq!(
            jobs.get("draining").unwrap(),
            &cooprt_telemetry::JsonValue::Bool(false)
        );
        assert!(doc.get("scene_cache").is_some());
        assert!(doc.get("result_cache").is_some());
    }

    #[test]
    fn every_status_class_lands_on_its_own_counter() {
        // The old match sent 1xx and 3xx to the 5xx counter; pin the
        // correct classification for every class and the out-of-range
        // fallback.
        let metrics = ServerMetrics::new();
        for status in [
            100, 101, 200, 202, 204, 301, 304, 400, 404, 429, 500, 504, 599,
        ] {
            metrics.count_response(status);
        }
        metrics.count_response(999); // bogus status -> 5xx bucket
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(metrics.responses.each_ref().map(load), [2, 3, 2, 3, 4]);
        let dispatcher = dispatcher();
        let doc = parse_json(&metrics.to_json(&dispatcher, dispatcher.executor())).unwrap();
        let requests = doc.get("http").and_then(|h| h.get("requests"));
        assert_eq!(requests.and_then(|v| v.as_f64()), Some(14.0));
    }

    #[test]
    fn snapshot_exposes_queue_workers_and_slo() {
        let metrics = ServerMetrics::new();
        metrics.observe_request(Route::Render, 200, 1_500);
        metrics.observe_request(Route::Render, 500, 900_000);
        metrics.count_bytes(120, 4_000);
        let dispatcher = dispatcher();
        let json = metrics.to_json(&dispatcher, dispatcher.executor());
        let doc = parse_json(&json).expect("metrics snapshot parses");
        let queue = doc.get("queue").unwrap();
        assert_eq!(queue.get("depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(queue.get("capacity").unwrap().as_f64(), Some(1.0));
        let workers = doc.get("workers").unwrap();
        assert_eq!(workers.get("total").unwrap().as_f64(), Some(1.0));
        assert_eq!(workers.get("busy").unwrap().as_f64(), Some(0.0));
        let http = doc.get("http").unwrap();
        assert_eq!(http.get("bytes_in").unwrap().as_f64(), Some(120.0));
        assert_eq!(http.get("bytes_out").unwrap().as_f64(), Some(4000.0));
        let slo = doc.get("slo").unwrap();
        assert_eq!(slo.get("count").unwrap().as_f64(), Some(2.0));
        // One 5xx out of two requests: attainment 0.5.
        assert_eq!(slo.get("attainment").unwrap().as_f64(), Some(0.5));
        let routes = doc.get("routes").unwrap();
        assert_eq!(routes.get("render").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn prometheus_exposition_passes_the_validator() {
        let metrics = ServerMetrics::new();
        metrics.connections.fetch_add(1, Ordering::Relaxed);
        metrics.observe_request(Route::Render, 200, 750);
        metrics.observe_request(Route::Metrics, 200, 90);
        metrics.observe_request(Route::Other, 404, 40);
        metrics.count_bytes(256, 2_048);
        let dispatcher = dispatcher();
        let text = metrics.to_prometheus(&dispatcher, dispatcher.executor());
        let check = validate_prometheus(&text).expect("exposition validates");
        for name in [
            "cooprt_http_requests_total",
            "cooprt_http_responses_total",
            "cooprt_http_bytes_total",
            "cooprt_request_latency_us",
            "cooprt_jobs_total",
            "cooprt_queue_depth",
            "cooprt_queue_wait_us",
            "cooprt_workers",
            "cooprt_cache_requests_total",
            "cooprt_slo_attainment",
            "cooprt_slo_error_budget_burn",
        ] {
            assert!(check.names.contains(name), "missing family {name}");
        }
        assert!(text.contains("cooprt_http_requests_total{route=\"render\"} 1"));
        assert!(text.contains("cooprt_http_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("cooprt_request_latency_us_bucket{route=\"render\",le=\"1000\"} 1"));
        assert!(text.contains("cooprt_slo_attainment 1"));
    }

    /// A fixed `/metrics` state: two connections, six requests on five
    /// routes (a 404 and a 5xx among them), wire bytes, and a render
    /// miss then hit through the dispatcher's executor.
    fn golden_state() -> (ServerMetrics, Dispatcher) {
        let metrics = ServerMetrics::new();
        metrics.connections.fetch_add(2, Ordering::Relaxed);
        metrics.observe_request(Route::Healthz, 200, 80);
        metrics.observe_request(Route::Render, 200, 3_000);
        metrics.observe_request(Route::Render, 200, 120);
        metrics.observe_request(Route::Metrics, 200, 450);
        metrics.observe_request(Route::Other, 404, 60);
        metrics.observe_request(Route::Simulate, 503, 300_000);
        metrics.count_bytes(900, 12_345);
        let dispatcher = dispatcher();
        let req = crate::JobRequest {
            width: 8,
            height: 6,
            ..crate::JobRequest::default()
        };
        for id in 1..=2 {
            let out = dispatcher
                .executor()
                .execute(crate::Endpoint::Render, &req, id)
                .unwrap();
            assert_eq!(out.cached, id == 2);
        }
        (metrics, dispatcher)
    }

    #[test]
    fn golden_json_snapshot() {
        let (metrics, dispatcher) = golden_state();
        assert_eq!(
            metrics.to_json(&dispatcher, dispatcher.executor()),
            include_str!("../tests/data/golden_metrics.json")
        );
    }

    #[test]
    fn golden_prometheus_exposition() {
        // Every byte is pinned except the uptime sample's value.
        let (metrics, dispatcher) = golden_state();
        let text = metrics.to_prometheus(&dispatcher, dispatcher.executor());
        let masked: String = text
            .lines()
            .map(|line| match line.strip_prefix("cooprt_uptime_seconds ") {
                Some(_) => "cooprt_uptime_seconds *\n".to_string(),
                None => format!("{line}\n"),
            })
            .collect();
        assert_eq!(masked, include_str!("../tests/data/golden_metrics.prom"));
    }

    #[test]
    fn routes_classify_paths_with_and_without_queries() {
        assert_eq!(Route::of_path("/healthz"), Route::Healthz);
        assert_eq!(Route::of_path("/metrics?format=prometheus"), Route::Metrics);
        assert_eq!(Route::of_path("/v1/render"), Route::Render);
        assert_eq!(Route::of_path("/v1/jobs/17"), Route::Jobs);
        assert_eq!(Route::of_path("/v1/spans/17"), Route::Spans);
        assert_eq!(Route::of_path("/nope"), Route::Other);
    }
}
