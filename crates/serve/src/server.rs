//! The TCP front end: accept loop, routing, graceful drain.
//!
//! One thread per connection (bounded in practice by the accept rate of
//! a local batch service), keep-alive HTTP/1.1, all heavy work handed
//! to the [`Dispatcher`]'s bounded queue so the connection count never
//! translates into unbounded simulation concurrency.
//!
//! Shutdown is cooperative and lossless for admitted work: a SIGTERM /
//! ctrl-c (or a [`ShutdownHandle`]) stops the accept loop, the
//! dispatcher queue closes (new submissions → 503), workers finish
//! every job already admitted, idle connections observe the shutdown
//! flag at their next read timeout and close, and `run()` returns only
//! after every thread is joined.

use crate::api::JobRequest;
use crate::error::ServeError;
use crate::exec::{Endpoint, Executor};
use crate::http::{Limits, Request, RequestReader, Response};
use crate::metrics::{Route, ServerMetrics};
use crate::queue::{Dispatcher, JobState};
use cooprt_telemetry::{
    host_spans_chrome_json, parse_json, JsonWriter, LogLevel, Logger, RequestSpans, SloConfig,
    SpanRecorder, TraceMeta,
};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Read timeout on connection sockets; bounds how long an idle
/// keep-alive connection can outlive a drain request.
const READ_POLL: Duration = Duration::from_millis(250);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Jobs the admission queue holds before rejecting with 429.
    pub queue_capacity: usize,
    /// Built scenes the scene cache retains.
    pub scene_cache_capacity: usize,
    /// Response bodies the result cache retains.
    pub result_cache_capacity: usize,
    /// HTTP input limits (header/body caps).
    pub limits: Limits,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// `Retry-After` seconds suggested on 429 responses.
    pub retry_after_secs: u64,
    /// Install SIGINT/SIGTERM handlers that trigger a graceful drain.
    pub handle_signals: bool,
    /// Record per-request host span trails (served at
    /// `GET /v1/spans/<id>` as Chrome trace JSON).
    pub request_spans: bool,
    /// Rolling-window SLO parameters for the latency tracker.
    pub slo: SloConfig,
    /// Structured logger threaded through the accept loop, dispatcher
    /// and executor. The default reads `COOPRT_LOG` from the
    /// environment; tests inject a buffer-sink logger here.
    pub logger: Logger,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            scene_cache_capacity: 8,
            result_cache_capacity: 64,
            limits: Limits::default(),
            default_deadline: Duration::from_secs(60),
            retry_after_secs: 1,
            handle_signals: false,
            request_spans: true,
            slo: SloConfig::default(),
            logger: Logger::from_env(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
struct Shared {
    dispatcher: Dispatcher,
    metrics: ServerMetrics,
    limits: Limits,
    default_deadline: Duration,
    shutdown: AtomicBool,
    logger: Logger,
    spans_enabled: bool,
}

/// Requests a graceful drain from another thread.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Triggers the drain: stop accepting, finish admitted work, exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Renders the `/metrics` snapshot out-of-band — including after
    /// [`Server::run`] has returned, which is how tests verify the
    /// final drained state.
    pub fn metrics_json(&self) -> String {
        self.shared
            .metrics
            .to_json(&self.shared.dispatcher, self.shared.dispatcher.executor())
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    handle_signals: bool,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let executor = Arc::new(Executor::new(
            config.scene_cache_capacity,
            config.result_cache_capacity,
        ));
        let dispatcher = Dispatcher::new_with(
            executor,
            config.workers,
            config.queue_capacity,
            config.retry_after_secs,
            config.logger.clone(),
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                dispatcher,
                metrics: ServerMetrics::with_slo(config.slo),
                limits: config.limits,
                default_deadline: config.default_deadline,
                shutdown: AtomicBool::new(false),
                logger: config.logger.clone(),
                spans_enabled: config.request_spans,
            }),
            handle_signals: config.handle_signals,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger a graceful drain from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a drain is requested, then drains and returns.
    ///
    /// On return: every admitted job has finished, every connection
    /// thread has been joined, and the final metrics snapshot is
    /// available via the value returned from [`Server::bind`]'s shared
    /// state (exposed to tests through [`ShutdownHandle`]).
    pub fn run(self) -> std::io::Result<()> {
        if self.handle_signals {
            signals::install();
        }
        let addr = self.local_addr()?;
        self.shared
            .logger
            .log(LogLevel::Info, "serve::server", "serving", |f| {
                f.str("addr", addr.to_string())
                    .u64("workers", self.shared.dispatcher.workers_total() as u64)
                    .u64(
                        "queue_capacity",
                        self.shared.dispatcher.queue_capacity() as u64,
                    );
            });
        let connections: Mutex<Vec<thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        while !(self.shared.shutdown.load(Ordering::SeqCst)
            || self.handle_signals && signals::triggered())
        {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    let handle = thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &shared))
                        .expect("spawn connection thread");
                    let mut conns = connections.lock().unwrap_or_else(|e| e.into_inner());
                    conns.push(handle);
                    // Opportunistically reap finished threads so a
                    // long-lived server doesn't accumulate handles.
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: flag is observed by connection readers, the queue
        // closes (new submissions → 503), admitted jobs finish.
        self.shared
            .logger
            .log(LogLevel::Info, "serve::server", "draining", |f| {
                f.u64("queued", self.shared.dispatcher.queued() as u64);
            });
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.dispatcher.drain();
        for handle in connections.into_inner().unwrap_or_else(|e| e.into_inner()) {
            let _ = handle.join();
        }
        self.shared
            .logger
            .log(LogLevel::Info, "serve::server", "drained", |f| {
                f.u64(
                    "completed",
                    self.shared
                        .dispatcher
                        .counters()
                        .completed
                        .load(Ordering::Relaxed),
                );
            });
        Ok(())
    }
}

/// A connection socket that polls the shutdown flag: reads time out
/// every [`READ_POLL`] and report end-of-stream once a drain has been
/// requested, so idle keep-alive connections unwind promptly.
#[derive(Debug)]
struct PatientStream {
    stream: TcpStream,
    shared: Arc<Shared>,
}

impl Read for PatientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Serves one connection's keep-alive request loop.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    shared.logger.log(
        LogLevel::Debug,
        "serve::server",
        "connection accepted",
        |f| {
            f.str("peer", peer.as_str());
        },
    );
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = RequestReader::new(
        PatientStream {
            stream,
            shared: Arc::clone(shared),
        },
        shared.limits,
    );
    loop {
        let request = reader.read_request();
        let started = Instant::now();
        let (route, response, close) = match &request {
            Ok(Some(request)) => (
                Route::of_path(&request.target),
                handle_request(shared, request).unwrap_or_else(|err| Response::from_error(&err)),
                request.wants_close(),
            ),
            Ok(None) => return, // clean close (or drain) between requests
            Err(err) => {
                // Framing is unknown after a protocol error: respond
                // and close.
                shared
                    .logger
                    .log(LogLevel::Warn, "serve::server", "protocol error", |f| {
                        f.str("peer", peer.as_str()).str("code", err.code());
                    });
                (Route::Other, Response::from_error(err), true)
            }
        };
        let status = response.status;
        let sent = response.write_to(&mut write_half);
        let latency_us = started.elapsed().as_micros() as u64;
        shared.metrics.observe_request(route, status, latency_us);
        shared.metrics.count_bytes(
            reader.take_wire_bytes(),
            sent.as_ref().copied().unwrap_or(0),
        );
        if let Ok(Some(request)) = &request {
            shared
                .logger
                .log(LogLevel::Info, "serve::server", "request", |f| {
                    f.str("method", request.method.as_str())
                        .str("target", request.target.as_str())
                        .str("route", route.label())
                        .u64("status", u64::from(status))
                        .u64("latency_us", latency_us);
                });
        }
        if sent.is_err() || close {
            return;
        }
    }
}

/// True when the client's `Accept` header (or a `format=prometheus`
/// query parameter) asks for the Prometheus text exposition instead of
/// the JSON snapshot on `GET /metrics`.
fn wants_prometheus(request: &Request) -> bool {
    if request
        .target
        .split_once('?')
        .is_some_and(|(_, q)| q.split('&').any(|p| p == "format=prometheus"))
    {
        return true;
    }
    request.header("accept").is_some_and(|accept| {
        let accept = accept.to_ascii_lowercase();
        accept.contains("text/plain") || accept.contains("openmetrics")
    })
}

/// Routes one parsed request to its handler.
fn handle_request(shared: &Arc<Shared>, request: &Request) -> Result<Response, ServeError> {
    let path = request.target.split('?').next().unwrap_or("");
    match (request.method.as_str(), Route::of_path(path)) {
        ("GET", Route::Healthz) => Ok(healthz(shared)),
        ("GET", Route::Metrics) if wants_prometheus(request) => Ok(Response::prometheus(
            200,
            shared
                .metrics
                .to_prometheus(&shared.dispatcher, shared.dispatcher.executor()),
        )),
        ("GET", Route::Metrics) => Ok(Response::json(
            200,
            shared
                .metrics
                .to_json(&shared.dispatcher, shared.dispatcher.executor()),
        )),
        ("POST", Route::Render) => submit_job(shared, Endpoint::Render, request),
        ("POST", Route::Simulate) => submit_job(shared, Endpoint::Simulate, request),
        ("POST", Route::Query) => submit_job(shared, Endpoint::Query, request),
        ("GET", Route::Jobs) => job_status(shared, path),
        ("GET", Route::Spans) => request_spans(shared, path),
        // Known routes under the wrong method get a 405 + Allow.
        (_, Route::Healthz | Route::Metrics | Route::Jobs | Route::Spans) => {
            Err(ServeError::MethodNotAllowed { allow: "GET" })
        }
        (_, Route::Render | Route::Simulate | Route::Query) => {
            Err(ServeError::MethodNotAllowed { allow: "POST" })
        }
        (_, Route::Other) => Err(ServeError::UnknownRoute(request.target.clone())),
    }
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let mut w = JsonWriter::new();
    w.begin_inline_object();
    w.field_str("status", "ok");
    w.field_bool("draining", shared.dispatcher.is_draining());
    w.end_object();
    Response::json(200, w.finish())
}

/// `POST /v1/render` and `POST /v1/simulate`: parse, admit, and either
/// wait (sync) or hand back the job id (async).
fn submit_job(
    shared: &Arc<Shared>,
    endpoint: Endpoint,
    request: &Request,
) -> Result<Response, ServeError> {
    let trail = if shared.spans_enabled {
        SpanRecorder::enabled()
    } else {
        SpanRecorder::disabled()
    };
    let parse_start = Instant::now();
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not valid UTF-8".to_string()))?;
    let doc = parse_json(text).map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))?;
    let job = JobRequest::from_json(&doc)?;
    trail.record("parse", parse_start, Instant::now());
    let deadline = job
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.default_deadline);
    let id = shared
        .dispatcher
        .submit_traced(endpoint, job.clone(), deadline, trail)?;
    if job.run_async {
        let mut w = JsonWriter::new();
        w.begin_inline_object();
        w.field_u64("id", id);
        w.field_str("state", "queued");
        w.end_object();
        return Ok(Response::json(202, w.finish()).with_header("X-Request-Id", id.to_string()));
    }
    let outcome = shared.dispatcher.wait(id)?;
    Ok(Response::json(200, outcome.body.as_ref().clone())
        .with_header("X-Request-Id", id.to_string())
        .with_header("X-Cache", if outcome.cached { "hit" } else { "miss" }))
}

/// `GET /v1/jobs/<id>`: poll an async job.
fn job_status(shared: &Arc<Shared>, path: &str) -> Result<Response, ServeError> {
    let id: u64 = path
        .strip_prefix("/v1/jobs/")
        .unwrap_or("")
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("invalid job id in '{path}'")))?;
    match shared.dispatcher.status(id)? {
        JobState::Done(outcome) => Ok(Response::json(200, outcome.body.as_ref().clone())
            .with_header("X-Request-Id", id.to_string())
            .with_header("X-Cache", if outcome.cached { "hit" } else { "miss" })),
        JobState::Failed(err) => Ok(Response::from_error(&err)),
        state => {
            let mut w = JsonWriter::new();
            w.begin_inline_object();
            w.field_u64("id", id);
            w.field_str("state", state.label());
            w.end_object();
            Ok(Response::json(200, w.finish()).with_header("X-Request-Id", id.to_string()))
        }
    }
}

/// `GET /v1/spans/<id>`: the request's host span trail as Chrome trace
/// JSON (loadable in Perfetto alongside the sim-time trace).
fn request_spans(shared: &Arc<Shared>, path: &str) -> Result<Response, ServeError> {
    let id: u64 = path
        .strip_prefix("/v1/spans/")
        .unwrap_or("")
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("invalid request id in '{path}'")))?;
    let spans = shared
        .dispatcher
        .request_spans(id)
        .ok_or(ServeError::JobNotFound(id))?;
    let json = host_spans_chrome_json(
        &[RequestSpans {
            request_id: id,
            spans,
        }],
        &TraceMeta::new(&format!("request {id}")),
    );
    Ok(Response::json(200, json).with_header("X-Request-Id", id.to_string()))
}

/// Dependency-free SIGINT/SIGTERM handling: the libc `signal` entry
/// point, declared directly, flips an atomic the accept loop polls.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    /// True once either signal has been delivered.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

/// Non-unix fallback: signals are never triggered; drains come from
/// [`ShutdownHandle`] only.
#[cfg(not(unix))]
mod signals {
    /// No-op on this platform.
    pub fn install() {}

    /// Always false on this platform.
    pub fn triggered() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<Shared> {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            logger: Logger::disabled(),
            ..ServeConfig::default()
        };
        Arc::new(Shared {
            dispatcher: Dispatcher::new(
                Arc::new(Executor::new(2, 4)),
                config.workers,
                config.queue_capacity,
                config.retry_after_secs,
            ),
            metrics: ServerMetrics::with_slo(config.slo),
            limits: config.limits,
            default_deadline: config.default_deadline,
            shutdown: AtomicBool::new(false),
            logger: config.logger,
            spans_enabled: config.request_spans,
        })
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn routing_maps_paths_and_methods() {
        let shared = test_shared();
        assert_eq!(
            handle_request(&shared, &get("/healthz")).unwrap().status,
            200
        );
        assert_eq!(
            handle_request(&shared, &get("/metrics")).unwrap().status,
            200
        );
        match handle_request(&shared, &post("/healthz", "")) {
            Err(ServeError::MethodNotAllowed { allow: "GET" }) => {}
            other => panic!("expected 405, got {other:?}"),
        }
        match handle_request(&shared, &get("/v1/render")) {
            Err(ServeError::MethodNotAllowed { allow: "POST" }) => {}
            other => panic!("expected 405, got {other:?}"),
        }
        match handle_request(&shared, &get("/v1/nope")) {
            Err(ServeError::UnknownRoute(t)) => assert_eq!(t, "/v1/nope"),
            other => panic!("expected 404, got {other:?}"),
        }
        match handle_request(&shared, &get("/v1/jobs/seven")) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("invalid job id")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        match handle_request(&shared, &get("/v1/jobs/12345")) {
            Err(ServeError::JobNotFound(12345)) => {}
            other => panic!("expected JobNotFound, got {other:?}"),
        }
    }

    #[test]
    fn query_jobs_round_trip_with_answers() {
        let shared = test_shared();
        let body = r#"{"scene": "quni", "shader": "knn", "width": 8, "height": 4}"#;
        let first = handle_request(&shared, &post("/v1/query", body)).unwrap();
        assert_eq!(first.status, 200);
        let doc = parse_json(std::str::from_utf8(&first.body).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("query"));
        assert!(doc.get("answers").is_some());
        // Second submission is a result-cache hit with identical bytes.
        let second = handle_request(&shared, &post("/v1/query", body)).unwrap();
        assert!(second
            .headers
            .iter()
            .any(|(n, v)| n == "X-Cache" && v == "hit"));
        assert_eq!(first.body, second.body);
        // Wrong method gets the POST allow-list; render shaders 400.
        match handle_request(&shared, &get("/v1/query")) {
            Err(ServeError::MethodNotAllowed { allow: "POST" }) => {}
            other => panic!("expected 405, got {other:?}"),
        }
        match handle_request(&shared, &post("/v1/query", r#"{"width": 6, "height": 4}"#)) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("query shader")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn sync_jobs_round_trip_with_cache_headers() {
        let shared = test_shared();
        let body = r#"{"width": 6, "height": 4}"#;
        let first = handle_request(&shared, &post("/v1/render", body)).unwrap();
        assert_eq!(first.status, 200);
        assert!(first
            .headers
            .iter()
            .any(|(n, v)| n == "X-Cache" && v == "miss"));
        let second = handle_request(&shared, &post("/v1/render", body)).unwrap();
        assert_eq!(second.status, 200);
        assert!(second
            .headers
            .iter()
            .any(|(n, v)| n == "X-Cache" && v == "hit"));
        assert_eq!(first.body, second.body, "hit is bitwise identical");
    }

    #[test]
    fn async_jobs_are_accepted_then_pollable() {
        let shared = test_shared();
        let body = r#"{"width": 6, "height": 4, "async": true}"#;
        let accepted = handle_request(&shared, &post("/v1/render", body)).unwrap();
        assert_eq!(accepted.status, 202);
        let doc = parse_json(std::str::from_utf8(&accepted.body).unwrap()).unwrap();
        let id = doc.get("id").and_then(|v| v.as_f64()).unwrap() as u64;
        // Poll until done (bounded by the suite timeout in practice).
        loop {
            let polled = handle_request(&shared, &get(&format!("/v1/jobs/{id}"))).unwrap();
            assert_eq!(polled.status, 200);
            let text = std::str::from_utf8(&polled.body).unwrap();
            if parse_json(text).unwrap().get("kind").is_some() {
                break; // result body delivered
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn metrics_content_negotiation_switches_formats() {
        let shared = test_shared();
        // Default: JSON.
        let json = handle_request(&shared, &get("/metrics")).unwrap();
        assert_eq!(json.content_type, "application/json");
        parse_json(std::str::from_utf8(&json.body).unwrap()).expect("JSON snapshot parses");
        // Accept: text/plain → Prometheus, and the output validates.
        let mut prom_req = get("/metrics");
        prom_req
            .headers
            .push(("accept".to_string(), "text/plain".to_string()));
        let prom = handle_request(&shared, &prom_req).unwrap();
        assert_eq!(prom.content_type, crate::http::PROMETHEUS_CONTENT_TYPE);
        let text = std::str::from_utf8(&prom.body).unwrap();
        cooprt_telemetry::validate_prometheus(text).expect("exposition validates");
        // The query-parameter escape hatch works without headers.
        let prom2 = handle_request(&shared, &get("/metrics?format=prometheus")).unwrap();
        assert_eq!(prom2.content_type, crate::http::PROMETHEUS_CONTENT_TYPE);
    }

    #[test]
    fn span_trails_are_served_as_chrome_trace_json() {
        let shared = test_shared();
        let body = r#"{"width": 6, "height": 4}"#;
        let response = handle_request(&shared, &post("/v1/render", body)).unwrap();
        let id = response
            .headers
            .iter()
            .find(|(n, _)| n == "X-Request-Id")
            .map(|(_, v)| v.clone())
            .expect("request id header");
        let spans = handle_request(&shared, &get(&format!("/v1/spans/{id}"))).unwrap();
        assert_eq!(spans.status, 200);
        let text = std::str::from_utf8(&spans.body).unwrap();
        cooprt_telemetry::validate_chrome_trace(text).expect("span trace validates");
        assert!(text.contains("queue_wait"));
        assert!(text.contains("engine_run"));
        // Unknown ids 404; non-numeric ids 400; wrong method 405.
        assert!(matches!(
            handle_request(&shared, &get("/v1/spans/99999")),
            Err(ServeError::JobNotFound(99999))
        ));
        assert!(matches!(
            handle_request(&shared, &get("/v1/spans/pony")),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            handle_request(&shared, &post("/v1/spans/1", "")),
            Err(ServeError::MethodNotAllowed { allow: "GET" })
        ));
    }

    #[test]
    fn malformed_bodies_are_400() {
        let shared = test_shared();
        for body in ["{", "not json", r#"{"scene": "castle"}"#] {
            match handle_request(&shared, &post("/v1/render", body)) {
                Err(ServeError::BadRequest(_)) | Err(ServeError::Config(_)) => {}
                other => panic!("'{body}': expected 400, got {other:?}"),
            }
        }
    }
}
