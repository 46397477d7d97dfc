//! End-to-end tests over real sockets: concurrent clients, cache-hit
//! identity, admission control (429), protocol limits, graceful drain,
//! and the no-perturbation invariant for observability.

use cooprt_serve::{HttpClient, Limits, ServeConfig, Server, ShutdownHandle};
use cooprt_telemetry::{parse_json, validate_chrome_trace, validate_prometheus, Logger};
use std::thread;
use std::time::Duration;

/// Binds a server with `config`, runs it on a background thread, and
/// returns `(address, shutdown handle, join handle)`.
fn start(config: ServeConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn default_server() -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    })
}

const SMALL_JOB: &str = r#"{"width": 8, "height": 6, "scene": "bunny"}"#;

#[test]
fn health_metrics_and_render_round_trip() {
    let (addr, handle, join) = default_server();
    let mut client = HttpClient::connect(&addr).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let doc = parse_json(&health.text()).unwrap();
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));

    // First render is a miss, the repeat a bitwise-identical hit —
    // over the same keep-alive connection.
    let first = client.post("/v1/render", SMALL_JOB).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = client.post("/v1/render", SMALL_JOB).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hit must be byte-identical");
    assert!(first.header("x-request-id").is_some());

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = parse_json(&metrics.text()).unwrap();
    let cache = doc.get("result_cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
    assert_eq!(cache.get("misses").unwrap().as_f64(), Some(1.0));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_agree_on_the_cached_body() {
    let (addr, handle, join) = default_server();
    let bodies: Vec<Vec<u8>> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).unwrap();
                let resp = client.post("/v1/render", SMALL_JOB).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                resp.body
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "every client sees identical bytes");
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn async_jobs_poll_to_completion() {
    let (addr, handle, join) = default_server();
    let mut client = HttpClient::connect(&addr).unwrap();
    let body = r#"{"width": 8, "height": 6, "async": true}"#;
    let accepted = client.post("/v1/simulate", body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = parse_json(&accepted.text())
        .unwrap()
        .get("id")
        .and_then(|v| v.as_f64())
        .unwrap() as u64;
    let result = loop {
        let polled = client.get(&format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(polled.status, 200, "{}", polled.text());
        let doc = parse_json(&polled.text()).unwrap();
        if doc.get("kind").is_some() {
            break doc;
        }
        thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        result.get("kind").and_then(|v| v.as_str()),
        Some("simulate")
    );
    assert!(result.get("report").is_some(), "simulate embeds the report");

    let missing = client.get("/v1/jobs/99999").unwrap();
    assert_eq!(missing.status, 404);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn overload_rejects_with_429_and_retry_after() {
    // One worker, one queue slot: flooding with async jobs must trip
    // admission control on some of them.
    let (addr, handle, join) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 2,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();
    let mut accepted = 0;
    let mut rejected = 0;
    for i in 0..24 {
        // Distinct widths defeat the result cache, and the frame is
        // large enough that the lone worker falls behind the
        // submission rate.
        let body = format!(
            r#"{{"width": {}, "height": 48, "spp": 2, "async": true}}"#,
            64 + i
        );
        let resp = client.post("/v1/render", &body).unwrap();
        match resp.status {
            202 => accepted += 1,
            429 => {
                rejected += 1;
                assert_eq!(resp.header("retry-after"), Some("2"));
                let doc = parse_json(&resp.text()).unwrap();
                assert_eq!(
                    doc.get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(|c| c.as_str()),
                    Some("queue_full")
                );
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(accepted > 0, "some jobs must be admitted");
    assert!(rejected > 0, "overload must produce 429s");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn protocol_limits_hold_over_real_sockets() {
    let (addr, handle, join) = start(ServeConfig {
        limits: Limits {
            max_header_bytes: 512,
            max_body_bytes: 256,
        },
        ..ServeConfig::default()
    });

    // Oversized body → 413.
    let mut client = HttpClient::connect(&addr).unwrap();
    let big = format!(r#"{{"pad": "{}"}}"#, "x".repeat(1000));
    let resp = client.post("/v1/render", &big).unwrap();
    assert_eq!(resp.status, 413);

    // Oversized headers → 431 (fresh connection: limit errors close).
    let mut client = HttpClient::connect(&addr).unwrap();
    let resp = client
        .request("GET", &format!("/healthz?{}", "q".repeat(1000)), None)
        .unwrap();
    assert_eq!(resp.status, 431);

    // Unknown method on a known route → 405 + Allow.
    let mut client = HttpClient::connect(&addr).unwrap();
    let resp = client.request("DELETE", "/v1/render", None).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));

    // Unknown route → 404; malformed JSON → 400.
    let mut client = HttpClient::connect(&addr).unwrap();
    assert_eq!(client.get("/v1/nope").unwrap().status, 404);
    assert_eq!(client.post("/v1/render", "{oops").unwrap().status, 400);

    handle.shutdown();
    join.join().unwrap();

    // Requests the reader rejects count under a route like every
    // other request, so the routes add up to the request total.
    let doc = parse_json(&handle.metrics_json()).unwrap();
    let requests = doc.get("http").and_then(|h| h.get("requests"));
    let routed: f64 = match doc.get("routes") {
        Some(cooprt_telemetry::JsonValue::Object(routes)) => {
            routes.iter().filter_map(|(_, v)| v.as_f64()).sum()
        }
        other => panic!("routes must be an object, got {other:?}"),
    };
    assert_eq!(requests.and_then(|v| v.as_f64()), Some(routed), "{doc:?}");
}

#[test]
fn graceful_drain_finishes_admitted_work() {
    let (addr, handle, join) = start(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(&addr).unwrap();
    // Admit a batch of async jobs, then immediately request the drain.
    let mut ids = Vec::new();
    for i in 0..4 {
        let body = format!(
            r#"{{"width": 8, "height": 6, "spp": {}, "async": true}}"#,
            1 + i
        );
        let resp = client.post("/v1/render", &body).unwrap();
        assert_eq!(resp.status, 202, "{}", resp.text());
        ids.push(
            parse_json(&resp.text())
                .unwrap()
                .get("id")
                .and_then(|v| v.as_f64())
                .unwrap() as u64,
        );
    }
    handle.shutdown();
    join.join().unwrap();

    // After run() returns, every admitted job has completed and the
    // final snapshot says so.
    let doc = parse_json(&handle.metrics_json()).unwrap();
    let jobs = doc.get("jobs").unwrap();
    assert_eq!(
        jobs.get("draining").unwrap(),
        &cooprt_telemetry::JsonValue::Bool(true)
    );
    assert_eq!(
        jobs.get("submitted").unwrap().as_f64(),
        Some(ids.len() as f64)
    );
    assert_eq!(
        jobs.get("completed").unwrap().as_f64(),
        Some(ids.len() as f64),
        "drain must finish admitted work: {doc:?}"
    );
    assert_eq!(jobs.get("queued").unwrap().as_f64(), Some(0.0));

    // New connections are refused outright once the listener is gone.
    assert!(HttpClient::connect(&addr).is_err());
}

#[test]
fn full_observability_does_not_perturb_response_bytes() {
    // The no-perturbation invariant, end to end: a server with every
    // layer of telemetry enabled (trace-level logging, request spans)
    // must produce response bodies bitwise identical to a server with
    // all of it off.
    let logger = Logger::to_buffer("trace").unwrap();
    let (loud_addr, loud_handle, loud_join) = start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        request_spans: true,
        logger: logger.clone(),
        ..ServeConfig::default()
    });
    let (quiet_addr, quiet_handle, quiet_join) = start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        request_spans: false,
        logger: Logger::disabled(),
        ..ServeConfig::default()
    });

    let job = r#"{"width": 8, "height": 6, "scene": "bunny", "trace": true}"#;
    let mut loud = HttpClient::connect(&loud_addr).unwrap();
    let mut quiet = HttpClient::connect(&quiet_addr).unwrap();
    let mut miss_id = String::new();
    for target in ["/v1/render", "/v1/simulate"] {
        let a = loud.post(target, job).unwrap();
        let b = quiet.post(target, job).unwrap();
        assert_eq!(a.status, 200, "{}", a.text());
        assert_eq!(b.status, 200, "{}", b.text());
        assert_eq!(a.body, b.body, "telemetry must not perturb {target}");
        if target == "/v1/render" {
            miss_id = a.header("x-request-id").unwrap().to_string();
        }
    }

    // The cache-missing request's span trail has the full pipeline and
    // is valid Chrome trace JSON; a cache hit's trail stops at the
    // result-cache lookup.
    let spans = loud.get(&format!("/v1/spans/{miss_id}")).unwrap();
    assert_eq!(spans.status, 200, "{}", spans.text());
    validate_chrome_trace(&spans.text()).expect("span export validates");
    for name in [
        "parse",
        "queue_wait",
        "result_cache",
        "engine_run",
        "serialize",
    ] {
        assert!(spans.text().contains(name), "missing span '{name}'");
    }
    let hit = loud.post("/v1/render", job).unwrap();
    assert_eq!(hit.header("x-cache"), Some("hit"));
    let hit_id = hit.header("x-request-id").unwrap().to_string();
    let hit_spans = loud.get(&format!("/v1/spans/{hit_id}")).unwrap();
    validate_chrome_trace(&hit_spans.text()).expect("hit span export validates");
    assert!(hit_spans.text().contains("result_cache"));
    assert!(!hit_spans.text().contains("engine_run"));

    // The Prometheus exposition negotiates and validates.
    let prom = loud.get_accept("/metrics", "text/plain").unwrap();
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    validate_prometheus(&prom.text()).expect("prometheus exposition validates");
    assert!(prom.text().contains("cooprt_slo_attainment"));
    // JSON remains the default for clients that don't ask.
    let json = loud.get("/metrics").unwrap();
    parse_json(&json.text()).expect("JSON metrics still default");

    loud_handle.shutdown();
    quiet_handle.shutdown();
    loud_join.join().unwrap();
    quiet_join.join().unwrap();

    // Every captured log line is one parsable JSON object with the
    // schema fields, and the request path actually logged.
    let lines = logger.captured();
    assert!(!lines.is_empty(), "trace-level logging captures lines");
    for line in &lines {
        let doc = parse_json(line).expect("log line parses with the in-tree parser");
        for key in ["ts_us", "level", "target", "msg"] {
            assert!(doc.get(key).is_some(), "log line missing '{key}': {line}");
        }
    }
    assert!(lines.iter().any(|l| l.contains("\"serve::server\"")));
    assert!(lines.iter().any(|l| l.contains("\"serve::queue\"")));
    assert!(lines.iter().any(|l| l.contains("\"serve::exec\"")));
}
