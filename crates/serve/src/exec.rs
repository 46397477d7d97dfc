//! The executor: runs validated jobs against the simulator and builds
//! deterministic response bodies, fronted by both caches.
//!
//! Determinism is a contract here, not an accident: a response body
//! contains only values derived from the job's canonical key (scene
//! content hashes, simulated cycle counts, pixel bit patterns) — never
//! wall-clock time, request ids, or queue state. That is what lets a
//! [`ResultCache`] hit return stored bytes that are bitwise identical
//! to a fresh run, and what the `cooprt-check` identity oracle verifies
//! end to end.
//!
//! Two encoding rules keep JSON from silently corrupting the data:
//! 64-bit hashes travel as hex strings (JSON numbers are f64 and lose
//! precision past 2^53), and pixels travel as `f32::to_bits` words
//! (decimal formatting would round).

use crate::api::JobRequest;
use crate::cache::{fnv1a64, ResultCache, SceneCache};
use crate::error::ServeError;
use cooprt_core::{MetricsReport, Simulation};
use cooprt_telemetry::{EventKind, JsonWriter, LogLevel, Logger, SpanRecorder, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Which endpoint's body shape a job produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/render`: frame summary + optional pixel data.
    Render,
    /// `POST /v1/simulate`: the full [`MetricsReport`].
    Simulate,
    /// `POST /v1/query`: spatial-query batch + per-query answers.
    Query,
}

impl Endpoint {
    /// Stable label, used in cache keys and response bodies.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Render => "render",
            Endpoint::Simulate => "simulate",
            Endpoint::Query => "query",
        }
    }
}

/// The outcome of executing (or cache-hitting) one job.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The response body, shared with the result cache.
    pub body: Arc<Vec<u8>>,
    /// True when the body came from the result cache.
    pub cached: bool,
}

/// Runs jobs against the simulator behind the scene and result caches.
///
/// The executor is deliberately free of sockets and queues so the
/// `cooprt-check` cache-identity oracle (and unit tests) can drive the
/// exact production path directly.
#[derive(Debug)]
pub struct Executor {
    scenes: SceneCache,
    results: ResultCache,
}

impl Executor {
    /// An executor whose caches hold at most `scene_capacity` built
    /// scenes and `result_capacity` response bodies.
    pub fn new(scene_capacity: usize, result_capacity: usize) -> Self {
        Executor {
            scenes: SceneCache::new(scene_capacity),
            results: ResultCache::new(result_capacity),
        }
    }

    /// The result-cache address of `(endpoint, req)`.
    pub fn cache_key(endpoint: Endpoint, req: &JobRequest) -> u64 {
        fnv1a64(format!("{} {}", endpoint.label(), req.canonical_key()).as_bytes())
    }

    /// Executes one job, consulting the result cache first.
    ///
    /// `request_id` is threaded into the [`Tracer`] (as a cycle-0
    /// [`EventKind::Request`] marker) when the job asks for tracing; it
    /// never appears in the body, which must stay id-independent for
    /// cache identity.
    pub fn execute(
        &self,
        endpoint: Endpoint,
        req: &JobRequest,
        request_id: u64,
    ) -> Result<ExecOutcome, ServeError> {
        self.execute_traced(
            endpoint,
            req,
            request_id,
            &SpanRecorder::disabled(),
            &Logger::disabled(),
        )
    }

    /// [`Executor::execute`], recording host-side spans (result-cache
    /// lookup, scene build, engine run, serialize) into `spans` and
    /// cache-outcome logs under the `serve::exec` target.
    ///
    /// Spans and logs observe wall-clock time only; the response body
    /// remains a pure function of the job's canonical key.
    pub fn execute_traced(
        &self,
        endpoint: Endpoint,
        req: &JobRequest,
        request_id: u64,
        spans: &SpanRecorder,
        log: &Logger,
    ) -> Result<ExecOutcome, ServeError> {
        // The query endpoint's contract: a query shader on one batch.
        // Checked before the cache so invalid combinations can never be
        // admitted (or cached) in the first place.
        if endpoint == Endpoint::Query {
            if !req.shader.is_query() {
                return Err(ServeError::BadRequest(format!(
                    "/v1/query needs a query shader (knn, rad, cont), got '{}'",
                    req.shader.key()
                )));
            }
            if req.spp != 1 {
                return Err(ServeError::BadRequest(
                    "query jobs run one batch; spp must be 1".to_string(),
                ));
            }
        }

        let key = Self::cache_key(endpoint, req);
        let hit = spans.time("result_cache", || self.results.get(key));
        if let Some(body) = hit {
            log.log(LogLevel::Debug, "serve::exec", "result cache hit", |f| {
                f.u64("id", request_id).str("key", format!("{key:016x}"));
            });
            return Ok(ExecOutcome { body, cached: true });
        }
        log.log(LogLevel::Debug, "serve::exec", "result cache miss", |f| {
            f.u64("id", request_id).str("key", format!("{key:016x}"));
        });

        let cached = spans.time("scene", || self.scenes.get_or_build(req.scene, req.detail));
        let scene = &cached.scene;
        let config = req
            .config
            .build()
            .with_reorder(req.reorder)
            .with_predict(req.predict);
        let tracer = if req.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        tracer.emit(0, || EventKind::Request { id: request_id });
        let sim = Simulation::new(scene, &config, req.policy).with_tracer(tracer.clone());
        let run_start = Instant::now();
        let run = sim.run_accumulated(req.shader, req.width, req.height, req.spp);
        spans.record("engine_run", run_start, Instant::now());
        let (pixels, frames) = run?;
        let trace_log = tracer.take();

        let serialize_start = Instant::now();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", endpoint.label());
        w.field_str("scene", req.scene.name());
        w.field_u64("detail", u64::from(req.detail));
        w.field_u64("width", req.width as u64);
        w.field_u64("height", req.height as u64);
        w.field_u64("spp", u64::from(req.spp));
        w.field_str("shader", req.shader.key());
        w.field_str("policy", req.policy.label());
        w.field_str("reorder", req.reorder.label());
        w.field_str("predict", req.predict.label());
        w.field_str("config", &req.config.label().to_string());
        w.field_str("bvh_hash", &format!("{:016x}", cached.bvh_hash));
        w.field_u64("bvh_nodes", scene.image.node_count() as u64);
        w.field_u64("cycles", frames.iter().map(|f| f.cycles).sum());
        w.field_u64("rays", frames.iter().map(|f| f.rays).sum());
        w.field_u64(
            "slowest_warp_cycles",
            frames
                .iter()
                .map(|f| f.slowest_warp_cycles)
                .max()
                .unwrap_or(0),
        );
        let pixel_words: Vec<u32> = pixels
            .iter()
            .flat_map(|p| [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()])
            .collect();
        let mut ph = 0xcbf2_9ce4_8422_2325u64;
        for wv in &pixel_words {
            for b in wv.to_le_bytes() {
                ph ^= u64::from(b);
                ph = ph.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        w.field_str("image_hash", &format!("{ph:016x}"));
        if req.include_image {
            w.begin_inline_array("pixels_bits");
            for wv in &pixel_words {
                w.item_u64(u64::from(*wv));
            }
            w.end_array();
        }
        if req.trace {
            // Event counts are a pure function of the simulated work
            // (the cycle-0 request marker adds exactly one), so they
            // are safe to cache.
            w.field_u64(
                "trace_events",
                trace_log.events.len() as u64 + trace_log.dropped,
            );
        }
        if endpoint == Endpoint::Query {
            // Per-query answers, indexed by query id: point indices for
            // knn/rad (nearest-first / ascending), the containing cell
            // for cont. Deterministic — a pure function of the
            // canonical key — so the body is safe to cache like any
            // other.
            let answers = &frames[0].query_results;
            w.field_u64("queries", answers.len() as u64);
            w.field_u64(
                "answer_entries",
                answers.iter().map(|a| a.len() as u64).sum(),
            );
            let mut raw = String::from("[");
            for (i, a) in answers.iter().enumerate() {
                if i > 0 {
                    raw.push(',');
                }
                raw.push('[');
                for (j, id) in a.iter().enumerate() {
                    if j > 0 {
                        raw.push(',');
                    }
                    raw.push_str(&id.to_string());
                }
                raw.push(']');
            }
            raw.push(']');
            w.field_raw("answers", &raw);
        }
        if endpoint == Endpoint::Simulate {
            let mut report = MetricsReport::new(&format!(
                "{} {} {}",
                req.scene.name(),
                req.policy.label(),
                req.shader.key()
            ));
            for (i, frame) in frames.iter().enumerate() {
                report.add_frame(&format!("sample{i}"), frame);
            }
            w.field_raw("report", &report.to_json());
        }
        w.end_object();

        let body = Arc::new(w.finish().into_bytes());
        spans.record("serialize", serialize_start, Instant::now());
        self.results.insert(key, Arc::clone(&body));
        Ok(ExecOutcome {
            body,
            cached: false,
        })
    }

    /// The scene cache (for metrics and tests).
    pub fn scene_cache(&self) -> &SceneCache {
        &self.scenes
    }

    /// The result cache (for metrics and tests).
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_telemetry::parse_json;

    fn small_request() -> JobRequest {
        JobRequest {
            width: 8,
            height: 6,
            ..JobRequest::default()
        }
    }

    #[test]
    fn cache_hits_are_bitwise_identical_to_the_fresh_run() {
        let exec = Executor::new(4, 4);
        let req = small_request();
        let fresh = exec.execute(Endpoint::Render, &req, 1).unwrap();
        assert!(!fresh.cached);
        let hit = exec.execute(Endpoint::Render, &req, 2).unwrap();
        assert!(hit.cached);
        assert_eq!(*fresh.body, *hit.body, "hit must be byte-identical");
        assert_eq!(exec.result_cache().stats().hits(), 1);
    }

    #[test]
    fn request_ids_never_reach_the_body() {
        // Two fresh executions under wildly different request ids must
        // produce identical bytes — ids live only in the trace stream.
        let req = JobRequest {
            trace: true,
            ..small_request()
        };
        let a = Executor::new(2, 2)
            .execute(Endpoint::Render, &req, 7)
            .unwrap();
        let b = Executor::new(2, 2)
            .execute(Endpoint::Render, &req, 0xdead_beef)
            .unwrap();
        assert_eq!(*a.body, *b.body);
        let doc = parse_json(std::str::from_utf8(&a.body).unwrap()).unwrap();
        assert!(doc.get("trace_events").and_then(|v| v.as_f64()).unwrap() > 1.0);
    }

    #[test]
    fn render_bodies_carry_the_frame_summary() {
        let exec = Executor::new(2, 2);
        let req = JobRequest {
            include_image: true,
            ..small_request()
        };
        let out = exec.execute(Endpoint::Render, &req, 1).unwrap();
        let doc = parse_json(std::str::from_utf8(&out.body).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("render"));
        assert_eq!(doc.get("scene").and_then(|v| v.as_str()), Some("wknd"));
        assert!(doc.get("cycles").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let hash = doc.get("bvh_hash").and_then(|v| v.as_str()).unwrap();
        assert_eq!(hash.len(), 16, "u64 hash travels as a hex string");
        match doc.get("pixels_bits") {
            Some(cooprt_telemetry::JsonValue::Array(words)) => {
                assert_eq!(words.len(), 8 * 6 * 3, "3 words per pixel");
            }
            other => panic!("expected pixels_bits array, got {other:?}"),
        }
    }

    #[test]
    fn simulate_bodies_embed_the_full_metrics_report() {
        let exec = Executor::new(2, 2);
        let req = JobRequest {
            spp: 2,
            ..small_request()
        };
        let out = exec.execute(Endpoint::Simulate, &req, 1).unwrap();
        let doc = parse_json(std::str::from_utf8(&out.body).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("simulate"));
        let report = doc.get("report").expect("embedded MetricsReport");
        assert!(report.get("schema_version").is_some());
        match report.get("frames") {
            Some(cooprt_telemetry::JsonValue::Array(frames)) => {
                assert_eq!(frames.len(), 2, "one report frame per sample");
            }
            other => panic!("expected frames array, got {other:?}"),
        }
    }

    #[test]
    fn render_and_simulate_occupy_distinct_cache_slots() {
        let exec = Executor::new(2, 4);
        let req = small_request();
        let render = exec.execute(Endpoint::Render, &req, 1).unwrap();
        let simulate = exec.execute(Endpoint::Simulate, &req, 2).unwrap();
        assert!(!render.cached && !simulate.cached);
        assert_ne!(*render.body, *simulate.body);
        assert_eq!(exec.result_cache().len(), 2);
    }

    #[test]
    fn query_bodies_carry_deterministic_answers() {
        use cooprt_core::ShaderKind;
        use cooprt_scenes::SceneId;
        let exec = Executor::new(2, 4);
        let req = JobRequest {
            scene: SceneId::Quni,
            shader: ShaderKind::Knn,
            width: 8,
            height: 4,
            ..JobRequest::default()
        };
        let fresh = exec.execute(Endpoint::Query, &req, 1).unwrap();
        let doc = parse_json(std::str::from_utf8(&fresh.body).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("query"));
        assert_eq!(doc.get("shader").and_then(|v| v.as_str()), Some("knn"));
        assert_eq!(doc.get("queries").and_then(|v| v.as_f64()), Some(32.0));
        let answers = match doc.get("answers") {
            Some(cooprt_telemetry::JsonValue::Array(a)) => a,
            other => panic!("expected answers array, got {other:?}"),
        };
        assert_eq!(answers.len(), 32, "one answer row per query");
        assert!(
            doc.get("answer_entries").and_then(|v| v.as_f64()).unwrap() > 0.0,
            "the uniform cloud batch should find neighbours"
        );
        // Cache hits return the identical bytes, like every endpoint.
        let hit = exec.execute(Endpoint::Query, &req, 2).unwrap();
        assert!(hit.cached);
        assert_eq!(*fresh.body, *hit.body);
    }

    #[test]
    fn query_endpoint_rejects_mismatched_jobs() {
        use cooprt_core::ShaderKind;
        use cooprt_scenes::SceneId;
        let exec = Executor::new(2, 4);
        // Render shader on the query endpoint: 400 before any work.
        let render = small_request();
        match exec.execute(Endpoint::Query, &render, 1) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("query shader")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Multi-sample query batches are rejected too.
        let multi = JobRequest {
            scene: SceneId::Quni,
            shader: ShaderKind::Knn,
            spp: 2,
            ..small_request()
        };
        match exec.execute(Endpoint::Query, &multi, 1) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("spp must be 1")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // A query shader against a scene with no domain is the engine's
        // domain-mismatch config error (HTTP 400).
        let wrong_scene = JobRequest {
            shader: ShaderKind::Knn,
            ..small_request()
        };
        match exec.execute(Endpoint::Query, &wrong_scene, 1) {
            Err(ServeError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn config_errors_surface_as_serve_errors() {
        let exec = Executor::new(1, 1);
        let req = JobRequest {
            spp: 0, // unreachable via from_json; drives the core error path
            ..small_request()
        };
        match exec.execute(Endpoint::Render, &req, 1) {
            Err(ServeError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
