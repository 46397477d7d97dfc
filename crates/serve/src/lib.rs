//! A dependency-free batch render/simulation service over the CoopRT
//! simulator.
//!
//! The crate turns the library simulator into a long-running HTTP/1.1 +
//! JSON service — entirely on `std::net`, honoring the workspace's
//! zero-external-dependency rule. The layering, bottom-up:
//!
//! - [`http`]: a strict HTTP/1.1 reader/writer — partial-read safe,
//!   keep-alive, hard caps on header (431) and body (413) sizes;
//! - [`api`]: the JSON request schema, validated into [`JobRequest`]s
//!   with a canonical cache key;
//! - [`cache`]: bounded content-addressed caches — `(scene, detail)` →
//!   built scene, canonical-key hash → finished response body;
//! - [`exec`]: the [`Executor`], which runs jobs and builds fully
//!   deterministic bodies so a cache hit is bitwise identical to a
//!   fresh run;
//! - [`queue`]: the bounded admission queue + worker pool
//!   ([`Dispatcher`]) — full queue ⇒ 429 + `Retry-After`, draining ⇒
//!   503, admitted work always finishes;
//! - [`server`]: the accept loop, routing, per-request deadlines, and
//!   graceful drain on SIGTERM/ctrl-c;
//! - [`metrics`] / [`error`] / [`client`]: the `/metrics` snapshot, the
//!   typed [`ServeError`] → status mapping, and a minimal client for
//!   harnesses.
//!
//! # Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/render` | POST | run a frame job (sync, or `"async": true`) |
//! | `/v1/simulate` | POST | same job, full metrics report body |
//! | `/v1/jobs/<id>` | GET | poll an async job |
//! | `/v1/spans/<id>` | GET | a request's host span trail (Chrome trace JSON) |
//! | `/metrics` | GET | JSON snapshot; Prometheus text under `Accept: text/plain` |
//! | `/healthz` | GET | liveness + drain state |
//!
//! # Observability
//!
//! The serve path is threaded with the telemetry crate's host-side
//! observability: structured JSON-lines logging (configured by the
//! `COOPRT_LOG` environment variable), per-request span trails keyed by
//! `X-Request-Id`, Prometheus exposition with a rolling-window SLO
//! tracker, and per-route latency histograms. All of it is
//! zero-overhead when disabled and — by construction — never touches a
//! response body: cache hits stay bitwise identical to fresh runs with
//! every layer of telemetry enabled.

pub mod api;
pub mod cache;
pub mod client;
pub mod error;
pub mod exec;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use api::{ConfigPreset, JobRequest};
pub use cache::{fnv1a64, CachedScene, ResultCache, SceneCache};
pub use client::{ClientResponse, HttpClient};
pub use error::ServeError;
pub use exec::{Endpoint, ExecOutcome, Executor};
pub use http::{Limits, Request, RequestReader, Response, PROMETHEUS_CONTENT_TYPE};
pub use metrics::{Route, ServerMetrics, LATENCY_BUCKETS_US};
pub use queue::{Dispatcher, JobState};
pub use server::{ServeConfig, Server, ShutdownHandle};
