//! # CoopRT core: cooperative BVH traversal in a cycle-level RT unit
//!
//! This crate is the paper's primary contribution, rebuilt from scratch:
//! a cycle-level model of a GPU RT unit (warp buffer, memory scheduler
//! with address coalescing, response FIFO, per-thread math units) plus
//! the **CoopRT** extension — a Load Balancing Unit that lets idle
//! threads in a warp steal BVH nodes from busy threads' traversal stacks
//! and traverse them in parallel, synchronizing closest-hit distances
//! through the main thread's `min_thit` field.
//!
//! The module map follows the paper:
//!
//! - [`config`] — Table 1 hardware configurations ([`GpuConfig`]) and
//!   the [`TraversalPolicy`] switch;
//! - [`rtunit`] — §2.3/§5 RT unit with the §5.1 architecture;
//! - [`lbu`] — the §5.2 Load Balancing Unit (priority-encoder pairing,
//!   subwarp scoping);
//! - [`shader`] — Listing 1's path-tracing raygen loop plus the §7.3
//!   AO/SH shaders;
//! - [`engine`] — SMs, thread-block dispatch, the cycle loop, and every
//!   measurement the evaluation needs (interval sampling, stall
//!   breakdown, warp timelines, slowest-warp latency);
//! - [`reorder`] — ray reordering ahead of warp formation: Morton /
//!   octant-hash coherence keys and the deterministic bucketed
//!   counting sort behind the [`ReorderPolicy`] axis;
//! - [`trace`] — trace-driven record/replay: record the front end
//!   (raygen/shading) once, replay the timing model under any sweep
//!   configuration from a compact self-contained binary trace;
//! - [`parallel`] — deterministic outer-loop parallelism (scoped-thread
//!   work pool behind the `COOPRT_THREADS` knob); each engine stays
//!   single-threaded, so results are bitwise identical at any width;
//! - [`area`] — the §7.5 area model (Table 3).
//!
//! # Quickstart
//!
//! ```
//! use cooprt_core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
//! use cooprt_scenes::SceneId;
//!
//! let scene = SceneId::Crnvl.build(2);
//! let config = GpuConfig::small(2);
//!
//! let base = Simulation::new(&scene, &config, TraversalPolicy::Baseline)
//!     .run_frame(ShaderKind::PathTrace, 8, 8).unwrap();
//! let coop = Simulation::new(&scene, &config, TraversalPolicy::CoopRt)
//!     .run_frame(ShaderKind::PathTrace, 8, 8).unwrap();
//!
//! // Functional correctness: identical images...
//! assert_eq!(base.image, coop.image);
//! // ...with fewer (or equal) cycles under cooperative traversal.
//! assert!(coop.cycles <= base.cycles);
//! ```

pub mod area;
pub mod config;
pub mod engine;
pub mod latency;
pub mod lbu;
pub mod metrics;
pub mod parallel;
pub mod predictor;
pub mod reorder;
pub mod rtunit;
pub mod shader;
pub mod trace;

pub use config::{GpuConfig, TraversalPolicy, WARP_SIZE};
pub use cooprt_telemetry::Checker;
pub use engine::{
    ConfigError, FrameResult, IntervalSample, IntervalSeries, Simulation, StallBreakdown,
    TimelineSample,
};
pub use latency::TraceLatencies;
pub use metrics::{FrameMetrics, LatencySummary, MetricsReport, METRICS_SCHEMA_VERSION};
pub use predictor::{PredictPolicy, PredictorStats, RayPathPredictor, PREDICT_ENTRY_LIFT};
pub use reorder::{ReorderPolicy, ReorderStats, DEFAULT_REORDER_BUCKETS};
pub use rtunit::{RayHit, RtUnit, StatusCounts, TraceQuery, TraceResult};
pub use shader::{ShaderKind, ShaderThread, PROBE_T_MAX};
pub use trace::{
    IssueRecord, RayRecord, Recorder, Trace, TraceError, TraceReader, TraceWriter, TRACE_MAGIC,
    TRACE_VERSION,
};
