//! Differential fuzzing and invariant harness for the CoopRT simulator.
//!
//! The simulator's correctness rests on a few strong claims: CoopRT
//! reorders traversal but never changes the rendered image; the BVH
//! finds exactly the hits brute force finds; and the flat host-side
//! representations of the memory hierarchy (way-array caches, slotted
//! MSHRs) behave bitwise identically to the naive map models they
//! replaced. This crate turns each claim into a *differential oracle*
//! and fuzzes all of them from explicit 64-bit seeds:
//!
//! - [`oracle`] holds the reference models (promoted from inline test
//!   oracles) and the trace-replay comparators;
//! - [`fuzz`] samples simulator configurations and procedural scenes
//!   from a seed and drives every oracle over them, with the engine's
//!   invariant [`Checker`](cooprt_core::Checker) enabled;
//! - [`shrink`] minimizes a failing case (halve the resolution, drop
//!   triangles, shrink warps) before reporting, and every report carries
//!   the seed plus the `examples/simcheck.rs --seed N` replay command;
//! - [`jsonfuzz`] hammers the in-tree JSON parser (round-trip, byte
//!   mutation, adversarial corpus) — it sits on the service's
//!   untrusted-input path and must fail cleanly, never panic;
//! - [`servecache`] fuzzes the `cooprt-serve` result-cache identity
//!   guarantee: a cache hit must be bitwise identical to a fresh run of
//!   the same `(scene, config, policy, spp)` job;
//! - [`tracecheck`] fuzzes the record/replay subsystem: recording must
//!   perturb nothing, the trace codec must round-trip losslessly, and
//!   replaying the decoded trace must reproduce live cycle counts and
//!   images bitwise under both traversal policies;
//! - [`reordercheck`] fuzzes the ray-reordering front end: every
//!   reorder policy must render the unordered image bitwise (both
//!   traversal policies, compaction on and off), and sort keys must be
//!   bitwise reproducible at any outer-parallelism width;
//! - [`predictcheck`] fuzzes the ray-path predictor: it must render the
//!   speculation-free image bitwise under both traversal policies, and
//!   its stats counters must obey their containment order;
//! - [`querycheck`] fuzzes the spatial-query subsystem: kNN, radius
//!   search and point-in-cell containment answered through the timing
//!   model must equal a brute-force scan of the raw domain exactly,
//!   under both traversal policies;
//! - [`stepcheck`] fuzzes the event-driven engine's SM skipping: a
//!   frame must come out bitwise the same — cycles, image, every
//!   metrics counter, event stream and timeline — as a dense reference
//!   that steps every SM on every cycle.
//!
//! Everything is deterministic and dependency-free (the in-tree PRNG
//! only), so a CI budget of seeds means the same thing on every
//! machine.
//!
//! # Examples
//!
//! ```
//! use cooprt_check::fuzz;
//!
//! // Replay one seed through every oracle.
//! fuzz::run_seed(0).expect("seed 0 is part of the CI budget and passes");
//! ```

pub mod fuzz;
pub mod jsonfuzz;
pub mod oracle;
pub mod predictcheck;
pub mod querycheck;
pub mod reordercheck;
pub mod servecache;
pub mod shrink;
pub mod stepcheck;
pub mod tracecheck;

pub use fuzz::{run_budget, run_case, run_seed, Failure, FuzzCase};
pub use jsonfuzz::{run_json_budget, run_json_seed};
pub use predictcheck::{run_predict_budget, run_predict_case, run_predict_seed, PredictFailure};
pub use querycheck::{run_query_budget, run_query_case, run_query_seed, QueryFailure};
pub use reordercheck::{run_reorder_budget, run_reorder_case, run_reorder_seed, ReorderFailure};
pub use servecache::{run_serve_budget, run_serve_seed};
pub use stepcheck::{run_step_budget, run_step_case, run_step_seed, StepFailure};
pub use tracecheck::{run_trace_budget, run_trace_case, run_trace_seed, TraceFailure};

use std::fmt;

/// A divergence reported by one oracle.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Which oracle diverged (`"cache"`, `"mshr"`, `"bvh"`, `"image"`,
    /// `"invariants"`, `"engine"`, `"json-roundtrip"`, `"json-mutation"`,
    /// `"json-adversarial"`, `"serve-cache"`, `"trace-replay"`,
    /// `"reorder-image"`, `"reorder-determinism"`, `"predict-image"`,
    /// `"predict-stats"`, `"query-exact"`, `"step-dense"`).
    pub oracle: String,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

impl CheckFailure {
    /// Builds a failure for `oracle` with the given detail.
    pub fn new(oracle: impl Into<String>, detail: impl Into<String>) -> Self {
        CheckFailure {
            oracle: oracle.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} oracle: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for CheckFailure {}
