//! Trace record/replay differential oracle.
//!
//! The trace subsystem (`cooprt_core::trace`) claims three identities,
//! and this module fuzzes all of them from a [`FuzzCase`]:
//!
//! 1. **Recording is observational** — running a frame with the
//!    recorder enabled reports bitwise the same cycle count and image as
//!    the plain live run;
//! 2. **The codec is lossless** — the recorded trace survives an
//!    encode → decode round trip;
//! 3. **Replay is the timing model** — replaying the decoded trace
//!    under *both* traversal policies reproduces the live runs' cycle
//!    counts and images bitwise, even though replay never re-executes
//!    raygen or shading.
//!
//! Because the per-thread ray streams depend only on functional hits,
//! one trace recorded under the baseline policy must replay every
//! sampled timing configuration — warp buffers, subwarps, cache
//! geometry, MSHRs, DRAM channels — exactly. Any divergence means a
//! replay-visible piece of state leaked out of the trace.
//!
//! Failing cases shrink through the same [`shrink`]
//! pipeline as the simulator oracles and report a
//! `simcheck -- --trace-seed N` replay command.

use crate::fuzz::FuzzCase;
use crate::{shrink, CheckFailure};
use cooprt_core::{FrameResult, Simulation, Trace, TraversalPolicy};
use cooprt_math::Rgb;
use std::fmt;

/// Fuzz scenes have no meaningful `SceneId` detail level; the header
/// still records one so replays can label themselves.
const FUZZ_DETAIL: u32 = 1;

fn bits(c: &Rgb) -> [u32; 3] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
}

/// Compares a replayed frame against its live twin: bitwise cycle and
/// image identity.
fn expect_identical(
    what: &str,
    policy: TraversalPolicy,
    live: &FrameResult,
    replayed: &FrameResult,
) -> Result<(), CheckFailure> {
    if replayed.cycles != live.cycles {
        return Err(CheckFailure::new(
            "trace-replay",
            format!(
                "{what} under {policy:?}: {} cycles, live simulation took {}",
                replayed.cycles, live.cycles
            ),
        ));
    }
    for (i, (a, b)) in live.image.iter().zip(replayed.image.iter()).enumerate() {
        if bits(a) != bits(b) {
            return Err(CheckFailure::new(
                "trace-replay",
                format!("{what} under {policy:?}: pixel {i} differs (live {a:?}, replayed {b:?})"),
            ));
        }
    }
    Ok(())
}

/// Runs the record → encode → decode → replay differential over one
/// case; `Ok` when every identity holds.
pub fn run_trace_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = case.scene();
    let cfg = case.gpu_config();
    let run_live = |policy: TraversalPolicy| -> Result<FrameResult, CheckFailure> {
        Simulation::new(&scene, &cfg, policy)
            .run_frame(case.shader, case.width, case.height)
            .map_err(|e| CheckFailure::new("engine", format!("live {policy:?}: {e}")))
    };

    // Identity 1: the recorder perturbs nothing.
    let live_base = run_live(TraversalPolicy::Baseline)?;
    let (recorded, trace) = Trace::record(
        &scene,
        FUZZ_DETAIL,
        &cfg,
        TraversalPolicy::Baseline,
        case.shader,
        case.width,
        case.height,
    )
    .map_err(|e| CheckFailure::new("engine", format!("recording run: {e}")))?;
    expect_identical(
        "recording run",
        TraversalPolicy::Baseline,
        &live_base,
        &recorded,
    )?;

    // Identity 2: the codec is lossless.
    let bytes = trace.encode();
    let decoded = Trace::decode(&bytes)
        .map_err(|e| CheckFailure::new("trace-replay", format!("decode failed: {e}")))?;
    if decoded.total_records() != trace.total_records() {
        return Err(CheckFailure::new(
            "trace-replay",
            format!(
                "round trip changed the record count: {} recorded, {} decoded",
                trace.total_records(),
                decoded.total_records()
            ),
        ));
    }

    // Identity 3: the decoded trace replays the timing model bitwise —
    // under the recorded policy and across the policy switch.
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let live_coop;
        let live = match policy {
            TraversalPolicy::Baseline => &live_base,
            TraversalPolicy::CoopRt => {
                live_coop = run_live(policy)?;
                &live_coop
            }
        };
        let replayed = decoded
            .replay(&cfg, policy)
            .map_err(|e| CheckFailure::new("trace-replay", format!("replay {policy:?}: {e}")))?;
        expect_identical("replay", policy, live, &replayed)?;
    }
    Ok(())
}

/// A trace-replay fuzz failure: the seed, the original divergence, and
/// the shrunk reproduction.
#[derive(Clone, Debug)]
pub struct TraceFailure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for TraceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --trace-seed {}",
            self.seed
        )
    }
}

/// Runs one seed through the record/replay differential; on divergence
/// the case is shrunk before reporting.
pub fn run_trace_seed(seed: u64) -> Result<(), Box<TraceFailure>> {
    let case = FuzzCase::from_seed(seed);
    match run_trace_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_trace_case);
            Err(Box::new(TraceFailure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive trace seeds starting at `start`; stops at
/// the first failure. Returns the number of seeds that passed.
pub fn run_trace_budget(start: u64, count: u64) -> Result<u64, Box<TraceFailure>> {
    for i in 0..count {
        run_trace_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_core::ShaderKind;

    #[test]
    fn a_handful_of_trace_seeds_pass() {
        // CI runs a larger budget in release; keep the in-crate smoke
        // cheap (each seed runs five frames).
        if let Err(failure) = run_trace_budget(0, 3) {
            panic!("{failure}");
        }
    }

    #[test]
    fn every_shader_kind_is_reachable_and_passes() {
        // The differential must hold for all three recorded shader
        // kinds; scan seeds until each has been exercised once.
        let mut seen = [false; 3];
        let mut seed = 0u64;
        while seen.iter().any(|s| !s) {
            let case = FuzzCase::from_seed(seed);
            let slot = match case.shader {
                ShaderKind::PathTrace => 0,
                ShaderKind::AmbientOcclusion => 1,
                ShaderKind::Shadow => 2,
                ShaderKind::Knn | ShaderKind::Radius | ShaderKind::Contain => {
                    unreachable!("render-trace fuzzing never samples query kinds")
                }
            };
            if !seen[slot] {
                seen[slot] = true;
                if let Err(f) = run_trace_case(&case) {
                    panic!("seed {seed} ({:?}): {f}", case.shader);
                }
            }
            seed += 1;
            assert!(seed < 64, "shader kinds should all appear in 64 seeds");
        }
    }
}
