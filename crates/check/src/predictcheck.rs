//! Ray-path predictor differential oracle.
//!
//! The ray-path predictor in `cooprt_core::predictor` is speculation
//! that must never change what a ray computes, and this module fuzzes
//! that claim from a [`FuzzCase`]:
//!
//! 1. **Prediction is timing-only** — a frame run with the ray-path
//!    predictor renders bitwise the same image, and traces the same
//!    rays, as the speculation-free run under both traversal policies.
//!    The go-up-level fallback walks a missed entry subtree back to the
//!    root, so any-hit occlusion answers are exact.
//! 2. **Counters are honest** — the stats obey their containment order
//!    (candidates ⊆ lookups, stale ⊆ lookups, entry hits ⊆
//!    candidates), so MetricsReport ratios can be trusted. This is the
//!    regression guard for the historical stale-candidate overcount.
//!
//! Failing cases shrink through the same [`shrink`]
//! pipeline as the simulator oracles and report a
//! `simcheck -- --predict-seed N` replay command.

use crate::fuzz::FuzzCase;
use crate::{shrink, CheckFailure};
use cooprt_core::{PredictPolicy, ShaderKind, Simulation, TraversalPolicy};
use cooprt_math::Rgb;
use std::fmt;

fn bits(c: &Rgb) -> [u32; 3] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
}

fn compare(
    case: &FuzzCase,
    scene: &cooprt_scenes::Scene,
    policy: TraversalPolicy,
    shader: ShaderKind,
) -> Result<(), CheckFailure> {
    let plain = case.gpu_config();
    let reference = Simulation::new(scene, &plain, policy)
        .run_frame(shader, case.width, case.height)
        .map_err(|e| CheckFailure::new("engine", format!("plain {policy:?}: {e}")))?;
    let cfg = plain.with_predict(PredictPolicy::RayPath);
    let run = Simulation::new(scene, &cfg, policy)
        .run_frame(shader, case.width, case.height)
        .map_err(|e| CheckFailure::new("engine", format!("ray-path {policy:?}: {e}")))?;
    for (i, (a, b)) in reference.image.iter().zip(run.image.iter()).enumerate() {
        if bits(a) != bits(b) {
            return Err(CheckFailure::new(
                "predict-image",
                format!(
                    "ray-path predictor under {policy:?} ({shader:?}): \
                     pixel {i} differs (plain {a:?}, speculative {b:?})"
                ),
            ));
        }
    }
    if run.rays != reference.rays {
        return Err(CheckFailure::new(
            "predict-image",
            format!(
                "ray-path predictor under {policy:?} ({shader:?}): \
                 {} rays traced, plain traced {}",
                run.rays, reference.rays
            ),
        ));
    }
    let p = &run.predictor;
    let honest = p.path_candidates <= p.path_lookups
        && p.path_stale <= p.path_lookups
        && p.path_entry_hits <= p.path_candidates;
    if !honest {
        return Err(CheckFailure::new(
            "predict-stats",
            format!("ray-path predictor under {policy:?}: dishonest counters {p:?}"),
        ));
    }
    Ok(())
}

/// Runs the predictor differential over one case; `Ok` when the
/// ray-path run renders the reference image with honest stats.
pub fn run_predict_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = case.scene();
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        compare(case, &scene, policy, case.shader)?;
    }
    // The ray-path table only steers any-hit traversals; make sure every
    // seed exercises that path even when the case sampled PathTrace.
    if case.shader == ShaderKind::PathTrace {
        compare(
            case,
            &scene,
            TraversalPolicy::Baseline,
            ShaderKind::AmbientOcclusion,
        )?;
    }
    Ok(())
}

/// A predictor fuzz failure: the seed, the original divergence, and the
/// shrunk reproduction.
#[derive(Clone, Debug)]
pub struct PredictFailure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for PredictFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predict seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --predict-seed {}",
            self.seed
        )
    }
}

/// Runs one seed through the predictor differential; on divergence the
/// case is shrunk before reporting.
pub fn run_predict_seed(seed: u64) -> Result<(), Box<PredictFailure>> {
    let case = FuzzCase::from_seed(seed);
    match run_predict_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_predict_case);
            Err(Box::new(PredictFailure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive predictor seeds starting at `start`; stops
/// at the first failure. Returns the number of seeds that passed.
pub fn run_predict_budget(start: u64, count: u64) -> Result<u64, Box<PredictFailure>> {
    for i in 0..count {
        run_predict_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_predict_seeds_pass() {
        // CI runs a larger budget in release; keep the in-crate smoke
        // cheap (each seed runs four-to-six tiny frames).
        if let Err(failure) = run_predict_budget(0, 2) {
            panic!("{failure}");
        }
    }
}
