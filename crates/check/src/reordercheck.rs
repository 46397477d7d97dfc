//! Ray-reordering differential oracle.
//!
//! The reorder subsystem (`cooprt_core::reorder`) claims two identities,
//! and this module fuzzes both from a [`FuzzCase`]:
//!
//! 1. **Reordering is timing-only** — a frame run with any
//!    [`ReorderPolicy`] renders bitwise the same image as the unordered
//!    run, under both traversal policies and with warp compaction on or
//!    off. Sorting changes *which rays share a warp*, never what any
//!    ray computes.
//! 2. **Keys and buckets are deterministic** — `ray_key` and
//!    `bucket_of` are pure functions of the ray and the scene bounds,
//!    so computing them under different outer-parallelism widths
//!    (`par_map` with 1, 2 and 4 workers) yields bitwise identical key
//!    streams, and the counting sort over those streams yields the same
//!    permutation.
//!
//! Failing cases shrink through the same [`shrink`]
//! pipeline as the simulator oracles and report a
//! `simcheck -- --reorder-seed N` replay command.

use crate::fuzz::FuzzCase;
use crate::{shrink, CheckFailure};
use cooprt_core::reorder::{bucket_of, ray_key, reorder_by_key};
use cooprt_core::{parallel, ReorderPolicy, Simulation, TraversalPolicy, DEFAULT_REORDER_BUCKETS};
use cooprt_math::{Ray, Rgb, Vec3};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::fmt;

fn bits(c: &Rgb) -> [u32; 3] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
}

/// Identity 1: every reorder policy renders the unordered image
/// bitwise, under both traversal policies, with and without compaction.
fn image_identity(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = case.scene();
    for compaction in [false, true] {
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let mut cfg = case.gpu_config();
            cfg.compaction = compaction;
            let reference = Simulation::new(&scene, &cfg, policy)
                .run_frame(case.shader, case.width, case.height)
                .map_err(|e| CheckFailure::new("engine", format!("unordered {policy:?}: {e}")))?;
            for reorder in [ReorderPolicy::Morton, ReorderPolicy::OctantHash] {
                let cfg = cfg.clone().with_reorder(reorder);
                let run = Simulation::new(&scene, &cfg, policy)
                    .run_frame(case.shader, case.width, case.height)
                    .map_err(|e| {
                        CheckFailure::new("engine", format!("{reorder:?} {policy:?}: {e}"))
                    })?;
                for (i, (a, b)) in reference.image.iter().zip(run.image.iter()).enumerate() {
                    if bits(a) != bits(b) {
                        return Err(CheckFailure::new(
                            "reorder-image",
                            format!(
                                "{reorder:?} under {policy:?} (compaction {compaction}): \
                                 pixel {i} differs (unordered {a:?}, reordered {b:?})"
                            ),
                        ));
                    }
                }
                if run.rays != reference.rays {
                    return Err(CheckFailure::new(
                        "reorder-image",
                        format!(
                            "{reorder:?} under {policy:?} (compaction {compaction}): \
                             {} rays traced, unordered traced {}",
                            run.rays, reference.rays
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Identity 2: keys, buckets and the sort permutation are bitwise
/// reproducible at any outer-parallelism width.
fn key_determinism(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = case.scene();
    let bounds = scene.image.root_bounds();
    // Synthesize a deterministic ray soup spanning the scene: origins
    // inside the root bounds, directions over the whole sphere.
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5eed_50f7);
    let span = bounds.max - bounds.min;
    let rays: Vec<Ray> = (0..256)
        .map(|_| {
            let o = bounds.min
                + Vec3::new(
                    span.x * rng.random::<f32>(),
                    span.y * rng.random::<f32>(),
                    span.z * rng.random::<f32>(),
                );
            let d = Vec3::new(
                rng.random::<f32>() * 2.0 - 1.0,
                rng.random::<f32>() * 2.0 - 1.0,
                rng.random::<f32>() * 2.0 - 1.0,
            );
            let d = if d.length() > 1e-3 { d } else { Vec3::Y };
            Ray::new(o, d)
        })
        .collect();
    for policy in [ReorderPolicy::Morton, ReorderPolicy::OctantHash] {
        let reference: Vec<u64> = rays.iter().map(|r| ray_key(policy, r, &bounds)).collect();
        for workers in [1usize, 2, 4] {
            let keys = parallel::par_map(&rays, workers, |_, r| ray_key(policy, r, &bounds));
            if keys != reference {
                let i = keys.iter().zip(&reference).position(|(a, b)| a != b);
                return Err(CheckFailure::new(
                    "reorder-determinism",
                    format!("{policy:?} keys diverge at {workers} workers (first at ray {i:?})"),
                ));
            }
        }
        // The bucket map and the sort permutation follow the keys.
        let threads: Vec<u32> = (0..rays.len() as u32).collect();
        let (order_a, stats_a) =
            reorder_by_key(&threads, DEFAULT_REORDER_BUCKETS, |t| reference[t as usize]);
        let (order_b, stats_b) =
            reorder_by_key(&threads, DEFAULT_REORDER_BUCKETS, |t| reference[t as usize]);
        if order_a != order_b || stats_a != stats_b {
            return Err(CheckFailure::new(
                "reorder-determinism",
                format!("{policy:?}: two identical sorts disagreed"),
            ));
        }
        for (i, w) in order_a.windows(2).enumerate() {
            let (a, b) = (
                bucket_of(reference[w[0] as usize], DEFAULT_REORDER_BUCKETS),
                bucket_of(reference[w[1] as usize], DEFAULT_REORDER_BUCKETS),
            );
            if a > b {
                return Err(CheckFailure::new(
                    "reorder-determinism",
                    format!(
                        "{policy:?}: sorted position {i} is bucket {a}, position {} is {b}",
                        i + 1
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Runs the reorder differential over one case; `Ok` when both
/// identities hold.
pub fn run_reorder_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    image_identity(case)?;
    key_determinism(case)
}

/// A reorder fuzz failure: the seed, the original divergence, and the
/// shrunk reproduction.
#[derive(Clone, Debug)]
pub struct ReorderFailure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for ReorderFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reorder seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --reorder-seed {}",
            self.seed
        )
    }
}

/// Runs one seed through the reorder differential; on divergence the
/// case is shrunk before reporting.
pub fn run_reorder_seed(seed: u64) -> Result<(), Box<ReorderFailure>> {
    let case = FuzzCase::from_seed(seed);
    match run_reorder_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_reorder_case);
            Err(Box::new(ReorderFailure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive reorder seeds starting at `start`; stops at
/// the first failure. Returns the number of seeds that passed.
pub fn run_reorder_budget(start: u64, count: u64) -> Result<u64, Box<ReorderFailure>> {
    for i in 0..count {
        run_reorder_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_reorder_seeds_pass() {
        // CI runs a larger budget in release; keep the in-crate smoke
        // cheap (each seed runs twelve tiny frames).
        if let Err(failure) = run_reorder_budget(0, 2) {
            panic!("{failure}");
        }
    }

    #[test]
    fn key_determinism_holds_on_its_own() {
        let case = FuzzCase::from_seed(7);
        key_determinism(&case).unwrap();
    }
}
