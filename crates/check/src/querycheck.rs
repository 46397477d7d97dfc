//! Spatial-query differential oracle.
//!
//! `cooprt-query` claims its RT-unit query answers are **exact**: kNN,
//! fixed-radius search and point-in-cell containment computed through
//! the timing model (gather traversal, LBU work-stealing, warp
//! scheduling) must equal a brute-force scan of the raw point set or
//! cell grid, bit for bit. This module fuzzes that claim from a
//! [`FuzzCase`]:
//!
//! 1. **Engine == oracle** — every query kind the sampled domain
//!    supports is run under both traversal policies and compared to
//!    [`cooprt_query::oracle_answers`] (same query points, same `f32`
//!    filters, no BVH).
//! 2. **Policy invariance** — follows from (1): baseline and CoopRT
//!    both equal the oracle, so LBU stealing provably never leaks a
//!    candidate to the wrong query or drops one.
//!
//! The query scene is derived from the case's `scene_seed`/`clutter`
//! fields (a point cloud of one of three shapes, or an AMR cell grid),
//! so [`shrink`] minimizes point counts and batch sizes
//! through the existing pipeline. Failing seeds report a
//! `simcheck -- --query-seed N` replay command.

use crate::fuzz::FuzzCase;
use crate::{shrink, CheckFailure};
use cooprt_core::{ShaderKind, TraversalPolicy};
use cooprt_math::{Aabb, Rgb, Vec3};
use cooprt_query::{oracle_answers, run_queries};
use cooprt_scenes::{
    amr_cells, cell_tris, clustered_points, point_cloud_tris, surface_points, uniform_points,
    Camera, Material, QueryDomain, Scene, SceneBuilder,
};
use std::fmt;

/// Builds the query scene a case describes: `scene_seed` picks one of
/// four domain shapes (uniform / clustered / surface point clouds, or
/// an AMR cell grid) and `clutter` scales the point / cell count, so
/// shrinking a failing case shrinks its domain.
pub fn query_scene(case: &FuzzCase) -> Scene {
    let seed = case.scene_seed;
    let n = case.clutter.max(4);
    let cam = Camera::look_at(Vec3::new(14.0, 12.0, 14.0), Vec3::ZERO, Vec3::Y, 45.0, 1.0);
    let name = format!("queryfuzz-{:#x}", case.seed);
    let region = Aabb::new(Vec3::splat(-7.0), Vec3::splat(7.0));
    let mat = Material::Lambertian {
        albedo: Rgb::splat(0.6),
    };
    match seed % 4 {
        0 => {
            let pts = uniform_points(region, n, seed);
            SceneBuilder::new(name, cam)
                .push(point_cloud_tris(&pts, 1.5), mat)
                .query(QueryDomain::points(pts, 1.5, 4, 0))
                .build()
        }
        1 => {
            let pts = clustered_points(region, n, 3, 1.0, seed);
            SceneBuilder::new(name, cam)
                .push(point_cloud_tris(&pts, 1.2), mat)
                .query(QueryDomain::points(pts, 1.2, 4, 0))
                .build()
        }
        2 => {
            let pts = surface_points(Vec3::ZERO, 5.0, n, seed);
            SceneBuilder::new(name, cam)
                .push(point_cloud_tris(&pts, 0.9), mat)
                .query(QueryDomain::points(pts, 0.9, 4, 0))
                .build()
        }
        _ => {
            // Cell grids come in even resolutions; clutter scales the
            // refinement between 2^3 and 6^3 (+ fine octant).
            let g = (2 + 2 * (n / 24)).min(6);
            let cells = amr_cells(region, g);
            SceneBuilder::new(name, cam)
                .push(cell_tris(&cells), mat)
                .query(QueryDomain::cells(cells, 0))
                .build()
        }
    }
}

/// Runs the query differential over one case; `Ok` when every supported
/// query kind matches the brute-force oracle under both policies.
pub fn run_query_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = query_scene(case);
    let domain = scene.query.as_ref().expect("query scenes carry a domain");
    let kinds: &[ShaderKind] = if domain.is_cells() {
        &[ShaderKind::Contain]
    } else {
        &[ShaderKind::Knn, ShaderKind::Radius]
    };
    let cfg = case.gpu_config();
    let count = (case.width * case.height).max(1);
    for &kind in kinds {
        let want = oracle_answers(&scene, kind, count, case.seed);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let run = run_queries(&scene, &cfg, policy, kind, count, case.seed)
                .map_err(|e| CheckFailure::new("engine", format!("{kind:?} {policy:?}: {e}")))?;
            if run.answers.len() != want.len() {
                return Err(CheckFailure::new(
                    "query-exact",
                    format!(
                        "{kind:?} under {policy:?}: {} answers for {} queries",
                        run.answers.len(),
                        want.len()
                    ),
                ));
            }
            for (i, (got, oracle)) in run.answers.iter().zip(want.iter()).enumerate() {
                if got != oracle {
                    return Err(CheckFailure::new(
                        "query-exact",
                        format!(
                            "{kind:?} under {policy:?}: query {i} answered {got:?}, \
                             brute force says {oracle:?}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A query fuzz failure: the seed, the original divergence, and the
/// shrunk reproduction.
#[derive(Clone, Debug)]
pub struct QueryFailure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "query seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --query-seed {}",
            self.seed
        )
    }
}

/// Runs one seed through the query differential; on divergence the case
/// is shrunk before reporting.
pub fn run_query_seed(seed: u64) -> Result<(), Box<QueryFailure>> {
    let case = FuzzCase::from_seed(seed);
    match run_query_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_query_case);
            Err(Box::new(QueryFailure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive query seeds starting at `start`; stops at
/// the first failure. Returns the number of seeds that passed.
pub fn run_query_budget(start: u64, count: u64) -> Result<u64, Box<QueryFailure>> {
    for i in 0..count {
        run_query_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_query_seeds_pass() {
        // CI runs a larger budget in release; keep the in-crate smoke
        // cheap (each seed runs four-to-eight small query batches).
        if let Err(failure) = run_query_budget(0, 2) {
            panic!("{failure}");
        }
    }

    #[test]
    fn all_four_domain_shapes_are_reachable() {
        let mut seen = [false; 4];
        let mut seed = 0u64;
        while seen.iter().any(|s| !s) {
            let case = FuzzCase::from_seed(seed);
            seen[(case.scene_seed % 4) as usize] = true;
            seed += 1;
            assert!(seed < 64, "domain shapes should all appear in 64 seeds");
        }
    }
}
