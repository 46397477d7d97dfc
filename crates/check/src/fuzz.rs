//! Deterministic config/scene fuzzing.
//!
//! A [`FuzzCase`] is fully determined by a 64-bit seed: it samples a
//! simulator configuration (cache geometry, MSHR slots, warp-buffer and
//! subwarp sizes, LBU rate, DRAM channels) and a small procedural
//! scene, then [`run_case`] drives every differential oracle over it:
//!
//! 1. the flat cache, slotted MSHR and bucketed event calendar against
//!    their map/heap reference models on seeded operation traces;
//! 2. the BVH reference traversal against brute force over the soup;
//! 3. a full baseline-vs-CoopRT frame pair — images must be bitwise
//!    identical, and both runs execute with the engine's invariant
//!    [`Checker`] enabled and must finish clean.
//!
//! Everything derives from the in-tree PRNG with explicit seeds, so a
//! failing seed replays exactly (`examples/simcheck.rs --seed N`).

use crate::oracle::{self, CalendarOp, MshrOp};
use crate::{shrink, CheckFailure};
use cooprt_core::{Checker, GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt_math::{Aabb, Ray, Rgb, Vec3};
use cooprt_scenes::{quad, scatter_clutter, Camera, Material, Scene, SceneBuilder};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::fmt;

/// One fuzzed simulator configuration plus procedural scene, fully
/// determined by [`FuzzCase::from_seed`].
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The generating seed (kept through shrinking for reporting).
    pub seed: u64,
    /// Frame width, pixels.
    pub width: usize,
    /// Frame height, pixels.
    pub height: usize,
    /// Clutter triangles scattered above the ground plane.
    pub clutter: usize,
    /// Seed of the scene's triangle scatter.
    pub scene_seed: u64,
    /// Shader driven over the frame.
    pub shader: ShaderKind,
    /// SM (and RT-unit) count.
    pub sm_count: usize,
    /// RT warp-buffer entries per unit.
    pub warp_buffer: usize,
    /// LBU subwarp scope (4, 8, 16 or 32).
    pub subwarp: usize,
    /// LBU node moves per subwarp per cycle.
    pub lbu_moves: u32,
    /// Cache line size, bytes (all levels).
    pub line_bytes: u32,
    /// L1 capacity, bytes.
    pub l1_bytes: u64,
    /// L1 associativity (`0` = fully associative).
    pub l1_assoc: u32,
    /// L1 MSHR slots.
    pub l1_mshr: usize,
    /// L2 capacity, bytes.
    pub l2_bytes: u64,
    /// L2 associativity (`0` = fully associative).
    pub l2_assoc: u32,
    /// L2 MSHR slots.
    pub l2_mshr: usize,
    /// Independent DRAM channels.
    pub dram_channels: usize,
}

impl FuzzCase {
    /// Samples a case from `seed`. The same seed always yields the same
    /// case, on every platform.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let line_bytes = [32u32, 64, 128][rng.random_range(0usize..3)];
        // Cache geometry is drawn in *lines* (4+ at the L1, 32+ at the
        // L2), so every sampled associativity below satisfies the
        // constructor's `assoc <= line count` requirement.
        let l1_lines = rng.random_range(4u64..64);
        let l1_assoc = [0u32, 1, 2, 4][rng.random_range(0usize..4)];
        let l2_lines = rng.random_range(32u64..256);
        let l2_assoc = [0u32, 2, 4, 8, 16][rng.random_range(0usize..5)];
        FuzzCase {
            seed,
            width: rng.random_range(4usize..25),
            height: rng.random_range(4usize..25),
            clutter: rng.random_range(4usize..61),
            scene_seed: rng.random(),
            shader: [
                ShaderKind::PathTrace,
                ShaderKind::AmbientOcclusion,
                ShaderKind::Shadow,
            ][rng.random_range(0usize..3)],
            sm_count: rng.random_range(1usize..4),
            warp_buffer: rng.random_range(1usize..7),
            subwarp: [4usize, 8, 16, 32][rng.random_range(0usize..4)],
            lbu_moves: rng.random_range(1u32..4),
            line_bytes,
            l1_bytes: l1_lines * line_bytes as u64,
            l1_assoc,
            l1_mshr: rng.random_range(1usize..33),
            l2_bytes: l2_lines * line_bytes as u64,
            l2_assoc,
            l2_mshr: rng.random_range(2usize..129),
            dram_channels: rng.random_range(1usize..9),
        }
    }

    /// The GPU configuration this case describes.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::small(self.sm_count)
            .with_warp_buffer(self.warp_buffer)
            .with_subwarp(self.subwarp);
        cfg.lbu_moves_per_cycle = self.lbu_moves;
        cfg.mem.line_bytes = self.line_bytes;
        cfg.mem.l1_bytes = self.l1_bytes;
        cfg.mem.l1_assoc = self.l1_assoc;
        cfg.mem.l1_mshr_entries = self.l1_mshr;
        cfg.mem.l2_bytes = self.l2_bytes;
        cfg.mem.l2_assoc = self.l2_assoc;
        cfg.mem.l2_mshr_entries = self.l2_mshr;
        cfg.mem.dram_channels = self.dram_channels;
        cfg
    }

    /// Builds the case's procedural scene: a ground quad plus
    /// [`FuzzCase::clutter`] scattered triangles.
    pub fn scene(&self) -> Scene {
        let cam = Camera::look_at(
            Vec3::new(0.0, 2.5, 11.0),
            Vec3::ZERO,
            Vec3::Y,
            58.0,
            self.width.max(1) as f32 / self.height.max(1) as f32,
        );
        SceneBuilder::new(format!("fuzz-{:#x}", self.seed), cam)
            .push(
                quad(Vec3::new(-18.0, 0.0, -18.0), Vec3::X * 36.0, Vec3::Z * 36.0),
                Material::Lambertian {
                    albedo: Rgb::splat(0.5),
                },
            )
            .push(
                scatter_clutter(
                    Aabb::new(Vec3::new(-5.0, 0.4, -5.0), Vec3::new(5.0, 4.5, 5.0)),
                    self.clutter,
                    0.2..0.8,
                    self.scene_seed,
                ),
                Material::Lambertian {
                    albedo: Rgb::splat(0.7),
                },
            )
            .build()
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {:#x}: {}x{} {:?}, {} clutter tris, {} SM(s), warp buffer {}, \
             subwarp {} ({} move/cycle), L1 {}B/{}-way, \
             L2 {}B/{}-way, {}B lines, MSHR {}/{}, {} DRAM channel(s)",
            self.seed,
            self.width,
            self.height,
            self.shader,
            self.clutter,
            self.sm_count,
            self.warp_buffer,
            self.subwarp,
            self.lbu_moves,
            self.l1_bytes,
            self.l1_assoc,
            self.l2_bytes,
            self.l2_assoc,
            self.line_bytes,
            self.l1_mshr,
            self.l2_mshr,
            self.dram_channels,
        )
    }
}

/// Structural-trace lengths: long enough to force evictions, rebases
/// and MSHR saturation under every sampled geometry, short enough that
/// a 64-seed CI budget stays in seconds.
const CACHE_TRACE_LEN: usize = 4_000;
const MSHR_TRACE_LEN: usize = 3_000;
const CALENDAR_TRACE_LEN: usize = 5_000;

/// Runs every differential oracle over `case`; `Ok` when all agree.
pub fn run_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    structural_oracles(case)?;
    let scene = case.scene();
    geometry_oracle(case, &scene)?;
    image_identity_oracle(case, &scene)
}

/// Cache / MSHR / calendar trace replays with case-derived geometry and
/// seeds.
fn structural_oracles(case: &FuzzCase) -> Result<(), CheckFailure> {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xCAC4E);
    // Address span ~4x the L2 so evictions are frequent at every level.
    let span = 4 * case.l2_bytes;
    let trace: Vec<u64> = (0..CACHE_TRACE_LEN)
        .map(|i| match i % 3 {
            0 => rng.random_range(0..span),
            1 => (i as u64 * case.line_bytes as u64) % span, // streaming
            _ => (i as u64 / 5 * case.line_bytes as u64) % (case.l1_bytes / 2).max(1), // hot loop
        })
        .collect();
    oracle::replay_cache(case.l1_bytes, case.l1_assoc, case.line_bytes, &trace)?;
    oracle::replay_cache(case.l2_bytes, case.l2_assoc, case.line_bytes, &trace)?;

    let mut now = 0u64;
    // Line universe ~2x the MSHR capacity: saturation and eviction are
    // routine, merges frequent.
    let lines = (2 * case.l1_mshr).max(4) as u64;
    let ops: Vec<MshrOp> = (0..MSHR_TRACE_LEN)
        .map(|_| {
            now += rng.random_range(0u64..6);
            let line = rng.random_range(0..lines);
            if rng.random_range(0u32..3) == 0 {
                MshrOp::Insert {
                    line,
                    done: now + rng.random_range(1u64..500),
                    now,
                }
            } else {
                MshrOp::Lookup { line, now }
            }
        })
        .collect();
    oracle::replay_mshr(case.l1_mshr, &ops)?;
    oracle::replay_mshr(case.l2_mshr, &ops)?;

    let mut now = 0u64;
    let ops: Vec<CalendarOp> = (0..CALENDAR_TRACE_LEN)
        .map(|_| {
            now += rng.random_range(0u64..40);
            if rng.random_range(0u32..3) == 0 {
                CalendarOp::PopReady { now }
            } else {
                // Latencies from L1-hit scale to saturated-DRAM backlog:
                // exercises both the near wheel and far-level cascades.
                CalendarOp::Push {
                    cycle: now + rng.random_range(1u64..4_000),
                    payload: rng.random(),
                }
            }
        })
        .collect();
    oracle::replay_calendar(&ops)
}

/// BVH-vs-brute-force over a camera ray grid plus random box-crossing
/// rays.
fn geometry_oracle(case: &FuzzCase, scene: &Scene) -> Result<(), CheckFailure> {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xB44);
    let mut rays = Vec::with_capacity(96);
    for i in 0..8 {
        for j in 0..8 {
            rays.push(
                scene
                    .camera
                    .primary_ray((i as f32 + 0.5) / 8.0, (j as f32 + 0.5) / 8.0),
            );
        }
    }
    for _ in 0..32 {
        let orig = Vec3::new(
            rng.random_range(-12.0f32..12.0),
            rng.random_range(0.1f32..8.0),
            rng.random_range(-12.0f32..12.0),
        );
        let target = Vec3::new(
            rng.random_range(-5.0f32..5.0),
            rng.random_range(0.0f32..4.0),
            rng.random_range(-5.0f32..5.0),
        );
        rays.push(Ray::new(orig, (target - orig).normalized()));
    }
    oracle::bvh_vs_brute_force(&scene.image, &rays)
}

/// Baseline-vs-CoopRT bitwise image identity, with the engine invariant
/// checker enabled on both runs.
fn image_identity_oracle(case: &FuzzCase, scene: &Scene) -> Result<(), CheckFailure> {
    let cfg = case.gpu_config();
    let mut frames = Vec::new();
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let checker = Checker::enabled();
        let frame = Simulation::new(scene, &cfg, policy)
            .with_checker(checker.clone())
            .run_frame(case.shader, case.width, case.height)
            .map_err(|e| CheckFailure::new("engine", format!("{policy:?}: {e}")))?;
        if checker.checks_run() == 0 {
            return Err(CheckFailure::new(
                "invariants",
                format!("{policy:?}: enabled checker evaluated no invariants"),
            ));
        }
        let violations = checker.violations();
        if !violations.is_empty() {
            return Err(CheckFailure::new(
                "invariants",
                format!("{policy:?}: {}", violations.join("; ")),
            ));
        }
        frames.push(frame);
    }
    let (base, coop) = (&frames[0], &frames[1]);
    for (i, (a, b)) in base.image.iter().zip(coop.image.iter()).enumerate() {
        let bits = |c: &Rgb| [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()];
        if bits(a) != bits(b) {
            return Err(CheckFailure::new(
                "image",
                format!(
                    "pixel {i} ({}, {}) differs between policies: baseline {a:?}, cooprt {b:?}",
                    i % case.width,
                    i / case.width
                ),
            ));
        }
    }
    Ok(())
}

/// A fuzz failure: the seed, the original divergence, and the shrunk
/// reproduction.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --seed {}",
            self.seed
        )
    }
}

/// Runs one seed end to end; on divergence the case is shrunk before
/// reporting.
pub fn run_seed(seed: u64) -> Result<(), Box<Failure>> {
    let case = FuzzCase::from_seed(seed);
    match run_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_case);
            Err(Box::new(Failure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive seeds starting at `start`; stops at the
/// first failure. Returns the number of seeds that passed.
pub fn run_budget(start: u64, count: u64) -> Result<u64, Box<Failure>> {
    for i in 0..count {
        run_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_seed_sensitive() {
        assert_eq!(FuzzCase::from_seed(7), FuzzCase::from_seed(7));
        assert_ne!(FuzzCase::from_seed(7), FuzzCase::from_seed(8));
    }

    #[test]
    fn sampled_geometry_is_always_constructible() {
        // Every sampled case must satisfy the constructors' asserts
        // (cache associativity vs line count, non-zero MSHRs, subwarp
        // whitelist) — build all the pieces for a spread of seeds.
        for seed in 0..200u64 {
            let case = FuzzCase::from_seed(seed);
            let cfg = case.gpu_config();
            assert!(cfg.mem.l1_bytes >= cfg.mem.line_bytes as u64);
            let _ = cooprt_gpu::Cache::new(case.l1_bytes, case.l1_assoc, case.line_bytes);
            let _ = cooprt_gpu::Cache::new(case.l2_bytes, case.l2_assoc, case.line_bytes);
            let _ = cooprt_gpu::Mshr::new(case.l1_mshr);
        }
    }

    #[test]
    fn a_handful_of_seeds_pass_every_oracle() {
        // The CI budget runs 64+ seeds in release; keep the in-crate
        // smoke cheap.
        if let Err(failure) = run_budget(0, 4) {
            panic!("{failure}");
        }
    }

    #[test]
    fn scene_reflects_the_clutter_knob() {
        let mut case = FuzzCase::from_seed(3);
        case.clutter = 10;
        let small = case.scene().triangle_count();
        case.clutter = 40;
        let big = case.scene().triangle_count();
        assert!(big > small);
    }
}
