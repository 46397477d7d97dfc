//! Determinism contract of the parallel harness: every parallel entry
//! point must produce results bitwise identical to its sequential
//! equivalent, for any worker count — plus a wall-clock speedup check
//! on hosts with enough cores.

use cooprt_bench::parallel;
use cooprt_core::{Checker, FrameResult, GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt_scenes::{Scene, SceneId};
use std::time::Instant;

const MATRIX_SCENES: [SceneId; 4] = [SceneId::Wknd, SceneId::Fox, SceneId::Party, SceneId::Bath];

fn run_cell(scene: &Scene, policy: TraversalPolicy, res: usize) -> FrameResult {
    Simulation::new(scene, &GpuConfig::small(4), policy)
        .run_frame(ShaderKind::PathTrace, res, res)
        .unwrap()
}

fn assert_frames_identical(a: &FrameResult, b: &FrameResult, what: &str) {
    assert_eq!(a.image, b.image, "{what}: image must be bitwise identical");
    assert_eq!(a.cycles, b.cycles, "{what}: cycle count must match");
    assert_eq!(a.events, b.events, "{what}: event counters must match");
    assert_eq!(a.mem, b.mem, "{what}: memory statistics must match");
    assert_eq!(a.rays, b.rays, "{what}: ray count must match");
}

/// The scene x policy matrix run through `par_map` on several workers is
/// bitwise identical to the plain sequential loop, for every worker
/// count (including more workers than jobs).
#[test]
fn parallel_matrix_is_bitwise_identical_to_sequential() {
    let scenes: Vec<Scene> = MATRIX_SCENES.iter().map(|id| id.build(4)).collect();
    let jobs: Vec<(usize, TraversalPolicy)> = (0..scenes.len())
        .flat_map(|i| [(i, TraversalPolicy::Baseline), (i, TraversalPolicy::CoopRt)])
        .collect();
    let sequential: Vec<FrameResult> = jobs
        .iter()
        .map(|&(i, policy)| run_cell(&scenes[i], policy, 12))
        .collect();
    for workers in [1, 2, 4, 16] {
        let parallel = parallel::par_map(&jobs, workers, |_, &(i, policy)| {
            run_cell(&scenes[i], policy, 12)
        });
        assert_eq!(parallel.len(), sequential.len());
        for (k, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            let (i, policy) = jobs[k];
            assert_frames_identical(
                s,
                p,
                &format!(
                    "{} {policy:?} on {workers} workers",
                    MATRIX_SCENES[i].name()
                ),
            );
        }
    }
}

/// The baseline/CoopRT pair evaluated via `parallel::join` matches the
/// two sequential calls exactly.
#[test]
fn joined_policy_pair_matches_sequential_pair() {
    let scene = SceneId::Crnvl.build(4);
    let seq_base = run_cell(&scene, TraversalPolicy::Baseline, 12);
    let seq_coop = run_cell(&scene, TraversalPolicy::CoopRt, 12);
    let (par_base, par_coop) = parallel::join(
        2,
        || run_cell(&scene, TraversalPolicy::Baseline, 12),
        || run_cell(&scene, TraversalPolicy::CoopRt, 12),
    );
    assert_frames_identical(&seq_base, &par_base, "baseline via join");
    assert_frames_identical(&seq_coop, &par_coop, "cooprt via join");
}

/// Multi-sample accumulation is invariant to the worker count: the
/// accumulated image (f32 sums in fixed order) and every per-sample
/// frame are bitwise identical. Every run is checked, and concurrent
/// samples sharing the one checker must not trip each other's
/// per-cycle invariants.
#[test]
fn accumulation_is_thread_count_invariant() {
    let scene = SceneId::Fox.build(4);
    let sim = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::CoopRt);
    let checked = |workers| {
        let checker = Checker::enabled();
        let run = sim
            .clone()
            .with_checker(checker.clone())
            .run_accumulated_with_threads(ShaderKind::PathTrace, 8, 8, 4, workers)
            .unwrap();
        assert!(checker.checks_run() > 0, "{workers} workers ran no checks");
        checker.assert_clean();
        run
    };
    let (ref_accum, ref_frames) = checked(1);
    for workers in [2, 4, 8] {
        let (accum, frames) = checked(workers);
        assert_eq!(accum, ref_accum, "accumulated image on {workers} workers");
        assert_eq!(frames.len(), ref_frames.len());
        for (a, b) in ref_frames.iter().zip(&frames) {
            assert_frames_identical(a, b, &format!("sample frame on {workers} workers"));
        }
    }
}

/// Scene suite construction through the parallel builder matches
/// building each scene directly.
#[test]
fn parallel_scene_build_matches_direct_build() {
    let built = parallel::par_map(&MATRIX_SCENES, 4, |_, id| id.build(4));
    for (id, scene) in MATRIX_SCENES.iter().zip(&built) {
        let direct = id.build(4);
        assert_eq!(scene.image.triangles(), direct.image.triangles(), "{id}");
        assert_eq!(scene.stats, direct.stats, "{id}");
        assert_eq!(scene.lights, direct.lights, "{id}");
    }
}

/// On hosts with at least 4 cores, running the 4-scene matrix on 4
/// workers must be at least 2x faster than the sequential loop while
/// remaining bitwise identical. On smaller hosts only the identity part
/// is meaningful, so the timing assertion is skipped.
#[test]
fn four_workers_give_twofold_matrix_speedup() {
    let scenes: Vec<Scene> = MATRIX_SCENES.iter().map(|id| id.build(6)).collect();
    let jobs: Vec<(usize, TraversalPolicy)> = (0..scenes.len())
        .flat_map(|i| [(i, TraversalPolicy::Baseline), (i, TraversalPolicy::CoopRt)])
        .collect();
    let res = 24;

    let t0 = Instant::now();
    let sequential = parallel::par_map(&jobs, 1, |_, &(i, policy)| {
        run_cell(&scenes[i], policy, res)
    });
    let seq_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let concurrent = parallel::par_map(&jobs, 4, |_, &(i, policy)| {
        run_cell(&scenes[i], policy, res)
    });
    let par_secs = t1.elapsed().as_secs_f64();

    for (s, p) in sequential.iter().zip(&concurrent) {
        assert_frames_identical(s, p, "speedup matrix");
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!(
            "host has only {cores} core(s); skipping the 2x wall-clock assertion \
             (identity checks above still ran)"
        );
        return;
    }
    let speedup = seq_secs / par_secs.max(1e-12);
    assert!(
        speedup >= 2.0,
        "expected >= 2x matrix speedup on 4 workers, got {speedup:.2}x \
         (sequential {seq_secs:.3}s, parallel {par_secs:.3}s)"
    );
}
