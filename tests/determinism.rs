//! Determinism: the whole stack — scene generation, BVH build,
//! simulation, statistics — must be bit-reproducible run to run, which
//! is what makes the benchmark harness trustworthy.

use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::{SceneId, ALL_SCENES};

#[test]
fn scene_generation_is_reproducible() {
    for id in ALL_SCENES {
        let a = id.build(2);
        let b = id.build(2);
        assert_eq!(a.image.triangles(), b.image.triangles(), "{id}");
        assert_eq!(a.stats, b.stats, "{id}");
        assert_eq!(a.lights, b.lights, "{id}");
    }
}

#[test]
fn full_simulation_is_reproducible() {
    let scene = SceneId::Crnvl.build(2);
    let cfg = GpuConfig::small(2);
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let a = Simulation::new(&scene, &cfg, policy)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        let b = Simulation::new(&scene, &cfg, policy)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        assert_eq!(a.cycles, b.cycles, "{policy:?}");
        assert_eq!(a.image, b.image);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.slowest_warp_cycles, b.slowest_warp_cycles);
    }
}

#[test]
fn activity_sampling_is_reproducible() {
    let scene = SceneId::Bath.build(2);
    let cfg = GpuConfig::small(2);
    let a = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    let b = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    assert_eq!(a.intervals.samples, b.intervals.samples);
}

#[test]
fn timelines_are_reproducible() {
    let scene = SceneId::Spnza.build(2);
    let cfg = GpuConfig::small(2);
    let a = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .with_timeline_warp(1)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    let b = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .with_timeline_warp(1)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    assert_eq!(a.timeline, b.timeline);
}

#[test]
fn accumulation_is_worker_count_invariant() {
    // The parallel sample runner distributes spp over worker threads but
    // reduces in fixed sample order, so any worker count produces the
    // same bits as the sequential path.
    let scene = SceneId::Fox.build(2);
    let sim = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::CoopRt);
    let (ref_accum, ref_frames) = sim
        .run_accumulated_with_threads(ShaderKind::PathTrace, 8, 8, 3, 1)
        .unwrap();
    for workers in [2, 8] {
        let (accum, frames) = sim
            .run_accumulated_with_threads(ShaderKind::PathTrace, 8, 8, 3, workers)
            .unwrap();
        assert_eq!(accum, ref_accum, "{workers} workers");
        for (a, b) in ref_frames.iter().zip(&frames) {
            assert_eq!(a.image, b.image);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.events, b.events);
        }
    }
}

#[test]
fn different_details_produce_different_scenes() {
    let a = SceneId::Fox.build(2);
    let b = SceneId::Fox.build(3);
    assert_ne!(a.triangle_count(), b.triangle_count());
}

#[test]
fn shader_kinds_produce_distinct_images() {
    let scene = SceneId::Wknd.build(2);
    let cfg = GpuConfig::small(2);
    let pt = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 8, 8)
        .unwrap();
    let ao = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::AmbientOcclusion, 8, 8)
        .unwrap();
    let sh = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::Shadow, 8, 8)
        .unwrap();
    assert_ne!(pt.image, ao.image);
    assert_ne!(ao.image, sh.image);
}
