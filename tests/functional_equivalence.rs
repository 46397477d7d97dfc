//! Cross-crate functional correctness: the simulated RT unit (baseline
//! and CoopRT, all subwarp scopes) must compute exactly the hits that
//! the CPU reference traversal computes, which in turn must match brute
//! force over the triangle soup.

use cooprt::bvh::traverse::{brute_force_closest_hit, closest_hit};
use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy, WARP_SIZE};
use cooprt::core::{RtUnit, TraceQuery};
use cooprt::gpu::MemoryHierarchy;
use cooprt::math::Ray;
use cooprt::scenes::{Scene, SceneId};
use cooprt::telemetry::Probe;

fn primary_rays(scene: &Scene, n: usize) -> [Option<Ray>; WARP_SIZE] {
    let mut rays = [None; WARP_SIZE];
    for (i, slot) in rays.iter_mut().enumerate().take(n) {
        let u = 0.1 + 0.8 * (i as f32 / WARP_SIZE as f32);
        *slot = Some(scene.camera.primary_ray(u, 0.4 + 0.01 * i as f32));
    }
    rays
}

fn drain_rt(
    rt: &mut RtUnit,
    mem: &mut MemoryHierarchy,
    scene: &Scene,
    cfg: &GpuConfig,
) -> Vec<cooprt::core::TraceResult> {
    let mut retired = Vec::new();
    let mut now = 0;
    let mut probe = Probe::disabled();
    while rt.occupied() > 0 {
        rt.step(now, mem, scene, cfg, &mut probe, &mut retired);
        now += 1;
        assert!(now < 50_000_000, "RT unit wedged");
    }
    retired
}

#[test]
fn bvh_reference_matches_brute_force_on_every_scene() {
    for id in [SceneId::Wknd, SceneId::Spnza, SceneId::Crnvl, SceneId::Fox] {
        let scene = id.build(2);
        for i in 0..40 {
            let u = (i % 8) as f32 / 8.0 + 0.05;
            let v = (i / 8) as f32 / 5.0 + 0.05;
            let ray = scene.camera.primary_ray(u, v);
            let a = closest_hit(&scene.image, &ray, f32::INFINITY);
            let b = brute_force_closest_hit(&scene.image, &ray, f32::INFINITY);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.triangle, y.triangle, "{id} ray {i}");
                    assert!((x.t - y.t).abs() < 1e-4);
                }
                (x, y) => panic!("{id} ray {i}: bvh {x:?} vs brute {y:?}"),
            }
        }
    }
}

#[test]
fn rt_unit_matches_cpu_reference_for_all_policies_and_subwarps() {
    let scene = SceneId::Party.build(3);
    let rays = primary_rays(&scene, WARP_SIZE);
    let expected: Vec<_> = rays
        .iter()
        .map(|r| r.map(|ray| closest_hit(&scene.image, &ray, f32::INFINITY)))
        .collect();

    let cases = [
        (TraversalPolicy::Baseline, 32usize),
        (TraversalPolicy::CoopRt, 32),
        (TraversalPolicy::CoopRt, 16),
        (TraversalPolicy::CoopRt, 8),
        (TraversalPolicy::CoopRt, 4),
    ];
    for (policy, subwarp) in cases {
        let cfg = GpuConfig::small(1).with_subwarp(subwarp);
        let mut rt = RtUnit::new(0, &cfg, policy);
        let mut mem = MemoryHierarchy::new(&cfg.mem);
        let query = TraceQuery::closest_hit(0, rays);
        assert!(rt.issue(query, 0, &scene, &mut Probe::disabled()));
        let retired = drain_rt(&mut rt, &mut mem, &scene, &cfg);
        assert_eq!(retired.len(), 1);
        for (i, exp) in expected.iter().enumerate() {
            let got = retired[0].hits[i];
            match (exp, got) {
                (None, None) | (Some(None), None) => {}
                (Some(Some(e)), Some(g)) => {
                    assert_eq!(e.triangle, g.triangle, "{policy:?}/sw{subwarp} thread {i}");
                    assert!((e.t - g.t).abs() < 1e-4);
                }
                other => panic!("{policy:?}/sw{subwarp} thread {i}: {other:?}"),
            }
        }
    }
}

#[test]
fn frame_images_match_across_every_configuration() {
    // The rendered image is a pure function of the scene and shader —
    // never of the microarchitecture.
    let scene = SceneId::Chsnt.build(2);
    let reference = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 8, 8)
        .unwrap();
    let variations = [
        GpuConfig::small(2).with_warp_buffer(16),
        GpuConfig::small(4),
        GpuConfig::small(2).with_subwarp(8),
        GpuConfig::mobile(),
    ];
    for (i, cfg) in variations.iter().enumerate() {
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let r = Simulation::new(&scene, cfg, policy)
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            assert_eq!(r.image, reference.image, "variation {i} under {policy:?}");
        }
    }
}

#[test]
fn warp_with_mixed_active_and_masked_threads_is_exact() {
    let scene = SceneId::Bunny.build(2);
    let cfg = GpuConfig::small(1);
    let rays = primary_rays(&scene, 5); // 27 masked threads
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let mut rt = RtUnit::new(0, &cfg, policy);
        let mut mem = MemoryHierarchy::new(&cfg.mem);
        let query = TraceQuery::closest_hit(0, rays);
        rt.issue(query, 0, &scene, &mut Probe::disabled());
        let retired = drain_rt(&mut rt, &mut mem, &scene, &cfg);
        for i in 5..WARP_SIZE {
            assert!(
                retired[0].hits[i].is_none(),
                "masked thread {i} must report no hit"
            );
        }
        #[allow(clippy::needless_range_loop)] // i is the SIMT lane id
        for i in 0..5 {
            let exp = closest_hit(&scene.image, &rays[i].unwrap(), f32::INFINITY);
            assert_eq!(
                exp.is_some(),
                retired[0].hits[i].is_some(),
                "thread {i} ({policy:?})"
            );
        }
    }
}

#[test]
fn any_hit_results_agree_with_reference_any_hit() {
    let scene = SceneId::Ref.build(2);
    let cfg = GpuConfig::small(1);
    let rays = primary_rays(&scene, 16);
    let mut query = TraceQuery::closest_hit(0, rays);
    query.any_hit = true;
    query.t_max = [20.0; WARP_SIZE];
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let mut rt = RtUnit::new(0, &cfg, policy);
        let mut mem = MemoryHierarchy::new(&cfg.mem);
        rt.issue(query.clone(), 0, &scene, &mut Probe::disabled());
        let retired = drain_rt(&mut rt, &mut mem, &scene, &cfg);
        #[allow(clippy::needless_range_loop)] // i is the SIMT lane id
        for i in 0..16 {
            let expected = cooprt::bvh::traverse::any_hit(&scene.image, &rays[i].unwrap(), 20.0);
            assert_eq!(
                retired[0].hits[i].is_some(),
                expected,
                "thread {i} any-hit mismatch ({policy:?})"
            );
        }
    }
}
