//! Invariants of the measurement plumbing itself: every statistic a
//! `FrameResult` reports must be internally consistent, for every
//! combination of policy and shader.

use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::SceneId;

fn all_runs() -> Vec<(TraversalPolicy, ShaderKind)> {
    let mut v = Vec::new();
    for p in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        for k in [
            ShaderKind::PathTrace,
            ShaderKind::AmbientOcclusion,
            ShaderKind::Shadow,
        ] {
            v.push((p, k));
        }
    }
    v
}

#[test]
fn frame_statistics_are_internally_consistent() {
    let scene = SceneId::Party.build(3);
    let cfg = GpuConfig::small(2);
    for (policy, kind) in all_runs() {
        let r = Simulation::new(&scene, &cfg, policy)
            .run_frame(kind, 10, 10)
            .unwrap();
        let label = format!("{policy:?}/{kind:?}");

        // Image geometry.
        assert_eq!(r.image.len(), 100, "{label}");
        let buf = r.image_buffer();
        assert_eq!((buf.width(), buf.height()), (10, 10));

        // One latency sample per trace instruction; none longer than
        // the frame.
        assert_eq!(
            r.trace_latencies.len() as u64,
            r.events.trace_instructions,
            "{label}"
        );
        assert!(r.trace_latencies.max() <= r.cycles, "{label}");
        assert!(r.slowest_warp_cycles <= r.cycles, "{label}");

        // Memory counters: hits never exceed accesses; fills imply
        // traffic in the right ratios.
        assert!(r.mem.l1.hits <= r.mem.l1.accesses, "{label}");
        assert!(r.mem.l2.hits <= r.mem.l2.accesses, "{label}");
        assert!(
            r.mem.dram_bytes <= r.mem.l2_bytes,
            "{label}: DRAM fills flow through L2"
        );

        // Interval samples are in increasing time order and within the
        // frame.
        assert!(
            r.intervals
                .samples
                .windows(2)
                .all(|w| w[0].cycle < w[1].cycle),
            "{label}"
        );
        let dist = r.intervals.status_distribution();
        assert!(
            (dist.iter().sum::<f64>() - 1.0).abs() < 1e-9 || dist == [0.0; 3],
            "{label}"
        );

        // Stall accounting covers all classes non-negatively and the
        // fractions normalize.
        let f = r.stalls.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{label}");

        // Energy: positive, consistent with cycles.
        assert!(r.energy.total_j() > 0.0, "{label}");
        assert_eq!(r.energy.cycles, r.cycles, "{label}");
        assert!(
            r.energy.dynamic_j > 0.0 && r.energy.static_j > 0.0,
            "{label}"
        );
    }
}

#[test]
fn lbu_moves_only_under_cooprt() {
    let scene = SceneId::Fox.build(3);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    assert_eq!(base.events.lbu_moves, 0);
    assert!(coop.events.lbu_moves > 0);
}

#[test]
fn trace_count_matches_shader_structure() {
    // AO issues exactly 1 primary + ao_samples secondary trace waves per
    // warp that has a primary hit; with a closed room (every primary
    // hits), each warp issues 1 + ao_samples instructions.
    let scene = SceneId::Bath.build(2); // closed: all primaries hit
    let cfg = GpuConfig::small(2);
    let r = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::AmbientOcclusion, 16, 16)
        .unwrap();
    let warps = (16 * 16usize).div_ceil(32) as u64;
    assert_eq!(
        r.events.trace_instructions,
        warps * (1 + cfg.ao_samples as u64)
    );
}

#[test]
fn pt_trace_count_bounded_by_bounce_budget() {
    let scene = SceneId::Spnza.build(2);
    let mut cfg = GpuConfig::small(2);
    cfg.max_bounces = 5;
    let r = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 16, 16)
        .unwrap();
    let warps = (16 * 16usize).div_ceil(32) as u64;
    assert!(
        r.events.trace_instructions <= warps * 5,
        "budget must cap trace count"
    );
    assert!(
        r.events.trace_instructions >= warps,
        "every warp traces at least once"
    );
}

#[test]
fn mobile_and_desktop_agree_functionally() {
    let scene = SceneId::Sprng.build(2);
    let desktop = Simulation::new(&scene, &GpuConfig::small(4), TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 8, 8)
        .unwrap();
    let mobile = Simulation::new(&scene, &GpuConfig::mobile(), TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 8, 8)
        .unwrap();
    assert_eq!(desktop.image, mobile.image);
}

#[test]
fn bandwidth_metrics_scale_inversely_with_cycles() {
    // Same traffic in fewer cycles = more bandwidth; verify directly
    // from the counters rather than trusting the helper.
    let scene = SceneId::Lands.build(3);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 10, 10)
        .unwrap();
    let bw = base.mem.l2_bandwidth(base.cycles);
    assert!((bw - base.mem.l2_bytes as f64 / base.cycles as f64).abs() < 1e-12);
    assert!(base.mem.l2_bandwidth(0) == 0.0);
}
