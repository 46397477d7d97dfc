//! Smoke-scale checks of the paper's qualitative claims. Each test runs
//! a reduced version of an evaluation experiment and asserts the *shape*
//! of the result (who wins, in which direction), not absolute numbers.

use cooprt::core::area::{cooprt_area, overhead_fraction, warp_buffer_bits};
use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::SceneId;

const RES: usize = 16;
const DETAIL: u32 = 6;

fn speedup(id: SceneId, cfg: &GpuConfig, kind: ShaderKind) -> f64 {
    let scene = id.build(DETAIL);
    let base = Simulation::new(&scene, cfg, TraversalPolicy::Baseline)
        .run_frame(kind, RES, RES)
        .unwrap();
    let coop = Simulation::new(&scene, cfg, TraversalPolicy::CoopRt)
        .run_frame(kind, RES, RES)
        .unwrap();
    assert_eq!(base.image, coop.image);
    base.cycles as f64 / coop.cycles as f64
}

#[test]
fn fig9_cooprt_speeds_up_path_tracing() {
    let cfg = GpuConfig::small(2);
    let mut product = 1.0;
    let ids = [SceneId::Ship, SceneId::Bunny, SceneId::Fox, SceneId::Lands];
    for id in ids {
        let s = speedup(id, &cfg, ShaderKind::PathTrace);
        assert!(s > 1.0, "{id}: speedup {s:.2} must exceed 1");
        product *= s;
    }
    let gmean = product.powf(1.0 / ids.len() as f64);
    assert!(
        gmean > 1.3,
        "gmean {gmean:.2} should be well above 1 (paper: 2.15)"
    );
}

#[test]
fn fig1_rt_instructions_dominate_stalls() {
    let scene = SceneId::Bath.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let r = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let f = r.stalls.fractions();
    assert!(
        f[0] > f[1] && f[0] > f[2] && f[0] > f[3],
        "RT must dominate: {f:?}"
    );
}

#[test]
fn fig4_substantial_thread_time_is_wasted_at_baseline() {
    // At full experiment scale the wasted fraction is ~0.8 (see the
    // fig04 bench); at this smoke scale we assert it stays substantial.
    let scene = SceneId::Crnvl.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let r = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let [busy, waiting, inactive] = r.intervals.status_distribution();
    assert!(
        waiting + inactive > 0.35,
        "divergent scene should waste substantial thread-cycles: busy={busy:.2} waiting={waiting:.2} inactive={inactive:.2}"
    );
}

#[test]
fn fig10_utilization_improvement_tracks_speedup() {
    let cfg = GpuConfig::small(2);
    // A divergent open scene should improve utilization more than the
    // closed spnza atrium, and win more speedup.
    let measure = |id: SceneId| {
        let scene = id.build(DETAIL);
        let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, RES, RES)
            .unwrap();
        let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, RES, RES)
            .unwrap();
        (
            coop.intervals.avg_utilization() - base.intervals.avg_utilization(),
            base.cycles as f64 / coop.cycles as f64,
        )
    };
    let (delta_fox, s_fox) = measure(SceneId::Fox);
    assert!(delta_fox > 0.0, "CoopRT must raise utilization on fox");
    assert!(s_fox > 1.0);
}

#[test]
fn fig12_cooprt_raises_memory_bandwidth() {
    let scene = SceneId::Lands.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    assert!(
        coop.mem.l2_bandwidth(coop.cycles) > base.mem.l2_bandwidth(base.cycles),
        "same fills in fewer cycles -> higher L2 bandwidth"
    );
}

#[test]
fn fig13_larger_warp_buffers_help_the_baseline() {
    let scene = SceneId::Frst.build(DETAIL);
    // Use one SM so all warps contend for one RT unit.
    let small = GpuConfig::small(1);
    let big = GpuConfig::small(1).with_warp_buffer(16);
    let r_small = Simulation::new(&scene, &small, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let r_big = Simulation::new(&scene, &big, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    assert!(
        r_big.cycles < r_small.cycles,
        "16-entry buffer ({}) should beat 4-entry ({})",
        r_big.cycles,
        r_small.cycles
    );
}

#[test]
fn fig13_cooprt_at_4_entries_competes_with_big_baseline_buffers() {
    let scene = SceneId::Fox.build(DETAIL);
    let cfg4 = GpuConfig::small(1);
    let cfg32 = GpuConfig::small(1).with_warp_buffer(32);
    let coop4 = Simulation::new(&scene, &cfg4, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let base32 = Simulation::new(&scene, &cfg32, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    assert!(
        coop4.cycles < base32.cycles,
        "paper: CoopRT@4 ({}) beats baseline@32 ({})",
        coop4.cycles,
        base32.cycles
    );
}

#[test]
fn fig14_cooprt_shortens_the_slowest_warp() {
    let scene = SceneId::Car.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    assert!(coop.slowest_warp_cycles < base.slowest_warp_cycles);
}

#[test]
fn fig15_cooprt_improves_edp() {
    let scene = SceneId::Sprng.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    assert!(
        coop.energy.edp() < base.energy.edp(),
        "EDP must improve under CoopRT"
    );
}

#[test]
fn fig17_pt_gains_exceed_coherent_shader_gains() {
    let cfg = GpuConfig::small(2);
    let pt = speedup(SceneId::Fox, &cfg, ShaderKind::PathTrace);
    let ao = speedup(SceneId::Fox, &cfg, ShaderKind::AmbientOcclusion);
    assert!(
        pt > ao,
        "divergent PT ({pt:.2}x) should gain more than coherent AO ({ao:.2}x)"
    );
    assert!(ao >= 0.95, "AO must not regress under CoopRT");
}

#[test]
fn fig18_mobile_config_still_wins() {
    let s = speedup(SceneId::Party, &GpuConfig::mobile(), ShaderKind::PathTrace);
    assert!(s > 1.0, "mobile speedup {s:.2}");
}

#[test]
fn fig19_whole_warp_scope_is_at_least_as_good_as_subwarp_4() {
    let scene = SceneId::Lands.build(DETAIL);
    let run_sw = |sw: usize| {
        let cfg = GpuConfig::small(2).with_subwarp(sw);
        Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, RES, RES)
            .unwrap()
            .cycles
    };
    let c4 = run_sw(4);
    let c32 = run_sw(32);
    assert!(
        c32 <= c4,
        "whole-warp ({c32}) must not lose to subwarp-4 ({c4})"
    );
}

#[test]
fn table3_area_claims() {
    assert!(cooprt_area(4).cells() < cooprt_area(32).cells());
    assert!(
        overhead_fraction(32, 4) < 0.033,
        "the <3% warp-buffer claim"
    );
    assert_eq!(warp_buffer_bits(4), 98_304);
}

#[test]
fn power_shape_matches_fig9() {
    // Same traversal work in fewer cycles: power up, energy roughly
    // flat or down — never up by more than a few percent beyond the
    // speedup structure allows.
    let scene = SceneId::Lands.build(DETAIL);
    let cfg = GpuConfig::small(2);
    let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, RES, RES)
        .unwrap();
    let power_ratio = coop.energy.avg_power_w() / base.energy.avg_power_w();
    let energy_ratio = coop.energy.total_j() / base.energy.total_j();
    assert!(
        power_ratio > 1.0,
        "CoopRT concentrates the same work: power must rise"
    );
    assert!(
        energy_ratio < 1.15,
        "energy should stay near baseline (paper: 0.94x)"
    );
}
