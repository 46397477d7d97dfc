//! Quickstart: trace one frame on the baseline RT unit and on CoopRT,
//! verify they agree, and report the speedup.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::SceneId;

fn main() {
    // Build a small procedural scene (the "Ray Tracing in One Weekend"
    // analog) and the Table 1 desktop GPU configuration.
    let scene = SceneId::Wknd.build(8);
    let config = GpuConfig::rtx2060();
    println!(
        "scene '{}': {} triangles, BVH {:.2} MiB, depth {}",
        scene.name,
        scene.triangle_count(),
        scene.stats.size_mib,
        scene.stats.depth
    );

    // Path-trace one 32x32 frame under both traversal policies.
    let base = Simulation::new(&scene, &config, TraversalPolicy::Baseline)
        .run_frame(ShaderKind::PathTrace, 32, 32)
        .unwrap();
    let coop = Simulation::new(&scene, &config, TraversalPolicy::CoopRt)
        .run_frame(ShaderKind::PathTrace, 32, 32)
        .unwrap();

    // Cooperative traversal is functionally exact...
    assert_eq!(
        base.image, coop.image,
        "CoopRT must render the identical image"
    );
    println!("images identical across policies ✓");

    // ...and faster where warps diverge.
    println!(
        "baseline: {} cycles | CoopRT: {} cycles | speedup {:.2}x",
        base.cycles,
        coop.cycles,
        base.cycles as f64 / coop.cycles as f64
    );
    println!(
        "RT-unit thread utilization: {:.1}% -> {:.1}%",
        base.intervals.avg_utilization() * 100.0,
        coop.intervals.avg_utilization() * 100.0
    );
}
