//! Compares the three ray-tracing workloads of the paper — path
//! tracing, ambient occlusion and shadows — on one scene, showing why
//! CoopRT helps divergent PT far more than the coherent AO/SH shaders
//! (§7.3).
//!
//! ```sh
//! cargo run --release --example shader_compare -- bath
//! ```

use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::ALL_SCENES;

fn main() {
    let scene_name = std::env::args().nth(1).unwrap_or_else(|| "bath".into());
    let Some(id) = ALL_SCENES.iter().copied().find(|s| s.name() == scene_name) else {
        eprintln!("unknown scene '{scene_name}'");
        std::process::exit(1);
    };
    let scene = id.build(16);
    let cfg = GpuConfig::rtx2060();
    let res = 48;

    println!("shader comparison on '{id}' ({res}x{res})\n");
    println!(
        "{:<18} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "shader", "base cycles", "coop cycles", "speedup", "base util", "coop util"
    );
    for kind in [
        ShaderKind::PathTrace,
        ShaderKind::AmbientOcclusion,
        ShaderKind::Shadow,
    ] {
        let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(kind, res, res)
            .unwrap();
        let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(kind, res, res)
            .unwrap();
        assert_eq!(base.image, coop.image);
        println!(
            "{:<18} {:>12} {:>12} {:>8.2}x {:>11.1}% {:>11.1}%",
            format!("{kind:?}"),
            base.cycles,
            coop.cycles,
            base.cycles as f64 / coop.cycles as f64,
            base.intervals.avg_utilization() * 100.0,
            coop.intervals.avg_utilization() * 100.0
        );
    }
    println!();
    println!("expected (paper Fig. 9/17): PT speedup >> AO >= SH, because AO and");
    println!("shadow rays are short and coherent while PT bounces diverge.");
}
