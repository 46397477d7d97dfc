//! AerialVision-style activity tracing: dumps the per-interval RT-unit
//! thread-status samples of a run as CSV (the raw data behind the
//! paper's Figs. 2, 4 and 10) and sketches the busy-fraction curve.
//!
//! ```sh
//! cargo run --release --example activity_trace -- spnza cooprt trace.csv
//! ```

use cooprt::core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::ALL_SCENES;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scene_name = args.first().map(String::as_str).unwrap_or("spnza");
    let policy = match args.get(1).map(String::as_str) {
        Some("cooprt") => TraversalPolicy::CoopRt,
        _ => TraversalPolicy::Baseline,
    };
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| format!("{scene_name}_activity.csv"));

    let Some(id) = ALL_SCENES.iter().copied().find(|s| s.name() == scene_name) else {
        eprintln!("unknown scene '{scene_name}'");
        std::process::exit(1);
    };
    let scene = id.build(16);
    let cfg = GpuConfig::rtx2060();
    println!("tracing '{id}' under {} ...", policy.label());
    let frame = Simulation::new(&scene, &cfg, policy)
        .run_frame(ShaderKind::PathTrace, 48, 48)
        .unwrap();

    // CSV dump.
    let mut f = std::io::BufWriter::new(std::fs::File::create(&out_path).expect("create CSV"));
    writeln!(f, "cycle,busy,waiting,inactive,busy_fraction").expect("write header");
    let series = &frame.intervals;
    for s in &series.samples {
        writeln!(
            f,
            "{},{},{},{},{:.4}",
            s.cycle,
            s.busy,
            s.waiting,
            s.inactive,
            s.busy_fraction()
        )
        .expect("write row");
    }
    drop(f);
    println!("wrote {} samples to {out_path}", series.samples.len());

    // ASCII sketch of the Fig. 2 curve.
    println!("\nbusy-thread fraction over time:");
    let step = (series.samples.len() / 24).max(1);
    for s in series.samples.iter().step_by(step) {
        let frac = s.busy_fraction();
        println!(
            "{:>9} |{:<50}| {:.0}%",
            s.cycle,
            "#".repeat((frac * 50.0) as usize),
            frac * 100.0
        );
    }
    let [busy, waiting, inactive] = series.status_distribution();
    println!(
        "\naverage RT-unit utilization: {:.1}%  (status split busy/wait/inactive = {busy:.2}/{waiting:.2}/{inactive:.2})",
        series.avg_utilization() * 100.0,
    );
}
