//! Unified telemetry export: runs one scene with the sim-time event
//! tracer enabled and writes a Perfetto-loadable Chrome trace plus the
//! unified metrics report.
//!
//! ```sh
//! cargo run --release --example trace_export -- \
//!     --scene wknd --policy cooprt --res 48 --detail 16 --out-dir .
//! ```
//!
//! Outputs:
//!
//! - `<scene>_<policy>.trace.json` — Chrome trace-event JSON. Open it
//!   at <https://ui.perfetto.dev> (or `chrome://tracing`): SMs appear
//!   as processes with one track per warp plus "RT fetch" / "LBU"
//!   tracks, and the memory hierarchy appears as a "Memory" process
//!   with L1/L2/DRAM-channel tracks. One trace microsecond is one
//!   simulated cycle.
//! - `<scene>_<policy>.metrics.json` — the unified metrics report:
//!   every statistics family of the run plus the interval-sampled time
//!   series and the host-side wall-clock spans.
//!
//! `--check` additionally validates the emitted trace with the in-tree
//! Chrome-trace checker and asserts the event taxonomy spans the whole
//! machine (SM scheduling, RT unit, LBU, memory hierarchy). CI runs
//! this on every push (see `ci.sh`).
//!
//! The output directory is created, with its parents, before the
//! simulation runs. A bad argument or an empty frame exits 2, and a
//! directory or file that cannot be written exits 1.

use cooprt::core::{GpuConfig, MetricsReport, ShaderKind, Simulation, TraversalPolicy};
use cooprt::scenes::ALL_SCENES;
use cooprt::telemetry::{
    chrome_trace_json, validate_chrome_trace, SpanRecorder, TraceMeta, Tracer,
};

const USAGE: &str = "usage: trace_export [--scene NAME] [--policy baseline|cooprt] \
                     [--res N] [--detail N] [--out-dir DIR] [--check]";

struct Args {
    scene: String,
    policy: TraversalPolicy,
    res: usize,
    detail: u32,
    out_dir: String,
    check: bool,
}

/// Prints `message` and the usage line, then exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// Parses the integer value of `flag`.
fn integer<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes an integer, not '{value}'")))
}

/// Writes `contents` to `path`, or exits 1 naming the path.
fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

fn parse_args() -> Args {
    let mut args = Args {
        scene: "wknd".to_string(),
        policy: TraversalPolicy::CoopRt,
        res: 48,
        detail: 16,
        out_dir: ".".to_string(),
        check: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {}", argv[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match argv[i].as_str() {
            "--scene" => args.scene = value(&mut i),
            "--policy" => {
                let v = value(&mut i);
                args.policy = TraversalPolicy::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown policy '{v}' (use baseline|cooprt)");
                    std::process::exit(2);
                });
            }
            "--res" => args.res = integer("--res", &value(&mut i)),
            "--detail" => args.detail = integer("--detail", &value(&mut i)),
            "--out-dir" => args.out_dir = value(&mut i),
            "--check" => args.check = true,
            other => usage_error(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if args.detail == 0 {
        usage_error("--detail must be at least 1");
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(id) = ALL_SCENES.iter().copied().find(|s| s.name() == args.scene) else {
        eprintln!("unknown scene '{}'", args.scene);
        std::process::exit(1);
    };
    // Fail on an unwritable directory now, not after the simulation.
    std::fs::create_dir_all(&args.out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", args.out_dir);
        std::process::exit(1);
    });

    let spans = SpanRecorder::enabled();
    let scene = spans.time("scene_build", || id.build(args.detail));
    let cfg = GpuConfig::rtx2060();
    let policy = args.policy;
    println!(
        "tracing '{id}' under {} at {res}x{res} (detail {detail}) ...",
        policy.label(),
        res = args.res,
        detail = args.detail,
    );

    let tracer = Tracer::enabled();
    let frame = spans
        .time("frame_run", || {
            Simulation::new(&scene, &cfg, policy)
                .with_tracer(tracer.clone())
                .run_frame(ShaderKind::PathTrace, args.res, args.res)
        })
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let log = tracer.take();
    println!(
        "{} cycles, {} rays; captured {} events ({} dropped past capacity)",
        frame.cycles,
        frame.rays,
        log.events.len(),
        log.dropped
    );

    let label = format!("{}_{}", id.name(), policy.label());
    let meta = TraceMeta::new(&format!("CoopRT {label}"));
    let trace = spans.time("trace_export", || chrome_trace_json(&log, &meta));

    if args.check {
        let check = validate_chrome_trace(&trace).unwrap_or_else(|e| {
            eprintln!("emitted trace failed validation: {e}");
            std::process::exit(1);
        });
        // The taxonomy must span every layer of the machine: SM warp
        // scheduling, the RT unit's fetch path, the LBU (under the
        // cooperative policy), and the memory hierarchy.
        let mut expected = vec![
            "warp_issue",
            "warp_retire",
            "trace_ray",
            "node_fetch",
            "response_pop",
            "l1_hit",
            "dram_xfer",
        ];
        if policy == TraversalPolicy::CoopRt {
            expected.push("lbu_move");
        }
        for name in &expected {
            assert!(
                check.event_names.contains(*name),
                "trace is missing '{name}' events (found: {:?})",
                check.event_names
            );
        }
        assert!(
            check.event_names.len() >= 6,
            "expected at least 6 distinct event types, found {:?}",
            check.event_names
        );
        println!(
            "validated: {} events on {} tracks, {} distinct event types",
            check.events,
            check.tracks,
            check.event_names.len()
        );
    }

    let trace_path = format!("{}/{label}.trace.json", args.out_dir);
    write(&trace_path, &trace);
    println!("wrote {trace_path} (open at https://ui.perfetto.dev)");

    let mut report = MetricsReport::new(&format!("CoopRT {label}"));
    report.add_frame(&label, &frame);
    report.add_spans(&spans.snapshot());
    // One report per scene/policy label: a fixed name would silently
    // overwrite earlier reports when exporting several runs into the
    // same directory.
    let metrics_path = format!("{}/{label}.metrics.json", args.out_dir);
    write(&metrics_path, &report.to_json());
    println!("wrote {metrics_path}");
}
