//! perfbench: host-time benchmark of the CoopRT simulator and service.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload frame_live --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `frame_live`: every render scene x {baseline, CoopRT}, path-traced
//!   live through `Simulation::run_frame`;
//! - `sweep_replay`: two recorded scenes replayed over an 8-point memory
//!   sweep x {baseline, CoopRT};
//! - `serve_mixed`: an in-process server under two closed-loop clients
//!   sending render, simulate and query jobs, cache hits and scrapes.
//!
//! With `--trace 0` the end-to-end metrics are measured with all
//! observation off; with `--trace 1` the workload's timed phase runs
//! once with observation on, and the per-layer ledger is measured. The
//! last line of standard output is the JSON result; everything above it
//! is the human-readable table.

mod ledger;
mod pins;
mod serve;
mod sim;
mod stats;

use stats::Report;
use std::time::Duration;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 is the pinned default.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
    /// Print the pin lines of this workload instead of checking them.
    pub print_pins: bool,
}

/// The seed whose outputs are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(15),
        trace: false,
        print_pins: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--print-pins" {
            args.print_pins = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <frame_live|sweep_replay|serve_mixed> \
                 [--seed N] [--seconds N] [--trace 0|1] [--print-pins]"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "frame_live" => sim::frame_live(&args, &mut report),
        "sweep_replay" => sim::sweep_replay(&args, &mut report),
        "serve_mixed" => serve::serve_mixed(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    }
    if args.print_pins {
        return;
    }
    if args.trace {
        ledger::run(&args, &mut report);
    } else {
        report.push(stats::Metric::plain("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    print!("{}", report.table());
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    match report.json_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
