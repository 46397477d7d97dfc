//! benchdiff: judge an A/B host-time comparison (what `ci/bench_ab.sh`
//! calls).
//!
//! `--ab RUNS` reads one JSON record per perfbench run, and every
//! `end_to_end` metric of `BENCHMARK.json` gets each side's median and
//! IQR, the change/base ratio, the pairs the change won and a verdict
//! (a gain needs at least ten pairs, better in nine tenths of them by
//! more than the base runs' IQR). Each side's median minor faults and
//! system seconds per cell follow, with no verdict. The tables go to
//! stdout and the JSON report to `--out`; exit 1 when a metric is worse
//! than its bound or too noisy to judge, 2 on a usage or input error.
//! The judgement lives in [`cooprt_bench::diff`]; this target is the
//! file I/O and exit code.
//!
//! ```sh
//! cargo bench -p cooprt-bench --bench benchdiff -- --ab runs.jsonl \
//!     --base <rev> --change <rev> --nproc 2 --pairs 10 --seconds 20 \
//!     --out BENCH_ab.json
//! ```

use cooprt_bench::diff::{
    ab_counters, ab_report_json, ab_rows, end_to_end_metrics, render_ab, AbSetup, AbVerdict,
};
use cooprt_telemetry::parse_json;

/// Repository root (the bench binary's cwd is the package dir, so
/// default paths anchor on the manifest like the other bench targets).
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

const USAGE: &str = "\
usage: benchdiff --ab RUNS --base REV --change REV --nproc N
                 --pairs N --seconds S [--out FILE]

--ab RUNS   judge the A/B run records in RUNS (ci/bench_ab.sh)
--out FILE  A/B JSON report  [default: BENCH_ab.json]";

struct Args {
    /// The run-record file.
    runs: String,
    setup: AbSetup,
    out: String,
}

fn parse_args() -> Args {
    let mut runs = None;
    let mut setup = AbSetup {
        base: String::new(),
        change: String::new(),
        nproc: 0,
        pairs: 0,
        seconds: 0,
    };
    let mut out = format!("{REPO_ROOT}/BENCH_ab.json");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value after {arg}");
                std::process::exit(2);
            })
        };
        let number = |v: String| {
            v.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("not a number: {v}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--ab" => runs = Some(value()),
            "--base" => setup.base = value(),
            "--change" => setup.change = value(),
            "--nproc" => setup.nproc = number(value()),
            "--pairs" => setup.pairs = number(value()),
            "--seconds" => setup.seconds = number(value()),
            "--out" => out = value(),
            // Ignore the libtest flag cargo bench passes by default.
            "--bench" => {}
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let Some(runs) = runs else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    Args { runs, setup, out }
}

fn fail(message: String) -> ! {
    eprintln!("benchdiff: {message}");
    std::process::exit(2);
}

/// Judges the run records against BENCHMARK.json's end-to-end metrics
/// and writes the report.
fn main() {
    let Args { runs, setup, out } = parse_args();
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
    };
    let benchmark = parse_json(&read(&format!("{REPO_ROOT}/BENCHMARK.json")))
        .unwrap_or_else(|e| fail(format!("BENCHMARK.json: {e}")));
    let metrics = end_to_end_metrics(&benchmark).unwrap_or_else(|e| fail(e));
    let records = read(&runs)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_json)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| fail(format!("{runs}: {e}")));
    let rows = ab_rows(&records, &metrics).unwrap_or_else(|e| fail(e));
    let counters = ab_counters(&records).unwrap_or_else(|e| fail(e));
    print!("{}", render_ab(&rows, &counters));
    std::fs::write(&out, ab_report_json(&setup, &rows, &counters))
        .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    let flagged = rows
        .iter()
        .filter(|r| matches!(r.verdict, AbVerdict::Worse | AbVerdict::Unresolved))
        .count();
    println!("benchdiff: wrote {out}; {flagged} metrics worse or unresolved");
    std::process::exit(i32::from(flagged > 0));
}
