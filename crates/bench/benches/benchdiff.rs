//! benchdiff: compare the checked-in BENCH reports against the pinned
//! perf baseline.
//!
//! ```sh
//! # Compare: exit 1 when a pin drifted or a metric is missing, exit 3
//! # when only wall-clock bands regressed:
//! cargo bench -p cooprt-bench --bench benchdiff -- \
//!     --baseline ci/bench_baseline.json
//!
//! # Re-pin the baseline from the current reports (exit 2, naming
//! # them, when some spec does not resolve):
//! cargo bench -p cooprt-bench --bench benchdiff -- --write-baseline
//! ```
//!
//! A metric path's first segment `x` reads the report `BENCH_x.json`
//! at the repository root. The metric list, tolerances, and comparison
//! semantics live in [`cooprt_bench::diff`]; this target is just the
//! file I/O and exit code. `ci.sh` fails on exit 1 and only warns on
//! exit 3: wall-clock values depend on the host that measured them.
//!
//! `--ab RUNS` judges an A/B host-time comparison instead (what
//! `ci/bench_ab.sh` calls): RUNS holds one JSON record per perfbench
//! run, and every `end_to_end` metric of `BENCHMARK.json` gets each
//! side's median and IQR, the change/base ratio, the pairs the change
//! won and a verdict (a gain needs at least ten pairs, better in nine
//! tenths of them by more than the base runs' IQR). Each side's median
//! minor faults and system seconds per cell follow, with no verdict.
//! The tables go to stdout and the JSON report to `--out`; exit 1 when
//! a metric is worse than its bound or too noisy to judge.
//!
//! ```sh
//! cargo bench -p cooprt-bench --bench benchdiff -- --ab runs.jsonl \
//!     --base <rev> --change <rev> --nproc 2 --pairs 10 --seconds 20 \
//!     --out BENCH_ab.json
//! ```

use cooprt_bench::diff::{
    ab_counters, ab_report_json, ab_rows, default_specs, end_to_end_metrics, load_reports,
    render_ab, AbSetup, AbVerdict, Baseline, Verdict,
};
use cooprt_telemetry::parse_json;
use std::path::Path;

/// Repository root (the bench binary's cwd is the package dir, so
/// default paths anchor on the manifest like the other bench targets).
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

struct Args {
    baseline: String,
    write_baseline: bool,
    /// A/B mode: the run-record file, and the report's setup fields.
    ab: Option<String>,
    setup: AbSetup,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: format!("{REPO_ROOT}/ci/bench_baseline.json"),
        write_baseline: false,
        ab: None,
        setup: AbSetup {
            base: String::new(),
            change: String::new(),
            nproc: 0,
            pairs: 0,
            seconds: 0,
        },
        out: format!("{REPO_ROOT}/BENCH_ab.json"),
    };
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
            "--baseline" => args.baseline = value(),
            "--write-baseline" => args.write_baseline = true,
            "--ab" => args.ab = Some(value()),
            "--base" => args.setup.base = value(),
            "--change" => args.setup.change = value(),
            "--nproc" => args.setup.nproc = number(value()),
            "--pairs" => args.setup.pairs = number(value()),
            "--seconds" => args.setup.seconds = number(value()),
            "--out" => args.out = value(),
            // Ignore the libtest flag cargo bench passes by default.
            "--bench" => {}
            "--help" | "-h" => {
                eprintln!(
                    "usage: benchdiff [--baseline FILE] [--write-baseline]\n\
                     \x20      benchdiff --ab RUNS --base REV --change REV --nproc N\n\
                     \x20                 --pairs N --seconds S [--out FILE]\n\
                     \n\
                     --baseline FILE   pinned baseline  [default: ci/bench_baseline.json]\n\
                     --write-baseline  re-pin the baseline from the current reports\n\
                     --ab RUNS         judge the A/B run records in RUNS (ci/bench_ab.sh)\n\
                     --out FILE        A/B JSON report  [default: BENCH_ab.json]\n\
                     \n\
                     A metric path 'x.<...>' reads BENCH_x.json at the repository root."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

fn fail(message: String) -> ! {
    eprintln!("benchdiff: {message}");
    std::process::exit(2);
}

/// `--ab`: judges the run records against BENCHMARK.json's
/// end-to-end metrics and writes the report.
fn judge_ab(runs: &str, setup: &AbSetup, out: &str) -> ! {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
    };
    let benchmark = parse_json(&read(&format!("{REPO_ROOT}/BENCHMARK.json")))
        .unwrap_or_else(|e| fail(format!("BENCHMARK.json: {e}")));
    let metrics = end_to_end_metrics(&benchmark).unwrap_or_else(|e| fail(e));
    let records = read(runs)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_json)
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| fail(format!("{runs}: {e}")));
    let rows = ab_rows(&records, &metrics).unwrap_or_else(|e| fail(e));
    let counters = ab_counters(&records).unwrap_or_else(|e| fail(e));
    print!("{}", render_ab(&rows, &counters));
    std::fs::write(out, ab_report_json(setup, &rows, &counters))
        .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    let flagged = rows
        .iter()
        .filter(|r| matches!(r.verdict, AbVerdict::Worse | AbVerdict::Unresolved))
        .count();
    println!("benchdiff: wrote {out}; {flagged} metrics worse or unresolved");
    std::process::exit(i32::from(flagged > 0));
}

fn main() {
    let args = parse_args();
    let root = Path::new(REPO_ROOT);
    if let Some(runs) = &args.ab {
        judge_ab(runs, &args.setup, &args.out);
    }

    if args.write_baseline {
        let specs = default_specs();
        let reports = load_reports(root, &specs).unwrap_or_else(|e| fail(e));
        let baseline = Baseline::capture(specs, &reports).unwrap_or_else(|unresolved| {
            let n = unresolved.len();
            fail(format!(
                "{n} specs do not resolve:\n  {}",
                unresolved.join("\n  ")
            ))
        });
        std::fs::write(&args.baseline, baseline.to_json())
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.baseline)));
        println!(
            "benchdiff: pinned {} metrics to {}",
            baseline.metrics.len(),
            args.baseline
        );
        return;
    }

    let baseline_text = std::fs::read_to_string(&args.baseline)
        .unwrap_or_else(|e| fail(format!("cannot read baseline {}: {e}", args.baseline)));
    let baseline = Baseline::from_json(&baseline_text).unwrap_or_else(|e| fail(e));
    let reports = load_reports(root, baseline.metrics.iter().map(|(spec, _)| spec))
        .unwrap_or_else(|e| fail(e));
    let report = baseline.compare(&reports);
    print!("{}", report.render());
    let [drifted, missing, regressed] =
        [Verdict::Drifted, Verdict::Missing, Verdict::Regressed].map(|v| report.count(v));
    if drifted + missing > 0 {
        println!("benchdiff: {drifted} pins drifted, {missing} metrics missing");
        std::process::exit(1);
    }
    if regressed > 0 {
        println!("benchdiff: {regressed} wall-clock bands regressed");
        std::process::exit(3);
    }
    println!("benchdiff: all {} metrics within bounds", report.rows.len());
}
