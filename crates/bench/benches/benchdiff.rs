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

use cooprt_bench::diff::{default_specs, load_reports, Baseline, Verdict};
use std::path::Path;

/// Repository root (the bench binary's cwd is the package dir, so
/// default paths anchor on the manifest like the other bench targets).
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

struct Args {
    baseline: String,
    write_baseline: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: format!("{REPO_ROOT}/ci/bench_baseline.json"),
        write_baseline: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline = argv.next().unwrap_or_else(|| {
                    eprintln!("missing value after --baseline");
                    std::process::exit(2);
                })
            }
            "--write-baseline" => args.write_baseline = true,
            // Ignore the libtest flag cargo bench passes by default.
            "--bench" => {}
            "--help" | "-h" => {
                eprintln!(
                    "usage: benchdiff [--baseline FILE] [--write-baseline]\n\
                     \n\
                     --baseline FILE   pinned baseline  [default: ci/bench_baseline.json]\n\
                     --write-baseline  re-pin the baseline from the current reports\n\
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

fn main() {
    let args = parse_args();
    let root = Path::new(REPO_ROOT);

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
