//! The checked-in perf baseline pins exactly the default specs, and
//! every one of them resolves in the checked-in `BENCH_*.json` reports,
//! so no pin can drop out of `ci/bench_baseline.json` unnoticed.

use cooprt_bench::diff::{default_specs, load_reports, Baseline, MetricSpec};
use std::path::Path;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn the_checked_in_baseline_pins_every_default_spec() {
    let root = Path::new(REPO_ROOT);
    let text = std::fs::read_to_string(root.join("ci/bench_baseline.json")).unwrap();
    let pinned = Baseline::from_json(&text).unwrap();
    let specs = default_specs();
    let bands = |s: &MetricSpec| (s.path.clone(), s.tolerance_pct, s.direction);
    let pinned_bands: Vec<_> = pinned.metrics.iter().map(|(s, _)| bands(s)).collect();
    let default_bands: Vec<_> = specs.iter().map(bands).collect();
    assert_eq!(pinned_bands, default_bands);

    let reports = load_reports(root, &specs).unwrap();
    if let Err(unresolved) = Baseline::capture(specs, &reports) {
        panic!("unresolved specs:\n{}", unresolved.join("\n"));
    }
}
