//! paper: every table and figure of the CoopRT evaluation.
//!
//! ```sh
//! # All figures; writes BENCH_paper.json at the repository root:
//! cargo bench -p cooprt-bench --bench paper
//!
//! # Only the figures whose names start with the given prefixes (no JSON):
//! cargo bench -p cooprt-bench --bench paper -- fig09 ablation
//! ```
//!
//! The figure registry, the shared cell matrix and the renderers live
//! in [`cooprt_bench::paper`]; this target is the argument handling and
//! the file write. `COOPRT_RES`, `COOPRT_DETAIL`, `COOPRT_SCENES` and
//! `COOPRT_THREADS` set the knobs (see the crate docs). An unknown
//! figure prefix or scene name exits 2 with the valid names, and so does
//! a `COOPRT_RES` or `COOPRT_DETAIL` that is not a positive integer.

use cooprt_bench::paper::{run, Knobs, FIGURES};

fn main() {
    // Ignore the libtest flag cargo bench passes by default.
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(unknown) = filter
        .iter()
        .find(|p| !FIGURES.iter().any(|f| f.name.starts_with(p.as_str())))
    {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "paper: no figure starts with '{unknown}'; figures: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let knobs = Knobs::from_env().unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(2);
    });
    let report = run(&knobs, &filter);
    print!("{}", report.text);
    if filter.is_empty() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
        std::fs::write(path, &report.json).expect("write BENCH_paper.json");
        println!("wrote BENCH_paper.json");
    }
}
