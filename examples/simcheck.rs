//! Differential fuzzing driver: replays seeds through every
//! `cooprt-check` oracle (cache/MSHR reference models, BVH vs
//! brute force, baseline-vs-CoopRT image identity with engine
//! invariants enabled), plus the JSON-parser fuzzer, the serve
//! result-cache identity oracle, the trace record/replay differential
//! (record → encode → decode → replay must be bitwise cycle- and
//! image-identical to live simulation under both policies), and the
//! ray-reordering differential (every reorder policy renders the
//! unordered image bitwise; sort keys are reproducible at any worker
//! count), and the predictor differential (ray-path prediction renders
//! the speculation-free image bitwise with honest stats counters), and
//! the spatial-query differential (kNN / radius / containment answers
//! through the timing model must equal a brute-force scan of the raw
//! domain exactly), and the dense-stepping differential (the engine's
//! SM skipping must reproduce a run that steps every SM on every cycle
//! bitwise, event stream included).
//!
//! ```sh
//! # CI smoke: 64 consecutive seeds starting at 0.
//! cargo run --release --example simcheck -- --seeds 64
//!
//! # Fuzz the JSON parser, the serve result cache, and record/replay too.
//! cargo run --release --example simcheck -- --seeds 64 --json-seeds 256 \
//!     --serve-seeds 8 --trace-seeds 16 --reorder-seeds 8 --predict-seeds 8 \
//!     --query-seeds 8 --step-seeds 8
//!
//! # Replay a failing seed reported by the fuzzer.
//! cargo run --release --example simcheck -- --seed 12345
//! cargo run --release --example simcheck -- --json-seed 12345
//! cargo run --release --example simcheck -- --serve-seed 12345
//! cargo run --release --example simcheck -- --trace-seed 12345
//! cargo run --release --example simcheck -- --reorder-seed 12345
//! cargo run --release --example simcheck -- --predict-seed 12345
//! cargo run --release --example simcheck -- --query-seed 12345
//! cargo run --release --example simcheck -- --step-seed 12345
//! ```
//!
//! On failure the harness prints the shrunk, minimized configuration
//! (resolution halved, triangles dropped, warps shrunk — whatever still
//! reproduces), the diverging oracle, and the exact replay command,
//! then exits non-zero.

use cooprt_check::{
    fuzz, jsonfuzz, predictcheck, querycheck, reordercheck, servecache, stepcheck, tracecheck,
    FuzzCase,
};

struct Args {
    /// Replay exactly this seed (overrides the budget).
    seed: Option<u64>,
    /// Number of consecutive simulator seeds to run.
    seeds: u64,
    /// First seed of the budget.
    start: u64,
    /// Replay exactly this JSON-fuzzer seed.
    json_seed: Option<u64>,
    /// JSON-parser fuzzing budget (0 = skip).
    json_seeds: u64,
    /// Replay exactly this serve-cache seed.
    serve_seed: Option<u64>,
    /// Serve result-cache identity budget (0 = skip).
    serve_seeds: u64,
    /// Replay exactly this trace record/replay seed.
    trace_seed: Option<u64>,
    /// Trace record/replay differential budget (0 = skip).
    trace_seeds: u64,
    /// Replay exactly this ray-reordering seed.
    reorder_seed: Option<u64>,
    /// Ray-reordering differential budget (0 = skip).
    reorder_seeds: u64,
    /// Replay exactly this predictor seed.
    predict_seed: Option<u64>,
    /// Predictor differential budget (0 = skip).
    predict_seeds: u64,
    /// Replay exactly this spatial-query seed.
    query_seed: Option<u64>,
    /// Spatial-query differential budget (0 = skip).
    query_seeds: u64,
    /// Replay exactly this dense-stepping seed.
    step_seed: Option<u64>,
    /// Dense-stepping differential budget (0 = skip).
    step_seeds: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: None,
        seeds: 64,
        start: 0,
        json_seed: None,
        json_seeds: 0,
        serve_seed: None,
        serve_seeds: 0,
        trace_seed: None,
        trace_seeds: 0,
        reorder_seed: None,
        reorder_seeds: 0,
        predict_seed: None,
        predict_seeds: 0,
        query_seed: None,
        query_seeds: 0,
        step_seed: None,
        step_seeds: 0,
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
        let parse_u64 = |s: String| -> u64 {
            s.parse().unwrap_or_else(|_| {
                eprintln!("not a number: {s}");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--seed" => args.seed = Some(parse_u64(value(&mut i))),
            "--seeds" => args.seeds = parse_u64(value(&mut i)),
            "--start" => args.start = parse_u64(value(&mut i)),
            "--json-seed" => args.json_seed = Some(parse_u64(value(&mut i))),
            "--json-seeds" => args.json_seeds = parse_u64(value(&mut i)),
            "--serve-seed" => args.serve_seed = Some(parse_u64(value(&mut i))),
            "--serve-seeds" => args.serve_seeds = parse_u64(value(&mut i)),
            "--trace-seed" => args.trace_seed = Some(parse_u64(value(&mut i))),
            "--trace-seeds" => args.trace_seeds = parse_u64(value(&mut i)),
            "--reorder-seed" => args.reorder_seed = Some(parse_u64(value(&mut i))),
            "--reorder-seeds" => args.reorder_seeds = parse_u64(value(&mut i)),
            "--predict-seed" => args.predict_seed = Some(parse_u64(value(&mut i))),
            "--predict-seeds" => args.predict_seeds = parse_u64(value(&mut i)),
            "--query-seed" => args.query_seed = Some(parse_u64(value(&mut i))),
            "--query-seeds" => args.query_seeds = parse_u64(value(&mut i)),
            "--step-seed" => args.step_seed = Some(parse_u64(value(&mut i))),
            "--step-seeds" => args.step_seeds = parse_u64(value(&mut i)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: simcheck [--seed N | --seeds COUNT [--start FIRST]]\n\
                     \x20               [--json-seed N | --json-seeds COUNT]\n\
                     \x20               [--serve-seed N | --serve-seeds COUNT]\n\
                     \x20               [--trace-seed N | --trace-seeds COUNT]\n\
                     \x20               [--reorder-seed N | --reorder-seeds COUNT]\n\
                     \x20               [--predict-seed N | --predict-seeds COUNT]\n\
                     \x20               [--query-seed N | --query-seeds COUNT]\n\
                     \x20               [--step-seed N | --step-seeds COUNT]\n\
                     \n\
                     --seed N          replay one seed through every simulator oracle\n\
                     --seeds COUNT     run COUNT consecutive seeds (default 64)\n\
                     --start FIRST     first seed of the budget (default 0)\n\
                     --json-seed N     replay one JSON-parser fuzz seed\n\
                     --json-seeds N    fuzz the JSON parser with N seeds (default 0)\n\
                     --serve-seed N    replay one serve cache-identity seed\n\
                     --serve-seeds N   fuzz the serve result cache with N seeds (default 0)\n\
                     --trace-seed N    replay one trace record/replay seed\n\
                     --trace-seeds N   fuzz trace record/replay with N seeds (default 0)\n\
                     --reorder-seed N  replay one ray-reordering seed\n\
                     --reorder-seeds N fuzz ray reordering with N seeds (default 0)\n\
                     --predict-seed N  replay one ray-path predictor seed\n\
                     --predict-seeds N fuzz the ray-path predictor with N seeds (default 0)\n\
                     --query-seed N    replay one spatial-query seed\n\
                     --query-seeds N   fuzz spatial queries with N seeds (default 0)\n\
                     --step-seed N     replay one dense-stepping seed\n\
                     --step-seeds N    fuzz SM skipping against dense stepping with N seeds (default 0)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn fail(failure: impl std::fmt::Display) -> ! {
    eprintln!("{failure}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if let Some(seed) = args.json_seed {
        match jsonfuzz::run_json_seed(seed) {
            Ok(()) => println!("json seed {seed}: parser behaved"),
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.serve_seed {
        match servecache::run_serve_seed(seed) {
            Ok(()) => println!("serve seed {seed}: cache hit identical to fresh run"),
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.trace_seed {
        println!(
            "replaying trace differential on {}",
            FuzzCase::from_seed(seed)
        );
        match tracecheck::run_trace_seed(seed) {
            Ok(()) => println!("trace seed {seed}: record/replay bitwise identical to live"),
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.predict_seed {
        println!(
            "replaying predictor differential on {}",
            FuzzCase::from_seed(seed)
        );
        match predictcheck::run_predict_seed(seed) {
            Ok(()) => {
                println!("predict seed {seed}: speculative images bitwise identical, stats honest")
            }
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.query_seed {
        println!(
            "replaying query differential on {}",
            FuzzCase::from_seed(seed)
        );
        match querycheck::run_query_seed(seed) {
            Ok(()) => {
                println!("query seed {seed}: engine answers exactly match brute force")
            }
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.step_seed {
        println!(
            "replaying dense-stepping differential on {}",
            FuzzCase::from_seed(seed)
        );
        match stepcheck::run_step_seed(seed) {
            Ok(()) => println!("step seed {seed}: skipping engine bitwise identical to dense"),
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.reorder_seed {
        println!(
            "replaying reorder differential on {}",
            FuzzCase::from_seed(seed)
        );
        match reordercheck::run_reorder_seed(seed) {
            Ok(()) => println!(
                "reorder seed {seed}: reordered images bitwise identical, keys deterministic"
            ),
            Err(failure) => fail(failure),
        }
        return;
    }
    if let Some(seed) = args.seed {
        println!("replaying {}", FuzzCase::from_seed(seed));
        match fuzz::run_seed(seed) {
            Ok(()) => println!("seed {seed}: every oracle agrees"),
            Err(failure) => fail(failure),
        }
        return;
    }
    println!(
        "fuzzing {} seeds starting at {} (differential oracles: cache, mshr, \
         bvh, image identity, engine invariants)",
        args.seeds, args.start
    );
    match fuzz::run_budget(args.start, args.seeds) {
        Ok(count) => println!("{count}/{count} seeds passed"),
        Err(failure) => fail(failure),
    }
    if args.json_seeds > 0 {
        println!(
            "fuzzing the JSON parser: adversarial corpus + {} seeds",
            args.json_seeds
        );
        match jsonfuzz::run_json_budget(args.start, args.json_seeds) {
            Ok(count) => println!("{count}/{count} json seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.serve_seeds > 0 {
        println!(
            "fuzzing serve result-cache identity: {} seeds",
            args.serve_seeds
        );
        match servecache::run_serve_budget(args.start, args.serve_seeds) {
            Ok(count) => println!("{count}/{count} serve seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.trace_seeds > 0 {
        println!(
            "fuzzing trace record/replay identity: {} seeds",
            args.trace_seeds
        );
        match tracecheck::run_trace_budget(args.start, args.trace_seeds) {
            Ok(count) => println!("{count}/{count} trace seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.reorder_seeds > 0 {
        println!(
            "fuzzing ray-reordering identity: {} seeds",
            args.reorder_seeds
        );
        match reordercheck::run_reorder_budget(args.start, args.reorder_seeds) {
            Ok(count) => println!("{count}/{count} reorder seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.predict_seeds > 0 {
        println!(
            "fuzzing predictor image identity: {} seeds",
            args.predict_seeds
        );
        match predictcheck::run_predict_budget(args.start, args.predict_seeds) {
            Ok(count) => println!("{count}/{count} predict seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.step_seeds > 0 {
        println!(
            "fuzzing SM skipping against dense stepping: {} seeds",
            args.step_seeds
        );
        match stepcheck::run_step_budget(args.start, args.step_seeds) {
            Ok(count) => println!("{count}/{count} step seeds passed"),
            Err(failure) => fail(failure),
        }
    }
    if args.query_seeds > 0 {
        println!(
            "fuzzing spatial-query exactness: {} seeds",
            args.query_seeds
        );
        match querycheck::run_query_budget(args.start, args.query_seeds) {
            Ok(count) => println!("{count}/{count} query seeds passed"),
            Err(failure) => fail(failure),
        }
    }
}
