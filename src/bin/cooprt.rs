//! The `cooprt` command-line tool: render scenes through the simulated
//! GPU, compare traversal policies, inspect the scene suite, and query
//! the area model — the whole library surface behind one binary.

use cooprt::core::area::{cooprt_area, overhead_fraction, warp_buffer_bits};
use cooprt::core::{
    parallel, FrameResult, GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, Simulation, Trace,
    TraversalPolicy,
};
use cooprt::query::QueryRun;
use cooprt::scenes::{Scene, SceneId, ALL_SCENES, QUERY_SCENES};
use cooprt::serve::{ServeConfig, Server};
use std::process::ExitCode;

const USAGE: &str = "\
cooprt — cooperative BVH traversal simulator (CoopRT, ISCA 2025)

USAGE:
    cooprt <COMMAND> [OPTIONS]

COMMANDS:
    render <scene>     render a scene and write a PPM image
    compare <scene>    baseline vs CoopRT side by side
    query <scene>      run a spatial-query batch (kNN / radius / containment)
    scenes             list the benchmark suite (Table 2 style)
    area               print the CoopRT area model (Table 3 style)
    serve              run the batch render/simulation HTTP service
    trace record <scene>   record the front end once into a trace file
    trace replay <file>    replay the timing model from a trace
    trace info <file>      decode a trace and print its header/stats
    help               show this message

OPTIONS (render / compare):
    --res <N>          square frame resolution      [default: 64]
    --detail <N>       scene detail level           [default: 16]
    --shader <S>       pt | ao | sh                 [default: pt]
    --policy <P>       baseline | cooprt            [default: cooprt]
    --reorder <R>      off | morton | octant-hash   [default: off]
    --predict <P>      off | ray-path               [default: off]
    --mobile           use the 8-SM mobile GPU configuration
    --out <FILE>       PPM output path (render only)

OPTIONS (query):
    --detail <N>       scene detail level           [default: 16]
    --count <N>        query points in the batch    [default: 1024]
    --salt <N>         query sampling salt          [default: 1]
    --shader <S>       knn | rad | cont             [default: by scene domain]
    --policy <P>       baseline | cooprt            [default: cooprt]
    --reorder <R>      off | morton | octant-hash   [default: off]
    --mobile           use the 8-SM mobile GPU configuration
    --compare          run baseline and CoopRT, assert identical answers
    --no-verify        skip the brute-force oracle check

    Query scenes: quni (uniform points), qclu (clustered points),
    qsrf (surface-sampled points), qamr (AMR cell grid). Point scenes
    default to the knn shader, cell scenes to cont.

OPTIONS (trace record / trace replay):
    record takes the render options above; --out sets the trace path
    (default <scene>.cprt). replay takes --policy / --mobile, plus:
    --verify           also run the same point live and assert the
                       replayed cycles and image are bitwise identical

OPTIONS (serve):
    --addr <A>         listen address               [default: 127.0.0.1:7878]
    --workers <N>      simulation worker threads    [default: 2]
    --queue <N>        admission queue capacity     [default: 32]
    --smoke            bind an ephemeral port, self-test every endpoint
                       (health, render miss/hit identity, JSON and
                       Prometheus metrics, request spans, structured
                       logging, graceful drain), then exit

    Structured JSON-lines logging to stderr is controlled by the
    COOPRT_LOG environment variable (e.g. COOPRT_LOG=debug or
    COOPRT_LOG=info,serve::queue=trace).

EXAMPLES:
    cooprt render crnvl --res 96 --out crnvl.ppm
    cooprt compare fox --shader ao
    cooprt query qclu --shader rad --compare
    cooprt query qamr --count 4096
    cooprt scenes
    cooprt area
    COOPRT_LOG=info cooprt serve --addr 127.0.0.1:7878 --workers 4
    cooprt trace record wknd --res 64 --out wknd.cprt
    cooprt trace replay wknd.cprt --policy baseline --reorder morton --verify
    cooprt trace info wknd.cprt
";

struct Options {
    res: usize,
    detail: u32,
    shader: ShaderKind,
    policy: TraversalPolicy,
    reorder: ReorderPolicy,
    predict: PredictPolicy,
    mobile: bool,
    out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            res: 64,
            detail: 16,
            shader: ShaderKind::PathTrace,
            policy: TraversalPolicy::CoopRt,
            reorder: ReorderPolicy::Off,
            predict: PredictPolicy::Off,
            mobile: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--res" => {
                    opts.res = value("--res")?
                        .parse()
                        .map_err(|_| "--res expects a positive integer".to_string())?;
                }
                "--detail" => {
                    opts.detail = value("--detail")?
                        .parse()
                        .map_err(|_| "--detail expects a positive integer".to_string())?;
                }
                "--shader" => {
                    opts.shader = match value("--shader")?.as_str() {
                        "pt" => ShaderKind::PathTrace,
                        "ao" => ShaderKind::AmbientOcclusion,
                        "sh" => ShaderKind::Shadow,
                        other => return Err(format!("unknown shader '{other}' (pt|ao|sh)")),
                    };
                }
                "--policy" => {
                    opts.policy = match value("--policy")?.as_str() {
                        "baseline" => TraversalPolicy::Baseline,
                        "cooprt" => TraversalPolicy::CoopRt,
                        other => return Err(format!("unknown policy '{other}' (baseline|cooprt)")),
                    };
                }
                "--reorder" => {
                    let v = value("--reorder")?;
                    opts.reorder = ReorderPolicy::parse(&v)
                        .ok_or_else(|| format!("unknown reorder '{v}' (off|morton|octant-hash)"))?;
                }
                "--predict" => {
                    let v = value("--predict")?;
                    opts.predict = PredictPolicy::parse(&v)
                        .ok_or_else(|| format!("unknown predict '{v}' (off|ray-path)"))?;
                }
                "--mobile" => opts.mobile = true,
                "--out" => opts.out = Some(value("--out")?),
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if opts.res == 0 || opts.detail == 0 {
            return Err("--res and --detail must be positive".into());
        }
        Ok(opts)
    }

    fn config(&self) -> GpuConfig {
        let base = if self.mobile {
            GpuConfig::mobile()
        } else {
            GpuConfig::rtx2060()
        };
        base.with_reorder(self.reorder).with_predict(self.predict)
    }
}

fn find_scene(name: &str) -> Result<SceneId, String> {
    ALL_SCENES
        .iter()
        .chain(QUERY_SCENES.iter())
        .copied()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = ALL_SCENES
                .iter()
                .chain(QUERY_SCENES.iter())
                .map(|s| s.name())
                .collect();
            format!("unknown scene '{name}'; available: {}", names.join(" "))
        })
}

fn report(label: &str, scene: &Scene, cfg: &GpuConfig, frame: &FrameResult) {
    println!("--- {label} ---");
    println!(
        "cycles: {} ({:.3} ms at {:.0} MHz) | slowest warp: {}",
        frame.cycles,
        frame.cycles as f64 / (cfg.mem.core_clock_mhz * 1e3),
        cfg.mem.core_clock_mhz,
        frame.slowest_warp_cycles
    );
    println!(
        "RT-unit utilization: {:.1}% | L1 miss {:.1}% | L2 miss {:.1}% | DRAM util {:.1}%",
        frame.intervals.avg_utilization() * 100.0,
        frame.mem.l1.miss_rate() * 100.0,
        frame.mem.l2.miss_rate() * 100.0,
        frame.dram_utilization * 100.0
    );
    if frame.reorder.passes > 0 {
        println!(
            "reorder: {} passes | {} keys | {} rays moved | SIMT efficiency {:.1}%",
            frame.reorder.passes,
            frame.reorder.keys_computed,
            frame.reorder.rays_moved,
            frame.simt_efficiency() * 100.0
        );
    }
    if frame.predictor.path_lookups > 0 {
        let p = &frame.predictor;
        println!(
            "predict: {} lookups | {:.1}% entry-hit | {} go-up steps | {} node fetches saved",
            p.path_lookups,
            if p.path_candidates > 0 {
                p.path_entry_hits as f64 / p.path_candidates as f64 * 100.0
            } else {
                0.0
            },
            p.path_go_up_steps,
            p.node_fetches_saved
        );
    }
    println!(
        "energy: {:.3} mJ | avg power {:.1} W | scene '{}' {} triangles",
        frame.energy.total_j() * 1e3,
        frame.energy.avg_power_w(),
        scene.name,
        scene.triangle_count()
    );
}

fn cmd_render(scene_name: &str, opts: &Options) -> Result<(), String> {
    let id = find_scene(scene_name)?;
    let scene = id.build(opts.detail);
    let cfg = opts.config();
    println!(
        "rendering '{id}' at {0}x{0} under {1} ({2} shader)...",
        opts.res,
        opts.policy.label(),
        opts.shader.key()
    );
    let frame = Simulation::new(&scene, &cfg, opts.policy)
        .run_frame(opts.shader, opts.res, opts.res)
        .unwrap();
    report(opts.policy.label(), &scene, &cfg, &frame);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{scene_name}.ppm"));
    std::fs::write(&out, frame.image_buffer().to_ppm())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_compare(scene_name: &str, opts: &Options) -> Result<(), String> {
    let id = find_scene(scene_name)?;
    let scene = id.build(opts.detail);
    let cfg = opts.config();
    // The two frames are independent: simulate them on two workers.
    let frame = |policy| {
        Simulation::new(&scene, &cfg, policy)
            .run_frame(opts.shader, opts.res, opts.res)
            .unwrap()
    };
    let (base, coop) = parallel::join(
        parallel::threads(),
        || frame(TraversalPolicy::Baseline),
        || frame(TraversalPolicy::CoopRt),
    );
    report("baseline", &scene, &cfg, &base);
    report("cooprt", &scene, &cfg, &coop);
    assert_eq!(base.image, coop.image, "policies must agree functionally");
    println!("--- verdict ---");
    println!(
        "speedup {:.2}x | power {:.2}x | energy {:.2}x | images identical ✓",
        base.cycles as f64 / coop.cycles.max(1) as f64,
        coop.energy.avg_power_w() / base.energy.avg_power_w().max(1e-12),
        coop.energy.total_j() / base.energy.total_j().max(1e-300)
    );
    Ok(())
}

/// Options of the `query` command.
struct QueryOptions {
    detail: u32,
    count: usize,
    salt: u64,
    shader: Option<ShaderKind>,
    policy: TraversalPolicy,
    reorder: ReorderPolicy,
    mobile: bool,
    compare: bool,
    verify: bool,
}

impl QueryOptions {
    fn parse(args: &[String]) -> Result<QueryOptions, String> {
        let mut opts = QueryOptions {
            detail: 16,
            count: 1024,
            salt: 1,
            shader: None,
            policy: TraversalPolicy::CoopRt,
            reorder: ReorderPolicy::Off,
            mobile: false,
            compare: false,
            verify: true,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--detail" => {
                    opts.detail = value("--detail")?
                        .parse()
                        .map_err(|_| "--detail expects a positive integer".to_string())?;
                }
                "--count" => {
                    opts.count = value("--count")?
                        .parse()
                        .map_err(|_| "--count expects a positive integer".to_string())?;
                }
                "--salt" => {
                    opts.salt = value("--salt")?
                        .parse()
                        .map_err(|_| "--salt expects an unsigned integer".to_string())?;
                }
                "--shader" => {
                    opts.shader = Some(match value("--shader")?.as_str() {
                        "knn" => ShaderKind::Knn,
                        "rad" | "radius" => ShaderKind::Radius,
                        "cont" | "contain" => ShaderKind::Contain,
                        other => {
                            return Err(format!("unknown query shader '{other}' (knn|rad|cont)"))
                        }
                    });
                }
                "--policy" => {
                    opts.policy = match value("--policy")?.as_str() {
                        "baseline" => TraversalPolicy::Baseline,
                        "cooprt" => TraversalPolicy::CoopRt,
                        other => return Err(format!("unknown policy '{other}' (baseline|cooprt)")),
                    };
                }
                "--reorder" => {
                    let v = value("--reorder")?;
                    opts.reorder = ReorderPolicy::parse(&v)
                        .ok_or_else(|| format!("unknown reorder '{v}' (off|morton|octant-hash)"))?;
                }
                "--mobile" => opts.mobile = true,
                "--compare" => opts.compare = true,
                "--no-verify" => opts.verify = false,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if opts.detail == 0 || opts.count == 0 {
            return Err("--detail and --count must be positive".into());
        }
        Ok(opts)
    }

    fn config(&self) -> GpuConfig {
        let base = if self.mobile {
            GpuConfig::mobile()
        } else {
            GpuConfig::rtx2060()
        };
        base.with_reorder(self.reorder)
    }
}

fn query_report(label: &str, cfg: &GpuConfig, run: &QueryRun) {
    let nonempty = run.answers.iter().filter(|a| !a.is_empty()).count();
    let entries: usize = run.answers.iter().map(Vec::len).sum();
    println!("--- {label} ---");
    println!(
        "cycles: {} ({:.3} ms at {:.0} MHz) | probe rays: {}",
        run.cycles,
        run.cycles as f64 / (cfg.mem.core_clock_mhz * 1e3),
        cfg.mem.core_clock_mhz,
        run.rays
    );
    println!(
        "answers: {}/{} non-empty | {} entries | RT-unit utilization {:.1}%",
        nonempty,
        run.answers.len(),
        entries,
        run.frame.intervals.avg_utilization() * 100.0
    );
}

fn cmd_query(scene_name: &str, opts: &QueryOptions) -> Result<(), String> {
    let id = find_scene(scene_name)?;
    let scene = id.build(opts.detail);
    let domain = scene.query.as_ref().ok_or_else(|| {
        let names: Vec<&str> = QUERY_SCENES.iter().map(|s| s.name()).collect();
        format!(
            "'{scene_name}' has no query domain; query scenes: {}",
            names.join(" ")
        )
    })?;
    let kind = opts.shader.unwrap_or(if domain.cells.is_empty() {
        ShaderKind::Knn
    } else {
        ShaderKind::Contain
    });
    let cfg = opts.config();
    println!(
        "running {} '{}' queries against '{id}' (detail {}, {} triangles)...",
        opts.count,
        kind.key(),
        opts.detail,
        scene.triangle_count()
    );
    let run = |policy: TraversalPolicy| {
        cooprt::query::run_queries(&scene, &cfg, policy, kind, opts.count, opts.salt)
            .map_err(|e| e.to_string())
    };
    let result = if opts.compare {
        let base = run(TraversalPolicy::Baseline)?;
        let coop = run(TraversalPolicy::CoopRt)?;
        query_report("baseline", &cfg, &base);
        query_report("cooprt", &cfg, &coop);
        if base.answers != coop.answers {
            return Err("policies disagree: baseline and CoopRT answers differ".into());
        }
        println!(
            "speedup {:.2}x | answers identical ✓",
            base.cycles as f64 / coop.cycles.max(1) as f64
        );
        coop
    } else {
        let r = run(opts.policy)?;
        query_report(opts.policy.label(), &cfg, &r);
        r
    };
    for (i, answer) in result.answers.iter().take(3).enumerate() {
        println!("q{i} -> {answer:?}");
    }
    if opts.verify {
        let want = cooprt::query::oracle_answers(&scene, kind, opts.count, opts.salt);
        if result.answers != want {
            return Err("oracle mismatch: simulated answers differ from brute force".into());
        }
        println!("oracle: all {} answers exact ✓", opts.count);
    }
    Ok(())
}

fn cmd_scenes(opts: &Options) {
    println!(
        "{:<8} {:>10} {:>11} {:>6} {:>7} {:>7}",
        "scene", "triangles", "tree(MiB)", "depth", "lights", "closed"
    );
    for id in ALL_SCENES {
        let s = id.build(opts.detail);
        println!(
            "{:<8} {:>10} {:>11.3} {:>6} {:>7} {:>7}",
            s.name,
            s.triangle_count(),
            s.stats.size_mib,
            s.stats.depth,
            s.lights.len(),
            s.is_closed()
        );
    }
}

fn cmd_area() {
    println!(
        "{:<8} {:>8} {:>11} {:>10}",
        "subwarp", "cells", "area(um2)", "overhead"
    );
    for sw in [32usize, 16, 8, 4] {
        let a = cooprt_area(sw);
        println!(
            "{:<8} {:>8} {:>11.0} {:>9.2}%",
            sw,
            a.cells(),
            a.area_um2(),
            overhead_fraction(sw, 4) * 100.0
        );
    }
    println!("\nwarp buffer (4 entries): {} bits", warp_buffer_bits(4));
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 2 => {
            Options::parse(&args[2..]).and_then(|o| cmd_trace_record(&args[1], &o))
        }
        Some("replay") if args.len() >= 2 => cmd_trace_replay(&args[1], &args[2..]),
        Some("info") if args.len() >= 2 => cmd_trace_info(&args[1]),
        _ => Err("usage: cooprt trace record <scene> | replay <file> | info <file>".into()),
    }
}

fn cmd_trace_record(scene_name: &str, opts: &Options) -> Result<(), String> {
    let id = find_scene(scene_name)?;
    let scene = id.build(opts.detail);
    let cfg = opts.config();
    println!(
        "recording '{id}' at {0}x{0} under {1} ({2} shader)...",
        opts.res,
        opts.policy.label(),
        opts.shader.key()
    );
    let (frame, trace) = Trace::record(
        &scene,
        opts.detail,
        &cfg,
        opts.policy,
        opts.shader,
        opts.res,
        opts.res,
    )
    .unwrap();
    let bytes = trace.encode();
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{scene_name}.cprt"));
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "cycles: {} | {} ray records over {} trace_rays | wrote {out} ({} bytes)",
        frame.cycles,
        trace.total_records(),
        trace.issues.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_trace_replay(path: &str, args: &[String]) -> Result<(), String> {
    let verify = args.iter().any(|a| a == "--verify");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--verify").cloned().collect();
    let opts = Options::parse(&rest)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let cfg = opts.config();
    println!(
        "replaying '{}' ({}x{}, {} shader) under {}...",
        trace.scene_name,
        trace.width,
        trace.height,
        trace.kind.key(),
        opts.policy.label()
    );
    let frame = trace
        .replay(&cfg, opts.policy)
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "cycles: {} | rays: {} | L1 miss {:.1}% | DRAM util {:.1}%",
        frame.cycles,
        frame.rays,
        frame.mem.l1.miss_rate() * 100.0,
        frame.dram_utilization * 100.0
    );
    if verify {
        let id = find_scene(&trace.scene_name)?;
        let scene = id.build(trace.detail);
        let live = Simulation::new(&scene, &cfg, opts.policy)
            .run_frame(trace.kind, trace.width, trace.height)
            .unwrap();
        if frame.cycles != live.cycles {
            return Err(format!(
                "verify failed: replay {} cycles, live {} cycles",
                frame.cycles, live.cycles
            ));
        }
        if frame.image != live.image {
            return Err("verify failed: replayed image differs from live".into());
        }
        println!(
            "verify: replay is bitwise identical to live simulation ({} cycles) ✓",
            live.cycles
        );
    }
    Ok(())
}

fn cmd_trace_info(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("trace: {path} ({} bytes)", bytes.len());
    println!(
        "scene: '{}' (detail {}, BVH hash {:#018x})",
        trace.scene_name, trace.detail, trace.scene_hash
    );
    println!(
        "frame: {}x{} | shader {} | salt {}",
        trace.width,
        trace.height,
        trace.kind.key(),
        trace.sample_salt
    );
    println!(
        "shader config: max_bounces {} | ao {}x{:.2} | sh {}",
        trace.max_bounces, trace.ao_samples, trace.ao_radius, trace.sh_samples
    );
    println!(
        "bvh: {} nodes, {} triangles, {} bytes",
        trace.bvh.node_count(),
        trace.bvh.triangles().len(),
        trace.bvh.total_bytes()
    );
    let longest = trace.streams.iter().map(Vec::len).max().unwrap_or(0);
    println!(
        "streams: {} threads, {} ray records (longest {})",
        trace.streams.len(),
        trace.total_records(),
        longest
    );
    let sms = trace.issues.iter().map(|i| i.sm).max().map_or(0, |m| m + 1);
    println!(
        "issues: {} trace_rays across {} SMs",
        trace.issues.len(),
        sms
    );
    Ok(())
}

/// Options of the `serve` command.
struct ServeOptions {
    addr: String,
    workers: usize,
    queue: usize,
    smoke: bool,
}

impl ServeOptions {
    fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue: 32,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--addr" => opts.addr = value("--addr")?,
                "--workers" => {
                    opts.workers = value("--workers")?
                        .parse()
                        .map_err(|_| "--workers expects a positive integer".to_string())?;
                }
                "--queue" => {
                    opts.queue = value("--queue")?
                        .parse()
                        .map_err(|_| "--queue expects a positive integer".to_string())?;
                }
                "--smoke" => opts.smoke = true,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if opts.workers == 0 || opts.queue == 0 {
            return Err("--workers and --queue must be positive".into());
        }
        Ok(opts)
    }
}

fn cmd_serve(opts: &ServeOptions) -> Result<(), String> {
    // Smoke mode captures debug-level logs in a buffer sink so the
    // self-test can assert every line parses; otherwise COOPRT_LOG
    // drives stderr logging (the ServeConfig default).
    let smoke_logger = if opts.smoke {
        Some(
            cooprt::telemetry::Logger::to_buffer("debug")
                .map_err(|e| format!("smoke: bad log spec: {e}"))?,
        )
    } else {
        None
    };
    let config = ServeConfig {
        addr: if opts.smoke {
            "127.0.0.1:0".to_string() // ephemeral: never collides in CI
        } else {
            opts.addr.clone()
        },
        workers: opts.workers,
        queue_capacity: opts.queue,
        handle_signals: !opts.smoke,
        logger: smoke_logger
            .clone()
            .unwrap_or_else(cooprt::telemetry::Logger::from_env),
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if !opts.smoke {
        println!(
            "cooprt-serve listening on http://{addr} ({} workers, queue {})",
            opts.workers, opts.queue
        );
        println!("endpoints: POST /v1/render  POST /v1/simulate  POST /v1/query  GET /v1/jobs/<id>  GET /v1/spans/<id>  GET /metrics  GET /healthz");
        println!("ctrl-c or SIGTERM drains gracefully");
        return server.run().map_err(|e| e.to_string());
    }
    let logger = smoke_logger.expect("smoke mode always builds a buffer logger");
    serve_smoke(server, &addr.to_string(), &logger)
}

/// The `serve --smoke` self-test: every endpoint over a real socket,
/// cache-hit identity included, plus the observability surface (JSON
/// and Prometheus metrics, request spans, structured log lines), then
/// a graceful drain.
fn serve_smoke(
    server: Server,
    addr: &str,
    logger: &cooprt::telemetry::Logger,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("smoke: io error: {e}");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = cooprt::serve::HttpClient::connect(addr).map_err(io)?;

    let health = client.get("/healthz").map_err(io)?;
    if health.status != 200 {
        return Err(format!("smoke: /healthz returned {}", health.status));
    }
    println!("smoke: /healthz ok");

    let job = r#"{"scene": "bunny", "width": 16, "height": 12, "spp": 2}"#;
    let first = client.post("/v1/render", job).map_err(io)?;
    if first.status != 200 || first.header("x-cache") != Some("miss") {
        return Err(format!(
            "smoke: first render expected 200/miss, got {}/{:?}: {}",
            first.status,
            first.header("x-cache"),
            first.text()
        ));
    }
    let second = client.post("/v1/render", job).map_err(io)?;
    if second.status != 200 || second.header("x-cache") != Some("hit") {
        return Err(format!(
            "smoke: second render expected 200/hit, got {}/{:?}",
            second.status,
            second.header("x-cache")
        ));
    }
    if first.body != second.body {
        return Err("smoke: cache hit is not bitwise identical to the fresh run".to_string());
    }
    println!(
        "smoke: /v1/render miss+hit identical ({} bytes)",
        first.body.len()
    );

    let metrics = client.get("/metrics").map_err(io)?;
    let doc = cooprt::telemetry::parse_json(&metrics.text())
        .map_err(|e| format!("smoke: /metrics is not valid JSON: {e}"))?;
    let hits = doc
        .get("result_cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_f64());
    if hits != Some(1.0) {
        return Err(format!("smoke: expected 1 result-cache hit, got {hits:?}"));
    }
    // One keep-alive connection: every earlier request is observed.
    let requests = doc
        .get("http")
        .and_then(|h| h.get("requests"))
        .and_then(|v| v.as_f64());
    let routed: f64 = match doc.get("routes") {
        Some(cooprt::telemetry::JsonValue::Object(routes)) => {
            routes.iter().filter_map(|(_, v)| v.as_f64()).sum()
        }
        _ => return Err("smoke: /metrics has no routes object".to_string()),
    };
    if requests != Some(routed) {
        return Err(format!(
            "smoke: http.requests is {requests:?}, the routes sum to {routed}"
        ));
    }
    println!("smoke: /metrics parses, result-cache hit counted, routes add up to requests");

    let prom = client.get_accept("/metrics", "text/plain").map_err(io)?;
    if prom.status != 200 {
        return Err(format!(
            "smoke: prometheus /metrics returned {}",
            prom.status
        ));
    }
    cooprt::telemetry::validate_prometheus(&prom.text())
        .map_err(|e| format!("smoke: prometheus exposition invalid: {e}"))?;
    let hit_line = r#"cooprt_cache_requests_total{cache="result",outcome="hit"} 1"#;
    if !prom.text().lines().any(|line| line == hit_line) {
        return Err(format!("smoke: prometheus exposition lacks '{hit_line}'"));
    }
    println!("smoke: /metrics (Accept: text/plain) passes the Prometheus validator and agrees with the JSON");

    let id = first
        .header("x-request-id")
        .ok_or("smoke: render response has no X-Request-Id")?
        .to_string();
    let spans = client.get(&format!("/v1/spans/{id}")).map_err(io)?;
    if spans.status != 200 {
        return Err(format!("smoke: /v1/spans/{id} returned {}", spans.status));
    }
    cooprt::telemetry::validate_chrome_trace(&spans.text())
        .map_err(|e| format!("smoke: span trace invalid: {e}"))?;
    println!("smoke: /v1/spans/{id} validates as Chrome trace JSON");

    handle.shutdown();
    join.join()
        .map_err(|_| "smoke: server thread panicked".to_string())?
        .map_err(|e| format!("smoke: server run failed: {e}"))?;

    let lines = logger.captured();
    if lines.is_empty() {
        return Err("smoke: debug logging captured no lines".to_string());
    }
    for line in &lines {
        cooprt::telemetry::parse_json(line)
            .map_err(|e| format!("smoke: log line does not parse ({e}): {line}"))?;
    }
    println!(
        "smoke: {} structured log lines, every one parses as JSON",
        lines.len()
    );
    println!("smoke: graceful drain complete — all checks passed");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("render") if args.len() >= 2 => {
            Options::parse(&args[2..]).and_then(|o| cmd_render(&args[1], &o))
        }
        Some("compare") if args.len() >= 2 => {
            Options::parse(&args[2..]).and_then(|o| cmd_compare(&args[1], &o))
        }
        Some("query") if args.len() >= 2 => {
            QueryOptions::parse(&args[2..]).and_then(|o| cmd_query(&args[1], &o))
        }
        Some("scenes") => Options::parse(&args[1..]).map(|o| cmd_scenes(&o)),
        Some("area") => {
            cmd_area();
            Ok(())
        }
        Some("serve") => ServeOptions::parse(&args[1..]).and_then(|o| cmd_serve(&o)),
        Some("trace") => cmd_trace(&args[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
