//! The per-layer ledger of a traced run.
//!
//! Every number is taken from outside the program: by timing calls into
//! a layer's public functions, or by reading counters and event streams
//! the program already exposes. The ledger is the same for every
//! workload; each section measures a layer on the inputs of the
//! workload that exercises it (`frame_live` cells for the live front
//! end, builds and observers; the `sweep_replay` scenes, at
//! `frame_live`'s resolution, for trace, traversal and memory; the
//! `serve_mixed` stream for the service).

use crate::sim::{
    observed_sim, record, Observe, Outcome, DETAIL, KIND, POLICIES, RES, SWEEP_SCENES,
};
use crate::stats::{derived_self, gmean, median, Derived, Metric, Report};
use crate::{serve, Args};
use cooprt_bvh::traverse::Traverser;
use cooprt_bvh::{build_binary, BvhImage, WideBvh};
use cooprt_core::{FrameResult, GpuConfig, Trace, TraversalPolicy};
use cooprt_gpu::MemoryHierarchy;
use cooprt_scenes::{Scene, SceneId, ALL_SCENES};
use cooprt_telemetry::EventKind;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the build split; each component reports its median.
const BUILD_REPS: usize = 3;

/// Seconds spent in `f`, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// One traced `NodeFetch`: the inputs of `MemoryHierarchy::access` and
/// the completion cycle it returned.
#[derive(Clone, Copy, Debug)]
struct Fetch {
    cycle: u64,
    sm: u32,
    addr: u64,
    threads: u32,
    ready_at: u64,
}

/// Everything measured on one `frame_live` cell.
struct CellLedger {
    scene: usize,
    policy: TraversalPolicy,
    off: FrameResult,
    off_s: f64,
    tracer_s: f64,
    checker_s: f64,
    recorder_s: f64,
    /// `replay_frame` from the scene's baseline recording, inputs
    /// cloned beforehand.
    replay_s: f64,
    /// `Trace::replay` of the same recording; 0 off the sweep scenes.
    trace_replay_s: f64,
    events: u64,
    dropped: u64,
    fetches: Vec<Fetch>,
}

/// Runs the whole ledger into `report`.
pub fn run(args: &Args, report: &mut Report) {
    let cfg = GpuConfig::rtx2060();
    let salt = args.seed;
    let scenes = build_split(report);
    let cells = frame_cells(&scenes, &cfg, salt, report);
    frame_metrics(&cells, report);
    sweep_metrics(&scenes, &cells, &cfg, report);
    serve::ledger(args.seed, report);
}

/// Times `SceneId::build` and, on its triangles, the three BVH stages
/// it runs; the scene generator is the remainder.
fn build_split(report: &mut Report) -> Vec<Scene> {
    let mut total = vec![Vec::new(); BUILD_REPS];
    let mut binary = vec![Vec::new(); BUILD_REPS];
    let mut collapse = vec![Vec::new(); BUILD_REPS];
    let mut serialize = vec![Vec::new(); BUILD_REPS];
    let mut scenes = Vec::new();
    for rep in 0..BUILD_REPS {
        scenes.clear();
        for id in ALL_SCENES {
            let (scene, s) = timed(|| id.build(DETAIL));
            total[rep].push(s);
            let tris = scene.image.triangles();
            let (bin, s) = timed(|| build_binary(tris));
            binary[rep].push(s);
            let (wide, s) = timed(|| WideBvh::from_binary(&bin));
            collapse[rep].push(s);
            let (image, s) = timed(|| BvhImage::serialize(&wide, tris));
            serialize[rep].push(s);
            report.check(image.content_hash() == scene.image.content_hash(), || {
                format!("{id}: rebuilt BVH differs from the scene's")
            });
            scenes.push(scene);
        }
    }
    let med = |v: &[Vec<f64>]| median(&v.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>());
    let (t, b, c, s) = (med(&total), med(&binary), med(&collapse), med(&serialize));
    let n = ALL_SCENES.len();
    report.push(
        Metric::plain("bvh.build_binary_s", b, "s").note(format!("{n} scenes, detail {DETAIL}")),
    );
    report.push(Metric::plain("bvh.collapse_s", c, "s").note("WideBvh::from_binary"));
    report.push(Metric::plain("bvh.serialize_s", s, "s").note("BvhImage::serialize"));
    report.push(Metric::derived_time(
        "scenes.generate_s",
        derived_self(t, &[b, c, s]),
        "s",
        &format!("SceneId::build {t:.6} s - the three BVH stages"),
    ));
    let nodes: usize = scenes.iter().map(|s| s.image.node_count()).sum();
    let bytes: u64 = scenes.iter().map(|s| s.image.total_bytes()).sum();
    report.push(Metric::plain("bvh.nodes", nodes as f64, "count"));
    report.push(Metric::plain("bvh.bytes", bytes as f64, "B"));
    scenes
}

/// The ways a `frame_live` cell is run, each timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Off,
    Tracer,
    Checker,
    Recorder,
    /// `replay_frame` from the scene's baseline recording, inputs
    /// cloned beforehand.
    Replay,
    /// `Trace::replay` of the same recording (sweep scenes only).
    TraceReplay,
}

/// Runs every `frame_live` cell off, with each observer alone, and as a
/// replay of the scene's baseline recording; checks that every variant
/// simulates the identical frame. The run order is mirrored, the
/// observers once in the middle and the other variants twice around
/// them, each reporting its mean: linear host drift during a cell then
/// weighs on every variant alike.
fn frame_cells(
    scenes: &[Scene],
    cfg: &GpuConfig,
    salt: u64,
    report: &mut Report,
) -> Vec<CellLedger> {
    let mut out = Vec::new();
    for (i, scene) in scenes.iter().enumerate() {
        // Recorded first, untimed: both policies replay the baseline
        // recording (a trace replays under either policy).
        let (_, trace) = record(scene, cfg, TraversalPolicy::Baseline, salt, RES);
        let replay_scene = Scene::for_replay(trace.scene_name.clone(), trace.bvh.clone());
        let mut outer = vec![Variant::Off, Variant::Replay];
        if SWEEP_SCENES.iter().any(|id| id.name() == scene.name) {
            outer.push(Variant::TraceReplay);
        }
        let order: Vec<Variant> = outer
            .iter()
            .copied()
            .chain([Variant::Tracer, Variant::Checker, Variant::Recorder])
            .chain(outer.iter().rev().copied())
            .collect();
        for policy in POLICIES {
            let label = format!("{} {}", scene.name, policy.label());
            let mut secs: Vec<(Variant, f64)> = Vec::new();
            let mut off: Option<FrameResult> = None;
            let (mut events, mut dropped, mut fetches) = (0, 0, Vec::new());
            for &v in &order {
                let (frame, s, handles) = match v {
                    Variant::Off | Variant::Tracer | Variant::Checker | Variant::Recorder => {
                        let obs = Observe {
                            tracer: v == Variant::Tracer,
                            checker: v == Variant::Checker,
                            recorder: v == Variant::Recorder,
                        };
                        let (sim, tracer, checker) = observed_sim(scene, cfg, policy, salt, obs);
                        let (f, s) = timed(|| sim.run_frame(KIND, RES, RES).expect("valid frame"));
                        (f, s, Some((tracer, checker)))
                    }
                    Variant::Replay => {
                        let (streams, image) = (trace.streams.clone(), trace.image.clone());
                        let sim = cooprt_core::Simulation::new(&replay_scene, cfg, policy);
                        let (f, s) = timed(|| {
                            sim.replay_frame(KIND, RES, RES, streams, image)
                                .expect("valid replay")
                        });
                        (f, s, None)
                    }
                    Variant::TraceReplay => {
                        let (f, s) = timed(|| trace.replay(cfg, policy).expect("valid replay"));
                        (f, s, None)
                    }
                };
                secs.push((v, s));
                let want = Outcome::of(off.get_or_insert(frame.clone()));
                report.check(Outcome::of(&frame) == want, || {
                    format!("{label}: cycles or image change under {v:?}")
                });
                let Some((tracer, checker)) = handles else {
                    continue;
                };
                let violations = checker.violations();
                report.check(violations.is_empty(), || {
                    format!("{label}: checker found {violations:?}")
                });
                if v == Variant::Tracer {
                    let log = tracer.take();
                    fetches = log
                        .events
                        .iter()
                        .filter_map(|e| match e.kind {
                            EventKind::NodeFetch {
                                sm,
                                addr,
                                threads,
                                ready_at,
                                ..
                            } => Some(Fetch {
                                cycle: e.cycle,
                                sm,
                                addr,
                                threads,
                                ready_at,
                            }),
                            _ => None,
                        })
                        .collect();
                    (events, dropped) = (log.events.len() as u64, log.dropped);
                    report.check(dropped == 0, || {
                        format!("{label}: tracer dropped {dropped} events")
                    });
                }
            }
            let time = |want: Variant| {
                let runs: Vec<f64> = secs
                    .iter()
                    .filter(|(v, _)| *v == want)
                    .map(|(_, s)| *s)
                    .collect();
                if runs.is_empty() {
                    0.0
                } else {
                    runs.iter().sum::<f64>() / runs.len() as f64
                }
            };
            out.push(CellLedger {
                scene: i,
                policy,
                off: off.expect("the off variant ran first"),
                off_s: time(Variant::Off),
                tracer_s: time(Variant::Tracer),
                checker_s: time(Variant::Checker),
                recorder_s: time(Variant::Recorder),
                replay_s: time(Variant::Replay),
                trace_replay_s: time(Variant::TraceReplay),
                events,
                dropped,
                fetches,
            });
        }
    }
    out
}

/// Sum of `f` over `cells`.
fn sum(cells: &[&CellLedger], f: impl Fn(&CellLedger) -> f64) -> f64 {
    cells.iter().map(|c| f(c)).sum()
}

/// Front end, RT unit, LBU, engine and observer metrics over the
/// `frame_live` cells.
fn frame_metrics(cells: &[CellLedger], report: &mut Report) {
    let all: Vec<&CellLedger> = cells.iter().collect();
    let of = |p: TraversalPolicy| -> Vec<&CellLedger> {
        cells.iter().filter(|c| c.policy == p).collect()
    };
    let (base, coop) = (of(TraversalPolicy::Baseline), of(TraversalPolicy::CoopRt));
    let n = cells.len();

    let live = sum(&all, |c| c.off_s);
    let replay = sum(&all, |c| c.replay_s);
    let front = derived_self(live, &[replay]);
    report.push(Metric::derived_time(
        "frontend.s",
        front,
        "s",
        &format!("run_frame {live:.6} s - replay_frame {replay:.6} s over {n} cells"),
    ));
    report.push(Metric::derived_share(
        "frontend.share",
        front,
        live,
        "front-end s / run_frame s",
    ));

    let ev = |f: fn(&cooprt_gpu::EnergyEvents) -> u64| sum(&all, |c| f(&c.off.events) as f64);
    report.push(Metric::plain(
        "rtunit.box_tests",
        ev(|e| e.box_tests),
        "count",
    ));
    report.push(Metric::plain(
        "rtunit.triangle_tests",
        ev(|e| e.triangle_tests),
        "count",
    ));
    report.push(Metric::plain(
        "rtunit.stack_ops",
        ev(|e| e.stack_ops),
        "count",
    ));
    report.push(Metric::plain(
        "rtunit.trace_instructions",
        ev(|e| e.trace_instructions),
        "count",
    ));
    let fetches = sum(&all, |c| c.fetches.len() as f64);
    let lanes = sum(&all, |c| {
        c.fetches.iter().map(|f| f64::from(f.threads)).sum()
    });
    report.push(
        Metric::plain("rtunit.node_fetches", fetches, "count").note("traced NodeFetch events"),
    );
    report.push(Metric::ratio(
        "rtunit.threads_per_fetch",
        lanes,
        fetches,
        "ratio",
        "coalesced lanes / node fetches",
    ));

    let moves = sum(&coop, |c| c.off.events.lbu_moves as f64);
    let coop_fetches = sum(&coop, |c| c.fetches.len() as f64);
    report.push(Metric::plain("lbu.moves", moves, "count"));
    report.push(Metric::ratio(
        "lbu.moves_per_fetch",
        moves,
        coop_fetches,
        "ratio",
        "LBU moves / CoopRT node fetches",
    ));
    let ns_per_cycle = |c: &CellLedger| c.replay_s * 1e9 / c.off.cycles as f64;
    let mut per_scene = Vec::new();
    let mut notes = Vec::new();
    for (b, c) in base.iter().zip(&coop) {
        let r = ns_per_cycle(c) / ns_per_cycle(b);
        per_scene.push(r);
        notes.push(format!("{} {r:.2}", ALL_SCENES[b.scene].name()));
    }
    report.push(
        Metric::ratio_of(
            "lbu.host_cost_ratio",
            gmean(&per_scene),
            "x",
            &format!(
                "gmean over {} scenes of replay host ns per simulated cycle, CoopRT / baseline, same trace and config",
                per_scene.len()
            ),
        )
        .note(notes.join(", ")),
    );
    for (cells, name) in [
        (&base, "engine.ns_per_sim_cycle.baseline"),
        (&coop, "engine.ns_per_sim_cycle.cooprt"),
    ] {
        let s = sum(cells, |c| c.replay_s);
        let cycles = sum(cells, |c| c.off.cycles as f64);
        report.push(
            Metric::plain(name, s * 1e9 / cycles, "ns")
                .note(format!("replay_frame {s:.6} s / {cycles} simulated cycles")),
        );
    }

    for (name, f) in [
        (
            "observe.tracer_overhead_pct",
            (|c: &CellLedger| c.tracer_s) as fn(&CellLedger) -> f64,
        ),
        ("observe.checker_overhead_pct", |c: &CellLedger| c.checker_s),
        ("observe.recorder_overhead_pct", |c: &CellLedger| {
            c.recorder_s
        }),
    ] {
        let on = sum(&all, f);
        report.push(Metric::ratio(
            name,
            on - live,
            live,
            "%",
            &format!("(observer-on s - off s) / off s over {n} cells"),
        ));
    }
    report.push(Metric::plain(
        "observe.events",
        sum(&all, |c| c.events as f64),
        "count",
    ));
    report.push(Metric::plain(
        "observe.dropped",
        sum(&all, |c| c.dropped as f64),
        "count",
    ));
}

/// Trace, traversal, memory and engine-residual metrics on the
/// `sweep_replay` scenes at the reference config, reusing their
/// `frame_live` cells.
fn sweep_metrics(scenes: &[Scene], cells: &[CellLedger], cfg: &GpuConfig, report: &mut Report) {
    let index = |id: SceneId| {
        ALL_SCENES
            .iter()
            .position(|&s| s == id)
            .expect("sweep scene is a render scene")
    };
    let sweep: Vec<&CellLedger> = cells
        .iter()
        .filter(|c| SWEEP_SCENES.iter().any(|&id| index(id) == c.scene))
        .collect();

    // Record, encode, decode: the set-up of a sweep shard. Recording
    // is `Trace::record` itself, at its fixed sample salt: its cost does
    // not depend on the seed.
    let mut traces = Vec::new();
    let (mut record_s, mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    for id in SWEEP_SCENES {
        let ((_, trace), s) = timed(|| {
            Trace::record(
                &scenes[index(id)],
                DETAIL,
                cfg,
                TraversalPolicy::Baseline,
                KIND,
                RES,
                RES,
            )
            .expect("valid frame")
        });
        record_s += s;
        let (enc, s) = timed(|| trace.encode());
        encode_s += s;
        let (dec, s) = timed(|| Trace::decode(&enc).expect("decode own encoding"));
        decode_s += s;
        bytes += enc.len();
        traces.push(dec);
    }
    // The overhead of recording is measured over every baseline cell:
    // two cells alone are too few to steady it.
    let base: Vec<&CellLedger> = cells
        .iter()
        .filter(|c| c.policy == TraversalPolicy::Baseline)
        .collect();
    let live_base = sum(&base, |c| c.off_s);
    let rec_base = sum(&base, |c| c.recorder_s);
    report.push(
        Metric::plain("trace.record_s", record_s, "s").note("Trace recording of spnza and car"),
    );
    report.push(Metric::ratio(
        "trace.record_overhead_pct",
        rec_base - live_base,
        live_base,
        "%",
        &format!(
            "(recording run s - live run s) / live run s over the {} baseline cells",
            base.len()
        ),
    ));
    report.push(Metric::plain("trace.encode_s", encode_s, "s"));
    report.push(Metric::plain("trace.decode_s", decode_s, "s"));
    report.push(Metric::plain("trace.bytes", bytes as f64, "B"));

    // Trace::replay against replay_frame with pre-cloned inputs, and
    // against the live frame of the same cell.
    let replay_api: f64 = sweep.iter().map(|c| c.trace_replay_s).sum();
    let replay_core: f64 = sweep.iter().map(|c| c.replay_s).sum();
    let live: f64 = sweep.iter().map(|c| c.off_s).sum();
    report.push(Metric::derived_time(
        "trace.replay_setup_s",
        derived_self(replay_api, &[replay_core]),
        "s",
        &format!(
            "Trace::replay {replay_api:.6} s - replay_frame {replay_core:.6} s over {} cells",
            sweep.len()
        ),
    ));
    report.push(Metric::ratio(
        "trace.replay_vs_live",
        live,
        replay_api,
        "x",
        "live run_frame s / Trace::replay s, same cells (above 1: replay is faster)",
    ));

    // The traversal floor: functional closest-hit over every recorded
    // ray, no timing model.
    let (mut rays, mut traverse_s) = (0u64, 0.0);
    let mut trav = Traverser::new();
    for t in &traces {
        let (hits, s) = timed(|| {
            let mut hits = 0u64;
            for stream in &t.streams {
                for r in stream {
                    hits +=
                        u64::from(black_box(trav.closest_hit(&t.bvh, &r.ray(), r.t_max)).is_some());
                }
            }
            hits
        });
        black_box(hits);
        rays += t.total_records();
        traverse_s += s;
    }
    let traverse_ns_per_ray = traverse_s * 1e9 / rays as f64;
    report.push(
        Metric::plain("traverse.ns_per_ray", traverse_ns_per_ray, "ns")
            .note(format!("Traverser::closest_hit over {rays} recorded rays")),
    );

    // The memory layer alone: each cell's traced NodeFetch stream
    // through a fresh MemoryHierarchy, every ready_at reproduced.
    let (mut mem_s, mut accesses, mut sound) = (0.0, 0u64, true);
    for c in &sweep {
        let image = &scenes[c.scene].image;
        let sizes: Vec<u32> = c
            .fetches
            .iter()
            .map(|f| {
                image
                    .node_at(f.addr)
                    .expect("fetched node exists")
                    .size_bytes()
            })
            .collect();
        let mut mem = MemoryHierarchy::new(&cfg.mem);
        let (ready, s) = timed(|| {
            c.fetches
                .iter()
                .zip(&sizes)
                .map(|(f, &bytes)| mem.access(f.sm as usize, f.addr, bytes, f.cycle))
                .collect::<Vec<u64>>()
        });
        let matches = ready.iter().zip(&c.fetches).all(|(r, f)| *r == f.ready_at);
        report.check(matches && c.dropped == 0, || {
            format!(
                "{} {}: memory replay does not reproduce the traced ready_at",
                ALL_SCENES[c.scene].name(),
                c.policy.label()
            )
        });
        sound &= matches && c.dropped == 0;
        mem_s += s;
        accesses += c.fetches.len() as u64;
    }
    let stat =
        |f: &dyn Fn(&cooprt_gpu::MemStats) -> f64| sweep.iter().map(|c| f(&c.off.mem)).sum::<f64>();
    report.push(
        Metric::plain("mem.accesses", accesses as f64, "count")
            .note("MemoryHierarchy::access calls, sweep scenes at ref"),
    );
    report.push(Metric::ratio(
        "mem.l1_hit_rate",
        stat(&|m| m.l1.hits as f64),
        stat(&|m| m.l1.accesses as f64),
        "ratio",
        "L1 hits / L1 accesses",
    ));
    report.push(Metric::ratio(
        "mem.l2_hit_rate",
        stat(&|m| m.l2.hits as f64),
        stat(&|m| m.l2.accesses as f64),
        "ratio",
        "L2 hits / L2 accesses",
    ));
    report.push(Metric::plain(
        "mem.l1_mshr_merges",
        stat(&|m| m.l1_mshr.merges as f64),
        "count",
    ));
    report.push(Metric::plain(
        "mem.dram_bytes",
        stat(&|m| m.dram_bytes as f64),
        "B",
    ));
    if !sound {
        // An unsound replay times something other than the memory
        // layer; the failure above is the only report.
        return;
    }
    report.push(
        Metric::plain("mem.access_ns", mem_s * 1e9 / accesses as f64, "ns")
            .note(format!("{mem_s:.6} s over {accesses} replayed accesses")),
    );
    report.push(Metric::ratio(
        "mem.share",
        mem_s,
        replay_core,
        "share",
        "memory replay s / replay_frame s, same cells",
    ));

    let traverse_cells: f64 = sweep
        .iter()
        .map(|c| traverse_ns_per_ray * c.off.rays as f64 / 1e9)
        .sum();
    let residual: Derived = derived_self(replay_core, &[mem_s, traverse_cells]);
    report.push(Metric::derived_share(
        "engine.residual_share",
        residual,
        replay_core,
        "(replay_frame s - memory replay s - traversal floor s) / replay_frame s",
    ));
}
