//! simperf: wall-clock throughput of the simulator itself.
//!
//! Unlike the figure targets (which report *simulated* metrics), this
//! target measures how fast the simulator runs on the host: simulated
//! cycles per wall-clock second and rays per wall-clock second for each
//! scene x policy cell, plus an honest parallel-scaling ladder. The
//! matrix is first run sequentially (timing each cell), then re-run at
//! each power-of-two worker count up to the host parallelism; every
//! pooled pass is asserted bitwise identical to the sequential one
//! (the determinism contract of `cooprt_core::parallel`), and the
//! per-worker-count wall clocks and speedups are all recorded — on a
//! single-core host the ladder simply shows that there is no
//! parallelism to be had, instead of dressing a one-worker pass up as
//! a "parallel" measurement. Results are printed and written to
//! `BENCH_simperf.json` at the repository root.
//!
//! A trace record/replay section measures the record-once/replay-
//! everywhere amortization on an 8-config memory-hierarchy sweep of the
//! first scene: one trace is recorded under the reference config, every
//! sweep point is replayed from it, and each replay is asserted bitwise
//! identical (cycles and image) to a live run of the same config. The
//! recorder's wall-clock overhead and the sweep speedup are reported
//! under `trace_replay` in the JSON.
//!
//! A ray-reordering section sweeps the reorder axis over every scene:
//! each scene's front end is recorded once (unordered), then replayed
//! under {baseline, CoopRT} x {off, octant-hash} — reordering is
//! timing-only, so one trace serves all four cells and every replayed
//! image is asserted bitwise identical to the recorded frame. The
//! section reports cycles, SIMT efficiency, L1/L2 hit rates and rays
//! moved per cell under `reorder` in the JSON — wins and losses alike.
//! Morton is left out here: every primary ray shares the camera origin,
//! so the origin-major key moves no ray and its rows would equal `off`
//! (DESIGN.md "Ray reordering"). The query section keeps it.
//!
//! A ray-path prediction section sweeps the predict axis the same way:
//! each scene's *shadow* front end (the coherent any-hit workload the
//! predictor targets) is recorded once, then replayed under
//! {baseline, CoopRT} x {off, ray-path}. Every replayed image is
//! asserted bitwise identical to the recorded frame — the predictor's
//! go-up-to-root fallback keeps occlusion exact — and the section
//! reports cycles, predicted-hit rate, go-up steps and node fetches
//! saved per cell under `predict` in the JSON.
//!
//! A spatial-query section runs the four query scenes (uniform /
//! clustered / surface point clouds, AMR cell grid) through the
//! `cooprt-query` front end: kNN, fixed-radius search and point-in-cell
//! containment as gather-mode probe batches, under
//! {baseline, CoopRT} x {reorder off, morton}. Every cell's answers are
//! asserted **exact** against the brute-force oracle before its timing
//! is reported, and the section records whether LBU work-stealing helps
//! or hurts under query-style divergence — both outcomes are honest
//! results (reordering query points into coherent warps can *remove*
//! the imbalance CoopRT feeds on). The matrix parameters are
//! hard-coded (detail 16, 2048 queries, salt 1) so the `query` rows in
//! the JSON stay comparable to the golden pins in
//! `tests/golden_cycles.rs` regardless of `COOPRT_RES`/`COOPRT_DETAIL`.
//!
//! `--smoke` runs a two-scene, low-resolution edition — same passes,
//! same determinism asserts (including one reordered and one predicted
//! replay per smoke scene, plus a reduced query matrix), no JSON — so
//! CI can exercise this harness in seconds (see `ci.sh`).
//!
//! The JSON document goes through the shared
//! [`cooprt_telemetry::JsonWriter`] (byte-compatible with the layout
//! this bench has always produced), and the bench phases are timed with
//! a [`cooprt_telemetry::Profiler`] so the wall clocks in the report
//! come from the same spans that are printed.

use cooprt_bench::{banner, default_detail, default_res, parallel, run_at, scene_list};
use cooprt_core::{
    FrameResult, GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, Trace, TraversalPolicy,
};
use cooprt_scenes::{Scene, SceneId};
use cooprt_telemetry::{JsonWriter, Profiler};
use std::time::Instant;

/// The 8-point memory-hierarchy sweep for the record/replay
/// amortization measurement: the reference config plus seven cache /
/// MSHR / DRAM variations around it.
fn memory_sweep(base: &GpuConfig) -> Vec<(&'static str, GpuConfig)> {
    let mut points = Vec::new();
    let mut push = |label, f: &dyn Fn(&mut GpuConfig)| {
        let mut c = base.clone();
        f(&mut c);
        points.push((label, c));
    };
    push("ref", &|_| {});
    push("l1-half", &|c| c.mem.l1_bytes /= 2);
    push("l1-x2", &|c| c.mem.l1_bytes *= 2);
    push("l1-mshr-half", &|c| {
        c.mem.l1_mshr_entries = (c.mem.l1_mshr_entries / 2).max(1)
    });
    push("l2-half", &|c| c.mem.l2_bytes /= 2);
    push("l2-mshr-half", &|c| {
        c.mem.l2_mshr_entries = (c.mem.l2_mshr_entries / 2).max(1)
    });
    push("dram-1ch", &|c| c.mem.dram_channels = 1);
    push("dram-x2", &|c| c.mem.dram_channels *= 2);
    points
}

/// Smallest of `n` timed runs of `f` — wall-clock minima are robust
/// against scheduler noise on a shared host.
fn best_of(n: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measured wall clocks of the record/replay amortization section.
struct TraceReplayReport {
    scene: &'static str,
    sweep_labels: Vec<&'static str>,
    trace_bytes: usize,
    records: u64,
    build_secs: f64,
    live_ref_secs: f64,
    record_run_secs: f64,
    record_overhead_pct: f64,
    encode_secs: f64,
    decode_secs: f64,
    live_sweep_secs: f64,
    replay_sweep_secs: f64,
    replay_speedup: f64,
}

/// Records the first scene once, replays the 8-config memory sweep
/// from the trace, asserts every replay bitwise identical to its live
/// twin, and returns the measured wall clocks.
fn trace_replay_section(
    id: SceneId,
    scene: &Scene,
    cfg: &GpuConfig,
    kind: ShaderKind,
    res: usize,
    detail: u32,
    workers: usize,
) -> TraceReplayReport {
    let policy = TraversalPolicy::Baseline;
    // A fresh build, timed on its own (the suite build above is pooled
    // across scenes, so its span cannot be attributed to one).
    let build_secs = best_of(1, || {
        let _ = id.build(detail);
    });

    let sweep = memory_sweep(cfg);
    let live_ref_secs = best_of(3, || {
        let _ = run_at(scene, cfg, policy, kind, res);
    });
    let mut trace_slot = None;
    let record_run_secs = best_of(3, || {
        trace_slot = Some(
            Trace::record(scene, detail, cfg, policy, kind, res, res)
                .expect("record the sweep scene")
                .1,
        );
    });
    let trace = trace_slot.expect("best_of ran at least once");
    let mut bytes = Vec::new();
    let encode_secs = best_of(3, || bytes = trace.encode());
    let mut decoded_slot = None;
    let decode_secs = best_of(3, || {
        decoded_slot = Some(Trace::decode(&bytes).expect("decode own encoding"));
    });
    let decoded = decoded_slot.expect("best_of ran at least once");

    // Live arm: re-simulate every sweep point from scratch.
    let t = Instant::now();
    let live: Vec<FrameResult> = sweep
        .iter()
        .map(|(_, c)| run_at(scene, c, policy, kind, res))
        .collect();
    let live_points_secs = t.elapsed().as_secs_f64();

    // Replay arm: drive every sweep point from the one decoded trace,
    // through the worker pool (deterministic at any width).
    let t = Instant::now();
    let replayed = parallel::par_map(&sweep, workers, |_, (_, c)| {
        decoded.replay(c, policy).expect("replay the sweep point")
    });
    let replay_points_secs = t.elapsed().as_secs_f64();

    // The replay-identity contract, enforced on every benchmark run:
    // bitwise equal cycles and image at every sweep point.
    for (((label, _), l), r) in sweep.iter().zip(&live).zip(&replayed) {
        assert_eq!(l.cycles, r.cycles, "{label}: replay must match live cycles");
        assert_eq!(l.image, r.image, "{label}: replay must match live image");
    }

    let live_sweep_secs = build_secs + live_points_secs;
    let replay_sweep_secs = record_run_secs + encode_secs + decode_secs + replay_points_secs;
    TraceReplayReport {
        scene: id.name(),
        sweep_labels: sweep.iter().map(|(l, _)| *l).collect(),
        trace_bytes: bytes.len(),
        records: trace.total_records(),
        build_secs,
        live_ref_secs,
        record_run_secs,
        record_overhead_pct: (record_run_secs - live_ref_secs) / live_ref_secs.max(1e-12) * 100.0,
        encode_secs,
        decode_secs,
        live_sweep_secs,
        replay_sweep_secs,
        replay_speedup: live_sweep_secs / replay_sweep_secs.max(1e-12),
    }
}

struct Row {
    scene: &'static str,
    policy: &'static str,
    cycles: u64,
    rays: u64,
    wall_secs: f64,
}

/// One cell of the reorder evaluation matrix.
struct ReorderRow {
    scene: &'static str,
    policy: &'static str,
    reorder: &'static str,
    cycles: u64,
    speedup_vs_off: f64,
    simt_efficiency: f64,
    l1_hit: f64,
    l2_hit: f64,
    rays_moved: u64,
    reorder_passes: u64,
}

/// The reorder modes of the render sweep (Morton moves no primary ray).
const RENDER_REORDERS: [ReorderPolicy; 2] = [ReorderPolicy::Off, ReorderPolicy::OctantHash];

/// Sweeps the reorder axis over every scene from one recorded trace
/// per scene; every replayed image is asserted bitwise identical to
/// the recorded (unordered) frame.
fn reorder_section(
    ids: &[cooprt_scenes::SceneId],
    scenes: &[Scene],
    cfg: &GpuConfig,
    kind: ShaderKind,
    res: usize,
    detail: u32,
    workers: usize,
) -> Vec<ReorderRow> {
    // Record each scene once, unordered, under the baseline policy.
    let traces: Vec<(FrameResult, Trace)> = parallel::par_map(scenes, workers, |i, scene| {
        Trace::record(
            scene,
            detail,
            cfg,
            TraversalPolicy::Baseline,
            kind,
            res,
            res,
        )
        .unwrap_or_else(|e| panic!("record {}: {e}", ids[i]))
    });

    let combos: Vec<(usize, TraversalPolicy, ReorderPolicy)> = (0..scenes.len())
        .flat_map(|i| {
            [TraversalPolicy::Baseline, TraversalPolicy::CoopRt]
                .into_iter()
                .flat_map(move |p| RENDER_REORDERS.into_iter().map(move |r| (i, p, r)))
        })
        .collect();
    let results = parallel::par_map(&combos, workers, |_, &(i, policy, reorder)| {
        let run_cfg = cfg.clone().with_reorder(reorder);
        traces[i]
            .1
            .replay(&run_cfg, policy)
            .unwrap_or_else(|e| panic!("replay {} {policy:?}/{reorder:?}: {e}", ids[i]))
    });

    // The identity contract: reordering never changes a pixel.
    for (&(i, policy, reorder), r) in combos.iter().zip(&results) {
        assert_eq!(
            r.image, traces[i].0.image,
            "{}: {policy:?}/{reorder:?} must render the recorded image bitwise",
            ids[i]
        );
    }

    // Cycles of the unordered cell for the same (scene, policy), for
    // the speedup column.
    let off_cycles = |i: usize, policy: TraversalPolicy| -> u64 {
        combos
            .iter()
            .zip(&results)
            .find(|(&(j, p, r), _)| j == i && p == policy && r == ReorderPolicy::Off)
            .map(|(_, res)| res.cycles)
            .expect("every (scene, policy) has an Off cell")
    };
    combos
        .iter()
        .zip(&results)
        .map(|(&(i, policy, reorder), r)| ReorderRow {
            scene: ids[i].name(),
            policy: policy.label(),
            reorder: reorder.label(),
            cycles: r.cycles,
            speedup_vs_off: off_cycles(i, policy) as f64 / r.cycles.max(1) as f64,
            simt_efficiency: r.simt_efficiency(),
            l1_hit: 1.0 - r.mem.l1.miss_rate(),
            l2_hit: 1.0 - r.mem.l2.miss_rate(),
            rays_moved: r.reorder.rays_moved,
            reorder_passes: r.reorder.passes,
        })
        .collect()
}

/// One cell of the ray-path prediction evaluation matrix.
struct PredictRow {
    scene: &'static str,
    policy: &'static str,
    predict: &'static str,
    cycles: u64,
    speedup_vs_off: f64,
    predicted_hit_rate: f64,
    path_lookups: u64,
    go_up_steps: u64,
    node_fetches_saved: u64,
}

/// Sweeps the ray-path prediction axis over every scene. Shadow rays
/// are the coherent any-hit workload the predictor targets, so each
/// scene's shadow front end is recorded once (predictor off) and
/// replayed under {baseline, CoopRT} x {off, ray-path}; every replayed
/// image is asserted bitwise identical to the recorded frame — the
/// predictor's go-up-to-root fallback makes occlusion outcomes exact,
/// and this assert enforces it on every benchmark run.
fn predict_section(
    ids: &[cooprt_scenes::SceneId],
    scenes: &[Scene],
    cfg: &GpuConfig,
    res: usize,
    detail: u32,
    workers: usize,
) -> Vec<PredictRow> {
    let kind = ShaderKind::Shadow;
    let traces: Vec<(FrameResult, Trace)> = parallel::par_map(scenes, workers, |i, scene| {
        Trace::record(
            scene,
            detail,
            cfg,
            TraversalPolicy::Baseline,
            kind,
            res,
            res,
        )
        .unwrap_or_else(|e| panic!("record {}: {e}", ids[i]))
    });

    let combos: Vec<(usize, TraversalPolicy, PredictPolicy)> = (0..scenes.len())
        .flat_map(|i| {
            [TraversalPolicy::Baseline, TraversalPolicy::CoopRt]
                .into_iter()
                .flat_map(move |p| PredictPolicy::ALL.into_iter().map(move |pr| (i, p, pr)))
        })
        .collect();
    let results = parallel::par_map(&combos, workers, |_, &(i, policy, predict)| {
        let run_cfg = cfg.clone().with_predict(predict);
        traces[i]
            .1
            .replay(&run_cfg, policy)
            .unwrap_or_else(|e| panic!("replay {} {policy:?}/{predict:?}: {e}", ids[i]))
    });

    // The identity contract: prediction never changes a pixel.
    for (&(i, policy, predict), r) in combos.iter().zip(&results) {
        assert_eq!(
            r.image, traces[i].0.image,
            "{}: {policy:?}/{predict:?} must render the recorded image bitwise",
            ids[i]
        );
    }

    let off_cycles = |i: usize, policy: TraversalPolicy| -> u64 {
        combos
            .iter()
            .zip(&results)
            .find(|(&(j, p, pr), _)| j == i && p == policy && pr == PredictPolicy::Off)
            .map(|(_, res)| res.cycles)
            .expect("every (scene, policy) has an Off cell")
    };
    combos
        .iter()
        .zip(&results)
        .map(|(&(i, policy, predict), r)| PredictRow {
            scene: ids[i].name(),
            policy: policy.label(),
            predict: predict.label(),
            cycles: r.cycles,
            speedup_vs_off: off_cycles(i, policy) as f64 / r.cycles.max(1) as f64,
            predicted_hit_rate: if r.predictor.path_candidates > 0 {
                r.predictor.path_entry_hits as f64 / r.predictor.path_candidates as f64
            } else {
                0.0
            },
            path_lookups: r.predictor.path_lookups,
            go_up_steps: r.predictor.path_go_up_steps,
            node_fetches_saved: r.predictor.node_fetches_saved,
        })
        .collect()
}

/// One cell of the spatial-query evaluation matrix.
struct QueryRow {
    scene: &'static str,
    kind: &'static str,
    policy: &'static str,
    reorder: &'static str,
    cycles: u64,
    rays: u64,
    /// Total answer entries over the batch (neighbours found / cells
    /// named) — a sanity column proving the workload is non-trivial.
    hits: u64,
    /// Baseline cycles over this cell's cycles at the same reorder
    /// mode: the CoopRT speedup column, < 1 when stealing hurts.
    speedup_vs_baseline: f64,
    /// Unordered cycles over this cell's cycles under the same policy.
    speedup_vs_off: f64,
    wall_secs: f64,
}

/// Scene detail, batch size and sample salt of the query matrix —
/// hard-coded so the rows match the golden pins in
/// `tests/golden_cycles.rs` in every environment.
const QUERY_DETAIL: u32 = 16;
const QUERY_COUNT: usize = 2048;
const QUERY_SALT: u64 = 1;

/// The query shader each suite scene exists to exercise.
fn query_kind(id: SceneId) -> ShaderKind {
    match id {
        SceneId::Qclu => ShaderKind::Radius,
        SceneId::Qamr => ShaderKind::Contain,
        _ => ShaderKind::Knn,
    }
}

/// Runs the query matrix: every query scene under both policies and
/// {off, morton} reordering, each cell's answers asserted bitwise equal
/// to the brute-force oracle before its timing is kept.
fn query_section(smoke: bool, workers: usize) -> Vec<QueryRow> {
    let (detail, count) = if smoke {
        (8, 256)
    } else {
        (QUERY_DETAIL, QUERY_COUNT)
    };
    let cfg = GpuConfig::rtx2060();
    let ids = cooprt_scenes::QUERY_SCENES;
    let scenes: Vec<Scene> = parallel::par_map(&ids, workers, |_, &id| id.build(detail));

    let combos: Vec<(usize, TraversalPolicy, ReorderPolicy)> = (0..scenes.len())
        .flat_map(|i| {
            [TraversalPolicy::Baseline, TraversalPolicy::CoopRt]
                .into_iter()
                .flat_map(move |p| {
                    [ReorderPolicy::Off, ReorderPolicy::Morton]
                        .into_iter()
                        .map(move |r| (i, p, r))
                })
        })
        .collect();

    // Sequential, timed per cell (cells are sub-second; the pooled
    // determinism contract is already exercised by the main matrix).
    let mut rows = Vec::with_capacity(combos.len());
    let mut cells = Vec::with_capacity(combos.len());
    for &(i, policy, reorder) in &combos {
        let kind = query_kind(ids[i]);
        let run_cfg = cfg.clone().with_reorder(reorder);
        let t = Instant::now();
        let run = cooprt_query::run_queries(&scenes[i], &run_cfg, policy, kind, count, QUERY_SALT)
            .unwrap_or_else(|e| panic!("query {} {policy:?}/{reorder:?}: {e}", ids[i]));
        let wall_secs = t.elapsed().as_secs_f64();

        // The exactness contract, enforced on every benchmark run: the
        // timing model may only be *timed*, never approximate.
        let want = cooprt_query::oracle_answers(&scenes[i], kind, count, QUERY_SALT);
        assert_eq!(
            run.answers, want,
            "{} {kind:?} {policy:?}/{reorder:?}: engine answers must \
             match the brute-force oracle bitwise",
            ids[i]
        );
        cells.push((run, wall_secs));
    }

    let cycles_of = |want_i: usize, want_p: TraversalPolicy, want_r: ReorderPolicy| -> u64 {
        combos
            .iter()
            .zip(&cells)
            .find(|(&(i, p, r), _)| i == want_i && p == want_p && r == want_r)
            .map(|(_, (run, _))| run.cycles)
            .expect("every (scene, policy, reorder) cell ran")
    };
    for (&(i, policy, reorder), (run, wall_secs)) in combos.iter().zip(&cells) {
        rows.push(QueryRow {
            scene: ids[i].name(),
            kind: query_kind(ids[i]).key(),
            policy: policy.label(),
            reorder: reorder.label(),
            cycles: run.cycles,
            rays: run.rays,
            hits: run.answers.iter().map(|a| a.len() as u64).sum(),
            speedup_vs_baseline: cycles_of(i, TraversalPolicy::Baseline, reorder) as f64
                / run.cycles.max(1) as f64,
            speedup_vs_off: cycles_of(i, policy, ReorderPolicy::Off) as f64
                / run.cycles.max(1) as f64,
            wall_secs: *wall_secs,
        });
    }
    rows
}

struct LadderStep {
    threads: usize,
    secs: f64,
    speedup: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ids, res, detail) = if smoke {
        // Two light scenes at low resolution: enough to drive the whole
        // harness (both policies, the pooled pass, the determinism
        // asserts) through CI in seconds.
        (vec![SceneId::Wknd, SceneId::Ship], 48usize, 8u32)
    } else {
        banner("simperf: simulator wall-clock throughput");
        let ids = scene_list();
        assert!(
            ids.len() >= 4,
            "simperf needs at least 4 scenes (got {})",
            ids.len()
        );
        (ids, default_res(), default_detail())
    };
    if smoke {
        println!(
            "=== simperf --smoke ({} scenes, {res}x{res}, detail {detail}) ===",
            ids.len()
        );
    }
    let cfg = GpuConfig::rtx2060();
    let kind = ShaderKind::PathTrace;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallel::threads();

    let mut profiler = Profiler::new();
    let scenes: Vec<Scene> = profiler.time("suite_build", || {
        parallel::par_map(&ids, workers, |_, &id| id.build(detail))
    });
    let build_secs = profiler.secs("suite_build").unwrap_or(0.0);
    println!("built {} scenes in {build_secs:.2}s", scenes.len());

    let jobs: Vec<(usize, TraversalPolicy)> = (0..scenes.len())
        .flat_map(|i| [(i, TraversalPolicy::Baseline), (i, TraversalPolicy::CoopRt)])
        .collect();

    // Pass 1: sequential, timing each cell for its throughput row. This
    // is also the one-worker rung of the scaling ladder.
    let mut rows: Vec<Row> = Vec::with_capacity(jobs.len());
    let mut seq_results: Vec<FrameResult> = Vec::with_capacity(jobs.len());
    profiler.time("sequential_pass", || {
        for &(i, policy) in &jobs {
            let t = Instant::now();
            let r = run_at(&scenes[i], &cfg, policy, kind, res);
            let wall_secs = t.elapsed().as_secs_f64();
            rows.push(Row {
                scene: ids[i].name(),
                policy: policy.label(),
                cycles: r.cycles,
                rays: r.rays,
                wall_secs,
            });
            seq_results.push(r);
        }
    });
    let seq_secs = profiler.secs("sequential_pass").unwrap_or(0.0);

    // Scaling ladder: the same matrix through the worker pool at each
    // power of two up to the default worker count. At least one pooled
    // rung always runs (worker count 2 even on a single-core host) so
    // the pool's determinism is exercised on every invocation.
    let mut counts = vec![1usize];
    let mut c = 2;
    while c < workers {
        counts.push(c);
        c *= 2;
    }
    if workers > 1 {
        counts.push(workers);
    } else {
        counts.push(2);
    }
    let mut ladder = vec![LadderStep {
        threads: 1,
        secs: seq_secs,
        speedup: 1.0,
    }];
    for &t in &counts[1..] {
        let start = Instant::now();
        let pooled = parallel::par_map(&jobs, t, |_, &(i, policy)| {
            run_at(&scenes[i], &cfg, policy, kind, res)
        });
        let secs = start.elapsed().as_secs_f64();
        profiler.record(&format!("pooled_pass_{t}_threads"), secs);
        for (s, p) in seq_results.iter().zip(&pooled) {
            assert_eq!(s.image, p.image, "pooled runner must be bitwise identical");
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.events, p.events);
        }
        ladder.push(LadderStep {
            threads: t,
            secs,
            speedup: seq_secs / secs.max(1e-12),
        });
    }
    // The headline numbers are the rung at the default worker count —
    // on a single-core host that is the sequential pass itself, and the
    // speedup is 1 by construction, not by measurement theatre.
    let headline = ladder
        .iter()
        .find(|s| s.threads == workers)
        .expect("ladder contains the default worker count");
    let (par_secs, matrix_speedup) = (headline.secs, headline.speedup);

    println!();
    println!(
        "{:<8} {:>9} {:>14} {:>12} {:>10} {:>14} {:>14}",
        "scene", "policy", "cycles", "rays", "wall s", "cycles/s", "rays/s"
    );
    for r in &rows {
        println!(
            "{:<8} {:>9} {:>14} {:>12} {:>10.3} {:>14.0} {:>14.0}",
            r.scene,
            r.policy,
            r.cycles,
            r.rays,
            r.wall_secs,
            r.cycles as f64 / r.wall_secs.max(1e-12),
            r.rays as f64 / r.wall_secs.max(1e-12),
        );
    }
    println!();
    println!("matrix scaling (host parallelism {host}, default {workers} workers):");
    for s in &ladder {
        println!(
            "  {:>3} thread{} {:>8.2}s  {:>5.2}x{}",
            s.threads,
            if s.threads == 1 { " " } else { "s" },
            s.secs,
            s.speedup,
            if s.threads > host {
                "  (oversubscribed)"
            } else {
                ""
            },
        );
    }
    println!("(all pooled passes bitwise identical to the sequential pass)");

    // Trace record/replay amortization: one recorded front end drives
    // the whole memory sweep, each point asserted bitwise identical to
    // live re-simulation.
    let tr = trace_replay_section(ids[0], &scenes[0], &cfg, kind, res, detail, workers);
    println!();
    println!(
        "trace record/replay ('{}', {}-config memory sweep, {} ray records, {} KiB):",
        tr.scene,
        tr.sweep_labels.len(),
        tr.records,
        tr.trace_bytes / 1024
    );
    println!(
        "  record overhead {:+.1}% of a live frame ({:.3}s vs {:.3}s); encode {:.4}s, decode {:.4}s",
        tr.record_overhead_pct, tr.record_run_secs, tr.live_ref_secs, tr.encode_secs, tr.decode_secs
    );
    println!(
        "  live sweep {:.3}s vs record-once+replay {:.3}s -> {:.2}x \
         (every point bitwise identical to live)",
        tr.live_sweep_secs, tr.replay_sweep_secs, tr.replay_speedup
    );

    // Reorder axis: record once per scene, replay all four
    // policy x reorder cells, assert bitwise image identity.
    let reorder_rows = reorder_section(&ids, &scenes, &cfg, kind, res, detail, workers);
    println!();
    println!(
        "ray reordering ({} scenes x 2 policies x {} reorder modes, replayed from one \
         unordered trace per scene; all images bitwise identical to the recorded frame):",
        ids.len(),
        RENDER_REORDERS.len()
    );
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "scene", "policy", "reorder", "cycles", "vs off", "simt%", "l1 hit%", "l2 hit%", "moved"
    );
    for r in &reorder_rows {
        println!(
            "{:<8} {:>9} {:>12} {:>12} {:>8.3}x {:>7.1}% {:>7.1}% {:>7.1}% {:>10}",
            r.scene,
            r.policy,
            r.reorder,
            r.cycles,
            r.speedup_vs_off,
            r.simt_efficiency * 100.0,
            r.l1_hit * 100.0,
            r.l2_hit * 100.0,
            r.rays_moved,
        );
    }

    // Predict axis: one shadow recording per scene drives all four
    // policy x predict cells, with per-cell bitwise image identity.
    let predict_rows = predict_section(&ids, &scenes, &cfg, res, detail, workers);
    println!();
    println!(
        "ray-path prediction ({} scenes x 2 policies x {} predict modes, shadow rays \
         replayed from one trace per scene; all images bitwise identical to the recorded frame):",
        ids.len(),
        PredictPolicy::ALL.len()
    );
    println!(
        "{:<8} {:>9} {:>10} {:>12} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "scene", "policy", "predict", "cycles", "vs off", "lookups", "hit%", "go-up", "saved"
    );
    for r in &predict_rows {
        println!(
            "{:<8} {:>9} {:>10} {:>12} {:>8.3}x {:>9} {:>8.1}% {:>8} {:>10}",
            r.scene,
            r.policy,
            r.predict,
            r.cycles,
            r.speedup_vs_off,
            r.path_lookups,
            r.predicted_hit_rate * 100.0,
            r.go_up_steps,
            r.node_fetches_saved,
        );
    }

    // Query axis: the four spatial-query scenes through the gather
    // front end, every cell's answers asserted exact against the
    // brute-force oracle before its timing is reported.
    let query_rows = query_section(smoke, workers);
    println!();
    println!(
        "spatial queries ({} scenes x 2 policies x 2 reorder modes, every cell's \
         answers asserted exact against the brute-force oracle):",
        cooprt_scenes::QUERY_SCENES.len()
    );
    println!(
        "{:<8} {:>5} {:>9} {:>8} {:>12} {:>8} {:>9} {:>8} {:>8} {:>10}",
        "scene",
        "kind",
        "policy",
        "reorder",
        "cycles",
        "rays",
        "hits",
        "vs base",
        "vs off",
        "rays/s"
    );
    for r in &query_rows {
        println!(
            "{:<8} {:>5} {:>9} {:>8} {:>12} {:>8} {:>9} {:>7.3}x {:>7.3}x {:>10.0}",
            r.scene,
            r.kind,
            r.policy,
            r.reorder,
            r.cycles,
            r.rays,
            r.hits,
            r.speedup_vs_baseline,
            r.speedup_vs_off,
            r.rays as f64 / r.wall_secs.max(1e-12),
        );
    }

    if smoke {
        println!();
        println!("simperf --smoke OK");
        return;
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("resolution", res as u64);
    w.field_u64("detail", u64::from(detail));
    w.field_u64("threads", workers as u64);
    w.field_u64("host_parallelism", host as u64);
    w.field_f64("suite_build_secs", build_secs, 6);
    w.field_f64("sequential_secs", seq_secs, 6);
    w.field_f64("parallel_secs", par_secs, 6);
    w.field_f64("matrix_speedup", matrix_speedup, 4);
    w.begin_array("thread_ladder");
    for s in &ladder {
        w.begin_inline_object();
        w.field_u64("threads", s.threads as u64);
        w.field_f64("secs", s.secs, 6);
        w.field_f64("speedup", s.speedup, 4);
        w.end_object();
    }
    w.end_array();
    w.begin_array("scenes");
    for r in &rows {
        w.begin_inline_object();
        w.field_str("scene", r.scene);
        w.field_str("policy", r.policy);
        w.field_u64("cycles", r.cycles);
        w.field_u64("rays", r.rays);
        w.field_f64("wall_secs", r.wall_secs, 6);
        w.field_f64(
            "cycles_per_sec",
            r.cycles as f64 / r.wall_secs.max(1e-12),
            1,
        );
        w.field_f64("rays_per_sec", r.rays as f64 / r.wall_secs.max(1e-12), 1);
        w.end_object();
    }
    w.end_array();
    w.begin_array("reorder");
    for r in &reorder_rows {
        w.begin_inline_object();
        w.field_str("scene", r.scene);
        w.field_str("policy", r.policy);
        w.field_str("reorder", r.reorder);
        w.field_u64("cycles", r.cycles);
        w.field_f64("speedup_vs_off", r.speedup_vs_off, 4);
        w.field_f64("simt_efficiency", r.simt_efficiency, 6);
        w.field_f64("l1_hit_rate", r.l1_hit, 6);
        w.field_f64("l2_hit_rate", r.l2_hit, 6);
        w.field_u64("rays_moved", r.rays_moved);
        w.field_u64("reorder_passes", r.reorder_passes);
        w.end_object();
    }
    w.end_array();
    w.begin_array("predict");
    for r in &predict_rows {
        w.begin_inline_object();
        w.field_str("scene", r.scene);
        w.field_str("policy", r.policy);
        w.field_str("predict", r.predict);
        w.field_u64("cycles", r.cycles);
        w.field_f64("speedup_vs_off", r.speedup_vs_off, 4);
        w.field_f64("predicted_hit_rate", r.predicted_hit_rate, 6);
        w.field_u64("path_lookups", r.path_lookups);
        w.field_u64("go_up_steps", r.go_up_steps);
        w.field_u64("node_fetches_saved", r.node_fetches_saved);
        w.end_object();
    }
    w.end_array();
    w.begin_array("query");
    for r in &query_rows {
        w.begin_inline_object();
        w.field_str("scene", r.scene);
        w.field_str("kind", r.kind);
        w.field_str("policy", r.policy);
        w.field_str("reorder", r.reorder);
        w.field_u64("cycles", r.cycles);
        w.field_u64("rays", r.rays);
        w.field_u64("hits", r.hits);
        w.field_f64("speedup_vs_baseline", r.speedup_vs_baseline, 4);
        w.field_f64("speedup_vs_off", r.speedup_vs_off, 4);
        w.field_f64("wall_secs", r.wall_secs, 6);
        w.field_f64("rays_per_sec", r.rays as f64 / r.wall_secs.max(1e-12), 1);
        w.end_object();
    }
    w.end_array();
    w.begin_object_field("trace_replay");
    w.field_str("scene", tr.scene);
    w.field_u64("sweep_configs", tr.sweep_labels.len() as u64);
    w.begin_inline_array("sweep");
    for label in &tr.sweep_labels {
        w.item_str(label);
    }
    w.end_array();
    w.field_u64("ray_records", tr.records);
    w.field_u64("trace_bytes", tr.trace_bytes as u64);
    w.field_f64("build_secs", tr.build_secs, 6);
    w.field_f64("live_frame_secs", tr.live_ref_secs, 6);
    w.field_f64("record_run_secs", tr.record_run_secs, 6);
    w.field_f64("record_overhead_pct", tr.record_overhead_pct, 2);
    w.field_f64("encode_secs", tr.encode_secs, 6);
    w.field_f64("decode_secs", tr.decode_secs, 6);
    w.field_f64("live_sweep_secs", tr.live_sweep_secs, 6);
    w.field_f64("replay_sweep_secs", tr.replay_sweep_secs, 6);
    w.field_f64("replay_speedup", tr.replay_speedup, 4);
    w.end_object();
    w.end_object();
    let json = w.finish();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simperf.json");
    std::fs::write(path, &json).expect("write BENCH_simperf.json");
    println!("wrote {path}");
}
