//! The two simulator workloads: `frame_live` (live frames through
//! `Simulation::run_frame`) and `sweep_replay` (recorded traces replayed
//! over a memory sweep through `Trace::replay`).

use crate::pins;
use crate::stats::{gmean, image_hash, median, push_p50_tail, Metric, Report};
use crate::{Args, DEFAULT_SEED};
use cooprt_core::{
    Checker, FrameResult, GpuConfig, Recorder, ShaderKind, Simulation, Trace, TraversalPolicy,
};
use cooprt_scenes::{Scene, SceneId, ALL_SCENES};
use cooprt_telemetry::Tracer;
use std::time::{Duration, Instant};

/// Frame resolution of `frame_live` (simperf's scale).
pub const RES: usize = 64;
/// Frame resolution of `sweep_replay`: its 32 replays a pass at 64x64
/// would take most of the run budget on their own.
pub const SWEEP_RES: usize = 48;
/// Scene detail of both simulator workloads.
pub const DETAIL: u32 = 32;
/// The shader every simulator cell runs.
pub const KIND: ShaderKind = ShaderKind::PathTrace;
/// Both traversal policies, baseline first.
pub const POLICIES: [TraversalPolicy; 2] = [TraversalPolicy::Baseline, TraversalPolicy::CoopRt];
/// The scenes `sweep_replay` records: one closed and memory-heavy, one
/// open and divergent.
pub const SWEEP_SCENES: [SceneId; 2] = [SceneId::Spnza, SceneId::Car];
/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Passes `frame_live` always runs; its latencies come from these.
pub const FRAME_PASSES: usize = 3;
/// Passes `sweep_replay` always runs; its latencies come from these.
pub const SWEEP_PASSES: usize = 3;
/// The paper's path-tracing gmean speedup, printed as context only.
pub const PAPER_PT_GMEAN: f64 = 2.15;

/// The 8-point memory-hierarchy sweep of simperf: the reference config
/// plus seven cache / MSHR / DRAM variations around it.
pub fn memory_sweep(base: &GpuConfig) -> Vec<(&'static str, GpuConfig)> {
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

/// One simulated cell: a scene, a sweep point and a policy.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Index into the workload's scene list.
    pub scene: usize,
    /// Scene name.
    pub scene_name: &'static str,
    /// Sweep-point label (`ref` on `frame_live`).
    pub point: &'static str,
    /// Index into the workload's sweep points.
    pub point_index: usize,
    /// Traversal policy.
    pub policy: TraversalPolicy,
}

/// What a cell's simulation produced (compared bitwise across passes,
/// policies and against the pins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated cycles.
    pub cycles: u64,
    /// Rays dispatched.
    pub rays: u64,
    /// FNV-1a of the image bits.
    pub image: u64,
}

impl Outcome {
    /// The outcome of a frame.
    pub fn of(frame: &FrameResult) -> Self {
        Outcome {
            cycles: frame.cycles,
            rays: frame.rays,
            image: image_hash(&frame.image),
        }
    }
}

/// Observation installed on a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observe {
    /// Sim-time event tracer with unbounded capacity.
    pub tracer: bool,
    /// Invariant checker.
    pub checker: bool,
    /// Front-end recorder (live frames only).
    pub recorder: bool,
}

impl Observe {
    /// Every observer on.
    pub const ALL: Observe = Observe {
        tracer: true,
        checker: true,
        recorder: true,
    };
}

/// What an observed run left behind.
#[derive(Debug, Default)]
pub struct Observed {
    /// Tracer events dropped past capacity.
    pub dropped: u64,
    /// Checker violations.
    pub violations: Vec<String>,
}

/// A simulation of `scene` with the given observers installed. Returns
/// the handles so the caller can drain them after the run.
pub fn observed_sim<'s>(
    scene: &'s Scene,
    cfg: &GpuConfig,
    policy: TraversalPolicy,
    salt: u64,
    obs: Observe,
) -> (Simulation<'s>, Tracer, Checker) {
    let tracer = if obs.tracer {
        Tracer::with_capacity(usize::MAX)
    } else {
        Tracer::disabled()
    };
    let checker = if obs.checker {
        Checker::enabled()
    } else {
        Checker::disabled()
    };
    let recorder = if obs.recorder {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let sim = Simulation::new(scene, cfg, policy)
        .with_sample_salt(salt)
        .with_tracer(tracer.clone())
        .with_checker(checker.clone())
        .with_recorder(recorder);
    (sim, tracer, checker)
}

/// Drains an observed run's handles.
pub fn drain(tracer: &Tracer, checker: &Checker) -> Observed {
    let log = tracer.take();
    Observed {
        dropped: log.dropped,
        violations: checker.violations(),
    }
}

/// One live `res` x `res` frame of `scene`, timed.
pub fn live_frame(
    scene: &Scene,
    cfg: &GpuConfig,
    policy: TraversalPolicy,
    salt: u64,
    res: usize,
) -> (FrameResult, f64) {
    let sim = Simulation::new(scene, cfg, policy).with_sample_salt(salt);
    let t = Instant::now();
    let frame = sim.run_frame(KIND, res, res).expect("valid frame");
    (frame, t.elapsed().as_secs_f64())
}

/// Records one live `res` x `res` frame of `scene` into a
/// self-contained trace: through `Trace::record` on the default seed,
/// whose salt it fixes at 0, and on any other seed through the same
/// steps with the sample salt set.
pub fn record(
    scene: &Scene,
    cfg: &GpuConfig,
    policy: TraversalPolicy,
    salt: u64,
    res: usize,
) -> (FrameResult, Trace) {
    if salt == DEFAULT_SEED {
        return Trace::record(scene, DETAIL, cfg, policy, KIND, res, res).expect("valid frame");
    }
    let recorder = Recorder::enabled();
    let frame = Simulation::new(scene, cfg, policy)
        .with_sample_salt(salt)
        .with_recorder(recorder.clone())
        .run_frame(KIND, res, res)
        .expect("valid frame");
    let (streams, issues) = recorder.take();
    let trace = Trace {
        scene_name: scene.name.clone(),
        detail: DETAIL,
        scene_hash: scene.image.content_hash(),
        kind: KIND,
        width: res,
        height: res,
        sample_salt: salt,
        max_bounces: cfg.max_bounces,
        ao_samples: cfg.ao_samples,
        ao_radius: cfg.ao_radius,
        sh_samples: cfg.sh_samples,
        bvh: scene.image.clone(),
        streams,
        issues,
        image: frame.image.clone(),
    };
    (frame, trace)
}

/// Per-cell host times over the passes of a timed phase, with the
/// outcome of the first pass.
#[derive(Debug)]
pub struct Timed {
    /// The cells, in run order.
    pub cells: Vec<Cell>,
    /// `secs[c]`: one host time per pass of cell `c`.
    pub secs: Vec<Vec<f64>>,
    /// First-pass outcome of each cell.
    pub outcomes: Vec<Outcome>,
    /// Complete passes run.
    pub passes: usize,
}

/// Runs `run` over every cell in passes until `budget` has elapsed
/// (at least `min_passes` complete passes), checking that every pass
/// repeats the first bitwise.
pub fn timed_passes(
    cells: Vec<Cell>,
    budget: Duration,
    min_passes: usize,
    report: &mut Report,
    mut run: impl FnMut(&Cell) -> (Outcome, f64),
) -> Timed {
    let mut secs = vec![Vec::new(); cells.len()];
    let mut outcomes = Vec::with_capacity(cells.len());
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed() < budget {
        for (c, cell) in cells.iter().enumerate() {
            let (out, s) = run(cell);
            secs[c].push(s);
            if passes == 0 {
                outcomes.push(out);
            } else {
                report.check(out == outcomes[c], || {
                    format!(
                        "{} {} {}: pass {passes} differs from pass 0",
                        cell.scene_name,
                        cell.point,
                        cell.policy.label()
                    )
                });
            }
        }
        passes += 1;
    }
    Timed {
        cells,
        secs,
        outcomes,
        passes,
    }
}

impl Timed {
    /// Median host time of cell `c`.
    pub fn cell_secs(&self, c: usize) -> f64 {
        median(&self.secs[c])
    }

    /// Sum over cells of the median cell time: one pass, noise-robust.
    pub fn wall_secs(&self) -> f64 {
        (0..self.cells.len()).map(|c| self.cell_secs(c)).sum()
    }

    /// Simulated cycles of each (baseline, CoopRT) pair of cells, which
    /// the cell list interleaves.
    pub fn pair_speedups(&self) -> Vec<f64> {
        self.outcomes
            .chunks(2)
            .map(|p| p[0].cycles as f64 / p[1].cycles as f64)
            .collect()
    }

    /// Rays and median seconds summed over cells of `policy`.
    fn policy_totals(&self, policy: TraversalPolicy) -> (f64, f64) {
        let mut rays = 0.0;
        let mut secs = 0.0;
        for (c, cell) in self.cells.iter().enumerate() {
            if cell.policy == policy {
                rays += self.outcomes[c].rays as f64;
                secs += self.cell_secs(c);
            }
        }
        (rays, secs)
    }

    /// Per-request latencies, ms: the cells of each request summed per
    /// pass, over the first `passes` passes only, so that the sample
    /// count (and with it the tail percentile) does not move with how
    /// many passes the budget allowed.
    fn request_ms(&self, request: fn(&Cell) -> usize, passes: usize) -> Vec<f64> {
        let requests = self.cells.iter().map(request).max().map_or(0, |r| r + 1);
        let mut ms = Vec::new();
        for p in 0..passes {
            let mut sums = vec![0.0; requests];
            for (c, cell) in self.cells.iter().enumerate() {
                sums[request(cell)] += self.secs[c][p] * 1e3;
            }
            ms.extend(sums);
        }
        ms
    }

    /// The end-to-end metrics every simulator workload reports. A
    /// request is the group of cells `request` maps to one index; the
    /// latencies use the first `latency_passes` passes.
    pub fn push_metrics(
        &self,
        report: &mut Report,
        setup: &[f64],
        unit_name: &str,
        request: fn(&Cell) -> usize,
        latency_passes: usize,
    ) {
        report.push(
            Metric::plain("setup_s", median(setup), "s")
                .note(format!("median of {} set-ups", setup.len())),
        );
        let wall = self.wall_secs();
        let pass_totals: Vec<String> = (0..self.passes)
            .map(|p| format!("{:.3}", self.secs.iter().map(|s| s[p]).sum::<f64>()))
            .collect();
        report.push(Metric::plain("wall_s", wall, "s").note(format!(
            "sum over {} cells of the median over {} passes; pass totals {} s",
            self.cells.len(),
            self.passes,
            pass_totals.join(", ")
        )));
        for (policy, name) in [
            (TraversalPolicy::Baseline, "rays_per_s.baseline"),
            (TraversalPolicy::CoopRt, "rays_per_s.cooprt"),
        ] {
            let (rays, secs) = self.policy_totals(policy);
            report.push(Metric::plain(name, rays / secs, "1/s"));
        }
        let cycles: f64 = self.outcomes.iter().map(|o| o.cycles as f64).sum();
        report.push(Metric::plain("sim_cycles_per_s", cycles / wall, "1/s"));
        let speedups = self.pair_speedups();
        report.push(
            Metric::ratio_of(
                "cooprt_speedup",
                gmean(&speedups),
                "x",
                &format!(
                    "simulated; gmean over {} cell pairs of baseline cycles / CoopRT cycles",
                    speedups.len()
                ),
            )
            .note(format!(
                "paper PT gmean {PAPER_PT_GMEAN}x, context only: the model is not validated against hardware"
            )),
        );
        let latencies = self.request_ms(request, latency_passes);
        let requests = latencies.len() / latency_passes;
        report.push(
            Metric::plain("req_per_s", requests as f64 / wall, "1/s").note(format!(
                "{requests} requests per pass, one {unit_name} each"
            )),
        );
        push_p50_tail(report, "latency_ms", "ms", &latencies, unit_name, None);
    }
}

/// The `frame_live` cells: every render scene, both policies back to
/// back.
pub fn frame_cells() -> Vec<Cell> {
    ALL_SCENES
        .iter()
        .enumerate()
        .flat_map(|(i, id)| {
            POLICIES.into_iter().map(move |policy| Cell {
                scene: i,
                scene_name: id.name(),
                point: "ref",
                point_index: 0,
                policy,
            })
        })
        .collect()
}

/// Builds every render scene; the build time is one set-up sample.
pub fn build_all() -> (Vec<Scene>, f64) {
    let t = Instant::now();
    let scenes = ALL_SCENES.iter().map(|id| id.build(DETAIL)).collect();
    (scenes, t.elapsed().as_secs_f64())
}

/// Checks a workload's first-pass outcomes: against the pins on the
/// default seed; structurally (baseline image = CoopRT image) always.
pub fn check_outcomes(args: &Args, timed: &Timed, report: &mut Report) {
    for (pair, outs) in timed.cells.chunks(2).zip(timed.outcomes.chunks(2)) {
        report.check(outs[0].image == outs[1].image, || {
            format!(
                "{} {}: baseline and CoopRT images differ",
                pair[0].scene_name, pair[0].point
            )
        });
    }
    if args.seed == DEFAULT_SEED {
        for (cell, out) in timed.cells.iter().zip(&timed.outcomes) {
            let key = pins::key(&args.workload, cell);
            let want = pins::lookup(&key);
            report.check(want == Some((out.cycles, out.image)), || {
                format!(
                    "{key}: got cycles {} image {:016x}, pinned {want:?}",
                    out.cycles, out.image
                )
            });
        }
    }
}

/// Prints the pin lines of a workload's first-pass outcomes.
pub fn print_pins(args: &Args, timed: &Timed) {
    for (cell, out) in timed.cells.iter().zip(&timed.outcomes) {
        println!(
            "{} {} {:016x}",
            pins::key(&args.workload, cell),
            out.cycles,
            out.image
        );
    }
}

/// `frame_live`: every render scene x {baseline, CoopRT}, live.
pub fn frame_live(args: &Args, report: &mut Report) {
    let cfg = GpuConfig::rtx2060();
    let salt = args.seed;
    let reps = if args.trace || args.print_pins {
        1
    } else {
        SETUP_REPS
    };
    let mut setup = Vec::new();
    let mut scenes = Vec::new();
    for _ in 0..reps {
        scenes.clear();
        let (s, secs) = build_all();
        setup.push(secs);
        scenes = s;
    }
    let cells = frame_cells();
    if args.trace {
        // One pass with every observer on, each observed run checked.
        let mut observed = Vec::new();
        let timed = timed_passes(cells, Duration::ZERO, 1, report, |cell| {
            let (sim, tracer, checker) =
                observed_sim(&scenes[cell.scene], &cfg, cell.policy, salt, Observe::ALL);
            let t = Instant::now();
            let frame = sim.run_frame(KIND, RES, RES).expect("valid frame");
            let secs = t.elapsed().as_secs_f64();
            observed.push(drain(&tracer, &checker));
            (Outcome::of(&frame), secs)
        });
        report_observed(report, &timed, &observed);
        check_outcomes(args, &timed, report);
        report.push(Metric::plain("traced.wall_s", timed.wall_secs(), "s").note(
            "one pass with tracer, checker and recorder on; compare with wall_s of the untraced run",
        ));
        return;
    }
    let min_passes = if args.print_pins { 1 } else { FRAME_PASSES };
    let timed = timed_passes(cells, args.seconds, min_passes, report, |cell| {
        let (frame, secs) = live_frame(&scenes[cell.scene], &cfg, cell.policy, salt, RES);
        (Outcome::of(&frame), secs)
    });
    if args.print_pins {
        print_pins(args, &timed);
        return;
    }
    check_outcomes(args, &timed, report);
    timed.push_metrics(report, &setup, "scene compare", |c| c.scene, FRAME_PASSES);
}

/// Counts each observed run of a one-pass phase: no dropped events, no
/// checker violations.
fn report_observed(report: &mut Report, timed: &Timed, observed: &[Observed]) {
    for (cell, obs) in timed.cells.iter().zip(observed) {
        report.check(obs.dropped == 0 && obs.violations.is_empty(), || {
            format!(
                "{} {} {}: {} events dropped, violations {:?}",
                cell.scene_name,
                cell.point,
                cell.policy.label(),
                obs.dropped,
                obs.violations
            )
        });
    }
}

/// The recorded inputs of `sweep_replay`.
pub struct Recorded {
    /// The recording run of each sweep scene (baseline, reference
    /// config).
    pub live: Vec<FrameResult>,
    /// The decoded trace of each sweep scene.
    pub traces: Vec<Trace>,
}

/// Builds, records, encodes and decodes the sweep scenes; the elapsed
/// time is one set-up sample.
pub fn record_sweep(cfg: &GpuConfig, salt: u64) -> (Recorded, f64) {
    let t = Instant::now();
    let mut rec = Recorded {
        live: Vec::new(),
        traces: Vec::new(),
    };
    for id in SWEEP_SCENES {
        let scene = id.build(DETAIL);
        let (frame, trace) = record(&scene, cfg, TraversalPolicy::Baseline, salt, SWEEP_RES);
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).expect("decode own encoding");
        rec.live.push(frame);
        rec.traces.push(decoded);
    }
    (rec, t.elapsed().as_secs_f64())
}

/// The `sweep_replay` cells: scene x sweep point x policy, the two
/// policies of a point back to back.
pub fn sweep_cells(points: &[(&'static str, GpuConfig)]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (s, id) in SWEEP_SCENES.iter().enumerate() {
        for (p, (label, _)) in points.iter().enumerate() {
            for policy in POLICIES {
                cells.push(Cell {
                    scene: s,
                    scene_name: id.name(),
                    point: label,
                    point_index: p,
                    policy,
                });
            }
        }
    }
    cells
}

/// `sweep_replay`: two recorded scenes x the memory sweep x both
/// policies, replayed from decoded traces.
pub fn sweep_replay(args: &Args, report: &mut Report) {
    let cfg = GpuConfig::rtx2060();
    let salt = args.seed;
    let points = memory_sweep(&cfg);
    let reps = if args.trace || args.print_pins {
        1
    } else {
        SETUP_REPS
    };
    let mut setup = Vec::new();
    let mut rec = None;
    for _ in 0..reps {
        drop(rec.take());
        let (r, secs) = record_sweep(&cfg, salt);
        setup.push(secs);
        rec = Some(r);
    }
    let rec = rec.expect("at least one set-up");
    let cells = sweep_cells(&points);
    let check_replay = |report: &mut Report, timed: &Timed| {
        for (cell, out) in timed.cells.iter().zip(&timed.outcomes) {
            let trace = &rec.traces[cell.scene];
            report.check(out.image == image_hash(&trace.image), || {
                format!(
                    "{} {}: replayed image differs from the recording",
                    cell.scene_name, cell.point
                )
            });
            if cell.point == "ref" && cell.policy == TraversalPolicy::Baseline {
                let live = &rec.live[cell.scene];
                report.check(out.cycles == live.cycles, || {
                    format!(
                        "{} ref: replay {} cycles, live {}",
                        cell.scene_name, out.cycles, live.cycles
                    )
                });
            }
        }
        check_outcomes(args, timed, report);
    };
    if args.trace {
        let mut observed = Vec::new();
        let timed = timed_passes(cells, Duration::ZERO, 1, report, |cell| {
            let trace = &rec.traces[cell.scene];
            let scene = Scene::for_replay(trace.scene_name.clone(), trace.bvh.clone());
            let obs = Observe {
                recorder: false,
                ..Observe::ALL
            };
            let cfg = &points[cell.point_index].1;
            let (sim, tracer, checker) = observed_sim(&scene, cfg, cell.policy, salt, obs);
            let (streams, image) = (trace.streams.clone(), trace.image.clone());
            let t = Instant::now();
            let frame = sim
                .replay_frame(trace.kind, trace.width, trace.height, streams, image)
                .expect("valid replay");
            let secs = t.elapsed().as_secs_f64();
            observed.push(drain(&tracer, &checker));
            (Outcome::of(&frame), secs)
        });
        report_observed(report, &timed, &observed);
        check_replay(report, &timed);
        report.push(
            Metric::plain("traced.wall_s", timed.wall_secs(), "s").note(
                "one pass with tracer and checker on; compare with wall_s of the untraced run",
            ),
        );
        return;
    }
    let min_passes = if args.print_pins { 1 } else { SWEEP_PASSES };
    // `Trace::replay` is the path a sweep shard takes: config check,
    // scene wrap, input clone and the replayed frame.
    let timed = timed_passes(cells, args.seconds, min_passes, report, |cell| {
        let trace = &rec.traces[cell.scene];
        let t = Instant::now();
        let frame = trace
            .replay(&points[cell.point_index].1, cell.policy)
            .expect("replay a sweep point");
        let secs = t.elapsed().as_secs_f64();
        (Outcome::of(&frame), secs)
    });
    if args.print_pins {
        print_pins(args, &timed);
        return;
    }
    check_replay(report, &timed);
    // The CoopRT arm of the reference point, against a live run.
    for (s, id) in SWEEP_SCENES.iter().enumerate() {
        let scene = id.build(DETAIL);
        let (live, _) = live_frame(&scene, &cfg, TraversalPolicy::CoopRt, salt, SWEEP_RES);
        let c = timed
            .cells
            .iter()
            .position(|c| c.scene == s && c.point == "ref" && c.policy == TraversalPolicy::CoopRt)
            .expect("reference CoopRT cell");
        report.check(timed.outcomes[c] == Outcome::of(&live), || {
            format!("{} ref cooprt: replay differs from live", id.name())
        });
    }
    timed.push_metrics(
        report,
        &setup,
        "sweep point",
        |c| c.point_index,
        SWEEP_PASSES,
    );
}
