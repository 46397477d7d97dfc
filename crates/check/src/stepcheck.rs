//! Dense-stepping differential oracle for the event-driven engine.
//!
//! The engine skips every SM whose cached next-event time lies in the
//! future and jumps the clock to the earliest wake-up. That is sound
//! only if a skipped step would have been a no-op, and this module
//! fuzzes the claim: each [`FuzzCase`] runs once with skipping and once
//! with the `#[doc(hidden)]` dense reference, which steps every SM on
//! every cycle, under both traversal policies. The two runs must agree
//! on:
//!
//! - the cycle count and every image bit;
//! - every counter of the frame's `MetricsReport`, interval samples
//!   included;
//! - the traced event stream, event by event;
//! - the Fig. 11 timeline of one warp, compared as runs of equal masks
//!   (the dense run samples every cycle, the skipping run only the
//!   cycles it visits, but a mask can only change at a visited cycle).
//!
//! Both runs also execute with the invariant checker on, whose
//! RT-unit checks re-derive the cached schedule summaries the dense
//! reference reads too. Beyond the case's own configuration, the seed
//! picks one engine path to exercise: plain, compaction waves, the
//! ray-path predictor or ray reordering.
//!
//! Failing cases shrink through the same [`shrink`] pipeline as the
//! other oracles and report a `simcheck -- --step-seed N` replay
//! command.

use crate::fuzz::FuzzCase;
use crate::{shrink, CheckFailure};
use cooprt_core::{
    Checker, FrameResult, GpuConfig, MetricsReport, PredictPolicy, ReorderPolicy, Simulation,
    TimelineSample, TraversalPolicy,
};
use cooprt_math::Rgb;
use cooprt_scenes::Scene;
use cooprt_telemetry::{TraceEvent, Tracer};
use std::fmt;

/// The engine path a seed exercises on top of its case.
fn variant(case: &FuzzCase) -> (&'static str, GpuConfig) {
    let cfg = case.gpu_config();
    match case.seed % 4 {
        0 => ("plain", cfg),
        1 => {
            let mut cfg = cfg;
            cfg.compaction = true;
            ("compaction", cfg)
        }
        2 => ("ray-path", cfg.with_predict(PredictPolicy::RayPath)),
        _ => ("octant-hash", cfg.with_reorder(ReorderPolicy::OctantHash)),
    }
}

/// One observed run: the frame and its traced event stream.
struct Run {
    frame: FrameResult,
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn run(
    case: &FuzzCase,
    scene: &Scene,
    cfg: &GpuConfig,
    policy: TraversalPolicy,
    dense: bool,
) -> Result<Run, CheckFailure> {
    let mode = if dense { "dense" } else { "skipping" };
    let tracer = Tracer::enabled();
    let checker = Checker::enabled();
    let warps = (case.width * case.height).div_ceil(32);
    let mut sim = Simulation::new(scene, cfg, policy)
        .with_tracer(tracer.clone())
        .with_checker(checker.clone())
        .with_timeline_warp(case.seed as usize % warps);
    if dense {
        sim = sim.with_dense_stepping();
    }
    let frame = sim
        .run_frame(case.shader, case.width, case.height)
        .map_err(|e| CheckFailure::new("engine", format!("{mode} {policy:?}: {e}")))?;
    let violations = checker.violations();
    if !violations.is_empty() {
        return Err(CheckFailure::new(
            "invariants",
            format!("{mode} {policy:?}: {}", violations.join("; ")),
        ));
    }
    let log = tracer.take();
    Ok(Run {
        frame,
        events: log.events,
        dropped: log.dropped,
    })
}

/// The timeline as maximal runs of equal masks: `(first cycle, mask)`.
fn mask_runs(timeline: &[TimelineSample]) -> Vec<(u64, u32)> {
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for s in timeline {
        if runs.last().map(|r| r.1) != Some(s.mask) {
            runs.push((s.cycle, s.mask));
        }
    }
    runs
}

fn bits(c: &Rgb) -> [u32; 3] {
    [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
}

fn metrics_json(frame: &FrameResult) -> String {
    let mut report = MetricsReport::new("stepcheck");
    report.add_frame("frame", frame);
    report.to_json()
}

/// Compares the skipping run against the dense reference.
fn compare(what: &str, sparse: &Run, dense: &Run) -> Result<(), CheckFailure> {
    let diverge =
        |detail: String| Err(CheckFailure::new("step-dense", format!("{what}: {detail}")));
    let (s, d) = (&sparse.frame, &dense.frame);
    if s.cycles != d.cycles {
        return diverge(format!(
            "skipping engine took {} cycles, dense reference {}",
            s.cycles, d.cycles
        ));
    }
    if let Some(i) = (0..s.image.len()).find(|&i| bits(&s.image[i]) != bits(&d.image[i])) {
        return diverge(format!(
            "pixel {i} differs: skipping {:?}, dense {:?}",
            s.image[i], d.image[i]
        ));
    }
    let (sj, dj) = (metrics_json(s), metrics_json(d));
    if let Some((a, b)) = sj.lines().zip(dj.lines()).find(|(a, b)| a != b) {
        return diverge(format!(
            "metrics differ: skipping `{}`, dense `{}`",
            a.trim(),
            b.trim()
        ));
    }
    if sj != dj {
        return diverge("metrics reports differ in length".to_string());
    }
    if sparse.dropped != 0 || dense.dropped != 0 {
        return diverge(format!(
            "event buffer overflowed ({} and {} dropped)",
            sparse.dropped, dense.dropped
        ));
    }
    let (se, de) = (&sparse.events, &dense.events);
    if let Some(i) = (0..se.len().min(de.len())).find(|&i| se[i] != de[i]) {
        return diverge(format!(
            "event {i} differs: skipping {:?}, dense {:?}",
            se[i], de[i]
        ));
    }
    if se.len() != de.len() {
        return diverge(format!(
            "skipping engine emitted {} events, dense reference {}",
            se.len(),
            de.len()
        ));
    }
    let (sr, dr) = (mask_runs(&s.timeline), mask_runs(&d.timeline));
    if sr != dr {
        let i = sr.iter().zip(&dr).take_while(|(a, b)| a == b).count();
        return diverge(format!(
            "timeline run {i} differs: skipping {:?}, dense {:?}",
            sr.get(i),
            dr.get(i)
        ));
    }
    Ok(())
}

/// Runs the dense-stepping differential over one case; `Ok` when the
/// skipping engine reproduces the dense reference bitwise under both
/// traversal policies.
pub fn run_step_case(case: &FuzzCase) -> Result<(), CheckFailure> {
    let scene = case.scene();
    let (name, cfg) = variant(case);
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let sparse = run(case, &scene, &cfg, policy, false)?;
        let dense = run(case, &scene, &cfg, policy, true)?;
        compare(&format!("{name} {policy:?}"), &sparse, &dense)?;
    }
    Ok(())
}

/// A dense-stepping fuzz failure: the seed, the original divergence,
/// and the shrunk reproduction.
#[derive(Clone, Debug)]
pub struct StepFailure {
    /// Seed whose case failed.
    pub seed: u64,
    /// Divergence reported by the original (unshrunk) case.
    pub original: CheckFailure,
    /// The minimized case that still fails.
    pub minimized: FuzzCase,
    /// Divergence reported by the minimized case.
    pub minimized_failure: CheckFailure,
}

impl fmt::Display for StepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "step seed {:#x} ({}) FAILED: {}",
            self.seed, self.seed, self.original
        )?;
        writeln!(f, "minimized repro: {}", self.minimized)?;
        writeln!(f, "minimized failure: {}", self.minimized_failure)?;
        write!(
            f,
            "replay with: cargo run --release --example simcheck -- --step-seed {}",
            self.seed
        )
    }
}

/// Runs one seed through the dense-stepping differential; on
/// divergence the case is shrunk before reporting.
pub fn run_step_seed(seed: u64) -> Result<(), Box<StepFailure>> {
    let case = FuzzCase::from_seed(seed);
    match run_step_case(&case) {
        Ok(()) => Ok(()),
        Err(original) => {
            let (minimized, minimized_failure) = shrink::shrink(&case, run_step_case);
            Err(Box::new(StepFailure {
                seed,
                original,
                minimized,
                minimized_failure,
            }))
        }
    }
}

/// Runs `count` consecutive dense-stepping seeds starting at `start`;
/// stops at the first failure. Returns the number of seeds that passed.
pub fn run_step_budget(start: u64, count: u64) -> Result<u64, Box<StepFailure>> {
    for i in 0..count {
        run_step_seed(start + i)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_step_seeds_pass() {
        // One seed per engine path; CI runs a larger budget in release.
        if let Err(failure) = run_step_budget(0, 4) {
            panic!("{failure}");
        }
    }

    #[test]
    fn mask_runs_merge_equal_neighbours_only() {
        let t = |cycle, mask| TimelineSample { cycle, mask };
        let dense = [t(3, 1), t(4, 1), t(5, 3), t(6, 3), t(9, 1)];
        let sparse = [t(3, 1), t(5, 3), t(9, 1)];
        assert_eq!(mask_runs(&dense), vec![(3, 1), (5, 3), (9, 1)]);
        assert_eq!(mask_runs(&dense), mask_runs(&sparse));
    }
}
