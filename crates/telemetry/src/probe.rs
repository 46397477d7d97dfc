//! The per-frame [`Probe`] the simulator observes through, and the
//! [`Checker`] that collects what checked frames found.
//!
//! When checking, [`Probe::emit`] verifies the invariants the event
//! stream itself carries, in state that belongs to the frame alone:
//!
//! - at most one [`EventKind::ResponsePop`] and one
//!   [`EventKind::NodeFetch`] per RT unit per cycle;
//! - every [`EventKind::TraceEnd`] closes the [`EventKind::TraceBegin`]
//!   of its warp issued at the cycle it names, and none is open at
//!   frame end (no lost `trace_ray`);
//! - an [`EventKind::LbuMove`] pairs two distinct threads.
//!
//! Invariants that need live component state (the LBU helper is idle,
//! `min_thit` never increases, the next wake lies ahead) stay at
//! their call sites as [`Probe::check`]s. Observation is purely
//! observational: `golden_cycles` runs the full scene matrix with
//! tracer and checker on and pins bitwise-identical cycle counts.

use crate::trace::{EventKind, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Invariant evaluations and the violations among them.
#[derive(Debug, Default)]
struct Findings {
    checks: u64,
    violations: Vec<String>,
}

/// A cloneable handle collecting the invariant checks of every frame
/// run with it.
///
/// [`Checker::disabled`] (the default) makes every [`Probe::check`] a
/// single never-taken branch; [`Checker::enabled`] shares one
/// violation buffer between all clones. Each frame's [`Probe`] adds to
/// it only in [`Probe::finish`], so concurrent frames share no
/// per-cycle state.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    inner: Option<Arc<Mutex<Findings>>>,
}

impl Checker {
    /// A checker whose probes never evaluate an invariant.
    pub fn disabled() -> Self {
        Checker { inner: None }
    }

    /// An enabled checker with a fresh shared violation buffer.
    pub fn enabled() -> Self {
        Checker {
            inner: Some(Arc::new(Mutex::new(Findings::default()))),
        }
    }

    /// True if probes built from this handle verify invariants.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn findings(&self) -> Option<MutexGuard<'_, Findings>> {
        let inner = self.inner.as_ref()?;
        Some(inner.lock().expect("checker mutex poisoned"))
    }

    /// Number of invariant evaluations in finished frames (0 when
    /// disabled).
    pub fn checks_run(&self) -> u64 {
        self.findings().map_or(0, |f| f.checks)
    }

    /// Snapshot of every recorded violation: frames in the order they
    /// finished, each frame's in detection order.
    pub fn violations(&self) -> Vec<String> {
        self.findings()
            .map_or_else(Vec::new, |f| f.violations.clone())
    }

    /// Panics with all recorded violations, if any. Convenience for
    /// tests that want checked runs to be hard failures.
    #[track_caller]
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(
            v.is_empty(),
            "engine invariant violations:\n{}",
            v.join("\n")
        );
    }
}

/// One frame's check state.
#[derive(Debug, Default)]
struct FrameCheck {
    found: Findings,
    /// Per RT unit: the cycle of its latest response pop, and how many
    /// pops that cycle had.
    pops: Vec<(u64, u32)>,
    /// Per RT unit: the same for coalesced node fetches.
    fetches: Vec<(u64, u32)>,
    /// In-flight `trace_ray` instructions: `(sm, warp)` to issue cycle.
    open: BTreeMap<(u32, u32), u64>,
}

/// Counts one event of a per-RT-unit stream at `cycle`; returns how
/// many that unit had this cycle.
fn count_in_cycle(per_sm: &mut Vec<(u64, u32)>, sm: u32, cycle: u64) -> u32 {
    let sm = sm as usize;
    if sm >= per_sm.len() {
        per_sm.resize(sm + 1, (u64::MAX, 0));
    }
    let (last, count) = &mut per_sm[sm];
    if *last != cycle {
        (*last, *count) = (cycle, 0);
    }
    *count += 1;
    *count
}

impl FrameCheck {
    /// Records one evaluated invariant, and a violation if it failed.
    fn verdict(&mut self, cycle: u64, ok: bool, msg: impl FnOnce() -> String) {
        self.found.checks += 1;
        if !ok {
            let msg = msg();
            self.found.violations.push(format!("[cycle {cycle}] {msg}"));
        }
    }

    /// Runs the stream invariants on one event. A `TraceBegin` issued
    /// over an open one is caught when either fails to close.
    fn observe(&mut self, cycle: u64, kind: &EventKind) {
        match *kind {
            EventKind::ResponsePop { sm, .. } => {
                let pops = count_in_cycle(&mut self.pops, sm, cycle);
                self.verdict(cycle, pops == 1, || {
                    format!("RT unit {sm} popped {pops} responses in one cycle")
                });
            }
            EventKind::NodeFetch { sm, .. } => {
                let fetches = count_in_cycle(&mut self.fetches, sm, cycle);
                self.verdict(cycle, fetches == 1, || {
                    format!("RT unit {sm} issued {fetches} coalesced fetches in one cycle")
                });
            }
            EventKind::TraceBegin { sm, warp, .. } => {
                self.open.insert((sm, warp), cycle);
            }
            EventKind::TraceEnd {
                sm,
                warp,
                issued_at,
            } => {
                let closes = self.open.remove(&(sm, warp)) == Some(issued_at);
                self.verdict(cycle, closes, || {
                    format!(
                        "SM {sm} retired an unopened trace_ray (warp {warp}, cycle {issued_at})"
                    )
                });
            }
            EventKind::LbuMove {
                sm, helper, main, ..
            } => {
                self.verdict(cycle, helper != main, || {
                    format!("LBU on RT unit {sm}: thread {main} paired with itself")
                });
            }
            _ => {}
        }
    }
}

/// The one observation point of a simulated frame, which the engine
/// builds from the run's [`Tracer`] and [`Checker`] and lends by `&mut`
/// to its components, so none of them holds an observer. It forwards
/// events to the tracer and, when checking, verifies invariants in
/// frame-local state that [`Probe::finish`] hands to the checker.
///
/// With both tracer and checker disabled (the default), [`Probe::emit`]
/// and [`Probe::check`] never run their closures.
///
/// # Examples
///
/// ```
/// use cooprt_telemetry::{Checker, EventKind, Probe, Tracer};
///
/// let (tracer, checker) = (Tracer::enabled(), Checker::enabled());
/// let mut probe = Probe::new(&tracer, &checker);
/// probe.emit(4, || EventKind::TraceBegin { sm: 0, warp: 2, active_rays: 32 });
/// probe.check(5, || 1 + 1 == 2, || "arithmetic broke".to_string());
/// probe.emit(9, || EventKind::TraceEnd { sm: 0, warp: 2, issued_at: 4 });
/// probe.finish(9);
/// assert_eq!(tracer.take().events.len(), 2);
/// assert_eq!(checker.checks_run(), 2);
/// checker.assert_clean();
/// ```
#[derive(Debug, Default)]
pub struct Probe {
    tracer: Tracer,
    checker: Checker,
    /// Present only when the checker is enabled.
    frame: Option<FrameCheck>,
}

impl Probe {
    /// A probe that records nothing: for driving a component outside a
    /// simulated frame.
    pub fn disabled() -> Self {
        Probe::default()
    }

    /// A probe for one frame, emitting into `tracer` and checking into
    /// `checker`.
    pub fn new(tracer: &Tracer, checker: &Checker) -> Self {
        Probe {
            tracer: tracer.clone(),
            checker: checker.clone(),
            frame: checker.is_enabled().then(FrameCheck::default),
        }
    }

    /// Emits an event at `cycle`. The closure runs only when the tracer
    /// or the checker is enabled.
    #[inline]
    pub fn emit(&mut self, cycle: u64, kind: impl FnOnce() -> EventKind) {
        match &mut self.frame {
            None => self.tracer.emit(cycle, kind),
            Some(frame) => {
                let kind = kind();
                frame.observe(cycle, &kind);
                self.tracer.emit(cycle, || kind);
            }
        }
    }

    /// Verifies one invariant that needs live state: evaluates `pred`
    /// only when checking, and records a violation rendered by `msg`
    /// when it fails.
    #[inline]
    pub fn check(&mut self, cycle: u64, pred: impl FnOnce() -> bool, msg: impl FnOnce() -> String) {
        if let Some(frame) = &mut self.frame {
            frame.verdict(cycle, pred(), msg);
        }
    }

    /// Ends the frame at `cycle`: flags every `trace_ray` still in
    /// flight and hands the frame's checks and violations to the
    /// [`Checker`].
    pub fn finish(self, cycle: u64) {
        let Some(mut frame) = self.frame else {
            return;
        };
        for ((sm, warp), issued_at) in std::mem::take(&mut frame.open) {
            frame.verdict(cycle, false, || {
                format!("SM {sm} never retired the trace_ray of warp {warp} from cycle {issued_at}")
            });
        }
        if let Some(mut findings) = self.checker.findings() {
            findings.checks += frame.found.checks;
            findings.violations.append(&mut frame.found.violations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(sm: u32) -> EventKind {
        EventKind::NodeFetch {
            sm,
            warp: 0,
            addr: 64,
            threads: 1,
            ready_at: 100,
        }
    }

    fn probe(checker: &Checker) -> Probe {
        Probe::new(&Tracer::disabled(), checker)
    }

    #[test]
    fn disabled_probe_is_inert() {
        let mut p = Probe::disabled();
        p.emit(5, || panic!("event closure must not run"));
        p.check(5, || panic!("predicate must not run"), || unreachable!());
        p.finish(5);
        let c = Checker::disabled();
        let mut p = probe(&c);
        p.emit(5, || panic!("event closure must not run"));
        p.finish(5);
        assert!(!c.is_enabled());
        assert_eq!(c.checks_run(), 0);
        c.assert_clean();
    }

    #[test]
    fn per_cycle_counters_allow_one_pop_and_one_fetch_per_unit() {
        let c = Checker::enabled();
        let mut p = probe(&c);
        let pop = |sm| move || EventKind::ResponsePop { sm, addr: 0 };
        p.emit(10, pop(0));
        p.emit(10, || fetch(0));
        p.emit(10, pop(1)); // other unit, same cycle: fine
        p.emit(11, pop(0)); // same unit, next cycle: fine
        p.emit(11, pop(0));
        p.emit(11, || fetch(0));
        p.emit(11, || fetch(0));
        p.finish(11);
        assert_eq!(c.checks_run(), 7);
        assert_eq!(
            c.violations(),
            vec![
                "[cycle 11] RT unit 0 popped 2 responses in one cycle".to_string(),
                "[cycle 11] RT unit 0 issued 2 coalesced fetches in one cycle".to_string(),
            ]
        );
    }

    #[test]
    fn probes_sharing_a_checker_keep_their_own_cycle_state() {
        // Two frames on one checker (as the concurrent samples of one
        // simulation are) each fetch once on unit 0 at cycle 10: one
        // fetch per frame, so neither frame violates anything.
        let c = Checker::enabled();
        let (mut a, mut b) = (probe(&c), probe(&c));
        a.emit(10, || fetch(0));
        b.emit(10, || fetch(0));
        a.emit(11, || EventKind::TraceBegin {
            sm: 0,
            warp: 1,
            active_rays: 1,
        });
        let end = || EventKind::TraceEnd {
            sm: 0,
            warp: 1,
            issued_at: 11,
        };
        b.emit(12, end);
        assert_eq!(c.checks_run(), 0, "nothing reaches the checker early");
        b.finish(12);
        a.emit(13, end);
        a.finish(13);
        assert_eq!(c.checks_run(), 4);
        let v = c.violations();
        assert_eq!(v.len(), 1, "only b's unmatched end: {v:?}");
        assert!(v[0].contains("unopened trace_ray"), "{v:?}");
    }

    #[test]
    fn trace_rays_must_pair_up() {
        let c = Checker::enabled();
        let mut p = probe(&c);
        let begin = |warp| {
            move || EventKind::TraceBegin {
                sm: 1,
                warp,
                active_rays: 4,
            }
        };
        let end = |warp, issued_at| {
            move || EventKind::TraceEnd {
                sm: 1,
                warp,
                issued_at,
            }
        };
        p.emit(1, begin(3));
        p.emit(2, begin(5));
        p.emit(7, end(3, 1));
        p.emit(8, end(4, 2));
        p.finish(9);
        assert_eq!(
            c.violations(),
            vec![
                "[cycle 8] SM 1 retired an unopened trace_ray (warp 4, cycle 2)".to_string(),
                "[cycle 9] SM 1 never retired the trace_ray of warp 5 from cycle 2".to_string(),
            ]
        );
    }

    #[test]
    fn lbu_moves_pair_distinct_threads() {
        let c = Checker::enabled();
        let mut p = probe(&c);
        let mv = |helper, main| {
            move || EventKind::LbuMove {
                sm: 0,
                warp: 0,
                helper,
                main,
                main_tid: main,
            }
        };
        p.emit(3, mv(1, 2));
        p.emit(4, mv(2, 2));
        p.finish(4);
        assert_eq!(
            c.violations(),
            vec!["[cycle 4] LBU on RT unit 0: thread 2 paired with itself".to_string()]
        );
    }

    #[test]
    fn checks_and_capped_tracing_share_one_probe() {
        // Checking sees every event, also past the tracer's capacity.
        let (t, c) = (Tracer::with_capacity(1), Checker::enabled());
        let mut p = Probe::new(&t, &c);
        p.check(3, || true, || unreachable!());
        p.check(4, || false, || "broken".to_string());
        p.emit(5, || fetch(0));
        p.emit(5, || fetch(0));
        p.finish(6);
        let log = t.take();
        assert_eq!((log.events.len(), log.dropped), (1, 1));
        assert_eq!(c.checks_run(), 4);
        let v = c.violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], "[cycle 4] broken");
        assert!(v[1].contains("issued 2 coalesced fetches"));
    }

    #[test]
    #[should_panic(expected = "engine invariant violations")]
    fn assert_clean_panics_on_violation() {
        let c = Checker::enabled();
        let mut p = probe(&c);
        p.check(0, || false, || "boom".to_string());
        p.finish(0);
        c.assert_clean();
    }
}
