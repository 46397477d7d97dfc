//! Rolling-window latency/SLO tracking for the serve path.
//!
//! Lifetime counters answer "what happened since boot"; an operator
//! paging on p99 needs "what happened in the last minute". The
//! [`RollingWindow`] keeps one bucket per second over a fixed window,
//! recycles buckets in place (memory is bounded by `window_secs` ×
//! [`MAX_SAMPLES_PER_SEC`]), and derives windowed quantiles, SLO
//! attainment, and error-budget burn on demand.
//!
//! Time is an explicit `now_us` argument rather than a clock read, so
//! the tracker is deterministic under test and callers choose their
//! epoch (the server uses microseconds since process start).
//!
//! Definitions, following the SRE conventions:
//!
//! - a request is **good** when it neither failed (5xx) nor blew the
//!   latency target;
//! - **attainment** is good/total over the window (1.0 when idle);
//! - **error-budget burn** is `(1 - attainment) / (1 - objective)`:
//!   1.0 means failing exactly at the objective's rate, above 1.0 the
//!   budget is burning down.

use crate::json::JsonWriter;

/// Per-second sample cap; beyond it requests are still counted for
/// attainment but their latencies are not stored for quantiles.
pub const MAX_SAMPLES_PER_SEC: usize = 16_384;

/// SLO parameters for a [`RollingWindow`].
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Window length in seconds (one bucket per second).
    pub window_secs: u64,
    /// Latency target: a request slower than this is not "good".
    pub target_us: u64,
    /// Objective fraction of good requests (e.g. `0.99`).
    pub objective: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window_secs: 60,
            target_us: 250_000,
            objective: 0.99,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Absolute second this bucket currently holds (u64::MAX = empty).
    second: u64,
    latencies: Vec<u64>,
    total: u64,
    errors: u64,
    good: u64,
}

impl Bucket {
    fn reset(&mut self, second: u64) {
        self.second = second;
        self.latencies.clear();
        self.total = 0;
        self.errors = 0;
        self.good = 0;
    }
}

/// A point-in-time summary of the window (see module docs for the
/// attainment/burn definitions).
#[derive(Clone, Copy, Debug)]
pub struct SloSnapshot {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Requests observed inside the window.
    pub count: u64,
    /// Failed (not-ok) requests inside the window.
    pub errors: u64,
    /// Windowed median latency, microseconds.
    pub p50_us: u64,
    /// Windowed 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// Windowed 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Windowed maximum latency, microseconds.
    pub max_us: u64,
    /// The latency target the window was configured with.
    pub target_us: u64,
    /// The objective the window was configured with.
    pub objective: f64,
    /// Fraction of good requests (1.0 when the window is empty).
    pub attainment: f64,
    /// Error-budget burn rate (0.0 when the window is empty).
    pub error_budget_burn: f64,
}

impl SloSnapshot {
    /// Writes the snapshot's fields into an open JSON object (the `slo`
    /// section of the server's `/metrics` snapshot).
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("window_secs", self.window_secs);
        w.field_u64("count", self.count);
        w.field_u64("errors", self.errors);
        w.field_u64("p50_us", self.p50_us);
        w.field_u64("p95_us", self.p95_us);
        w.field_u64("p99_us", self.p99_us);
        w.field_u64("max_us", self.max_us);
        w.field_u64("target_us", self.target_us);
        w.field_f64("objective", self.objective, 4);
        w.field_f64("attainment", self.attainment, 6);
        w.field_f64("error_budget_burn", self.error_budget_burn, 4);
    }
}

/// The rolling window itself: a ring of per-second buckets.
///
/// # Examples
///
/// ```
/// use cooprt_telemetry::{RollingWindow, SloConfig};
///
/// let mut win = RollingWindow::new(SloConfig {
///     window_secs: 10,
///     target_us: 1_000,
///     objective: 0.9,
/// });
/// win.record(0, 500, true); // good
/// win.record(1_000_000, 5_000, true); // too slow
/// let snap = win.snapshot(1_000_000);
/// assert_eq!(snap.count, 2);
/// assert_eq!(snap.attainment, 0.5);
/// assert!((snap.error_budget_burn - 5.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RollingWindow {
    config: SloConfig,
    buckets: Vec<Bucket>,
}

impl RollingWindow {
    /// An empty window (`window_secs` is clamped to at least 1).
    pub fn new(config: SloConfig) -> Self {
        let n = config.window_secs.max(1) as usize;
        RollingWindow {
            config,
            buckets: vec![
                Bucket {
                    second: u64::MAX,
                    ..Bucket::default()
                };
                n
            ],
        }
    }

    /// The configured SLO parameters.
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Records one finished request observed at `now_us` (caller's
    /// epoch) with the given latency; `ok` is false for 5xx-class
    /// failures.
    pub fn record(&mut self, now_us: u64, latency_us: u64, ok: bool) {
        let second = now_us / 1_000_000;
        let n = self.buckets.len() as u64;
        let bucket = &mut self.buckets[(second % n) as usize];
        if bucket.second != second {
            bucket.reset(second);
        }
        bucket.total += 1;
        if !ok {
            bucket.errors += 1;
        }
        if ok && latency_us <= self.config.target_us {
            bucket.good += 1;
        }
        if bucket.latencies.len() < MAX_SAMPLES_PER_SEC {
            bucket.latencies.push(latency_us);
        }
    }

    /// Summarizes the window ending at `now_us`: only buckets whose
    /// second falls inside `(now - window, now]` contribute (stale
    /// ring slots are skipped, not recycled).
    pub fn snapshot(&self, now_us: u64) -> SloSnapshot {
        let now_sec = now_us / 1_000_000;
        let oldest = now_sec.saturating_sub(self.config.window_secs.max(1) - 1);
        let mut latencies: Vec<u64> = Vec::new();
        let mut count = 0u64;
        let mut errors = 0u64;
        let mut good = 0u64;
        for bucket in &self.buckets {
            if bucket.second < oldest || bucket.second > now_sec {
                continue;
            }
            count += bucket.total;
            errors += bucket.errors;
            good += bucket.good;
            latencies.extend_from_slice(&bucket.latencies);
        }
        latencies.sort_unstable();
        let quantile = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx]
        };
        let attainment = if count == 0 {
            1.0
        } else {
            good as f64 / count as f64
        };
        let budget = 1.0 - self.config.objective;
        let error_budget_burn = if budget <= 0.0 {
            if attainment < 1.0 {
                f64::MAX
            } else {
                0.0
            }
        } else {
            (1.0 - attainment) / budget
        };
        SloSnapshot {
            window_secs: self.config.window_secs.max(1),
            count,
            errors,
            p50_us: quantile(0.5),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            target_us: self.config.target_us,
            objective: self.config.objective,
            attainment,
            error_budget_burn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::parse_json;

    fn config(window_secs: u64) -> SloConfig {
        SloConfig {
            window_secs,
            target_us: 1_000,
            objective: 0.9,
        }
    }

    #[test]
    fn empty_window_is_healthy() {
        let win = RollingWindow::new(config(10));
        let snap = win.snapshot(5_000_000);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.attainment, 1.0);
        assert_eq!(snap.error_budget_burn, 0.0);
        assert_eq!(snap.p99_us, 0);
    }

    #[test]
    fn quantiles_cover_only_the_window() {
        let mut win = RollingWindow::new(config(5));
        // A huge latency far in the past must age out.
        win.record(0, 1_000_000, true);
        for sec in 100..105u64 {
            win.record(sec * 1_000_000, 100 * sec, true);
        }
        let snap = win.snapshot(104 * 1_000_000);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.max_us, 10_400);
        assert_eq!(snap.p50_us, 10_200);
    }

    #[test]
    fn attainment_counts_slow_and_failed_requests() {
        let mut win = RollingWindow::new(config(10));
        win.record(0, 500, true); // good
        win.record(0, 2_000, true); // too slow
        win.record(0, 100, false); // failed (fast but 5xx)
        win.record(0, 700, true); // good
        let snap = win.snapshot(0);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.attainment, 0.5);
        // objective 0.9 -> budget 0.1; burning 0.5 -> burn rate 5.
        assert!((snap.error_budget_burn - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ring_slots_recycle_without_leaking_old_seconds() {
        let mut win = RollingWindow::new(config(2));
        win.record(0, 100, true);
        win.record(1_000_000, 200, true);
        // Second 2 reuses slot 0; second 0's data must vanish.
        win.record(2_000_000, 300, true);
        let snap = win.snapshot(2_000_000);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_us, 300);
        // And a snapshot far in the future sees nothing.
        assert_eq!(win.snapshot(100_000_000).count, 0);
    }

    #[test]
    fn snapshot_renders_parsable_json_fields() {
        let mut win = RollingWindow::new(SloConfig::default());
        win.record(0, 42_000, true);
        let snap = win.snapshot(0);
        let mut w = JsonWriter::new();
        w.begin_inline_object();
        snap.write_fields(&mut w);
        w.end_object();
        let doc = parse_json(&w.finish()).expect("slo snapshot parses");
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("attainment").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("p99_us").unwrap().as_f64(), Some(42_000.0));
    }

    #[test]
    fn per_second_sample_cap_bounds_memory_but_not_counts() {
        let mut win = RollingWindow::new(config(1));
        for _ in 0..(MAX_SAMPLES_PER_SEC + 10) {
            win.record(0, 100, true);
        }
        let snap = win.snapshot(0);
        assert_eq!(snap.count, (MAX_SAMPLES_PER_SEC + 10) as u64);
        assert_eq!(snap.p99_us, 100);
    }
}
