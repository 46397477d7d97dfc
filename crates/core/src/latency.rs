//! Per-`trace_ray` latency statistics.
//!
//! The paper's Fig. 11 and Fig. 14 are fundamentally statements about
//! the latency *distribution* of `trace_ray` instructions — CoopRT
//! compresses the long tail that large warp buffers cannot. This module
//! collects every instruction's latency and summarizes it.

/// Latency samples of every retired `trace_ray` instruction in a run.
#[derive(Clone, Debug, Default)]
pub struct TraceLatencies {
    samples: Vec<u64>,
    sorted: bool,
}

impl TraceLatencies {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one instruction's latency (issue to retire, cycles).
    pub fn record(&mut self, cycles: u64) {
        self.samples.push(cycles);
        self.sorted = false;
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile latency (`q` in `[0, 1]`), or 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        self.samples[idx]
    }

    /// Mean latency, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Maximum latency, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Tail-to-median ratio (`p99 / p50`), a 1-number measure of how
    /// skewed the distribution is; 0.0 if empty.
    pub fn tail_ratio(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let p50 = self.quantile(0.5).max(1);
        self.quantile(0.99) as f64 / p50 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u64]) -> TraceLatencies {
        let mut t = TraceLatencies::new();
        for &v in values {
            t.record(v);
        }
        t
    }

    #[test]
    fn empty_collection_is_all_zeros() {
        let mut t = TraceLatencies::new();
        assert!(t.is_empty());
        assert_eq!(t.quantile(0.5), 0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0);
        assert_eq!(t.tail_ratio(), 0.0);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut t = filled(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(t.quantile(0.0), 10);
        assert_eq!(t.quantile(1.0), 100);
        assert_eq!(t.quantile(0.5), 60); // index round(9 * 0.5) = 5 (0-based)
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn mean_and_max() {
        let t = filled(&[1, 2, 3, 4]);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4);
    }

    #[test]
    fn tail_ratio_flags_skew() {
        let mut uniform = filled(&vec![100; 100]);
        assert!((uniform.tail_ratio() - 1.0).abs() < 1e-9);
        let mut skewed = TraceLatencies::new();
        for _ in 0..95 {
            skewed.record(100);
        }
        for _ in 0..5 {
            skewed.record(10_000);
        }
        assert!(skewed.tail_ratio() > 10.0, "got {}", skewed.tail_ratio());
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut t = filled(&[5, 1, 9]);
        assert_eq!(t.quantile(1.0), 9);
        t.record(100);
        assert_eq!(t.quantile(1.0), 100);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        let mut t = filled(&[1]);
        let _ = t.quantile(1.5);
    }
}
