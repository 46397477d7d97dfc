//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! ratios that carry their base, flagged derived self-times, and the
//! result line the harness prints.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; `0.0` for an empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A tail percentile chosen by the reporting rule, with the sample
/// count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent (99.0 with enough samples).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// The reported tail of `values`: the nearest-rank p99 when there are
/// at least 1000 samples, otherwise the highest percentile that still
/// has ten samples beyond it. `None` with fewer than 11 samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    // Nearest rank: the sample at 0-based index i is the
    // (i + 1) / n quantile, with n - 1 - i samples beyond it.
    let index = if n >= 1000 {
        (0.99 * n as f64).ceil() as usize - 1
    } else {
        n - 11
    };
    Some(Tail {
        pct: (index + 1) as f64 / n as f64 * 100.0,
        value: v[index],
        samples: n,
        beyond: n - 1 - index,
    })
}

/// The reported tail of `values` taken block by block: [`tail`] of each
/// whole block of `block` consecutive samples, with the median of those
/// tails as the value, and the number of blocks. A burst of host noise
/// then moves the blocks it falls in, not the reported tail. With fewer
/// than two whole blocks, the [`tail`] of all samples and 1. `None`
/// when that tail is.
pub fn block_tail(values: &[f64], block: usize) -> Option<(Tail, usize)> {
    let blocks: Vec<Tail> = values
        .chunks_exact(block.max(1))
        .filter_map(tail)
        .collect();
    if blocks.len() < 2 {
        return tail(values).map(|t| (t, 1));
    }
    let values: Vec<f64> = blocks.iter().map(|t| t.value).collect();
    let t = Tail {
        value: median(&values),
        ..blocks[0]
    };
    Some((t, blocks.len()))
}

/// Pushes `<name>.p50` and `<name>.p99` of `samples`, each noting the
/// sample count; `what` names one sample. The tail follows [`tail`]'s
/// rule over all samples, or, with `block`, over each block of that
/// many samples, as [`block_tail`] reports it.
///
/// # Panics
///
/// Panics with fewer than 11 samples, too few for any tail.
pub fn push_p50_tail(
    report: &mut Report,
    name: &str,
    unit: &'static str,
    samples: &[f64],
    what: &str,
    block: Option<usize>,
) {
    let (t, blocks) = block_tail(samples, block.unwrap_or(samples.len()))
        .expect("at least 11 samples");
    report.push(
        Metric::plain(&format!("{name}.p50"), median(samples), unit)
            .note(format!("per {what}, n={}", samples.len())),
    );
    report.push(
        Metric::plain(&format!("{name}.p99"), t.value, unit).note(format!(
            "per {what}: p{:.1} of n={} ({} beyond){}{}",
            t.pct,
            t.samples,
            t.beyond,
            if blocks > 1 {
                format!(
                    " in each of {blocks} blocks, median over the blocks; {} samples in all",
                    samples.len()
                )
            } else {
                String::new()
            },
            if t.samples < 1000 {
                "; fewer than 1000 samples, so not p99"
            } else {
                ""
            }
        )),
    );
}

/// A self-time derived by subtraction (a total minus the parts that were
/// timed separately). Separately timed parts can exceed the total; the
/// value is then negative and `negative` says so, so it is flagged in
/// the table instead of passing silently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Derived {
    /// Total minus the sum of the parts.
    pub value: f64,
    /// True when the parts exceed the total.
    pub negative: bool,
}

/// `total - sum(parts)`, flagged when negative.
pub fn derived_self(total: f64, parts: &[f64]) -> Derived {
    let value = total - parts.iter().sum::<f64>();
    Derived {
        value,
        negative: value < 0.0,
    }
}

/// One reported metric: its value and unit, plus how it was formed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// For ratios, shares and percentages: what was divided by what.
    pub base: Option<String>,
    /// Free-form context printed beside the value (sample counts,
    /// percentile used, reference figures).
    pub note: String,
    /// Derived by subtraction rather than timed directly.
    pub derived: bool,
    /// A derived value whose parts exceed its total.
    pub flagged: bool,
}

/// Units that name a ratio; a metric in one of them must carry a base.
pub const RATIO_UNITS: [&str; 5] = ["x", "ratio", "share", "%", "derived-share"];

impl Metric {
    /// A directly measured value.
    pub fn plain(name: &str, value: f64, unit: &'static str) -> Self {
        assert!(
            !RATIO_UNITS.contains(&unit),
            "{name}: ratio units go through Metric::ratio"
        );
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: None,
            note: String::new(),
            derived: false,
            flagged: false,
        }
    }

    /// `num / den` (scaled by 100 for unit `%`), printed with `base`,
    /// which names the numerator and the denominator.
    pub fn ratio(name: &str, num: f64, den: f64, unit: &'static str, base: &str) -> Self {
        assert!(
            RATIO_UNITS.contains(&unit),
            "{name}: '{unit}' is not a ratio unit"
        );
        let scale = if unit == "%" { 100.0 } else { 1.0 };
        Metric {
            name: name.to_string(),
            value: num / den * scale,
            unit,
            base: Some(format!("{base}: {num:.6e} / {den:.6e}")),
            note: String::new(),
            derived: false,
            flagged: false,
        }
    }

    /// A ratio whose value is already formed (a geometric mean of
    /// per-cell ratios, say); `base` says over what.
    pub fn ratio_of(name: &str, value: f64, unit: &'static str, base: &str) -> Self {
        assert!(
            RATIO_UNITS.contains(&unit),
            "{name}: '{unit}' is not a ratio unit"
        );
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: Some(base.to_string()),
            note: String::new(),
            derived: false,
            flagged: false,
        }
    }

    /// A share derived by subtraction: `d.value / total`.
    pub fn derived_share(name: &str, d: Derived, total: f64, base: &str) -> Self {
        Metric {
            derived: true,
            flagged: d.negative,
            ..Metric::ratio(name, d.value, total, "derived-share", base)
        }
    }

    /// A time derived by subtraction.
    pub fn derived_time(name: &str, d: Derived, unit: &'static str, base: &str) -> Self {
        Metric {
            base: Some(base.to_string()),
            derived: true,
            flagged: d.negative,
            ..Metric::plain(name, d.value, unit)
        }
    }

    /// Attaches context printed beside the value.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl Report {
    /// Counts one checked operation, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        assert!(
            !self.metrics.iter().any(|m| m.name == metric.name),
            "metric {} reported twice",
            metric.name
        );
        self.metrics.push(metric);
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table: one line per metric, every ratio with
    /// its base, derived values marked and negative ones flagged.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<40} {:>16.6} {:<14}", m.name, m.value, m.unit);
            if m.derived {
                out.push_str(" [derived]");
            }
            if m.flagged {
                out.push_str(" [NEGATIVE: separately timed parts exceed the total]");
            }
            if let Some(base) = &m.base {
                let _ = write!(out, " base {base}");
            }
            if !m.note.is_empty() {
                let _ = write!(out, " ({})", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16.6} {:<14} base failed / attempted: {} / {}",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.failed,
            self.attempted
        );
        out
    }

    /// The single-line JSON result. Fails on a non-finite value, which
    /// JSON cannot carry.
    pub fn json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// 64-bit FNV-1a over the exact bit patterns of a frame's pixels.
pub fn image_hash(image: &[cooprt_math::Rgb]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in image {
        for w in [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_telemetry::{parse_json, JsonValue};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (50.0, 10));
        assert!((t.pct - 50.0 / 60.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!(t.pct < 99.0);
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 4950.0, 50));
    }

    #[test]
    fn tail_metrics_print_their_percentile_and_count() {
        let mut r = Report::default();
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        push_p50_tail(&mut r, "lat", "ms", &v, "request", None);
        assert_eq!(
            (r.metrics[0].name.as_str(), r.metrics[0].value),
            ("lat.p50", 30.5)
        );
        assert_eq!(
            (r.metrics[1].name.as_str(), r.metrics[1].value),
            ("lat.p99", 50.0)
        );
        assert!(r.metrics[0].note.contains("n=60"));
        let note = &r.metrics[1].note;
        assert!(
            note.contains("p83.3 of n=60 (10 beyond)") && note.contains("not p99"),
            "{note}"
        );
    }

    #[test]
    fn block_tail_is_the_median_of_the_blocks_p99s() {
        // Three blocks of 1000; the middle one is slowed by a burst.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend((1..=1000).map(|x| f64::from(x) * 10.0));
        v.extend((1..=1000).map(|x| f64::from(x) + 0.5));
        v.extend([1e9; 999]);
        let (t, blocks) = block_tail(&v, 1000).unwrap();
        assert_eq!(blocks, 3, "the partial last block is left out");
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (99.0, 990.5, 1000, 10));
        // Fewer than two whole blocks: the tail of all samples.
        let (t, blocks) = block_tail(&v[..1500], 1000).unwrap();
        assert_eq!((t.value, t.samples, blocks), (tail(&v[..1500]).unwrap().value, 1500, 1));
        let mut r = Report::default();
        push_p50_tail(&mut r, "lat", "ms", &v[..3000], "request", Some(1000));
        let note = &r.metrics[1].note;
        assert!(
            note.contains("p99.0 of n=1000 (10 beyond) in each of 3 blocks")
                && note.contains("3000 samples in all")
                && !note.contains("not p99"),
            "{note}"
        );
        assert_eq!(r.metrics[1].value, 990.5);
    }

    #[test]
    fn every_ratio_is_printed_with_its_base() {
        let mut r = Report::default();
        r.push(Metric::ratio(
            "a.share",
            1.0,
            4.0,
            "share",
            "a time / total time",
        ));
        r.push(Metric::ratio("b.pct", 1.0, 8.0, "%", "overhead / off time"));
        r.push(Metric::ratio_of(
            "c.speedup",
            2.0,
            "x",
            "gmean over 3 cells",
        ));
        r.push(Metric::plain("d.s", 1.5, "s"));
        assert_eq!(r.metrics[0].value, 0.25);
        assert_eq!(r.metrics[1].value, 12.5);
        let table = r.table();
        for line in table.lines() {
            let unit = line.split_whitespace().nth(2).unwrap();
            if RATIO_UNITS.contains(&unit) {
                assert!(line.contains(" base "), "ratio without base: {line}");
            }
        }
        assert!(table.contains("a time / total time: 1.000000e0 / 4.000000e0"));
    }

    #[test]
    #[should_panic(expected = "ratio units go through Metric::ratio")]
    fn a_ratio_unit_cannot_be_reported_without_a_base() {
        let _ = Metric::plain("x", 1.0, "x");
    }

    #[test]
    fn negative_derived_self_times_are_flagged() {
        let ok = derived_self(10.0, &[3.0, 4.0]);
        assert_eq!(
            ok,
            Derived {
                value: 3.0,
                negative: false
            }
        );
        let bad = derived_self(10.0, &[6.0, 5.0]);
        assert!(bad.negative && bad.value < 0.0);
        let mut r = Report::default();
        r.push(Metric::derived_share(
            "e.residual_share",
            bad,
            10.0,
            "rest / total",
        ));
        r.push(Metric::derived_time("f.s", ok, "s", "total - parts"));
        assert!(r.metrics[0].flagged && r.metrics[0].derived);
        assert!(!r.metrics[1].flagged && r.metrics[1].derived);
        let table = r.table();
        let first = table.lines().next().unwrap();
        assert!(
            first.contains("[derived]") && first.contains("NEGATIVE"),
            "{first}"
        );
        let second = table.lines().nth(1).unwrap();
        assert!(second.contains("[derived]") && !second.contains("NEGATIVE"));
    }

    #[test]
    fn result_line_reparses_with_the_telemetry_parser() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "cell 2 differs".to_string());
        r.push(Metric::plain("wall_s", 1.234_567_890_123, "s"));
        r.push(Metric::ratio("x.share", 1.0, 3.0, "share", "one / three"));
        let line = r.json_line().unwrap();
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap();
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(
            wall.get("value").and_then(JsonValue::as_f64),
            Some(1.234_567_890_123)
        );
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        let share = metrics.get("x.share").unwrap();
        assert_eq!(
            share.get("value").and_then(JsonValue::as_f64),
            Some(1.0 / 3.0)
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut r = Report::default();
        r.push(Metric::plain("bad", f64::NAN, "s"));
        assert!(r.json_line().is_err());
    }

    #[test]
    fn gmean_of_ratios() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }
}
