//! Prometheus text-format exposition: a writer, a fixed-bucket atomic
//! histogram, and an in-tree validator in the spirit of
//! [`crate::validate_chrome_trace`].
//!
//! The workspace has no external dependencies, so the exposition
//! format (version 0.0.4, the `text/plain` scrape format every
//! Prometheus understands) is hand-rolled here — and, like the Chrome
//! trace writer, paired with a strict validator so a malformed
//! exporter fails CI rather than a scrape.
//!
//! The validator is deliberately harder to please than Prometheus
//! itself: besides the grammar (names, label escaping, `# TYPE`
//! before samples, one contiguous block per family) it rejects
//! non-finite counter/gauge/histogram values and histograms whose
//! `le` buckets are unsorted, non-cumulative, missing `+Inf`, or
//! inconsistent with `_count` — all real exporter bugs that scrape
//! fine and then corrupt dashboards silently.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Metric kinds the writer and validator understand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative fixed-bucket distribution
    /// (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl PromKind {
    /// The `# TYPE` keyword.
    pub fn label(self) -> &'static str {
        match self {
            PromKind::Counter => "counter",
            PromKind::Gauge => "gauge",
            PromKind::Histogram => "histogram",
        }
    }
}

/// Escapes a label value per the exposition format (`\\`, `\"`,
/// `\n`).
pub fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: integers without a fraction, floats in
/// Rust's shortest round-trip form, non-finite values in Prometheus
/// spelling.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Incremental writer for one exposition document.
///
/// # Examples
///
/// ```
/// use cooprt_telemetry::{validate_prometheus, PromKind, PromWriter};
///
/// let mut w = PromWriter::new();
/// w.family("cooprt_requests_total", "Requests served.", PromKind::Counter);
/// w.sample(&[("route", "render")], 42.0);
/// let text = w.finish();
/// assert!(validate_prometheus(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    /// The family the last [`PromWriter::family`] call opened.
    family: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a metric family: writes its `# HELP` and `# TYPE` lines.
    /// [`PromWriter::sample`] and [`PromWriter::histogram`] write into
    /// it until the next `family` call.
    pub fn family(&mut self, name: &str, help: &str, kind: PromKind) {
        self.family = name.to_string();
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind.label());
        self.out.push('\n');
    }

    /// Writes one sample line of the open family.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) {
        self.line("", labels, value);
    }

    /// Writes one histogram series of the open family from a snapshot:
    /// cumulative `_bucket` lines (including `+Inf`), then `_sum` and
    /// `_count`.
    pub fn histogram(&mut self, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let mut cumulative = 0u64;
        for (i, count) in snap.counts.iter().chain([&snap.overflow]).enumerate() {
            cumulative += count;
            let le = snap
                .bounds
                .get(i)
                .map_or_else(|| "+Inf".to_string(), u64::to_string);
            let mut with_le = labels.to_vec();
            with_le.push(("le", &le));
            self.line("_bucket", &with_le, cumulative as f64);
        }
        self.line("_sum", labels, snap.sum as f64);
        self.line("_count", labels, cumulative as f64);
    }

    /// Writes the sample line `<family><suffix>{labels} value`.
    fn line(&mut self, suffix: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(&self.family);
        self.out.push_str(suffix);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&prom_escape(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A lock-free histogram over fixed integer bucket bounds.
///
/// `observe` is two relaxed atomic adds — cheap enough for the serve
/// request path. Bounds are upper-inclusive (`v <= bound` lands in
/// that bucket), matching Prometheus `le` semantics.
#[derive(Debug)]
pub struct FixedHistogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
}

/// Point-in-time copy of a [`FixedHistogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: Vec<u64>,
    /// Observations above the last bound (the `+Inf` bucket's own
    /// count).
    pub overflow: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }
}

impl FixedHistogram {
    /// A zeroed histogram over `bounds` (must be non-empty and
    /// strictly increasing).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        match self.bounds.iter().position(|b| value <= *b) {
            Some(i) => self.counts[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// What [`validate_prometheus`] learned about a document.
#[derive(Debug, Default)]
pub struct PromCheck {
    /// `# TYPE`-declared metric families.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
    /// Family names seen.
    pub names: BTreeSet<String>,
}

/// Validates a Prometheus text-exposition document.
///
/// Grammar and semantics checked: metric/label name charsets, label
/// escaping, `# TYPE` preceding and unique per family, one contiguous
/// block per family, finite non-negative counters, finite gauges, and
/// well-formed histograms (sorted `le`, cumulative counts, `+Inf`
/// present and equal to `_count`).
pub fn validate_prometheus(text: &str) -> Result<PromCheck, String> {
    let mut check = PromCheck::default();
    let mut kinds: BTreeMap<String, PromKind> = BTreeMap::new();
    let mut closed: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<String> = None;
    // Histogram bookkeeping, keyed by (family, non-le labels).
    let mut hist_buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut hist_sums: BTreeSet<(String, String)> = BTreeSet::new();

    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
            let kind = match parts.next() {
                Some("counter") => PromKind::Counter,
                Some("gauge") => PromKind::Gauge,
                Some("histogram") => PromKind::Histogram,
                Some(other) => return Err(format!("line {n}: unknown TYPE '{other}'")),
                None => return Err(format!("line {n}: TYPE without kind")),
            };
            check_name(name).map_err(|e| format!("line {n}: {e}"))?;
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {n}: duplicate TYPE for '{name}'"));
            }
            if let Some(prev) = current.replace(name.to_string()) {
                closed.insert(prev);
            }
            if closed.contains(name) {
                return Err(format!("line {n}: family '{name}' reopened"));
            }
            check.families += 1;
            check.names.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments
        }

        let (name, labels, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = family_of(&name, &kinds)
            .ok_or(format!("line {n}: sample '{name}' has no preceding TYPE"))?;
        if current.as_deref() != Some(family.as_str()) {
            return Err(format!(
                "line {n}: sample '{name}' outside its family's block"
            ));
        }
        let kind = kinds[&family];
        match kind {
            PromKind::Counter => {
                if !value.is_finite() || value < 0.0 {
                    return Err(format!(
                        "line {n}: counter '{name}' has non-finite or negative value"
                    ));
                }
            }
            PromKind::Gauge => {
                if !value.is_finite() {
                    return Err(format!("line {n}: gauge '{name}' has non-finite value"));
                }
            }
            PromKind::Histogram => {
                let series_labels: Vec<(String, String)> =
                    labels.iter().filter(|(k, _)| k != "le").cloned().collect();
                let series = format!("{series_labels:?}");
                let key = (family.clone(), series);
                if name.ends_with("_bucket") {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or(format!("line {n}: histogram bucket without 'le' label"))?;
                    let bound = parse_prom_float(le)
                        .ok_or(format!("line {n}: malformed le value '{le}'"))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("line {n}: bucket value must be finite and >= 0"));
                    }
                    let buckets = hist_buckets.entry(key).or_default();
                    if let Some((last_le, last_count)) = buckets.last() {
                        if bound <= *last_le {
                            return Err(format!(
                                "line {n}: histogram '{family}' buckets not sorted by le"
                            ));
                        }
                        if value < *last_count {
                            return Err(format!(
                                "line {n}: histogram '{family}' bucket counts not cumulative"
                            ));
                        }
                    }
                    buckets.push((bound, value));
                } else if name.ends_with("_sum") {
                    if !value.is_finite() {
                        return Err(format!("line {n}: histogram '{family}' _sum not finite"));
                    }
                    hist_sums.insert(key);
                } else if name.ends_with("_count") {
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("line {n}: histogram '{family}' _count invalid"));
                    }
                    hist_counts.insert(key, value);
                } else {
                    return Err(format!(
                        "line {n}: histogram family '{family}' sample '{name}' is not _bucket/_sum/_count"
                    ));
                }
            }
        }
        check.samples += 1;
    }

    for ((family, series), buckets) in &hist_buckets {
        let (last_le, last_count) = buckets
            .last()
            .ok_or(format!("histogram '{family}' has no buckets"))?;
        if !last_le.is_infinite() {
            return Err(format!("histogram '{family}' is missing the +Inf bucket"));
        }
        let key = (family.clone(), series.clone());
        match hist_counts.get(&key) {
            Some(count) if *count == *last_count => {}
            Some(_) => {
                return Err(format!(
                    "histogram '{family}' _count disagrees with the +Inf bucket"
                ))
            }
            None => return Err(format!("histogram '{family}' is missing _count")),
        }
        if !hist_sums.contains(&key) {
            return Err(format!("histogram '{family}' is missing _sum"));
        }
    }

    Ok(check)
}

/// Maps a sample name to its declared family (identity, or the base
/// of a histogram's `_bucket`/`_sum`/`_count` suffix).
fn family_of(name: &str, kinds: &BTreeMap<String, PromKind>) -> Option<String> {
    if kinds.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if kinds.get(base) == Some(&PromKind::Histogram) {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn check_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first
        || !name[1..]
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name '{name}'"));
    }
    Ok(())
}

fn check_label_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !ok_first
        || !name[1..]
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(format!("invalid label name '{name}'"));
    }
    Ok(())
}

/// Parses a value token, accepting the Prometheus non-finite
/// spellings.
fn parse_prom_float(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse::<f64>().ok().filter(|_| {
            // Reject forms Rust accepts but the exposition format
            // does not ("inf", "nan", hex-ish strings are already
            // rejected by parse).
            !s.chars().any(|c| c.is_ascii_alphabetic())
        }),
    }
}

type Sample = (String, Vec<(String, String)>, f64);

/// Parses one sample line: `name[{labels}] value [timestamp]`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ')
        .ok_or("sample line without value")?;
    let name = &line[..name_end];
    check_name(name)?;

    let mut labels = Vec::new();
    let mut pos = name_end;
    if bytes[pos] == b'{' {
        pos += 1;
        loop {
            if pos >= bytes.len() {
                return Err("unterminated label set".to_string());
            }
            if bytes[pos] == b'}' {
                pos += 1;
                break;
            }
            let eq = line[pos..]
                .find('=')
                .map(|i| pos + i)
                .ok_or("label without '='")?;
            let lname = &line[pos..eq];
            check_label_name(lname)?;
            if bytes.get(eq + 1) != Some(&b'"') {
                return Err(format!("label '{lname}' value is not quoted"));
            }
            // Unescape the quoted value, validating escapes.
            let mut value = String::new();
            let mut i = eq + 2;
            loop {
                match bytes.get(i) {
                    None => return Err(format!("unterminated value for label '{lname}'")),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        match bytes.get(i + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => {
                                return Err(format!("invalid escape in value for label '{lname}'"))
                            }
                        }
                        i += 2;
                    }
                    Some(_) => {
                        let c = line[i..].chars().next().unwrap();
                        value.push(c);
                        i += c.len_utf8();
                    }
                }
            }
            labels.push((lname.to_string(), value));
            pos = i + 1; // past the closing quote
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {}
                _ => return Err("expected ',' or '}' after label value".to_string()),
            }
        }
    }

    let rest = line[pos..].trim();
    let mut parts = rest.split_whitespace();
    let value_token = parts.next().ok_or("sample line without value")?;
    let value = parse_prom_float(value_token)
        .ok_or_else(|| format!("malformed sample value '{value_token}'"))?;
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("malformed timestamp '{ts}'"))?;
    }
    if parts.next().is_some() {
        return Err("trailing junk after sample".to_string());
    }
    Ok((name.to_string(), labels, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_histogram() -> FixedHistogram {
        let h = FixedHistogram::new(&[10, 100, 1000]);
        for v in [5, 7, 50, 500, 5000] {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_buckets_are_upper_inclusive() {
        let h = FixedHistogram::new(&[10, 100]);
        h.observe(10); // lands in le=10, not le=100
        h.observe(11);
        h.observe(101);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 1]);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.sum, 122);
        assert_eq!(snap.count(), 3);
    }

    #[test]
    fn golden_exposition_document() {
        let mut w = PromWriter::new();
        w.family(
            "cooprt_requests_total",
            "Requests served.",
            PromKind::Counter,
        );
        w.sample(&[("route", "render")], 3.0);
        w.sample(&[("route", "metrics")], 1.0);
        w.family("cooprt_queue_depth", "Jobs waiting.", PromKind::Gauge);
        w.sample(&[], 2.0);
        w.family(
            "cooprt_latency_us",
            "Request latency, microseconds.",
            PromKind::Histogram,
        );
        w.histogram(&[], &small_histogram().snapshot());
        let text = w.finish();
        let expected = "\
# HELP cooprt_requests_total Requests served.
# TYPE cooprt_requests_total counter
cooprt_requests_total{route=\"render\"} 3
cooprt_requests_total{route=\"metrics\"} 1
# HELP cooprt_queue_depth Jobs waiting.
# TYPE cooprt_queue_depth gauge
cooprt_queue_depth 2
# HELP cooprt_latency_us Request latency, microseconds.
# TYPE cooprt_latency_us histogram
cooprt_latency_us_bucket{le=\"10\"} 2
cooprt_latency_us_bucket{le=\"100\"} 3
cooprt_latency_us_bucket{le=\"1000\"} 4
cooprt_latency_us_bucket{le=\"+Inf\"} 5
cooprt_latency_us_sum 5562
cooprt_latency_us_count 5
";
        assert_eq!(text, expected, "golden exposition output changed");
        let check = validate_prometheus(&text).expect("golden document validates");
        assert_eq!(check.families, 3);
        assert_eq!(check.samples, 9);
        assert!(check.names.contains("cooprt_latency_us"));
    }

    #[test]
    fn label_values_round_trip_through_escaping() {
        let mut w = PromWriter::new();
        w.family("m", "h", PromKind::Gauge);
        w.sample(&[("path", "a\\b\"c\nd")], 1.0);
        let text = w.finish();
        assert!(text.contains(r#"path="a\\b\"c\nd""#));
        validate_prometheus(&text).expect("escaped labels validate");
    }

    #[test]
    fn adversarial_bad_escaping_is_rejected() {
        // Raw backslash-x is not a legal escape.
        let text = "# TYPE m gauge\nm{path=\"a\\xb\"} 1\n";
        assert!(validate_prometheus(text).unwrap_err().contains("escape"));
        // Unterminated label value.
        let text = "# TYPE m gauge\nm{path=\"abc} 1\n";
        assert!(validate_prometheus(text).is_err());
        // Unquoted label value.
        let text = "# TYPE m gauge\nm{path=abc} 1\n";
        assert!(validate_prometheus(text).is_err());
    }

    #[test]
    fn adversarial_nan_and_inf_are_rejected() {
        for (kind, value) in [
            ("counter", "NaN"),
            ("counter", "+Inf"),
            ("counter", "-1"),
            ("gauge", "NaN"),
            ("gauge", "-Inf"),
        ] {
            let text = format!("# TYPE m {kind}\nm {value}\n");
            assert!(
                validate_prometheus(&text).is_err(),
                "{kind} {value} must be rejected"
            );
        }
        // A garbage value token is rejected outright.
        assert!(validate_prometheus("# TYPE m gauge\nm pony\n").is_err());
    }

    #[test]
    fn adversarial_histograms_must_be_sorted_and_cumulative() {
        // Unsorted le.
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"100\"} 1\nh_bucket{le=\"10\"} 2\n\
                    h_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n";
        assert!(validate_prometheus(text).unwrap_err().contains("sorted"));
        // Non-cumulative counts.
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"10\"} 5\nh_bucket{le=\"100\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\nh_sum 5\nh_count 5\n";
        assert!(validate_prometheus(text)
            .unwrap_err()
            .contains("cumulative"));
        // Missing +Inf.
        let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus(text).unwrap_err().contains("+Inf"));
        // _count disagrees with +Inf.
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 4\n";
        assert!(validate_prometheus(text).unwrap_err().contains("_count"));
    }

    #[test]
    fn samples_need_a_preceding_type_in_one_block() {
        assert!(validate_prometheus("m 1\n")
            .unwrap_err()
            .contains("no preceding TYPE"));
        // Interleaved families: m's block is closed by n's TYPE line.
        let text = "# TYPE m gauge\nm 1\n# TYPE n gauge\nn 1\nm 2\n";
        assert!(validate_prometheus(text).unwrap_err().contains("block"));
        // Duplicate TYPE.
        let text = "# TYPE m gauge\n# TYPE m gauge\nm 1\n";
        assert!(validate_prometheus(text).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn bad_names_are_rejected() {
        assert!(validate_prometheus("# TYPE 9m gauge\n9m 1\n").is_err());
        assert!(validate_prometheus("# TYPE m gauge\nm{9l=\"x\"} 1\n").is_err());
    }
}
