//! Perf-regression diffing for the checked-in BENCH reports.
//!
//! `BENCH_paper.json` records every simulated number the `paper` bench
//! produced when it was last regenerated; `BENCH_perf.json` records the
//! host time perfbench and a timed `paper` run measured
//! (`ci/bench_perf.sh`). This module compares those reports against a
//! pinned baseline (`ci/bench_baseline.json`) with per-metric bands, so
//! a change that silently moves a cycle count, a reproduced paper claim
//! or the host throughput fails loudly instead of drifting.
//!
//! Two metric classes get different treatment:
//!
//! - **pins**: deterministic values (simulated cycle counts, predictor
//!   counters, the paper's headline numbers) have zero-width bands —
//!   any drift is a real behavioral change, [`Verdict::Drifted`];
//! - **wall-clock** values (throughput, latency quantiles) are
//!   machine-dependent, so they carry bands of 50% or more and only
//!   catch gross regressions, [`Verdict::Regressed`]. `ci.sh` fails on
//!   a drifted or missing pin and only warns on these.
//!
//! Metric addresses are dotted paths into the report JSON, with
//! `[key=value,...]` selectors to pick a row out of an array and
//! double quotes around a name that holds dots:
//! `paper.tables[figure=ext_reorder,caption=cooprt].rows[label=wknd].off`,
//! `perf.serve_mixed.metrics."latency_ms.p99".value`. The first path
//! segment `x` names the source report, the file `BENCH_x.json` at the
//! repository root.
//!
//! The second half of the module judges an A/B host-time comparison
//! (`ci/bench_ab.sh`, `benchdiff --ab`): perfbench result lines of two
//! revisions, run in alternating pairs, summarized per `end_to_end`
//! metric of `BENCHMARK.json` into [`AbRow`]s with a verdict from that
//! metric's bound and direction.

use cooprt_telemetry::{parse_json, JsonValue, JsonWriter};
use std::collections::BTreeMap;
use std::path::Path;

/// How a metric's current value is judged against its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Must match the baseline within the tolerance band in *either*
    /// direction (deterministic quantities; tolerance usually 0).
    Exact,
    /// Regression = current meaningfully *above* baseline (latencies).
    LowerBetter,
    /// Regression = current meaningfully *below* baseline (throughput,
    /// speedups, attainment).
    HigherBetter,
}

impl Direction {
    /// Stable label used in the baseline file.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Exact => "exact",
            Direction::LowerBetter => "lower_better",
            Direction::HigherBetter => "higher_better",
        }
    }

    /// Parses a baseline-file label.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "exact" => Some(Direction::Exact),
            "lower_better" => Some(Direction::LowerBetter),
            "higher_better" => Some(Direction::HigherBetter),
            _ => None,
        }
    }
}

/// One gated metric: where to find it and how much it may move.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Dotted path; the first segment names the source report.
    pub path: String,
    /// Allowed drift, percent of the baseline value.
    pub tolerance_pct: f64,
    /// Which direction of drift counts as a regression.
    pub direction: Direction,
}

impl MetricSpec {
    fn new(path: &str, tolerance_pct: f64, direction: Direction) -> Self {
        MetricSpec {
            path: path.to_string(),
            tolerance_pct,
            direction,
        }
    }

    /// The source report: the path's first segment.
    fn source(&self) -> &str {
        self.path.split('.').next().unwrap_or_default()
    }
}

/// The default gate: deterministic sim metrics pinned, wall-clock
/// metrics with wide bands.
pub fn default_specs() -> Vec<MetricSpec> {
    use Direction::*;
    let mut specs = Vec::new();
    // Simulated counts of the extension figures are bit-deterministic:
    // any drift is a real change to the timing model. The predictor's
    // quality is pinned one-sided: a drop is the regression, getting
    // better is free.
    let pins = [
        ("ext_reorder", "baseline", "wknd", "off", Exact),
        ("ext_reorder", "cooprt", "wknd", "off", Exact),
        ("ext_reorder", "cooprt", "spnza", "off", Exact),
        ("ext_reorder", "cooprt", "wknd", "rays", Exact),
        ("ext_reorder", "cooprt", "wknd", "octant-hash", Exact),
        ("ext_raypath", "cooprt", "wknd", "ray-path", Exact),
        ("ext_raypath", "baseline", "fox", "hit rate", HigherBetter),
        ("ext_raypath", "baseline", "fox", "saved", HigherBetter),
        ("ext_queries", "cooprt", "quni", "off", Exact),
        ("ext_queries", "baseline", "qclu", "off", Exact),
        ("ext_queries", "cooprt", "qamr", "morton", Exact),
        ("ext_queries", "cooprt", "qsrf", "rays", Exact),
    ];
    for (figure, policy, scene, column, direction) in pins {
        let table = format!("paper.tables[figure={figure},caption={policy}]");
        let path = format!("{table}.rows[label={scene}].{column}");
        specs.push(MetricSpec::new(&path, 0.0, direction));
    }
    // The paper's headline numbers are simulated too: a change that
    // shifts a reproduced claim fails the gate.
    let paper = [
        (
            "fig09_speedup_power_energy",
            "gmean",
            "speedup power energy",
        ),
        (
            "fig13_warp_buffer_sweep",
            "gmean",
            "8w/o 16w/o 32w/o 4w/ 8w/ 16w/ 32w/",
        ),
        ("fig14_slowest_warp", "gmean", "4w/coop 32w/o"),
        ("fig15_edp", "gmean", "8w/o 16w/o 32w/o 4w/"),
        ("fig19_subwarp_sweep", "gmean", "sw4 sw8 sw16 sw32"),
        ("table3_area", "32", "cells area(um2)"),
        ("table3_area", "4", "cells area(um2)"),
    ];
    for (figure, label, columns) in paper {
        let rows = if label == "gmean" { "summary" } else { "rows" };
        for column in columns.split(' ') {
            let path = format!("paper.tables[figure={figure}].{rows}[label={label}].{column}");
            specs.push(MetricSpec::new(&path, 0.0, Exact));
        }
    }
    // Host time, from perfbench's seed-0 results and the timed `paper`
    // run: 2-vCPU hosts drift 10-40% between runs, so no band is
    // narrower than 50%.
    let wall_clock = [
        ("frame_live", "wall_s", 50.0, LowerBetter),
        ("frame_live", "\"rays_per_s.cooprt\"", 50.0, HigherBetter),
        ("sweep_replay", "sim_cycles_per_s", 50.0, HigherBetter),
        ("serve_mixed", "req_per_s", 50.0, HigherBetter),
        ("serve_mixed", "\"latency_ms.p50\"", 50.0, LowerBetter),
        ("serve_mixed", "\"latency_ms.p99\"", 100.0, LowerBetter),
    ];
    for (workload, metric, tolerance_pct, direction) in wall_clock {
        let path = format!("perf.{workload}.metrics.{metric}.value");
        specs.push(MetricSpec::new(&path, tolerance_pct, direction));
    }
    specs.push(MetricSpec::new("perf.paper.wall_s_2", 50.0, LowerBetter));
    specs.push(MetricSpec::new("perf.paper.speedup", 50.0, HigherBetter));
    specs
}

/// Parsed source reports, keyed by source name.
pub type Reports = BTreeMap<String, JsonValue>;

/// Loads `BENCH_x.json` from `root` for every source `x` the specs read.
pub fn load_reports<'a>(
    root: &Path,
    specs: impl IntoIterator<Item = &'a MetricSpec>,
) -> Result<Reports, String> {
    let mut reports = Reports::new();
    for spec in specs {
        if reports.contains_key(spec.source()) {
            continue;
        }
        let path = root.join(format!("BENCH_{}.json", spec.source()));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            parse_json(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        reports.insert(spec.source().to_string(), doc);
    }
    Ok(reports)
}

/// Splits a dotted path into segments, keeping `[...]` selectors
/// attached to their segment and dots inside double quotes.
fn split_segments(path: &str) -> Vec<&str> {
    let mut segments = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut quoted = false;
    for (i, b) in path.bytes().enumerate() {
        match b {
            b'"' => quoted = !quoted,
            b'[' if !quoted => depth += 1,
            b']' if !quoted => depth = depth.saturating_sub(1),
            b'.' if depth == 0 && !quoted => {
                segments.push(&path[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    segments.push(&path[start..]);
    segments
}

/// True when array element `elem` matches every `key=value` pair.
fn selector_matches(elem: &JsonValue, selector: &str) -> bool {
    selector.split(',').all(|pair| {
        let Some((key, want)) = pair.split_once('=') else {
            return false;
        };
        match elem.get(key.trim()) {
            Some(JsonValue::String(s)) => s == want.trim(),
            Some(JsonValue::Number(n)) => want.trim().parse::<f64>() == Ok(*n),
            _ => false,
        }
    })
}

/// Resolves a dotted path (without the leading source segment) inside
/// `doc`, returning the numeric value it names.
pub fn extract(doc: &JsonValue, path: &str) -> Result<f64, String> {
    let mut node = doc;
    for segment in split_segments(path) {
        let (name, rest) = match segment.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"').unwrap_or((quoted, "")),
            None => segment.split_at(segment.find('[').unwrap_or(segment.len())),
        };
        let selector = rest.strip_prefix('[').and_then(|r| r.strip_suffix(']'));
        node = node
            .get(name)
            .ok_or_else(|| format!("no field '{name}' in path '{path}'"))?;
        if let Some(selector) = selector {
            let JsonValue::Array(items) = node else {
                return Err(format!("'{name}' is not an array in path '{path}'"));
            };
            node = items
                .iter()
                .find(|e| selector_matches(e, selector))
                .ok_or_else(|| format!("no element matching [{selector}] in path '{path}'"))?;
        }
    }
    node.as_f64()
        .ok_or_else(|| format!("'{path}' is not a number"))
}

/// The verdict on one gated metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the band (or an improvement).
    Ok,
    /// A pin (zero-width band) moved in the regression direction.
    Drifted,
    /// Outside a tolerance band in the regression direction.
    Regressed,
    /// The metric could not be extracted from the current report.
    Missing,
}

/// One row of a [`DiffReport`].
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// The metric's dotted path.
    pub path: String,
    /// Pinned baseline value.
    pub baseline: f64,
    /// Value in the current report (`None` when extraction failed).
    pub current: Option<f64>,
    /// Signed drift, percent of baseline (`None` when missing or the
    /// baseline is zero).
    pub delta_pct: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
    /// Extraction error detail for [`Verdict::Missing`] rows.
    pub detail: String,
}

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// One row per baseline metric.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// The number of rows with `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.path.len())
            .max()
            .unwrap_or(0)
            .max(6);
        for row in &self.rows {
            let status = match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Drifted => "DRIFTED",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING",
            };
            let current = row
                .current
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".to_string());
            let delta = row
                .delta_pct
                .map(|d| format!("{d:+.2}%"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<width$}  base {:>12.4}  now {:>12}  delta {:>9}  {}{}\n",
                row.path,
                row.baseline,
                current,
                delta,
                status,
                if row.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", row.detail)
                },
            ));
        }
        out
    }
}

/// Judges `current` against `baseline` under a spec's band.
fn judge(baseline: f64, current: f64, tolerance_pct: f64, direction: Direction) -> Verdict {
    let band = baseline.abs() * tolerance_pct / 100.0;
    let drift = current - baseline;
    let regressed = match direction {
        Direction::Exact => drift.abs() > band,
        Direction::LowerBetter => drift > band,
        Direction::HigherBetter => -drift > band,
    };
    match (regressed, tolerance_pct == 0.0) {
        (false, _) => Verdict::Ok,
        (true, true) => Verdict::Drifted,
        (true, false) => Verdict::Regressed,
    }
}

/// A pinned baseline: metric specs plus the values they held when the
/// baseline was written.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// `(spec, pinned value)` pairs.
    pub metrics: Vec<(MetricSpec, f64)>,
}

impl Baseline {
    /// Captures a baseline: every spec's metric extracted from the
    /// given reports.
    ///
    /// # Errors
    ///
    /// Names every spec that does not resolve, with the reason, so a
    /// renamed figure or column can never shrink the baseline silently.
    pub fn capture(specs: Vec<MetricSpec>, reports: &Reports) -> Result<Baseline, Vec<String>> {
        let (mut metrics, mut unresolved) = (Vec::new(), Vec::new());
        for spec in specs {
            match extract_spec(&spec, reports) {
                Ok(value) => metrics.push((spec, value)),
                Err(e) => unresolved.push(format!("{}: {e}", spec.path)),
            }
        }
        if unresolved.is_empty() {
            Ok(Baseline { metrics })
        } else {
            Err(unresolved)
        }
    }

    /// Serializes the baseline to its checked-in JSON form.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("schema_version", 1);
        w.begin_array("metrics");
        for (spec, value) in &self.metrics {
            w.begin_inline_object();
            w.field_str("path", &spec.path);
            w.field_f64("value", *value, 6);
            w.field_f64("tolerance_pct", spec.tolerance_pct, 2);
            w.field_str("direction", spec.direction.label());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a checked-in baseline file.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = parse_json(text).map_err(|e| format!("baseline parse error: {e}"))?;
        let Some(JsonValue::Array(items)) = doc.get("metrics") else {
            return Err("baseline has no 'metrics' array".to_string());
        };
        let mut metrics = Vec::new();
        for item in items {
            let path = item
                .get("path")
                .and_then(JsonValue::as_str)
                .ok_or("metric without 'path'")?
                .to_string();
            let value = item
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("metric '{path}' without 'value'"))?;
            let tolerance_pct = item
                .get("tolerance_pct")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let direction = item
                .get("direction")
                .and_then(JsonValue::as_str)
                .and_then(Direction::parse)
                .ok_or_else(|| format!("metric '{path}' has an unknown direction"))?;
            metrics.push((
                MetricSpec {
                    path,
                    tolerance_pct,
                    direction,
                },
                value,
            ));
        }
        Ok(Baseline { metrics })
    }

    /// Compares the current reports against this baseline.
    pub fn compare(&self, reports: &Reports) -> DiffReport {
        let rows = self
            .metrics
            .iter()
            .map(|(spec, baseline)| match extract_spec(spec, reports) {
                Ok(current) => DiffRow {
                    path: spec.path.clone(),
                    baseline: *baseline,
                    current: Some(current),
                    delta_pct: (baseline.abs() > f64::EPSILON)
                        .then(|| (current - baseline) / baseline * 100.0),
                    verdict: judge(*baseline, current, spec.tolerance_pct, spec.direction),
                    detail: String::new(),
                },
                Err(detail) => DiffRow {
                    path: spec.path.clone(),
                    baseline: *baseline,
                    current: None,
                    delta_pct: None,
                    verdict: Verdict::Missing,
                    detail,
                },
            })
            .collect();
        DiffReport { rows }
    }
}

/// Routes a spec to its source report by the leading path segment and
/// extracts the value.
fn extract_spec(spec: &MetricSpec, reports: &Reports) -> Result<f64, String> {
    let (source, rest) = spec
        .path
        .split_once('.')
        .ok_or_else(|| format!("path '{}' has no source prefix", spec.path))?;
    let doc = reports
        .get(source)
        .ok_or_else(|| format!("no report BENCH_{source}.json"))?;
    extract(doc, rest)
}

/// One `end_to_end` metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name, a key of a perfbench result's `metrics` object.
    pub name: String,
    /// [`Direction::LowerBetter`] or [`Direction::HigherBetter`].
    pub better: Direction,
    /// How far the change's median may move the wrong way, as a
    /// fraction of the base median; also the widest spread (IQR over
    /// the base median) either side may show and still be judged.
    pub bound: f64,
}

/// Reads the `end_to_end` metrics of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Names the first entry without a name, a `better` of `lower` or
/// `higher`, or a numeric bound.
pub fn end_to_end_metrics(benchmark: &JsonValue) -> Result<Vec<EndToEnd>, String> {
    let Some(JsonValue::Array(items)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no 'end_to_end' array".to_string());
    };
    items
        .iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("end_to_end entry without 'name'")?;
            let better = match item.get("better").and_then(JsonValue::as_str) {
                Some("lower") => Direction::LowerBetter,
                Some("higher") => Direction::HigherBetter,
                _ => {
                    return Err(format!(
                        "end_to_end '{name}' has no 'better' of lower/higher"
                    ))
                }
            };
            let bound = item
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("end_to_end '{name}' has no numeric 'bound'"))?;
            Ok(EndToEnd {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Median and interquartile range of one side's runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median.
    pub median: f64,
    /// Third minus first quartile.
    pub iqr: f64,
}

impl Spread {
    /// Summarizes `values` (quartiles by linear interpolation between
    /// order statistics). An empty sample summarizes to zeros.
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let Some(last) = sorted.len().checked_sub(1) else {
                return 0.0;
            };
            let at = q * last as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        };
        Spread {
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }
}

/// The judgement of one metric in an A/B comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbVerdict {
    /// At least [`MIN_GAIN_PAIRS`] pairs, better on at least 9 in 10 of
    /// them, and the medians differ by more than the base runs' IQR.
    Gain,
    /// Neither a gain nor worse than the bound.
    Same,
    /// The change's median is worse than the base median by more than
    /// the bound.
    Worse,
    /// A side's runs spread wider than the bound, and not every change
    /// run beats every base run: too noisy to tell.
    Unresolved,
}

impl AbVerdict {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AbVerdict::Gain => "gain",
            AbVerdict::Same => "same",
            AbVerdict::Worse => "WORSE",
            AbVerdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Fewest pairs that can show a [`AbVerdict::Gain`].
pub const MIN_GAIN_PAIRS: usize = 10;

/// One metric of one `(workload, seed)` cell of an A/B comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct AbRow {
    /// perfbench workload.
    pub workload: String,
    /// perfbench seed.
    pub seed: u64,
    /// The end-to-end metric.
    pub metric: EndToEnd,
    /// Base values, in pair order.
    pub base: Vec<f64>,
    /// Change values, in pair order.
    pub change: Vec<f64>,
    /// Pairs in which the change was strictly better.
    pub wins: usize,
    /// The judgement.
    pub verdict: AbVerdict,
}

impl AbRow {
    /// Change median over base median.
    pub fn ratio(&self) -> f64 {
        Spread::of(&self.change).median / Spread::of(&self.base).median
    }
}

/// Judges one metric from its paired runs (`base[i]` and `change[i]`
/// ran as pair `i`).
fn judge_ab(metric: &EndToEnd, base: &[f64], change: &[f64]) -> (usize, AbVerdict) {
    // Positive when the change is better.
    let gain = |b: f64, c: f64| match metric.better {
        Direction::HigherBetter => c - b,
        _ => b - c,
    };
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| gain(b, c) > 0.0)
        .count();
    let (b, c) = (Spread::of(base), Spread::of(change));
    let tolerance = metric.bound * b.median.abs();
    let separated = base
        .iter()
        .all(|&b| change.iter().all(|&c| gain(b, c) > 0.0));
    let verdict = if (b.iqr > tolerance || c.iqr > tolerance) && !separated {
        AbVerdict::Unresolved
    } else if -gain(b.median, c.median) > tolerance {
        AbVerdict::Worse
    } else if base.len() >= MIN_GAIN_PAIRS
        && wins * 10 >= base.len() * 9
        && gain(b.median, c.median) > b.iqr
    {
        AbVerdict::Gain
    } else {
        AbVerdict::Same
    };
    (wins, verdict)
}

/// The runs of one `(workload, seed)` cell of an A/B comparison: each
/// side's run records, in pair order.
struct AbCell<'a> {
    workload: String,
    seed: u64,
    base: Vec<&'a JsonValue>,
    change: Vec<&'a JsonValue>,
}

/// Base and change values, in pair order.
type AbSides = (Vec<f64>, Vec<f64>);

impl AbCell<'_> {
    /// Each side's value at `path` in every run record, or `None` when
    /// neither side's runs all carry it.
    fn values(&self, path: &str) -> Result<Option<AbSides>, String> {
        let side = |runs: &[&JsonValue]| {
            runs.iter()
                .map(|r| extract(r, path))
                .collect::<Result<Vec<_>, _>>()
        };
        match (side(&self.base), side(&self.change)) {
            (Ok(base), Ok(change)) => Ok(Some((base, change))),
            (Err(_), Err(_)) => Ok(None),
            (Err(e), _) | (_, Err(e)) => Err(format!("{} seed {}: {e}", self.workload, self.seed)),
        }
    }
}

/// Groups run records into cells, in the order of each cell's first
/// record.
///
/// # Errors
///
/// Names a record that lacks a field, a result that is not
/// `"correct": true`, or a cell whose sides ran different pair counts.
fn ab_cells(records: &[JsonValue]) -> Result<Vec<AbCell<'_>>, String> {
    // `(workload, seed)` and its runs as `(pair, is_change, record)`.
    type Cell<'a> = ((String, u64), Vec<(u64, bool, &'a JsonValue)>);
    let mut cells: Vec<Cell> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("run record {i} has no '{key}'"))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let pair = field("pair")?.as_f64().unwrap_or_default() as u64;
        let is_change = field("side")?.as_str() == Some("change");
        if !matches!(field("result")?.get("correct"), Some(JsonValue::Bool(true))) {
            return Err(format!("run record {i} ({workload}) is not correct"));
        }
        let cell = (workload, seed);
        match cells.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, runs)) => runs.push((pair, is_change, record)),
            None => cells.push((cell, vec![(pair, is_change, record)])),
        }
    }
    cells
        .into_iter()
        .map(|((workload, seed), mut runs)| {
            runs.sort_by_key(|&(pair, is_change, _)| (pair, is_change));
            let side = |want: bool| -> Vec<&JsonValue> {
                runs.iter().filter(|r| r.1 == want).map(|r| r.2).collect()
            };
            let (base, change) = (side(false), side(true));
            if base.len() != change.len() {
                return Err(format!(
                    "{workload} seed {seed}: unequal run counts per side"
                ));
            }
            Ok(AbCell {
                workload,
                seed,
                base,
                change,
            })
        })
        .collect()
}

/// Builds the rows of an A/B comparison from its run records.
///
/// Each record is one perfbench run:
/// `{"workload": W, "seed": S, "pair": I, "side": "base"|"change",
/// "minflt": F, "stime_s": T, "result": <perfbench's result line>}`.
/// Cells keep the order of their first record; a metric neither side's
/// results carry (the serve metrics on a simulator workload) is left
/// out.
///
/// # Errors
///
/// Names a record that lacks a field, a result that is not
/// `"correct": true`, a cell whose sides ran different pair counts, or
/// a metric only some of a cell's runs carry.
pub fn ab_rows(records: &[JsonValue], metrics: &[EndToEnd]) -> Result<Vec<AbRow>, String> {
    let mut rows = Vec::new();
    for cell in ab_cells(records)? {
        for metric in metrics {
            let path = format!("result.metrics.\"{}\".value", metric.name);
            let Some((base, change)) = cell.values(&path)? else {
                continue;
            };
            let (wins, verdict) = judge_ab(metric, &base, &change);
            rows.push(AbRow {
                workload: cell.workload.clone(),
                seed: cell.seed,
                metric: metric.clone(),
                base,
                change,
                wins,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The host counters `ci/bench_ab.sh` records beside each run's result:
/// the run's minor page faults and its system CPU seconds.
pub const AB_COUNTERS: [&str; 2] = ["minflt", "stime_s"];

/// Each side's median of one host counter over one `(workload, seed)`
/// cell. Informational: a counter has no bound and gets no verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct AbCounter {
    /// perfbench workload.
    pub workload: String,
    /// perfbench seed.
    pub seed: u64,
    /// One of [`AB_COUNTERS`].
    pub name: &'static str,
    /// Base median.
    pub base: f64,
    /// Change median.
    pub change: f64,
}

/// Summarizes the [`AB_COUNTERS`] of each cell of [`ab_rows`]' run
/// records. A counter the runs do not carry (records written before
/// the runner recorded it) is left out.
///
/// # Errors
///
/// As [`ab_rows`], for a counter in place of a metric.
pub fn ab_counters(records: &[JsonValue]) -> Result<Vec<AbCounter>, String> {
    let mut counters = Vec::new();
    for cell in ab_cells(records)? {
        for name in AB_COUNTERS {
            if let Some((base, change)) = cell.values(name)? {
                counters.push(AbCounter {
                    workload: cell.workload.clone(),
                    seed: cell.seed,
                    name,
                    base: Spread::of(&base).median,
                    change: Spread::of(&change).median,
                });
            }
        }
    }
    Ok(counters)
}

/// Renders A/B rows as an aligned text table, and the counters under
/// it as a second one.
pub fn render_ab(rows: &[AbRow], counters: &[AbCounter]) -> String {
    let mut out = format!(
        "{:<13} {:>4}  {:<20} {:>12} {:>10} {:>12} {:>10} {:>7} {:>6}  verdict\n",
        "workload", "seed", "metric", "base", "base IQR", "change", "change IQR", "ratio", "wins"
    );
    for row in rows {
        let (b, c) = (Spread::of(&row.base), Spread::of(&row.change));
        out.push_str(&format!(
            "{:<13} {:>4}  {:<20} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>7.4} {:>3}/{:<2}  {}\n",
            row.workload,
            row.seed,
            row.metric.name,
            b.median,
            b.iqr,
            c.median,
            c.iqr,
            row.ratio(),
            row.wins,
            row.base.len(),
            row.verdict.label(),
        ));
    }
    out.push_str(&format!(
        "{:<13} {:>4}  {:<20} {:>12} {:>12} {:>7}\n",
        "workload", "seed", "counter", "base", "change", "ratio"
    ));
    for c in counters {
        out.push_str(&format!(
            "{:<13} {:>4}  {:<20} {:>12.3} {:>12.3} {:>7.4}\n",
            c.workload,
            c.seed,
            c.name,
            c.base,
            c.change,
            c.change / c.base
        ));
    }
    out
}

/// What an A/B report records about how it was run.
#[derive(Clone, Debug)]
pub struct AbSetup {
    /// Base revision (commit id).
    pub base: String,
    /// Change revision (commit id).
    pub change: String,
    /// Host CPU count (`nproc`).
    pub nproc: u64,
    /// Pairs per `(workload, seed)` cell.
    pub pairs: u64,
    /// perfbench `--seconds` per run.
    pub seconds: u64,
}

/// Serializes an A/B comparison as its checked-in JSON report.
pub fn ab_report_json(setup: &AbSetup, rows: &[AbRow], counters: &[AbCounter]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("schema_version", 1);
    w.field_str("base", &setup.base);
    w.field_str("change", &setup.change);
    w.field_u64("nproc", setup.nproc);
    w.field_u64("pairs", setup.pairs);
    w.field_u64("seconds", setup.seconds);
    w.begin_array("rows");
    for row in rows {
        let (b, c) = (Spread::of(&row.base), Spread::of(&row.change));
        w.begin_object();
        w.field_str("workload", &row.workload);
        w.field_u64("seed", row.seed);
        w.field_str("metric", &row.metric.name);
        w.field_str("better", row.metric.better.label());
        w.field_f64("bound", row.metric.bound, 4);
        w.field_f64("base_median", b.median, 6);
        w.field_f64("base_iqr", b.iqr, 6);
        w.field_f64("change_median", c.median, 6);
        w.field_f64("change_iqr", c.iqr, 6);
        w.field_f64("ratio", row.ratio(), 4);
        w.field_u64("wins", row.wins as u64);
        w.field_u64("pairs", row.base.len() as u64);
        w.field_str("verdict", row.verdict.label());
        for (key, values) in [("base_runs", &row.base), ("change_runs", &row.change)] {
            w.begin_inline_array(key);
            for &v in values {
                w.item_f64(v, 6);
            }
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.begin_array("counters");
    for c in counters {
        w.begin_object();
        w.field_str("workload", &c.workload);
        w.field_u64("seed", c.seed);
        w.field_str("counter", c.name);
        w.field_f64("base_median", c.base, 3);
        w.field_f64("change_median", c.change, 3);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        parse_json(
            r#"{
                "scenes": [
                    {"scene": "wknd", "policy": "baseline", "cycles": 100, "wall_secs": 0.5},
                    {"scene": "wknd", "policy": "cooprt", "cycles": 60, "wall_secs": 0.6}
                ],
                "nested": {"deep": {"value": 7}},
                "metrics": {"latency_ms.p99": {"value": 3.5}, "a[0]": 4},
                "speedup": 1.25
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn dotted_paths_resolve_plain_and_nested_fields() {
        let doc = sample();
        assert_eq!(extract(&doc, "speedup").unwrap(), 1.25);
        assert_eq!(extract(&doc, "nested.deep.value").unwrap(), 7.0);
        assert!(extract(&doc, "nested.missing").is_err());
        assert!(extract(&doc, "nested").is_err(), "objects are not numbers");
    }

    #[test]
    fn selectors_pick_the_matching_array_row() {
        let doc = sample();
        assert_eq!(
            extract(&doc, "scenes[scene=wknd,policy=cooprt].cycles").unwrap(),
            60.0
        );
        assert_eq!(
            extract(&doc, "scenes[scene=wknd,policy=baseline].cycles").unwrap(),
            100.0
        );
        assert!(extract(&doc, "scenes[scene=nope,policy=cooprt].cycles").is_err());
        assert!(extract(&doc, "speedup[x=1].y").is_err(), "not an array");
    }

    #[test]
    fn double_quotes_address_names_that_hold_dots() {
        let doc = sample();
        let p99 = r#"metrics."latency_ms.p99".value"#;
        assert_eq!(extract(&doc, p99).unwrap(), 3.5);
        assert_eq!(extract(&doc, r#"metrics."a[0]""#).unwrap(), 4.0);
        assert!(extract(&doc, "metrics.latency_ms.p99.value").is_err());
        let spec = MetricSpec::new(&format!("demo.{p99}"), 0.0, Direction::Exact);
        assert_eq!(spec.source(), "demo");
    }

    #[test]
    fn judgement_respects_direction_and_band() {
        use Direction::*;
        // Exact: any drift beyond the band regresses, both directions;
        // beyond a zero-width band, a pin drifted.
        assert_eq!(judge(100.0, 100.0, 0.0, Exact), Verdict::Ok);
        assert_eq!(judge(100.0, 101.0, 0.0, Exact), Verdict::Drifted);
        assert_eq!(judge(100.0, 99.0, 0.0, Exact), Verdict::Drifted);
        assert_eq!(judge(100.0, 104.0, 5.0, Exact), Verdict::Ok);
        assert_eq!(judge(100.0, 94.0, 5.0, Exact), Verdict::Regressed);
        // A one-sided pin drifts only in its regression direction.
        assert_eq!(judge(0.5, 0.4, 0.0, HigherBetter), Verdict::Drifted);
        assert_eq!(judge(0.5, 0.6, 0.0, HigherBetter), Verdict::Ok);
        // LowerBetter: only upward drift regresses.
        assert_eq!(judge(100.0, 140.0, 50.0, LowerBetter), Verdict::Ok);
        assert_eq!(judge(100.0, 151.0, 50.0, LowerBetter), Verdict::Regressed);
        assert_eq!(judge(100.0, 10.0, 50.0, LowerBetter), Verdict::Ok);
        // HigherBetter: only downward drift regresses.
        assert_eq!(judge(100.0, 60.0, 50.0, HigherBetter), Verdict::Ok);
        assert_eq!(judge(100.0, 49.0, 50.0, HigherBetter), Verdict::Regressed);
        assert_eq!(judge(100.0, 1000.0, 50.0, HigherBetter), Verdict::Ok);
    }

    fn reports(perf: JsonValue) -> Reports {
        Reports::from([("demo".into(), sample()), ("perf".into(), perf)])
    }

    #[test]
    fn baselines_round_trip_through_json() {
        let perf = parse_json(r#"{"serve": {"metrics": {"req_per_s": {"value": 900.5}}}}"#);
        let reports = reports(perf.unwrap());
        let specs = vec![
            MetricSpec::new(
                "demo.scenes[scene=wknd,policy=cooprt].cycles",
                0.0,
                Direction::Exact,
            ),
            MetricSpec::new(
                r#"demo.metrics."latency_ms.p99".value"#,
                100.0,
                Direction::LowerBetter,
            ),
            MetricSpec::new(
                "perf.serve.metrics.req_per_s.value",
                50.0,
                Direction::HigherBetter,
            ),
        ];
        let captured = Baseline::capture(specs.clone(), &reports).unwrap();
        let parsed = Baseline::from_json(&captured.to_json()).unwrap();
        let values: Vec<f64> = parsed.metrics.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, [60.0, 3.5, 900.5]);
        for ((spec, _), want) in parsed.metrics.iter().zip(&specs) {
            assert_eq!(spec.path, want.path);
            assert_eq!(spec.tolerance_pct, want.tolerance_pct);
            assert_eq!(spec.direction, want.direction);
        }
        // Comparing a report against a baseline captured from it is
        // all-ok by construction.
        let report = parsed.compare(&reports);
        let ok = report.count(Verdict::Ok);
        assert_eq!(ok, report.rows.len(), "{}", report.render());
    }

    #[test]
    fn capture_names_every_spec_it_cannot_resolve() {
        let reports = reports(parse_json("{}").unwrap());
        let specs = vec![
            MetricSpec::new("demo.speedup", 0.0, Direction::Exact),
            MetricSpec::new("demo.scenes[scene=nope].cycles", 0.0, Direction::Exact),
            MetricSpec::new("perf.wall_s", 50.0, Direction::LowerBetter),
            MetricSpec::new("paper.tables", 0.0, Direction::Exact),
        ];
        let unresolved = Baseline::capture(specs, &reports).unwrap_err();
        assert_eq!(unresolved.len(), 3, "{unresolved:?}");
        assert!(unresolved[0].starts_with("demo.scenes[scene=nope].cycles: "));
        assert!(unresolved[1].starts_with("perf.wall_s: no field 'wall_s'"));
        assert!(unresolved[2].contains("BENCH_paper.json"));
        // Every default spec names a report the reports here lack.
        let all = Baseline::capture(default_specs(), &Reports::new()).unwrap_err();
        assert_eq!(all.len(), default_specs().len());
    }

    #[test]
    fn regressions_and_missing_metrics_fail_the_report() {
        let perf = parse_json(r#"{"speedup": 30.0, "wall_s": 2.0}"#).unwrap();
        let baseline = Baseline {
            metrics: vec![
                (
                    MetricSpec::new(
                        "demo.scenes[scene=wknd,policy=cooprt].cycles",
                        0.0,
                        Direction::Exact,
                    ),
                    61.0, // report says 60 → the pin drifted
                ),
                (
                    MetricSpec::new("perf.speedup", 10.0, Direction::HigherBetter),
                    31.0, // 30 vs 31: within 10%
                ),
                (
                    MetricSpec::new("perf.wall_s", 50.0, Direction::LowerBetter),
                    1.0, // 2 vs 1: outside 50%
                ),
                (
                    MetricSpec::new("perf.not.there", 0.0, Direction::Exact),
                    1.0,
                ),
                (
                    MetricSpec::new("paper.tables", 0.0, Direction::Exact),
                    1.0, // no paper report loaded
                ),
            ],
        };
        let report = baseline.compare(&reports(perf));
        let verdicts: Vec<Verdict> = report.rows.iter().map(|r| r.verdict).collect();
        use Verdict::*;
        assert_eq!(verdicts, [Drifted, Ok, Regressed, Missing, Missing]);
        assert_eq!(
            [Drifted, Regressed, Missing].map(|v| report.count(v)),
            [1, 1, 2]
        );
        assert!(report.rows[4].detail.contains("BENCH_paper.json"));
        let rendered = report.render();
        for status in ["DRIFTED", "REGRESSED", "MISSING"] {
            assert!(rendered.contains(status), "{rendered}");
        }
    }

    #[test]
    fn spreads_interpolate_between_order_statistics() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.iqr, 1.5); // 3.25 - 1.75
        assert_eq!(
            Spread::of(&[7.0]),
            Spread {
                median: 7.0,
                iqr: 0.0
            }
        );
        assert_eq!(
            Spread::of(&[]),
            Spread {
                median: 0.0,
                iqr: 0.0
            }
        );
    }

    #[test]
    fn end_to_end_metrics_parse_from_benchmark_json() {
        let doc = parse_json(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
            ]}"#,
        )
        .unwrap();
        let metrics = end_to_end_metrics(&doc).unwrap();
        assert_eq!(metrics[0].better, Direction::LowerBetter);
        assert_eq!(metrics[1].better, Direction::HigherBetter);
        assert_eq!(metrics[1].bound, 0.2);
        let bad = parse_json(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#);
        assert!(end_to_end_metrics(&bad.unwrap()).is_err());
        // The checked-in file parses, with one entry per metric.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let repo = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(end_to_end_metrics(&repo).unwrap().len() >= 3);
    }

    fn wall(bound: f64) -> EndToEnd {
        EndToEnd {
            name: "wall_s".into(),
            better: Direction::LowerBetter,
            bound,
        }
    }

    #[test]
    fn ab_verdicts_follow_bound_direction_and_spread() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.0];
        // 10% faster in every pair: a gain.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge_ab(&wall(0.25), &base, &fast), (10, AbVerdict::Gain));
        // Identical runs: no wins, same.
        assert_eq!(judge_ab(&wall(0.25), &base, &base), (0, AbVerdict::Same));
        // 8 of 10 wins is not enough for a gain.
        let mut mixed = fast.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert_eq!(judge_ab(&wall(0.25), &base, &mixed).1, AbVerdict::Same);
        // 30% slower against a 25% bound: worse.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge_ab(&wall(0.25), &base, &slow), (0, AbVerdict::Worse));
        // A change whose runs spread past the bound cannot be judged...
        let noisy = [5.0, 5.0, 5.0, 15.0, 15.0, 15.0, 5.0, 15.0, 10.0, 10.0];
        assert_eq!(
            judge_ab(&wall(0.25), &base, &noisy).1,
            AbVerdict::Unresolved
        );
        // ...unless every one of its runs beats every base run.
        let wide_but_faster = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 1.0, 9.0, 5.0, 5.0];
        assert_eq!(
            judge_ab(&wall(0.25), &base, &wide_but_faster),
            (10, AbVerdict::Gain)
        );
        // Higher-better metrics win upwards.
        let rate = EndToEnd {
            better: Direction::HigherBetter,
            ..wall(0.25)
        };
        assert_eq!(judge_ab(&rate, &fast, &base), (10, AbVerdict::Gain));
        // Too few pairs to show a gain, however clear.
        assert_eq!(
            judge_ab(&wall(0.25), &base[..9], &fast[..9]),
            (9, AbVerdict::Same)
        );
    }

    #[test]
    fn ab_rows_pair_runs_per_cell_and_skip_absent_metrics() {
        let record = |pair: u64, side: &str, wall_s: f64| {
            parse_json(&format!(
                r#"{{"workload": "frame_live", "seed": 0, "pair": {pair}, "side": "{side}",
                   "minflt": {}, "stime_s": {},
                   "result": {{"correct": true, "metrics": {{"wall_s": {{"value": {wall_s}}}}}}}}}"#,
                1000 * pair,
                wall_s / 10.0
            ))
            .unwrap()
        };
        let records = vec![
            record(1, "base", 5.0),
            record(1, "change", 4.0),
            record(2, "base", 5.2),
            record(2, "change", 5.3),
        ];
        let metrics = [
            wall(0.25),
            EndToEnd {
                name: "req_per_s".into(),
                better: Direction::HigherBetter,
                bound: 0.25,
            },
        ];
        let rows = ab_rows(&records, &metrics).unwrap();
        assert_eq!(rows.len(), 1, "req_per_s is not in these results");
        assert_eq!(rows[0].base, [5.0, 5.2]);
        assert_eq!(rows[0].change, [4.0, 5.3]);
        assert_eq!(rows[0].wins, 1);
        assert!((rows[0].ratio() - 4.65 / 5.1).abs() < 1e-12);
        let counters = ab_counters(&records).unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!((counters[0].name, counters[0].base), ("minflt", 1500.0));
        assert!((counters[1].change - 0.465).abs() < 1e-12);
        let json = ab_report_json(
            &AbSetup {
                base: "aaa".into(),
                change: "bbb".into(),
                nproc: 2,
                pairs: 2,
                seconds: 1,
            },
            &rows,
            &counters,
        );
        let doc = parse_json(&json).unwrap();
        assert_eq!(extract(&doc, "rows[metric=wall_s].wins").unwrap(), 1.0);
        assert_eq!(
            extract(&doc, "counters[counter=minflt].change_median").unwrap(),
            1500.0
        );
        let table = render_ab(&rows, &counters);
        assert!(table.contains("frame_live") && table.contains("stime_s"));
        // Records written before the runner counted faults carry none.
        let bare: Vec<JsonValue> = records
            .iter()
            .map(|r| match r {
                JsonValue::Object(fields) => JsonValue::Object(
                    fields
                        .iter()
                        .filter(|(k, _)| !AB_COUNTERS.contains(&k.as_str()))
                        .cloned()
                        .collect(),
                ),
                other => other.clone(),
            })
            .collect();
        assert!(ab_counters(&bare).unwrap().is_empty());
        assert_eq!(ab_rows(&bare, &metrics).unwrap(), rows);
        // A run that failed its checks is refused.
        let mut bad = records.clone();
        bad.push(parse_json(r#"{"workload": "w", "seed": 0, "pair": 3, "side": "base", "result": {"correct": false}}"#).unwrap());
        assert!(ab_rows(&bad, &metrics).unwrap_err().contains("not correct"));
    }

    #[test]
    fn sources_load_from_their_bench_files() {
        let root = std::env::temp_dir().join(format!("benchdiff-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("BENCH_demo.json"), r#"{"a": 2}"#).unwrap();
        let demo = MetricSpec::new("demo.a", 0.0, Direction::Exact);
        let reports = load_reports(&root, [&demo, &demo]).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(extract_spec(&demo, &reports), Ok(2.0));
        let absent = MetricSpec::new("nope.a", 0.0, Direction::Exact);
        let err = load_reports(&root, [&absent]).unwrap_err();
        assert!(err.contains("BENCH_nope.json"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
