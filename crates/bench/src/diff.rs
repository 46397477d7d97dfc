//! A/B host-time judgement: `benchdiff --ab`, run by `ci/bench_ab.sh`.
//!
//! The runner runs perfbench for two revisions in alternating pairs and
//! writes one JSON record per run. This module groups those records
//! into `(workload, seed)` cells, summarizes every `end_to_end` metric
//! of `BENCHMARK.json` per cell into an [`AbRow`] with a verdict from
//! that metric's bound and direction, takes each side's median of the
//! runner's host counters ([`AbCounter`]), and renders both as text
//! tables and as the JSON report.
//!
//! Simulated numbers need no bands: `ci.sh` regenerates
//! `BENCH_paper.json` and `cmp`s it with the checked-in file, so every
//! table value of the paper run is pinned exactly.

use cooprt_telemetry::{JsonValue, JsonWriter};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better (latencies, wall time).
    LowerBetter,
    /// Higher is better (throughput, speedups).
    HigherBetter,
}

impl Direction {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Direction::LowerBetter => "lower_better",
            Direction::HigherBetter => "higher_better",
        }
    }
}

/// One `end_to_end` metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name, a key of a perfbench result's `metrics` object.
    pub name: String,
    /// Which way the metric improves.
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
        Direction::LowerBetter => b - c,
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
    /// Each side's number at `keys`, a chain of object fields, in every
    /// run record, or `None` when neither side's runs all carry it.
    fn values(&self, keys: &[&str]) -> Result<Option<AbSides>, String> {
        let side = |runs: &[&JsonValue]| -> Option<Vec<f64>> {
            runs.iter()
                .map(|&r| keys.iter().try_fold(r, |node, key| node.get(key))?.as_f64())
                .collect()
        };
        match (side(&self.base), side(&self.change)) {
            (Some(base), Some(change)) => Ok(Some((base, change))),
            (None, None) => Ok(None),
            _ => Err(format!(
                "{} seed {}: not every run carries {}",
                self.workload,
                self.seed,
                keys.join(" → ")
            )),
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
            let keys = ["result", "metrics", &metric.name, "value"];
            let Some((base, change)) = cell.values(&keys)? else {
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
            if let Some((base, change)) = cell.values(&[name])? {
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
    use cooprt_telemetry::parse_json;

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
                   "result": {{"correct": true, "metrics": {{"wall_s": {{"value": {wall_s}}},
                               "latency_ms.p50": {{"value": {}}}}}}}}}"#,
                1000 * pair,
                wall_s / 10.0,
                wall_s * 2.0
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
            // A name with a dot is one key, not a path.
            EndToEnd {
                name: "latency_ms.p50".into(),
                ..wall(0.25)
            },
        ];
        let rows = ab_rows(&records, &metrics).unwrap();
        assert_eq!(rows.len(), 2, "req_per_s is not in these results");
        assert_eq!(rows[0].base, [5.0, 5.2]);
        assert_eq!(rows[0].change, [4.0, 5.3]);
        assert_eq!(rows[0].wins, 1);
        assert!((rows[0].ratio() - 4.65 / 5.1).abs() < 1e-12);
        assert_eq!(rows[1].metric.name, "latency_ms.p50");
        assert_eq!(rows[1].change, [8.0, 10.6]);
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
        let first = |array: &str, key: &str| match doc.get(array) {
            Some(JsonValue::Array(items)) => items[0].get(key).and_then(JsonValue::as_f64),
            _ => None,
        };
        assert_eq!(first("rows", "wins"), Some(1.0));
        assert_eq!(first("counters", "change_median"), Some(1500.0));
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
        // A metric only some of a cell's runs carry cannot be judged.
        let mut partial = records.clone();
        partial.push(record(3, "base", 5.1));
        partial.push(parse_json(r#"{"workload": "frame_live", "seed": 0, "pair": 3, "side": "change", "result": {"correct": true, "metrics": {"wall_s": {"value": 4.9}}}}"#).unwrap());
        let err = ab_rows(&partial, &metrics).unwrap_err();
        assert!(
            err.ends_with("result → metrics → latency_ms.p50 → value"),
            "{err}"
        );
        // A run that failed its checks is refused.
        let mut bad = records.clone();
        bad.push(parse_json(r#"{"workload": "w", "seed": 0, "pair": 3, "side": "base", "result": {"correct": false}}"#).unwrap());
        assert!(ab_rows(&bad, &metrics).unwrap_err().contains("not correct"));
    }
}
