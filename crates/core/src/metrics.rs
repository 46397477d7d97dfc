//! Unified metrics registry: one report aggregating every statistics
//! family the simulator produces.
//!
//! Each subsystem already keeps its own counters — [`MemStats`] for the
//! cache/DRAM hierarchy, [`EnergyEvents`]/[`EnergyReport`] for the power
//! model, [`StallBreakdown`] and [`TraceLatencies`] in the engine,
//! [`PredictorStats`] for the ray-path predictor. This module snapshots all
//! of them from a [`FrameResult`] into a single hierarchical
//! [`MetricsReport`], serialized to a versioned JSON document through
//! the shared [`JsonWriter`] (the same writer the bench harness uses).
//!
//! The report also carries the engine's interval samples
//! ([`IntervalSeries`]) — AerialVision-style time series of the
//! thread-status mix, cache hit counters, DRAM traffic and warp-buffer
//! occupancy — plus optional host-side wall-clock spans ([`HostSpan`]s
//! from a `cooprt_telemetry::SpanRecorder`).
//!
//! Counter-reset semantics: every counter in a [`FrameResult`] is
//! per-frame *by construction* — `Simulation::run_frame` builds a fresh
//! `Engine` (and with it a fresh `MemoryHierarchy`, energy-event set and
//! latency collection) for every frame, so nothing carries over between
//! frames and nothing needs an explicit reset. Two identical frames
//! therefore produce identical reports, which
//! `metrics_report::identical_frames_report_identical_metrics` enforces.

use crate::engine::{FrameResult, IntervalSeries, StallBreakdown};
use crate::latency::TraceLatencies;
use crate::predictor::PredictorStats;
use crate::reorder::ReorderStats;
use cooprt_gpu::{EnergyEvents, EnergyReport, MemStats};
use cooprt_telemetry::{HostSpan, JsonWriter};

/// Version of the metrics JSON schema emitted by [`MetricsReport::to_json`].
///
/// Bump on any structural change (renamed/removed keys, changed units).
/// v2 added `simt_efficiency` and the `reorder` counter object.
/// v3 added the ray-path family (`stale`, `path_*`,
/// `node_fetches_saved`) to the `predictor` object.
/// v4 removed the intersection predictor's `lookups`, `candidates`,
/// `stale`, `verified` and `updates` from the `predictor` object.
pub const METRICS_SCHEMA_VERSION: u32 = 4;

/// Latency-distribution summary of the per-`trace_ray` samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of retired `trace_ray` instructions.
    pub count: usize,
    /// Mean latency, cycles.
    pub mean: f64,
    /// Median latency, cycles.
    pub p50: u64,
    /// 90th-percentile latency, cycles.
    pub p90: u64,
    /// 99th-percentile latency, cycles.
    pub p99: u64,
    /// Maximum latency, cycles.
    pub max: u64,
    /// `p99 / p50` skew measure.
    pub tail_ratio: f64,
}

impl LatencySummary {
    /// Summarizes a latency collection (clones it: quantile queries sort).
    pub fn from(latencies: &TraceLatencies) -> Self {
        let mut l = latencies.clone();
        LatencySummary {
            count: l.len(),
            mean: l.mean(),
            p50: l.quantile(0.5),
            p90: l.quantile(0.9),
            p99: l.quantile(0.99),
            max: l.max(),
            tail_ratio: l.tail_ratio(),
        }
    }
}

/// All metrics of one simulated frame, snapshotted from a [`FrameResult`].
#[derive(Clone, Debug)]
pub struct FrameMetrics {
    /// Caller-chosen label (e.g. `"crnvl/coop"`).
    pub label: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Rays traced.
    pub rays: u64,
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Energy-event counters.
    pub events: EnergyEvents,
    /// Energy/power summary.
    pub energy: EnergyReport,
    /// Warp-issue stall breakdown.
    pub stalls: StallBreakdown,
    /// Ray-path predictor counters.
    pub predictor: PredictorStats,
    /// Per-`trace_ray` latency distribution summary.
    pub latency: LatencySummary,
    /// Latency of the slowest warp, cycles.
    pub slowest_warp_cycles: u64,
    /// Fraction of cycles any DRAM channel was busy.
    pub dram_utilization: f64,
    /// Mean active lanes per `trace_ray` issue over the 32-lane warp
    /// width ([`FrameResult::simt_efficiency`]).
    pub simt_efficiency: f64,
    /// Ray-reordering pass counters (all zero with reordering off).
    pub reorder: ReorderStats,
    /// Interval-sampled time series (cumulative counters per sample).
    pub intervals: IntervalSeries,
}

impl FrameMetrics {
    /// Snapshots every statistics family of a finished frame.
    pub fn from_frame(label: &str, frame: &FrameResult) -> Self {
        FrameMetrics {
            label: label.to_string(),
            cycles: frame.cycles,
            rays: frame.rays,
            width: frame.width,
            height: frame.height,
            mem: frame.mem,
            events: frame.events,
            energy: frame.energy,
            stalls: frame.stalls,
            predictor: frame.predictor,
            latency: LatencySummary::from(&frame.trace_latencies),
            slowest_warp_cycles: frame.slowest_warp_cycles,
            dram_utilization: frame.dram_utilization,
            simt_efficiency: frame.simt_efficiency(),
            reorder: frame.reorder,
            intervals: frame.intervals.clone(),
        }
    }
}

/// The unified metrics report: every statistics family, one JSON document.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// Report title (scene, configuration, ...).
    pub title: String,
    /// Per-frame metric snapshots.
    pub frames: Vec<FrameMetrics>,
    /// Host-side wall-clock spans (name, seconds).
    pub host_spans: Vec<(String, f64)>,
}

impl MetricsReport {
    /// Creates an empty report with the given title.
    pub fn new(title: &str) -> Self {
        MetricsReport {
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Snapshots a finished frame's statistics under `label`.
    pub fn add_frame(&mut self, label: &str, frame: &FrameResult) {
        self.frames.push(FrameMetrics::from_frame(label, frame));
    }

    /// Folds host-side wall-clock spans into the report.
    pub fn add_spans(&mut self, spans: &[HostSpan]) {
        for span in spans {
            self.host_spans
                .push((span.name.clone(), span.dur_us as f64 / 1e6));
        }
    }

    /// Serializes the report as a versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("schema_version", u64::from(METRICS_SCHEMA_VERSION));
        w.field_str("title", &self.title);
        w.begin_array("frames");
        for f in &self.frames {
            w.begin_object();
            write_frame(&mut w, f);
            w.end_object();
        }
        w.end_array();
        w.begin_array("host_spans");
        for (name, secs) in &self.host_spans {
            w.begin_inline_object();
            w.field_str("name", name);
            w.field_f64("secs", *secs, 6);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

fn write_frame(w: &mut JsonWriter, f: &FrameMetrics) {
    w.field_str("label", &f.label);
    w.field_u64("cycles", f.cycles);
    w.field_u64("rays", f.rays);
    w.field_u64("width", f.width as u64);
    w.field_u64("height", f.height as u64);
    w.field_u64("slowest_warp_cycles", f.slowest_warp_cycles);
    w.field_f64("dram_utilization", f.dram_utilization, 6);
    w.field_f64("simt_efficiency", f.simt_efficiency, 6);

    w.begin_inline_object_field("reorder");
    w.field_u64("passes", f.reorder.passes);
    w.field_u64("keys_computed", f.reorder.keys_computed);
    w.field_u64("rays_moved", f.reorder.rays_moved);
    w.field_u64("bucket_occupancy_sum", f.reorder.bucket_occupancy_sum);
    w.field_u64("buckets", f.reorder.buckets);
    w.end_object();

    w.begin_object_field("memory");
    w.begin_inline_object_field("l1");
    w.field_u64("accesses", f.mem.l1.accesses);
    w.field_u64("hits", f.mem.l1.hits);
    w.end_object();
    w.begin_inline_object_field("l2");
    w.field_u64("accesses", f.mem.l2.accesses);
    w.field_u64("hits", f.mem.l2.hits);
    w.end_object();
    w.begin_inline_object_field("l1_mshr");
    w.field_u64("allocations", f.mem.l1_mshr.allocations);
    w.field_u64("merges", f.mem.l1_mshr.merges);
    w.end_object();
    w.begin_inline_object_field("l2_mshr");
    w.field_u64("allocations", f.mem.l2_mshr.allocations);
    w.field_u64("merges", f.mem.l2_mshr.merges);
    w.end_object();
    w.begin_inline_object_field("dram");
    w.field_u64("requests", f.mem.dram.requests);
    w.field_u64("bytes", f.mem.dram.bytes);
    w.field_u64("busy_cycles", f.mem.dram.busy_cycles);
    w.end_object();
    w.field_u64("l2_bytes", f.mem.l2_bytes);
    w.field_u64("dram_bytes", f.mem.dram_bytes);
    w.field_u64("prefetches", f.mem.prefetches);
    w.end_object();

    w.begin_object_field("energy");
    w.begin_inline_object_field("events");
    w.field_u64("box_tests", f.events.box_tests);
    w.field_u64("triangle_tests", f.events.triangle_tests);
    w.field_u64("stack_ops", f.events.stack_ops);
    w.field_u64("lbu_moves", f.events.lbu_moves);
    w.field_u64("scheduler_ops", f.events.scheduler_ops);
    w.field_u64("trace_instructions", f.events.trace_instructions);
    w.end_object();
    w.field_f64("dynamic_j", f.energy.dynamic_j, 9);
    w.field_f64("static_j", f.energy.static_j, 9);
    w.field_f64("total_j", f.energy.total_j(), 9);
    w.field_f64("avg_power_w", f.energy.avg_power_w(), 6);
    w.field_f64("edp", f.energy.edp(), 12);
    w.end_object();

    w.begin_inline_object_field("stalls");
    w.field_u64("rt", f.stalls.rt);
    w.field_u64("mem", f.stalls.mem);
    w.field_u64("alu", f.stalls.alu);
    w.field_u64("sfu", f.stalls.sfu);
    w.end_object();

    w.begin_inline_object_field("predictor");
    w.field_u64("path_lookups", f.predictor.path_lookups);
    w.field_u64("path_candidates", f.predictor.path_candidates);
    w.field_u64("path_stale", f.predictor.path_stale);
    w.field_u64("path_updates", f.predictor.path_updates);
    w.field_u64("path_entry_hits", f.predictor.path_entry_hits);
    w.field_u64("path_go_up_steps", f.predictor.path_go_up_steps);
    w.field_u64("node_fetches_saved", f.predictor.node_fetches_saved);
    w.end_object();

    w.begin_inline_object_field("trace_latency");
    w.field_u64("count", f.latency.count as u64);
    w.field_f64("mean", f.latency.mean, 2);
    w.field_u64("p50", f.latency.p50);
    w.field_u64("p90", f.latency.p90);
    w.field_u64("p99", f.latency.p99);
    w.field_u64("max", f.latency.max);
    w.field_f64("tail_ratio", f.latency.tail_ratio, 3);
    w.end_object();

    w.begin_object_field("time_series");
    w.field_u64("interval", f.intervals.interval);
    w.begin_array("samples");
    for s in &f.intervals.samples {
        w.begin_inline_object();
        w.field_u64("cycle", s.cycle);
        w.field_u64("busy", s.busy as u64);
        w.field_u64("waiting", s.waiting as u64);
        w.field_u64("inactive", s.inactive as u64);
        w.field_u64("warp_slots_occupied", s.warp_slots_occupied as u64);
        w.field_u64("l1_accesses", s.l1_accesses);
        w.field_u64("l1_hits", s.l1_hits);
        w.field_u64("l2_accesses", s.l2_accesses);
        w.field_u64("l2_hits", s.l2_hits);
        w.field_u64("dram_bytes", s.dram_bytes);
        w.field_u64("dram_busy_cycles", s.dram_busy_cycles);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
    use cooprt_scenes::SceneId;
    use cooprt_telemetry::parse_json;

    fn frame() -> FrameResult {
        let scene = SceneId::Crnvl.build(2);
        let config = GpuConfig::small(1);
        Simulation::new(&scene, &config, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap()
    }

    #[test]
    fn report_serializes_every_stats_family() {
        let f = frame();
        let mut report = MetricsReport::new("unit");
        report.add_frame("crnvl/coop", &f);
        let json = report.to_json();
        let doc = parse_json(&json).expect("metrics JSON must parse");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_f64()),
            Some(f64::from(METRICS_SCHEMA_VERSION))
        );
        let frames = match doc.get("frames") {
            Some(cooprt_telemetry::JsonValue::Array(a)) => a,
            other => panic!("frames must be an array, got {other:?}"),
        };
        assert_eq!(frames.len(), 1);
        let fr = &frames[0];
        for key in [
            "label",
            "cycles",
            "rays",
            "memory",
            "energy",
            "stalls",
            "predictor",
            "trace_latency",
            "time_series",
            "simt_efficiency",
            "reorder",
        ] {
            assert!(fr.get(key).is_some(), "frame is missing {key}");
        }
        assert_eq!(
            fr.get("cycles").and_then(|v| v.as_f64()),
            Some(f.cycles as f64)
        );
        let mem = fr.get("memory").unwrap();
        assert_eq!(
            mem.get("l1")
                .and_then(|l1| l1.get("accesses"))
                .and_then(|v| v.as_f64()),
            Some(f.mem.l1.accesses as f64)
        );
        let pred = fr.get("predictor").unwrap();
        for key in [
            "path_lookups",
            "path_candidates",
            "path_stale",
            "path_updates",
            "path_entry_hits",
            "path_go_up_steps",
            "node_fetches_saved",
        ] {
            assert!(pred.get(key).is_some(), "predictor is missing {key}");
        }
    }

    #[test]
    fn time_series_carries_interval_samples() {
        let f = frame();
        assert!(
            !f.intervals.samples.is_empty(),
            "engine must record interval samples"
        );
        let last = f.intervals.samples.last().unwrap();
        // Counters are cumulative: the final sample must agree with the
        // frame totals from the same hierarchy.
        assert!(last.l1_accesses <= f.mem.l1.accesses);
        assert!(last.dram_bytes <= f.mem.dram_bytes);
        let mut report = MetricsReport::new("series");
        report.add_frame("f", &f);
        let doc = parse_json(&report.to_json()).unwrap();
        let samples = doc
            .get("frames")
            .and_then(|v| match v {
                cooprt_telemetry::JsonValue::Array(a) => a.first(),
                _ => None,
            })
            .and_then(|fr| fr.get("time_series"))
            .and_then(|ts| ts.get("samples"));
        match samples {
            Some(cooprt_telemetry::JsonValue::Array(a)) => {
                assert_eq!(a.len(), f.intervals.samples.len())
            }
            other => panic!("samples must be an array, got {other:?}"),
        }
    }

    #[test]
    fn reorder_counters_and_simt_efficiency_flow_into_the_report() {
        let scene = SceneId::Crnvl.build(2);
        let mut config = GpuConfig::small(1);
        config.reorder = crate::ReorderPolicy::Morton;
        config.compaction = true;
        let f = Simulation::new(&scene, &config, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        assert!(f.reorder.passes >= 1, "at least the first wave reorders");
        assert!(f.simt_efficiency() > 0.0 && f.simt_efficiency() <= 1.0);
        let mut report = MetricsReport::new("reorder");
        report.add_frame("crnvl/morton", &f);
        let doc = parse_json(&report.to_json()).unwrap();
        let fr = match doc.get("frames") {
            Some(cooprt_telemetry::JsonValue::Array(a)) => &a[0],
            other => panic!("frames must be an array, got {other:?}"),
        };
        let re = fr.get("reorder").expect("reorder object");
        assert_eq!(
            re.get("keys_computed").and_then(|v| v.as_f64()),
            Some(f.reorder.keys_computed as f64)
        );
        assert_eq!(
            re.get("rays_moved").and_then(|v| v.as_f64()),
            Some(f.reorder.rays_moved as f64)
        );
        assert_eq!(
            fr.get("simt_efficiency").map(|v| v.as_f64().unwrap() > 0.0),
            Some(true)
        );
    }

    #[test]
    fn host_spans_fold_into_the_report() {
        let span = |name: &str, start_us: u64, dur_us: u64| HostSpan {
            name: name.to_string(),
            start_us,
            dur_us,
        };
        let mut report = MetricsReport::new("spans");
        report.add_spans(&[
            span("bvh_build", 0, 250_000),
            span("frame_run", 250_000, 1_500_000),
        ]);
        let doc = parse_json(&report.to_json()).unwrap();
        match doc.get("host_spans") {
            Some(cooprt_telemetry::JsonValue::Array(a)) => {
                assert_eq!(a.len(), 2);
                assert_eq!(a[0].get("name").and_then(|v| v.as_str()), Some("bvh_build"));
                assert_eq!(a[1].get("secs").and_then(|v| v.as_f64()), Some(1.5));
            }
            other => panic!("host_spans must be an array, got {other:?}"),
        }
    }
}
