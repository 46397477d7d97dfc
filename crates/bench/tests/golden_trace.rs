//! Golden trace-format regression suite.
//!
//! `tests/data/golden_wknd.cprt` is a checked-in v1 trace: the 'wknd'
//! scene at detail 2, recorded at 16x16 under the RTX 2060 baseline
//! configuration (path tracing). Decoding it pins the on-disk format —
//! header fields, stream/issue shapes, the embedded BVH — and replaying
//! it pins the timing model's cycle counts for both policies.
//!
//! A failure here means one of two things:
//!
//! - the **format** changed: old traces no longer decode, or decode to
//!   different contents. That needs a version bump (`TRACE_VERSION`)
//!   and a migration story, not a silent re-baseline;
//! - the **timing model** changed: the same recorded front end now
//!   takes a different number of cycles. That must either be a bug or
//!   come with a deliberate re-baseline, which copies the `left` value
//!   of each failing assert here, as it does in `golden_cycles.rs`.
//!
//! Regenerate (only for a deliberate re-baseline) with:
//!
//! ```sh
//! cargo run --release -- trace record wknd --res 16 --detail 2 \
//!     --policy baseline --out crates/bench/tests/data/golden_wknd.cprt
//! ```

use cooprt_core::{
    GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, Simulation, Trace, TraversalPolicy,
    TRACE_MAGIC, TRACE_VERSION,
};
use cooprt_scenes::{Scene, SceneId};
use cooprt_telemetry::{EventKind, TraceLog, Tracer};
use std::collections::BTreeSet;
use std::fmt::Write;

const GOLDEN_BYTES: &[u8] = include_bytes!("data/golden_wknd.cprt");

/// Replayed cycle counts under `GpuConfig::rtx2060()`, pinned when the
/// trace was recorded (the live simulation reported the same values).
const GOLDEN_BASELINE_CYCLES: u64 = 13849;
const GOLDEN_COOPRT_CYCLES: u64 = 7428;

#[test]
fn golden_trace_still_decodes() {
    assert_eq!(&GOLDEN_BYTES[..4], TRACE_MAGIC, "magic bytes moved");
    assert_eq!(
        TRACE_VERSION, 1,
        "version bumped: record a new golden trace"
    );
    let trace = Trace::decode(GOLDEN_BYTES).expect("checked-in trace decodes");

    // Header fields, exactly as recorded.
    assert_eq!(trace.scene_name, "wknd");
    assert_eq!(trace.detail, 2);
    assert_eq!(trace.kind, ShaderKind::PathTrace);
    assert_eq!((trace.width, trace.height), (16, 16));
    assert_eq!(trace.sample_salt, 0);
    assert_eq!(trace.max_bounces, 16);
    assert_eq!(trace.ao_samples, 4);
    assert_eq!(trace.ao_radius.to_bits(), 2.5f32.to_bits());
    assert_eq!(trace.sh_samples, 2);
    assert_eq!(trace.scene_hash, trace.bvh.content_hash());

    // Body shapes: one stream per pixel, the recorded event counts.
    assert_eq!(trace.streams.len(), 256);
    assert_eq!(trace.total_records(), 568);
    assert_eq!(trace.issues.len(), 58);
    assert_eq!(trace.image.len(), 256);
    assert_eq!(trace.bvh.node_count(), 116);
    assert_eq!(trace.bvh.triangles().len(), 86);
}

#[test]
fn golden_trace_still_replays_the_pinned_cycles() {
    let trace = Trace::decode(GOLDEN_BYTES).expect("checked-in trace decodes");
    let cfg = GpuConfig::rtx2060();
    for (policy, golden) in [
        (TraversalPolicy::Baseline, GOLDEN_BASELINE_CYCLES),
        (TraversalPolicy::CoopRt, GOLDEN_COOPRT_CYCLES),
    ] {
        let r = trace.replay(&cfg, policy).unwrap();
        assert_eq!(
            r.cycles, golden,
            "{policy:?}: replayed cycles drifted from the pinned value"
        );
        assert_eq!(
            r.image, trace.image,
            "{policy:?}: replay no longer reproduces the recorded image"
        );
    }
}

/// FNV-1a over each event's `Debug` text, one line per event: any
/// change to an event's cycle, kind, fields or position moves it.
fn stream_hash(log: &TraceLog) -> u64 {
    let mut text = String::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for event in &log.events {
        text.clear();
        writeln!(text, "{event:?}").expect("writing to a String");
        for &b in text.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// `EventKind` variant name, for the coverage check.
fn variant(kind: &EventKind) -> String {
    let text = format!("{kind:?}");
    text.split(' ').next().unwrap_or_default().to_string()
}

/// The sim-time event streams are pinned event by event: their length
/// and a hash of every event, for path tracing under both policies,
/// the shadow shader with reordering and ray-path prediction on, the
/// replay of the golden trace, and a capacity-capped tracer. Together
/// the runs emit every `EventKind` the simulator produces (`Request`
/// is the service layer's marker). A refactor of how events reach the
/// tracer must leave all of these unchanged.
#[test]
fn event_streams_are_pinned() {
    let scene = SceneId::Wknd.build(2);
    let cfg = GpuConfig::rtx2060();
    let traced = |cfg: &GpuConfig, policy, kind, tracer: Tracer| {
        Simulation::new(&scene, cfg, policy)
            .with_tracer(tracer.clone())
            .run_frame(kind, 16, 16)
            .expect("valid frame");
        tracer.take()
    };
    let mut seen = BTreeSet::new();
    let mut pin = |what: &str, log: &TraceLog, events: usize, hash: u64| {
        seen.extend(log.events.iter().map(|e| variant(&e.kind)));
        assert_eq!(log.events.len(), events, "{what}: event count");
        assert_eq!(log.dropped, 0, "{what}: dropped events");
        assert_eq!(stream_hash(log), hash, "{what}: event stream hash");
    };

    let pt = ShaderKind::PathTrace;
    let base = traced(&cfg, TraversalPolicy::Baseline, pt, Tracer::enabled());
    pin("baseline pt", &base, 6_131, 0x1156_7357_a451_c9b3);
    let coop = traced(&cfg, TraversalPolicy::CoopRt, pt, Tracer::enabled());
    pin("cooprt pt", &coop, 10_041, 0xd529_cf53_ad0b_2cce);

    let shadow_cfg = cfg
        .clone()
        .with_reorder(ReorderPolicy::OctantHash)
        .with_predict(PredictPolicy::RayPath);
    let shadow = traced(
        &shadow_cfg,
        TraversalPolicy::CoopRt,
        ShaderKind::Shadow,
        Tracer::enabled(),
    );
    pin("cooprt sh", &shadow, 4_466, 0x0cb1_61c2_dfd8_b4a4);
    let count = |name: &str| {
        shadow
            .events
            .iter()
            .filter(|e| variant(&e.kind) == name)
            .count()
    };
    assert_eq!((count("Predict"), count("Reorder")), (45, 1));

    // Replaying the golden trace emits the live CoopRT stream exactly.
    let trace = Trace::decode(GOLDEN_BYTES).expect("checked-in trace decodes");
    let replay_scene = Scene::for_replay(trace.scene_name.clone(), trace.bvh.clone());
    let tracer = Tracer::enabled();
    Simulation::new(&replay_scene, &cfg, TraversalPolicy::CoopRt)
        .with_tracer(tracer.clone())
        .replay_frame(
            trace.kind,
            trace.width,
            trace.height,
            trace.streams.clone(),
            trace.image.clone(),
        )
        .expect("valid replay");
    let replay = tracer.take();
    assert_eq!(replay.events, coop.events, "replay stream equals live");

    // A capped tracer stores the stream's prefix and counts the rest.
    let capped = traced(
        &cfg,
        TraversalPolicy::CoopRt,
        pt,
        Tracer::with_capacity(1000),
    );
    assert_eq!((capped.events.len(), capped.dropped), (1000, 9_041));
    assert_eq!(capped.events[..], coop.events[..1000], "capped prefix");
    assert_eq!(
        stream_hash(&capped),
        0x6182_3904_41cd_3076,
        "capped stream hash"
    );

    let expected: BTreeSet<String> = [
        "WarpIssue",
        "WarpRetire",
        "TraceBegin",
        "TraceEnd",
        "NodeFetch",
        "ResponsePop",
        "LbuMove",
        "CacheAccess",
        "Reorder",
        "Predict",
        "DramBusy",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(seen, expected, "every simulator EventKind is covered");
}

#[test]
fn golden_trace_reencodes_bitwise() {
    // Encoding is canonical: decode -> encode reproduces the exact
    // bytes, so traces can be archived and diffed.
    let trace = Trace::decode(GOLDEN_BYTES).expect("checked-in trace decodes");
    assert_eq!(trace.encode(), GOLDEN_BYTES, "re-encoded bytes differ");
}
