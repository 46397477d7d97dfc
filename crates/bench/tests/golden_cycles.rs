//! Golden cycle-count regression suite.
//!
//! Every render scene × policy cell, path-traced at resolution 96 and
//! detail 16 on the RTX 2060 config, is pinned here to the exact cycle
//! count the simulator reported when the numbers were recorded. The
//! `paper` bench runs the same cells at its own knobs (64 and 32 by
//! default), so `BENCH_paper.json`'s counts differ from these (wknd is
//! 14,715/8,803 there, 15,278/9,162 here). The simulator is
//! deterministic, and hot-path work is host-*representation* only
//! (flat caches, slotted MSHRs, the RT unit's `(ready, seq)` response
//! heap, which pops same-cycle responses in issue order — see
//! `DESIGN.md`), so any change that perturbs one of these counts is a
//! *behavioural* change: it must either be a bug or come with a deliberate
//! re-baseline. A deliberate re-baseline copies the `left` value of
//! each failing assert into its table here.
//!
//! The parameters are hard-coded — `COOPRT_RES` / `COOPRT_DETAIL` are
//! ignored — so the suite means the same thing in every environment.
//!
//! Every run here executes with the sim-time event tracer **enabled**
//! (capacity-limited so memory stays bounded) and the invariant checker
//! **enabled**: both are contractually observational, so the cycle
//! counts must stay bitwise identical to the untraced, unchecked golden
//! values. Any drift means an instrumentation point perturbed
//! simulation behaviour — and every run must also finish with zero
//! invariant violations.

//! Each scene additionally exercises trace-driven record/replay:
//! recording under the baseline policy must reproduce the golden
//! baseline count exactly (recording is observational), and replaying
//! the one trace must reproduce *both* policies' golden counts and the
//! recorded image bitwise (replay drives the identical timing model).
//!
//! The spatial-query matrix gets the same treatment: every query scene
//! × policy cell (gather-mode kNN / radius / containment batches, the
//! `paper` bench's `ext_queries` parameters) is pinned to its
//! exact cycle count, and every pinned run must also answer bitwise
//! identically to the brute-force oracle.

use cooprt_core::{
    Checker, GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, Simulation, Trace,
    TraversalPolicy,
};
use cooprt_scenes::SceneId;
use cooprt_telemetry::{EventKind, Tracer};

const RES: usize = 96;
const DETAIL: u32 = 16;

/// `(scene, baseline cycles, cooprt cycles)` of the render matrix at
/// `RES` x `RES`, detail `DETAIL`.
const GOLDEN: &[(SceneId, u64, u64)] = &[
    (SceneId::Wknd, 15278, 9162),
    (SceneId::Ship, 8123, 5413),
    (SceneId::Bunny, 12970, 6868),
    (SceneId::Spnza, 46191, 34770),
    (SceneId::Chsnt, 15777, 8506),
    (SceneId::Bath, 60219, 40011),
    (SceneId::Ref, 67467, 43952),
    (SceneId::Crnvl, 8248, 6129),
    (SceneId::Fox, 26755, 15057),
    (SceneId::Party, 9967, 6610),
    (SceneId::Sprng, 23918, 11915),
    (SceneId::Lands, 36245, 14010),
    (SceneId::Frst, 29018, 13886),
    (SceneId::Car, 68972, 26720),
    (SceneId::Robot, 62533, 26894),
];

/// Trace-buffer capacity per run: small enough that the 15 scene tests
/// can run concurrently, large enough that every run records events
/// (overflow is counted, and the emission path is identical either way).
const TRACE_CAPACITY: usize = 200_000;

fn check(id: SceneId, base_golden: u64, coop_golden: u64) {
    let scene = id.build(DETAIL);
    let cfg = GpuConfig::rtx2060();
    for (policy, golden) in [
        (TraversalPolicy::Baseline, base_golden),
        (TraversalPolicy::CoopRt, coop_golden),
    ] {
        let tracer = Tracer::with_capacity(TRACE_CAPACITY);
        let checker = Checker::enabled();
        let r = Simulation::new(&scene, &cfg, policy)
            .with_tracer(tracer.clone())
            .with_checker(checker.clone())
            .run_frame(ShaderKind::PathTrace, RES, RES)
            .unwrap();
        assert_eq!(
            r.cycles, golden,
            "{id} {policy:?}: simulated cycle count drifted from the \
             golden value — a hot-path change altered behaviour (the \
             tracer was enabled; telemetry must be purely observational)",
        );
        let log = tracer.take();
        assert!(
            !log.events.is_empty(),
            "{id} {policy:?}: the enabled tracer recorded no events"
        );
        assert!(
            checker.checks_run() > 0,
            "{id} {policy:?}: the enabled checker evaluated no invariants"
        );
        checker.assert_clean();
    }

    // Record once under baseline: the golden value was pinned without a
    // recorder, so equality proves recording perturbs nothing.
    let (recorded, trace) = Trace::record(
        &scene,
        DETAIL,
        &cfg,
        TraversalPolicy::Baseline,
        ShaderKind::PathTrace,
        RES,
        RES,
    )
    .unwrap();
    assert_eq!(
        recorded.cycles, base_golden,
        "{id}: enabling the recorder changed the baseline cycle count"
    );

    // The one trace replays the timing model under both policies: same
    // golden cycles, same image, no raygen or shading re-executed.
    for (policy, golden) in [
        (TraversalPolicy::Baseline, base_golden),
        (TraversalPolicy::CoopRt, coop_golden),
    ] {
        let r = trace.replay(&cfg, policy).unwrap();
        assert_eq!(
            r.cycles, golden,
            "{id} {policy:?}: replayed cycle count drifted from live simulation"
        );
        assert_eq!(
            r.image, recorded.image,
            "{id} {policy:?}: replayed image differs from the recorded frame"
        );
    }
}

/// Resolution of the reorder rows — lower than the main table because
/// each row simulates four frames (reference + reordered, both
/// policies).
const REORDER_RES: usize = 64;

/// `(scene, baseline cycles, cooprt cycles)` under Morton reordering
/// with warp compaction at `REORDER_RES` (detail 16, RTX 2060, path
/// tracing). Compaction matters: primary rays all share the camera
/// origin, so Morton only re-packs warps at the between-wave re-forms
/// where secondary-ray origins scatter.
const GOLDEN_REORDER: &[(SceneId, u64, u64)] = &[
    (SceneId::Wknd, 24842, 17892),
    (SceneId::Ship, 13353, 9343),
    (SceneId::Crnvl, 13161, 8804),
];

fn check_reorder(id: SceneId, base_golden: u64, coop_golden: u64) {
    let scene = id.build(DETAIL);
    let mut unordered = GpuConfig::rtx2060();
    unordered.compaction = true;
    let cfg = unordered.clone().with_reorder(ReorderPolicy::Morton);
    for (policy, golden) in [
        (TraversalPolicy::Baseline, base_golden),
        (TraversalPolicy::CoopRt, coop_golden),
    ] {
        let reference = Simulation::new(&scene, &unordered, policy)
            .run_frame(ShaderKind::PathTrace, REORDER_RES, REORDER_RES)
            .unwrap();
        let tracer = Tracer::with_capacity(TRACE_CAPACITY);
        let checker = Checker::enabled();
        let r = Simulation::new(&scene, &cfg, policy)
            .with_tracer(tracer.clone())
            .with_checker(checker.clone())
            .run_frame(ShaderKind::PathTrace, REORDER_RES, REORDER_RES)
            .unwrap();
        assert_eq!(
            r.cycles, golden,
            "{id} {policy:?} morton+compaction: reordered cycle count \
             drifted from the golden value (the tracer was enabled; the \
             reorder pass and its telemetry must not perturb timing)",
        );
        assert_eq!(
            r.image, reference.image,
            "{id} {policy:?}: reordering changed a pixel — it must be \
             timing-only"
        );
        assert!(
            r.reorder.passes > 0 && r.reorder.rays_moved > 0,
            "{id} {policy:?}: the golden reorder row must actually sort \
             (got {} passes, {} rays moved)",
            r.reorder.passes,
            r.reorder.rays_moved
        );
        let log = tracer.take();
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Reorder { .. })),
            "{id} {policy:?}: no Reorder event reached the tracer"
        );
        checker.assert_clean();
    }
}

/// Resolution of the ray-path prediction rows (each row simulates four
/// frames: reference + predicted, both policies).
const PREDICT_RES: usize = 64;

/// `(scene, baseline cycles, cooprt cycles)` with the ray-path
/// predictor enabled, shadow rays at `PREDICT_RES` (detail 16, RTX
/// 2060). Shadow is the coherent any-hit workload the predictor
/// targets; these three scenes are the ones the evaluation calls out
/// for measurable node-fetch savings.
const GOLDEN_PREDICT: &[(SceneId, u64, u64)] = &[
    (SceneId::Crnvl, 8009, 6091),
    (SceneId::Fox, 12238, 8815),
    (SceneId::Party, 8077, 6150),
];

fn check_predict(id: SceneId, base_golden: u64, coop_golden: u64) {
    let scene = id.build(DETAIL);
    let off = GpuConfig::rtx2060();
    let cfg = off.clone().with_predict(PredictPolicy::RayPath);
    for (policy, golden) in [
        (TraversalPolicy::Baseline, base_golden),
        (TraversalPolicy::CoopRt, coop_golden),
    ] {
        let reference = Simulation::new(&scene, &off, policy)
            .run_frame(ShaderKind::Shadow, PREDICT_RES, PREDICT_RES)
            .unwrap();
        let tracer = Tracer::with_capacity(TRACE_CAPACITY);
        let checker = Checker::enabled();
        let r = Simulation::new(&scene, &cfg, policy)
            .with_tracer(tracer.clone())
            .with_checker(checker.clone())
            .run_frame(ShaderKind::Shadow, PREDICT_RES, PREDICT_RES)
            .unwrap();
        assert_eq!(
            r.cycles, golden,
            "{id} {policy:?} ray-path: predicted cycle count drifted \
             from the golden value (the tracer was enabled; prediction \
             and its telemetry must be deterministic)",
        );
        assert_eq!(
            r.image, reference.image,
            "{id} {policy:?}: ray-path prediction changed a pixel — the \
             go-up-to-root fallback must keep occlusion exact"
        );
        assert!(
            r.predictor.path_lookups > 0 && r.predictor.node_fetches_saved > 0,
            "{id} {policy:?}: the golden predict row must actually \
             predict (got {} lookups, {} fetches saved)",
            r.predictor.path_lookups,
            r.predictor.node_fetches_saved
        );
        let log = tracer.take();
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Predict { .. })),
            "{id} {policy:?}: no Predict event reached the tracer"
        );
        checker.assert_clean();
    }
}

/// Batch size and sample salt of the query rows — the same values the
/// `paper` registry's `ext_queries` figure fixes, so these pins and its
/// `off` columns are the same measurement.
const QUERY_COUNT: usize = 2048;
const QUERY_SALT: u64 = 1;

/// `(scene, kind, baseline cycles, cooprt cycles)` for the spatial-
/// query matrix (detail 16, 2048 queries, salt 1, RTX 2060, reorder
/// off). Gather-mode probe batches stress the LBU very differently
/// from rendering — deep multi-leaf enumeration with no early-out —
/// and these pins freeze that behaviour alongside the render rows.
const GOLDEN_QUERY: &[(SceneId, ShaderKind, u64, u64)] = &[
    (SceneId::Quni, ShaderKind::Knn, 13765, 7618),
    (SceneId::Qclu, ShaderKind::Radius, 28495, 7482),
    (SceneId::Qsrf, ShaderKind::Knn, 9925, 5587),
    (SceneId::Qamr, ShaderKind::Contain, 12838, 7574),
];

fn check_query(id: SceneId, kind: ShaderKind, base_golden: u64, coop_golden: u64) {
    let scene = id.build(DETAIL);
    let cfg = GpuConfig::rtx2060();
    // The answers every run must reproduce bitwise: brute force over
    // the raw domain, no BVH, no simulator.
    let want = cooprt_query::oracle_answers(&scene, kind, QUERY_COUNT, QUERY_SALT);
    assert!(
        want.iter().any(|a| !a.is_empty()),
        "{id}: the golden query batch must find something"
    );
    for (policy, golden) in [
        (TraversalPolicy::Baseline, base_golden),
        (TraversalPolicy::CoopRt, coop_golden),
    ] {
        let tracer = Tracer::with_capacity(TRACE_CAPACITY);
        let checker = Checker::enabled();
        let r = Simulation::new(&scene, &cfg, policy)
            .with_sample_salt(QUERY_SALT)
            .with_tracer(tracer.clone())
            .with_checker(checker.clone())
            .run_frame(kind, QUERY_COUNT, 1)
            .unwrap();
        assert_eq!(
            r.cycles, golden,
            "{id} {policy:?} {kind:?}: query cycle count drifted from \
             the golden value (the tracer was enabled; gather traversal \
             and its telemetry must be deterministic)",
        );
        assert_eq!(
            r.query_results, want,
            "{id} {policy:?} {kind:?}: query answers diverged from the \
             brute-force oracle"
        );
        assert!(
            !tracer.take().events.is_empty(),
            "{id} {policy:?}: the enabled tracer recorded no events"
        );
        checker.assert_clean();
    }
}

macro_rules! golden_query_scene {
    ($test:ident, $id:ident) => {
        #[test]
        fn $test() {
            let &(id, kind, base, coop) = GOLDEN_QUERY
                .iter()
                .find(|(s, _, _, _)| *s == SceneId::$id)
                .expect("scene present in the golden query table");
            check_query(id, kind, base, coop);
        }
    };
}

golden_query_scene!(golden_query_quni, Quni);
golden_query_scene!(golden_query_qclu, Qclu);
golden_query_scene!(golden_query_qsrf, Qsrf);
golden_query_scene!(golden_query_qamr, Qamr);

macro_rules! golden_predict_scene {
    ($test:ident, $id:ident) => {
        #[test]
        fn $test() {
            let &(id, base, coop) = GOLDEN_PREDICT
                .iter()
                .find(|(s, _, _)| *s == SceneId::$id)
                .expect("scene present in the golden predict table");
            check_predict(id, base, coop);
        }
    };
}

golden_predict_scene!(golden_predict_crnvl, Crnvl);
golden_predict_scene!(golden_predict_fox, Fox);
golden_predict_scene!(golden_predict_party, Party);

macro_rules! golden_reorder_scene {
    ($test:ident, $id:ident) => {
        #[test]
        fn $test() {
            let &(id, base, coop) = GOLDEN_REORDER
                .iter()
                .find(|(s, _, _)| *s == SceneId::$id)
                .expect("scene present in the golden reorder table");
            check_reorder(id, base, coop);
        }
    };
}

golden_reorder_scene!(golden_reorder_wknd, Wknd);
golden_reorder_scene!(golden_reorder_ship, Ship);
golden_reorder_scene!(golden_reorder_crnvl, Crnvl);

macro_rules! golden_scene {
    ($test:ident, $id:ident) => {
        #[test]
        fn $test() {
            let &(id, base, coop) = GOLDEN
                .iter()
                .find(|(s, _, _)| *s == SceneId::$id)
                .expect("scene present in the golden table");
            check(id, base, coop);
        }
    };
}

golden_scene!(golden_cycles_wknd, Wknd);
golden_scene!(golden_cycles_ship, Ship);
golden_scene!(golden_cycles_bunny, Bunny);
golden_scene!(golden_cycles_spnza, Spnza);
golden_scene!(golden_cycles_chsnt, Chsnt);
golden_scene!(golden_cycles_bath, Bath);
golden_scene!(golden_cycles_ref, Ref);
golden_scene!(golden_cycles_crnvl, Crnvl);
golden_scene!(golden_cycles_fox, Fox);
golden_scene!(golden_cycles_party, Party);
golden_scene!(golden_cycles_sprng, Sprng);
golden_scene!(golden_cycles_lands, Lands);
golden_scene!(golden_cycles_frst, Frst);
golden_scene!(golden_cycles_car, Car);
golden_scene!(golden_cycles_robot, Robot);
