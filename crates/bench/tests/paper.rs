//! The `paper` figure registry at a tiny scale: every figure runs
//! through the one shared cell matrix, reports finite numbers, and
//! renders the same bytes on any worker count. Running it also runs
//! the registry's checks: every cell renders the image of its
//! Baseline, reorder-off, predict-off twin, and every query cell
//! answers as the brute-force oracle does. The checked-in
//! `BENCH_paper.json` must list the registry's figures in order.

use cooprt_bench::paper::{run, Knobs, Run, FIGURES};
use cooprt_scenes::SceneId;
use cooprt_telemetry::{parse_json, JsonValue};

fn tiny(threads: usize, filter: &[&str]) -> Run {
    let knobs = Knobs {
        res: 8,
        sweep_res: 8,
        detail: 2,
        scenes: vec![SceneId::Wknd, SceneId::Fox],
        threads,
    };
    let filter: Vec<String> = filter.iter().map(|f| f.to_string()).collect();
    run(&knobs, &filter)
}

#[test]
fn every_figure_reports_through_one_shared_matrix() {
    let one = tiny(1, &[]);
    assert_eq!(one.tables.len(), FIGURES.len());
    for (figure, tables) in &one.tables {
        let name = figure.name;
        assert!(!tables.is_empty(), "{name}: no tables");
        for t in tables {
            assert!(!t.rows.is_empty(), "{name}: no rows");
            for (label, values) in t.rows.iter().chain(&t.summary) {
                assert!(
                    values.iter().all(|v| v.is_finite()),
                    "{name} {label}: {values:?}"
                );
            }
        }
    }

    let doc = parse_json(&one.json).expect("BENCH_paper.json parses");
    assert_eq!(doc.get("resolution").and_then(JsonValue::as_f64), Some(8.0));
    assert_eq!(doc.get("detail").and_then(JsonValue::as_f64), Some(2.0));
    let Some(JsonValue::Array(tables)) = doc.get("tables") else {
        panic!("no tables array");
    };
    for figure in &FIGURES {
        assert!(
            tables
                .iter()
                .any(|t| t.get("figure").and_then(JsonValue::as_str) == Some(figure.name)),
            "JSON misses {}",
            figure.name
        );
    }

    // Each distinct cell ran exactly once, and sharing saved runs.
    assert_eq!(one.simulated, one.cells.len());
    for (i, cell) in one.cells.iter().enumerate() {
        assert!(!one.cells[..i].contains(cell), "cell {i} repeats");
    }
    assert!(one.simulated < one.requested, "{}", one.requested);
    assert!(one.twins > 0);

    // Query cells carry their own detail, batch and salt, so at any
    // knobs the `off` columns of `ext_queries` are the golden query
    // pins (Baseline table, then CoopRT).
    let (_, queries) = one
        .tables
        .iter()
        .find(|(f, _)| f.name == "ext_queries")
        .unwrap();
    let off: Vec<Vec<f64>> = queries
        .iter()
        .map(|t| t.rows.iter().map(|(_, v)| v[1]).collect())
        .collect();
    let golden = [
        [13765.0, 28495.0, 9925.0, 12838.0],
        [7618.0, 7482.0, 5587.0, 7574.0],
    ];
    assert_eq!(off, golden.map(Vec::from));

    let two = tiny(2, &[]);
    assert_eq!(one.text, two.text, "stdout depends on the worker count");
    assert_eq!(one.json, two.json, "JSON depends on the worker count");
}

#[test]
fn a_filter_selects_figures_by_name_prefix() {
    let run = tiny(2, &["fig09", "table"]);
    let names: Vec<&str> = run.tables.iter().map(|(f, _)| f.name).collect();
    assert_eq!(
        names,
        [
            "table2_scene_stats",
            "fig09_speedup_power_energy",
            "table3_area"
        ]
    );
    // Fig. 9 alone asks for one Baseline/CoopRT twin per scene.
    assert_eq!((run.requested, run.simulated, run.twins), (4, 4, 2));
}

#[test]
fn axis_studies_pair_every_cell_with_its_plain_baseline_twin() {
    // Two scenes, each under both policies with the axis off and on:
    // every cell but the plain Baseline one has a twin.
    let run = tiny(2, &["ext_reorder", "ext_raypath"]);
    assert_eq!((run.requested, run.simulated, run.twins), (16, 16, 12));
}

#[test]
fn the_checked_in_report_lists_every_figure_in_registry_order() {
    // Only an unfiltered run rewrites BENCH_paper.json: a figure added
    // to or removed from `FIGURES` without that run fails here.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = parse_json(&text).expect("BENCH_paper.json parses");
    let Some(JsonValue::Array(tables)) = doc.get("tables") else {
        panic!("no tables array");
    };
    let mut names: Vec<&str> = tables
        .iter()
        .map(|t| t.get("figure").and_then(JsonValue::as_str).unwrap())
        .collect();
    names.dedup();
    let registry: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names, registry);
}
