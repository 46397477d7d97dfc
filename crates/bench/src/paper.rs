//! The paper's evaluation: one registry of figures over a shared cell
//! matrix.
//!
//! Every table and figure of CoopRT's evaluation (Figs. 1–19, Tables
//! 2–3), the design ablations, the §8 extension studies and the
//! reordering, ray-path prediction and spatial-query studies is a
//! [`Figure`] in [`FIGURES`]. A figure asks the runner's plan for the
//! simulations it needs — one [`Cell`] each: scene, BVH builder,
//! [`GpuConfig`], policy, shader, frame (scene detail, shape, sample
//! salt) and optional timeline warp — and returns a closure that turns
//! the finished matrix of frames into [`Table`]s: per-scene rows,
//! summary rows and notes.
//!
//! [`run`] plans the selected figures, builds each scene once,
//! simulates each distinct cell once over [`Knobs::threads`] workers,
//! asserts that every cell renders the image of its Baseline,
//! reorder-off, predict-off twin, and renders the tables as text and
//! as the `BENCH_paper.json` document. The worker count changes
//! wall-clock time only, never an output byte.

use crate::{default_detail, default_res, gmean, parallel, scene_list, sweep_res};
use cooprt_core::area::{
    added_field_bits, cooprt_area, overhead_fraction, warp_buffer_bits, FLIP_FLOP_AREA_UM2,
};
use cooprt_core::{
    FrameResult, GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, Simulation, TimelineSample,
    TraversalPolicy, WARP_SIZE,
};
use cooprt_query::oracle_answers;
use cooprt_scenes::{Scene, SceneId, PAPER_FIG17_SCENES, QUERY_SCENES};
use cooprt_telemetry::JsonWriter;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use ShaderKind::{AmbientOcclusion as AO, PathTrace as PT};
use TraversalPolicy::{Baseline, CoopRt};

/// The harness parameters of one run.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// Frame resolution (`COOPRT_RES`, default 64).
    pub res: usize,
    /// Resolution of the warp-buffer sweeps, Figs. 13–15 (`COOPRT_RES`,
    /// default 128).
    pub sweep_res: usize,
    /// Scene detail level (`COOPRT_DETAIL`, default 32).
    pub detail: u32,
    /// Scenes of the per-scene figures (`COOPRT_SCENES`, default all
    /// 15). Figs. 2, 11 and 17 and the ablations keep their own lists.
    pub scenes: Vec<SceneId>,
    /// Simulation workers (`COOPRT_THREADS`).
    pub threads: usize,
}

impl Knobs {
    /// The knobs the environment sets.
    ///
    /// # Errors
    ///
    /// Names the knob and its value: a `COOPRT_RES` or `COOPRT_DETAIL`
    /// that is not a positive integer ([`parse_size`](crate::parse_size)),
    /// or an invalid `COOPRT_SCENES` list ([`scene_list`]).
    pub fn from_env() -> Result<Knobs, String> {
        Ok(Knobs {
            res: default_res()?,
            sweep_res: sweep_res()?,
            detail: default_detail()?,
            scenes: scene_list()?,
            threads: parallel::threads(),
        })
    }

    /// A `res` x `res` frame of scenes at the knobs' detail.
    fn frame(&self, res: usize) -> Frame {
        Frame {
            detail: self.detail,
            width: res,
            height: res,
            salt: 0,
        }
    }
}

/// How a cell's scene BVH is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Builder {
    /// The SAH builder every scene uses by default.
    Sah,
    /// Object-median splits (the BVH-quality ablation).
    Median,
}

/// What a cell simulates of its scene.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Frame {
    /// Detail level the scene is built at.
    detail: u32,
    /// Frame width (threads per row; the query count of a query batch).
    width: usize,
    /// Frame height.
    height: usize,
    /// Sample salt (query points are drawn from it).
    salt: u64,
}

/// One simulation of the matrix. Requests for equal cells share a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Scene.
    scene: SceneId,
    /// BVH builder of the scene.
    builder: Builder,
    /// GPU configuration.
    cfg: GpuConfig,
    /// Traversal policy.
    policy: TraversalPolicy,
    /// Shader.
    kind: ShaderKind,
    /// Scene detail, frame shape and salt.
    frame: Frame,
    /// Warp whose lane timeline is recorded (Fig. 11).
    timeline_warp: Option<usize>,
}

/// A per-scene variant: configuration, policy and shader.
type Variant = (GpuConfig, TraversalPolicy, ShaderKind);

impl Cell {
    /// `scene` under `variant` for `frame`, on the SAH BVH and without
    /// a timeline warp.
    fn new(scene: SceneId, (cfg, policy, kind): Variant, frame: Frame) -> Cell {
        Cell {
            scene,
            builder: Builder::Sah,
            cfg,
            policy,
            kind,
            frame,
            timeline_warp: None,
        }
    }
}

/// A built scene: id, BVH builder and detail.
type SceneKey = (SceneId, Builder, u32);

/// Index of `item` in `items`, appending it if absent.
fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// The request side of the shared runner: figures ask it for scenes
/// and cells, and get back indices into the finished [`Matrix`].
#[derive(Default)]
struct Plan {
    scenes: Vec<SceneKey>,
    cells: Vec<Cell>,
    requested: usize,
}

impl Plan {
    /// Requests a built scene, readable with [`Matrix::scene`].
    fn scene(&mut self, id: SceneId, builder: Builder, detail: u32) {
        if builder == Builder::Median {
            // A median tree is rebuilt from the SAH scene's triangles.
            self.scene(id, Builder::Sah, detail);
        }
        intern(&mut self.scenes, (id, builder, detail));
    }

    /// Requests a cell; returns its index into the [`Matrix`].
    fn cell(&mut self, cell: Cell) -> usize {
        self.requested += 1;
        self.scene(cell.scene, cell.builder, cell.frame.detail);
        intern(&mut self.cells, cell)
    }

    /// Requests every variant of every scene for `frame`.
    fn per_scene(&mut self, scenes: &[SceneId], frame: Frame, variants: &[Variant]) -> PerScene {
        let mut cells = Vec::new();
        for &id in scenes {
            let ids = variants
                .iter()
                .map(|v| self.cell(Cell::new(id, v.clone(), frame)));
            cells.push((id, ids.collect()));
        }
        PerScene(cells)
    }
}

/// Cells requested with [`Plan::per_scene`], per scene in variant order.
struct PerScene(Vec<(SceneId, Vec<usize>)>);

/// Maps one scene's frames, in variant order, to a table row.
type RowFn = fn(&[&FrameResult]) -> Vec<f64>;

impl PerScene {
    /// A table of one `row` per scene.
    fn table(&self, m: &Matrix, columns: &[&'static str], row: RowFn) -> Table {
        let mut t = Table::new(columns);
        for (id, cells) in &self.0 {
            let frames: Vec<&FrameResult> = cells.iter().map(|&c| &m[c]).collect();
            t.row(id.name(), row(&frames));
        }
        t
    }

    /// A one-table figure: [`PerScene::table`], a `gmean` row over the
    /// first `gmeans` columns (none for 0), then `notes`.
    fn finish(
        self,
        columns: &'static [&'static str],
        row: RowFn,
        gmeans: usize,
        notes: fn(&Table) -> Vec<String>,
    ) -> Finish {
        Box::new(move |m| {
            let mut t = self.table(m, columns, row);
            if gmeans > 0 {
                t.gmean_row(gmeans);
            }
            t.notes = notes(&t);
            vec![t]
        })
    }
}

/// The finished matrix: built scenes and one frame per distinct cell.
struct Matrix {
    scenes: Vec<(SceneKey, Scene)>,
    frames: Vec<FrameResult>,
}

impl Matrix {
    /// A scene requested with [`Plan::scene`] (or through a cell).
    fn scene(&self, id: SceneId, builder: Builder, detail: u32) -> &Scene {
        let key = (id, builder, detail);
        let found = self.scenes.iter().find(|(k, _)| *k == key);
        &found.expect("scene was requested").1
    }
}

impl std::ops::Index<usize> for Matrix {
    type Output = FrameResult;

    fn index(&self, cell: usize) -> &FrameResult {
        &self.frames[cell]
    }
}

/// Turns the finished matrix into a figure's tables.
type Finish = Box<dyn FnOnce(&Matrix) -> Vec<Table>>;

/// One entry of the registry.
pub struct Figure {
    /// Filter name (the figure's former bench target name).
    pub name: &'static str,
    /// Printed title.
    pub title: &'static str,
    plan: fn(&Knobs, &mut Plan) -> Finish,
}

/// A value column: header and print format.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// Header and JSON key.
    pub name: &'static str,
    /// Printed width, without the suffix.
    pub width: usize,
    /// Printed digits after the point.
    pub decimals: usize,
    /// Printed after the value (`%`).
    pub suffix: &'static str,
}

fn col(name: &'static str, width: usize, decimals: usize) -> Column {
    Column {
        name,
        width,
        decimals,
        suffix: "",
    }
}

/// One labelled row of values, in column order (a summary row may
/// cover only the leading columns).
pub type Row = (String, Vec<f64>);

/// What a figure reports.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Sub-table caption (figures with several tables).
    pub caption: String,
    /// Header of the label column.
    pub label: &'static str,
    /// Value columns.
    pub columns: Vec<Column>,
    /// Per-scene (or per-configuration) rows.
    pub rows: Vec<Row>,
    /// Summary rows, printed under a rule.
    pub summary: Vec<Row>,
    /// Plot lines printed above the header (Fig. 2's busy-fraction
    /// bars, Fig. 11's lane timeline); not written to JSON.
    pub lines: Vec<String>,
    /// Summary lines printed after the table.
    pub notes: Vec<String>,
}

impl Table {
    /// A per-scene table of 3-decimal columns.
    fn new(columns: &[&'static str]) -> Table {
        Table::with("scene", columns.iter().map(|&n| col(n, 9, 3)).collect())
    }

    fn with(label: &'static str, columns: Vec<Column>) -> Table {
        Table {
            label,
            columns,
            ..Table::default()
        }
    }

    fn row(&mut self, label: &str, values: Vec<f64>) {
        self.rows.push((label.to_string(), values));
    }

    /// Column `i` of the rows.
    fn column(&self, i: usize) -> Vec<f64> {
        self.rows.iter().map(|(_, v)| v[i]).collect()
    }

    /// Appends the `gmean` summary row over the first `n` columns.
    fn gmean_row(&mut self, n: usize) {
        let g: Vec<f64> = (0..n).map(|i| gmean(&self.column(i))).collect();
        self.summary.push(("gmean".to_string(), g));
    }

    fn render(&self, out: &mut String) {
        if !self.caption.is_empty() {
            let _ = write!(out, "\n--- {} ---\n", self.caption);
        }
        self.lines.iter().for_each(|l| push_line(out, l));
        let mut header = format!("{:<8}", self.label);
        for c in &self.columns {
            let _ = write!(header, " {:>w$}", c.name, w = c.width + c.suffix.len());
        }
        let rule = "-".repeat(header.len());
        let _ = write!(out, "{header}\n{rule}\n");
        let row = |out: &mut String, (label, values): &Row| {
            let _ = write!(out, "{label:<8}");
            for (c, v) in self.columns.iter().zip(values) {
                let _ = write!(out, " {v:>w$.d$}{}", c.suffix, w = c.width, d = c.decimals);
            }
            out.push('\n');
        };
        self.rows.iter().for_each(|r| row(out, r));
        if !self.summary.is_empty() {
            push_line(out, &rule);
            self.summary.iter().for_each(|r| row(out, r));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            self.notes.iter().for_each(|n| push_line(out, n));
        }
    }

    fn write_json(&self, w: &mut JsonWriter, figure: &Figure) {
        w.begin_object();
        w.field_str("figure", figure.name);
        w.field_str("title", figure.title);
        w.field_str("caption", &self.caption);
        w.begin_inline_array("columns");
        self.columns.iter().for_each(|c| w.item_str(c.name));
        w.end_array();
        for (key, rows) in [("rows", &self.rows), ("summary", &self.summary)] {
            w.begin_array(key);
            for (label, values) in rows {
                w.begin_inline_object();
                w.field_str("label", label);
                for (c, v) in self.columns.iter().zip(values) {
                    w.field_f64(c.name, *v, 6);
                }
                w.end_object();
            }
            w.end_array();
        }
        w.begin_array("notes");
        self.notes.iter().for_each(|n| w.item_str(n));
        w.end_array();
        w.end_object();
    }
}

fn push_line(out: &mut String, line: &str) {
    out.push_str(line);
    out.push('\n');
}

/// The lines of a note text.
fn lines(text: &str) -> Vec<String> {
    text.lines().map(String::from).collect()
}

/// `a`'s cycles over `b`'s: `b`'s speedup when `a` is the reference.
fn speedup(a: &FrameResult, b: &FrameResult) -> f64 {
    a.cycles.max(1) as f64 / b.cycles.max(1) as f64
}

/// Speedups of every later frame over the first.
fn speedups(f: &[&FrameResult]) -> Vec<f64> {
    f[1..].iter().map(|x| speedup(f[0], x)).collect()
}

/// Power of `b` normalized to `a`.
fn power(a: &FrameResult, b: &FrameResult) -> f64 {
    b.energy.avg_power_w() / a.energy.avg_power_w().max(1e-12)
}

/// Energy of `b` normalized to `a`.
fn energy(a: &FrameResult, b: &FrameResult) -> f64 {
    b.energy.total_j() / a.energy.total_j().max(1e-300)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn rtx() -> GpuConfig {
    GpuConfig::rtx2060()
}

/// The RTX 2060 config with one change.
fn rtx_with(change: impl Fn(&mut GpuConfig)) -> GpuConfig {
    let mut cfg = rtx();
    change(&mut cfg);
    cfg
}

/// The Baseline and CoopRT variants of one config.
fn twin(cfg: &GpuConfig, kind: ShaderKind) -> Vec<Variant> {
    vec![(cfg.clone(), Baseline, kind), (cfg.clone(), CoopRt, kind)]
}

/// Plain Baseline, plain CoopRT, then both policies on `changed`.
fn study(changed: GpuConfig, kind: ShaderKind) -> Vec<Variant> {
    [twin(&rtx(), kind), twin(&changed, kind)].concat()
}

/// The path-traced Baseline reference, then one variant per
/// `(config, policy)`.
fn over_baseline(cells: impl IntoIterator<Item = (GpuConfig, TraversalPolicy)>) -> Vec<Variant> {
    let variants = cells.into_iter().map(|(cfg, policy)| (cfg, policy, PT));
    let reference = (rtx(), Baseline, PT);
    std::iter::once(reference).chain(variants).collect()
}

/// The reference plus the warp-buffer sizes of Figs. 13 and 15.
fn warp_buffers(baseline: &[usize], coop: &[usize]) -> Vec<Variant> {
    let sizes = baseline.iter().map(|&n| (n, Baseline));
    let sizes = sizes.chain(coop.iter().map(|&n| (n, CoopRt)));
    over_baseline(sizes.map(|(n, policy)| (rtx().with_warp_buffer(n), policy)))
}

fn table2(k: &Knobs, p: &mut Plan) -> Finish {
    let (scenes, detail) = (k.scenes.clone(), k.detail);
    scenes
        .iter()
        .for_each(|&id| p.scene(id, Builder::Sah, detail));
    Box::new(move |m| {
        let columns = vec![
            col("triangles", 10, 0),
            col("tree(MiB)", 12, 3),
            col("depth", 7, 0),
            col("internal", 10, 0),
            col("leaves", 10, 0),
            col("lights", 8, 0),
        ];
        let mut t = Table::with("scene", columns);
        for id in scenes {
            let s = m.scene(id, Builder::Sah, detail);
            let st = &s.stats;
            let n = [
                s.triangle_count(),
                st.depth,
                st.internal_nodes,
                st.leaf_nodes,
                s.lights.len(),
            ];
            let [tris, depth, internal, leaves, lights] = n.map(|n| n as f64);
            let row = vec![tris, st.size_mib, depth, internal, leaves, lights];
            t.row(&s.name, row);
        }
        t.notes = lines("paper: 0.2 MB (wknd) ... 1,721 MB (robot), depths 7-18; ordering preserved here at reduced scale");
        vec![t]
    })
}

fn fig01(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &[(rtx(), Baseline, PT)]);
    let row: RowFn = |f| f[0].stalls.fractions().to_vec();
    cells.finish(&["RT", "MEM", "ALU", "SFU"], row, 0, |t| {
        let rt = mean(&t.column(0));
        vec![format!(
            "mean RT stall fraction: {rt:.3} (paper: RT dominates every scene)"
        )]
    })
}

fn fig02(k: &Knobs, p: &mut Plan) -> Finish {
    let scenes = [SceneId::Spnza, SceneId::Bath];
    let cells = p.per_scene(&scenes, k.frame(k.res), &[(rtx(), Baseline, PT)]);
    Box::new(move |m| {
        let columns = vec![
            col("samples", 9, 0),
            col("cycles", 9, 0),
            col("start", 9, 3),
        ];
        let mut t = Table::with("scene", columns);
        for (id, c) in &cells.0 {
            let (r, lines) = (&m[c[0]], &mut t.lines);
            let samples = &r.intervals.samples;
            lines.push(String::new());
            lines.push(format!(
                "{id}: {} samples over {} cycles",
                samples.len(),
                r.cycles
            ));
            lines.push(format!("{:>10} {:>10} {:>8}", "cycle", "busy%", "bar"));
            // Downsample to at most 40 printed rows.
            for s in samples.iter().step_by((samples.len() / 40).max(1)) {
                let frac = s.busy_fraction();
                let bar = "#".repeat((frac * 40.0).round() as usize);
                lines.push(format!("{:>10} {:>9.1}% {bar}", s.cycle, frac * 100.0));
            }
            let first = samples.first().map_or(0.0, |s| s.busy_fraction());
            lines.push(format!(
                "start-of-frame busy fraction: {first:.2} (paper: ~1.0, then a steep drop)"
            ));
            t.row(
                id.name(),
                vec![samples.len() as f64, r.cycles as f64, first],
            );
        }
        vec![t]
    })
}

fn fig04(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &[(rtx(), Baseline, PT)]);
    let row: RowFn = |f| f[0].intervals.status_distribution().to_vec();
    cells.finish(&["busy", "waiting", "inactive"], row, 0, |t| {
        let wasted: Vec<f64> = t.rows.iter().map(|(_, d)| d[1] + d[2]).collect();
        let wasted = mean(&wasted);
        vec![format!("mean wasted (waiting + inactive) fraction: {wasted:.3} (paper: most threads idle or wait)")]
    })
}

fn fig09(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &twin(&rtx(), PT));
    let row: RowFn = |f| vec![speedup(f[0], f[1]), power(f[0], f[1]), energy(f[0], f[1])];
    cells.finish(&["speedup", "power", "energy"], row, 3, |t| {
        let (top, g) = (max(&t.column(0)), gmean(&t.column(0)));
        lines(&format!(
            "max speedup: {top:.2}x (paper: 5.11x) | gmean: {g:.2}x (paper: 2.15x)\n\
             paper power gmean: 2.02x | paper energy: 0.94x"
        ))
    })
}

fn fig10(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &twin(&rtx(), PT));
    let row: RowFn = |f| {
        let [b, c] = [f[0], f[1]].map(|r| r.intervals.avg_utilization());
        vec![b, c, c - b, speedup(f[0], f[1])]
    };
    cells.finish(&["baseline", "cooprt", "delta", "speedup"], row, 0, |t| {
        // Correlation between utilization delta and speedup.
        let (d, s) = (t.column(2), t.column(3));
        let n = d.len() as f64;
        if n < 2.0 {
            return Vec::new();
        }
        let (mean_d, mean_s) = (d.iter().sum::<f64>() / n, s.iter().sum::<f64>() / n);
        let pairs = d.iter().zip(&s);
        let cov = pairs.map(|(d, s)| (d - mean_d) * (s - mean_s)).sum::<f64>() / n;
        let sd = (d.iter().map(|d| (d - mean_d).powi(2)).sum::<f64>() / n).sqrt();
        let ss = (s.iter().map(|s| (s - mean_s).powi(2)).sum::<f64>() / n).sqrt();
        let corr = cov / (sd * ss).max(1e-12);
        vec![format!("corr(utilization delta, speedup) = {corr:.2} (paper: speedups are proportional to the utilization improvement)")]
    })
}

/// Appends one warp's lane timeline to `lines`; returns its average
/// utilization while resident.
fn timeline(lines: &mut Vec<String>, label: &str, samples: &[TimelineSample]) -> f64 {
    lines.push(String::new());
    lines.push(format!("--- {label}: {} samples ---", samples.len()));
    if samples.is_empty() {
        lines.push("(warp never traced)".into());
        return 0.0;
    }
    for t in 0..WARP_SIZE {
        let busy = |chunk: &[TimelineSample]| chunk.iter().any(|s| s.mask & (1 << t) != 0);
        let chunks = samples.chunks(samples.len().div_ceil(72));
        let lane: String = chunks.map(|c| if busy(c) { '#' } else { '.' }).collect();
        lines.push(format!("t{t:02} {lane}"));
    }
    let busy: usize = samples.iter().map(|s| s.mask.count_ones() as usize).sum();
    let util = busy as f64 / (samples.len() * WARP_SIZE).max(1) as f64;
    lines.push(format!(
        "average utilization while resident: {:.1}%",
        util * 100.0
    ));
    util
}

fn fig11(k: &Knobs, p: &mut Plan) -> Finish {
    // A mid-image warp (bath is closed, so the mix of busy and idle
    // lanes comes from bounces).
    let timeline_warp = Some((k.res * k.res / WARP_SIZE) / 2);
    let [b, c] = [Baseline, CoopRt].map(|policy| {
        let cell = Cell::new(SceneId::Bath, (rtx(), policy, PT), k.frame(k.res));
        p.cell(Cell {
            timeline_warp,
            ..cell
        })
    });
    Box::new(move |m| {
        let mut t = Table::with("policy", vec![col("samples", 9, 0), col("util%", 9, 1)]);
        let ub = timeline(&mut t.lines, "baseline", &m[b].timeline) * 100.0;
        let uc = timeline(&mut t.lines, "CoopRT", &m[c].timeline) * 100.0;
        t.row("baseline", vec![m[b].timeline.len() as f64, ub]);
        t.row("CoopRT", vec![m[c].timeline.len() as f64, uc]);
        t.notes = vec![format!(
            "utilization: baseline {ub:.1}% -> CoopRT {uc:.1}% (paper: 30.5% -> 94.6%)"
        )];
        vec![t]
    })
}

fn fig12(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &twin(&rtx(), PT));
    let row: RowFn = |f| {
        let l2 = |r: &FrameResult| r.mem.l2_bandwidth(r.cycles);
        let dram = |r: &FrameResult| r.mem.dram_bandwidth(r.cycles);
        vec![
            l2(f[1]) / l2(f[0]).max(1e-12),
            dram(f[1]) / dram(f[0]).max(1e-12),
        ]
    };
    cells.finish(&["L2", "DRAM"], row, 2, |t| {
        let (l2, dram) = (max(&t.column(0)), max(&t.column(1)));
        vec![format!(
            "max: L2 {l2:.2}x, DRAM {dram:.2}x (paper: up to 5.7x and 5.5x)"
        )]
    })
}

fn fig13(k: &Knobs, p: &mut Plan) -> Finish {
    let variants = warp_buffers(&[8, 16, 32], &[4, 8, 16, 32]);
    let cells = p.per_scene(&k.scenes, k.frame(k.sweep_res), &variants);
    let columns = &["8w/o", "16w/o", "32w/o", "4w/", "8w/", "16w/", "32w/"];
    cells.finish(columns, speedups, 7, |t| {
        let g = &t.summary[0].1;
        lines(&format!(
            "paper gmeans: 1.45/1.64/1.64 (8/16/32 w/o coop), 2.15/2.13/2.06/1.99 (4/8/16/32 w/ coop)\n\
             shape check: coop@4 ({:.2}x) should beat baseline@32 ({:.2}x)",
            g[3], g[2]
        ))
    })
}

fn fig14(k: &Knobs, p: &mut Plan) -> Finish {
    let variants = over_baseline([(rtx(), CoopRt), (rtx().with_warp_buffer(32), Baseline)]);
    let cells = p.per_scene(&k.scenes, k.frame(k.sweep_res), &variants);
    let row: RowFn = |f| {
        let denom = f[0].slowest_warp_cycles.max(1) as f64;
        f[1..]
            .iter()
            .map(|r| r.slowest_warp_cycles as f64 / denom)
            .collect()
    };
    cells.finish(&["4w/coop", "32w/o"], row, 2, |_| {
        lines("paper: CoopRT 0.46x vs large-warp-buffer 0.62x — CoopRT should be lower")
    })
}

fn fig15(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(
        &k.scenes,
        k.frame(k.sweep_res),
        &warp_buffers(&[8, 16, 32], &[4]),
    );
    let row: RowFn = |f| {
        let edp = |r: &FrameResult| r.energy.edp();
        f[1..]
            .iter()
            .map(|r| edp(f[0]) / edp(r).max(1e-300))
            .collect()
    };
    cells.finish(&["8w/o", "16w/o", "32w/o", "4w/"], row, 4, |t| {
        lines(&format!(
            "paper gmeans: 1.54 / 1.75 / 1.75 (8/16/32 w/o coop) vs 2.29 (4 w/ coop)\n\
             shape check: coop@4 EDP gain ({:.2}x) should beat every big-buffer baseline",
            t.summary[0].1[3]
        ))
    })
}

fn fig16(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &twin(&rtx(), PT));
    let row: RowFn = |f| {
        let (b, c) = (&f[0].mem, &f[1].mem);
        [&b.l1, &c.l1, &b.l2, &c.l2]
            .map(|cache| cache.miss_rate())
            .to_vec()
    };
    cells.finish(&["L1 base", "L1 coop", "L2 base", "L2 coop"], row, 0, |t| {
        let (n, l1_up) = (
            t.rows.len(),
            t.rows.iter().filter(|(_, v)| v[1] >= v[0]).count(),
        );
        let l2_dev: Vec<f64> = t.rows.iter().map(|(_, v)| (v[3] - v[2]).abs()).collect();
        let l2_dev = mean(&l2_dev);
        vec![format!(
            "L1 miss rate increased on {l1_up}/{n} scenes (paper: contention raises L1 misses); \
             mean |L2 delta| = {l2_dev:.3} (paper: L2 miss rates stay similar)"
        )]
    })
}

fn fig17(k: &Knobs, p: &mut Plan) -> Finish {
    let variants = [twin(&rtx(), AO), twin(&rtx(), ShaderKind::Shadow)].concat();
    let cells = p.per_scene(&PAPER_FIG17_SCENES, k.frame(k.res), &variants);
    let row: RowFn = |f| vec![speedup(f[0], f[1]), speedup(f[2], f[3])];
    cells.finish(&["AO", "SH"], row, 2, |_| {
        lines("paper gmeans: AO 1.42x, SH 1.28x — both well below path tracing")
    })
}

fn fig18(k: &Knobs, p: &mut Plan) -> Finish {
    // The paper's Fig. 18 drops car and robot on mobile.
    let scenes = k.scenes.iter().copied();
    let scenes: Vec<SceneId> = scenes
        .filter(|s| !matches!(s, SceneId::Car | SceneId::Robot))
        .collect();
    let cells = p.per_scene(&scenes, k.frame(k.res), &twin(&GpuConfig::mobile(), PT));
    Box::new(move |m| {
        let columns = ["speedup", "power", "energy", "dram b", "dram c"];
        let mut t = cells.table(m, &columns, |f| {
            let (b, c) = (f[0], f[1]);
            vec![
                speedup(b, c),
                power(b, c),
                energy(b, c),
                b.dram_utilization,
                c.dram_utilization,
            ]
        });
        let [sp, pw, en, ub, uc] = [0, 1, 2, 3, 4].map(|i| t.column(i));
        let summary = vec![gmean(&sp), gmean(&pw), gmean(&en), mean(&ub), mean(&uc)];
        t.summary.push(("gmean".into(), summary));
        t.notes = lines(
            "paper: 1.8x speedup, 1.71x power, 0.95x energy; DRAM utilization 44.0% -> 85.3%",
        );
        vec![t]
    })
}

fn fig19(k: &Knobs, p: &mut Plan) -> Finish {
    let variants = over_baseline([4, 8, 16, 32].map(|sw| (rtx().with_subwarp(sw), CoopRt)));
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &variants);
    cells.finish(&["sw4", "sw8", "sw16", "sw32"], speedups, 4, |_| {
        lines("paper gmeans: 1.72 / 1.97 / 2.09 / 2.15 — monotone in subwarp size")
    })
}

fn table3(_: &Knobs, _: &mut Plan) -> Finish {
    Box::new(|_| {
        let pct = Column {
            suffix: "%",
            ..col("pct vs 32", 9, 1)
        };
        let columns = vec![
            col("cells", 10, 0),
            col("area(um2)", 12, 0),
            pct,
            col("FF equiv", 9, 0),
        ];
        let mut t = Table::with("subwarp", columns);
        let full = cooprt_area(32).area_um2();
        for sw in [32usize, 16, 8, 4] {
            let (a, area) = (cooprt_area(sw), cooprt_area(sw).area_um2());
            let row = vec![
                a.cells() as f64,
                area,
                (full - area) / full * 100.0,
                a.flip_flop_equivalents(),
            ];
            t.row(&sw.to_string(), row);
        }
        let ff = cooprt_area(32).flip_flop_equivalents();
        let overhead = overhead_fraction(32, 4) * 100.0;
        let (buffer, added, entry) = (
            warp_buffer_bits(4),
            added_field_bits(4),
            warp_buffer_bits(1),
        );
        t.notes = lines(&format!(
            "paper Table 3: 16122/15867/15511/15167 cells; 13347/13104/12661/12055 um2 (0/1.8/5.1/9.7%)\n\
             \n\
             --- §7.5 warp-buffer overhead (4-entry warp buffer) ---\n\
             warp buffer storage:   {buffer} bits\n\
             added fields (CoopRT): {added} bits\n\
             combinational logic:   {ff:.0} flip-flop equivalents ({FLIP_FLOP_AREA_UM2} um2 per FF)\n\
             total overhead:        {overhead:.2}% of the warp buffer (paper: < 3.0%)\n\
             for comparison, ONE extra warp-buffer entry costs {entry} bits (paper: 24,576)"
        ));
        vec![t]
    })
}

/// The four scenes of the design ablations.
const ABLATION_SCENES: [SceneId; 4] =
    [SceneId::Bunny, SceneId::Crnvl, SceneId::Fox, SceneId::Lands];

fn ablations(k: &Knobs, p: &mut Plan) -> Finish {
    let frame = k.frame(k.res);
    let mut per_scene = |variants: Vec<Variant>| p.per_scene(&ABLATION_SCENES, frame, &variants);
    let rates = [1, 2, 4, 8].map(|r| (rtx_with(|c| c.lbu_moves_per_cycle = r), CoopRt));
    let lbu = per_scene(over_baseline(rates));
    let elim = per_scene(over_baseline([(
        rtx_with(|c| c.node_elimination = false),
        Baseline,
    )]));
    let sah = per_scene(over_baseline([]));
    let median = ABLATION_SCENES.map(|id| {
        let cell = Cell::new(id, (rtx(), Baseline, PT), frame);
        p.cell(Cell {
            builder: Builder::Median,
            ..cell
        })
    });
    Box::new(move |m| {
        let mut t1 = lbu.table(m, &["1/cyc", "2/cyc", "4/cyc", "8/cyc"], speedups);
        t1.caption = "LBU node transfers per cycle (CoopRT speedup over baseline)".into();
        t1.gmean_row(4);
        t1.notes = lines(
            "expectation: mild gains past 1/cycle — the paper's 1-node LBU is near-sufficient",
        );

        let mut t2 = elim.table(m, &["slowdown", "tri x"], |f| {
            let tri = f[1].events.triangle_tests as f64 / f[0].events.triangle_tests.max(1) as f64;
            vec![speedup(f[1], f[0]), tri]
        });
        t2.caption = "min_thit node elimination (baseline policy)".into();
        t2.notes = lines("expectation: disabling pruning inflates traversal work substantially");

        let mut t3 = Table::new(&["slowdown", "sah dpth", "med dpth"]);
        t3.caption = "BVH build quality: SAH vs median split (baseline policy)".into();
        for ((id, sah), med) in sah.0.iter().zip(median) {
            let depth = |b| m.scene(*id, b, frame.detail).stats.depth as f64;
            let row = vec![
                speedup(&m[med], &m[sah[0]]),
                depth(Builder::Sah),
                depth(Builder::Median),
            ];
            t3.row(id.name(), row);
        }
        t3.notes =
            lines("expectation: the SAH tree (what Embree builds for the paper) traverses faster");
        vec![t1, t2, t3]
    })
}

/// Plain Baseline over the changed Baseline, plain CoopRT and changed
/// CoopRT: the leading columns of the [`study`] extensions.
fn study_speedups(f: &[&FrameResult]) -> Vec<f64> {
    vec![
        speedup(f[0], f[2]),
        speedup(f[0], f[1]),
        speedup(f[0], f[3]),
    ]
}

fn ext_prefetch(k: &Knobs, p: &mut Plan) -> Finish {
    let prefetch = rtx_with(|c| c.prefetch_children = true);
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &study(prefetch, PT));
    let row: RowFn = |f| [study_speedups(f), vec![f[3].mem.prefetches as f64 / 1000.0]].concat();
    cells.finish(&["pf only", "coop", "coop+pf", "pf req k"], row, 3, |_| {
        lines(
            "expectation (paper §8.2): prefetching helps the serial baseline more than it\n\
             helps CoopRT, which already overlaps fetches and competes for the bandwidth",
        )
    })
}

fn ext_compaction(k: &Knobs, p: &mut Plan) -> Finish {
    let compact = rtx_with(|c| c.compaction = true);
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &study(compact, PT));
    cells.finish(&["compact", "coop", "both"], study_speedups, 3, |_| {
        lines(
            "expectation (paper §3): compaction addresses inactive lanes but not early\n\
             finishers, and none of the SIMT techniques address the traversal itself.\n\
             In an RT-unit architecture the effect is stark: idle lanes do not consume\n\
             RT-unit throughput (rays are traversed independently), so compaction's\n\
             lane-density benefit mostly evaporates while its per-bounce relaunch\n\
             barrier serializes the bounce pipeline — it can even lose to the plain\n\
             baseline. CoopRT attacks the traversal itself and wins decisively.",
        )
    })
}

/// The cells of an on/off study of one config axis: per policy, each
/// scene's cell on the RTX 2060 config, then on the config with the
/// axis on.
struct AxisStudy {
    /// Header of the `on` cycles column: the axis mode's label.
    on: &'static str,
    /// Baseline's cells, then CoopRT's.
    cells: [PerScene; 2],
}

fn axis_study(
    p: &mut Plan,
    scenes: &[SceneId],
    frame: Frame,
    kind: fn(SceneId) -> ShaderKind,
    (on, cfg): (&'static str, GpuConfig),
) -> AxisStudy {
    let cells = [Baseline, CoopRt].map(|policy| {
        let mut cells = Vec::new();
        for &id in scenes {
            let pair =
                [rtx(), cfg.clone()].map(|c| p.cell(Cell::new(id, (c, policy, kind(id)), frame)));
            cells.push((id, pair.to_vec()));
        }
        PerScene(cells)
    });
    AxisStudy { on, cells }
}

impl AxisStudy {
    /// One table per policy, captioned with its label: per scene the
    /// `on` cell's speedup over the `off` cell, both cycle counts, then
    /// the `extra` columns `row` computes from the (off, on) frames;
    /// a gmean row over the speedup.
    fn tables(&self, m: &Matrix, extra: &[Column], row: RowFn) -> Vec<Table> {
        let columns = [col("x", 9, 3), col("off", 9, 0), col(self.on, 11, 0)];
        let policies = [Baseline, CoopRt].into_iter().zip(&self.cells);
        let tables = policies.map(|(policy, cells)| {
            let mut t = Table::with("scene", [&columns, extra].concat());
            for (id, c) in &cells.0 {
                let (off, on) = (&m[c[0]], &m[c[1]]);
                let head = vec![speedup(off, on), off.cycles as f64, on.cycles as f64];
                t.row(id.name(), [head, row(&[off, on])].concat());
            }
            t.caption = policy.label().into();
            t.gmean_row(1);
            t
        });
        tables.collect()
    }
}

fn ext_reorder(k: &Knobs, p: &mut Plan) -> Finish {
    let hash = ReorderPolicy::OctantHash;
    let on = (hash.label(), rtx().with_reorder(hash));
    let study = axis_study(p, &k.scenes, k.frame(k.res), |_| PT, on);
    Box::new(move |m| {
        let rates = ["simt off", "simt hash", "l1 off", "l1 hash"].map(|n| col(n, 9, 3));
        let extra = [&rates[..], &[col("moved", 9, 0), col("rays", 9, 0)]].concat();
        let mut tables = study.tables(m, &extra, |f| {
            let l1 = |r: &FrameResult| 1.0 - r.mem.l1.miss_rate();
            let (simt, moved) = (FrameResult::simt_efficiency, f[1].reorder.rays_moved);
            vec![
                simt(f[0]),
                simt(f[1]),
                l1(f[0]),
                l1(f[1]),
                moved as f64,
                f[0].rays as f64,
            ]
        });
        tables[1].notes = lines(
            "path tracing; reordering is timing-only, so every cell renders its unordered\n\
             Baseline twin's image. 'simt' = SIMT efficiency, 'l1' = L1 hit rate, 'moved' =\n\
             rays the octant-hash sort moved. Morton is left out: every primary ray shares\n\
             the camera origin, so the origin-major key moves no ray (ext_queries keeps it).",
        );
        tables
    })
}

fn ext_raypath(k: &Knobs, p: &mut Plan) -> Finish {
    let path = PredictPolicy::RayPath;
    let on = (path.label(), rtx().with_predict(path));
    let study = axis_study(p, &k.scenes, k.frame(k.res), |_| ShaderKind::Shadow, on);
    Box::new(move |m| {
        let extra = [
            col("lookups", 9, 0),
            col("hit rate", 9, 3),
            col("go-up", 9, 0),
            col("saved", 9, 0),
        ];
        let mut tables = study.tables(m, &extra, |f| {
            let s = &f[1].predictor;
            let hit_rate = s.path_entry_hits as f64 / s.path_candidates.max(1) as f64;
            let [lookups, go_up, saved] =
                [s.path_lookups, s.path_go_up_steps, s.node_fetches_saved].map(|n| n as f64);
            vec![lookups, hit_rate, go_up, saved]
        });
        tables[1].notes = lines(
            "shadow rays; the go-up-to-root fallback keeps occlusion exact, so every cell\n\
             renders its unpredicted Baseline twin's image. 'hit rate' = predicted entries\n\
             whose subtree held the hit, 'go-up' = fallback steps, 'saved' = ancestor node\n\
             fetches skipped.",
        );
        tables
    })
}

/// Scene detail, batch size and sample salt of [`ext_queries`], fixed
/// so that its cells are the golden query pins' at any knobs.
const QUERY_DETAIL: u32 = 16;
const QUERY_COUNT: usize = 2048;
const QUERY_SALT: u64 = 1;

/// The query shader each query scene exists to exercise.
fn query_kind(id: SceneId) -> ShaderKind {
    match id {
        SceneId::Qclu => ShaderKind::Radius,
        SceneId::Qamr => ShaderKind::Contain,
        _ => ShaderKind::Knn,
    }
}

fn ext_queries(_: &Knobs, p: &mut Plan) -> Finish {
    let frame = Frame {
        detail: QUERY_DETAIL,
        width: QUERY_COUNT,
        height: 1,
        salt: QUERY_SALT,
    };
    let morton = ReorderPolicy::Morton;
    let on = (morton.label(), rtx().with_reorder(morton));
    let study = axis_study(p, &QUERY_SCENES, frame, query_kind, on);
    Box::new(move |m| {
        // The timing model may only time a query, never approximate it.
        for (i, id) in QUERY_SCENES.into_iter().enumerate() {
            let scene = m.scene(id, Builder::Sah, QUERY_DETAIL);
            let want = oracle_answers(scene, query_kind(id), QUERY_COUNT, QUERY_SALT);
            for &c in study.cells.iter().flat_map(|s| &s.0[i].1) {
                let answers = &m[c].query_results;
                assert!(*answers == want, "{id}: cell {c} differs from the oracle");
            }
        }
        let extra = [col("rays", 9, 0), col("hits", 9, 0)];
        let mut tables = study.tables(m, &extra, |f| {
            let hits: usize = f[0].query_results.iter().map(Vec::len).sum();
            vec![f[0].rays as f64, hits as f64]
        });
        let kinds = QUERY_SCENES.map(|id| format!("{id} {}", query_kind(id).key()));
        let over_baseline = QUERY_SCENES.iter().enumerate().map(|(i, id)| {
            let [off, on] = [1, 2].map(|c| tables[0].rows[i].1[c] / tables[1].rows[i].1[c]);
            format!("{id} {off:.2}x / {on:.2}x")
        });
        let over_baseline: Vec<String> = over_baseline.collect();
        tables[1].notes = lines(&format!(
            "{QUERY_COUNT} queries at detail {QUERY_DETAIL}, salt {QUERY_SALT} ({}); every cell's\n\
             answers equal the brute-force oracle. CoopRT over baseline, off / morton:\n{}",
            kinds.join(", "),
            over_baseline.join(", ")
        ));
        tables
    })
}

fn supp_latency(k: &Knobs, p: &mut Plan) -> Finish {
    let cells = p.per_scene(&k.scenes, k.frame(k.res), &twin(&rtx(), PT));
    let row: RowFn = |f| {
        let [b, c] = [f[0], f[1]].map(|r| {
            let mut latencies = r.trace_latencies.clone();
            [0.5, 0.99].map(|q| latencies.quantile(q) as f64)
        });
        vec![b[0], b[1], c[0], c[1], b[1] / c[1].max(1.0)]
    };
    cells.finish(
        &["b p50", "b p99", "c p50", "c p99", "p99 x"],
        row,
        0,
        |_| lines("'p99 x' = tail compression factor; the mechanism behind Figs. 11 and 14"),
    )
}

/// Every table and figure of the evaluation, in print order.
#[rustfmt::skip]
pub static FIGURES: [Figure; 23] = [
    Figure { name: "table2_scene_stats", title: "Table 2: scene statistics", plan: table2 },
    Figure { name: "fig01_stall_breakdown", title: "Fig. 1: pipeline stall breakdown (baseline, path tracing)", plan: fig01 },
    Figure { name: "fig02_thread_activity", title: "Fig. 2: busy-thread fraction over time (baseline, path tracing)", plan: fig02 },
    Figure { name: "fig04_thread_status", title: "Fig. 4: thread status distribution (baseline, path tracing)", plan: fig04 },
    Figure { name: "fig09_speedup_power_energy", title: "Fig. 9: CoopRT speedup / power / energy vs baseline (path tracing)", plan: fig09 },
    Figure { name: "fig10_thread_utilization", title: "Fig. 10: average RT-unit thread utilization (path tracing)", plan: fig10 },
    Figure { name: "fig11_warp_timeline", title: "Fig. 11: warp trace_ray timeline (bath, path tracing)", plan: fig11 },
    Figure { name: "fig12_bandwidth", title: "Fig. 12: L2 and DRAM bandwidth, CoopRT normalized to baseline", plan: fig12 },
    Figure { name: "fig13_warp_buffer_sweep", title: "Fig. 13: warp-buffer size sweep (path tracing, normalized to 4 w/o coop)", plan: fig13 },
    Figure { name: "fig14_slowest_warp", title: "Fig. 14: slowest-warp latency, normalized to 4-entry baseline (lower is better)", plan: fig14 },
    Figure { name: "fig15_edp", title: "Fig. 15: EDP improvement over 4-entry baseline (higher is better)", plan: fig15 },
    Figure { name: "fig16_miss_rates", title: "Fig. 16: cache miss rates (path tracing)", plan: fig16 },
    Figure { name: "fig17_ao_sh", title: "Fig. 17: AO and SH shader speedups (CoopRT over baseline)", plan: fig17 },
    Figure { name: "fig18_mobile", title: "Fig. 18: mobile GPU (8 SMs, 4 channels), CoopRT vs baseline", plan: fig18 },
    Figure { name: "fig19_subwarp_sweep", title: "Fig. 19: subwarp-size sweep (CoopRT over baseline)", plan: fig19 },
    Figure { name: "table3_area", title: "Table 3: area vs subwarp size (analytic gate model)", plan: table3 },
    Figure { name: "ablations", title: "Ablations: LBU rate, node elimination", plan: ablations },
    Figure { name: "ext_prefetch", title: "Extension: child-node prefetching x CoopRT (normalized to baseline)", plan: ext_prefetch },
    Figure { name: "ext_compaction", title: "Comparative baseline: thread compaction vs CoopRT (path tracing)", plan: ext_compaction },
    Figure { name: "ext_reorder", title: "Extension: octant-hash ray reordering (speedup over unordered, per policy)", plan: ext_reorder },
    Figure { name: "ext_raypath", title: "Extension: ray-path prediction on shadow rays (speedup over unpredicted, per policy)", plan: ext_raypath },
    Figure { name: "ext_queries", title: "Extension: spatial queries x Morton reordering (speedup over unordered, per policy)", plan: ext_queries },
    Figure { name: "supp_latency", title: "Supplementary: trace_ray latency distribution (cycles)", plan: supp_latency },
];

/// What one [`run`] produced.
pub struct Run {
    /// The printed report.
    pub text: String,
    /// The `BENCH_paper.json` document.
    pub json: String,
    /// Each selected figure with its tables.
    pub tables: Vec<(&'static Figure, Vec<Table>)>,
    /// Cell requests, counting repeats.
    pub requested: usize,
    /// The distinct cells, in first-request order.
    pub cells: Vec<Cell>,
    /// Simulations run.
    pub simulated: usize,
    /// Cells asserted image-identical to their Baseline, reorder-off,
    /// predict-off twin.
    pub twins: usize,
}

/// Runs every figure whose name starts with one of `filter`'s prefixes
/// (all of them when `filter` is empty).
///
/// # Panics
///
/// Panics if a cell renders a different image than its Baseline,
/// reorder-off, predict-off twin (the policy, reordering and ray-path
/// prediction are timing-only), or if a query cell's answers differ
/// from the brute-force oracle.
pub fn run(knobs: &Knobs, filter: &[String]) -> Run {
    let selected = |f: &&Figure| filter.is_empty() || filter.iter().any(|p| f.name.starts_with(p));
    let figures: Vec<&'static Figure> = FIGURES.iter().filter(selected).collect();
    let mut plan = Plan::default();
    let finishes: Vec<Finish> = figures.iter().map(|f| (f.plan)(knobs, &mut plan)).collect();

    // Each scene is built once, in request order (a median tree is
    // rebuilt from its SAH scene, requested before it).
    let mut matrix = Matrix {
        scenes: Vec::new(),
        frames: Vec::new(),
    };
    for &(id, builder, detail) in &plan.scenes {
        let scene = match builder {
            Builder::Sah => id.build(detail),
            Builder::Median => {
                let sah = matrix.scene(id, Builder::Sah, detail);
                sah.rebuilt_with(cooprt_bvh::build_binary_median)
            }
        };
        matrix.scenes.push(((id, builder, detail), scene));
    }
    let simulated = AtomicUsize::new(0);
    matrix.frames = parallel::par_map(&plan.cells, knobs.threads, |_, cell| {
        simulated.fetch_add(1, Ordering::Relaxed);
        let Frame {
            detail,
            width,
            height,
            salt,
        } = cell.frame;
        let scene = matrix.scene(cell.scene, cell.builder, detail);
        let mut sim = Simulation::new(scene, &cell.cfg, cell.policy).with_sample_salt(salt);
        if let Some(warp) = cell.timeline_warp {
            sim = sim.with_timeline_warp(warp);
        }
        let frame = sim.run_frame(cell.kind, width, height);
        frame.expect("every figure requests a valid frame")
    });

    // The policy, reordering and prediction are timing-only: every
    // cell must render the image of its Baseline, reorder-off,
    // predict-off twin when the matrix holds one.
    let mut twins = 0;
    for (i, cell) in plan.cells.iter().enumerate() {
        let cfg = cell.cfg.clone().with_reorder(ReorderPolicy::Off);
        let twin = Cell {
            policy: Baseline,
            cfg: cfg.with_predict(PredictPolicy::Off),
            ..cell.clone()
        };
        if twin == *cell {
            continue;
        }
        if let Some(j) = plan.cells.iter().position(|c| *c == twin) {
            let (scene, kind) = (cell.scene, cell.kind);
            assert!(
                matrix[i].image == matrix[j].image,
                "cells {j} and {i} ({scene} {kind:?}): images differ"
            );
            twins += 1;
        }
    }

    let tables = figures.into_iter().zip(finishes);
    let mut run = Run {
        text: String::new(),
        json: String::new(),
        tables: tables.map(|(f, finish)| (f, finish(&matrix))).collect(),
        requested: plan.requested,
        simulated: simulated.into_inner(),
        cells: plan.cells,
        twins,
    };
    run.text = render_text(knobs, &run);
    run.json = render_json(knobs, &run);
    run
}

fn render_text(knobs: &Knobs, run: &Run) -> String {
    let (r, s, d, n) = (knobs.res, knobs.sweep_res, knobs.detail, knobs.scenes.len());
    let mut out = format!(
        "\n=== CoopRT paper figures ===\n(resolution {r}x{r}, sweep resolution {s}x{s}, detail {d}, \
         {n} scenes; set COOPRT_RES / COOPRT_DETAIL / COOPRT_SCENES to adjust)\n"
    );
    for (figure, tables) in &run.tables {
        let _ = write!(out, "\n=== {} [{}] ===\n", figure.title, figure.name);
        tables.iter().for_each(|t| t.render(&mut out));
    }
    let (requested, simulated, twins) = (run.requested, run.simulated, run.twins);
    let _ = writeln!(
        out,
        "\ncells: {requested} requested, {simulated} simulated; {twins} image-identical to their \
         Baseline, reorder-off, predict-off twin"
    );
    out
}

fn render_json(knobs: &Knobs, run: &Run) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("schema_version", 1);
    w.field_u64("resolution", knobs.res as u64);
    w.field_u64("sweep_resolution", knobs.sweep_res as u64);
    w.field_u64("detail", u64::from(knobs.detail));
    w.begin_inline_array("scenes");
    knobs.scenes.iter().for_each(|s| w.item_str(s.name()));
    w.end_array();
    w.field_u64("cells_requested", run.requested as u64);
    w.field_u64("cells_simulated", run.simulated as u64);
    w.field_u64("twins_checked", run.twins as u64);
    w.begin_array("tables");
    for (figure, tables) in &run.tables {
        tables.iter().for_each(|t| t.write_json(&mut w, figure));
    }
    w.end_array();
    w.end_object();
    w.finish()
}
