//! Top-level simulation: SMs, warp dispatch, the cycle loop, and all
//! measurement plumbing (interval sampling, stall attribution, warp
//! timelines).

use crate::config::{GpuConfig, TraversalPolicy, WARP_SIZE};
use crate::latency::TraceLatencies;
use crate::predictor::{PredictPolicy, PredictorStats};
use crate::reorder::{self, ReorderPolicy, ReorderStats};
use crate::rtunit::{RtUnit, StatusCounts, TraceQuery, TraceResult};
use crate::shader::{ShaderKind, ShaderThread};
use crate::trace::{RayRecord, Recorder};
use cooprt_gpu::{EnergyEvents, EnergyReport, MemStats, MemoryHierarchy};
use cooprt_math::{Ray, Rgb};
use cooprt_scenes::Scene;
use cooprt_telemetry::{Checker, EventKind, Probe, Tracer};
use std::collections::VecDeque;

/// Validation error returned by the public simulation entry points.
///
/// Bad *input* (caller-controlled frame geometry or sample counts) is
/// reported as a typed error rather than a panic; panics remain reserved
/// for internal engine invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The requested frame has zero pixels (`width * height == 0`).
    EmptyFrame {
        /// Requested frame width.
        width: usize,
        /// Requested frame height.
        height: usize,
    },
    /// `run_accumulated` was asked for zero samples per pixel.
    ZeroSamples,
    /// Ray reordering is enabled but the counting sort has no buckets
    /// (`reorder != Off` with `reorder_buckets == 0`).
    ZeroReorderBuckets,
    /// Ray-path prediction is enabled but its table has no entries
    /// (`predict != Off` with `predictor_entries == 0`).
    ZeroPredictorEntries,
    /// The GPU has no SMs (`sm_count() == 0`), so no warp can be
    /// placed.
    ZeroSms,
    /// The RT unit's warp buffer has no entries
    /// (`warp_buffer_size == 0`).
    ZeroWarpBuffer,
    /// The LBU subwarp scope is not 4, 8, 16 or 32 threads.
    InvalidSubwarp {
        /// The requested `subwarp_size`.
        size: usize,
    },
    /// No thread block may be resident on an SM
    /// (`max_tbs_per_sm == 0`), so no warp would ever activate.
    ZeroTbsPerSm,
    /// A spatial-query shader was requested on a scene without a
    /// matching query domain: `knn`/`rad` need
    /// [`Scene::query`](cooprt_scenes::Scene::query) populated, and
    /// `cont` additionally needs a *cell* domain
    /// ([`QueryDomain::is_cells`](cooprt_scenes::QueryDomain::is_cells)).
    QueryDomainMismatch {
        /// Short key of the offending query shader kind.
        shader: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyFrame { width, height } => {
                write!(f, "image must be non-empty, got {width}x{height}")
            }
            ConfigError::ZeroSamples => write!(f, "need at least one sample per pixel"),
            ConfigError::ZeroReorderBuckets => {
                write!(f, "ray reordering needs at least one sort bucket")
            }
            ConfigError::ZeroPredictorEntries => {
                write!(f, "the predictor needs at least one table entry")
            }
            ConfigError::ZeroSms => write!(f, "the GPU needs at least one SM"),
            ConfigError::ZeroWarpBuffer => {
                write!(f, "the RT unit's warp buffer needs at least one entry")
            }
            ConfigError::InvalidSubwarp { size } => {
                write!(f, "subwarp size must be 4, 8, 16 or 32, got {size}")
            }
            ConfigError::ZeroTbsPerSm => {
                write!(f, "each SM must hold at least one thread block")
            }
            ConfigError::QueryDomainMismatch { shader } => {
                write!(
                    f,
                    "query shader '{shader}' needs a scene with a matching query domain"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cycles lost to each instruction class (Fig. 1 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// `trace_ray` instructions (waiting for / executing in the RT unit).
    pub rt: u64,
    /// Load/store instructions from the CUDA cores.
    pub mem: u64,
    /// Compute instructions.
    pub alu: u64,
    /// Special-function-unit instructions.
    pub sfu: u64,
}

impl StallBreakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.rt + self.mem + self.alu + self.sfu
    }

    /// `[rt, mem, alu, sfu]` as fractions of the total.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.rt as f64 / t,
            self.mem as f64 / t,
            self.alu as f64 / t,
            self.sfu as f64 / t,
        ]
    }
}

/// One interval sample (taken every `sample_interval` cycles, like the
/// paper's AerialVision stats): the RT-unit thread-status mix at
/// `cycle` plus machine-wide counters. All counter fields are
/// **cumulative** totals at `cycle`; per-interval rates (e.g. miss
/// rate over the last window) are differences between consecutive
/// samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Sample time.
    pub cycle: u64,
    /// Threads with non-empty stacks or outstanding fetches.
    pub busy: usize,
    /// Active threads that finished early and wait for their warp.
    pub waiting: usize,
    /// Threads masked off by SIMT divergence.
    pub inactive: usize,
    /// Occupied warp-buffer slots summed over all RT units.
    pub warp_slots_occupied: usize,
    /// Cumulative L1 accesses (all SMs).
    pub l1_accesses: u64,
    /// Cumulative L1 hits (all SMs).
    pub l1_hits: u64,
    /// Cumulative L2 accesses.
    pub l2_accesses: u64,
    /// Cumulative L2 hits.
    pub l2_hits: u64,
    /// Cumulative bytes read from DRAM.
    pub dram_bytes: u64,
    /// Cumulative DRAM channel-busy cycles (summed over channels).
    pub dram_busy_cycles: u64,
}

impl IntervalSample {
    /// Threads resident in RT units at this sample.
    pub fn present(&self) -> usize {
        self.busy + self.waiting + self.inactive
    }

    /// Busy threads over resident threads (0 with none resident): the
    /// Fig. 2 curve.
    pub fn busy_fraction(&self) -> f64 {
        match self.present() {
            0 => 0.0,
            present => self.busy as f64 / present as f64,
        }
    }
}

/// The interval-sampled series of one simulation: the data behind the
/// thread-activity figures (Figs. 2, 4, 10) and the miss-rate /
/// bandwidth / occupancy time-series plots.
#[derive(Clone, Debug, Default)]
pub struct IntervalSeries {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// Samples in time order, counters cumulative at each sample.
    pub samples: Vec<IntervalSample>,
}

impl IntervalSeries {
    /// Average RT-unit thread utilization: busy threads over resident
    /// threads, averaged across samples with any residents (Fig. 10).
    pub fn avg_utilization(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.samples.iter().filter(|s| s.present() > 0) {
            sum += s.busy_fraction();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Aggregate Fig. 4 status distribution: fractions of
    /// `[busy, waiting, inactive]` over all sampled threads.
    pub fn status_distribution(&self) -> [f64; 3] {
        let (mut b, mut w, mut i) = (0u64, 0u64, 0u64);
        for s in &self.samples {
            b += s.busy as u64;
            w += s.waiting as u64;
            i += s.inactive as u64;
        }
        let t = (b + w + i) as f64;
        if t == 0.0 {
            return [0.0; 3];
        }
        [b as f64 / t, w as f64 / t, i as f64 / t]
    }
}

/// One timeline sample of a traced warp (Fig. 11): which threads are
/// traversing at `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineSample {
    /// Sample time.
    pub cycle: u64,
    /// Bit `i` set: thread `i` has a non-empty stack or pending fetch.
    pub mask: u32,
}

/// Everything measured over one simulated frame.
#[derive(Clone, Debug)]
pub struct FrameResult {
    /// The rendered image, row-major, one [`Rgb`] per pixel. Identical
    /// between baseline and CoopRT runs (functional correctness, §4.2).
    pub image: Vec<Rgb>,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Total frame latency in core cycles (the paper's performance
    /// metric).
    pub cycles: u64,
    /// Memory-system counters (Figs. 12, 16).
    pub mem: MemStats,
    /// Total rays dispatched to the RT units over the frame (active
    /// threads of every `trace_ray`). Feeds perfbench's rays/sec
    /// throughput metric.
    pub rays: u64,
    /// RT-unit event counters.
    pub events: EnergyEvents,
    /// Energy/power/EDP report (Figs. 9, 15, 18).
    pub energy: EnergyReport,
    /// Per-instruction-class stall cycles (Fig. 1).
    pub stalls: StallBreakdown,
    /// Interval samples: the thread-status mix (Figs. 2, 4, 10) and
    /// machine counters (cache hit rates, DRAM bandwidth, warp-buffer
    /// occupancy over time).
    pub intervals: IntervalSeries,
    /// Latency of the slowest warp, cycles (Fig. 14).
    pub slowest_warp_cycles: u64,
    /// DRAM channel utilization over the frame (§7.4).
    pub dram_utilization: f64,
    /// Ray-path predictor counters, summed across SMs (all zero under
    /// [`PredictPolicy::Off`]).
    pub predictor: PredictorStats,
    /// Latency of every retired `trace_ray` instruction (the raw data
    /// behind Figs. 11 and 14).
    pub trace_latencies: TraceLatencies,
    /// Timeline of the designated warp, if one was requested (Fig. 11).
    pub timeline: Vec<TimelineSample>,
    /// Ray-reordering pass counters (all zero under
    /// [`ReorderPolicy::Off`]).
    pub reorder: ReorderStats,
    /// Spatial-query answers, one `Vec` per pixel (= per query point):
    /// point indices for `knn`/`rad` (kNN in nearest-first order, radius
    /// ascending), the containing cell index for `cont`. Empty for
    /// render shaders and for replay runs.
    pub query_results: Vec<Vec<u32>>,
}

impl FrameResult {
    /// The rendered frame as an [`Image`](cooprt_math::Image), ready
    /// for PPM export or PSNR comparison.
    pub fn image_buffer(&self) -> cooprt_math::Image {
        cooprt_math::Image::from_pixels(self.width, self.height, self.image.clone())
    }

    /// SIMT efficiency of the frame's `trace_ray` issues: mean active
    /// lanes per issued instruction over the full [`WARP_SIZE`]-lane
    /// warp width. 1.0 means every issue carried 32 live rays; ragged
    /// tiles, dead bounces and partial compaction waves all pull it
    /// down.
    pub fn simt_efficiency(&self) -> f64 {
        if self.events.trace_instructions == 0 {
            return 0.0;
        }
        self.rays as f64 / (self.events.trace_instructions * WARP_SIZE as u64) as f64
    }
}

/// A configured simulation of one scene on one GPU configuration under
/// one traversal policy.
///
/// # Examples
///
/// ```
/// use cooprt_core::{GpuConfig, ShaderKind, Simulation, TraversalPolicy};
/// use cooprt_scenes::SceneId;
///
/// let scene = SceneId::Wknd.build(2);
/// let config = GpuConfig::small(2);
/// let result = Simulation::new(&scene, &config, TraversalPolicy::CoopRt)
///     .run_frame(ShaderKind::PathTrace, 8, 8).unwrap();
/// assert_eq!(result.image.len(), 64);
/// assert!(result.cycles > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Simulation<'s> {
    scene: &'s Scene,
    config: GpuConfig,
    policy: TraversalPolicy,
    timeline_warp: Option<usize>,
    sample_salt: u64,
    tracer: Tracer,
    checker: Checker,
    recorder: Recorder,
    dense: bool,
}

impl<'s> Simulation<'s> {
    /// Creates a simulation over `scene` with the given configuration
    /// and traversal policy.
    pub fn new(scene: &'s Scene, config: &GpuConfig, policy: TraversalPolicy) -> Self {
        Simulation {
            scene,
            config: config.clone(),
            policy,
            timeline_warp: None,
            sample_salt: 0,
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            recorder: Recorder::disabled(),
            dense: false,
        }
    }

    /// Differential-testing reference: step every SM on every cycle
    /// instead of skipping the SMs whose next event lies in the future.
    /// The result must be bitwise the skipping engine's, since a
    /// skipped step is a no-op; `cooprt-check`'s `stepcheck` oracle
    /// holds the engine to that.
    #[doc(hidden)]
    pub fn with_dense_stepping(mut self) -> Self {
        self.dense = true;
        self
    }

    /// Installs a sim-time event tracer: each frame's [`Probe`] emits
    /// the engine's, RT units' and memory hierarchy's cycle-stamped
    /// events into the tracer's shared buffer (drain with
    /// [`Tracer::take`] after the run). Tracing is purely
    /// observational: cycle counts are bitwise identical with it on or
    /// off — the `golden_cycles` suite in `cooprt-bench` runs fully
    /// traced to enforce exactly that.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs an invariant checker (the `checked` engine mode): each
    /// frame's [`Probe`] verifies the engine invariants — one response
    /// pop and one coalesced fetch per unit per cycle, every
    /// `trace_ray` retired, LBU pair validity, `min_thit` monotonicity,
    /// fetches completing in the future and the next wake lying after
    /// the current cycle — in state of its own, and adds its
    /// violations to the checker's shared buffer when the frame ends
    /// (read with [`Checker::violations`] after the run). Like tracing,
    /// checking is purely observational: cycle counts are bitwise
    /// identical with it on or off, which the `golden_cycles` suite
    /// enforces over the full scene matrix.
    pub fn with_checker(mut self, checker: Checker) -> Self {
        self.checker = checker;
        self
    }

    /// Installs a front-end recorder: the engine captures every
    /// `(ray, t_max)` each shader thread submits at the warp-issue
    /// boundary, plus the per-SM issue stream (drain with
    /// [`Recorder::take`] after the run; [`crate::Trace::record`] wraps
    /// the whole recipe). Recording follows the same
    /// zero-cost-when-disabled discipline as tracing and checking: it
    /// is purely observational and cycle counts are bitwise identical
    /// with it on or off, which the `golden_cycles` suite enforces.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the per-sample RNG salt (use the sample index when
    /// accumulating several samples per pixel).
    pub fn with_sample_salt(mut self, salt: u64) -> Self {
        self.sample_salt = salt;
        self
    }

    /// Renders `spp` samples per pixel, each a full simulated frame with
    /// a distinct RNG salt, and returns the accumulated (averaged) image
    /// alongside every per-sample [`FrameResult`].
    ///
    /// Samples are simulated concurrently on the worker count from
    /// [`crate::parallel::threads`] (the `COOPRT_THREADS` knob), which
    /// is read only when `spp > 1`: one sample runs on the calling
    /// thread. Each sample is an independent single-threaded engine,
    /// and the accumulation happens in ascending sample order
    /// afterwards, so the result is bitwise identical to the sequential
    /// path.
    ///
    /// Counter hygiene: each per-sample [`FrameResult`] carries
    /// per-frame counters only. Every statistics family
    /// ([`MemStats`], [`EnergyEvents`],
    /// [`StallBreakdown`], [`crate::TraceLatencies`],
    /// [`crate::PredictorStats`], [`IntervalSeries`]) lives inside the
    /// per-sample `Engine`, which this method constructs fresh for
    /// every sample — there is no cross-frame state to reset. The
    /// `metrics_report` suite in `cooprt-bench` pins this: identical
    /// back-to-back frames serialize to identical metrics reports.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroSamples`] if `spp == 0`, and
    /// otherwise every error [`Simulation::run_frame`] returns.
    pub fn run_accumulated(
        &self,
        kind: ShaderKind,
        width: usize,
        height: usize,
        spp: u32,
    ) -> Result<(Vec<Rgb>, Vec<FrameResult>), ConfigError> {
        let threads = if spp > 1 {
            crate::parallel::threads()
        } else {
            1
        };
        self.run_accumulated_with_threads(kind, width, height, spp, threads)
    }

    /// [`Simulation::run_accumulated`] with an explicit worker count
    /// (`threads == 1` is the plain sequential loop).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroSamples`] if `spp == 0`, and
    /// otherwise every error [`Simulation::run_frame`] returns.
    pub fn run_accumulated_with_threads(
        &self,
        kind: ShaderKind,
        width: usize,
        height: usize,
        spp: u32,
        threads: usize,
    ) -> Result<(Vec<Rgb>, Vec<FrameResult>), ConfigError> {
        if spp == 0 {
            return Err(ConfigError::ZeroSamples);
        }
        validate_frame(width, height)?;
        validate_config(&self.config)?;
        validate_query(kind, self.scene)?;
        let salts: Vec<u64> = (0..spp as u64).collect();
        let frames = crate::parallel::par_map(&salts, threads, |_, &s| {
            // Dimensions were validated above; a failure here would be an
            // internal invariant violation, not bad input.
            self.clone()
                .with_sample_salt(s)
                .run_frame(kind, width, height)
                .expect("frame dimensions validated before sample fan-out")
        });
        // Reduce in fixed sample order: f32 accumulation is not
        // associative, so the order must match the sequential loop.
        let mut accum = vec![Rgb::BLACK; width * height];
        for frame in &frames {
            for (acc, px) in accum.iter_mut().zip(&frame.image) {
                *acc += *px * (1.0 / spp as f32);
            }
        }
        Ok((accum, frames))
    }

    /// Requests a Fig. 11-style per-thread timeline of warp `warp`.
    pub fn with_timeline_warp(mut self, warp: usize) -> Self {
        self.timeline_warp = Some(warp);
        self
    }

    /// Simulates one `width x height` frame (1 sample per pixel) with
    /// the given shader and returns all measurements.
    ///
    /// Every counter in the returned [`FrameResult`] is per-frame by
    /// construction: a fresh `Engine` (with a fresh memory hierarchy
    /// and statistics state) is built for each call, so repeated calls
    /// on the same `Simulation` are independent and — the simulator
    /// being deterministic — identical.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyFrame`] if `width * height == 0`;
    /// [`ConfigError::ZeroSms`], [`ConfigError::ZeroWarpBuffer`],
    /// [`ConfigError::InvalidSubwarp`] or [`ConfigError::ZeroTbsPerSm`]
    /// for a GPU the engine cannot run;
    /// [`ConfigError::ZeroReorderBuckets`] if reordering is enabled
    /// without sort buckets; [`ConfigError::ZeroPredictorEntries`] if
    /// ray-path prediction is enabled without table entries; and
    /// [`ConfigError::QueryDomainMismatch`] if `kind` is a query
    /// shader the scene cannot answer.
    pub fn run_frame(
        &self,
        kind: ShaderKind,
        width: usize,
        height: usize,
    ) -> Result<FrameResult, ConfigError> {
        validate_frame(width, height)?;
        validate_config(&self.config)?;
        validate_query(kind, self.scene)?;
        Ok(Engine::new(self, kind, width, height).run())
    }

    /// Simulates one frame driven by recorded per-thread ray streams
    /// instead of live shader threads (see [`crate::Trace::replay`],
    /// which packages the trace-level recipe around this).
    ///
    /// The timing model — RT units, caches, MSHRs, DRAM, LBU — runs
    /// exactly as live; only raygen/shading is skipped: each lane's
    /// next `(ray, t_max)` comes from its stream, and warp retirement
    /// advances the stream cursors precisely where live shading would
    /// produce the next bounce. `image` is the recorded frame, echoed
    /// back in the result (replay never shades).
    ///
    /// `streams` and `image` must both hold exactly `width * height`
    /// entries — thread `t` is pixel `t`.
    ///
    /// # Errors
    ///
    /// Returns every error [`Simulation::run_frame`] returns except
    /// [`ConfigError::QueryDomainMismatch`]: query domains are not
    /// checked (replay never consults them).
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `image` disagree with the pixel count;
    /// [`crate::Trace`] decoding validates both, so reaching the panic
    /// means a caller bypassed it with inconsistent data.
    pub fn replay_frame(
        &self,
        kind: ShaderKind,
        width: usize,
        height: usize,
        streams: Vec<Vec<RayRecord>>,
        image: Vec<Rgb>,
    ) -> Result<FrameResult, ConfigError> {
        validate_frame(width, height)?;
        validate_config(&self.config)?;
        assert_eq!(streams.len(), width * height, "one ray stream per pixel");
        assert_eq!(image.len(), width * height, "one recorded pixel per thread");
        let cursors = vec![0usize; streams.len()];
        let front = FrontEnd::Replay {
            streams,
            cursors,
            image,
        };
        Ok(Engine::with_front(self, kind, width, height, front).run())
    }
}

/// Rejects zero-pixel frames with a typed error.
fn validate_frame(width: usize, height: usize) -> Result<(), ConfigError> {
    if width == 0 || height == 0 {
        return Err(ConfigError::EmptyFrame { width, height });
    }
    Ok(())
}

/// Rejects a configuration the engine cannot run with a typed error,
/// before any RT unit is built: no SMs (warps are dealt out modulo the
/// SM count), an empty warp buffer, a subwarp scope the LBU cannot
/// split the warp into, no resident thread blocks (the frame would
/// never finish), and inconsistent reorder/predictor settings (so
/// `RayPathPredictor::new`'s zero-size panic never fires on
/// caller-controlled input).
fn validate_config(cfg: &GpuConfig) -> Result<(), ConfigError> {
    if cfg.sm_count() == 0 {
        return Err(ConfigError::ZeroSms);
    }
    if cfg.warp_buffer_size == 0 {
        return Err(ConfigError::ZeroWarpBuffer);
    }
    if !matches!(cfg.subwarp_size, 4 | 8 | 16 | 32) {
        return Err(ConfigError::InvalidSubwarp {
            size: cfg.subwarp_size,
        });
    }
    if cfg.max_tbs_per_sm == 0 {
        return Err(ConfigError::ZeroTbsPerSm);
    }
    if cfg.reorder != ReorderPolicy::Off && cfg.reorder_buckets == 0 {
        return Err(ConfigError::ZeroReorderBuckets);
    }
    if cfg.predict != PredictPolicy::Off && cfg.predictor_entries == 0 {
        return Err(ConfigError::ZeroPredictorEntries);
    }
    Ok(())
}

/// Rejects a query shader on a scene that cannot answer it. Replay is
/// deliberately exempt ([`Simulation::replay_frame`] never consults the
/// domain): recorded query traces replay on the domain-less
/// [`Scene::for_replay`](cooprt_scenes::Scene::for_replay) stand-in,
/// with [`FrameResult::query_results`] empty.
fn validate_query(kind: ShaderKind, scene: &Scene) -> Result<(), ConfigError> {
    if !kind.is_query() {
        return Ok(());
    }
    let ok = match &scene.query {
        None => false,
        Some(d) => kind != ShaderKind::Contain || d.is_cells(),
    };
    if ok {
        Ok(())
    } else {
        Err(ConfigError::QueryDomainMismatch { shader: kind.key() })
    }
}

/// The engine's workload source: live shader threads, or recorded
/// per-thread ray streams replayed without shading.
///
/// Both arms present the same three observations the timing model ever
/// makes of a thread — "does it hold a ray", "what ray and search
/// bound", "it just retired a `trace_ray`" — so swapping the arm swaps
/// raygen/shading for stream playback while every downstream structure
/// (warps, RT units, memory, LBU) runs unchanged.
///
/// Cursor semantics mirror live aliveness exactly: a live thread's
/// `ray` goes `Some -> None` exactly once, so its k-th submission is
/// its stream's k-th record under *any* warp grouping, and a retire
/// advances the cursor precisely where live shading would decide the
/// next bounce (a dead thread's resume is a no-op in both arms).
enum FrontEnd {
    /// One shader thread per pixel, generating and shading rays.
    Live(Vec<ShaderThread>),
    /// Recorded streams: thread `t` submits `streams[t]` in order.
    Replay {
        /// Per-thread recorded `(ray, t_max)` submissions.
        streams: Vec<Vec<RayRecord>>,
        /// Next un-submitted record of each thread.
        cursors: Vec<usize>,
        /// The recorded final image (replay never shades).
        image: Vec<Rgb>,
    },
}

impl FrontEnd {
    /// Thread (= pixel) count.
    fn len(&self) -> usize {
        match self {
            FrontEnd::Live(threads) => threads.len(),
            FrontEnd::Replay { streams, .. } => streams.len(),
        }
    }

    /// True if thread `t` has a ray left to trace.
    #[inline]
    fn has_ray(&self, t: usize) -> bool {
        match self {
            FrontEnd::Live(threads) => threads[t].ray.is_some(),
            FrontEnd::Replay {
                streams, cursors, ..
            } => cursors[t] < streams[t].len(),
        }
    }

    /// The `(ray, t_max)` lane contents thread `t` contributes to a
    /// `trace_ray` being built right now.
    ///
    /// Dead lanes return `t_max = f32::INFINITY` in replay where live
    /// passes the thread's stale `t_max`; the RT unit provably never
    /// reads `min_thit` of an inactive lane, so the difference is
    /// unobservable (the replay-identity tests pin this).
    #[inline]
    fn query_lane(&self, t: usize) -> (Option<Ray>, f32) {
        match self {
            FrontEnd::Live(threads) => {
                let thread = &threads[t];
                (thread.ray, thread.t_max)
            }
            FrontEnd::Replay {
                streams, cursors, ..
            } => match streams[t].get(cursors[t]) {
                Some(rec) => (Some(rec.ray()), rec.t_max),
                None => (None, f32::INFINITY),
            },
        }
    }

    /// Thread `t`'s warp retired a `trace_ray`: live threads shade and
    /// generate the next ray; replay advances the stream cursor. Both
    /// are no-ops for a thread with no ray in flight.
    fn resume(
        &mut self,
        t: usize,
        kind: ShaderKind,
        cfg: &GpuConfig,
        scene: &Scene,
        hit: Option<crate::rtunit::RayHit>,
        gathered: &[u32],
    ) {
        match self {
            FrontEnd::Live(threads) => threads[t].resume(kind, cfg, scene, hit, gathered),
            FrontEnd::Replay {
                streams, cursors, ..
            } => {
                if cursors[t] < streams[t].len() {
                    cursors[t] += 1;
                }
            }
        }
    }

    /// The final per-pixel colors.
    fn colors(&self) -> Vec<Rgb> {
        match self {
            FrontEnd::Live(threads) => threads.iter().map(|t| t.color).collect(),
            FrontEnd::Replay { image, .. } => image.clone(),
        }
    }

    /// Per-pixel spatial-query answers; empty unless a query shader ran
    /// live (replay carries no shading state to answer from).
    fn query_answers(&self, kind: ShaderKind) -> Vec<Vec<u32>> {
        match self {
            FrontEnd::Live(threads) if kind.is_query() => {
                threads.iter().map(|t| t.query_hits.clone()).collect()
            }
            _ => Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Raygen { until: u64 },
    WaitRt,
    InRt,
    Shade { until: u64 },
    Done,
}

struct Warp {
    /// Thread (= pixel) indices of this warp's lanes, at most
    /// [`WARP_SIZE`]. With compaction and reordering off, lane `i` of
    /// warp `w` is pixel `w * 32 + i` for the whole frame; with
    /// compaction on, warps are re-formed from live threads between
    /// waves.
    members: Vec<u32>,
    iteration: u32,
    phase: Phase,
    /// Charge the raygen setup when this warp activates (first wave /
    /// frame start only).
    needs_raygen: bool,
    /// Retire after a single trace+shade (compaction wave mode).
    one_shot: bool,
    started: u64,
    finished: u64,
    wait_since: u64,
}

/// One SM: its RT unit, its queued and running warps, and the phase
/// summary that gates its phase loop.
///
/// `due` and `waiting` summarize the running warps' phases: the
/// earliest Raygen/Shade deadline (`u64::MAX` for none) and the number
/// of warps in WaitRt. The phase loop recomputes both whenever it runs,
/// and [`Engine::retire_warp`] lowers `due` when it starts a Shade; no
/// other code changes a running warp's phase.
///
/// The gate rests on one invariant: *a warp that stays in WaitRt across
/// steps holds a ray.* A warp enters WaitRt only inside a phase-loop
/// run (a Raygen or Shade deadline fell due) or at activation (which
/// runs the loop), and that same run either finishes it (no lane has a
/// ray) or leaves it waiting with a ray. Its lanes' rays change only
/// when its own trace retires, which needs InRt. So between runs, a
/// waiting warp can only move when the RT unit has a free slot.
struct Sm {
    rt: RtUnit,
    queue: VecDeque<usize>,
    running: Vec<usize>,
    /// Earliest Raygen/Shade `until` over the running warps.
    due: u64,
    /// Running warps in WaitRt.
    waiting: usize,
}

impl Sm {
    /// The phase summary derived from the running warps: what the
    /// cached `due` and `waiting` must equal between steps.
    fn derive_phase_summary(&self, warps: &[Warp]) -> (u64, usize) {
        let (mut due, mut waiting) = (u64::MAX, 0);
        for &w in &self.running {
            match warps[w].phase {
                Phase::Raygen { until } | Phase::Shade { until } => due = due.min(until),
                Phase::WaitRt => waiting += 1,
                Phase::InRt | Phase::Done => {}
            }
        }
        (due, waiting)
    }

    /// True if the phase loop can change a warp this step: a deadline
    /// is due, or a waiting warp can take a free warp-buffer slot. (A
    /// step that activates a warp runs the loop too.)
    fn phase_due(&self, now: u64) -> bool {
        self.due <= now || (self.waiting > 0 && self.rt.has_free_slot())
    }
}

struct Engine<'s> {
    scene: &'s Scene,
    cfg: GpuConfig,
    kind: ShaderKind,
    width: usize,
    height: usize,
    /// Workload source, one thread per pixel (thread id == pixel
    /// index): live shader threads or recorded replay streams.
    front: FrontEnd,
    warps: Vec<Warp>,
    sms: Vec<Sm>,
    /// Cached earliest cycle at which each SM can act again (`u64::MAX`
    /// once it has drained), recomputed only when that SM is stepped.
    /// An SM whose entry exceeds `now` provably performs a no-op step
    /// (all its state is private to its step section, and issued memory
    /// responses carry fixed ready times), so [`Engine::step_cycle`]
    /// skips it, and [`Engine::next_time`] takes the minimum of this
    /// cache instead of rescanning every warp of every SM.
    sm_next: Vec<u64>,
    mem: MemoryHierarchy,
    /// This frame's observation point: every event and invariant check
    /// of the engine, its RT units and the memory hierarchy.
    probe: Probe,
    recorder: Recorder,
    stalls: StallBreakdown,
    intervals: IntervalSeries,
    timeline_warp: Option<usize>,
    timeline: Vec<TimelineSample>,
    retired_buf: Vec<TraceResult>,
    slowest_warp: u64,
    trace_latencies: TraceLatencies,
    /// Per-frame sum of every reordering pass's counters.
    reorder_stats: ReorderStats,
    /// Step every SM on every cycle ([`Simulation::with_dense_stepping`]).
    dense: bool,
}

impl<'s> Engine<'s> {
    fn new(sim: &Simulation<'s>, kind: ShaderKind, width: usize, height: usize) -> Self {
        let pixels = width * height;
        let threads: Vec<ShaderThread> = (0..pixels)
            .map(|p| {
                if kind.is_query() {
                    // Query workloads: thread p probes query point p
                    // (the frame raster is just a thread grid).
                    return ShaderThread::begin_query(sim.scene, kind, p, sim.sample_salt);
                }
                let x = p % width;
                let y = p / width;
                let u = (x as f32 + 0.5) / width as f32;
                let v = (y as f32 + 0.5) / height as f32;
                ShaderThread::begin_with_salt(sim.scene, p, u, v, sim.sample_salt)
            })
            .collect();
        Engine::with_front(sim, kind, width, height, FrontEnd::Live(threads))
    }

    fn with_front(
        sim: &Simulation<'s>,
        kind: ShaderKind,
        width: usize,
        height: usize,
        front: FrontEnd,
    ) -> Self {
        let cfg = sim.config.clone();
        sim.recorder.begin(front.len());
        let sm_count = cfg.sm_count();
        let sms: Vec<Sm> = (0..sm_count)
            .map(|i| Sm {
                rt: RtUnit::new(i, &cfg, sim.policy),
                queue: VecDeque::new(),
                running: Vec::new(),
                due: u64::MAX,
                waiting: 0,
            })
            .collect();
        let mem = MemoryHierarchy::new(&cfg.mem);
        let interval = cfg.sample_interval.max(1);
        let sm_next = vec![0u64; sm_count];
        Engine {
            scene: sim.scene,
            cfg,
            kind,
            width,
            height,
            front,
            warps: Vec::new(),
            sms,
            sm_next,
            mem,
            probe: Probe::new(&sim.tracer, &sim.checker),
            recorder: sim.recorder.clone(),
            stalls: StallBreakdown::default(),
            intervals: IntervalSeries {
                interval,
                samples: Vec::new(),
            },
            timeline_warp: sim.timeline_warp,
            timeline: Vec::new(),
            retired_buf: Vec::new(),
            slowest_warp: 0,
            trace_latencies: TraceLatencies::new(),
            reorder_stats: ReorderStats::default(),
            dense: sim.dense,
        }
    }

    /// Applies the configured ray-reordering policy to a thread order
    /// about to be chunked into warps: a stable bucketed counting sort
    /// on each thread's *current* ray key (primary ray at first-wave
    /// formation, next bounce at a compaction re-form). `Off` returns
    /// the order untouched — bitwise the pre-reordering path.
    ///
    /// Works identically for live and replay front ends: both answer
    /// [`FrontEnd::query_lane`] with the thread's next un-submitted
    /// ray, which is why one unordered trace replays every reorder
    /// policy.
    fn reorder_threads(&mut self, threads: Vec<u32>, wave: u32, now: u64) -> Vec<u32> {
        let policy = self.cfg.reorder;
        if policy == ReorderPolicy::Off {
            return threads;
        }
        let bounds = self.scene.image.root_bounds();
        let front = &self.front;
        let (order, pass) = reorder::reorder_by_key(&threads, self.cfg.reorder_buckets, |t| {
            match front.query_lane(t as usize).0 {
                Some(ray) => reorder::ray_key(policy, &ray, &bounds),
                // A dead lane in the order (possible only at wave 0
                // without compaction) keys lowest, preserving input
                // order among its peers.
                None => 0,
            }
        });
        self.probe.emit(now, || EventKind::Reorder {
            wave,
            rays: pass.keys_computed as u32,
            moved: pass.rays_moved as u32,
            buckets_occupied: pass.bucket_occupancy_sum as u32,
        });
        self.reorder_stats.add(&pass);
        order
    }

    fn any_ray(&self, w: usize) -> bool {
        self.warps[w]
            .members
            .iter()
            .any(|&t| self.front.has_ray(t as usize))
    }

    /// Creates a wave of warps over the given lane groups and queues
    /// them on the SMs (Gigathread-style round-robin). `one_shot` warps
    /// retire after a single trace+shade (compaction mode).
    fn spawn_wave(
        &mut self,
        groups: Vec<Vec<u32>>,
        iteration: u32,
        raygen: bool,
        one_shot: bool,
        now: u64,
    ) {
        self.warps.clear();
        for sm in &mut self.sms {
            sm.queue.clear();
            debug_assert!(sm.running.is_empty(), "waves must not overlap");
        }
        let sm_count = self.sms.len();
        // New work arrived on every SM: invalidate the next-event cache
        // (an entry of `now` makes every SM due immediately, exactly as
        // the old `fill(0)` did).
        self.sm_next.fill(now);
        for (w, members) in groups.into_iter().enumerate() {
            debug_assert!(members.len() <= WARP_SIZE);
            self.warps.push(Warp {
                members,
                iteration,
                phase: Phase::Raygen { until: 0 },
                needs_raygen: raygen,
                one_shot,
                started: 0,
                finished: 0,
                wait_since: 0,
            });
            self.sms[w % sm_count].queue.push_back(w);
        }
    }

    fn run(mut self) -> FrameResult {
        let mut now = 0u64;
        let mut next_sample = self.intervals.interval;
        if !self.cfg.compaction {
            // One persistent warp per 32 pixels for the whole frame,
            // in pixel order or, with reordering on, sorted by
            // primary-ray key.
            let order = self.reorder_threads((0..self.front.len() as u32).collect(), 0, now);
            let groups = order.chunks(WARP_SIZE).map(|c| c.to_vec()).collect();
            self.spawn_wave(groups, 0, true, false, now);
            now = self.drain(now, &mut next_sample);
        } else {
            // Wave-synchronous execution with per-bounce compaction.
            let mut wave = 0u32;
            loop {
                let alive: Vec<u32> = (0..self.front.len() as u32)
                    .filter(|&t| self.front.has_ray(t as usize))
                    .collect();
                if alive.is_empty() {
                    break;
                }
                if wave > 0 {
                    now += self.cfg.compaction_overhead_cycles;
                }
                // Reordering rides the compaction pass: the live-thread
                // list is key-sorted before being cut into dense warps
                // (each thread keyed on its *next* ray), so every wave
                // re-packs for coherence at no extra modeled cost.
                let alive = self.reorder_threads(alive, wave, now);
                let groups = alive.chunks(WARP_SIZE).map(|c| c.to_vec()).collect();
                self.spawn_wave(groups, wave, wave == 0, true, now);
                now = self.drain(now, &mut next_sample);
                wave += 1;
            }
        }
        self.finish(now)
    }

    /// Runs the cycle loop until every warp of the current wave is done;
    /// returns the finishing cycle.
    fn drain(&mut self, start: u64, next_sample: &mut u64) -> u64 {
        let mut now = start;
        let mut unfinished = self.warps.len();
        let mut guard = 0u64;
        while unfinished > 0 {
            unfinished -= self.step_cycle(now);
            guard += 1;
            assert!(guard < 2_000_000_000, "simulation failed to converge");
            if unfinished == 0 {
                break;
            }
            let next = if self.dense {
                now + 1
            } else {
                self.next_time(now)
            };
            debug_assert!(next > now);
            // Take any interval samples that fall inside the skipped
            // window — state is constant while no SM acts.
            while *next_sample <= next {
                self.take_sample(*next_sample);
                *next_sample += self.intervals.interval;
            }
            now = next;
        }
        now
    }

    /// Advances every SM by one cycle; returns how many warps finished.
    fn step_cycle(&mut self, now: u64) -> usize {
        let mut finished = 0;
        for sm_idx in 0..self.sms.len() {
            // An SM whose cached next-event time lies in the future has
            // nothing to do this cycle: stepping it would be a no-op
            // (the cache is recomputed whenever the SM's state changes,
            // and nothing outside its own step section mutates it).
            if self.sm_next[sm_idx] > now && !self.dense {
                continue;
            }
            // Activate queued thread blocks up to the per-SM limit.
            let mut activated = false;
            while self.sms[sm_idx].running.len() < self.cfg.max_tbs_per_sm {
                let Some(w) = self.sms[sm_idx].queue.pop_front() else {
                    break;
                };
                activated = true;
                self.warps[w].started = now;
                self.probe.emit(now, || EventKind::WarpIssue {
                    sm: sm_idx as u32,
                    warp: w as u32,
                });
                if self.warps[w].needs_raygen {
                    self.warps[w].phase = Phase::Raygen {
                        until: now + self.cfg.raygen_cycles,
                    };
                    self.stalls.alu += self.cfg.raygen_cycles;
                } else {
                    self.warps[w].phase = Phase::WaitRt;
                    self.warps[w].wait_since = now;
                }
                self.sms[sm_idx].running.push(w);
            }

            // Phase transitions; `reap` notes a warp that finished. The
            // loop runs only when it can change a warp (see `Sm`); the
            // dense reference runs it on every step.
            let reap = (self.dense || activated || self.sms[sm_idx].phase_due(now))
                && self.phase_loop(sm_idx, now);

            // RT unit cycle.
            self.sms[sm_idx].rt.step(
                now,
                &mut self.mem,
                self.scene,
                &self.cfg,
                &mut self.probe,
                &mut self.retired_buf,
            );
            let retired = std::mem::take(&mut self.retired_buf);
            for res in &retired {
                self.retire_warp(sm_idx, res, now);
            }
            self.retired_buf = retired;
            self.retired_buf.clear();

            // Reap finished warps.
            if reap {
                let warps = &self.warps;
                let probe = &mut self.probe;
                let before = self.sms[sm_idx].running.len();
                let mut slowest = self.slowest_warp;
                self.sms[sm_idx].running.retain(|&w| {
                    if warps[w].phase == Phase::Done {
                        slowest = slowest.max(warps[w].finished.saturating_sub(warps[w].started));
                        probe.emit(now, || EventKind::WarpRetire {
                            sm: sm_idx as u32,
                            warp: w as u32,
                        });
                        false
                    } else {
                        true
                    }
                });
                self.slowest_warp = slowest;
                finished += before - self.sms[sm_idx].running.len();
            }

            // The phase summary must match the warps it summarizes.
            let (sm, warps) = (&self.sms[sm_idx], &self.warps);
            let cached = (sm.due, sm.waiting);
            self.probe.check(
                now,
                || cached == sm.derive_phase_summary(warps),
                || {
                    format!(
                        "SM {sm_idx}: phase summary (due, waiting) is {cached:?}, its warps give {:?}",
                        sm.derive_phase_summary(warps)
                    )
                },
            );

            // Refresh this SM's next-event cache now that its step is
            // complete; it stays valid until the SM is stepped again.
            // The dense reference steps every SM anyway and never
            // consults it.
            if !self.dense {
                self.sm_next[sm_idx] = self.sm_next_time(sm_idx, now);
            }
        }

        // Fig. 11 timeline: capture the designated warp while resident.
        if let Some(tw) = self.timeline_warp {
            let sm = tw % self.sms.len();
            if let Some(mask) = self.sms[sm].rt.busy_mask_of(tw) {
                if self.timeline.last().map(|s| s.cycle) != Some(now) {
                    self.timeline.push(TimelineSample { cycle: now, mask });
                }
            }
        }
        finished
    }

    /// Moves SM `sm_idx`'s running warps through their due phase
    /// changes, issuing `trace_ray`s into free warp-buffer slots, and
    /// recomputes the SM's phase summary. Returns true if a warp
    /// finished.
    fn phase_loop(&mut self, sm_idx: usize, now: u64) -> bool {
        let mut reap = false;
        for i in 0..self.sms[sm_idx].running.len() {
            let w = self.sms[sm_idx].running[i];
            match self.warps[w].phase {
                Phase::Raygen { until } if until <= now => {
                    self.warps[w].phase = Phase::WaitRt;
                    self.warps[w].wait_since = now;
                }
                Phase::Shade { until } if until <= now => {
                    if !self.warps[w].one_shot && self.any_ray(w) {
                        self.warps[w].phase = Phase::WaitRt;
                        self.warps[w].wait_since = now;
                    } else {
                        self.warps[w].phase = Phase::Done;
                        self.warps[w].finished = now;
                        reap = true;
                    }
                }
                _ => {}
            }
            if self.warps[w].phase == Phase::WaitRt {
                if !self.any_ray(w) {
                    // Nothing to trace (can happen for fully masked
                    // warps): skip straight to done.
                    self.warps[w].phase = Phase::Done;
                    self.warps[w].finished = now;
                    reap = true;
                } else if self.sms[sm_idx].rt.has_free_slot() {
                    let query = self.build_query(w);
                    self.recorder.record_issue(
                        sm_idx as u32,
                        w as u32,
                        self.warps[w].iteration,
                        &self.warps[w].members,
                        &query,
                    );
                    let ok = self.sms[sm_idx]
                        .rt
                        .issue(query, now, self.scene, &mut self.probe);
                    debug_assert!(ok);
                    self.warps[w].phase = Phase::InRt;
                }
            }
        }
        let sm = &mut self.sms[sm_idx];
        (sm.due, sm.waiting) = sm.derive_phase_summary(&self.warps);
        reap
    }

    fn build_query(&mut self, w: usize) -> TraceQuery {
        let warp = &self.warps[w];
        let mut rays = [None; WARP_SIZE];
        let mut t_max = [f32::INFINITY; WARP_SIZE];
        for (i, &t) in warp.members.iter().enumerate() {
            let (ray, bound) = self.front.query_lane(t as usize);
            rays[i] = ray;
            t_max[i] = bound;
        }
        TraceQuery {
            warp: w,
            rays,
            t_max,
            any_hit: self.kind.wants_anyhit(warp.iteration),
            gather: self.kind.is_gather(),
        }
    }

    /// Hands warp `res.warp`'s trace results to its threads and starts
    /// its Shade phase on SM `sm_idx`.
    fn retire_warp(&mut self, sm_idx: usize, res: &TraceResult, now: u64) {
        let w = res.warp;
        self.trace_latencies
            .record(res.retired_at.saturating_sub(res.issued_at));
        // The whole trace_ray episode (waiting for a slot + traversal)
        // stalls on the RT unit.
        self.stalls.rt += now.saturating_sub(self.warps[w].wait_since);
        for i in 0..self.warps[w].members.len() {
            let hit = res.hits[i];
            let t = self.warps[w].members[i] as usize;
            // This lane's slice of the (lane-sorted) gather collection;
            // empty — with no allocation — for non-gather queries.
            let lane = i as u8;
            let start = res.gathered.partition_point(|&(l, _)| l < lane);
            let end = start + res.gathered[start..].partition_point(|&(l, _)| l == lane);
            let gathered: Vec<u32> = res.gathered[start..end].iter().map(|&(_, g)| g).collect();
            self.front
                .resume(t, self.kind, &self.cfg, self.scene, hit, &gathered);
        }
        let warp = &mut self.warps[w];
        warp.iteration += 1;
        let shade =
            self.cfg.shade_mem_cycles + self.cfg.shade_alu_cycles + self.cfg.shade_sfu_cycles;
        self.stalls.mem += self.cfg.shade_mem_cycles;
        self.stalls.alu += self.cfg.shade_alu_cycles;
        self.stalls.sfu += self.cfg.shade_sfu_cycles;
        warp.phase = Phase::Shade { until: now + shade };
        let sm = &mut self.sms[sm_idx];
        sm.due = sm.due.min(now + shade);
    }

    /// Earliest cycle (> `now`) at which SM `sm_idx` can act, or
    /// `u64::MAX` if it is fully drained.
    fn sm_next_time(&self, sm_idx: usize, now: u64) -> u64 {
        let sm = &self.sms[sm_idx];
        if !sm.queue.is_empty() && sm.running.len() < self.cfg.max_tbs_per_sm {
            return now + 1;
        }
        if sm.waiting > 0 && sm.rt.has_free_slot() {
            return now + 1;
        }
        let mut next = sm.due.max(now + 1);
        if let Some(t) = sm.rt.next_event(now + 1) {
            next = next.min(t.max(now + 1));
        }
        next
    }

    /// The next cycle after `now` at which any SM or warp can act: the
    /// minimum of `sm_next`, or `now + 1` once every SM has drained.
    ///
    /// The fold reads one entry per SM, as [`Engine::step_cycle`]
    /// already does on every stepped cycle to find the SMs that are
    /// due, so it adds a compare per SM to a pass of the same length.
    fn next_time(&mut self, now: u64) -> u64 {
        let t = self.sm_next.iter().copied().min().unwrap_or(u64::MAX);
        if t == u64::MAX {
            return now + 1;
        }
        // A next wake in the past would mean the per-SM next-event
        // cache went stale and the engine skipped work (the `.max`
        // below would silently paper over it).
        self.probe.check(
            now,
            || t > now,
            || format!("next SM wake at cycle {t} is not after {now}"),
        );
        t.max(now + 1)
    }

    fn take_sample(&mut self, cycle: u64) {
        let mut agg = StatusCounts::default();
        let mut occupied = 0usize;
        for sm in &self.sms {
            let s = sm.rt.sample_status();
            agg.busy += s.busy;
            agg.waiting += s.waiting;
            agg.inactive += s.inactive;
            occupied += sm.rt.occupied();
        }
        let mem = self.mem.stats();
        self.intervals.samples.push(IntervalSample {
            cycle,
            busy: agg.busy,
            waiting: agg.waiting,
            inactive: agg.inactive,
            warp_slots_occupied: occupied,
            l1_accesses: mem.l1.accesses,
            l1_hits: mem.l1.hits,
            l2_accesses: mem.l2.accesses,
            l2_hits: mem.l2.hits,
            dram_bytes: mem.dram_bytes,
            dram_busy_cycles: mem.dram.busy_cycles,
        });
    }

    fn finish(mut self, now: u64) -> FrameResult {
        let image: Vec<Rgb> = self.front.colors();
        let query_results = self.front.query_answers(self.kind);
        let slowest = self.slowest_warp;
        let mut events = EnergyEvents::default();
        let mut predictor = PredictorStats::default();
        let mut rays = 0u64;
        for sm in &self.sms {
            events.add(&sm.rt.events);
            rays += sm.rt.rays_issued;
            if let Some(p) = sm.rt.predictor_stats() {
                predictor.add(&p);
            }
        }
        let mem_stats = self.mem.stats();
        let energy = self.cfg.power.report(
            &events,
            &mem_stats,
            now,
            self.cfg.sm_count(),
            self.cfg.mem.core_clock_mhz,
        );
        // Ensure at least one sample exists for short runs.
        if self.intervals.samples.is_empty() {
            self.take_sample(now);
        }
        self.probe.finish(now);
        FrameResult {
            image,
            width: self.width,
            height: self.height,
            cycles: now,
            mem: mem_stats,
            rays,
            events,
            energy,
            stalls: self.stalls,
            intervals: self.intervals,
            slowest_warp_cycles: slowest,
            dram_utilization: self.mem.dram_utilization(now),
            predictor,
            trace_latencies: self.trace_latencies,
            timeline: self.timeline,
            reorder: self.reorder_stats,
            query_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_scenes::SceneId;

    fn run(id: SceneId, policy: TraversalPolicy, kind: ShaderKind, res: usize) -> FrameResult {
        let scene = id.build(2);
        let cfg = GpuConfig::small(2);
        Simulation::new(&scene, &cfg, policy)
            .run_frame(kind, res, res)
            .unwrap()
    }

    #[test]
    fn images_are_identical_across_policies() {
        for id in [SceneId::Wknd, SceneId::Crnvl, SceneId::Spnza] {
            let scene = id.build(2);
            let cfg = GpuConfig::small(2);
            let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            assert_eq!(
                base.image, coop.image,
                "{id}: CoopRT must be functionally exact"
            );
        }
    }

    #[test]
    fn coop_is_faster_on_a_divergent_scene() {
        let scene = SceneId::Crnvl.build(3);
        let cfg = GpuConfig::small(2);
        let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        assert!(
            coop.cycles < base.cycles,
            "coop {} vs base {}",
            coop.cycles,
            base.cycles
        );
    }

    #[test]
    fn coop_improves_thread_utilization() {
        let scene = SceneId::Party.build(3);
        let cfg = GpuConfig::small(2);
        let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        assert!(
            coop.intervals.avg_utilization() > base.intervals.avg_utilization(),
            "coop {:.3} vs base {:.3}",
            coop.intervals.avg_utilization(),
            base.intervals.avg_utilization()
        );
    }

    fn status(busy: usize, waiting: usize, inactive: usize) -> IntervalSample {
        IntervalSample {
            busy,
            waiting,
            inactive,
            ..IntervalSample::default()
        }
    }

    #[test]
    fn an_empty_interval_series_summarizes_to_zero() {
        let series = IntervalSeries::default();
        assert_eq!(series.avg_utilization(), 0.0);
        assert_eq!(series.status_distribution(), [0.0; 3]);
    }

    #[test]
    fn zero_resident_samples_are_skipped_by_the_summaries() {
        let idle = IntervalSeries {
            interval: 500,
            samples: vec![status(0, 0, 0)],
        };
        assert_eq!(idle.avg_utilization(), 0.0);
        assert_eq!(idle.status_distribution(), [0.0; 3]);
        // Beside a resident sample, the empty one neither halves the
        // mean nor shifts the distribution.
        let mixed = IntervalSeries {
            interval: 500,
            samples: vec![status(3, 1, 0), status(0, 0, 0)],
        };
        assert_eq!(mixed.avg_utilization(), 0.75);
        assert_eq!(mixed.status_distribution(), [0.75, 0.25, 0.0]);
    }

    #[test]
    fn interval_summaries_match_hand_computed_values() {
        // Busy fractions 2/4, 1/4 and 0/4 average to 0.25; the 12
        // sampled threads split 3 busy, 5 waiting, 4 inactive.
        let series = IntervalSeries {
            interval: 500,
            samples: vec![status(2, 2, 0), status(1, 1, 2), status(0, 2, 2)],
        };
        assert_eq!(series.avg_utilization(), 0.25);
        assert_eq!(
            series.status_distribution(),
            [3.0 / 12.0, 5.0 / 12.0, 4.0 / 12.0]
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(
            SceneId::Bunny,
            TraversalPolicy::CoopRt,
            ShaderKind::PathTrace,
            8,
        );
        let b = run(
            SceneId::Bunny,
            TraversalPolicy::CoopRt,
            ShaderKind::PathTrace,
            8,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.image, b.image);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn image_has_content() {
        let r = run(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
        );
        let lum: f32 = r.image.iter().map(|c| c.luminance()).sum();
        assert!(lum > 0.0, "a daylight scene cannot render black");
        assert_eq!(r.width, 8);
        assert_eq!(r.height, 8);
    }

    #[test]
    fn ao_and_sh_shaders_run() {
        for kind in [ShaderKind::AmbientOcclusion, ShaderKind::Shadow] {
            let r = run(SceneId::Bath, TraversalPolicy::CoopRt, kind, 8);
            assert!(r.cycles > 0);
            let lum: f32 = r.image.iter().map(|c| c.luminance()).sum();
            assert!(lum > 0.0, "{kind:?} image should not be black");
        }
    }

    #[test]
    fn query_shaders_run_and_match_across_policies() {
        for (id, kind) in [
            (SceneId::Quni, ShaderKind::Knn),
            (SceneId::Qclu, ShaderKind::Radius),
            (SceneId::Qamr, ShaderKind::Contain),
        ] {
            let scene = id.build(2);
            let cfg = GpuConfig::small(2);
            let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
                .run_frame(kind, 8, 8)
                .unwrap();
            let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
                .run_frame(kind, 8, 8)
                .unwrap();
            assert!(base.cycles > 0 && coop.cycles > 0);
            assert_eq!(base.query_results.len(), 64, "one answer per query point");
            assert_eq!(
                base.query_results, coop.query_results,
                "{id}/{kind:?}: answers must be policy-invariant"
            );
            assert_eq!(
                base.image, coop.image,
                "{id}/{kind:?}: answer-derived images must match"
            );
            assert!(
                base.query_results.iter().any(|r| !r.is_empty()),
                "{id}/{kind:?}: some query should find something"
            );
        }
    }

    #[test]
    fn query_shaders_are_rejected_without_a_domain() {
        let scene = SceneId::Wknd.build(2);
        let cfg = GpuConfig::small(2);
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline);
        for kind in [ShaderKind::Knn, ShaderKind::Radius, ShaderKind::Contain] {
            assert_eq!(
                sim.run_frame(kind, 4, 4).unwrap_err(),
                ConfigError::QueryDomainMismatch { shader: kind.key() }
            );
        }
        // Containment on a point domain (no cells) is also a mismatch…
        let points = SceneId::Quni.build(2);
        let sim = Simulation::new(&points, &cfg, TraversalPolicy::Baseline);
        assert_eq!(
            sim.run_frame(ShaderKind::Contain, 4, 4).unwrap_err(),
            ConfigError::QueryDomainMismatch { shader: "cont" }
        );
        // …while render shaders ignore the domain entirely.
        assert!(sim.run_frame(ShaderKind::PathTrace, 4, 4).is_ok());
    }

    #[test]
    fn render_frames_carry_no_query_results() {
        let r = run(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            4,
        );
        assert!(r.query_results.is_empty());
    }

    #[test]
    fn ao_sh_match_across_policies() {
        for kind in [ShaderKind::AmbientOcclusion, ShaderKind::Shadow] {
            let scene = SceneId::Ref.build(2);
            let cfg = GpuConfig::small(2);
            let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
                .run_frame(kind, 8, 8)
                .unwrap();
            let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
                .run_frame(kind, 8, 8)
                .unwrap();
            assert_eq!(base.image, coop.image, "{kind:?}");
        }
    }

    #[test]
    fn stalls_are_dominated_by_rt() {
        let r = run(
            SceneId::Spnza,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            12,
        );
        let f = r.stalls.fractions();
        assert!(f[0] > 0.5, "RT should dominate stalls (Fig. 1), got {f:?}");
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slowest_warp_is_at_most_total() {
        let r = run(
            SceneId::Ship,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
        );
        assert!(r.slowest_warp_cycles <= r.cycles);
        assert!(r.slowest_warp_cycles > 0);
    }

    #[test]
    fn timeline_capture_works() {
        let scene = SceneId::Bath.build(2);
        let cfg = GpuConfig::small(2);
        let r = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .with_timeline_warp(0)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        assert!(
            !r.timeline.is_empty(),
            "warp 0 traced, timeline must have samples"
        );
        assert!(r.timeline.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn coop_does_not_change_total_triangle_work_much() {
        // CoopRT parallelizes traversal; it must not blow up the amount
        // of intersection work (some duplication from weaker pruning is
        // expected, but bounded).
        let scene = SceneId::Bunny.build(3);
        let cfg = GpuConfig::small(2);
        let base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        let coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        assert!(
            (coop.events.box_tests as f64) < 2.0 * base.events.box_tests as f64,
            "coop {} vs base {}",
            coop.events.box_tests,
            base.events.box_tests
        );
    }

    #[test]
    fn subwarp_scopes_run_and_stay_correct() {
        let scene = SceneId::Fox.build(2);
        let base_cfg = GpuConfig::small(2);
        let reference = Simulation::new(&scene, &base_cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        for sw in [4usize, 8, 16, 32] {
            let cfg = GpuConfig::small(2).with_subwarp(sw);
            let r = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            assert_eq!(r.image, reference.image, "subwarp {sw}");
        }
    }

    #[test]
    fn trace_latencies_are_collected_and_coop_compresses_the_tail() {
        let scene = SceneId::Fox.build(3);
        let cfg = GpuConfig::small(2);
        let mut base = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        let mut coop = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        assert!(!base.trace_latencies.is_empty());
        assert_eq!(
            base.trace_latencies.len() as u64,
            base.events.trace_instructions,
            "one latency sample per trace instruction"
        );
        assert!(
            coop.trace_latencies.quantile(0.99) < base.trace_latencies.quantile(0.99),
            "coop p99 {} vs base p99 {}",
            coop.trace_latencies.quantile(0.99),
            base.trace_latencies.quantile(0.99)
        );
    }

    #[test]
    fn accumulation_averages_samples() {
        let scene = SceneId::Wknd.build(2);
        let cfg = GpuConfig::small(2);
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt);
        let (accum, frames) = sim.run_accumulated(ShaderKind::PathTrace, 8, 8, 3).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(accum.len(), 64);
        // Distinct salts give distinct sample images.
        assert_ne!(frames[0].image, frames[1].image);
        // The accumulation is the per-pixel average of the samples.
        for (p, acc) in accum.iter().enumerate() {
            let mean_r: f32 = frames.iter().map(|f| f.image[p].r).sum::<f32>() / 3.0;
            assert!((acc.r - mean_r).abs() < 1e-5);
        }
        // Salt 0 must reproduce the plain run (backwards compatibility).
        let plain = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        assert_eq!(frames[0].image, plain.image);
    }

    #[test]
    fn energy_report_is_consistent() {
        let r = run(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
        );
        assert!(r.energy.total_j() > 0.0);
        assert!(r.energy.avg_power_w() > 0.0);
        assert_eq!(r.energy.cycles, r.cycles);
    }

    #[test]
    fn disabling_node_elimination_is_functionally_neutral_but_wasteful() {
        // Car: a dense overlapping blob where min_thit pruning bites.
        // (At tiny detail levels pruning never fires, so use detail 8.)
        let scene = SceneId::Car.build(8);
        let with = GpuConfig::small(2);
        let mut without = GpuConfig::small(2);
        without.node_elimination = false;
        let a = Simulation::new(&scene, &with, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 16, 16)
            .unwrap();
        let b = Simulation::new(&scene, &without, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 16, 16)
            .unwrap();
        assert_eq!(a.image, b.image, "pruning must not change results");
        assert!(
            b.events.triangle_tests > a.events.triangle_tests,
            "without pruning, more primitives are tested ({} vs {})",
            b.events.triangle_tests,
            a.events.triangle_tests
        );
        assert!(b.cycles >= a.cycles);
    }

    #[test]
    fn compaction_is_functionally_identical() {
        // Wald-style per-bounce compaction re-packs live threads into
        // new warps; pixel results must be untouched.
        for kind in [ShaderKind::PathTrace, ShaderKind::AmbientOcclusion] {
            let scene = SceneId::Crnvl.build(2);
            let plain = GpuConfig::small(2);
            let mut compact = GpuConfig::small(2);
            compact.compaction = true;
            let a = Simulation::new(&scene, &plain, TraversalPolicy::Baseline)
                .run_frame(kind, 10, 10)
                .unwrap();
            let b = Simulation::new(&scene, &compact, TraversalPolicy::Baseline)
                .run_frame(kind, 10, 10)
                .unwrap();
            assert_eq!(a.image, b.image, "{kind:?}");
        }
    }

    #[test]
    fn compaction_composes_with_cooprt() {
        let scene = SceneId::Fox.build(2);
        let mut cfg = GpuConfig::small(2);
        cfg.compaction = true;
        let base = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        let both = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        assert_eq!(base.image, both.image);
        assert!(both.cycles > 0);
    }

    #[test]
    fn compaction_issues_fewer_trace_instructions() {
        // In a divergent open scene most threads die after a few
        // bounces; with compaction the later waves contain almost no
        // inactive lanes, so the inactive status fraction drops.
        let scene = SceneId::Crnvl.build(6);
        let mut plain = GpuConfig::small(2);
        plain.sample_interval = 50; // dense sampling for a small frame
        let mut compact = plain.clone();
        compact.compaction = true;
        let a = Simulation::new(&scene, &plain, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 40, 40)
            .unwrap();
        let b = Simulation::new(&scene, &compact, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 40, 40)
            .unwrap();
        assert_eq!(a.image, b.image);
        // Re-packing live threads into dense warps means fewer
        // trace_ray instructions carry the same set of rays.
        assert!(
            b.events.trace_instructions < a.events.trace_instructions,
            "compaction must issue fewer trace instructions: {} vs {}",
            b.events.trace_instructions,
            a.events.trace_instructions
        );
    }

    #[test]
    fn ray_path_predictor_is_functionally_neutral() {
        // Ray-path prediction redirects any-hit traversals to a
        // predicted entry node; the go-up-level fallback restores
        // full-tree coverage, so occlusion answers — and therefore
        // images — are bitwise identical under both policies. PT is
        // closest-hit only and must be untouched too.
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            for kind in [
                ShaderKind::PathTrace,
                ShaderKind::AmbientOcclusion,
                ShaderKind::Shadow,
            ] {
                let scene = SceneId::Bath.build(2);
                let plain = GpuConfig::small(2);
                let pred = GpuConfig::small(2).with_predict(PredictPolicy::RayPath);
                let a = Simulation::new(&scene, &plain, policy)
                    .run_frame(kind, 8, 8)
                    .unwrap();
                let b = Simulation::new(&scene, &pred, policy)
                    .run_frame(kind, 8, 8)
                    .unwrap();
                assert_eq!(a.image, b.image, "{policy:?} {kind:?}");
            }
        }
    }

    #[test]
    fn ray_path_predictor_learns_and_saves_fetches() {
        // Coherent AO rays hit the same occluders; after warm-up the
        // table supplies entry nodes a few levels down, so predicted
        // hits land without refetching the skipped ancestors.
        let scene = SceneId::Bath.build(6);
        let cfg = GpuConfig::small(2).with_predict(PredictPolicy::RayPath);
        let f = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::AmbientOcclusion, 16, 16)
            .unwrap();
        let p = &f.predictor;
        assert!(p.path_lookups > 0, "any-hit rays must consult the table");
        assert!(p.path_updates > 0, "accepted occluders must train it");
        assert!(
            p.path_candidates > 0 && p.path_entry_hits > 0,
            "coherent AO rays must produce entry hits ({} candidates, {} hits)",
            p.path_candidates,
            p.path_entry_hits
        );
        assert!(
            p.node_fetches_saved > 0,
            "entry hits must translate into saved ancestor fetches"
        );
        // The predictor bills its table accesses to the energy model.
        assert_eq!(f.events.predict_lookups, p.path_lookups + p.path_updates);
        // Off leaves the whole family at zero.
        let off = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::Baseline)
            .run_frame(ShaderKind::AmbientOcclusion, 16, 16)
            .unwrap();
        assert_eq!(off.predictor.path_lookups, 0);
        assert_eq!(off.events.predict_lookups, 0);
    }

    #[test]
    fn ray_path_predictor_composes_with_reorder() {
        // Both front-end/RT-unit speculation axes at once must still
        // render the reference image.
        let scene = SceneId::Fox.build(3);
        let stacked = GpuConfig::small(2)
            .with_predict(PredictPolicy::RayPath)
            .with_reorder(crate::ReorderPolicy::Morton);
        let a = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::Shadow, 12, 12)
            .unwrap();
        let b = Simulation::new(&scene, &stacked, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::Shadow, 12, 12)
            .unwrap();
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn predictors_are_neutral_on_equal_t_ties() {
        // Doubled geometry: every surface is two coincident triangles,
        // so each hit ties at identical t between two primitive indices
        // and the traversal-order-independent accept filter (lowest
        // index wins at equal t) decides every pixel. Speculation —
        // which changes where traversal starts — must not be able to
        // flip the winner.
        use cooprt_math::{Aabb, Rgb, Vec3};
        use cooprt_scenes::{Camera, Material, SceneBuilder};
        let cam = Camera::look_at(Vec3::new(0.0, 2.0, 12.0), Vec3::ZERO, Vec3::Y, 60.0, 1.0);
        let tris = cooprt_scenes::scatter_clutter(
            Aabb::new(Vec3::new(-6.0, 0.5, -6.0), Vec3::new(6.0, 5.0, 6.0)),
            30,
            0.3..0.8,
            11,
        );
        let mut doubled = tris.clone();
        doubled.extend(tris); // exact duplicates => equal-t ties
        let scene = SceneBuilder::new("equal-t-ties", cam)
            .push(
                doubled,
                Material::Lambertian {
                    albedo: Rgb::splat(0.7),
                },
            )
            .build();
        for kind in [ShaderKind::PathTrace, ShaderKind::Shadow] {
            let plain = GpuConfig::small(2);
            let spec = GpuConfig::small(2).with_predict(PredictPolicy::RayPath);
            let a = Simulation::new(&scene, &plain, TraversalPolicy::CoopRt)
                .run_frame(kind, 10, 10)
                .unwrap();
            let b = Simulation::new(&scene, &spec, TraversalPolicy::CoopRt)
                .run_frame(kind, 10, 10)
                .unwrap();
            assert_eq!(a.image, b.image, "{kind:?}");
        }
    }

    #[test]
    fn zero_predictor_entries_rejected() {
        let scene = SceneId::Wknd.build(1);
        let mut cfg = GpuConfig::small(1).with_predict(PredictPolicy::RayPath);
        cfg.predictor_entries = 0;
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline);
        assert_eq!(
            sim.run_frame(ShaderKind::PathTrace, 8, 8).unwrap_err(),
            ConfigError::ZeroPredictorEntries
        );
        assert_eq!(
            sim.run_accumulated(ShaderKind::PathTrace, 8, 8, 1)
                .unwrap_err(),
            ConfigError::ZeroPredictorEntries
        );
        // With the predictor off the knob is ignored.
        let mut off = GpuConfig::small(1);
        off.predictor_entries = 0;
        assert!(Simulation::new(&scene, &off, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .is_ok());
        assert_eq!(
            ConfigError::ZeroPredictorEntries.to_string(),
            "the predictor needs at least one table entry"
        );
    }

    #[test]
    fn prefetching_is_functionally_neutral_and_issues_requests() {
        let scene = SceneId::Fox.build(3);
        let plain = GpuConfig::small(2);
        let mut pf = GpuConfig::small(2);
        pf.prefetch_children = true;
        let a = Simulation::new(&scene, &plain, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        let b = Simulation::new(&scene, &pf, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 10, 10)
            .unwrap();
        assert_eq!(a.image, b.image, "prefetching must not change results");
        assert_eq!(a.mem.prefetches, 0);
        assert!(
            b.mem.prefetches > 0,
            "prefetcher should have issued requests"
        );
    }

    #[test]
    fn lbu_rate_preserves_results() {
        let scene = SceneId::Party.build(2);
        let reference = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        let mut fast_lbu = GpuConfig::small(2);
        fast_lbu.lbu_moves_per_cycle = 4;
        let r = Simulation::new(&scene, &fast_lbu, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        assert_eq!(r.image, reference.image);
    }

    #[test]
    fn empty_frame_rejected() {
        let scene = SceneId::Wknd.build(1);
        let cfg = GpuConfig::small(1);
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline);
        assert_eq!(
            sim.run_frame(ShaderKind::PathTrace, 0, 8).unwrap_err(),
            ConfigError::EmptyFrame {
                width: 0,
                height: 8
            }
        );
        assert_eq!(
            sim.run_frame(ShaderKind::PathTrace, 8, 0).unwrap_err(),
            ConfigError::EmptyFrame {
                width: 8,
                height: 0
            }
        );
        assert_eq!(
            sim.run_accumulated(ShaderKind::PathTrace, 0, 8, 1)
                .unwrap_err(),
            ConfigError::EmptyFrame {
                width: 0,
                height: 8
            }
        );
    }

    #[test]
    fn reorder_is_functionally_neutral_and_changes_grouping() {
        // Reordering permutes warp membership (timing), never results.
        let scene = SceneId::Party.build(3);
        let plain = GpuConfig::small(2);
        let reference = Simulation::new(&scene, &plain, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 16, 16)
            .unwrap();
        assert_eq!(reference.reorder, crate::reorder::ReorderStats::default());
        for policy in [
            crate::ReorderPolicy::Morton,
            crate::ReorderPolicy::OctantHash,
        ] {
            for traversal in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
                let cfg = GpuConfig::small(2).with_reorder(policy);
                let r = Simulation::new(&scene, &cfg, traversal)
                    .run_frame(ShaderKind::PathTrace, 16, 16)
                    .unwrap();
                assert_eq!(r.image, reference.image, "{policy:?}/{traversal:?}");
                assert_eq!(r.reorder.passes, 1);
                assert_eq!(r.reorder.keys_computed, 256);
                // Primary rays share the camera origin, so Morton keys
                // collapse into one bucket at the first wave (a stable
                // no-op); the octant-major key separates directions and
                // must genuinely re-pack the warps.
                if policy == crate::ReorderPolicy::OctantHash {
                    assert!(r.reorder.rays_moved > 0, "{policy:?} must actually sort");
                }
            }
        }
    }

    #[test]
    fn reorder_composes_with_compaction_and_shaders() {
        let scene = SceneId::Crnvl.build(2);
        let reference = Simulation::new(&scene, &GpuConfig::small(2), TraversalPolicy::Baseline)
            .run_frame(ShaderKind::AmbientOcclusion, 10, 10)
            .unwrap();
        let mut cfg = GpuConfig::small(2).with_reorder(crate::ReorderPolicy::Morton);
        cfg.compaction = true;
        let r = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::AmbientOcclusion, 10, 10)
            .unwrap();
        assert_eq!(r.image, reference.image);
        // Compaction re-forms warps between waves; each wave reorders,
        // and secondary-ray origins scatter enough for Morton to move
        // rays for real.
        assert!(r.reorder.passes > 1, "got {} passes", r.reorder.passes);
        assert!(r.reorder.rays_moved > 0);
        assert!(r.reorder.avg_bucket_occupancy() >= 1.0);
    }

    #[test]
    fn reorder_is_deterministic() {
        let scene = SceneId::Fox.build(2);
        let cfg = GpuConfig::small(2).with_reorder(crate::ReorderPolicy::OctantHash);
        let a = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        let b = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 12, 12)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.image, b.image);
        assert_eq!(a.reorder, b.reorder);
    }

    #[test]
    fn zero_reorder_buckets_rejected() {
        let scene = SceneId::Wknd.build(1);
        let mut cfg = GpuConfig::small(1).with_reorder(crate::ReorderPolicy::Morton);
        cfg.reorder_buckets = 0;
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline);
        assert_eq!(
            sim.run_frame(ShaderKind::PathTrace, 8, 8).unwrap_err(),
            ConfigError::ZeroReorderBuckets
        );
        assert_eq!(
            sim.run_accumulated(ShaderKind::PathTrace, 8, 8, 1)
                .unwrap_err(),
            ConfigError::ZeroReorderBuckets
        );
        // Off ignores the bucket knob entirely.
        let mut off = GpuConfig::small(1);
        off.reorder_buckets = 0;
        assert!(Simulation::new(&scene, &off, TraversalPolicy::Baseline)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .is_ok());
        assert_eq!(
            ConfigError::ZeroReorderBuckets.to_string(),
            "ray reordering needs at least one sort bucket"
        );
    }

    /// Every entry point rejects `cfg` with `expected` under both
    /// policies, before an engine is built.
    fn assert_config_rejected(cfg: &GpuConfig, expected: ConfigError) {
        let scene = SceneId::Wknd.build(1);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let sim = Simulation::new(&scene, cfg, policy);
            assert_eq!(
                sim.run_frame(ShaderKind::PathTrace, 8, 8).unwrap_err(),
                expected
            );
            assert_eq!(
                sim.run_accumulated(ShaderKind::PathTrace, 8, 8, 2)
                    .unwrap_err(),
                expected
            );
            assert_eq!(
                sim.run_accumulated_with_threads(ShaderKind::PathTrace, 8, 8, 2, 1)
                    .unwrap_err(),
                expected
            );
            let replay = sim.replay_frame(
                ShaderKind::PathTrace,
                8,
                8,
                vec![Vec::new(); 64],
                vec![Rgb::BLACK; 64],
            );
            assert_eq!(replay.unwrap_err(), expected);
        }
    }

    #[test]
    fn zero_sms_rejected() {
        assert_config_rejected(&GpuConfig::small(0), ConfigError::ZeroSms);
        assert_eq!(
            ConfigError::ZeroSms.to_string(),
            "the GPU needs at least one SM"
        );
    }

    #[test]
    fn zero_warp_buffer_rejected() {
        let mut cfg = GpuConfig::small(1);
        cfg.warp_buffer_size = 0;
        assert_config_rejected(&cfg, ConfigError::ZeroWarpBuffer);
    }

    #[test]
    fn invalid_subwarp_rejected() {
        for size in [0, 1, 2, 5, 12, 64] {
            let mut cfg = GpuConfig::small(1);
            cfg.subwarp_size = size;
            assert_config_rejected(&cfg, ConfigError::InvalidSubwarp { size });
        }
        assert_eq!(
            ConfigError::InvalidSubwarp { size: 5 }.to_string(),
            "subwarp size must be 4, 8, 16 or 32, got 5"
        );
    }

    #[test]
    fn zero_tbs_per_sm_rejected() {
        let mut cfg = GpuConfig::small(1);
        cfg.max_tbs_per_sm = 0;
        assert_config_rejected(&cfg, ConfigError::ZeroTbsPerSm);
    }

    #[test]
    fn dense_stepping_reproduces_the_skipping_engine() {
        let scene = SceneId::Wknd.build(1);
        let cfg = GpuConfig::small(2);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let sim = Simulation::new(&scene, &cfg, policy);
            let sparse = sim.run_frame(ShaderKind::PathTrace, 8, 8).unwrap();
            let dense = sim
                .clone()
                .with_dense_stepping()
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            assert_eq!(dense.cycles, sparse.cycles, "{policy:?}");
            assert_eq!(dense.image, sparse.image, "{policy:?}");
            assert_eq!(dense.intervals.samples, sparse.intervals.samples);
        }
    }

    #[test]
    fn zero_spp_rejected() {
        let scene = SceneId::Wknd.build(1);
        let cfg = GpuConfig::small(1);
        let sim = Simulation::new(&scene, &cfg, TraversalPolicy::Baseline);
        assert_eq!(
            sim.run_accumulated(ShaderKind::PathTrace, 8, 8, 0)
                .unwrap_err(),
            ConfigError::ZeroSamples
        );
        // The error type carries a human-readable message.
        assert_eq!(
            ConfigError::ZeroSamples.to_string(),
            "need at least one sample per pixel"
        );
    }
}
