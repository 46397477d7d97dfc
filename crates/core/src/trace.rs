//! Trace-driven record/replay: capture the front end once, replay the
//! timing model everywhere.
//!
//! Design-space sweeps re-run the whole simulator per configuration,
//! even though only the timing model (caches, MSHRs, DRAM, RT units,
//! LBU) changes between points. This module splits the two halves
//! behind a compact binary trace:
//!
//! - **Record** ([`Trace::record`]): a live run with a [`Recorder`]
//!   installed (a zero-cost-when-disabled tap, like the
//!   [`Tracer`](cooprt_telemetry::Tracer))
//!   captures every `(ray, t_max)` a shader thread submits at the
//!   warp-issue boundary, the per-SM `trace_ray` issue stream, the
//!   final image, and the serialized BVH. Recording is observational:
//!   cycle counts are bitwise identical with the recorder on or off.
//! - **Replay** ([`Trace::replay`]): the engine runs with recorded
//!   per-thread ray streams in place of live shader threads — no RNG,
//!   no shading, no scene build — while the RT units re-execute
//!   functional traversal inside the timing model exactly as live.
//!   Replaying at the recorded configuration is bitwise
//!   cycle-identical to live simulation (`golden_cycles` pins this for
//!   all 15 scenes x both policies).
//!
//! **Why ray-level recording replays under any timing config.** The
//! per-thread `(ray, t_max)` sequences depend only on functional hit
//! results, which the simulator guarantees are identical across
//! traversal policies, warp formations, cache geometries and every other
//! timing knob (the image-identity tests pin this). Recording at the
//! fetch level instead would bake in LBU steal decisions, which *are*
//! timing-dependent under CoopRT. So one trace recorded under any
//! config replays validly under any sweep point that keeps the
//! shader-visible fields ([`Trace::check_config`]) fixed — including
//! the other traversal policy.
//!
//! The trace embeds the serialized [`BvhImage`], so replay is fully
//! self-contained: a sweep shard decodes the trace and runs, skipping
//! scene generation, BVH build *and* raygen.
//!
//! # Format (version 1)
//!
//! All integers are LEB128 varints unless stated; `f32` values are
//! stored as their exact little-endian bit patterns (bitwise identity
//! survives the round trip).
//!
//! ```text
//! magic   "CPRT" (4 raw bytes)
//! version varint
//! header  scene name (str), detail, scene content hash,
//!         shader kind (u8), width, height, sample salt,
//!         max_bounces, ao_samples, ao_radius (f32), sh_samples
//! bvh     root addr, node count, nodes (tag u8; leaf: triangle index,
//!         internal: child count x [addr offset, bounds 6xf32]),
//!         root bounds (6xf32), triangle count, triangles (9xf32)
//! streams thread count, per thread: record count x
//!         [orig 3xf32, dir 3xf32, t_max f32]
//! issues  record count x [sm, warp, iteration, active lanes]
//! image   thread count x [r, g, b]  (f32 each)
//! footer  FNV-1a 64 checksum of everything after the magic (8 raw
//!         little-endian bytes)
//! ```

use crate::config::{GpuConfig, TraversalPolicy};
use crate::engine::{ConfigError, FrameResult, Simulation};
use crate::rtunit::TraceQuery;
use crate::shader::ShaderKind;
use cooprt_bvh::{BvhImage, ChildRef, Node, NodeKind};
use cooprt_math::{Aabb, Ray, Rgb, Triangle, Vec3};
use cooprt_scenes::Scene;
use std::sync::{Arc, Mutex};

/// The four magic bytes opening every trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CPRT";

/// Current trace format version.
pub const TRACE_VERSION: u64 = 1;

/// Typed decode/replay error. Corrupt or truncated input surfaces as a
/// value of this type — never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// The buffer does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The trace was written by an unknown format version.
    UnsupportedVersion(u64),
    /// The buffer ended in the middle of a field.
    Truncated {
        /// Byte offset at which the read ran out of input.
        offset: usize,
    },
    /// A field decoded but its value is inconsistent (bad enum tag,
    /// counts that disagree, an unpacked BVH layout, ...).
    Corrupt(String),
    /// The footer checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// The replay configuration changes a shader-visible field, so the
    /// recorded ray streams would not be the streams a live run under
    /// that configuration produces.
    ConfigMismatch(String),
    /// The simulation entry point rejected the replay configuration
    /// (e.g. ray reordering without sort buckets, or ray-path
    /// prediction without table entries).
    Config(ConfigError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a CoopRT trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {TRACE_VERSION})"
                )
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte {offset}")
            }
            TraceError::Corrupt(why) => write!(f, "corrupt trace: {why}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: footer {stored:#018x}, body hashes to {computed:#018x}"
            ),
            TraceError::ConfigMismatch(why) => write!(f, "config incompatible with trace: {why}"),
            TraceError::Config(e) => write!(f, "invalid replay config: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One recorded ray submission of one shader thread, in issue order.
///
/// Stores the exact `f32` bits of the live ray; [`RayRecord::ray`]
/// reconstructs the [`Ray`] with the identical precomputed reciprocal
/// direction (IEEE division is deterministic), so replayed traversal is
/// bit-exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayRecord {
    /// Ray origin.
    pub orig: Vec3,
    /// Unit ray direction.
    pub dir: Vec3,
    /// The thread's `t_max` at submission (closest-hit search bound).
    pub t_max: f32,
}

impl RayRecord {
    /// Captures a live ray and its search bound.
    pub fn from_ray(ray: Ray, t_max: f32) -> Self {
        RayRecord {
            orig: ray.orig,
            dir: ray.dir,
            t_max,
        }
    }

    /// Reconstructs the ray exactly as the live engine submitted it.
    pub fn ray(&self) -> Ray {
        Ray::from_unit(self.orig, self.dir)
    }
}

/// One warp `trace_ray` issue as seen at an SM's RT-unit port.
///
/// Informational (the `cooprt trace info` instruction-stream summary);
/// replay regenerates issues from the ray streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IssueRecord {
    /// Issuing SM.
    pub sm: u32,
    /// Warp id within its wave.
    pub warp: u32,
    /// The warp's bounce iteration at issue.
    pub iteration: u32,
    /// Number of lanes carrying a ray.
    pub active_lanes: u32,
}

#[derive(Debug, Default)]
struct RecordState {
    /// Per-thread (= per-pixel) submissions in issue order.
    streams: Vec<Vec<RayRecord>>,
    /// Per-SM issue stream in cycle order.
    issues: Vec<IssueRecord>,
}

/// Shared handle installed into a [`Simulation`] to capture the front
/// end of one frame (see [`Simulation::with_recorder`]).
///
/// Same shape as [`Tracer`](cooprt_telemetry::Tracer): a disabled
/// recorder is a `None` and every tap is a single branch, so the
/// default path pays nothing. The engine taps it directly, not through
/// the frame's [`Probe`](cooprt_telemetry::Probe): it captures the ray
/// payloads of each `trace_ray`, which no
/// [`EventKind`](cooprt_telemetry::EventKind) carries.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<RecordState>>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder that captures ray submissions and issue records.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(RecordState::default()))),
        }
    }

    /// True if this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Engine tap: a frame over `pixels` threads is starting.
    #[inline]
    pub(crate) fn begin(&self, pixels: usize) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.lock().unwrap();
        state.streams.clear();
        state.streams.resize(pixels, Vec::new());
        state.issues.clear();
    }

    /// Engine tap: warp `warp` issued a `trace_ray` on SM `sm`. Lane
    /// `i` belongs to thread `members[i]`; active lanes append their
    /// `(ray, t_max)` to that thread's stream.
    #[inline]
    pub(crate) fn record_issue(
        &self,
        sm: u32,
        warp: u32,
        iteration: u32,
        members: &[u32],
        query: &TraceQuery,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.lock().unwrap();
        let mut active = 0u32;
        for (i, &t) in members.iter().enumerate() {
            if let Some(ray) = query.rays[i] {
                active += 1;
                state.streams[t as usize].push(RayRecord::from_ray(ray, query.t_max[i]));
            }
        }
        state.issues.push(IssueRecord {
            sm,
            warp,
            iteration,
            active_lanes: active,
        });
    }

    /// Drains the captured streams and issue records.
    pub fn take(&self) -> (Vec<Vec<RayRecord>>, Vec<IssueRecord>) {
        match &self.inner {
            None => (Vec::new(), Vec::new()),
            Some(inner) => {
                let mut state = inner.lock().unwrap();
                (
                    std::mem::take(&mut state.streams),
                    std::mem::take(&mut state.issues),
                )
            }
        }
    }
}

/// A decoded (or freshly recorded) trace: header, embedded BVH, the
/// per-thread ray streams, the issue stream, and the final image.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Scene label the trace was recorded from.
    pub scene_name: String,
    /// Scene detail level (informational).
    pub detail: u32,
    /// [`BvhImage::content_hash`] of the embedded BVH.
    pub scene_hash: u64,
    /// Shader the front end ran.
    pub kind: ShaderKind,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// RNG salt of the recorded sample.
    pub sample_salt: u64,
    /// Shader-visible config at record time: [`GpuConfig::max_bounces`].
    pub max_bounces: u32,
    /// Shader-visible config at record time: [`GpuConfig::ao_samples`].
    pub ao_samples: u32,
    /// Shader-visible config at record time: [`GpuConfig::ao_radius`].
    pub ao_radius: f32,
    /// Shader-visible config at record time: [`GpuConfig::sh_samples`].
    pub sh_samples: u32,
    /// The serialized BVH the rays traverse (self-contained replay).
    pub bvh: BvhImage,
    /// Per-thread ray submissions, `width * height` streams.
    pub streams: Vec<Vec<RayRecord>>,
    /// Warp-issue stream (informational).
    pub issues: Vec<IssueRecord>,
    /// The recorded final image (replay never shades).
    pub image: Vec<Rgb>,
}

impl Trace {
    /// Runs one live frame with recording enabled and packages the
    /// capture as a [`Trace`].
    ///
    /// `detail` is carried in the header for provenance only. The
    /// returned [`FrameResult`] is bitwise identical to a run without
    /// the recorder.
    ///
    /// # Errors
    ///
    /// Returns every error [`Simulation::run_frame`] returns for `cfg`,
    /// `kind` and the frame shape.
    pub fn record(
        scene: &Scene,
        detail: u32,
        cfg: &GpuConfig,
        policy: TraversalPolicy,
        kind: ShaderKind,
        width: usize,
        height: usize,
    ) -> Result<(FrameResult, Trace), ConfigError> {
        let recorder = Recorder::enabled();
        let frame = Simulation::new(scene, cfg, policy)
            .with_recorder(recorder.clone())
            .run_frame(kind, width, height)?;
        let (streams, issues) = recorder.take();
        let trace = Trace {
            scene_name: scene.name.clone(),
            detail,
            scene_hash: scene.image.content_hash(),
            kind,
            width,
            height,
            sample_salt: 0,
            max_bounces: cfg.max_bounces,
            ao_samples: cfg.ao_samples,
            ao_radius: cfg.ao_radius,
            sh_samples: cfg.sh_samples,
            bvh: scene.image.clone(),
            streams,
            issues,
            image: frame.image.clone(),
        };
        Ok((frame, trace))
    }

    /// Drives the timing model from this trace under `cfg`/`policy`,
    /// without re-running shading or building the scene.
    ///
    /// Replaying at the recorded configuration reproduces the live
    /// cycle count bitwise; replaying at a different timing
    /// configuration (caches, MSHRs, DRAM, warp buffer, subwarp, LBU,
    /// compaction, either policy) is exactly the simulation a
    /// live run of that point would perform, minus the front-end cost.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ConfigMismatch`] if `cfg` changes a
    /// shader-visible field (see [`Trace::check_config`]), and
    /// [`TraceError::Config`] wrapping the [`ConfigError`] that
    /// [`Simulation::replay_frame`] returns: one of its configuration
    /// errors for `cfg`, or [`ConfigError::EmptyFrame`] for a
    /// hand-built zero-pixel trace.
    pub fn replay(
        &self,
        cfg: &GpuConfig,
        policy: TraversalPolicy,
    ) -> Result<FrameResult, TraceError> {
        self.check_config(cfg)?;
        let scene = Scene::for_replay(self.scene_name.clone(), self.bvh.clone());
        Simulation::new(&scene, cfg, policy)
            .replay_frame(
                self.kind,
                self.width,
                self.height,
                self.streams.clone(),
                self.image.clone(),
            )
            .map_err(TraceError::Config)
    }

    /// Verifies that `cfg` keeps every shader-visible field the streams
    /// were recorded under. Timing-only fields may differ freely.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ConfigMismatch`] naming the first
    /// diverging field.
    pub fn check_config(&self, cfg: &GpuConfig) -> Result<(), TraceError> {
        let mismatch = |field: &str, recorded: String, requested: String| {
            Err(TraceError::ConfigMismatch(format!(
                "{field} recorded as {recorded}, requested {requested}"
            )))
        };
        if cfg.max_bounces != self.max_bounces {
            return mismatch(
                "max_bounces",
                self.max_bounces.to_string(),
                cfg.max_bounces.to_string(),
            );
        }
        if cfg.ao_samples != self.ao_samples {
            return mismatch(
                "ao_samples",
                self.ao_samples.to_string(),
                cfg.ao_samples.to_string(),
            );
        }
        if cfg.ao_radius.to_bits() != self.ao_radius.to_bits() {
            return mismatch(
                "ao_radius",
                self.ao_radius.to_string(),
                cfg.ao_radius.to_string(),
            );
        }
        if cfg.sh_samples != self.sh_samples {
            return mismatch(
                "sh_samples",
                self.sh_samples.to_string(),
                cfg.sh_samples.to_string(),
            );
        }
        Ok(())
    }

    /// Total ray submissions across all threads.
    pub fn total_records(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Encodes the trace into the version-1 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TraceWriter::new();
        w.put_varint(TRACE_VERSION);
        // Header.
        w.put_str(&self.scene_name);
        w.put_varint(u64::from(self.detail));
        w.put_varint(self.scene_hash);
        w.put_u8(match self.kind {
            ShaderKind::PathTrace => 0,
            ShaderKind::AmbientOcclusion => 1,
            ShaderKind::Shadow => 2,
            ShaderKind::Knn => 3,
            ShaderKind::Radius => 4,
            ShaderKind::Contain => 5,
        });
        w.put_varint(self.width as u64);
        w.put_varint(self.height as u64);
        w.put_varint(self.sample_salt);
        w.put_varint(u64::from(self.max_bounces));
        w.put_varint(u64::from(self.ao_samples));
        w.put_f32(self.ao_radius);
        w.put_varint(u64::from(self.sh_samples));
        // BVH.
        let base = self.bvh.root_addr();
        w.put_varint(base);
        w.put_varint(self.bvh.node_count() as u64);
        for node in &self.bvh {
            match &node.kind {
                NodeKind::Leaf { triangle } => {
                    w.put_u8(0);
                    w.put_varint(u64::from(*triangle));
                }
                NodeKind::Internal { children } => {
                    w.put_u8(1);
                    w.put_varint(children.len() as u64);
                    for c in children {
                        w.put_varint(c.addr - base);
                        put_aabb(&mut w, &c.bounds);
                    }
                }
            }
        }
        put_aabb(&mut w, &self.bvh.root_bounds());
        w.put_varint(self.bvh.triangles().len() as u64);
        for t in self.bvh.triangles() {
            put_vec3(&mut w, t.v0);
            put_vec3(&mut w, t.v1);
            put_vec3(&mut w, t.v2);
        }
        // Streams.
        w.put_varint(self.streams.len() as u64);
        for stream in &self.streams {
            w.put_varint(stream.len() as u64);
            for rec in stream {
                put_vec3(&mut w, rec.orig);
                put_vec3(&mut w, rec.dir);
                w.put_f32(rec.t_max);
            }
        }
        // Issues.
        w.put_varint(self.issues.len() as u64);
        for issue in &self.issues {
            w.put_varint(u64::from(issue.sm));
            w.put_varint(u64::from(issue.warp));
            w.put_varint(u64::from(issue.iteration));
            w.put_varint(u64::from(issue.active_lanes));
        }
        // Image.
        for px in &self.image {
            w.put_f32(px.r);
            w.put_f32(px.g);
            w.put_f32(px.b);
        }
        // Assemble: magic + body + checksum footer.
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(4 + body.len() + 8);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv64(&body).to_le_bytes());
        out
    }

    /// Decodes a version-1 trace, validating magic, version, checksum
    /// and structural consistency.
    ///
    /// # Errors
    ///
    /// Every malformation maps to a [`TraceError`]; this function never
    /// panics on untrusted input.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < 4 {
            return Err(TraceError::Truncated {
                offset: bytes.len(),
            });
        }
        if bytes[..4] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut r = TraceReader::new(&bytes[4..]);
        let version = r.read_varint()?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        // Checksum: the last 8 bytes cover everything after the magic.
        if bytes.len() < 4 + r.position() + 8 {
            return Err(TraceError::Truncated {
                offset: bytes.len(),
            });
        }
        let body = &bytes[4..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let computed = fnv64(body);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let mut r = TraceReader::new(body);
        let _version = r.read_varint()?;
        // Header.
        let scene_name = r.read_str()?;
        let detail = read_u32(&mut r, "detail")?;
        let scene_hash = r.read_varint()?;
        let kind = match r.read_u8()? {
            0 => ShaderKind::PathTrace,
            1 => ShaderKind::AmbientOcclusion,
            2 => ShaderKind::Shadow,
            3 => ShaderKind::Knn,
            4 => ShaderKind::Radius,
            5 => ShaderKind::Contain,
            k => return Err(TraceError::Corrupt(format!("unknown shader kind tag {k}"))),
        };
        let width = read_usize(&mut r, "width")?;
        let height = read_usize(&mut r, "height")?;
        let sample_salt = r.read_varint()?;
        let max_bounces = read_u32(&mut r, "max_bounces")?;
        let ao_samples = read_u32(&mut r, "ao_samples")?;
        let ao_radius = r.read_f32()?;
        let sh_samples = read_u32(&mut r, "sh_samples")?;
        let pixels = width
            .checked_mul(height)
            .filter(|&p| p > 0)
            .ok_or_else(|| TraceError::Corrupt(format!("bad frame geometry {width}x{height}")))?;
        // BVH.
        let base = r.read_varint()?;
        let node_count = read_count(&mut r, "node count")?;
        let mut nodes = Vec::with_capacity(node_count);
        let mut addr = base;
        for _ in 0..node_count {
            let kind = match r.read_u8()? {
                0 => NodeKind::Leaf {
                    triangle: read_u32(&mut r, "leaf triangle")?,
                },
                1 => {
                    let n = read_count(&mut r, "child count")?;
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        let offset = r.read_varint()?;
                        let bounds = read_aabb(&mut r)?;
                        children.push(ChildRef {
                            addr: base + offset,
                            bounds,
                        });
                    }
                    NodeKind::Internal { children }
                }
                t => return Err(TraceError::Corrupt(format!("unknown node tag {t}"))),
            };
            let node = Node { addr, kind };
            addr += u64::from(node.size_bytes());
            nodes.push(node);
        }
        let root_bounds = read_aabb(&mut r)?;
        let triangle_count = read_count(&mut r, "triangle count")?;
        let mut triangles = Vec::with_capacity(triangle_count);
        for _ in 0..triangle_count {
            triangles.push(Triangle::new(
                read_vec3(&mut r)?,
                read_vec3(&mut r)?,
                read_vec3(&mut r)?,
            ));
        }
        let bvh =
            BvhImage::from_parts(nodes, root_bounds, triangles).map_err(TraceError::Corrupt)?;
        if bvh.content_hash() != scene_hash {
            return Err(TraceError::Corrupt(format!(
                "embedded BVH hashes to {:#018x}, header says {scene_hash:#018x}",
                bvh.content_hash()
            )));
        }
        // Streams.
        let thread_count = read_count(&mut r, "thread count")?;
        if thread_count != pixels {
            return Err(TraceError::Corrupt(format!(
                "{thread_count} ray streams for a {width}x{height} frame"
            )));
        }
        let mut streams = Vec::with_capacity(thread_count);
        for _ in 0..thread_count {
            let n = read_count(&mut r, "stream length")?;
            let mut stream = Vec::with_capacity(n);
            for _ in 0..n {
                let orig = read_vec3(&mut r)?;
                let dir = read_vec3(&mut r)?;
                let t_max = r.read_f32()?;
                stream.push(RayRecord { orig, dir, t_max });
            }
            streams.push(stream);
        }
        // Issues.
        let issue_count = read_count(&mut r, "issue count")?;
        let mut issues = Vec::with_capacity(issue_count);
        for _ in 0..issue_count {
            issues.push(IssueRecord {
                sm: read_u32(&mut r, "issue sm")?,
                warp: read_u32(&mut r, "issue warp")?,
                iteration: read_u32(&mut r, "issue iteration")?,
                active_lanes: read_u32(&mut r, "issue lanes")?,
            });
        }
        // Image.
        let mut image = Vec::with_capacity(pixels);
        for _ in 0..pixels {
            image.push(Rgb {
                r: r.read_f32()?,
                g: r.read_f32()?,
                b: r.read_f32()?,
            });
        }
        if r.remaining() > 0 {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after the image section",
                r.remaining()
            )));
        }
        Ok(Trace {
            scene_name,
            detail,
            scene_hash,
            kind,
            width,
            height,
            sample_salt,
            max_bounces,
            ao_samples,
            ao_radius,
            sh_samples,
            bvh,
            streams,
            issues,
            image,
        })
    }
}

/// Binary encoder for the trace format: LEB128 varints plus raw
/// little-endian `f32` bit patterns.
#[derive(Debug, Default)]
pub struct TraceWriter {
    buf: Vec<u8>,
}

impl TraceWriter {
    /// An empty writer.
    pub fn new() -> Self {
        TraceWriter::default()
    }

    /// Appends an LEB128-encoded unsigned integer (1..=10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends the exact bit pattern of an `f32` (little-endian).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Binary decoder over a byte slice; every read returns a typed
/// [`TraceError`] instead of panicking on truncated or malformed input.
#[derive(Debug)]
pub struct TraceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> TraceReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        TraceReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] at end of input.
    pub fn read_u8(&mut self) -> Result<u8, TraceError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(TraceError::Truncated { offset: self.pos });
        };
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] at end of input;
    /// [`TraceError::Corrupt`] for overlong encodings (more than 10
    /// bytes, which cannot fit a `u64`).
    pub fn read_varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        for i in 0..10 {
            let byte = self.read_u8()?;
            // The 10th byte may only carry the u64's top bit.
            if i == 9 && byte > 1 {
                return Err(TraceError::Corrupt(format!(
                    "overlong varint at byte {}",
                    self.pos - 10
                )));
            }
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::Corrupt(format!(
            "unterminated varint at byte {}",
            self.pos - 10
        )))
    }

    /// Reads an `f32` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] at end of input.
    pub fn read_f32(&mut self) -> Result<f32, TraceError> {
        if self.remaining() < 4 {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let bits = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(f32::from_bits(bits))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] if the prefix overruns the buffer;
    /// [`TraceError::Corrupt`] for invalid UTF-8 or an absurd length.
    pub fn read_str(&mut self) -> Result<String, TraceError> {
        let len = self.read_varint()? as usize;
        if len > self.remaining() {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|e| TraceError::Corrupt(format!("invalid UTF-8 string: {e}")))?
            .to_string();
        self.pos += len;
        Ok(s)
    }
}

/// Reads an element count, rejecting values that provably exceed the
/// remaining input (each element is at least one byte) before any
/// allocation happens — a corrupt count must not OOM the decoder.
fn read_count(r: &mut TraceReader<'_>, what: &str) -> Result<usize, TraceError> {
    let n = r.read_varint()?;
    if n > r.remaining() as u64 {
        return Err(TraceError::Corrupt(format!(
            "{what} {n} exceeds the {} bytes left in the trace",
            r.remaining()
        )));
    }
    Ok(n as usize)
}

fn read_u32(r: &mut TraceReader<'_>, what: &str) -> Result<u32, TraceError> {
    let v = r.read_varint()?;
    u32::try_from(v).map_err(|_| TraceError::Corrupt(format!("{what} {v} overflows u32")))
}

fn read_usize(r: &mut TraceReader<'_>, what: &str) -> Result<usize, TraceError> {
    let v = r.read_varint()?;
    usize::try_from(v).map_err(|_| TraceError::Corrupt(format!("{what} {v} overflows usize")))
}

fn put_vec3(w: &mut TraceWriter, v: Vec3) {
    w.put_f32(v.x);
    w.put_f32(v.y);
    w.put_f32(v.z);
}

fn read_vec3(r: &mut TraceReader<'_>) -> Result<Vec3, TraceError> {
    Ok(Vec3::new(r.read_f32()?, r.read_f32()?, r.read_f32()?))
}

fn put_aabb(w: &mut TraceWriter, aabb: &Aabb) {
    put_vec3(w, aabb.min);
    put_vec3(w, aabb.max);
}

fn read_aabb(r: &mut TraceReader<'_>) -> Result<Aabb, TraceError> {
    let min = read_vec3(r)?;
    let max = read_vec3(r)?;
    Ok(Aabb { min, max })
}

/// FNV-1a 64 over a byte slice (the trace footer checksum; the
/// workspace carries no external hashing dependency).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_scenes::SceneId;

    fn record_small(
        id: SceneId,
        policy: TraversalPolicy,
        kind: ShaderKind,
    ) -> (FrameResult, Trace) {
        let scene = id.build(2);
        let cfg = GpuConfig::small(2);
        Trace::record(&scene, 2, &cfg, policy, kind, 8, 8).unwrap()
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = TraceWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = TraceReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_is_minimal_length() {
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut w = TraceWriter::new();
            w.put_varint(v);
            assert_eq!(w.bytes().len(), len, "varint({v})");
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can never terminate inside a u64.
        let bytes = [0x80u8; 11];
        let mut r = TraceReader::new(&bytes);
        assert!(matches!(r.read_varint(), Err(TraceError::Corrupt(_))));
        // A 10-byte varint whose last byte overflows the top bit.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        let mut r = TraceReader::new(&bytes);
        assert!(matches!(r.read_varint(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn f32_bits_survive_the_round_trip() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            12345.678,
        ];
        let mut w = TraceWriter::new();
        for &v in &values {
            w.put_f32(v);
        }
        let bytes = w.into_bytes();
        let mut r = TraceReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_f32().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn reader_reports_truncation_with_offsets() {
        let mut r = TraceReader::new(&[]);
        assert_eq!(r.read_u8(), Err(TraceError::Truncated { offset: 0 }));
        let mut r = TraceReader::new(&[0x80]);
        assert_eq!(r.read_varint(), Err(TraceError::Truncated { offset: 1 }));
        let mut r = TraceReader::new(&[1, 2, 3]);
        assert_eq!(r.read_f32(), Err(TraceError::Truncated { offset: 0 }));
    }

    #[test]
    fn trace_roundtrips_bitwise() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::CoopRt,
            ShaderKind::PathTrace,
        );
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).unwrap();
        assert_eq!(decoded.scene_name, trace.scene_name);
        assert_eq!(decoded.detail, trace.detail);
        assert_eq!(decoded.scene_hash, trace.scene_hash);
        assert_eq!(decoded.kind, trace.kind);
        assert_eq!(decoded.width, trace.width);
        assert_eq!(decoded.height, trace.height);
        assert_eq!(decoded.max_bounces, trace.max_bounces);
        assert_eq!(decoded.ao_samples, trace.ao_samples);
        assert_eq!(decoded.ao_radius.to_bits(), trace.ao_radius.to_bits());
        assert_eq!(decoded.sh_samples, trace.sh_samples);
        assert_eq!(decoded.bvh.content_hash(), trace.bvh.content_hash());
        assert_eq!(decoded.streams, trace.streams);
        assert_eq!(decoded.issues, trace.issues);
        assert_eq!(decoded.image, trace.image);
    }

    #[test]
    fn trace_roundtrips_for_every_shader_kind() {
        for kind in [
            ShaderKind::PathTrace,
            ShaderKind::AmbientOcclusion,
            ShaderKind::Shadow,
        ] {
            let (_, trace) = record_small(SceneId::Bath, TraversalPolicy::Baseline, kind);
            let decoded = Trace::decode(&trace.encode()).unwrap();
            assert_eq!(decoded.kind, kind);
            assert_eq!(decoded.streams, trace.streams);
        }
    }

    #[test]
    fn every_truncation_prefix_fails_without_panicking() {
        let (_, trace) = record_small(
            SceneId::Ship,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let bytes = trace.encode();
        // Cover every prefix of the (small) header region and a stride
        // through the bulk so the test stays fast.
        for len in (0..bytes.len().min(256)).chain((256..bytes.len()).step_by(97)) {
            let err = Trace::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. }
                        | TraceError::ChecksumMismatch { .. }
                        | TraceError::Corrupt(_)
                        | TraceError::BadMagic
                        | TraceError::UnsupportedVersion(_)
                ),
                "prefix {len}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_bytes_fail_the_checksum() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let bytes = trace.encode();
        // Flip one bit in a stride of positions across the body; every
        // flip must surface as a typed error (usually the checksum).
        for pos in (4..bytes.len() - 8).step_by(131) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(Trace::decode(&bad).is_err(), "flip at {pos} went unnoticed");
        }
        // Corrupting the footer itself is a checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            Trace::decode(&bad),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let bytes = trace.encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(Trace::decode(&bad), Err(TraceError::BadMagic)));
        let mut bad = bytes.clone();
        bad[4] = 99; // version varint
        assert!(matches!(
            Trace::decode(&bad),
            Err(TraceError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            Trace::decode(&[]),
            Err(TraceError::Truncated { .. })
        ));
        assert!(matches!(
            Trace::decode(b"CPRT"),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn replay_is_cycle_identical_to_live() {
        for (id, kind) in [
            (SceneId::Wknd, ShaderKind::PathTrace),
            (SceneId::Crnvl, ShaderKind::PathTrace),
            (SceneId::Bath, ShaderKind::AmbientOcclusion),
            (SceneId::Ref, ShaderKind::Shadow),
        ] {
            for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
                let scene = id.build(2);
                let cfg = GpuConfig::small(2);
                let live = Simulation::new(&scene, &cfg, policy)
                    .run_frame(kind, 8, 8)
                    .unwrap();
                let (recorded, trace) = Trace::record(&scene, 2, &cfg, policy, kind, 8, 8).unwrap();
                assert_eq!(
                    recorded.cycles, live.cycles,
                    "{id}/{policy:?}/{kind:?}: recording perturbed the run"
                );
                let replayed = trace.replay(&cfg, policy).unwrap();
                assert_eq!(replayed.cycles, live.cycles, "{id}/{policy:?}/{kind:?}");
                assert_eq!(replayed.image, live.image, "{id}/{policy:?}/{kind:?}");
                assert_eq!(replayed.events, live.events, "{id}/{policy:?}/{kind:?}");
                assert_eq!(replayed.rays, live.rays, "{id}/{policy:?}/{kind:?}");
                assert_eq!(
                    replayed.mem.l1.accesses, live.mem.l1.accesses,
                    "{id}/{policy:?}/{kind:?}"
                );
            }
        }
    }

    #[test]
    fn one_trace_replays_under_both_policies() {
        // Record once (baseline), replay under either policy: the ray
        // streams are policy-invariant.
        let scene = SceneId::Party.build(2);
        let cfg = GpuConfig::small(2);
        let (_, trace) = Trace::record(
            &scene,
            2,
            &cfg,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
            8,
        )
        .unwrap();
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let live = Simulation::new(&scene, &cfg, policy)
                .run_frame(ShaderKind::PathTrace, 8, 8)
                .unwrap();
            let replayed = trace.replay(&cfg, policy).unwrap();
            assert_eq!(replayed.cycles, live.cycles, "{policy:?}");
            assert_eq!(replayed.image, live.image, "{policy:?}");
        }
    }

    #[test]
    fn replay_sweeps_timing_configs_from_one_trace() {
        // The recorded config and the replayed config differ in
        // timing-only fields; replay must equal a live run at the
        // replayed config.
        let scene = SceneId::Fox.build(2);
        let record_cfg = GpuConfig::small(2);
        let (_, trace) = Trace::record(
            &scene,
            2,
            &record_cfg,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
            8,
        )
        .unwrap();
        let mut sweep = Vec::new();
        let mut bigger_l1 = GpuConfig::small(2);
        bigger_l1.mem.l1_bytes *= 2;
        sweep.push(bigger_l1);
        sweep.push(GpuConfig::small(2).with_warp_buffer(8));
        let mut compact = GpuConfig::small(2);
        compact.compaction = true;
        sweep.push(compact);
        for (i, cfg) in sweep.iter().enumerate() {
            for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
                let live = Simulation::new(&scene, cfg, policy)
                    .run_frame(ShaderKind::PathTrace, 8, 8)
                    .unwrap();
                let replayed = trace.replay(cfg, policy).unwrap();
                assert_eq!(replayed.cycles, live.cycles, "config {i} under {policy:?}");
                assert_eq!(replayed.image, live.image, "config {i} under {policy:?}");
            }
        }
    }

    #[test]
    fn one_unordered_trace_replays_every_reorder_policy() {
        // Reordering is timing-only, so a trace recorded with reorder
        // Off sweeps the whole reorder axis: replay-with-reorder must
        // be cycle-identical to a live reordered run and bitwise
        // image-identical to the recorded frame.
        let scene = SceneId::Party.build(2);
        let record_cfg = GpuConfig::small(2);
        let (recorded, trace) = Trace::record(
            &scene,
            2,
            &record_cfg,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
            8,
            8,
        )
        .unwrap();
        for reorder in [
            crate::ReorderPolicy::Morton,
            crate::ReorderPolicy::OctantHash,
        ] {
            let cfg = GpuConfig::small(2).with_reorder(reorder);
            for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
                let live = Simulation::new(&scene, &cfg, policy)
                    .run_frame(ShaderKind::PathTrace, 8, 8)
                    .unwrap();
                let replayed = trace.replay(&cfg, policy).unwrap();
                assert_eq!(replayed.cycles, live.cycles, "{reorder:?}/{policy:?}");
                assert_eq!(replayed.image, recorded.image, "{reorder:?}/{policy:?}");
                assert_eq!(replayed.reorder, live.reorder, "{reorder:?}/{policy:?}");
                assert!(replayed.reorder.passes >= 1, "{reorder:?}/{policy:?}");
            }
        }
    }

    #[test]
    fn one_unpredicted_trace_replays_ray_path_prediction() {
        // Ray-path prediction is timing-only too (the go-up fallback
        // keeps any-hit outcomes exact), so shadow rays recorded with
        // prediction off replay under `RayPath` exactly as a live
        // predicted run: same cycles, image and predictor counters.
        let scene = SceneId::Wknd.build(4);
        let (recorded, trace) = Trace::record(
            &scene,
            4,
            &GpuConfig::small(2),
            TraversalPolicy::Baseline,
            ShaderKind::Shadow,
            16,
            16,
        )
        .unwrap();
        let cfg = GpuConfig::small(2).with_predict(crate::PredictPolicy::RayPath);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let live = Simulation::new(&scene, &cfg, policy)
                .run_frame(ShaderKind::Shadow, 16, 16)
                .unwrap();
            let replayed = trace.replay(&cfg, policy).unwrap();
            assert_eq!(replayed.cycles, live.cycles, "{policy:?}");
            assert_eq!(replayed.image, live.image, "{policy:?}");
            assert_eq!(replayed.image, recorded.image, "{policy:?}");
            assert_eq!(replayed.predictor, live.predictor, "{policy:?}");
            assert!(replayed.predictor.node_fetches_saved > 0, "{policy:?}");
        }
    }

    #[test]
    fn replay_rejects_shader_visible_config_changes() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let mut cfg = GpuConfig::small(2);
        cfg.max_bounces += 1;
        assert!(matches!(
            trace.replay(&cfg, TraversalPolicy::Baseline),
            Err(TraceError::ConfigMismatch(_))
        ));
        let mut cfg = GpuConfig::small(2);
        cfg.ao_samples += 1;
        assert!(matches!(
            trace.check_config(&cfg),
            Err(TraceError::ConfigMismatch(_))
        ));
        // Timing-only changes pass.
        let mut cfg = GpuConfig::small(2);
        cfg.mem.l1_mshr_entries *= 2;
        assert!(trace.check_config(&cfg).is_ok());
    }

    #[test]
    fn replay_reports_a_rejected_config_as_a_config_error() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let mut no_entries = GpuConfig::small(2).with_predict(crate::PredictPolicy::RayPath);
        no_entries.predictor_entries = 0;
        let err = trace
            .replay(&no_entries, TraversalPolicy::Baseline)
            .unwrap_err();
        assert_eq!(err, TraceError::Config(ConfigError::ZeroPredictorEntries));
        let mut no_buckets = GpuConfig::small(2).with_reorder(crate::ReorderPolicy::Morton);
        no_buckets.reorder_buckets = 0;
        let err = trace
            .replay(&no_buckets, TraversalPolicy::CoopRt)
            .unwrap_err();
        assert_eq!(err, TraceError::Config(ConfigError::ZeroReorderBuckets));
        assert_eq!(
            err.to_string(),
            "invalid replay config: ray reordering needs at least one sort bucket"
        );
    }

    #[test]
    fn replay_rejects_a_gpu_the_engine_cannot_run() {
        let (_, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::Baseline,
            ShaderKind::PathTrace,
        );
        let mut no_buffer = GpuConfig::small(2);
        no_buffer.warp_buffer_size = 0;
        let mut bad_subwarp = GpuConfig::small(2);
        bad_subwarp.subwarp_size = 5;
        let mut no_tbs = GpuConfig::small(2);
        no_tbs.max_tbs_per_sm = 0;
        let cases = [
            (GpuConfig::small(0), ConfigError::ZeroSms),
            (no_buffer, ConfigError::ZeroWarpBuffer),
            (bad_subwarp, ConfigError::InvalidSubwarp { size: 5 }),
            (no_tbs, ConfigError::ZeroTbsPerSm),
        ];
        for (cfg, expected) in cases {
            let err = trace.replay(&cfg, TraversalPolicy::CoopRt).unwrap_err();
            assert_eq!(err, TraceError::Config(expected));
        }
    }

    #[test]
    fn disabled_recorder_records_nothing_and_yields_empty() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        recorder.begin(64);
        let (streams, issues) = recorder.take();
        assert!(streams.is_empty());
        assert!(issues.is_empty());
    }

    #[test]
    fn recorded_streams_match_the_frame_shape() {
        let (frame, trace) = record_small(
            SceneId::Wknd,
            TraversalPolicy::CoopRt,
            ShaderKind::PathTrace,
        );
        assert_eq!(trace.streams.len(), 64);
        assert_eq!(trace.image, frame.image);
        // Every thread traced at least the primary ray.
        assert!(trace.streams.iter().all(|s| !s.is_empty()));
        // Issue records account for exactly the recorded submissions.
        let issued: u64 = trace.issues.iter().map(|i| u64::from(i.active_lanes)).sum();
        assert_eq!(issued, trace.total_records());
        assert_eq!(issued, frame.rays);
    }

    #[test]
    fn decoded_trace_replays_identically_to_the_original() {
        let scene = SceneId::Chsnt.build(2);
        let cfg = GpuConfig::small(2);
        let live = Simulation::new(&scene, &cfg, TraversalPolicy::CoopRt)
            .run_frame(ShaderKind::PathTrace, 8, 8)
            .unwrap();
        let (_, trace) = Trace::record(
            &scene,
            2,
            &cfg,
            TraversalPolicy::CoopRt,
            ShaderKind::PathTrace,
            8,
            8,
        )
        .unwrap();
        let decoded = Trace::decode(&trace.encode()).unwrap();
        let replayed = decoded.replay(&cfg, TraversalPolicy::CoopRt).unwrap();
        assert_eq!(replayed.cycles, live.cycles);
        assert_eq!(replayed.image, live.image);
    }
}
