//! The request schema: JSON bodies → validated [`JobRequest`]s.
//!
//! Parsing is strict — unknown scenes, out-of-range dimensions, or
//! wrong-typed fields are a 400 with a message naming the offending
//! field, never a default silently applied to a field the client *did*
//! send. Every field the simulation depends on participates in
//! [`JobRequest::canonical_key`], the string the result cache hashes;
//! delivery options (`async`, `deadline_ms`) are deliberately excluded
//! so the same work requested sync or async shares one cache entry.

use crate::error::ServeError;
use cooprt_core::{GpuConfig, PredictPolicy, ReorderPolicy, ShaderKind, TraversalPolicy};
use cooprt_scenes::{SceneId, ALL_SCENES, QUERY_SCENES};
use cooprt_telemetry::JsonValue;

/// Widest frame the service will simulate (cycle-level simulation is
/// expensive; the cap keeps one request from monopolizing a worker).
pub const MAX_DIM: usize = 256;
/// Cap on total pixels per frame (tighter than `MAX_DIM`² so wide ×
/// tall frames can't multiply into an outsized job).
pub const MAX_PIXELS: usize = 32 * 1024;
/// Cap on samples per pixel.
pub const MAX_SPP: u32 = 64;
/// Cap on the scene detail multiplier.
pub const MAX_DETAIL: u32 = 16;
/// Cap on simulated SM count for the `small` config preset.
pub const MAX_SMS: usize = 64;

/// Which GPU configuration preset a job runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigPreset {
    /// [`GpuConfig::rtx2060`].
    Rtx2060,
    /// [`GpuConfig::mobile`].
    Mobile,
    /// [`GpuConfig::small`] with the given SM count.
    Small(usize),
}

impl ConfigPreset {
    /// Instantiates the preset.
    pub fn build(self) -> GpuConfig {
        match self {
            ConfigPreset::Rtx2060 => GpuConfig::rtx2060(),
            ConfigPreset::Mobile => GpuConfig::mobile(),
            ConfigPreset::Small(sms) => GpuConfig::small(sms),
        }
    }

    /// Stable label for cache keys and responses.
    pub fn label(self) -> String {
        match self {
            ConfigPreset::Rtx2060 => "rtx2060".to_string(),
            ConfigPreset::Mobile => "mobile".to_string(),
            ConfigPreset::Small(sms) => format!("small{sms}"),
        }
    }
}

/// A validated render/simulation job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// Scene to render.
    pub scene: SceneId,
    /// Scene detail multiplier (clutter scale), ≥ 1.
    pub detail: u32,
    /// Frame width, pixels.
    pub width: usize,
    /// Frame height, pixels.
    pub height: usize,
    /// Samples per pixel.
    pub spp: u32,
    /// Shader the frame runs.
    pub shader: ShaderKind,
    /// Traversal policy under test.
    pub policy: TraversalPolicy,
    /// Ray-reordering policy applied ahead of warp formation.
    pub reorder: ReorderPolicy,
    /// Ray-path prediction policy in the RT units.
    pub predict: PredictPolicy,
    /// GPU configuration preset.
    pub config: ConfigPreset,
    /// Include the accumulated image (as `f32::to_bits` words) in the
    /// response body.
    pub include_image: bool,
    /// Run with the tracer enabled and report the event count.
    pub trace: bool,
    /// Submit-and-poll instead of waiting for the result.
    pub run_async: bool,
    /// Per-request deadline, milliseconds (None = server default).
    pub deadline_ms: Option<u64>,
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            scene: SceneId::Wknd,
            detail: 1,
            width: 16,
            height: 12,
            spp: 1,
            shader: ShaderKind::PathTrace,
            policy: TraversalPolicy::CoopRt,
            reorder: ReorderPolicy::Off,
            predict: PredictPolicy::Off,
            config: ConfigPreset::Small(2),
            include_image: false,
            trace: false,
            run_async: false,
            deadline_ms: None,
        }
    }
}

/// Looks up a scene by its suite name — the 15 render scenes plus the
/// 4 spatial-query scenes.
pub fn scene_by_name(name: &str) -> Option<SceneId> {
    ALL_SCENES
        .iter()
        .chain(QUERY_SCENES.iter())
        .copied()
        .find(|s| s.name() == name)
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// `doc[field]` as an exact non-negative integer, if present.
fn opt_uint(doc: &JsonValue, field: &str) -> Result<Option<u64>, ServeError> {
    match doc.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| bad(format!("field '{field}' must be a number")))?;
            if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err(bad(format!(
                    "field '{field}' must be a non-negative integer, got {n}"
                )));
            }
            Ok(Some(n as u64))
        }
    }
}

/// `doc[field]` as a string, if present.
fn opt_str<'a>(doc: &'a JsonValue, field: &str) -> Result<Option<&'a str>, ServeError> {
    match doc.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("field '{field}' must be a string"))),
    }
}

/// `doc[field]` as a bool, defaulting to `false`.
fn opt_bool(doc: &JsonValue, field: &str) -> Result<bool, ServeError> {
    match doc.get(field) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(bad(format!("field '{field}' must be a boolean"))),
    }
}

impl JobRequest {
    /// Parses and validates a request body.
    ///
    /// Every absent field falls back to [`JobRequest::default`]; every
    /// present field is type- and range-checked.
    pub fn from_json(doc: &JsonValue) -> Result<JobRequest, ServeError> {
        if !matches!(doc, JsonValue::Object(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        let mut req = JobRequest::default();

        if let Some(name) = opt_str(doc, "scene")? {
            req.scene = scene_by_name(name).ok_or_else(|| {
                let known: Vec<&str> = ALL_SCENES
                    .iter()
                    .chain(QUERY_SCENES.iter())
                    .map(|s| s.name())
                    .collect();
                bad(format!(
                    "unknown scene '{name}' (known: {})",
                    known.join(", ")
                ))
            })?;
        }
        if let Some(detail) = opt_uint(doc, "detail")? {
            if detail == 0 || detail > u64::from(MAX_DETAIL) {
                return Err(bad(format!("detail must be in 1..={MAX_DETAIL}")));
            }
            req.detail = detail as u32;
        }
        if let Some(w) = opt_uint(doc, "width")? {
            req.width = w as usize;
        }
        if let Some(h) = opt_uint(doc, "height")? {
            req.height = h as usize;
        }
        if req.width == 0 || req.height == 0 || req.width > MAX_DIM || req.height > MAX_DIM {
            return Err(bad(format!(
                "frame must be 1x1..={MAX_DIM}x{MAX_DIM}, got {}x{}",
                req.width, req.height
            )));
        }
        if req.width * req.height > MAX_PIXELS {
            return Err(bad(format!(
                "frame exceeds the {MAX_PIXELS}-pixel cap ({}x{})",
                req.width, req.height
            )));
        }
        if let Some(spp) = opt_uint(doc, "spp")? {
            if spp == 0 || spp > u64::from(MAX_SPP) {
                return Err(bad(format!("spp must be in 1..={MAX_SPP}")));
            }
            req.spp = spp as u32;
        }
        if let Some(s) = opt_str(doc, "shader")? {
            req.shader = ShaderKind::parse(s)
                .ok_or_else(|| bad(format!("unknown shader '{s}' (pt, ao, sh, knn, rad, cont)")))?;
        }
        if let Some(p) = opt_str(doc, "policy")? {
            req.policy = TraversalPolicy::parse(p)
                .ok_or_else(|| bad(format!("unknown policy '{p}' (baseline, cooprt)")))?;
        }
        if let Some(r) = opt_str(doc, "reorder")? {
            req.reorder = ReorderPolicy::parse(r)
                .ok_or_else(|| bad(format!("unknown reorder '{r}' (off, morton, octant-hash)")))?;
        }
        if let Some(p) = opt_str(doc, "predict")? {
            req.predict = PredictPolicy::parse(p)
                .ok_or_else(|| bad(format!("unknown predict '{p}' (off, ray-path)")))?;
        }
        if let Some(c) = opt_str(doc, "config")? {
            req.config = match c {
                "rtx2060" => ConfigPreset::Rtx2060,
                "mobile" => ConfigPreset::Mobile,
                "small" => {
                    let sms = opt_uint(doc, "sms")?.unwrap_or(2);
                    if sms == 0 || sms > MAX_SMS as u64 {
                        return Err(bad(format!("sms must be in 1..={MAX_SMS}")));
                    }
                    ConfigPreset::Small(sms as usize)
                }
                other => {
                    return Err(bad(format!(
                        "unknown config '{other}' (rtx2060, mobile, small)"
                    )))
                }
            };
        } else if doc.get("sms").is_some() {
            return Err(bad("field 'sms' requires config \"small\""));
        }
        req.include_image = opt_bool(doc, "include_image")?;
        req.trace = opt_bool(doc, "trace")?;
        req.run_async = opt_bool(doc, "async")?;
        req.deadline_ms = opt_uint(doc, "deadline_ms")?;
        if req.deadline_ms == Some(0) {
            return Err(bad("deadline_ms must be positive"));
        }
        Ok(req)
    }

    /// The canonical identity of the *work* this request names.
    ///
    /// Two requests with equal keys must produce bitwise-identical
    /// response bodies, so the key covers everything the body depends
    /// on (scene, geometry detail, frame, spp, shader, policy, config,
    /// body-shape options) and nothing about delivery (`async`,
    /// `deadline_ms`).
    pub fn canonical_key(&self) -> String {
        format!(
            "scene={} detail={} w={} h={} spp={} shader={} policy={} reorder={} predict={} \
             config={} image={} trace={}",
            self.scene.name(),
            self.detail,
            self.width,
            self.height,
            self.spp,
            self.shader.key(),
            self.policy.label(),
            self.reorder.label(),
            self.predict.label(),
            self.config.label(),
            self.include_image,
            self.trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_telemetry::parse_json;

    fn parse(body: &str) -> Result<JobRequest, ServeError> {
        JobRequest::from_json(&parse_json(body).expect("test body is valid JSON"))
    }

    #[test]
    fn defaults_fill_absent_fields() {
        let req = parse("{}").unwrap();
        assert_eq!(req, JobRequest::default());
    }

    #[test]
    fn a_fully_specified_request_round_trips() {
        let req = parse(
            r#"{"scene": "bunny", "detail": 2, "width": 64, "height": 48,
                "spp": 4, "shader": "ao", "policy": "baseline",
                "reorder": "octant-hash", "predict": "ray-path",
                "config": "small", "sms": 4, "include_image": true,
                "trace": true, "async": true, "deadline_ms": 5000}"#,
        )
        .unwrap();
        assert_eq!(req.scene, SceneId::Bunny);
        assert_eq!(req.detail, 2);
        assert_eq!((req.width, req.height, req.spp), (64, 48, 4));
        assert_eq!(req.shader, ShaderKind::AmbientOcclusion);
        assert_eq!(req.policy, TraversalPolicy::Baseline);
        assert_eq!(req.reorder, ReorderPolicy::OctantHash);
        assert_eq!(req.predict, PredictPolicy::RayPath);
        assert_eq!(req.config, ConfigPreset::Small(4));
        assert!(req.include_image && req.trace && req.run_async);
        assert_eq!(req.deadline_ms, Some(5000));
    }

    #[test]
    fn query_scenes_and_shaders_parse() {
        let req = parse(r#"{"scene": "quni", "shader": "knn"}"#).unwrap();
        assert_eq!(req.scene, SceneId::Quni);
        assert_eq!(req.shader, ShaderKind::Knn);
        let req = parse(r#"{"scene": "qclu", "shader": "radius"}"#).unwrap();
        assert_eq!(req.shader, ShaderKind::Radius);
        let req = parse(r#"{"scene": "qamr", "shader": "cont"}"#).unwrap();
        assert_eq!(
            (req.scene, req.shader),
            (SceneId::Qamr, ShaderKind::Contain)
        );
        // Query shaders move the canonical key like any other shader.
        let knn = parse(r#"{"scene": "quni", "shader": "knn"}"#).unwrap();
        let rad = parse(r#"{"scene": "quni", "shader": "rad"}"#).unwrap();
        assert_ne!(knn.canonical_key(), rad.canonical_key());
    }

    #[test]
    fn invalid_requests_name_the_offending_field() {
        for (body, needle) in [
            (r#"[1, 2]"#, "JSON object"),
            (r#"{"scene": "castle"}"#, "unknown scene 'castle'"),
            (r#"{"scene": 7}"#, "'scene' must be a string"),
            (r#"{"width": 0}"#, "frame must be"),
            (r#"{"width": 10000}"#, "frame must be"),
            (r#"{"width": 256, "height": 256}"#, "pixel cap"),
            (r#"{"width": 12.5}"#, "non-negative integer"),
            (r#"{"spp": 0}"#, "spp must be"),
            (r#"{"spp": 100000}"#, "spp must be"),
            (r#"{"detail": 0}"#, "detail must be"),
            (r#"{"shader": "raster"}"#, "unknown shader"),
            (r#"{"policy": "magic"}"#, "unknown policy"),
            (r#"{"reorder": "zorder"}"#, "unknown reorder"),
            (r#"{"reorder": 1}"#, "'reorder' must be a string"),
            (r#"{"predict": "psychic"}"#, "unknown predict"),
            (r#"{"predict": 1}"#, "'predict' must be a string"),
            (r#"{"config": "h100"}"#, "unknown config"),
            (r#"{"config": "small", "sms": 0}"#, "sms must be"),
            (r#"{"sms": 4}"#, "requires config"),
            (r#"{"trace": "yes"}"#, "'trace' must be a boolean"),
            (r#"{"deadline_ms": 0}"#, "deadline_ms must be positive"),
        ] {
            match parse(body) {
                Err(ServeError::BadRequest(msg)) => {
                    assert!(msg.contains(needle), "'{body}': got message '{msg}'");
                }
                other => panic!("'{body}': expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn canonical_keys_ignore_delivery_options_only() {
        let base = parse(r#"{"scene": "bunny", "spp": 2}"#).unwrap();
        let asynced =
            parse(r#"{"scene": "bunny", "spp": 2, "async": true, "deadline_ms": 99}"#).unwrap();
        assert_eq!(base.canonical_key(), asynced.canonical_key());

        // Every work-shaping field must move the key.
        for body in [
            r#"{"scene": "ship", "spp": 2}"#,
            r#"{"scene": "bunny", "spp": 3}"#,
            r#"{"scene": "bunny", "spp": 2, "detail": 2}"#,
            r#"{"scene": "bunny", "spp": 2, "width": 17}"#,
            r#"{"scene": "bunny", "spp": 2, "shader": "ao"}"#,
            r#"{"scene": "bunny", "spp": 2, "policy": "baseline"}"#,
            r#"{"scene": "bunny", "spp": 2, "reorder": "morton"}"#,
            r#"{"scene": "bunny", "spp": 2, "reorder": "octant-hash"}"#,
            r#"{"scene": "bunny", "spp": 2, "predict": "ray-path"}"#,
            r#"{"scene": "bunny", "spp": 2, "config": "mobile"}"#,
            r#"{"scene": "bunny", "spp": 2, "include_image": true}"#,
            r#"{"scene": "bunny", "spp": 2, "trace": true}"#,
        ] {
            let other = parse(body).unwrap();
            assert_ne!(base.canonical_key(), other.canonical_key(), "{body}");
        }

        // The reorder policies must not collide with each other either.
        let morton = parse(r#"{"scene": "bunny", "spp": 2, "reorder": "morton"}"#).unwrap();
        let octant = parse(r#"{"scene": "bunny", "spp": 2, "reorder": "octant-hash"}"#).unwrap();
        assert_ne!(morton.canonical_key(), octant.canonical_key());
    }
}
