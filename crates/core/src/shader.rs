//! Shader drivers: the raygen loops that issue `trace_ray` instructions.
//!
//! Listing 1 of the paper is a path-tracing raygen shader: compute the
//! primary ray, then loop `NUM_BOUNCES` times — trace, break on miss or
//! absorption, otherwise scatter and continue. §7.3 adds the lightweight
//! ambient-occlusion (AO) and shadow (SH) shaders whose secondary rays
//! are short and coherent.
//!
//! The shading here is *functional* — it runs on the host between
//! simulated `trace_ray` instructions, exactly like Vulkan-sim's
//! functional simulator — while all traversal timing comes from the RT
//! unit model. Shading must be deterministic in the trace results alone,
//! so baseline and CoopRT runs produce bit-identical images.

use crate::config::GpuConfig;
use crate::rtunit::RayHit;
use cooprt_math::{cosine_hemisphere, Onb, Ray, Rgb, Vec3};
use cooprt_scenes::{Material, Scatter, Scene};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which ray-tracing workload the raygen shader runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ShaderKind {
    /// Full path tracing (Listing 1): up to `max_bounces` bounces.
    #[default]
    PathTrace,
    /// Ambient occlusion: primary ray + a few short hemisphere rays.
    AmbientOcclusion,
    /// Ray-traced shadows: primary ray + rays toward the light.
    Shadow,
    /// Spatial query: k nearest neighbors within the domain radius
    /// (RTNN-style gather traversal over a point-cloud BVH).
    Knn,
    /// Spatial query: all points within the domain radius.
    Radius,
    /// Spatial query: point-in-cell containment on an AMR grid
    /// (Zellmann-style closest-hit probe against cell boxes).
    Contain,
}

impl ShaderKind {
    /// Stable short key, used in benchmark tables, trace headers and
    /// canonical serve cache keys. Renaming a key invalidates pinned
    /// BENCH rows and serve caches; treat these as frozen.
    pub fn key(self) -> &'static str {
        match self {
            ShaderKind::PathTrace => "pt",
            ShaderKind::AmbientOcclusion => "ao",
            ShaderKind::Shadow => "sh",
            ShaderKind::Knn => "knn",
            ShaderKind::Radius => "rad",
            ShaderKind::Contain => "cont",
        }
    }

    /// Parses a [`ShaderKind::key`] back to the kind. The long
    /// spellings `path`, `shadow`, `radius` and `contain` are accepted
    /// too.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pt" | "path" => Some(ShaderKind::PathTrace),
            "ao" => Some(ShaderKind::AmbientOcclusion),
            "sh" | "shadow" => Some(ShaderKind::Shadow),
            "knn" => Some(ShaderKind::Knn),
            "rad" | "radius" => Some(ShaderKind::Radius),
            "cont" | "contain" => Some(ShaderKind::Contain),
            _ => None,
        }
    }

    /// True if the `trace_ray` at `iteration` uses any-hit semantics
    /// (AO/SH secondary rays accept the first intersection). Query
    /// kinds never use any-hit: gather traversal must enumerate every
    /// overlapping primitive, and the containment probe needs the
    /// closest face.
    pub fn wants_anyhit(self, iteration: u32) -> bool {
        match self {
            ShaderKind::PathTrace => false,
            ShaderKind::AmbientOcclusion | ShaderKind::Shadow => iteration >= 1,
            ShaderKind::Knn | ShaderKind::Radius | ShaderKind::Contain => false,
        }
    }

    /// True for the gather-traversal query kinds (kNN / radius), whose
    /// probe rays enumerate primitives containing the query point
    /// instead of intersecting along the ray.
    pub fn is_gather(self) -> bool {
        matches!(self, ShaderKind::Knn | ShaderKind::Radius)
    }

    /// True for every spatial-query kind (needs a scene with a
    /// [`cooprt_scenes::QueryDomain`]).
    pub fn is_query(self) -> bool {
        matches!(
            self,
            ShaderKind::Knn | ShaderKind::Radius | ShaderKind::Contain
        )
    }
}

/// Offset applied along the surface normal when spawning secondary rays,
/// to avoid self-intersection.
const RAY_BIAS: f32 = 1.0e-3;

/// `t_max` for gather-mode probe rays: gather traversal never reads it,
/// but a near-zero bound keeps the "zero-length ray" semantics honest
/// everywhere else (no triangle can intersect within it — see
/// `cooprt_math::Ray::probe`).
pub const PROBE_T_MAX: f32 = 1.0e-4;

/// Per-thread raygen shader state (one pixel).
#[derive(Debug)]
pub struct ShaderThread {
    rng: StdRng,
    /// The ray to trace in the current iteration; `None` once the thread
    /// has exited the bounce loop (masked off in hardware).
    pub ray: Option<Ray>,
    /// Search limit for the current ray.
    pub t_max: f32,
    /// Accumulated pixel color.
    pub color: Rgb,
    throughput: Rgb,
    bounces: u32,
    // AO/SH state recorded at the primary hit.
    base_point: Vec3,
    base_normal: Vec3,
    base_albedo: Rgb,
    secondary_done: u32,
    secondary_hits: u32,
    // Query state: the sampled query point and the answer (point
    // indices for kNN/radius, the cell id for containment).
    query_point: Vec3,
    /// Query answer for query kinds (empty otherwise): sorted point
    /// indices for radius search, the k nearest (by distance, then
    /// index) for kNN, the containing cell id for containment.
    pub query_hits: Vec<u32>,
}

impl ShaderThread {
    /// Initializes the shader for one pixel: seeds the RNG and computes
    /// the primary ray through pixel coordinates `(u, v)`.
    pub fn begin(scene: &Scene, pixel_index: usize, u: f32, v: f32) -> Self {
        Self::begin_with_salt(scene, pixel_index, u, v, 0)
    }

    /// [`ShaderThread::begin`] with a sample-index salt, so multiple
    /// samples per pixel draw independent random sequences.
    pub fn begin_with_salt(scene: &Scene, pixel_index: usize, u: f32, v: f32, salt: u64) -> Self {
        let seed = 0x5EED_C0DE
            ^ (pixel_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        ShaderThread {
            rng: StdRng::seed_from_u64(seed),
            ray: Some(scene.camera.primary_ray(u, v)),
            t_max: f32::INFINITY,
            color: Rgb::BLACK,
            throughput: Rgb::WHITE,
            bounces: 0,
            base_point: Vec3::ZERO,
            base_normal: Vec3::Y,
            base_albedo: Rgb::BLACK,
            secondary_done: 0,
            secondary_hits: 0,
            query_point: Vec3::ZERO,
            query_hits: Vec::new(),
        }
    }

    /// Deterministically samples the query point for `pixel_index` /
    /// `salt` from the scene's query domain. Shared by the engine-side
    /// driver ([`ShaderThread::begin_query`]) and the brute-force
    /// oracle, so both sides answer the *same* question.
    ///
    /// # Panics
    ///
    /// Panics if the scene has no query domain (the engine validates
    /// this up front with a typed `ConfigError`).
    pub fn query_point(scene: &Scene, pixel_index: usize, salt: u64) -> Vec3 {
        let domain = scene
            .query
            .as_ref()
            .expect("query shaders need a scene with a QueryDomain");
        let seed = 0x5EED_C0DE
            ^ (pixel_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut rng = StdRng::seed_from_u64(seed);
        domain.sample_query_point(&mut rng)
    }

    /// Initializes a query-shader thread: samples the query point and
    /// issues its probe ray ([`cooprt_math::Ray::probe`]). Gather kinds
    /// (kNN/radius) bound the probe at [`PROBE_T_MAX`]; the containment
    /// probe travels to its cell's `+X` face, so it keeps `t` open.
    pub fn begin_query(scene: &Scene, kind: ShaderKind, pixel_index: usize, salt: u64) -> Self {
        debug_assert!(kind.is_query());
        let q = Self::query_point(scene, pixel_index, salt);
        let mut thread = Self::masked();
        thread.query_point = q;
        thread.ray = Some(Ray::probe(q));
        thread.t_max = if kind.is_gather() {
            PROBE_T_MAX
        } else {
            f32::INFINITY
        };
        thread
    }

    /// A thread with no pixel (image smaller than the warp): masked off
    /// from the start.
    pub fn masked() -> Self {
        ShaderThread {
            rng: StdRng::seed_from_u64(0),
            ray: None,
            t_max: f32::INFINITY,
            color: Rgb::BLACK,
            throughput: Rgb::WHITE,
            bounces: 0,
            base_point: Vec3::ZERO,
            base_normal: Vec3::Y,
            base_albedo: Rgb::BLACK,
            secondary_done: 0,
            secondary_hits: 0,
            query_point: Vec3::ZERO,
            query_hits: Vec::new(),
        }
    }

    /// Consumes the result of the thread's `trace_ray` and advances the
    /// raygen loop: either sets the next ray ([`ShaderThread::ray`]
    /// becomes `Some`) or exits the loop (`None`), finalizing
    /// [`ShaderThread::color`].
    ///
    /// Does nothing for masked threads.
    /// `gathered` carries the triangles the gather traversal collected
    /// for this thread (query kinds only; render kinds ignore it).
    pub fn resume(
        &mut self,
        kind: ShaderKind,
        cfg: &GpuConfig,
        scene: &Scene,
        hit: Option<RayHit>,
        gathered: &[u32],
    ) {
        let Some(ray) = self.ray else { return };
        match kind {
            ShaderKind::PathTrace => self.resume_pt(cfg, scene, ray, hit),
            ShaderKind::AmbientOcclusion => self.resume_ao(cfg, scene, ray, hit),
            ShaderKind::Shadow => self.resume_sh(cfg, scene, ray, hit),
            ShaderKind::Knn | ShaderKind::Radius => self.resume_gather(kind, scene, gathered),
            ShaderKind::Contain => self.resume_contain(scene, hit),
        }
    }

    /// kNN / radius search: the gather traversal returned every
    /// triangle whose AABB contains the query point — a conservative
    /// candidate superset (see `cooprt_scenes::query`). Map triangles
    /// to primitives, apply the exact distance filter, and rank.
    fn resume_gather(&mut self, kind: ShaderKind, scene: &Scene, gathered: &[u32]) {
        let domain = scene
            .query
            .as_ref()
            .expect("gather resume on a scene without a QueryDomain");
        let q = self.query_point;
        // `gathered` is sorted; primitive ids inherit the order, so a
        // linear dedup suffices.
        let mut candidates: Vec<u32> = gathered
            .iter()
            .filter_map(|&t| domain.primitive_of(t))
            .map(|p| p as u32)
            .collect();
        candidates.dedup();
        candidates.retain(|&p| domain.within_radius(q, p as usize));
        if kind == ShaderKind::Knn {
            // Rank by (exact f32 distance bits, point index) — the same
            // total order the oracle uses — and keep the k nearest.
            candidates.sort_by_key(|&p| {
                (
                    (domain.points[p as usize] - q).length_squared().to_bits(),
                    p,
                )
            });
            candidates.truncate(domain.k);
        }
        self.finish_query(candidates);
    }

    /// Point-in-cell containment: the closest hit from inside a cell is
    /// that cell's own `+X` face (cells are disjoint and gap-separated),
    /// so the hit triangle names the cell.
    fn resume_contain(&mut self, scene: &Scene, hit: Option<RayHit>) {
        let domain = scene
            .query
            .as_ref()
            .expect("containment resume on a scene without a QueryDomain");
        let hits = match hit.and_then(|h| domain.primitive_of(h.triangle)) {
            Some(cell) => vec![cell as u32],
            None => Vec::new(),
        };
        self.finish_query(hits);
    }

    /// Stores the answer and derives the pixel color from it, so the
    /// image-identity oracles (baseline vs CoopRT, record/replay,
    /// reorder, predict) keep biting on query workloads: any divergence
    /// in the *answer* shows up as a pixel difference.
    fn finish_query(&mut self, hits: Vec<u32>) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &x in &hits {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ hits.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        self.color = Rgb::new(
            (h >> 8 & 0xFF) as f32 / 255.0,
            (h >> 24 & 0xFF) as f32 / 255.0,
            (h >> 40 & 0xFF) as f32 / 255.0,
        );
        self.query_hits = hits;
        self.ray = None;
    }

    fn resume_pt(&mut self, cfg: &GpuConfig, scene: &Scene, ray: Ray, hit: Option<RayHit>) {
        self.bounces += 1;
        let Some(h) = hit else {
            // Escaped the scene: collect the environment and exit.
            self.color += self.throughput.attenuate(scene.sky.radiance(ray.dir));
            self.ray = None;
            return;
        };
        let tri = scene.image.triangle(h.triangle);
        let normal = tri.normal();
        match scene
            .material(h.triangle)
            .scatter(ray.dir, normal, &mut self.rng)
        {
            Scatter::Emit(radiance) => {
                self.color += self.throughput.attenuate(radiance);
                self.ray = None;
            }
            Scatter::Absorb => {
                self.ray = None;
            }
            Scatter::Bounce { dir, attenuation } => {
                self.throughput = self.throughput.attenuate(attenuation);
                if self.bounces >= cfg.max_bounces {
                    self.ray = None;
                } else {
                    // Bias the origin toward the side the new ray
                    // departs on (refracted rays cross the surface).
                    let n = if ray.dir.dot(normal) < 0.0 {
                        normal
                    } else {
                        -normal
                    };
                    let side = if dir.dot(n) >= 0.0 { n } else { -n };
                    self.ray = Some(Ray::new(ray.at(h.t) + side * RAY_BIAS, dir));
                }
            }
        }
    }

    fn record_base_hit(&mut self, scene: &Scene, ray: Ray, h: RayHit) {
        let tri = scene.image.triangle(h.triangle);
        let normal = tri.normal();
        self.base_normal = if ray.dir.dot(normal) < 0.0 {
            normal
        } else {
            -normal
        };
        self.base_point = ray.at(h.t) + self.base_normal * RAY_BIAS;
        self.base_albedo = match *scene.material(h.triangle) {
            Material::Lambertian { albedo } | Material::Metal { albedo, .. } => albedo,
            Material::Emissive { radiance } => radiance,
            Material::Dielectric { .. } => Rgb::WHITE,
        };
    }

    fn resume_ao(&mut self, cfg: &GpuConfig, scene: &Scene, ray: Ray, hit: Option<RayHit>) {
        if self.bounces == 0 {
            // Primary ray.
            self.bounces = 1;
            match hit {
                None => {
                    self.color = scene.sky.radiance(ray.dir);
                    self.ray = None;
                }
                Some(h) => {
                    self.record_base_hit(scene, ray, h);
                    self.spawn_ao_ray(cfg);
                }
            }
            return;
        }
        // An occlusion ray came back.
        self.secondary_done += 1;
        if hit.is_some() {
            self.secondary_hits += 1;
        }
        if self.secondary_done < cfg.ao_samples {
            self.spawn_ao_ray(cfg);
        } else {
            let visibility = 1.0 - self.secondary_hits as f32 / cfg.ao_samples.max(1) as f32;
            self.color = self.base_albedo * visibility;
            self.ray = None;
        }
    }

    fn spawn_ao_ray(&mut self, cfg: &GpuConfig) {
        let dir = Onb::from_w(self.base_normal).to_world(cosine_hemisphere(&mut self.rng));
        self.ray = Some(Ray::new(self.base_point, dir));
        self.t_max = cfg.ao_radius;
    }

    fn resume_sh(&mut self, cfg: &GpuConfig, scene: &Scene, ray: Ray, hit: Option<RayHit>) {
        if self.bounces == 0 {
            self.bounces = 1;
            match hit {
                None => {
                    self.color = scene.sky.radiance(ray.dir);
                    self.ray = None;
                }
                Some(h) => {
                    self.record_base_hit(scene, ray, h);
                    self.spawn_shadow_ray(scene);
                }
            }
            return;
        }
        self.secondary_done += 1;
        if hit.is_some() {
            self.secondary_hits += 1;
        }
        if self.secondary_done < cfg.sh_samples {
            self.spawn_shadow_ray(scene);
        } else {
            let lit = 1.0 - self.secondary_hits as f32 / cfg.sh_samples.max(1) as f32;
            // Direct lighting: albedo scaled by visibility plus a small
            // ambient floor so shadowed pixels are not pure black.
            self.color = self.base_albedo * (0.15 + 0.85 * lit);
            self.ray = None;
        }
    }

    fn spawn_shadow_ray(&mut self, scene: &Scene) {
        match scene.sample_light_point(&mut self.rng) {
            Some(target) => {
                let to_light = target - self.base_point;
                let dist = to_light.length();
                if dist <= RAY_BIAS {
                    // Degenerate: shading point on the light itself.
                    self.ray = Some(Ray::new(self.base_point, self.base_normal));
                    self.t_max = RAY_BIAS;
                } else {
                    self.ray = Some(Ray::new(self.base_point, to_light));
                    self.t_max = dist - RAY_BIAS;
                }
            }
            None => {
                // No lights: a fixed "sun" direction, as open daylight
                // scenes are lit by the sky.
                let sun = Vec3::new(0.4, 1.0, 0.25).normalized();
                self.ray = Some(Ray::from_unit(self.base_point, sun));
                self.t_max = f32::INFINITY;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_scenes::SceneId;

    fn scene() -> Scene {
        SceneId::Wknd.build(2)
    }

    fn cfg() -> GpuConfig {
        GpuConfig::small(1)
    }

    #[test]
    fn any_hit_schedule_per_kind() {
        assert!(!ShaderKind::PathTrace.wants_anyhit(0));
        assert!(!ShaderKind::PathTrace.wants_anyhit(5));
        assert!(!ShaderKind::AmbientOcclusion.wants_anyhit(0));
        assert!(ShaderKind::AmbientOcclusion.wants_anyhit(1));
        assert!(ShaderKind::Shadow.wants_anyhit(2));
        // Query kinds never use any-hit: gather traversal needs full
        // enumeration, containment needs the true closest hit.
        for it in [0, 1, 5] {
            assert!(!ShaderKind::Knn.wants_anyhit(it));
            assert!(!ShaderKind::Radius.wants_anyhit(it));
            assert!(!ShaderKind::Contain.wants_anyhit(it));
        }
    }

    #[test]
    fn masked_thread_never_traces() {
        let mut t = ShaderThread::masked();
        assert!(t.ray.is_none());
        t.resume(ShaderKind::PathTrace, &cfg(), &scene(), None, &[]);
        assert!(t.ray.is_none());
        assert_eq!(t.color, Rgb::BLACK);
    }

    #[test]
    fn pt_miss_collects_sky_and_exits() {
        let s = scene();
        let mut t = ShaderThread::begin(&s, 0, 0.5, 0.9);
        let dir = t.ray.unwrap().dir;
        t.resume(ShaderKind::PathTrace, &cfg(), &s, None, &[]);
        assert!(t.ray.is_none());
        assert_eq!(t.color, s.sky.radiance(dir));
    }

    #[test]
    fn pt_bounce_continues_until_limit() {
        let s = scene();
        let mut c = cfg();
        c.max_bounces = 3;
        let mut t = ShaderThread::begin(&s, 1, 0.5, 0.3);
        // Feed it fake diffuse hits until it exhausts its bounce budget.
        let mut bounces = 0;
        while t.ray.is_some() && bounces < 10 {
            // Hit the ground quad (triangle 0, lambertian).
            t.resume(
                ShaderKind::PathTrace,
                &c,
                &s,
                Some(RayHit {
                    triangle: 0,
                    t: 5.0,
                }),
                &[],
            );
            bounces += 1;
        }
        assert!(t.ray.is_none());
        assert_eq!(bounces, 3, "bounce budget must cap the loop");
    }

    #[test]
    fn pt_is_deterministic_per_pixel() {
        let s = scene();
        let mut a = ShaderThread::begin(&s, 42, 0.4, 0.4);
        let mut b = ShaderThread::begin(&s, 42, 0.4, 0.4);
        let hit = Some(RayHit {
            triangle: 0,
            t: 8.0,
        });
        a.resume(ShaderKind::PathTrace, &cfg(), &s, hit, &[]);
        b.resume(ShaderKind::PathTrace, &cfg(), &s, hit, &[]);
        assert_eq!(a.ray, b.ray, "same seed + same hits = same scatter");
        // Different pixel index -> different stream.
        let mut c = ShaderThread::begin(&s, 43, 0.4, 0.4);
        c.resume(ShaderKind::PathTrace, &cfg(), &s, hit, &[]);
        assert_ne!(a.ray, c.ray);
    }

    #[test]
    fn ao_counts_occlusion() {
        let s = scene();
        let c = cfg();
        let mut t = ShaderThread::begin(&s, 7, 0.5, 0.2);
        // Primary hit on the ground.
        t.resume(
            ShaderKind::AmbientOcclusion,
            &c,
            &s,
            Some(RayHit {
                triangle: 0,
                t: 10.0,
            }),
            &[],
        );
        assert!(t.ray.is_some(), "AO rays must follow the primary hit");
        assert_eq!(t.t_max, c.ao_radius, "AO rays are short");
        // All AO rays occluded -> black.
        for _ in 0..c.ao_samples {
            assert!(t.ray.is_some());
            t.resume(
                ShaderKind::AmbientOcclusion,
                &c,
                &s,
                Some(RayHit {
                    triangle: 1,
                    t: 0.5,
                }),
                &[],
            );
        }
        assert!(t.ray.is_none());
        assert_eq!(t.color, Rgb::BLACK);
    }

    #[test]
    fn ao_unoccluded_keeps_albedo() {
        let s = scene();
        let c = cfg();
        let mut t = ShaderThread::begin(&s, 8, 0.5, 0.2);
        t.resume(
            ShaderKind::AmbientOcclusion,
            &c,
            &s,
            Some(RayHit {
                triangle: 0,
                t: 10.0,
            }),
            &[],
        );
        for _ in 0..c.ao_samples {
            t.resume(ShaderKind::AmbientOcclusion, &c, &s, None, &[]);
        }
        assert!(t.ray.is_none());
        assert!(t.color.luminance() > 0.0, "open sky -> full albedo");
    }

    #[test]
    fn ao_primary_miss_shows_sky() {
        let s = scene();
        let mut t = ShaderThread::begin(&s, 9, 0.5, 0.95);
        let dir = t.ray.unwrap().dir;
        t.resume(ShaderKind::AmbientOcclusion, &cfg(), &s, None, &[]);
        assert!(t.ray.is_none());
        assert_eq!(t.color, s.sky.radiance(dir));
    }

    #[test]
    fn shadow_rays_target_light_or_sun() {
        let s = scene(); // wknd has no lights -> sun fallback
        let c = cfg();
        let mut t = ShaderThread::begin(&s, 11, 0.5, 0.3);
        t.resume(
            ShaderKind::Shadow,
            &c,
            &s,
            Some(RayHit {
                triangle: 0,
                t: 10.0,
            }),
            &[],
        );
        let shadow = t.ray.expect("shadow ray follows the primary hit");
        assert!(shadow.dir.y > 0.5, "sun fallback points upward");
        // Lit scene: shadow rays have finite t_max toward the light.
        let lit = SceneId::Bath.build(2);
        let mut t2 = ShaderThread::begin(&lit, 12, 0.5, 0.5);
        t2.resume(
            ShaderKind::Shadow,
            &c,
            &lit,
            Some(RayHit {
                triangle: 0,
                t: 5.0,
            }),
            &[],
        );
        assert!(t2.ray.is_some());
        assert!(t2.t_max.is_finite());
    }

    #[test]
    fn shadow_occlusion_darkens() {
        let s = SceneId::Bath.build(2);
        let c = cfg();
        let shade = |occluded: bool| {
            let mut t = ShaderThread::begin(&s, 13, 0.5, 0.5);
            t.resume(
                ShaderKind::Shadow,
                &c,
                &s,
                Some(RayHit {
                    triangle: 0,
                    t: 5.0,
                }),
                &[],
            );
            for _ in 0..c.sh_samples {
                let hit = occluded.then_some(RayHit {
                    triangle: 1,
                    t: 0.3,
                });
                t.resume(ShaderKind::Shadow, &c, &s, hit, &[]);
            }
            assert!(t.ray.is_none());
            t.color
        };
        assert!(shade(true).luminance() < shade(false).luminance());
    }

    #[test]
    fn keys_are_frozen() {
        // These short keys appear in canonical serve cache keys and
        // BENCH row identifiers — changing one invalidates pins.
        assert_eq!(ShaderKind::PathTrace.key(), "pt");
        assert_eq!(ShaderKind::AmbientOcclusion.key(), "ao");
        assert_eq!(ShaderKind::Shadow.key(), "sh");
        assert_eq!(ShaderKind::Knn.key(), "knn");
        assert_eq!(ShaderKind::Radius.key(), "rad");
        assert_eq!(ShaderKind::Contain.key(), "cont");
    }

    #[test]
    fn parse_inverts_key() {
        for kind in [
            ShaderKind::PathTrace,
            ShaderKind::AmbientOcclusion,
            ShaderKind::Shadow,
            ShaderKind::Knn,
            ShaderKind::Radius,
            ShaderKind::Contain,
        ] {
            assert_eq!(ShaderKind::parse(kind.key()), Some(kind));
        }
        assert_eq!(ShaderKind::parse("shadow"), Some(ShaderKind::Shadow));
        assert_eq!(ShaderKind::parse("PT"), None);
    }

    #[test]
    fn query_kind_classification() {
        for k in [ShaderKind::Knn, ShaderKind::Radius] {
            assert!(k.is_query());
            assert!(k.is_gather());
        }
        assert!(ShaderKind::Contain.is_query());
        assert!(!ShaderKind::Contain.is_gather());
        for k in [
            ShaderKind::PathTrace,
            ShaderKind::AmbientOcclusion,
            ShaderKind::Shadow,
        ] {
            assert!(!k.is_query());
            assert!(!k.is_gather());
        }
    }

    #[test]
    fn query_threads_probe_from_a_deterministic_point() {
        let s = SceneId::Quni.build(2);
        let a = ShaderThread::begin_query(&s, ShaderKind::Knn, 5, 7);
        let b = ShaderThread::begin_query(&s, ShaderKind::Knn, 5, 7);
        assert_eq!(a.ray, b.ray, "same (pixel, salt) -> same probe");
        assert_eq!(
            a.ray.unwrap().orig,
            ShaderThread::query_point(&s, 5, 7),
            "probe anchors at the shared query point"
        );
        assert_eq!(a.t_max, PROBE_T_MAX, "gather probes are epsilon rays");
        let c = ShaderThread::begin_query(&s, ShaderKind::Knn, 6, 7);
        assert_ne!(a.ray.unwrap().orig, c.ray.unwrap().orig);
        // Containment probes are ordinary closest-hit rays.
        let cells = SceneId::Qamr.build(2);
        let d = ShaderThread::begin_query(&cells, ShaderKind::Contain, 0, 0);
        assert_eq!(d.t_max, f32::INFINITY);
    }

    #[test]
    fn radius_resume_filters_and_dedupes_candidates() {
        let s = SceneId::Quni.build(2);
        let domain = s.query.as_ref().unwrap();
        let tpp = domain.tris_per_prim;
        // Feed every triangle of every point as the gathered candidate
        // set (a maximally sloppy superset, each prim repeated 8x).
        let all: Vec<u32> = (0..domain.points.len() as u32 * tpp).collect();
        let mut found_neighbors = false;
        for pixel in 0..64 {
            let mut t = ShaderThread::begin_query(&s, ShaderKind::Radius, pixel, 1);
            let q = t.query_point;
            t.resume(ShaderKind::Radius, &cfg(), &s, None, &all);
            assert!(t.ray.is_none(), "queries are single-trace");
            // The answer must be exactly the in-radius points, ascending,
            // with the per-prim duplicates collapsed.
            let expect: Vec<u32> = (0..domain.points.len())
                .filter(|&p| domain.within_radius(q, p))
                .map(|p| p as u32)
                .collect();
            assert_eq!(t.query_hits, expect);
            found_neighbors |= !expect.is_empty();
        }
        assert!(found_neighbors, "some query point should find neighbors");
    }

    #[test]
    fn knn_resume_ranks_by_distance_and_truncates() {
        let s = SceneId::Quni.build(2);
        let domain = s.query.as_ref().unwrap();
        let mut t = ShaderThread::begin_query(&s, ShaderKind::Knn, 9, 2);
        let q = t.query_point;
        let all: Vec<u32> = (0..domain.points.len() as u32 * domain.tris_per_prim).collect();
        t.resume(ShaderKind::Knn, &cfg(), &s, None, &all);
        assert!(t.query_hits.len() <= domain.k);
        let dist = |p: u32| (domain.points[p as usize] - q).length_squared().to_bits();
        for w in t.query_hits.windows(2) {
            assert!(
                (dist(w[0]), w[0]) < (dist(w[1]), w[1]),
                "sorted by (dist, idx)"
            );
        }
        for &p in &t.query_hits {
            assert!(domain.within_radius(q, p as usize));
        }
    }

    #[test]
    fn contain_resume_names_the_hit_cell() {
        let s = SceneId::Qamr.build(2);
        let domain = s.query.as_ref().unwrap();
        let mut t = ShaderThread::begin_query(&s, ShaderKind::Contain, 4, 3);
        let expected = domain.cell_containing(t.query_point);
        // The closest hit from inside a cell is one of that cell's own
        // triangles; simulate it directly.
        let hit = expected.map(|cell| RayHit {
            triangle: domain.prim_base + cell as u32 * domain.tris_per_prim,
            t: 1.0,
        });
        t.resume(ShaderKind::Contain, &cfg(), &s, hit, &[]);
        assert!(t.ray.is_none());
        let expect: Vec<u32> = expected.into_iter().map(|c| c as u32).collect();
        assert_eq!(t.query_hits, expect);
        assert_eq!(expect.len(), 1, "guard-band sampling keeps points in cells");
    }

    #[test]
    fn query_answers_drive_the_pixel_color() {
        let s = SceneId::Qamr.build(2);
        let shade = |hits: &[u32]| {
            let mut t = ShaderThread::begin_query(&s, ShaderKind::Contain, 0, 0);
            t.finish_query(hits.to_vec());
            t.color
        };
        assert_eq!(
            shade(&[3]),
            shade(&[3]),
            "color is a pure function of the answer"
        );
        assert_ne!(
            shade(&[3]),
            shade(&[4]),
            "different answers must differ visibly"
        );
        assert_ne!(shade(&[]), shade(&[0]));
    }
}
