//! Reference CPU traversals over a [`BvhImage`].
//!
//! These implement Algorithm 1 of the paper exactly — stack-based DFS over
//! node addresses, testing child AABBs against the current `min_thit` —
//! and serve as the functional gold model for the simulator: the RT unit
//! must compute identical hits under both the baseline and the CoopRT
//! policy.

use crate::{BvhImage, NodeKind};
use cooprt_math::Ray;

/// A closest-hit query result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrimHit {
    /// Index of the hit triangle.
    pub triangle: u32,
    /// Hit distance along the ray.
    pub t: f32,
    /// Barycentric `u`.
    pub u: f32,
    /// Barycentric `v`.
    pub v: f32,
}

/// Traversal statistics gathered by the instrumented queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalCounters {
    /// Nodes popped from the stack and processed.
    pub nodes_visited: u64,
    /// Ray/box tests performed.
    pub box_tests: u64,
    /// Ray/triangle tests performed.
    pub triangle_tests: u64,
    /// High-water mark of the traversal stack.
    pub max_stack_depth: usize,
}

/// Reusable traversal scratch state.
///
/// Holds the node-address stack so repeated queries (millions per frame
/// in the shader reference pass) do not allocate a fresh `Vec` each
/// time. One `Traverser` per thread; queries leave the buffer empty but
/// keep its capacity.
#[derive(Debug, Default)]
pub struct Traverser {
    stack: Vec<u64>,
}

impl Traverser {
    /// Creates a traverser with a stack sized for typical scene depths.
    pub fn new() -> Self {
        Traverser {
            stack: Vec::with_capacity(64),
        }
    }

    /// See [`closest_hit`].
    pub fn closest_hit(&mut self, image: &BvhImage, ray: &Ray, t_max: f32) -> Option<PrimHit> {
        let mut counters = TraversalCounters::default();
        self.closest_hit_counted(image, ray, t_max, &mut counters)
    }

    /// See [`closest_hit_counted`].
    pub fn closest_hit_counted(
        &mut self,
        image: &BvhImage,
        ray: &Ray,
        t_max: f32,
        counters: &mut TraversalCounters,
    ) -> Option<PrimHit> {
        let stack = &mut self.stack;
        stack.clear();
        let mut min_thit = t_max;
        let mut best: Option<PrimHit> = None;

        counters.box_tests += 1;
        if image.node_count() > 0 && image.root_bounds().intersect(ray, min_thit).is_some() {
            stack.push(image.root_addr());
        }

        while let Some(addr) = stack.pop() {
            counters.nodes_visited += 1;
            let node = image
                .node_at(addr)
                .expect("stack holds valid node addresses");
            match node.kind {
                NodeKind::Internal { .. } => {
                    for child in image.children(node) {
                        counters.box_tests += 1;
                        if child.bounds.intersect(ray, min_thit).is_some() {
                            stack.push(child.addr);
                        }
                    }
                    counters.max_stack_depth = counters.max_stack_depth.max(stack.len());
                }
                NodeKind::Leaf { triangle } => {
                    counters.triangle_tests += 1;
                    if let Some(h) = image.triangle(triangle).intersect(ray, f32::INFINITY) {
                        if accepts(h.t, triangle, min_thit, &best) {
                            min_thit = h.t;
                            best = Some(PrimHit {
                                triangle,
                                t: h.t,
                                u: h.u,
                                v: h.v,
                            });
                        }
                    }
                }
            }
        }
        best
    }

    /// See [`any_hit`].
    pub fn any_hit(&mut self, image: &BvhImage, ray: &Ray, t_max: f32) -> bool {
        let stack = &mut self.stack;
        stack.clear();
        if image.node_count() > 0 && image.root_bounds().intersect(ray, t_max).is_some() {
            stack.push(image.root_addr());
        }
        while let Some(addr) = stack.pop() {
            let node = image
                .node_at(addr)
                .expect("stack holds valid node addresses");
            match node.kind {
                NodeKind::Internal { .. } => {
                    for child in image.children(node) {
                        if child.bounds.intersect(ray, t_max).is_some() {
                            stack.push(child.addr);
                        }
                    }
                }
                NodeKind::Leaf { triangle } => {
                    if image.triangle(triangle).intersect(ray, t_max).is_some() {
                        stack.clear();
                        return true;
                    }
                }
            }
        }
        false
    }
}

std::thread_local! {
    /// Per-thread scratch for the free-function entry points, so callers
    /// that cannot conveniently thread a [`Traverser`] through still get
    /// allocation-free queries.
    static SCRATCH: std::cell::RefCell<Traverser> = std::cell::RefCell::new(Traverser::new());
}

/// Finds the closest-hit primitive for `ray`, searching `[0, t_max)`.
///
/// Implements Algorithm 1: DFS with a node-address stack; children whose
/// slab-entry distance is not closer than the current `min_thit` are
/// eliminated. Uses a per-thread reusable stack — no allocation per
/// query.
///
/// # Examples
///
/// ```
/// use cooprt_bvh::{build_binary, BvhImage, WideBvh};
/// use cooprt_bvh::traverse::closest_hit;
/// use cooprt_math::{Ray, Triangle, Vec3};
///
/// // Two parallel triangles; the nearer one must win.
/// let tris = vec![
///     Triangle::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(1.0, 0.0, 5.0), Vec3::new(0.0, 1.0, 5.0)),
///     Triangle::new(Vec3::new(0.0, 0.0, 2.0), Vec3::new(1.0, 0.0, 2.0), Vec3::new(0.0, 1.0, 2.0)),
/// ];
/// let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris);
/// let hit = closest_hit(&image, &Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::Z), f32::INFINITY);
/// assert_eq!(hit.unwrap().triangle, 1);
/// ```
pub fn closest_hit(image: &BvhImage, ray: &Ray, t_max: f32) -> Option<PrimHit> {
    SCRATCH.with(|t| t.borrow_mut().closest_hit(image, ray, t_max))
}

/// [`closest_hit`] with traversal counters, used by tests and statistics.
pub fn closest_hit_counted(
    image: &BvhImage,
    ray: &Ray,
    t_max: f32,
    counters: &mut TraversalCounters,
) -> Option<PrimHit> {
    SCRATCH.with(|t| {
        t.borrow_mut()
            .closest_hit_counted(image, ray, t_max, counters)
    })
}

/// Any-hit query: returns `true` as soon as *any* primitive is hit within
/// `[0, t_max)`. Used for shadow and ambient-occlusion rays.
pub fn any_hit(image: &BvhImage, ray: &Ray, t_max: f32) -> bool {
    SCRATCH.with(|t| t.borrow_mut().any_hit(image, ray, t_max))
}

/// Tie-broken hit acceptance: a candidate wins if it is strictly
/// closer, or exactly as close as the current best **hit** but with a
/// lower primitive index.
///
/// Rays through a shared mesh edge intersect both adjacent triangles at
/// *exactly* the same `t`; without a deterministic tie-break the winner
/// would depend on traversal order — and CoopRT deliberately changes
/// traversal order, which would break its bit-exactness guarantee.
pub(crate) fn accepts(t: f32, triangle: u32, min_thit: f32, best: &Option<PrimHit>) -> bool {
    if t < min_thit {
        return true;
    }
    matches!(best, Some(b) if t == b.t && triangle < b.triangle)
}

/// Brute-force closest hit over every triangle — the gold reference the
/// BVH traversal is validated against in tests.
pub fn brute_force_closest_hit(image: &BvhImage, ray: &Ray, t_max: f32) -> Option<PrimHit> {
    let mut min_thit = t_max;
    let mut best = None;
    for (i, tri) in image.triangles().iter().enumerate() {
        if let Some(h) = tri.intersect(ray, f32::INFINITY) {
            if accepts(h.t, i as u32, min_thit, &best) {
                min_thit = h.t;
                best = Some(PrimHit {
                    triangle: i as u32,
                    t: h.t,
                    u: h.u,
                    v: h.v,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_binary, WideBvh};
    use cooprt_math::{Aabb, Triangle, Vec3};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_image(n: usize, seed: u64) -> BvhImage {
        let mut rng = StdRng::seed_from_u64(seed);
        let tris: Vec<Triangle> = (0..n)
            .map(|_| {
                let base = Vec3::new(
                    rng.random_range(-10.0f32..10.0),
                    rng.random_range(-10.0f32..10.0),
                    rng.random_range(-10.0f32..10.0),
                );
                let e1 = Vec3::new(
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                );
                let e2 = Vec3::new(
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                );
                Triangle::new(base, base + e1, base + e2)
            })
            .collect();
        BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris)
    }

    fn random_ray(rng: &mut StdRng) -> Ray {
        let orig = Vec3::new(
            rng.random_range(-15.0f32..15.0),
            rng.random_range(-15.0f32..15.0),
            rng.random_range(-15.0f32..15.0),
        );
        // Aim at a random point near the middle of the triangle soup so
        // the rays actually exercise hits, not just empty space.
        let target = Vec3::new(
            rng.random_range(-5.0f32..5.0),
            rng.random_range(-5.0f32..5.0),
            rng.random_range(-5.0f32..5.0),
        );
        let dir = target - orig;
        if dir.length_squared() < 1e-4 {
            return Ray::new(orig, Vec3::Z);
        }
        Ray::new(orig, dir)
    }

    #[test]
    fn bvh_matches_brute_force_on_random_soup() {
        let image = random_image(200, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..500 {
            let ray = random_ray(&mut rng);
            let bvh = closest_hit(&image, &ray, f32::INFINITY);
            let brute = brute_force_closest_hit(&image, &ray, f32::INFINITY);
            match (bvh, brute) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    hits += 1;
                    assert_eq!(a.triangle, b.triangle, "different primitive");
                    assert!((a.t - b.t).abs() < 1e-4);
                }
                (a, b) => panic!("bvh = {a:?}, brute force = {b:?}"),
            }
        }
        assert!(hits > 50, "test should exercise plenty of hits, got {hits}");
    }

    #[test]
    fn any_hit_agrees_with_closest_hit_existence() {
        let image = random_image(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..300 {
            let ray = random_ray(&mut rng);
            assert_eq!(
                any_hit(&image, &ray, f32::INFINITY),
                closest_hit(&image, &ray, f32::INFINITY).is_some()
            );
        }
    }

    #[test]
    fn t_max_limits_hits() {
        let tris = vec![Triangle::new(
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(1.0, 0.0, 10.0),
            Vec3::new(0.0, 1.0, 10.0),
        )];
        let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris);
        let ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::Z);
        assert!(closest_hit(&image, &ray, 5.0).is_none());
        assert!(!any_hit(&image, &ray, 5.0));
        assert!(closest_hit(&image, &ray, 20.0).is_some());
        assert!(any_hit(&image, &ray, 20.0));
    }

    #[test]
    fn in_plane_rays_agree_between_scalar_box_test_and_traversal() {
        // Shared regression for the closed-slab NaN convention: the scalar
        // path and the 6-wide traversal path both funnel through
        // `Aabb::intersect`, and for rays lying *exactly* in the plane of
        // a zero-thickness AABB face (0 * inf = NaN slab lanes) they must
        // agree — with each other and with brute force.
        let flat = vec![
            // Zero-thickness in Y: both triangles lie in the y = 1 plane.
            Triangle::new(
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(4.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 4.0),
            ),
            Triangle::new(
                Vec3::new(4.0, 1.0, 4.0),
                Vec3::new(4.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 4.0),
            ),
        ];
        let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&flat)), &flat);
        let rays = [
            // In-plane, crossing the geometry.
            Ray::new(Vec3::new(-1.0, 1.0, 2.0), Vec3::X),
            // In-plane, missing the geometry sideways.
            Ray::new(Vec3::new(-1.0, 1.0, 9.0), Vec3::X),
            // Parallel but strictly above the plane.
            Ray::new(Vec3::new(-1.0, 2.0, 2.0), Vec3::X),
            // Perpendicular, through the face (a real triangle hit).
            Ray::new(Vec3::new(1.0, -1.0, 1.0), Vec3::Y),
        ];
        for ray in &rays {
            // Scalar box test on the exact (unpadded) zero-thickness face.
            let face = Aabb::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(4.0, 1.0, 4.0));
            let scalar_box = face.intersect(ray, f32::INFINITY).is_some();
            // The root bounds the traversal path prunes against contain
            // that face (padded), so a scalar-box hit must never be
            // pruned away by the wide path.
            let root_box = image.root_bounds().intersect(ray, f32::INFINITY).is_some();
            assert!(
                !scalar_box || root_box,
                "wide-path root pruning dropped a ray the scalar box test accepts: {ray:?}"
            );
            // And the full traversal must agree with brute force exactly.
            let bvh = closest_hit(&image, ray, f32::INFINITY);
            let brute = brute_force_closest_hit(&image, ray, f32::INFINITY);
            assert_eq!(
                bvh.map(|h| h.triangle),
                brute.map(|h| h.triangle),
                "traversal and brute force diverged for {ray:?}"
            );
        }
    }

    #[test]
    fn empty_scene_never_hits() {
        let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&[])), &[]);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        assert!(closest_hit(&image, &ray, f32::INFINITY).is_none());
        assert!(!any_hit(&image, &ray, f32::INFINITY));
    }

    #[test]
    fn counters_reflect_work() {
        let image = random_image(64, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut counters = TraversalCounters::default();
        // A ray through the middle of the soup must visit several nodes.
        let mut visited_any = false;
        for _ in 0..20 {
            let ray = random_ray(&mut rng);
            let before = counters.nodes_visited;
            let _ = closest_hit_counted(&image, &ray, f32::INFINITY, &mut counters);
            if counters.nodes_visited > before {
                visited_any = true;
            }
        }
        assert!(visited_any);
        assert!(counters.box_tests >= counters.nodes_visited);
    }

    #[test]
    fn traverser_reuse_matches_free_functions() {
        let image = random_image(80, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let mut tr = Traverser::new();
        for _ in 0..100 {
            let ray = random_ray(&mut rng);
            assert_eq!(
                tr.closest_hit(&image, &ray, f32::INFINITY),
                closest_hit(&image, &ray, f32::INFINITY)
            );
            assert_eq!(
                tr.any_hit(&image, &ray, f32::INFINITY),
                any_hit(&image, &ray, f32::INFINITY)
            );
        }
    }

    #[test]
    fn node_elimination_reduces_visits() {
        // A wall of near triangles in front of a wall of far triangles:
        // with min_thit pruning, the far subtree should be mostly skipped
        // for a frontal ray.
        let mut tris = Vec::new();
        for i in 0..16 {
            let x = (i % 4) as f32;
            let y = (i / 4) as f32;
            tris.push(Triangle::new(
                Vec3::new(x, y, 1.0),
                Vec3::new(x + 1.0, y, 1.0),
                Vec3::new(x, y + 1.0, 1.0),
            ));
            tris.push(Triangle::new(
                Vec3::new(x, y, 100.0),
                Vec3::new(x + 1.0, y, 100.0),
                Vec3::new(x, y + 1.0, 100.0),
            ));
        }
        let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris);
        let ray = Ray::new(Vec3::new(2.0, 2.0, 0.0), Vec3::Z);
        let mut counters = TraversalCounters::default();
        let hit = closest_hit_counted(&image, &ray, f32::INFINITY, &mut counters).unwrap();
        assert!((hit.t - 1.0).abs() < 1e-4);
        // Far wall pruned: visits well below the total node count.
        assert!(
            counters.nodes_visited < image.node_count() as u64,
            "visited {} of {}",
            counters.nodes_visited,
            image.node_count()
        );
    }
}
