//! Ray reordering: coherence-keyed warp re-packing ahead of the RT
//! units ("On Ray Reordering Techniques for Faster GPU Ray Tracing",
//! Meister et al.).
//!
//! CoopRT attacks traversal divergence *after* warps are formed (idle
//! threads steal nodes inside a warp); reordering is the complementary
//! lever *before* warp formation: sort the pending rays by a spatial
//! coherence key so that the 32 rays packed into one warp walk nearby
//! BVH subtrees. The engine applies it at two points — first-wave warp
//! formation, and (with [`compaction`](crate::GpuConfig::compaction)
//! on) every between-wave re-packing of live threads.
//!
//! Two key constructions are provided, selected by [`ReorderPolicy`]:
//!
//! - **Morton** — a 30-bit Morton code of the quantized ray origin
//!   (10 bits per axis over the scene's root AABB, HLBVH-style bit
//!   interleaving) with the 3-bit direction octant in the low bits:
//!   origin-major ordering, so warps share L1/L2 working sets.
//! - **Octant-hash** — a concatenated "ray hash" key: direction octant
//!   in the high bits, then the quantized direction magnitudes, then a
//!   coarse origin cell. Direction-major ordering, the classic
//!   hash-based grouping for secondary rays.
//!
//! Both keys are exactly [`KEY_BITS`] wide, so one bucketing scheme
//! serves both.
//!
//! # Determinism
//!
//! Warp packing must be reproducible — golden cycle counts, the
//! record/replay differential and the serve result cache all depend on
//! it — so the permutation is computed by a **stable bucketed counting
//! sort**: keys map to buckets through an order-preserving
//! multiply-shift, bucket offsets come from a prefix sum, and threads
//! scatter in their original order. No comparison sort, no
//! `sort_unstable`, no hash-map iteration: the same threads with the
//! same keys produce the same order on every platform and at every
//! host worker count (keys are pure functions of the ray and the scene
//! bounds; the engine itself is single-threaded).
//!
//! # Results are never touched
//!
//! Reordering permutes *work*, never *results*: per-pixel shading
//! depends only on that pixel's own ray sequence and hits, which are
//! warp-independent. Images are bitwise identical to the unordered run
//! under every policy combination — `reorder_is_functionally_neutral`
//! here, the `cooprt-check` reorder oracle, and the `paper` bench's
//! twin check over its `ext_reorder` and `ext_queries` cells all pin
//! that.

use cooprt_math::{Aabb, Ray, Vec3};

/// Width of every reorder key, bits. Both [`ReorderPolicy::Morton`]
/// and [`ReorderPolicy::OctantHash`] keys occupy exactly this many low
/// bits, so bucket mapping is one shared multiply-shift.
pub const KEY_BITS: u32 = 33;

/// Default counting-sort bucket count
/// ([`GpuConfig::reorder_buckets`](crate::GpuConfig::reorder_buckets)).
pub const DEFAULT_REORDER_BUCKETS: usize = 256;

/// The ray-reordering policy: the third axis of the evaluation matrix,
/// orthogonal to [`TraversalPolicy`](crate::TraversalPolicy) and to
/// warp tiling/compaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReorderPolicy {
    /// No reordering: warps form in tiling/compaction order (the
    /// default, and what every pre-existing golden number uses).
    #[default]
    Off,
    /// Sort by Morton code of the quantized origin, direction octant
    /// as tiebreak (origin-major spatial coherence).
    Morton,
    /// Sort by direction octant, then quantized direction, then coarse
    /// origin cell (direction-major "ray hash" coherence).
    OctantHash,
}

impl ReorderPolicy {
    /// Short label used in benchmark tables and CLI/API surfaces.
    pub fn label(self) -> &'static str {
        match self {
            ReorderPolicy::Off => "off",
            ReorderPolicy::Morton => "morton",
            ReorderPolicy::OctantHash => "octant-hash",
        }
    }

    /// Parses a [`ReorderPolicy::label`] back to the policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ReorderPolicy::Off),
            "morton" => Some(ReorderPolicy::Morton),
            "octant-hash" => Some(ReorderPolicy::OctantHash),
            _ => None,
        }
    }

    /// All three policies, in matrix order.
    pub const ALL: [ReorderPolicy; 3] = [
        ReorderPolicy::Off,
        ReorderPolicy::Morton,
        ReorderPolicy::OctantHash,
    ];
}

/// Spreads the low 10 bits of `v` so consecutive bits land 3 apart
/// (the classic HLBVH `expand_bits`).
#[inline]
fn expand_bits10(v: u32) -> u32 {
    let mut v = v & 0x3ff;
    v = (v | (v << 16)) & 0x0300_00ff;
    v = (v | (v << 8)) & 0x0300_f00f;
    v = (v | (v << 4)) & 0x030c_30c3;
    v = (v | (v << 2)) & 0x0924_9249;
    v
}

/// Interleaves three 10-bit coordinates into a 30-bit Morton code
/// (`x` highest-order, matching the HLBVH convention).
#[inline]
pub fn morton3(x: u32, y: u32, z: u32) -> u32 {
    (expand_bits10(x) << 2) | (expand_bits10(y) << 1) | expand_bits10(z)
}

/// Quantizes `v` over `[min, min + extent)` to `bits` bits. A
/// degenerate extent (flat scene axis) maps everything to cell 0,
/// which merely collapses that axis's contribution to the key.
#[inline]
fn quantize(v: f32, min: f32, extent: f32, bits: u32) -> u32 {
    let cells = 1u32 << bits;
    // NaN extents (empty scene bounds) fall through to cell 0 too.
    if extent.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater) {
        return 0;
    }
    let t = ((v - min) / extent).clamp(0.0, 1.0);
    ((t * cells as f32) as u32).min(cells - 1)
}

/// The direction octant: sign bits of `(x, y, z)` packed into 3 bits.
#[inline]
pub fn octant(dir: Vec3) -> u32 {
    (u32::from(dir.x < 0.0) << 2) | (u32::from(dir.y < 0.0) << 1) | u32::from(dir.z < 0.0)
}

/// The reorder key of one ray under `policy` (zero for
/// [`ReorderPolicy::Off`]). Always fits in [`KEY_BITS`] bits.
#[inline]
pub fn ray_key(policy: ReorderPolicy, ray: &Ray, bounds: &Aabb) -> u64 {
    let ext = bounds.max - bounds.min;
    match policy {
        ReorderPolicy::Off => 0,
        ReorderPolicy::Morton => {
            // Origin-major: 30-bit origin Morton code, octant low.
            let m = morton3(
                quantize(ray.orig.x, bounds.min.x, ext.x, 10),
                quantize(ray.orig.y, bounds.min.y, ext.y, 10),
                quantize(ray.orig.z, bounds.min.z, ext.z, 10),
            );
            (u64::from(m) << 3) | u64::from(octant(ray.dir))
        }
        ReorderPolicy::OctantHash => {
            // Direction-major "ray hash": octant (3b), |direction|
            // quantized to 5 bits per axis as a 15-bit Morton code,
            // then a coarse 5-bit-per-axis origin cell (15-bit Morton).
            let dq = morton3(
                quantize(ray.dir.x.abs(), 0.0, 1.0, 5),
                quantize(ray.dir.y.abs(), 0.0, 1.0, 5),
                quantize(ray.dir.z.abs(), 0.0, 1.0, 5),
            );
            let oq = morton3(
                quantize(ray.orig.x, bounds.min.x, ext.x, 5),
                quantize(ray.orig.y, bounds.min.y, ext.y, 5),
                quantize(ray.orig.z, bounds.min.z, ext.z, 5),
            );
            (u64::from(octant(ray.dir)) << 30) | (u64::from(dq) << 15) | u64::from(oq)
        }
    }
}

/// Order-preserving multiply-shift from a [`KEY_BITS`]-bit key to a
/// bucket index in `[0, buckets)`.
#[inline]
pub fn bucket_of(key: u64, buckets: usize) -> usize {
    debug_assert!(key < (1u64 << KEY_BITS));
    ((u128::from(key) * buckets as u128) >> KEY_BITS) as usize
}

/// Counters of one reordering pass (or the per-frame sum of all
/// passes), feeding [`FrameResult`](crate::FrameResult) and the
/// metrics report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Reordering passes run (1 without compaction, one per wave with).
    pub passes: u64,
    /// Ray keys computed (= threads considered across passes).
    pub keys_computed: u64,
    /// Threads whose position changed relative to the pre-sort order.
    pub rays_moved: u64,
    /// Non-empty buckets, summed over passes.
    pub bucket_occupancy_sum: u64,
    /// Configured bucket count (0 until the first pass).
    pub buckets: u64,
}

impl ReorderStats {
    /// Folds one pass's counters into the per-frame sum.
    pub fn add(&mut self, other: &ReorderStats) {
        self.passes += other.passes;
        self.keys_computed += other.keys_computed;
        self.rays_moved += other.rays_moved;
        self.bucket_occupancy_sum += other.bucket_occupancy_sum;
        self.buckets = self.buckets.max(other.buckets);
    }

    /// Mean occupied-bucket count per pass.
    pub fn avg_bucket_occupancy(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.bucket_occupancy_sum as f64 / self.passes as f64
        }
    }
}

/// Stable bucketed counting sort: permutes `threads` by ascending
/// bucket of `key_of(thread)`, preserving the input order within each
/// bucket. Returns the permuted order plus this pass's counters.
///
/// # Panics
///
/// Panics if `buckets == 0`; the engine validates
/// [`GpuConfig::reorder_buckets`](crate::GpuConfig::reorder_buckets)
/// before any pass runs.
pub fn reorder_by_key(
    threads: &[u32],
    buckets: usize,
    mut key_of: impl FnMut(u32) -> u64,
) -> (Vec<u32>, ReorderStats) {
    assert!(buckets > 0, "counting sort needs at least one bucket");
    let mut bucket_ix = Vec::with_capacity(threads.len());
    let mut counts = vec![0u32; buckets];
    for &t in threads {
        let b = bucket_of(key_of(t), buckets);
        bucket_ix.push(b);
        counts[b] += 1;
    }
    let occupied = counts.iter().filter(|&&c| c > 0).count() as u64;
    // Exclusive prefix sum: counts[b] becomes the first output slot of
    // bucket b.
    let mut offset = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = offset;
        offset += n;
    }
    let mut order = vec![0u32; threads.len()];
    for (i, &t) in threads.iter().enumerate() {
        let slot = &mut counts[bucket_ix[i]];
        order[*slot as usize] = t;
        *slot += 1;
    }
    let moved = order
        .iter()
        .zip(threads.iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    let stats = ReorderStats {
        passes: 1,
        keys_computed: threads.len() as u64,
        rays_moved: moved,
        bucket_occupancy_sum: occupied,
        buckets: buckets as u64,
    };
    (order, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_math::Vec3;

    fn unit_bounds() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn morton_interleaves_like_hlbvh() {
        // x=1, y=0, z=0 -> bit 2; x=0, y=0, z=1 -> bit 0.
        assert_eq!(morton3(1, 0, 0), 0b100);
        assert_eq!(morton3(0, 1, 0), 0b010);
        assert_eq!(morton3(0, 0, 1), 0b001);
        assert_eq!(morton3(0b11, 0, 0), 0b100100);
        // Full-width inputs stay within 30 bits.
        assert!(morton3(0x3ff, 0x3ff, 0x3ff) < (1 << 30));
    }

    #[test]
    fn keys_fit_key_bits_and_separate_octants() {
        let b = unit_bounds();
        for policy in [ReorderPolicy::Morton, ReorderPolicy::OctantHash] {
            let fwd = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.0, 0.0, 1.0));
            let bwd = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.0, 0.0, -1.0));
            let kf = ray_key(policy, &fwd, &b);
            let kb = ray_key(policy, &bwd, &b);
            assert!(kf < (1 << KEY_BITS) && kb < (1 << KEY_BITS), "{policy:?}");
            assert_ne!(kf, kb, "{policy:?} must separate opposite octants");
        }
        assert_eq!(
            ray_key(
                ReorderPolicy::Off,
                &Ray::new(Vec3::ZERO, Vec3::X),
                &unit_bounds()
            ),
            0
        );
    }

    #[test]
    fn morton_keys_order_nearby_origins_together() {
        let b = unit_bounds();
        let at = |x: f32| {
            ray_key(
                ReorderPolicy::Morton,
                &Ray::new(Vec3::new(x, 0.1, 0.1), Vec3::Y),
                &b,
            )
        };
        // Two origins in the same quantization cell share a key...
        assert_eq!(at(0.100), at(0.1004));
        // ...and far apart origins do not.
        assert_ne!(at(0.1), at(0.9));
    }

    #[test]
    fn degenerate_bounds_do_not_panic_or_divide_by_zero() {
        let flat = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 1.0));
        let r = Ray::new(Vec3::new(0.5, 0.0, 0.5), Vec3::Y);
        for policy in ReorderPolicy::ALL {
            let k = ray_key(policy, &r, &flat);
            assert!(k < (1 << KEY_BITS));
        }
    }

    #[test]
    fn counting_sort_is_stable_and_deterministic() {
        // Two buckets; odd threads key high, even key low. Stability:
        // evens keep their relative order, then odds keep theirs.
        let threads: Vec<u32> = (0..10).collect();
        let key = |t: u32| if t % 2 == 1 { (1 << KEY_BITS) - 1 } else { 0 };
        let (order, stats) = reorder_by_key(&threads, 2, key);
        assert_eq!(order, vec![0, 2, 4, 6, 8, 1, 3, 5, 7, 9]);
        assert_eq!(stats.keys_computed, 10);
        assert_eq!(stats.bucket_occupancy_sum, 2);
        assert_eq!(stats.buckets, 2);
        // rays_moved counts positions that changed (index 0 and the
        // final 9 land where they started).
        assert_eq!(stats.rays_moved, 8);
        // Determinism: bitwise the same on a second run.
        let (order2, _) = reorder_by_key(&threads, 2, key);
        assert_eq!(order, order2);
    }

    #[test]
    fn identity_keys_leave_the_order_untouched() {
        let threads: Vec<u32> = (0..77).collect();
        let (order, stats) = reorder_by_key(&threads, 64, |_| 0);
        assert_eq!(order, threads);
        assert_eq!(stats.rays_moved, 0);
        assert_eq!(stats.bucket_occupancy_sum, 1);
    }

    #[test]
    fn bucket_mapping_is_order_preserving_and_in_range() {
        let buckets = 37; // non-power-of-two on purpose
        let mut last = 0usize;
        for k in (0..(1u64 << KEY_BITS)).step_by(1 << 24) {
            let b = bucket_of(k, buckets);
            assert!(b < buckets);
            assert!(b >= last, "bucket map must be monotone in the key");
            last = b;
        }
        assert_eq!(bucket_of((1 << KEY_BITS) - 1, buckets), buckets - 1);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in ReorderPolicy::ALL {
            assert_eq!(ReorderPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(ReorderPolicy::parse("sideways"), None);
        assert_eq!(ReorderPolicy::default(), ReorderPolicy::Off);
    }
}
