//! Hash-based **ray-path prediction** (Demoullin et al., "Hash-Based
//! Ray Path Prediction"): a per-SM hardware table keyed by a quantized
//! ray signature that maps the signature to a BVH **entry node**.
//!
//! An any-hit traversal starts at the predicted node instead of the
//! root, and on a subtree miss walks **up one parent level at a time**
//! (go-up-level fallback, via the parent table in
//! [`cooprt_bvh::BvhImage`]) until the root is reached — so the
//! occlusion outcome is always exact while successful predictions skip
//! every ancestor fetch above the entry node. Selected by
//! [`PredictPolicy`], the fourth axis of the evaluation matrix.
//!
//! The table may never change a rendered image: the root walk-up
//! backstops every prediction. `cooprt-check`'s `predictcheck` oracle
//! and the engine's neutrality tests pin that.

use cooprt_bvh::BvhImage;
use cooprt_math::Ray;

/// The ray-path prediction policy: the fourth axis of the evaluation
/// matrix, orthogonal to [`TraversalPolicy`](crate::TraversalPolicy),
/// [`ReorderPolicy`](crate::ReorderPolicy) and warp tiling/compaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PredictPolicy {
    /// No ray-path prediction: every traversal starts at the BVH root
    /// (the default, and what every pre-existing golden number uses).
    #[default]
    Off,
    /// Demoullin-style hash-based ray-path prediction: any-hit
    /// traversals start at the predicted entry node and fall back one
    /// parent level at a time on a subtree miss.
    RayPath,
}

impl PredictPolicy {
    /// Short label used in benchmark tables and CLI/API surfaces.
    pub fn label(self) -> &'static str {
        match self {
            PredictPolicy::Off => "off",
            PredictPolicy::RayPath => "ray-path",
        }
    }

    /// Parses a [`PredictPolicy::label`] back to the policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(PredictPolicy::Off),
            "ray-path" => Some(PredictPolicy::RayPath),
            _ => None,
        }
    }

    /// Both policies, in matrix order.
    pub const ALL: [PredictPolicy; 2] = [PredictPolicy::Off, PredictPolicy::RayPath];
}

/// Counters of ray-path predictor behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Ray-path-table lookups performed.
    pub path_lookups: u64,
    /// Lookups that returned a valid predicted entry node.
    pub path_candidates: u64,
    /// Tag matches whose stored node address no longer exists in the
    /// current BVH (dropped, never started from).
    pub path_stale: u64,
    /// Ray-path-table updates.
    pub path_updates: u64,
    /// Rays whose accepted any-hit lay inside the originally predicted
    /// subtree (no go-up step was needed): the predicted-hit count.
    pub path_entry_hits: u64,
    /// Go-up-level fallback steps: a predicted subtree drained without
    /// a hit and traversal restarted one parent level higher.
    pub path_go_up_steps: u64,
    /// Ancestor node fetches skipped by successful predictions: for
    /// each ray that terminated at entry level `d` (depth below the
    /// root after go-up steps), the `d` ancestors a root-start
    /// traversal would have fetched first.
    pub node_fetches_saved: u64,
}

impl PredictorStats {
    /// Accumulates another counter set into this one (per-SM tables are
    /// summed into the frame report).
    pub fn add(&mut self, other: &PredictorStats) {
        self.path_lookups += other.path_lookups;
        self.path_candidates += other.path_candidates;
        self.path_stale += other.path_stale;
        self.path_updates += other.path_updates;
        self.path_entry_hits += other.path_entry_hits;
        self.path_go_up_steps += other.path_go_up_steps;
        self.node_fetches_saved += other.node_fetches_saved;
    }
}

/// Signature hash of a ray: origin quantized to 4-unit cells, direction
/// to its octant — deliberately coarse, so the localized secondary rays
/// of AO/SH shaders collide and reuse predictions. False candidates are
/// caught by the go-up fallback.
fn signature(ray: &Ray) -> u64 {
    let qo = |v: f32| ((v / 4.0).floor() as i64 as u64) & 0xFFFF;
    let qd = |v: f32| u64::from(v >= 0.0);
    let h = qo(ray.orig.x)
        | (qo(ray.orig.y) << 16)
        | (qo(ray.orig.z) << 32)
        | (qd(ray.dir.x) << 48)
        | (qd(ray.dir.y) << 49)
        | (qd(ray.dir.z) << 50);
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn slot_and_tag(ray: &Ray, len: usize) -> (usize, u32) {
    let h = signature(ray);
    ((h % len as u64) as usize, (h >> 32) as u32)
}

/// How many parent levels above the accepted hit leaf the recorded
/// entry node sits. Predicting a small *subtree* instead of the exact
/// leaf lets coherent neighbour rays (which hit nearby, not identical,
/// leaves) still resolve inside the predicted entry without go-up
/// steps.
pub const PREDICT_ENTRY_LIFT: u32 = 2;

/// Confidence ceiling of a ray-path table entry (a 2-bit saturating
/// counter, the classic branch-predictor design).
const PREDICT_CONF_MAX: u8 = 3;

/// Minimum confidence at which an entry is allowed to steer traversal.
/// New entries start here (optimistic: coherent workloads are right on
/// the first reuse), a mispredict drops below it, and further accepted
/// hits climb back — so a signature that keeps missing its subtree
/// goes quiet instead of paying the go-up penalty every ray.
const PREDICT_CONFIDENT: u8 = 2;

/// One ray-path table entry: signature tag, predicted BVH entry node,
/// and the saturating confidence counter.
#[derive(Clone, Copy, Debug)]
struct PathEntry {
    tag: u32,
    addr: u64,
    conf: u8,
}

/// A direct-mapped ray-path prediction table: quantized ray signature →
/// predicted BVH entry node (Demoullin et al.), gated by a 2-bit
/// saturating confidence counter per entry.
#[derive(Clone, Debug)]
pub struct RayPathPredictor {
    entries: Vec<Option<PathEntry>>,
    stats: PredictorStats,
}

impl RayPathPredictor {
    /// Creates a table with `entries` direct-mapped slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` (rejected earlier with a typed
    /// [`ConfigError::ZeroPredictorEntries`](crate::ConfigError) by
    /// every simulation entry point).
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        RayPathPredictor {
            entries: vec![None; entries],
            stats: PredictorStats::default(),
        }
    }

    /// Looks up a predicted entry node for `ray`, validating the stored
    /// address against the current BVH (a stale address — e.g. after
    /// the table outlived a scene swap — is dropped and counted, never
    /// started from). Entries whose confidence fell below
    /// `PREDICT_CONFIDENT` after mispredictions stay in the table for
    /// training but return no candidate.
    pub fn predict(&mut self, ray: &Ray, image: &BvhImage) -> Option<u64> {
        self.stats.path_lookups += 1;
        let (slot, tag) = slot_and_tag(ray, self.entries.len());
        match self.entries[slot] {
            Some(e) if e.tag == tag => {
                if image.node_at(e.addr).is_none() {
                    self.stats.path_stale += 1;
                    self.entries[slot] = None;
                    None
                } else if e.conf < PREDICT_CONFIDENT {
                    None
                } else {
                    self.stats.path_candidates += 1;
                    Some(e.addr)
                }
            }
            _ => None,
        }
    }

    /// Records the entry node for `ray`: the ancestor
    /// [`PREDICT_ENTRY_LIFT`] levels above the accepted hit leaf at
    /// `leaf_addr` (clamped at the root). A repeat of the already
    /// stored entry strengthens its confidence; a new or changed entry
    /// (re)starts at `PREDICT_CONFIDENT`.
    pub fn update(&mut self, ray: &Ray, leaf_addr: u64, image: &BvhImage) {
        let mut entry = leaf_addr;
        for _ in 0..PREDICT_ENTRY_LIFT {
            match image.parent_addr(entry) {
                Some(p) => entry = p,
                None => break,
            }
        }
        self.stats.path_updates += 1;
        let (slot, tag) = slot_and_tag(ray, self.entries.len());
        self.entries[slot] = match self.entries[slot] {
            Some(e) if e.tag == tag && e.addr == entry => Some(PathEntry {
                conf: (e.conf + 1).min(PREDICT_CONF_MAX),
                ..e
            }),
            _ => Some(PathEntry {
                tag,
                addr: entry,
                conf: PREDICT_CONFIDENT,
            }),
        };
    }

    /// Records that a prediction for `ray` missed its subtree (the
    /// first go-up step fired): the entry's confidence decays, and
    /// after enough consecutive misses it stops steering traversal
    /// until accepted hits rebuild it.
    pub fn record_mispredict(&mut self, ray: &Ray) {
        let (slot, tag) = slot_and_tag(ray, self.entries.len());
        if let Some(e) = self.entries[slot].as_mut() {
            if e.tag == tag {
                e.conf = e.conf.saturating_sub(1);
            }
        }
    }

    /// Records a hit accepted inside the originally predicted subtree.
    pub fn record_entry_hit(&mut self) {
        self.stats.path_entry_hits += 1;
    }

    /// Records one go-up-level fallback step.
    pub fn record_go_up(&mut self) {
        self.stats.path_go_up_steps += 1;
    }

    /// Records `n` ancestor fetches skipped by a successful prediction.
    pub fn record_saved(&mut self, n: u64) {
        self.stats.node_fetches_saved += n;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_math::{Rgb, Vec3};
    use cooprt_scenes::{Camera, Material, SceneBuilder};

    fn ray(o: Vec3, d: Vec3) -> Ray {
        Ray::new(o, d)
    }

    #[test]
    fn coherent_rays_share_an_entry() {
        // Two rays from nearby origins with nearly equal directions
        // quantize identically.
        let a = ray(Vec3::new(10.0, 4.0, 2.0), Vec3::new(0.3, 0.8, 0.5));
        let b = ray(Vec3::new(10.3, 4.2, 2.1), Vec3::new(0.1, 0.9, 0.4));
        assert_eq!(
            slot_and_tag(&a, 256),
            slot_and_tag(&b, 256),
            "coherent neighbour should reuse the prediction"
        );
    }

    #[test]
    fn divergent_rays_do_not_collide_usually() {
        let first = slot_and_tag(&ray(Vec3::ZERO, Vec3::Z), 1024);
        let mut misses = 0;
        for i in 0..20 {
            let d = Vec3::new((i as f32 * 0.7).sin(), 0.4, (i as f32 * 1.3).cos());
            if slot_and_tag(&ray(Vec3::new(50.0 + 4.0 * i as f32, 0.0, 9.0), d), 1024) != first {
                misses += 1;
            }
        }
        assert!(
            misses >= 18,
            "unrelated rays should rarely alias, got {misses} misses"
        );
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_path_entries_rejected() {
        let _ = RayPathPredictor::new(0);
    }

    #[test]
    fn non_power_of_two_tables_distribute_acceptably() {
        // Indexing is `h % len` over a splitmix64-finalized signature, so
        // any table size (not just powers of two) must spread distinct
        // signatures near-uniformly: modulo of a well-mixed 64-bit hash
        // has no resonance with the quantization lattice. Pin that for
        // sizes with odd factors, including a prime.
        for len in [768usize, 1000, 1021] {
            let mut counts = vec![0u32; len];
            let mut distinct = 0u32;
            // Origins spaced one 4-unit quantization cell apart: every
            // (i, j) pair is a distinct signature.
            for i in 0..100 {
                for j in 0..80 {
                    let r = ray(
                        Vec3::new(4.0 * i as f32, 4.0 * j as f32, 0.0),
                        Vec3::new(0.3, 0.8, 0.5),
                    );
                    let (slot, _) = slot_and_tag(&r, len);
                    counts[slot] += 1;
                    distinct += 1;
                }
            }
            let mean = distinct as f64 / len as f64;
            let max = *counts.iter().max().unwrap() as f64;
            let empty = counts.iter().filter(|&&c| c == 0).count() as f64;
            assert!(
                max <= 4.0 * mean,
                "len {len}: hottest slot {max} vs mean {mean:.1} — modulo bias"
            );
            assert!(
                empty / len as f64 <= 0.05,
                "len {len}: {empty} empty slots of {len} — clustered indexing"
            );
        }
    }

    #[test]
    fn predict_policy_labels_round_trip() {
        for p in PredictPolicy::ALL {
            assert_eq!(PredictPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(PredictPolicy::parse("nope"), None);
        assert_eq!(PredictPolicy::default(), PredictPolicy::Off);
    }

    fn tiny_scene() -> cooprt_scenes::Scene {
        let cam = Camera::look_at(Vec3::new(0.0, 2.0, 12.0), Vec3::ZERO, Vec3::Y, 60.0, 1.0);
        SceneBuilder::new("predictor-test", cam)
            .push(
                cooprt_scenes::scatter_clutter(
                    cooprt_math::Aabb::new(Vec3::new(-6.0, 0.5, -6.0), Vec3::new(6.0, 5.0, 6.0)),
                    40,
                    0.2..0.6,
                    7,
                ),
                Material::Lambertian {
                    albedo: Rgb::splat(0.7),
                },
            )
            .build()
    }

    #[test]
    fn path_predictor_records_a_lifted_entry_node() {
        let scene = tiny_scene();
        let image = &scene.image;
        let mut p = RayPathPredictor::new(128);
        let r = ray(Vec3::new(0.0, 2.0, 12.0), Vec3::new(0.0, -0.1, -1.0));
        // Pick some leaf address to learn from.
        let leaf = image
            .iter()
            .find(|n| matches!(n.kind, cooprt_bvh::NodeKind::Leaf { .. }))
            .expect("scene has leaves")
            .addr;
        p.update(&r, leaf, image);
        let entry = p.predict(&r, image).expect("just-learned signature hits");
        // The entry is an ancestor-or-self of the leaf, at most
        // PREDICT_ENTRY_LIFT levels up.
        let mut cur = leaf;
        let mut found = cur == entry;
        for _ in 0..PREDICT_ENTRY_LIFT {
            match image.parent_addr(cur) {
                Some(parent) => {
                    cur = parent;
                    found |= cur == entry;
                }
                None => break,
            }
        }
        assert!(
            found,
            "entry {entry:#x} is not a lifted ancestor of {leaf:#x}"
        );
        assert_eq!(p.stats().path_candidates, 1);
        assert_eq!(p.stats().path_updates, 1);
    }

    #[test]
    fn empty_path_table_predicts_nothing() {
        let scene = tiny_scene();
        let mut p = RayPathPredictor::new(64);
        let r = ray(Vec3::ZERO, Vec3::Z);
        assert_eq!(p.predict(&r, &scene.image), None);
        assert_eq!(p.stats().path_lookups, 1, "a miss still counts the lookup");
        assert_eq!(p.stats().path_candidates, 0);
    }

    #[test]
    fn a_changed_entry_node_replaces_the_old_one_at_base_confidence() {
        let scene = tiny_scene();
        let image = &scene.image;
        let mut p = RayPathPredictor::new(128);
        let r = ray(Vec3::new(0.0, 2.0, 12.0), Vec3::new(0.0, -0.1, -1.0));
        // Saturate the confidence of a root entry.
        for _ in 0..4 {
            p.update(&r, image.root_addr(), image);
        }
        // A leaf deep enough that its lifted entry is not the root.
        let leaf = image
            .iter()
            .filter(|n| matches!(n.kind, cooprt_bvh::NodeKind::Leaf { .. }))
            .find(|n| image.depth_of(n.addr).unwrap() > PREDICT_ENTRY_LIFT)
            .expect("scene has deep leaves")
            .addr;
        p.update(&r, leaf, image);
        let entry = p.predict(&r, image).expect("the new entry predicts");
        assert_ne!(entry, image.root_addr(), "the old entry was replaced");
        assert_eq!(
            image.depth_of(entry).unwrap(),
            image.depth_of(leaf).unwrap() - PREDICT_ENTRY_LIFT
        );
        // The replacement restarted at `PREDICT_CONFIDENT` instead of
        // inheriting the saturated count, so one mispredict silences it.
        p.record_mispredict(&r);
        assert_eq!(p.predict(&r, image), None);
    }

    #[test]
    fn mispredicted_entries_go_quiet_until_retrained() {
        let scene = tiny_scene();
        let image = &scene.image;
        let mut p = RayPathPredictor::new(128);
        let r = ray(Vec3::new(0.0, 2.0, 12.0), Vec3::new(0.0, -0.1, -1.0));
        p.update(&r, image.root_addr(), image);
        assert!(
            p.predict(&r, image).is_some(),
            "fresh entries are confident"
        );
        // One subtree miss drops below the confidence threshold: the
        // entry survives for training but stops steering traversal.
        p.record_mispredict(&r);
        assert_eq!(p.predict(&r, image), None, "shaken entries stay quiet");
        assert_eq!(p.stats().path_stale, 0, "quiet is not stale");
        // A re-accepted hit on the same entry restores confidence.
        p.update(&r, image.root_addr(), image);
        assert!(p.predict(&r, image).is_some(), "retrained entries predict");
        // Confidence saturates: many updates still decay in one step
        // sequence of misses, never underflowing.
        for _ in 0..8 {
            p.update(&r, image.root_addr(), image);
        }
        for _ in 0..8 {
            p.record_mispredict(&r);
        }
        assert_eq!(p.predict(&r, image), None);
    }

    #[test]
    fn path_predictor_drops_stale_addresses() {
        let scene = tiny_scene();
        let image = &scene.image;
        let mut p = RayPathPredictor::new(128);
        let r = ray(Vec3::new(0.0, 2.0, 12.0), Vec3::new(0.0, -0.1, -1.0));
        // Learn the root, then swap to a different image where that
        // address does not exist.
        p.update(&r, image.root_addr(), image);
        let other = {
            let cam = Camera::look_at(Vec3::new(0.0, 2.0, 12.0), Vec3::ZERO, Vec3::Y, 60.0, 1.0);
            SceneBuilder::new("other", cam)
                .push(
                    cooprt_scenes::quad(Vec3::new(-1.0, 0.0, -1.0), Vec3::X * 2.0, Vec3::Z * 2.0),
                    Material::Lambertian {
                        albedo: Rgb::splat(0.5),
                    },
                )
                .build()
        };
        // The learned address is valid in `image`; if it happens to be
        // valid in `other` too (both images start at the same heap
        // base), the lookup legitimately returns it — force staleness
        // with an address no image contains.
        p.update(&r, u64::MAX - 1024, image);
        let before = p.stats().path_updates;
        assert!(before >= 2);
        assert_eq!(p.predict(&r, &other.image), None);
        assert_eq!(p.stats().path_stale, 1);
        assert_eq!(p.stats().path_candidates, 0);
    }

    #[test]
    fn stats_add_accumulates_every_field() {
        let mut a = PredictorStats {
            path_lookups: 1,
            path_candidates: 2,
            path_stale: 3,
            path_updates: 4,
            path_entry_hits: 5,
            path_go_up_steps: 6,
            node_fetches_saved: 7,
        };
        let b = a;
        a.add(&b);
        assert_eq!(
            a,
            PredictorStats {
                path_lookups: 2,
                path_candidates: 4,
                path_stale: 6,
                path_updates: 8,
                path_entry_hits: 10,
                path_go_up_steps: 12,
                node_fetches_saved: 14,
            }
        );
    }
}
