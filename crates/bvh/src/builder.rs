//! Binned-SAH binary BVH builder.
//!
//! Stands in for Embree 3.14, which the paper uses via the GPU driver.
//! The builder produces a binary tree with one triangle per leaf; the
//! [`crate::WideBvh`] collapse pass then merges it into the 6-ary layout
//! that MESA / Vulkan-sim use.

use cooprt_math::{Aabb, Triangle, Vec3};

/// Number of SAH bins per axis.
const BIN_COUNT: usize = 16;

/// A node of the intermediate binary BVH.
#[derive(Clone, Debug, PartialEq)]
pub enum BinaryNode {
    /// Interior node with exactly two children (indices into
    /// [`BinaryBvh::nodes`]).
    Internal {
        /// Bounds of all geometry below this node.
        bounds: Aabb,
        /// Left child index.
        left: u32,
        /// Right child index.
        right: u32,
    },
    /// Leaf node holding exactly one triangle (index into the scene's
    /// triangle array).
    Leaf {
        /// Bounds of the triangle.
        bounds: Aabb,
        /// Triangle index.
        triangle: u32,
    },
}

impl BinaryNode {
    /// Bounds of the node.
    pub fn bounds(&self) -> Aabb {
        match self {
            BinaryNode::Internal { bounds, .. } | BinaryNode::Leaf { bounds, .. } => *bounds,
        }
    }
}

/// A binary BVH over a triangle soup.
///
/// Produced by [`build_binary`]; consumed by
/// [`WideBvh::from_binary`](crate::WideBvh::from_binary).
#[derive(Clone, Debug)]
pub struct BinaryBvh {
    /// All nodes; index 0 is unused only when the tree is empty.
    pub nodes: Vec<BinaryNode>,
    /// Index of the root node in [`Self::nodes`].
    pub root: u32,
    /// Number of triangles the tree was built over.
    pub triangle_count: usize,
}

impl BinaryBvh {
    /// True if the tree contains no geometry.
    pub fn is_empty(&self) -> bool {
        self.triangle_count == 0
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.depth_of(self.root)
    }

    fn depth_of(&self, node: u32) -> usize {
        match &self.nodes[node as usize] {
            BinaryNode::Leaf { .. } => 1,
            BinaryNode::Internal { left, right, .. } => {
                1 + self.depth_of(*left).max(self.depth_of(*right))
            }
        }
    }
}

/// Builds a binary BVH with the binned surface-area heuristic.
///
/// Splits recurse until one triangle per leaf, matching the paper's model
/// in which every leaf node *is* a primitive. Degenerate centroid
/// distributions fall back to an equal-count median split, so the builder
/// never fails to make progress.
///
/// Returns an empty tree for an empty input slice.
///
/// # Examples
///
/// ```
/// use cooprt_bvh::build_binary;
/// use cooprt_math::{Triangle, Vec3};
///
/// let tris: Vec<Triangle> = (0..8)
///     .map(|i| {
///         let base = Vec3::new(i as f32 * 2.0, 0.0, 0.0);
///         Triangle::new(base, base + Vec3::X, base + Vec3::Y)
///     })
///     .collect();
/// let bvh = build_binary(&tris);
/// assert_eq!(bvh.triangle_count, 8);
/// // 8 leaves + 7 internal nodes.
/// assert_eq!(bvh.nodes.len(), 15);
/// ```
pub fn build_binary(triangles: &[Triangle]) -> BinaryBvh {
    if triangles.is_empty() {
        return BinaryBvh {
            nodes: Vec::new(),
            root: 0,
            triangle_count: 0,
        };
    }
    let mut prims: Vec<PrimInfo> = triangles
        .iter()
        .enumerate()
        .map(|(i, t)| PrimInfo {
            index: i as u32,
            bounds: t.bounds(),
            centroid: t.centroid(),
        })
        .collect();
    // Worst case: 2n - 1 nodes for n triangles.
    let mut nodes = Vec::with_capacity(2 * triangles.len());
    let root = build_recursive(&mut prims, &mut nodes);
    BinaryBvh {
        nodes,
        root,
        triangle_count: triangles.len(),
    }
}

/// Builds a binary BVH with object-median splits (no SAH).
///
/// Sorts primitives by centroid along the widest axis and splits at the
/// median. Produces balanced but lower-quality trees than
/// [`build_binary`]; the `ablations` figure of the `paper` bench
/// quantifies how much tree quality matters to RT-unit performance.
///
/// # Examples
///
/// ```
/// use cooprt_bvh::{build_binary_median, build_binary};
/// use cooprt_math::{Triangle, Vec3};
///
/// let tris: Vec<Triangle> = (0..16)
///     .map(|i| {
///         let b = Vec3::new(i as f32, 0.0, 0.0);
///         Triangle::new(b, b + Vec3::X * 0.4, b + Vec3::Y * 0.4)
///     })
///     .collect();
/// let median = build_binary_median(&tris);
/// assert_eq!(median.triangle_count, 16);
/// assert_eq!(median.nodes.len(), build_binary(&tris).nodes.len());
/// ```
pub fn build_binary_median(triangles: &[Triangle]) -> BinaryBvh {
    if triangles.is_empty() {
        return BinaryBvh {
            nodes: Vec::new(),
            root: 0,
            triangle_count: 0,
        };
    }
    let mut prims: Vec<PrimInfo> = triangles
        .iter()
        .enumerate()
        .map(|(i, t)| PrimInfo {
            index: i as u32,
            bounds: t.bounds(),
            centroid: t.centroid(),
        })
        .collect();
    let mut nodes = Vec::with_capacity(2 * triangles.len());
    let root = build_median_recursive(&mut prims, &mut nodes);
    BinaryBvh {
        nodes,
        root,
        triangle_count: triangles.len(),
    }
}

fn build_median_recursive(prims: &mut [PrimInfo], nodes: &mut Vec<BinaryNode>) -> u32 {
    debug_assert!(!prims.is_empty());
    let bounds = geometry_bounds(prims);
    if prims.len() == 1 {
        nodes.push(BinaryNode::Leaf {
            bounds,
            triangle: prims[0].index,
        });
        return (nodes.len() - 1) as u32;
    }
    let axis = centroid_bounds(prims).extent().max_axis();
    prims.sort_by(|a, b| {
        a.centroid[axis]
            .partial_cmp(&b.centroid[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mid = prims.len() / 2;
    let (left_slice, right_slice) = prims.split_at_mut(mid);
    let left = build_median_recursive(left_slice, nodes);
    let right = build_median_recursive(right_slice, nodes);
    nodes.push(BinaryNode::Internal {
        bounds,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

#[derive(Clone, Copy, Debug)]
struct PrimInfo {
    index: u32,
    bounds: Aabb,
    centroid: Vec3,
}

fn geometry_bounds(prims: &[PrimInfo]) -> Aabb {
    prims
        .iter()
        .fold(Aabb::empty(), |acc, p| acc.union(&p.bounds))
}

fn centroid_bounds(prims: &[PrimInfo]) -> Aabb {
    prims
        .iter()
        .fold(Aabb::empty(), |acc, p| acc.union_point(p.centroid))
}

fn build_recursive(prims: &mut [PrimInfo], nodes: &mut Vec<BinaryNode>) -> u32 {
    debug_assert!(!prims.is_empty());
    let bounds = geometry_bounds(prims);
    if prims.len() == 1 {
        nodes.push(BinaryNode::Leaf {
            bounds,
            triangle: prims[0].index,
        });
        return (nodes.len() - 1) as u32;
    }

    let mid = choose_split(prims);
    let (left_slice, right_slice) = prims.split_at_mut(mid);
    let left = build_recursive(left_slice, nodes);
    let right = build_recursive(right_slice, nodes);
    nodes.push(BinaryNode::Internal {
        bounds,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

/// Partitions `prims` in place and returns the split point (always in
/// `1..prims.len()`).
fn choose_split(prims: &mut [PrimInfo]) -> usize {
    let cb = centroid_bounds(prims);
    let axis = cb.extent().max_axis();
    let extent = cb.extent()[axis];

    // All centroids coincide on the split axis: median split by index.
    if extent <= f32::EPSILON {
        return prims.len() / 2;
    }

    if let Some(mid) = binned_sah_split(prims, &cb, axis) {
        return mid;
    }

    // SAH produced a degenerate (empty-side) split; sort by centroid and
    // take the median.
    prims.sort_by(|a, b| {
        a.centroid[axis]
            .partial_cmp(&b.centroid[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    prims.len() / 2
}

/// Binned SAH: returns the partition point, or `None` when every candidate
/// plane leaves one side empty.
fn binned_sah_split(prims: &mut [PrimInfo], cb: &Aabb, axis: usize) -> Option<usize> {
    #[derive(Clone, Copy)]
    struct Bin {
        bounds: Aabb,
        count: usize,
    }
    let mut bins = [Bin {
        bounds: Aabb::empty(),
        count: 0,
    }; BIN_COUNT];

    let k0 = cb.min[axis];
    let k1 = BIN_COUNT as f32 / cb.extent()[axis];
    let bin_of = |c: Vec3| -> usize { (((c[axis] - k0) * k1) as usize).min(BIN_COUNT - 1) };

    for p in prims.iter() {
        let b = bin_of(p.centroid);
        bins[b].bounds = bins[b].bounds.union(&p.bounds);
        bins[b].count += 1;
    }

    // Sweep: cost(i) = SA(left 0..=i) * n_left + SA(right i+1..) * n_right.
    let mut right_sa = [0.0f32; BIN_COUNT];
    let mut right_count = [0usize; BIN_COUNT];
    let mut acc = Aabb::empty();
    let mut cnt = 0;
    for i in (1..BIN_COUNT).rev() {
        acc = acc.union(&bins[i].bounds);
        cnt += bins[i].count;
        right_sa[i] = acc.surface_area();
        right_count[i] = cnt;
    }

    let mut best_plane = None;
    let mut best_cost = f32::INFINITY;
    let mut left_acc = Aabb::empty();
    let mut left_cnt = 0;
    for i in 0..BIN_COUNT - 1 {
        left_acc = left_acc.union(&bins[i].bounds);
        left_cnt += bins[i].count;
        let right_cnt = right_count[i + 1];
        if left_cnt == 0 || right_cnt == 0 {
            continue;
        }
        let cost = left_acc.surface_area() * left_cnt as f32 + right_sa[i + 1] * right_cnt as f32;
        if cost < best_cost {
            best_cost = cost;
            best_plane = Some(i);
        }
    }

    let plane = best_plane?;
    // Partition prims around the chosen plane.
    let mut mid = 0;
    let len = prims.len();
    for i in 0..len {
        if bin_of(prims[i].centroid) <= plane {
            prims.swap(i, mid);
            mid += 1;
        }
    }
    debug_assert!(mid > 0 && mid < len);
    Some(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_triangles(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0;
                let z = (i / 8) as f32 * 2.0;
                let base = Vec3::new(x, 0.0, z);
                Triangle::new(base, base + Vec3::X, base + Vec3::Z)
            })
            .collect()
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let bvh = build_binary(&[]);
        assert!(bvh.is_empty());
        assert_eq!(bvh.depth(), 0);
        assert!(bvh.nodes.is_empty());
    }

    #[test]
    fn single_triangle_is_one_leaf() {
        let tris = grid_triangles(1);
        let bvh = build_binary(&tris);
        assert_eq!(bvh.nodes.len(), 1);
        assert_eq!(bvh.depth(), 1);
        match &bvh.nodes[bvh.root as usize] {
            BinaryNode::Leaf { triangle, .. } => assert_eq!(*triangle, 0),
            other => panic!("expected leaf, got {other:?}"),
        }
    }

    #[test]
    fn node_count_is_2n_minus_1() {
        for n in [2usize, 3, 7, 16, 33, 100] {
            let tris = grid_triangles(n);
            let bvh = build_binary(&tris);
            assert_eq!(bvh.nodes.len(), 2 * n - 1, "n = {n}");
        }
    }

    #[test]
    fn every_triangle_appears_in_exactly_one_leaf() {
        let tris = grid_triangles(40);
        let bvh = build_binary(&tris);
        let mut seen = vec![0u32; tris.len()];
        for node in &bvh.nodes {
            if let BinaryNode::Leaf { triangle, .. } = node {
                seen[*triangle as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "leaf coverage: {seen:?}");
    }

    #[test]
    fn parent_bounds_contain_children() {
        let tris = grid_triangles(25);
        let bvh = build_binary(&tris);
        for node in &bvh.nodes {
            if let BinaryNode::Internal {
                bounds,
                left,
                right,
            } = node
            {
                let lb = bvh.nodes[*left as usize].bounds();
                let rb = bvh.nodes[*right as usize].bounds();
                assert_eq!(bounds.union(&lb), *bounds);
                assert_eq!(bounds.union(&rb), *bounds);
            }
        }
    }

    #[test]
    fn leaf_bounds_contain_triangle() {
        let tris = grid_triangles(12);
        let bvh = build_binary(&tris);
        for node in &bvh.nodes {
            if let BinaryNode::Leaf { bounds, triangle } = node {
                let t = tris[*triangle as usize];
                assert!(bounds.contains(t.v0));
                assert!(bounds.contains(t.v1));
                assert!(bounds.contains(t.v2));
            }
        }
    }

    #[test]
    fn median_builder_covers_all_triangles() {
        let tris = grid_triangles(33);
        let bvh = build_binary_median(&tris);
        assert_eq!(bvh.nodes.len(), 2 * 33 - 1);
        let mut seen = vec![0u32; tris.len()];
        for node in &bvh.nodes {
            if let BinaryNode::Leaf { triangle, .. } = node {
                seen[*triangle as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn median_builder_is_balanced() {
        let tris = grid_triangles(64);
        let bvh = build_binary_median(&tris);
        // A median tree over 64 leaves is perfectly balanced: depth 7.
        assert_eq!(bvh.depth(), 7);
    }

    #[test]
    fn median_bounds_contain_children() {
        let tris = grid_triangles(20);
        let bvh = build_binary_median(&tris);
        for node in &bvh.nodes {
            if let BinaryNode::Internal {
                bounds,
                left,
                right,
            } = node
            {
                assert_eq!(bounds.union(&bvh.nodes[*left as usize].bounds()), *bounds);
                assert_eq!(bounds.union(&bvh.nodes[*right as usize].bounds()), *bounds);
            }
        }
    }

    #[test]
    fn sah_tree_has_no_worse_sah_cost_than_median() {
        // Clustered geometry: SAH should separate the clusters where a
        // blind median may not, yielding lower total surface area.
        let mut tris = grid_triangles(24);
        for t in grid_triangles(24) {
            let shift = Vec3::new(500.0, 0.0, 0.0);
            tris.push(Triangle::new(t.v0 + shift, t.v1 + shift, t.v2 + shift));
        }
        let sa = |bvh: &BinaryBvh| -> f32 {
            bvh.nodes
                .iter()
                .filter_map(|n| match n {
                    BinaryNode::Internal { bounds, .. } => Some(bounds.surface_area()),
                    BinaryNode::Leaf { .. } => None,
                })
                .sum()
        };
        assert!(sa(&build_binary(&tris)) <= sa(&build_binary_median(&tris)) * 1.05);
    }

    #[test]
    fn coincident_centroids_still_terminate() {
        // 10 identical triangles: all centroids equal — must not recurse
        // forever.
        let t = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        let tris = vec![t; 10];
        let bvh = build_binary(&tris);
        assert_eq!(bvh.triangle_count, 10);
        assert_eq!(bvh.nodes.len(), 19);
    }

    #[test]
    fn sah_tree_is_shallower_than_linear() {
        let tris = grid_triangles(64);
        let bvh = build_binary(&tris);
        // A balanced-ish SAH tree over 64 leaves should be far below the
        // degenerate depth of 64 — allow generous slack.
        assert!(bvh.depth() <= 16, "depth = {}", bvh.depth());
        assert!(bvh.depth() >= 7); // log2(64) + 1
    }

    #[test]
    fn clustered_geometry_splits_clusters_first() {
        // Two clusters far apart; the root split should separate them.
        let mut tris = Vec::new();
        for i in 0..8 {
            let base = Vec3::new(i as f32 * 0.1, 0.0, 0.0);
            tris.push(Triangle::new(
                base,
                base + Vec3::X * 0.05,
                base + Vec3::Y * 0.05,
            ));
        }
        for i in 0..8 {
            let base = Vec3::new(1000.0 + i as f32 * 0.1, 0.0, 0.0);
            tris.push(Triangle::new(
                base,
                base + Vec3::X * 0.05,
                base + Vec3::Y * 0.05,
            ));
        }
        let bvh = build_binary(&tris);
        if let BinaryNode::Internal { left, right, .. } = &bvh.nodes[bvh.root as usize] {
            let lb = bvh.nodes[*left as usize].bounds();
            let rb = bvh.nodes[*right as usize].bounds();
            assert!(!lb.overlaps(&rb), "root split should separate the clusters");
        } else {
            panic!("root must be internal");
        }
    }
}
