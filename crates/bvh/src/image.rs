//! Flattened, byte-addressed BVH memory image.
//!
//! The RT unit traverses the BVH by popping node *addresses* from a
//! per-thread stack and fetching node data through the cache hierarchy.
//! [`BvhImage`] is that address space: every wide node is assigned a byte
//! address in a packed, depth-first layout; the simulator issues fetches
//! for those addresses and the caches see realistic locality.
//!
//! On the host, a node is a 16-byte record and an internal node's
//! children live beside the node table in 4-wide struct-of-arrays
//! [`ChildChunk`]s, so the math units' test of one fetched node is one
//! branch-free pass per chunk ([`ChildChunk::hit_mask`]).

use crate::{WideBvh, WideNode, MAX_ARITY};
use cooprt_math::{Aabb, Ray, Triangle, Vec3};
use std::sync::Arc;

/// Size in bytes of an internal node record.
///
/// 8-byte header + 6 children x (24-byte AABB + 4-byte offset) = 176,
/// matching the MESA/Vulkan-sim 6-ary node footprint.
pub const INTERNAL_NODE_BYTES: u32 = 176;

/// Size in bytes of a leaf (triangle) node record.
///
/// 3 vertices x 12 bytes + primitive id + header, rounded to 64 bytes
/// (two 32-byte memory chunks).
pub const LEAF_NODE_BYTES: u32 = 64;

/// Children per [`ChildChunk`].
const CHUNK_LANES: usize = 4;

/// Base address of the BVH heap in the simulated address space.
const HEAP_BASE: u64 = 0x1000_0000;

/// Granularity of the address-to-node lookup table.
///
/// Every node starts on a multiple of `gcd(INTERNAL_NODE_BYTES,
/// LEAF_NODE_BYTES) = 16` bytes from the heap base (the layout is
/// packed), so one table slot per 16-byte grain covers every possible
/// node start exactly once.
const LOOKUP_GRAIN: u64 = 16;

/// Sentinel for lookup-table slots that do not start a node.
const NO_NODE: u32 = u32::MAX;

/// Lookup-table bit set for an internal node, so a node's size is known
/// from the table alone; the bits below it hold the node's index.
const INTERNAL_BIT: u32 = 1 << 31;

/// A reference to a child node as stored inside its parent: the child's
/// bounds (tested *before* fetching the child) and its address.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildRef {
    /// Byte address of the child node in the image.
    pub addr: u64,
    /// Child bounds, stored in the parent as in the hardware layout.
    pub bounds: Aabb,
}

/// Four children of an internal node in struct-of-arrays layout: per
/// axis, the four lanes' lower and upper bounds, then the four child
/// offsets from the heap base (112 bytes).
///
/// An internal node with `n` children owns `ceil(n / 4)` consecutive
/// chunks holding them in slot order. Lanes past the last child are
/// padding: they hold [`Aabb::empty`], which no test hits.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(16))]
pub struct ChildChunk {
    min: [[f32; CHUNK_LANES]; 3],
    max: [[f32; CHUNK_LANES]; 3],
    offset: [u32; CHUNK_LANES],
}

impl ChildChunk {
    /// A chunk of padding lanes only.
    const PADDING: ChildChunk = ChildChunk {
        min: [[f32::INFINITY; CHUNK_LANES]; 3],
        max: [[f32::NEG_INFINITY; CHUNK_LANES]; 3],
        offset: [0; CHUNK_LANES],
    };

    fn set(&mut self, lane: usize, offset: u32, b: &Aabb) {
        for (a, (lo, hi)) in [(b.min.x, b.max.x), (b.min.y, b.max.y), (b.min.z, b.max.z)]
            .into_iter()
            .enumerate()
        {
            self.min[a][lane] = lo;
            self.max[a][lane] = hi;
        }
        self.offset[lane] = offset;
    }

    /// Byte address of the child in `lane`.
    #[inline]
    pub fn addr(&self, lane: usize) -> u64 {
        HEAP_BASE + u64::from(self.offset[lane])
    }

    /// Bounds of the child in `lane`, bit for bit as stored.
    pub fn bounds(&self, lane: usize) -> Aabb {
        let corner = |c: &[[f32; CHUNK_LANES]; 3]| Vec3::new(c[0][lane], c[1][lane], c[2][lane]);
        Aabb {
            min: corner(&self.min),
            max: corner(&self.max),
        }
    }

    /// The slab test of all four lanes in one branch-free pass: bit `l`
    /// is set iff `self.bounds(l).intersect(ray, t_max).is_some()`.
    ///
    /// It is [`Aabb::intersect`] lane-wise, decision for decision: a
    /// slab whose entry or exit is NaN constrains nothing; a lane with
    /// `min > max` on some axis is empty, which here sets its exit to
    /// -inf so it misses (a NaN bound compares false and does not
    /// empty it); the entry clamps at 0 and the exit at `t_max`. The
    /// folds are compare-selects, which equal `f32::max`/`f32::min`
    /// here: a slab's entry and exit are never NaN once a NaN slab is
    /// widened, and a NaN `t_max` drops out of the first exit fold as
    /// `f32::min` drops it. (Where the two can differ, in the sign of a
    /// zero, only `<=` reads the result.) Padding lanes are empty, so
    /// they never hit. Every select is a bit blend, so the pass
    /// compiles to 4-wide vector code with no branch to mispredict.
    #[inline]
    pub fn hit_mask(&self, ray: &Ray, t_max: f32) -> u32 {
        let orig = [ray.orig.x, ray.orig.y, ray.orig.z];
        let inv = [ray.inv_dir.x, ray.inv_dir.y, ray.inv_dir.z];
        let mut enter = [0.0f32; CHUNK_LANES];
        let mut exit = [t_max; CHUNK_LANES];
        for a in 0..3 {
            let (lo, hi) = (&self.min[a], &self.max[a]);
            for l in 0..CHUNK_LANES {
                let t0 = (lo[l] - orig[a]) * inv[a];
                let t1 = (hi[l] - orig[a]) * inv[a];
                let ordered = !(t0.is_nan() | t1.is_nan());
                let near = select(ordered, select(t0 < t1, t0, t1), f32::NEG_INFINITY);
                let far = select(ordered, select(t0 > t1, t0, t1), f32::INFINITY);
                let far = select(lo[l] > hi[l], f32::NEG_INFINITY, far);
                enter[l] = select(enter[l] > near, enter[l], near);
                exit[l] = select(exit[l] < far, exit[l], far);
            }
        }
        let mut mask = 0;
        for l in 0..CHUNK_LANES {
            mask |= u32::from(enter[l] <= exit[l]) << l;
        }
        mask
    }

    /// Bit `l` set iff `self.bounds(l).contains(p)` (gather descent).
    /// Padding lanes contain no point.
    #[inline]
    pub fn contains_mask(&self, p: Vec3) -> u32 {
        let mut inside = [true; CHUNK_LANES];
        for (a, pa) in [p.x, p.y, p.z].into_iter().enumerate() {
            for (l, inside) in inside.iter_mut().enumerate() {
                *inside &= (pa >= self.min[a][l]) & (pa <= self.max[a][l]);
            }
        }
        let mut mask = 0;
        for (l, &i) in inside.iter().enumerate() {
            mask |= u32::from(i) << l;
        }
        mask
    }
}

/// `if c { a } else { b }` as a bit blend, which the vectorizer keeps
/// branch-free.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    let m = u32::from(c).wrapping_neg();
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// Payload of a serialized node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Internal node: up to [`MAX_ARITY`] `(bounds, address)` child
    /// records, held in slot order by the image's chunks from
    /// `first_chunk` on ([`BvhImage::children`], [`BvhImage::chunks`]).
    Internal {
        /// Index of the node's first [`ChildChunk`].
        first_chunk: u32,
        /// Number of children.
        children: u8,
    },
    /// Leaf node: one triangle primitive.
    Leaf {
        /// Index into [`BvhImage::triangles`].
        triangle: u32,
    },
}

/// A serialized node: its address plus payload (16 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// Byte address of this node.
    pub addr: u64,
    /// Node payload.
    pub kind: NodeKind,
}

impl Node {
    /// Bytes fetched from memory when this node is read.
    pub fn size_bytes(&self) -> u32 {
        match self.kind {
            NodeKind::Internal { .. } => INTERNAL_NODE_BYTES,
            NodeKind::Leaf { .. } => LEAF_NODE_BYTES,
        }
    }
}

/// The flattened BVH: nodes in address order, their child chunks, and
/// the triangle array.
///
/// An image is immutable once built, and its clones share one set of
/// tables: a scene, the traces recorded from it and every replay of
/// those traces read the same memory, and cloning costs a reference
/// count.
///
/// # Examples
///
/// ```
/// use cooprt_bvh::{build_binary, BvhImage, WideBvh};
/// use cooprt_math::{Triangle, Vec3};
///
/// let tris = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
/// let image = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris);
/// assert_eq!(image.node_count(), 1);
/// let root = image.node_at(image.root_addr()).unwrap();
/// assert_eq!(root.size_bytes(), cooprt_bvh::LEAF_NODE_BYTES);
/// ```
#[derive(Clone, Debug)]
pub struct BvhImage {
    tables: Arc<Tables>,
}

/// The tables a [`BvhImage`] and its clones share.
#[derive(Debug)]
struct Tables {
    /// Nodes sorted by ascending address (depth-first layout order).
    nodes: Vec<Node>,
    /// Every internal node's children, node by node in address order.
    chunks: Vec<ChildChunk>,
    root_bounds: Aabb,
    /// The scene's triangles, referenced by leaf nodes.
    triangles: Vec<Triangle>,
    total_bytes: u64,
    /// Dense addr→node table: slot `(addr - root_addr) / LOOKUP_GRAIN`
    /// holds the node's index into `nodes`, with [`INTERNAL_BIT`] set
    /// for an internal node, or [`NO_NODE`]. Makes
    /// [`BvhImage::node_at`] and [`BvhImage::locate`] O(1) on the
    /// traversal hot path.
    lookup: Vec<u32>,
    /// Parent-pointer table, index-aligned with `nodes`: slot `i` holds
    /// the index of node `i`'s parent, or [`NO_NODE`] for the root.
    /// Derived state like `lookup` (rebuilt by [`ImageBuilder::finish`],
    /// excluded from [`BvhImage::content_hash`]); backs the ray-path
    /// predictor's go-up-level fallback via [`BvhImage::parent_addr`].
    parents: Vec<u32>,
}

impl BvhImage {
    /// Serializes a wide BVH into a packed address space.
    ///
    /// Nodes are laid out in depth-first preorder starting at the heap
    /// base, so siblings and near ancestors share cache lines — the
    /// locality the paper's cache statistics depend on.
    ///
    /// # Panics
    ///
    /// Panics if `wide` references triangles outside `triangles`.
    pub fn serialize(wide: &WideBvh, triangles: &[Triangle]) -> Self {
        let chunks = wide
            .nodes
            .iter()
            .map(|n| match n {
                WideNode::Internal { children, .. } => chunks_for(children.len()),
                WideNode::Leaf { .. } => 0,
            })
            .sum();
        let mut image = ImageBuilder::with_capacity(wide.nodes.len());
        image.chunks.reserve_exact(chunks);
        let root_bounds = if wide.nodes.is_empty() {
            Aabb::empty()
        } else {
            let mut addr_of = vec![0u64; wide.nodes.len()];
            assign_addrs(wide, wide.root, &mut addr_of, &mut image.next_addr());
            emit(wide, wide.root, &addr_of, &mut image, &mut Vec::new());
            wide.nodes[wide.root as usize].bounds()
        };
        image
            .finish(root_bounds, triangles.to_vec())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Address of the root node.
    pub fn root_addr(&self) -> u64 {
        HEAP_BASE
    }

    /// Bounds of the whole scene (the root AABB tested on traversal
    /// entry, Algorithm 1 line 1).
    pub fn root_bounds(&self) -> Aabb {
        self.tables.root_bounds
    }

    /// The lookup-table entry of the node starting at `addr`.
    #[inline]
    fn entry(&self, addr: u64) -> Option<u32> {
        let offset = addr.checked_sub(HEAP_BASE)?;
        if offset % LOOKUP_GRAIN != 0 {
            return None;
        }
        match *self.tables.lookup.get((offset / LOOKUP_GRAIN) as usize)? {
            NO_NODE => None,
            e => Some(e),
        }
    }

    /// Looks up a node by its byte address.
    ///
    /// Returns `None` for addresses that do not start a node. O(1):
    /// one indexed load into the dense table built with the image —
    /// this sits on the traversal hot path, queried once per node visit
    /// by both the CPU reference and the simulated RT unit.
    #[inline]
    pub fn node_at(&self, addr: u64) -> Option<&Node> {
        self.entry(addr)
            .map(|e| &self.tables.nodes[(e & !INTERNAL_BIT) as usize])
    }

    /// The node starting at `addr` as `(index, size in bytes)`, read
    /// from the address table alone: the memory scheduler sizes a fetch
    /// without loading the node. `None` for addresses that do not start
    /// a node.
    #[inline]
    pub fn locate(&self, addr: u64) -> Option<(u32, u32)> {
        self.entry(addr).map(|e| {
            let size = if e & INTERNAL_BIT != 0 {
                INTERNAL_NODE_BYTES
            } else {
                LEAF_NODE_BYTES
            };
            (e & !INTERNAL_BIT, size)
        })
    }

    /// The node at `index` in address order (an index from
    /// [`BvhImage::locate`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn node(&self, index: u32) -> &Node {
        &self.tables.nodes[index as usize]
    }

    /// The child chunks of `node` (none for a leaf).
    #[inline]
    pub fn chunks(&self, node: &Node) -> &[ChildChunk] {
        match node.kind {
            NodeKind::Internal {
                first_chunk,
                children,
            } => {
                let first = first_chunk as usize;
                &self.tables.chunks[first..first + chunks_for(usize::from(children))]
            }
            NodeKind::Leaf { .. } => &[],
        }
    }

    /// The children of `node` in slot order (none for a leaf).
    pub fn children<'a>(&'a self, node: &Node) -> impl Iterator<Item = ChildRef> + 'a {
        let n = match node.kind {
            NodeKind::Internal { children, .. } => usize::from(children),
            NodeKind::Leaf { .. } => 0,
        };
        self.chunks(node)
            .iter()
            .flat_map(|chunk| {
                (0..CHUNK_LANES).map(move |lane| ChildRef {
                    addr: chunk.addr(lane),
                    bounds: chunk.bounds(lane),
                })
            })
            .take(n)
    }

    /// Address of the parent of the node at `addr`.
    ///
    /// Returns `None` for the root and for addresses that do not start
    /// a node. O(1) via the parent-pointer table — queried on the
    /// ray-path predictor's go-up-level fallback and when attributing
    /// hits to a predicted subtree.
    #[inline]
    pub fn parent_addr(&self, addr: u64) -> Option<u64> {
        let (i, _) = self.locate(addr)?;
        match self.tables.parents[i as usize] {
            NO_NODE => None,
            p => Some(self.tables.nodes[p as usize].addr),
        }
    }

    /// Depth of the node at `addr` below the root (root = 0), or `None`
    /// for addresses that do not start a node. Walks the parent table,
    /// so O(tree depth).
    pub fn depth_of(&self, addr: u64) -> Option<u32> {
        self.node_at(addr)?;
        let mut depth = 0;
        let mut cur = addr;
        while let Some(p) = self.parent_addr(cur) {
            depth += 1;
            cur = p;
        }
        Some(depth)
    }

    /// The triangle referenced by a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn triangle(&self, index: u32) -> &Triangle {
        &self.tables.triangles[index as usize]
    }

    /// All triangles in the image.
    pub fn triangles(&self) -> &[Triangle] {
        &self.tables.triangles
    }

    /// Number of serialized nodes.
    pub fn node_count(&self) -> usize {
        self.tables.nodes.len()
    }

    /// Iterates over the serialized nodes in address order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.tables.nodes.iter()
    }

    /// Total footprint of the node records in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tables.total_bytes
    }

    /// Total footprint in mebibytes (the paper's Table 2 unit).
    pub fn size_mib(&self) -> f64 {
        self.tables.total_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Content hash of the serialized image: FNV-1a 64 over every node
    /// (address, kind, child bounds/addresses or triangle index) and
    /// every triangle's exact `f32` bit patterns.
    ///
    /// Two images hash equal iff they describe the same address space
    /// over the same geometry, so the hash is a content address for
    /// caches that amortize BVH builds across requests (`cooprt-serve`
    /// keys its scene cache on it) and a cheap bitwise-identity witness
    /// in responses and differential checks.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.root_addr());
        hash_aabb(&mut h, &self.tables.root_bounds);
        h.write_u64(self.tables.nodes.len() as u64);
        for node in &self.tables.nodes {
            h.write_u64(node.addr);
            match node.kind {
                NodeKind::Leaf { triangle } => {
                    h.write_u64(0);
                    h.write_u64(u64::from(triangle));
                }
                NodeKind::Internal { children, .. } => {
                    h.write_u64(1);
                    h.write_u64(u64::from(children));
                    for c in self.children(node) {
                        h.write_u64(c.addr);
                        hash_aabb(&mut h, &c.bounds);
                    }
                }
            }
        }
        h.write_u64(self.tables.triangles.len() as u64);
        for t in &self.tables.triangles {
            for v in [t.v0, t.v1, t.v2] {
                h.write_u32(v.x.to_bits());
                h.write_u32(v.y.to_bits());
                h.write_u32(v.z.to_bits());
            }
        }
        h.finish()
    }
}

/// Lays a [`BvhImage`] out node by node in address order: the inverse
/// of walking [`BvhImage::iter`] with [`BvhImage::children`]. The trace
/// codec rebuilds a self-contained replay scene with it, and
/// [`BvhImage::serialize`] emits through it.
///
/// Addresses are implicit: each node starts where the previous one
/// ended, from the heap base, so the layout is packed by construction.
#[derive(Debug, Default)]
pub struct ImageBuilder {
    nodes: Vec<Node>,
    chunks: Vec<ChildChunk>,
    bytes: u64,
}

impl ImageBuilder {
    /// An empty builder with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        ImageBuilder {
            nodes: Vec::with_capacity(nodes),
            ..ImageBuilder::default()
        }
    }

    /// Address the next node will get.
    pub fn next_addr(&self) -> u64 {
        HEAP_BASE + self.bytes
    }

    fn push(&mut self, kind: NodeKind, size: u32) {
        self.nodes.push(Node {
            addr: self.next_addr(),
            kind,
        });
        self.bytes += u64::from(size);
    }

    /// Appends a leaf holding triangle `triangle`.
    pub fn leaf(&mut self, triangle: u32) {
        self.push(NodeKind::Leaf { triangle }, LEAF_NODE_BYTES);
    }

    /// Appends an internal node with `children` in slot order.
    ///
    /// # Errors
    ///
    /// Fails, appending nothing, on more than [`MAX_ARITY`] children or
    /// a child address outside the heap's 32-bit offset range.
    /// [`ImageBuilder::finish`] checks that every child address starts
    /// a node.
    pub fn internal(&mut self, children: &[ChildRef]) -> Result<(), String> {
        let addr = self.next_addr();
        if children.len() > MAX_ARITY {
            return Err(format!(
                "internal node at {addr:#x} has {} children, more than {MAX_ARITY}",
                children.len()
            ));
        }
        let mut offsets = [0u32; MAX_ARITY];
        for (o, c) in offsets.iter_mut().zip(children) {
            *o = c
                .addr
                .checked_sub(HEAP_BASE)
                .and_then(|off| u32::try_from(off).ok())
                .ok_or_else(|| dangling(addr, c.addr))?;
        }
        let first_chunk = self.chunks.len() as u32;
        for (i, c) in children.iter().enumerate() {
            if i % CHUNK_LANES == 0 {
                self.chunks.push(ChildChunk::PADDING);
            }
            let chunk = self.chunks.last_mut().expect("pushed above");
            chunk.set(i % CHUNK_LANES, offsets[i], &c.bounds);
        }
        self.push(
            NodeKind::Internal {
                first_chunk,
                children: children.len() as u8,
            },
            INTERNAL_NODE_BYTES,
        );
        Ok(())
    }

    /// The finished image over `triangles`, with `root_bounds` as the
    /// scene bounds. The derived state (`total_bytes`, the O(1) address
    /// table, the parent table) is computed here.
    ///
    /// # Errors
    ///
    /// Returns an error instead of panicking if a leaf references a
    /// triangle out of range or a child address does not start a node:
    /// the builder consumes decoded (possibly corrupt) data.
    pub fn finish(self, root_bounds: Aabb, triangles: Vec<Triangle>) -> Result<BvhImage, String> {
        let ImageBuilder {
            nodes,
            chunks,
            bytes: total_bytes,
        } = self;
        if nodes.len() >= INTERNAL_BIT as usize {
            return Err(format!("{} nodes overflow the address table", nodes.len()));
        }
        let mut lookup = vec![NO_NODE; (total_bytes / LOOKUP_GRAIN) as usize];
        for (i, node) in nodes.iter().enumerate() {
            let entry = match node.kind {
                NodeKind::Leaf { triangle } => {
                    if triangle as usize >= triangles.len() {
                        return Err(format!(
                            "leaf at {:#x} references triangle {triangle} of {}",
                            node.addr,
                            triangles.len()
                        ));
                    }
                    i as u32
                }
                NodeKind::Internal { .. } => i as u32 | INTERNAL_BIT,
            };
            lookup[((node.addr - HEAP_BASE) / LOOKUP_GRAIN) as usize] = entry;
        }
        let mut image = BvhImage {
            tables: Arc::new(Tables {
                nodes,
                chunks,
                root_bounds,
                triangles,
                total_bytes,
                lookup,
                parents: Vec::new(),
            }),
        };
        let mut parents = vec![NO_NODE; image.node_count()];
        for (i, node) in image.iter().enumerate() {
            for c in image.children(node) {
                let (child, _) = image
                    .locate(c.addr)
                    .ok_or_else(|| dangling(node.addr, c.addr))?;
                parents[child as usize] = i as u32;
            }
        }
        Arc::get_mut(&mut image.tables)
            .expect("a new image is not shared")
            .parents = parents;
        Ok(image)
    }
}

/// The number of [`ChildChunk`]s that hold `children` children.
fn chunks_for(children: usize) -> usize {
    children.div_ceil(CHUNK_LANES)
}

fn dangling(node: u64, child: u64) -> String {
    format!("internal node at {node:#x} has dangling child address {child:#x}")
}

/// Minimal FNV-1a 64-bit hasher (the workspace carries no external
/// hashing dependency; this is the standard offset-basis/prime pair).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_aabb(h: &mut Fnv64, aabb: &Aabb) {
    h.write_u32(aabb.min.x.to_bits());
    h.write_u32(aabb.min.y.to_bits());
    h.write_u32(aabb.min.z.to_bits());
    h.write_u32(aabb.max.x.to_bits());
    h.write_u32(aabb.max.y.to_bits());
    h.write_u32(aabb.max.z.to_bits());
}

impl<'a> IntoIterator for &'a BvhImage {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Assigns every node of the subtree under `node` its address in
/// depth-first preorder, from `cursor` on.
fn assign_addrs(wide: &WideBvh, node: u32, addr_of: &mut [u64], cursor: &mut u64) {
    addr_of[node as usize] = *cursor;
    match &wide.nodes[node as usize] {
        WideNode::Leaf { .. } => *cursor += u64::from(LEAF_NODE_BYTES),
        WideNode::Internal { children, .. } => {
            *cursor += u64::from(INTERNAL_NODE_BYTES);
            for (c, _) in children {
                assign_addrs(wide, *c, addr_of, cursor);
            }
        }
    }
}

/// Appends `node` and its subtree in the preorder [`assign_addrs`]
/// numbered; `refs` is scratch for one node's child records.
fn emit(
    wide: &WideBvh,
    node: u32,
    addr_of: &[u64],
    out: &mut ImageBuilder,
    refs: &mut Vec<ChildRef>,
) {
    debug_assert_eq!(out.next_addr(), addr_of[node as usize]);
    match &wide.nodes[node as usize] {
        WideNode::Leaf { triangle, .. } => out.leaf(*triangle),
        WideNode::Internal { children, .. } => {
            refs.clear();
            refs.extend(children.iter().map(|(c, b)| ChildRef {
                addr: addr_of[*c as usize],
                bounds: *b,
            }));
            out.internal(refs)
                .expect("a wide node has at most MAX_ARITY children");
            for (c, _) in children {
                emit(wide, *c, addr_of, out, refs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_binary;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn image_of(n: usize) -> BvhImage {
        let tris: Vec<Triangle> = (0..n)
            .map(|i| {
                let base = Vec3::new(i as f32 * 2.0, 0.0, (i % 3) as f32);
                Triangle::new(base, base + Vec3::X, base + Vec3::Y)
            })
            .collect();
        BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris)
    }

    /// Lays `img`'s nodes out again through an [`ImageBuilder`], as the
    /// trace codec does, with `edit` applied to each internal node's
    /// children first.
    fn rebuild(
        img: &BvhImage,
        triangles: Vec<Triangle>,
        mut edit: impl FnMut(&mut Vec<ChildRef>),
    ) -> Result<BvhImage, String> {
        let mut b = ImageBuilder::default();
        for node in img {
            match node.kind {
                NodeKind::Leaf { triangle } => b.leaf(triangle),
                NodeKind::Internal { .. } => {
                    let mut children: Vec<ChildRef> = img.children(node).collect();
                    edit(&mut children);
                    b.internal(&children)?;
                }
            }
        }
        b.finish(img.root_bounds(), triangles)
    }

    #[test]
    fn empty_image() {
        let img = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&[])), &[]);
        assert_eq!(img.node_count(), 0);
        assert_eq!(img.total_bytes(), 0);
        assert!(img.root_bounds().is_empty());
        assert!(img.node_at(img.root_addr()).is_none());
    }

    #[test]
    fn addresses_are_unique_and_packed() {
        let img = image_of(25);
        let mut expected = img.iter().next().unwrap().addr;
        for node in &img {
            assert_eq!(node.addr, expected, "layout must be packed");
            expected += node.size_bytes() as u64;
        }
        assert_eq!(img.total_bytes(), expected - img.root_addr());
    }

    #[test]
    fn node_lookup_roundtrips() {
        let img = image_of(17);
        for node in &img {
            let found = img.node_at(node.addr).unwrap();
            assert_eq!(found, node);
        }
        // An address in the middle of a node record is not a node start.
        assert!(img.node_at(img.root_addr() + 4).is_none());
    }

    #[test]
    fn non_node_addresses_return_none() {
        let img = image_of(17);
        // Below the heap, above the heap, and grain-aligned inside the
        // root internal node (176 bytes spans several 16-byte grains).
        assert!(img.node_at(0).is_none());
        assert!(img.node_at(img.root_addr() - 16).is_none());
        assert!(img.node_at(img.root_addr() + img.total_bytes()).is_none());
        assert!(img.node_at(img.root_addr() + 16).is_none());
        assert!(img.node_at(u64::MAX).is_none());
    }

    #[test]
    fn child_addresses_resolve_to_nodes() {
        let img = image_of(30);
        for node in &img {
            for c in img.children(node) {
                let child = img.node_at(c.addr).expect("dangling child address");
                // Parent-stored bounds must contain the child's own
                // geometry (exactly equal for leaves).
                if let NodeKind::Leaf { triangle } = child.kind {
                    let t = img.triangle(triangle);
                    assert!(c.bounds.contains(t.v0));
                }
            }
        }
    }

    #[test]
    fn total_bytes_counts_node_sizes() {
        let img = image_of(9);
        let sum: u64 = img.iter().map(|n| n.size_bytes() as u64).sum();
        assert_eq!(img.total_bytes(), sum);
        assert!(img.size_mib() > 0.0);
    }

    #[test]
    fn root_bounds_contain_everything() {
        let img = image_of(12);
        for t in img.triangles() {
            assert!(img.root_bounds().contains(t.v0));
            assert!(img.root_bounds().contains(t.v1));
            assert!(img.root_bounds().contains(t.v2));
        }
    }

    #[test]
    fn content_hash_is_deterministic_and_content_sensitive() {
        // Same geometry, two independent serializations: equal hashes.
        assert_eq!(image_of(13).content_hash(), image_of(13).content_hash());
        // Different triangle counts: different address spaces.
        assert_ne!(image_of(13).content_hash(), image_of(14).content_hash());
        // A one-ULP vertex perturbation must change the hash.
        let tris = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
        let a = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&tris)), &tris);
        let moved = vec![Triangle::new(
            Vec3::new(f32::from_bits(1), 0.0, 0.0),
            Vec3::X,
            Vec3::Y,
        )];
        let b = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&moved)), &moved);
        assert_ne!(a.content_hash(), b.content_hash());
        // The empty image hashes stably too.
        let empty = BvhImage::serialize(&WideBvh::from_binary(&build_binary(&[])), &[]);
        assert_eq!(empty.content_hash(), empty.clone().content_hash());
    }

    #[test]
    fn builder_roundtrips_content_hash() {
        for n in [0usize, 1, 7, 25] {
            let img = image_of(n);
            let rebuilt = rebuild(&img, img.triangles().to_vec(), |_| {}).unwrap();
            assert_eq!(rebuilt.content_hash(), img.content_hash(), "n = {n}");
            assert_eq!(rebuilt.total_bytes(), img.total_bytes());
            assert_eq!(rebuilt.root_addr(), img.root_addr());
            for node in &img {
                assert_eq!(rebuilt.node_at(node.addr), Some(node));
            }
        }
    }

    #[test]
    fn builder_rejects_more_children_than_a_wide_node_has() {
        let img = image_of(9);
        let err = rebuild(&img, img.triangles().to_vec(), |children| {
            let extra = children[0];
            children.resize(MAX_ARITY + 1, extra);
        })
        .unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn builder_rejects_out_of_range_triangles() {
        let img = image_of(9);
        let err = rebuild(&img, img.triangles()[..4].to_vec(), |_| {}).unwrap_err();
        assert!(err.contains("triangle"), "{err}");
    }

    #[test]
    fn builder_rejects_dangling_children() {
        let img = image_of(9);
        let past_the_end = HEAP_BASE + img.total_bytes() + 160;
        for bad in [past_the_end, HEAP_BASE + 8, HEAP_BASE - 16, u64::MAX] {
            let mut first = true;
            let err = rebuild(&img, img.triangles().to_vec(), |children| {
                if std::mem::take(&mut first) {
                    children[0].addr = bad;
                }
            })
            .unwrap_err();
            assert!(err.contains("dangling"), "{bad:#x}: {err}");
        }
    }

    #[test]
    fn parent_table_inverts_child_links() {
        let img = image_of(30);
        // The root has no parent.
        assert_eq!(img.parent_addr(img.root_addr()), None);
        // Every child's parent pointer leads back to the node that
        // stores the child reference.
        let mut children_seen = 0;
        for node in &img {
            for c in img.children(node) {
                assert_eq!(img.parent_addr(c.addr), Some(node.addr));
                children_seen += 1;
            }
        }
        assert_eq!(
            children_seen,
            img.node_count() - 1,
            "every non-root node is someone's child exactly once"
        );
        // Non-node addresses have no parent.
        assert_eq!(img.parent_addr(0), None);
        assert_eq!(img.parent_addr(img.root_addr() + 4), None);
        assert_eq!(img.parent_addr(u64::MAX), None);
    }

    #[test]
    fn depth_walks_the_parent_chain_to_the_root() {
        let img = image_of(30);
        assert_eq!(img.depth_of(img.root_addr()), Some(0));
        assert_eq!(img.depth_of(img.root_addr() + 4), None);
        for node in &img {
            let d = img.depth_of(node.addr).unwrap();
            match img.parent_addr(node.addr) {
                None => assert_eq!(d, 0),
                Some(p) => assert_eq!(d, img.depth_of(p).unwrap() + 1),
            }
        }
    }

    #[test]
    fn builder_rebuilds_the_parent_table() {
        let img = image_of(25);
        let rebuilt = rebuild(&img, img.triangles().to_vec(), |_| {}).unwrap();
        for node in &img {
            assert_eq!(rebuilt.parent_addr(node.addr), img.parent_addr(node.addr));
            assert_eq!(rebuilt.depth_of(node.addr), img.depth_of(node.addr));
        }
    }

    /// A coordinate from a palette of the slab test's edge cases (signed
    /// zeros, infinities, NaN) or a small random value.
    fn edge_coord(rng: &mut StdRng) -> f32 {
        match rng.random_range(0u32..10) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => f32::NAN,
            _ => rng.random_range(-2.0f32..2.0),
        }
    }

    /// A box with corners in `[-4, 4)` and extents in `[0, 3)`; the
    /// adversarial ones are inverted (empty) on one axis, flat, or
    /// drawn from [`edge_coord`].
    fn random_box(rng: &mut StdRng, adversarial: bool) -> Aabb {
        let mut min = [0.0f32; 3];
        let mut max = [0.0f32; 3];
        for a in 0..3 {
            min[a] = rng.random_range(-4.0f32..4.0);
            max[a] = min[a] + rng.random_range(0.0f32..3.0);
        }
        if adversarial {
            let a = rng.random_range(0usize..3);
            match rng.random_range(0u32..4) {
                0 => std::mem::swap(&mut min[a], &mut max[a]),
                1 => max[a] = min[a],
                2 => (min[a], max[a]) = (edge_coord(rng), edge_coord(rng)),
                _ => {
                    for a in 0..3 {
                        (min[a], max[a]) = (edge_coord(rng), edge_coord(rng));
                    }
                }
            }
        }
        Aabb {
            min: Vec3::new(min[0], min[1], min[2]),
            max: Vec3::new(max[0], max[1], max[2]),
        }
    }

    /// A ray at `boxes`: its origin in `[-6, 6)`, aimed at a point of a
    /// random box. The adversarial ones put the origin on a box's slab
    /// plane with a zero (or negative-zero) direction component there,
    /// or draw origin and direction from [`edge_coord`]; their
    /// `inv_dir` is the plain reciprocal, as [`Ray::new`] computes it.
    fn random_ray(rng: &mut StdRng, boxes: &[Aabb], adversarial: bool) -> Ray {
        let mut orig = Vec3::new(
            rng.random_range(-6.0f32..6.0),
            rng.random_range(-6.0f32..6.0),
            rng.random_range(-6.0f32..6.0),
        );
        let target = boxes[rng.random_range(0..boxes.len())].centroid();
        let mut dir = target - orig;
        if adversarial {
            let b = boxes[rng.random_range(0..boxes.len())];
            let plane = if rng.random_range(0u32..2) == 0 {
                b.min
            } else {
                b.max
            };
            let zero = if rng.random_range(0u32..2) == 0 {
                0.0
            } else {
                -0.0
            };
            match rng.random_range(0u32..4) {
                0 => (orig.x, dir.x) = (plane.x, zero),
                1 => (orig.y, dir.y) = (plane.y, zero),
                2 => (orig.z, dir.z) = (plane.z, zero),
                _ => {
                    orig = Vec3::new(edge_coord(rng), edge_coord(rng), edge_coord(rng));
                    dir = Vec3::new(edge_coord(rng), edge_coord(rng), edge_coord(rng));
                }
            }
        }
        Ray {
            orig,
            dir,
            inv_dir: dir.recip(),
        }
    }

    fn aabb_bits(b: &Aabb) -> [u32; 6] {
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits)
    }

    #[test]
    fn chunk_masks_equal_the_scalar_tests_lane_by_lane() {
        let mut rng = StdRng::seed_from_u64(0x0c40_04b5);
        let (mut hits, mut misses) = (0, 0);
        for case in 0..40_000 {
            let adversarial = case % 2 == 1;
            let n = rng.random_range(2usize..MAX_ARITY + 1);
            let boxes: Vec<Aabb> = (0..n).map(|_| random_box(&mut rng, adversarial)).collect();
            let mut chunks = [ChildChunk::PADDING; 2];
            for (i, b) in boxes.iter().enumerate() {
                chunks[i / CHUNK_LANES].set(i % CHUNK_LANES, 16 * i as u32, b);
            }
            let ray = random_ray(&mut rng, &boxes, adversarial);
            let t_max = match rng.random_range(0u32..5) {
                0 => 0.0,
                1 => f32::INFINITY,
                2 if adversarial => edge_coord(&mut rng),
                _ => rng.random_range(0.0f32..12.0),
            };
            for (c, chunk) in chunks.iter().enumerate() {
                let (hit, inside) = (chunk.hit_mask(&ray, t_max), chunk.contains_mask(ray.orig));
                for lane in 0..CHUNK_LANES {
                    let (got_hit, got_inside) = (hit >> lane & 1 == 1, inside >> lane & 1 == 1);
                    let Some(b) = boxes.get(c * CHUNK_LANES + lane) else {
                        assert!(
                            !got_hit && !got_inside,
                            "case {case}: padding lane {lane} hit"
                        );
                        continue;
                    };
                    assert_eq!(aabb_bits(&chunk.bounds(lane)), aabb_bits(b), "case {case}");
                    let want = b.intersect(&ray, t_max).is_some();
                    assert_eq!(got_hit, want, "case {case}: {b:?} {ray:?} t_max {t_max}");
                    assert_eq!(
                        got_inside,
                        b.contains(ray.orig),
                        "case {case}: {b:?} {ray:?}"
                    );
                    if want {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
        }
        // Both outcomes must be well represented for the check to mean
        // anything.
        assert!(
            hits > 20_000 && misses > 20_000,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn nodes_and_chunks_have_their_documented_sizes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
        assert_eq!(std::mem::size_of::<ChildChunk>(), 112);
    }

    #[test]
    fn single_leaf_image() {
        let img = image_of(1);
        assert_eq!(img.node_count(), 1);
        assert_eq!(img.total_bytes(), LEAF_NODE_BYTES as u64);
        let root = img.node_at(img.root_addr()).unwrap();
        assert!(matches!(root.kind, NodeKind::Leaf { triangle: 0 }));
    }
}
