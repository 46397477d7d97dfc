//! Binned-SAH 6-ary BVH builder for the CoopRT reproduction.
//!
//! The CoopRT paper models the BVH layout used by MESA and Vulkan-sim: a
//! 6-ary tree whose internal nodes store the AABBs *and addresses* of up to
//! six children, and whose leaf nodes are individual primitives (triangles)
//! storing vertex coordinates. The RT unit traverses this tree by popping
//! node **addresses** from a per-thread stack and fetching the node data
//! from the memory hierarchy.
//!
//! This crate provides that whole pipeline:
//!
//! - [`build_binary`] — a binned surface-area-heuristic (SAH) binary
//!   builder, standing in for Embree 3.14 (the paper's builder);
//! - [`WideBvh`] — collapse of the binary tree into 6-ary nodes;
//! - [`BvhImage`] — a flattened, byte-addressed serialization of the wide
//!   tree. Addresses from the image drive the simulator's caches and DRAM;
//! - [`traverse`] — reference CPU traversals (Algorithm 1 of the paper)
//!   used both as the functional gold model and by the simulator's math
//!   units;
//! - [`stats`] — tree statistics (size, depth, SAH cost) for Table 2.
//!
//! # Examples
//!
//! ```
//! use cooprt_bvh::{build_binary, BvhImage, WideBvh};
//! use cooprt_bvh::traverse::closest_hit;
//! use cooprt_math::{Ray, Triangle, Vec3};
//!
//! let tris = vec![
//!     Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y),
//!     Triangle::new(Vec3::splat(2.0), Vec3::splat(2.0) + Vec3::X, Vec3::splat(2.0) + Vec3::Y),
//! ];
//! let binary = build_binary(&tris);
//! let wide = WideBvh::from_binary(&binary);
//! let image = BvhImage::serialize(&wide, &tris);
//!
//! let ray = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::Z);
//! let hit = closest_hit(&image, &ray, f32::INFINITY).expect("hits first triangle");
//! assert_eq!(hit.triangle, 0);
//! ```

mod builder;
mod image;
pub mod stats;
pub mod traverse;
mod wide;

pub use builder::{build_binary, build_binary_median, BinaryBvh, BinaryNode};
pub use image::{
    BvhImage, ChildChunk, ChildRef, ImageBuilder, Node, NodeKind, INTERNAL_NODE_BYTES,
    LEAF_NODE_BYTES,
};
pub use stats::TreeStats;
pub use wide::{WideBvh, WideNode, MAX_ARITY};
