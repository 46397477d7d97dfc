//! Set-associative / fully-associative LRU caches with O(1) line
//! operations at any associativity.
//!
//! The way arrays are flat, one block of `ways` consecutive ways per
//! set (`lines[base + way]`), and two host-side structures keep every
//! access O(1), even on the 512-way fully associative Table 1 L1, where
//! a scan of the set's ways would dominate the simulator's host time:
//!
//! - a [`LineIndex`], an open-addressing table from line to way, finds
//!   a line's way;
//! - an intrusive recency ring per set (`newer`/`older` way links, with
//!   the set's LRU way as its head) makes a hit an unlink-relink and an
//!   eviction an advance of the head.
//!
//! A set's empty ways fill in ascending order, and once it is full the
//! victim is its exact LRU way, so every hit/miss decision is bitwise
//! identical to the map-based reference model in
//! `cooprt_check::oracle`; the golden-cycles suite pins that down.
//!
//! **Footprint.** The HTTP service builds a whole hierarchy (per-SM L1s
//! plus a 3 MB L2) for every job, and a small job fills a few hundred
//! lines of it, so what a cache writes must follow the sets it fills,
//! not its capacity:
//!
//! - construction writes only the per-set counters. The way arrays are
//!   reserved at full capacity, a set's block is appended zero-filled
//!   when the set first fills, and the index starts empty and doubles as
//!   it loads. Stored values are offset by one wherever `0` must mean
//!   "empty". Any table written at its full size would cost every job a
//!   memset of ~0.5 MB of L2 state and, once the allocator has handed
//!   the freed pages back to the kernel between jobs, a page fault per
//!   4 KB of it;
//! - a full cache costs an 8 B line, two 4 B ring links and its share
//!   of 4 B index slots per way (2 slots per way on the Table 1 L1, 1.33
//!   on its L2): 24 B and 21.3 B, plus 12 B per set. Keep it within
//!   24 B: the service allocates it again for every job.

/// Hit/miss counters of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total line accesses.
    pub accesses: u64,
    /// Line accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; `0` when the cache was never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// An open-addressing index from line to position in a flat table, for
/// [`Cache`] and [`crate::Mshr`].
///
/// The owner stores each entry's key, `line + 1`, in its own array at
/// the entry's position (so a zero-filled array is all empty); a slot
/// holds `position + 1`, `0` marking an empty slot, and a probe checks
/// the key through the owner's array. Probing is linear from the home
/// slot, the line's low bits. The slot count is a power of two at load
/// ≤ 0.75, doubling on the insert that would pass it, so every probe
/// chain ends at an empty slot. Removal shifts later entries of the
/// chain back into the hole instead of leaving a tombstone, so chains
/// stay short however long the table lives.
#[derive(Clone, Debug)]
pub(crate) struct LineIndex {
    slots: Box<[u32]>,
    mask: usize,
    /// Indexed positions.
    len: usize,
}

impl LineIndex {
    /// An empty index with room for `entries` positions before it
    /// first doubles.
    pub(crate) fn new(entries: usize) -> Self {
        assert!(
            entries < u32::MAX as usize,
            "index positions must fit a u32"
        );
        let len = (entries * 4).div_ceil(3).next_power_of_two();
        LineIndex {
            slots: vec![0; len].into_boxed_slice(),
            mask: len - 1,
            len: 0,
        }
    }

    /// The home slot of `key`'s line.
    fn home(&self, key: u64) -> usize {
        (key - 1) as usize & self.mask
    }

    /// The position whose key in `keys` is `key`, if it is indexed.
    pub(crate) fn find(&self, keys: &[u64], key: u64) -> Option<usize> {
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i] as usize;
            if slot == 0 {
                return None;
            }
            if keys[slot - 1] == key {
                return Some(slot - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Indexes position `pos` under `key`, which must not be indexed.
    /// `keys` must hold the key of every indexed position.
    pub(crate) fn insert(&mut self, keys: &[u64], key: u64, pos: usize) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(keys);
        }
        self.len += 1;
        self.place(key, pos);
    }

    /// Puts `pos` in the first empty slot of `key`'s chain.
    fn place(&mut self, key: u64, pos: usize) {
        let mut i = self.home(key);
        while self.slots[i] != 0 {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = pos as u32 + 1;
    }

    /// Doubles the slot count and re-places every indexed position.
    fn grow(&mut self, keys: &[u64]) {
        let len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; len].into_boxed_slice());
        self.mask = len - 1;
        for &slot in old.iter().filter(|&&slot| slot != 0) {
            let pos = slot as usize - 1;
            self.place(keys[pos], pos);
        }
    }

    /// Unindexes position `pos`, whose key `keys[pos]` must still hold.
    pub(crate) fn remove(&mut self, keys: &[u64], pos: usize) {
        self.len -= 1;
        let mask = self.mask;
        let mut hole = self.home(keys[pos]);
        while self.slots[hole] as usize != pos + 1 {
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            // The entry at `i` moves into the hole unless its home lies
            // cyclically after the hole, in `(hole, i]`.
            let home = self.home(keys[slot as usize - 1]);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = 0;
    }
}

/// An LRU cache over fixed-size lines.
///
/// # Examples
///
/// ```
/// use cooprt_gpu::Cache;
///
/// // 2 lines of 64 B, fully associative.
/// let mut c = Cache::new(128, 0, 64);
/// assert!(!c.access_line(0));      // cold miss
/// assert!(c.access_line(0));       // hit
/// assert!(!c.access_line(64));     // cold miss
/// assert!(!c.access_line(128));    // miss, evicts line 0 (LRU)
/// assert!(!c.access_line(0));      // line 0 was evicted
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// The line each way holds, plus one (`0` marks an empty way), at
    /// `base + way`, where `base` is its set's block.
    lines: Vec<u64>,
    /// Per way, same indexing: the next more recently used way of its
    /// set, as a way number within the set. The links form a ring over
    /// the set's filled ways; the MRU way's `newer` is the LRU way.
    newer: Vec<u32>,
    /// Per way: the next less recently used way of its set (the LRU
    /// way's `older` is the MRU way).
    older: Vec<u32>,
    /// Per set: where its block of `ways` ways starts. Blocks are
    /// appended, zero-filled, in the order sets first fill; a set that
    /// has never filled has no block (and `base` 0).
    base: Box<[u32]>,
    /// Per set: its LRU way, the head of its ring.
    lru: Box<[u32]>,
    /// Per set: how many of its ways are filled (always the lowest
    /// ones). In a fresh block each set's ring is way 0 alone, which is
    /// the ring its first fill needs.
    filled: Box<[u32]>,
    index: LineIndex,
    set_count: u64,
    ways: usize,
    line_bytes: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `total_bytes` with `assoc`-way sets of
    /// `line_bytes` lines. `assoc == 0` means fully associative.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero lines, or associativity
    /// exceeding the line count).
    pub fn new(total_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        assert!(line_bytes > 0, "line size must be positive");
        let total_lines = (total_bytes / line_bytes as u64) as usize;
        assert!(total_lines > 0, "cache must hold at least one line");
        let (set_count, ways) = if assoc == 0 {
            (1, total_lines)
        } else {
            let assoc = assoc as usize;
            assert!(assoc <= total_lines, "associativity exceeds line count");
            (total_lines / assoc, assoc)
        };
        assert!(set_count > 0);
        let way_count = set_count * ways;
        assert!(
            way_count < u32::MAX as usize,
            "way positions must fit a u32"
        );
        Cache {
            lines: Vec::with_capacity(way_count),
            newer: Vec::with_capacity(way_count),
            older: Vec::with_capacity(way_count),
            base: vec![0; set_count].into_boxed_slice(),
            lru: vec![0; set_count].into_boxed_slice(),
            filled: vec![0; set_count].into_boxed_slice(),
            index: LineIndex::new(0),
            set_count: set_count as u64,
            ways,
            line_bytes,
            stats: CacheStats::default(),
        }
    }

    /// Accesses the line at `line_addr` (any byte address within the
    /// line). Returns `true` on hit; on miss the line is filled,
    /// evicting the set's LRU line if needed.
    pub fn access_line(&mut self, line_addr: u64) -> bool {
        let line = line_addr / self.line_bytes as u64;
        let key = line + 1;
        let set = (line % self.set_count) as usize;
        self.stats.accesses += 1;
        if let Some(pos) = self.index.find(&self.lines, key) {
            self.stats.hits += 1;
            let base = self.base[set] as usize;
            self.touch(set, base, (pos - base) as u32);
            return true;
        }
        // Miss: fill the set's next empty way, else evict its LRU way.
        let filled = self.filled[set];
        let base = if filled == 0 {
            self.append_block(set)
        } else {
            self.base[set] as usize
        };
        let way = if (filled as usize) < self.ways {
            self.filled[set] += 1;
            if filled > 0 {
                self.link_mru(set, base, filled);
            }
            filled
        } else {
            let lru = self.lru[set];
            self.index.remove(&self.lines, base + lru as usize);
            // Advancing the head makes the old LRU way the MRU one.
            self.lru[set] = self.newer[base + lru as usize];
            lru
        };
        let pos = base + way as usize;
        self.lines[pos] = key;
        self.index.insert(&self.lines, key, pos);
        false
    }

    /// Appends a zero-filled block of ways for `set`, which has none,
    /// and returns where it starts.
    fn append_block(&mut self, set: usize) -> usize {
        let base = self.lines.len();
        let end = base + self.ways;
        self.lines.resize(end, 0);
        self.newer.resize(end, 0);
        self.older.resize(end, 0);
        self.base[set] = base as u32;
        base
    }

    /// Makes filled way `way` of `set`, whose block starts at `base`,
    /// its MRU way.
    fn touch(&mut self, set: usize, base: usize, way: u32) {
        let lru = self.lru[set];
        if way == lru {
            self.lru[set] = self.newer[base + way as usize];
            return;
        }
        if way == self.older[base + lru as usize] {
            return; // already the MRU way
        }
        let (older, newer) = (
            self.older[base + way as usize],
            self.newer[base + way as usize],
        );
        self.newer[base + older as usize] = newer;
        self.older[base + newer as usize] = older;
        self.link_mru(set, base, way);
    }

    /// Links `way`, which is not in `set`'s ring, in as its MRU way.
    fn link_mru(&mut self, set: usize, base: usize, way: u32) {
        let lru = self.lru[set];
        let mru = self.older[base + lru as usize];
        self.older[base + way as usize] = mru;
        self.newer[base + way as usize] = lru;
        self.newer[base + mru as usize] = way;
        self.older[base + lru as usize] = way;
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// First line index and count of lines covering `[addr, addr+bytes)`.
    pub fn lines_covering(&self, addr: u64, bytes: u32) -> (u64, u64) {
        let lb = self.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + bytes.max(1) as u64 - 1) / lb;
        (first, last - first + 1)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access_line(0x100));
        assert!(c.access_line(0x100));
        assert!(c.access_line(0x13f)); // same 64B line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One set of 2 ways: lines 0 and 2 map to set 0 (2 sets? no:
        // 256B / 64B = 4 lines, 2-way -> 2 sets). Use addresses mapping
        // to the same set: lines 0, 2, 4 (all even -> set 0).
        let mut c = Cache::new(256, 2, 64);
        assert!(!c.access_line(0));
        assert!(!c.access_line(2 * 64));
        assert!(c.access_line(0)); // touch 0: now 2 is LRU
        assert!(!c.access_line(4 * 64)); // evicts 2
        assert!(c.access_line(0)); // still resident
        assert!(!c.access_line(2 * 64)); // was evicted
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(256, 2, 64); // 2 sets
        assert!(!c.access_line(0)); // set 0
        assert!(!c.access_line(64)); // set 1
        assert!(!c.access_line(2 * 64)); // set 0
        assert!(!c.access_line(3 * 64)); // set 1
                                         // All four lines fit: everything hits now.
        for l in 0..4u64 {
            assert!(c.access_line(l * 64), "line {l} should be resident");
        }
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = Cache::new(4 * 64, 0, 64);
        for l in 0..4u64 {
            assert!(!c.access_line(l * 64));
        }
        for l in 0..4u64 {
            assert!(c.access_line(l * 64));
        }
        // Fifth distinct line evicts the LRU (line 0).
        assert!(!c.access_line(4 * 64));
        assert!(!c.access_line(0));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = Cache::new(1024, 0, 64);
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access_line(0);
        c.access_line(0);
        c.access_line(64);
        c.access_line(128);
        let s = c.stats();
        assert_eq!(s.misses(), 3);
        assert!((s.miss_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lines_covering_spans() {
        let c = Cache::new(1024, 0, 64);
        assert_eq!(c.lines_covering(0, 64), (0, 1));
        assert_eq!(c.lines_covering(0, 65), (0, 2));
        assert_eq!(c.lines_covering(60, 8), (0, 2));
        assert_eq!(c.lines_covering(128, 1), (2, 1));
        assert_eq!(c.lines_covering(128, 0), (2, 1)); // degenerate read
    }

    #[test]
    fn line_index_chains_wrap_and_shift_back() {
        // Eight slots. Lines 7, 15 and 23 share home slot 7, so their
        // chain wraps past the end; line 1 sits at home in between.
        let mut keys = [7u64, 15, 1, 23].map(|line| line + 1);
        let mut index = LineIndex::new(keys.len());
        for (pos, &key) in keys.iter().enumerate() {
            index.insert(&keys, key, pos);
        }
        // Freeing line 15's slot 0 must pull line 23 back into it past
        // line 1, which stays at home.
        index.remove(&keys, 1);
        keys[1] = 0;
        assert_eq!(index.find(&keys, 16), None);
        for (pos, &key) in keys.iter().enumerate().filter(|(_, &k)| k != 0) {
            assert_eq!(index.find(&keys, key), Some(pos));
        }
        assert_eq!(index.slots[..3], [4, 3, 0]);
    }

    #[test]
    fn line_index_doubles_past_three_quarters_load() {
        // From one slot, the table doubles on each insert that would load
        // it past 0.75, re-placing every position it already holds.
        let keys: Vec<u64> = (0..700u64).map(|line| line * 37 + 1).collect();
        let mut index = LineIndex::new(0);
        for (pos, &key) in keys.iter().enumerate() {
            index.insert(&keys, key, pos);
            assert!((pos + 1) * 4 <= index.slots.len() * 3);
        }
        // The smallest power of two at load <= 0.75, as if sized upfront.
        assert_eq!(index.slots.len(), LineIndex::new(keys.len()).slots.len());
        for (pos, &key) in keys.iter().enumerate() {
            assert_eq!(index.find(&keys, key), Some(pos));
        }
    }

    #[test]
    #[should_panic(expected = "associativity exceeds")]
    fn rejects_overwide_assoc() {
        let _ = Cache::new(128, 4, 64);
    }

    #[test]
    fn repeated_scan_larger_than_cache_always_misses() {
        // A cyclic scan over 2x the capacity with true LRU never hits.
        let mut c = Cache::new(4 * 64, 0, 64);
        for _ in 0..3 {
            for l in 0..8u64 {
                c.access_line(l * 64);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    /// The previous map-based implementation, kept verbatim as a
    /// reference oracle: the flat way-array cache must produce the exact
    /// same hit/miss sequence on any access stream.
    mod oracle {
        use std::collections::{BTreeMap, HashMap};

        #[derive(Clone, Debug, Default)]
        struct CacheSet {
            lines: HashMap<u64, u64>,
            order: BTreeMap<u64, u64>,
        }

        impl CacheSet {
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

        pub struct MapCache {
            sets: Vec<CacheSet>,
            set_count: u64,
            capacity_per_set: usize,
            line_bytes: u32,
            stamp: u64,
        }

        impl MapCache {
            pub fn new(total_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
                let total_lines = (total_bytes / line_bytes as u64) as usize;
                let (set_count, capacity_per_set) = if assoc == 0 {
                    (1, total_lines)
                } else {
                    (total_lines / assoc as usize, assoc as usize)
                };
                MapCache {
                    sets: vec![CacheSet::default(); set_count],
                    set_count: set_count as u64,
                    capacity_per_set,
                    line_bytes,
                    stamp: 0,
                }
            }

            pub fn access_line(&mut self, line_addr: u64) -> bool {
                let line = line_addr / self.line_bytes as u64;
                let set = (line % self.set_count) as usize;
                let tag = line / self.set_count;
                self.stamp += 1;
                self.sets[set].touch(tag, self.stamp, self.capacity_per_set)
            }
        }
    }

    /// Tiny deterministic xorshift64* stream for the oracle tests (the
    /// workspace is offline; no external PRNG crates).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn assert_matches_oracle(total_bytes: u64, assoc: u32, line_bytes: u32, seed: u64) {
        let mut flat = Cache::new(total_bytes, assoc, line_bytes);
        let mut oracle = oracle::MapCache::new(total_bytes, assoc, line_bytes);
        let mut state = seed;
        // A mix of streaming, looping and random accesses over an
        // address range ~4x the capacity (so evictions are frequent).
        let span = 4 * total_bytes;
        for i in 0..20_000u64 {
            let addr = match i % 3 {
                0 => xorshift(&mut state) % span,
                1 => (i * line_bytes as u64) % span, // streaming scan
                _ => ((i / 7) * line_bytes as u64) % (total_bytes / 2).max(1), // hot loop
            };
            assert_eq!(
                flat.access_line(addr),
                oracle.access_line(addr),
                "divergence at access {i} (addr {addr:#x}, geometry \
                 {total_bytes}B/{assoc}-way/{line_bytes}B lines)"
            );
        }
    }

    #[test]
    fn matches_map_oracle_set_associative() {
        assert_matches_oracle(16 * 1024, 4, 64, 0xDEAD_BEEF);
        assert_matches_oracle(8 * 1024, 2, 128, 0x1234_5678_9ABC);
        assert_matches_oracle(256, 2, 64, 7);
    }

    #[test]
    fn matches_map_oracle_fully_associative() {
        // The Table 1 L1 shape: fully associative, hundreds of lines.
        assert_matches_oracle(64 * 1024, 0, 128, 42);
        assert_matches_oracle(4 * 64, 0, 64, 99);
    }

    #[test]
    fn matches_map_oracle_sixteen_way_l2_shape() {
        // The Table 1 L2 shape (scaled down): 16-way, 128B lines.
        assert_matches_oracle(128 * 1024, 16, 128, 0xFEED_F00D);
    }
}
