//! Miss-status holding registers (MSHRs).
//!
//! When two requests miss on the same cache line while the first fill is
//! still in flight, real GPU caches merge the second into the pending
//! fill instead of issuing a duplicate memory request. Without this,
//! CoopRT's burst of parallel node fetches would overcount DRAM traffic
//! whenever different warps (or SMs, at the L2) chase the same subtree.
//!
//! The table is a fixed-capacity slot array (`lines`/`done` parallel
//! arrays plus a free list), like the hardware it models. A line → slot
//! [`LineIndex`] (the same open-addressing table the caches use, keyed
//! through `lines`, but sized for the full table, so it never doubles)
//! makes `lookup` and the insert-overwrite check O(1). The occupied
//! slots are also kept in `(done, line)` order, as a binary heap of
//! their keys, so the two passes a full table runs read the front of
//! that order instead of scanning every slot: the reclaim pass pops
//! expired fills until the front is still in flight, and the evict
//! pass drops the front. Releasing a slot (`lookup`'s lazy release, or
//! overwriting a line's completion cycle) leaves its old key in the
//! heap; a key whose slot no longer holds that `(done, line)` is
//! skipped when it reaches the front, and the heap is pruned of such
//! keys whenever it grows to twice the table. Lines are stored plus
//! one, so a zero-filled array is an empty table.
//! Merge/allocate/eviction behaviour is bitwise identical to the
//! map-based model in `cooprt_check::oracle`, including the
//! deterministic line-index tie-break for equal completion times.

use crate::cache::LineIndex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters of MSHR behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Misses that allocated a new entry (went to the next level).
    pub allocations: u64,
    /// Misses merged into an in-flight fill.
    pub merges: u64,
}

/// A table of in-flight line fills: line index → completion cycle.
///
/// # Examples
///
/// ```
/// use cooprt_gpu::Mshr;
///
/// let mut mshr = Mshr::new(8);
/// assert_eq!(mshr.lookup(42, 100), None); // nothing in flight
/// mshr.insert(42, 500, 100);
/// // A second miss on line 42 at cycle 200 merges into the fill.
/// assert_eq!(mshr.lookup(42, 200), Some(500));
/// // After the fill lands, the entry is gone.
/// assert_eq!(mshr.lookup(42, 501), None);
/// ```
#[derive(Clone, Debug)]
pub struct Mshr {
    /// Line per slot, plus one; `0` marks a free slot.
    lines: Box<[u64]>,
    /// Completion cycle per slot (meaningful only for occupied slots).
    done: Box<[u64]>,
    /// Line → slot index over the occupied slots.
    index: LineIndex,
    /// `(done, line + 1, slot)` of every occupied slot, plus stale keys
    /// of released or overwritten ones, as a min-heap: the first live
    /// key is the earliest-completing fill, line index breaking ties.
    order: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Indices of free slots.
    free: Vec<u32>,
    stats: MshrStats,
}

impl Mshr {
    /// Creates an MSHR table with space for `capacity` in-flight lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one entry");
        Mshr {
            lines: vec![0; capacity].into_boxed_slice(),
            done: vec![0; capacity].into_boxed_slice(),
            index: LineIndex::new(capacity),
            order: BinaryHeap::with_capacity(2 * capacity + 1),
            free: (0..capacity as u32).rev().collect(),
            stats: MshrStats::default(),
        }
    }

    /// If a fill for `line` is in flight at time `now`, returns its
    /// completion cycle (a merge). Expired entries are evicted lazily.
    /// `u64::MAX` is not a valid line.
    pub fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        let slot = self.index.find(&self.lines, line + 1)?;
        if self.done[slot] > now {
            self.stats.merges += 1;
            return Some(self.done[slot]);
        }
        self.release(slot);
        None
    }

    /// Records a new in-flight fill for `line` completing at `done`.
    ///
    /// If the table is full, completed entries are reclaimed first; if
    /// all entries are still pending, the *earliest-completing* one is
    /// dropped (it stops merging future requests — a conservative,
    /// deadlock-free approximation of MSHR back-pressure). Equal
    /// completion times are tie-broken on the line index, keeping
    /// whole-simulation results independent of which thread (or process)
    /// ran the simulation.
    pub fn insert(&mut self, line: u64, done: u64, now: u64) {
        self.stats.allocations += 1;
        if self.free.is_empty() {
            // Reclaim completed fills: they lead the `(done, line)`
            // order.
            while self
                .order
                .peek()
                .is_some_and(|&Reverse((d, _, _))| d <= now)
            {
                self.pop_front();
            }
        }
        while self.free.is_empty() {
            // All pending, every slot occupied: drop the
            // earliest-completing entry, line index breaking ties.
            self.pop_front();
        }
        // Update in place if the line is already tracked (matches the
        // map-based model's insert-overwrite semantics).
        let key = line + 1;
        let slot = match self.index.find(&self.lines, key) {
            Some(slot) => slot,
            None => {
                let slot = self.free.pop().expect("a free slot was ensured above") as usize;
                self.lines[slot] = key;
                self.index.insert(&self.lines, key, slot);
                slot
            }
        };
        self.done[slot] = done;
        if self.order.len() >= 2 * self.lines.len() {
            let (lines, done) = (&self.lines, &self.done);
            self.order
                .retain(|&Reverse((d, k, s))| lines[s as usize] == k && done[s as usize] == d);
        }
        self.order.push(Reverse((done, key, slot as u32)));
    }

    /// Removes the front key of the order and frees its slot if the
    /// key is still the slot's own.
    fn pop_front(&mut self) {
        let Reverse((done, key, slot)) = self.order.pop().expect("occupied slots are ordered");
        let slot = slot as usize;
        if self.lines[slot] == key && self.done[slot] == done {
            self.release(slot);
        }
    }

    /// Frees occupied slot `slot`; its key stays in the order, stale.
    fn release(&mut self, slot: usize) {
        self.index.remove(&self.lines, slot);
        self.lines[slot] = 0;
        self.free.push(slot as u32);
    }

    /// MSHR counters.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Number of fills currently tracked (including possibly expired
    /// entries awaiting lazy eviction).
    pub fn occupancy(&self) -> usize {
        self.lines.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_before_any_insert_misses() {
        let mut m = Mshr::new(4);
        assert_eq!(m.lookup(1, 0), None);
        assert_eq!(m.stats().merges, 0);
    }

    #[test]
    fn merge_returns_original_completion() {
        let mut m = Mshr::new(4);
        m.insert(7, 300, 100);
        assert_eq!(m.lookup(7, 150), Some(300));
        assert_eq!(m.lookup(7, 299), Some(300));
        assert_eq!(m.stats().merges, 2);
    }

    #[test]
    fn expired_entries_do_not_merge() {
        let mut m = Mshr::new(4);
        m.insert(7, 300, 100);
        assert_eq!(
            m.lookup(7, 300),
            None,
            "completion cycle itself is no longer in flight"
        );
        assert_eq!(m.occupancy(), 0, "expired entry reclaimed lazily");
    }

    #[test]
    fn capacity_reclaims_completed_first() {
        let mut m = Mshr::new(2);
        m.insert(1, 50, 0);
        m.insert(2, 500, 0);
        // At cycle 100, entry 1 has completed: inserting a third line
        // reclaims it and keeps entry 2.
        m.insert(3, 600, 100);
        assert_eq!(m.lookup(2, 200), Some(500));
        assert_eq!(m.lookup(3, 200), Some(600));
    }

    #[test]
    fn full_table_of_pending_fills_drops_earliest() {
        let mut m = Mshr::new(2);
        m.insert(1, 400, 0);
        m.insert(2, 900, 0);
        m.insert(3, 700, 10); // drops line 1 (earliest completion)
        assert_eq!(m.lookup(1, 20), None);
        assert_eq!(m.lookup(2, 20), Some(900));
        assert_eq!(m.lookup(3, 20), Some(700));
    }

    #[test]
    fn stats_count_allocations_and_merges() {
        let mut m = Mshr::new(8);
        m.insert(1, 100, 0);
        m.insert(2, 100, 0);
        let _ = m.lookup(1, 50);
        let _ = m.lookup(9, 50);
        let s = m.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.merges, 1);
    }

    #[test]
    fn eviction_tie_break_is_on_line_index() {
        // Three pending fills, all completing at the same cycle: the
        // victim must be the smallest line index, regardless of
        // insertion order or slot placement.
        let mut m = Mshr::new(3);
        m.insert(30, 500, 0);
        m.insert(10, 500, 0);
        m.insert(20, 500, 0);
        m.insert(40, 600, 1); // full of pending fills: drops line 10
        assert_eq!(m.lookup(10, 2), None, "smallest line index evicted");
        assert_eq!(m.lookup(30, 2), Some(500));
        assert_eq!(m.lookup(20, 2), Some(500));
        assert_eq!(m.lookup(40, 2), Some(600));
        // Completion time still dominates the tie-break: with lines 20
        // (done 500) and 5 (done 800) pending, the earlier-completing
        // line 20 goes first even though 5 < 20.
        let mut m = Mshr::new(2);
        m.insert(20, 500, 0);
        m.insert(5, 800, 0);
        m.insert(6, 900, 1);
        assert_eq!(m.lookup(20, 2), None, "earliest completion evicted");
        assert_eq!(m.lookup(5, 2), Some(800));
    }

    #[test]
    fn full_table_merge_vs_allocate() {
        // The merge path must keep working while the table is saturated:
        // a lookup on a tracked line merges (no allocation), a miss on
        // an untracked line allocates and forces the eviction path.
        let mut m = Mshr::new(2);
        m.insert(1, 400, 0);
        m.insert(2, 900, 0);
        assert_eq!(m.occupancy(), 2);
        // Merge against a full table: hits the in-flight fill.
        assert_eq!(m.lookup(1, 10), Some(400));
        assert_eq!(m.stats().merges, 1);
        assert_eq!(m.stats().allocations, 2);
        // Allocate against a full table of pending fills: line 1
        // (earliest completion) is dropped, and later misses on it
        // re-allocate instead of merging.
        m.insert(3, 700, 10);
        assert_eq!(m.stats().allocations, 3);
        assert_eq!(m.lookup(1, 20), None);
        assert_eq!(m.occupancy(), 2);
        // After the evicted line's would-have-been fill time, a fresh
        // insert for it is a plain allocation.
        m.insert(1, 1200, 950); // entry 2 (done 900) reclaimed first
        assert_eq!(m.lookup(1, 960), Some(1200));
        assert_eq!(m.lookup(2, 960), None, "completed entry was reclaimed");
        assert_eq!(m.lookup(3, 960), None, "completed entry expired lazily");
    }

    #[test]
    fn reinserting_a_tracked_line_updates_in_place() {
        // HashMap-insert parity: inserting a line that is already
        // tracked overwrites its completion cycle without consuming a
        // second slot.
        let mut m = Mshr::new(4);
        m.insert(7, 300, 0);
        m.insert(7, 450, 10);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.lookup(7, 400), Some(450));
    }

    /// Asserts that every occupied slot's exact key is in the order
    /// and that stale keys never outgrow the table twice over.
    fn assert_ordered(m: &Mshr) {
        assert!(m.order.len() <= 2 * m.lines.len() + 1);
        for slot in 0..m.lines.len() {
            if m.lines[slot] != 0 {
                let key = Reverse((m.done[slot], m.lines[slot], slot as u32));
                assert!(m.order.iter().any(|k| *k == key), "slot {slot} unordered");
            }
        }
    }

    #[test]
    fn order_tracks_every_release_and_overwrite() {
        // Lazy releases, overwrites that move a fill earlier or later,
        // reclaims and evictions all keep every live key ordered.
        let mut m = Mshr::new(8);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0;
        for _ in 0..4_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            now += state % 4;
            let line = (state >> 8) % 20;
            if state & 1 == 0 {
                m.insert(line, now + 1 + (state >> 16) % 60, now);
            } else {
                let _ = m.lookup(line, now);
            }
            assert_ordered(&m);
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
