//! The Load Balancing Unit (§5.2).
//!
//! The LBU is the heart of CoopRT: each cycle it pairs one idle (helper)
//! thread with one busy (main) thread and moves the node at the main's
//! top-of-stack into the helper's stack. In hardware it is two priority
//! encoders plus multiplexors (Fig. 8); this module implements exactly
//! that combinational function over thread-status bitmasks, so the
//! simulator and the area model share one definition.
//!
//! With the subwarp scheme (§7.5, first approach) the warp is divided
//! into fixed groups of `subwarp_size` threads and each group gets its
//! own pair of (smaller) priority encoders — all groups are processed in
//! the same cycle.

use crate::config::WARP_SIZE;

/// A single helper/main pairing produced by the LBU in one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LbuPair {
    /// Thread that offers help (empty traversal stack).
    pub helper: usize,
    /// Thread that needs help (non-empty stack, TOS not in flight).
    pub main: usize,
}

/// The pairings of one LBU cycle, as a fixed-capacity inline list.
///
/// The LBU produces at most one pair per subwarp, and the smallest
/// subwarp (4 threads) gives `WARP_SIZE / 4` groups — so the list lives
/// on the stack and [`find_pairs`], which runs up to several times per
/// simulated cycle, performs no heap allocation. Dereferences to
/// `[LbuPair]` for indexing and iteration.
#[derive(Clone, Copy, Debug)]
pub struct LbuPairs {
    pairs: [LbuPair; WARP_SIZE / 4],
    len: usize,
}

impl LbuPairs {
    const EMPTY: LbuPairs = LbuPairs {
        pairs: [LbuPair { helper: 0, main: 0 }; WARP_SIZE / 4],
        len: 0,
    };

    fn push(&mut self, pair: LbuPair) {
        debug_assert!(self.len < self.pairs.len(), "one pair per subwarp");
        self.pairs[self.len] = pair;
        self.len += 1;
    }

    /// The pairs as a slice.
    pub fn as_slice(&self) -> &[LbuPair] {
        &self.pairs[..self.len]
    }
}

impl std::ops::Deref for LbuPairs {
    type Target = [LbuPair];

    fn deref(&self) -> &[LbuPair] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a LbuPairs {
    type Item = &'a LbuPair;
    type IntoIter = std::slice::Iter<'a, LbuPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Finds up to one helper/main pair per subwarp.
///
/// `can_help` and `needs_help` are 32-bit thread masks; bit `i` set means
/// thread `i` satisfies the condition. Within each subwarp the two
/// priority encoders pick the lowest-numbered eligible thread each, as
/// the hardware in Fig. 8 does. A thread is never paired with itself
/// (the masks are disjoint by construction: an empty stack cannot also
/// be non-empty).
///
/// # Panics
///
/// Panics unless `subwarp_size` is 4, 8, 16 or 32: the sizes that divide
/// the warp into at most `WARP_SIZE / 4` groups, one pair each.
///
/// # Examples
///
/// ```
/// use cooprt_core::lbu::find_pairs;
///
/// // Thread 0 is busy; threads 5 and 9 are idle. Whole-warp scope:
/// let pairs = find_pairs(0b10_0010_0000, 0b1, 32);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].helper, 5); // lowest-numbered idle thread
/// assert_eq!(pairs[0].main, 0);
/// ```
pub fn find_pairs(can_help: u32, needs_help: u32, subwarp_size: usize) -> LbuPairs {
    assert!(
        matches!(subwarp_size, 4 | 8 | 16 | 32),
        "subwarp size must be 4, 8, 16 or 32 (got {subwarp_size})"
    );
    debug_assert_eq!(
        can_help & needs_help,
        0,
        "a thread cannot both help and need help"
    );
    let mut pairs = LbuPairs::EMPTY;
    if can_help == 0 || needs_help == 0 {
        return pairs;
    }
    let groups = WARP_SIZE / subwarp_size;
    for g in 0..groups {
        let base = g * subwarp_size;
        let mask = if subwarp_size == 32 {
            u32::MAX
        } else {
            ((1u32 << subwarp_size) - 1) << base
        };
        let helpers = can_help & mask;
        let mains = needs_help & mask;
        if helpers != 0 && mains != 0 {
            pairs.push(LbuPair {
                helper: helpers.trailing_zeros() as usize,
                main: mains.trailing_zeros() as usize,
            });
        }
    }
    pairs
}

/// True if [`find_pairs`] would find at least one pair: some subwarp
/// holds both a thread that can help and one that needs help.
///
/// Each subwarp's bits are folded onto its lowest bit, so the answer
/// takes a few shifts instead of a walk over the groups. `subwarp_size`
/// must be 4, 8, 16 or 32 (the simulation entry points reject any
/// other size before an RT unit is built).
pub(crate) fn has_pair(can_help: u32, needs_help: u32, subwarp_size: usize) -> bool {
    debug_assert!(matches!(subwarp_size, 4 | 8 | 16 | 32));
    if subwarp_size == WARP_SIZE {
        return can_help != 0 && needs_help != 0;
    }
    let fold = |mut mask: u32| {
        let mut shift = 1;
        while shift < subwarp_size {
            mask |= mask >> shift;
            shift <<= 1;
        }
        mask
    };
    // Bit `g * subwarp_size` set for every group `g`.
    let group_bases = match subwarp_size {
        4 => 0x1111_1111,
        8 => 0x0101_0101,
        16 => 0x0001_0001,
        _ => 1,
    };
    fold(can_help) & fold(needs_help) & group_bases != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_pair_agrees_with_find_pairs() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Sparse masks, so both answers occur at every size.
            let busy = (state as u32) & ((state >> 32) as u32) & ((state >> 16) as u32);
            let needs = busy & (state >> 40) as u32;
            for size in [4, 8, 16, 32] {
                assert_eq!(
                    has_pair(!busy, needs, size),
                    !find_pairs(!busy, needs, size).is_empty(),
                    "busy {busy:#x}, needs {needs:#x}, subwarp {size}"
                );
            }
        }
    }

    #[test]
    fn no_work_no_pairs() {
        assert!(find_pairs(0, 0, 32).is_empty());
        assert!(find_pairs(u32::MAX, 0, 32).is_empty());
        assert!(find_pairs(0, u32::MAX, 32).is_empty());
    }

    #[test]
    fn whole_warp_picks_lowest_of_each() {
        let pairs = find_pairs(0b1100_0000, 0b0011_0000, 32);
        assert_eq!(pairs.as_slice(), &[LbuPair { helper: 6, main: 4 }]);
    }

    #[test]
    fn whole_warp_yields_at_most_one_pair() {
        let pairs = find_pairs(0xFFFF_0000, 0x0000_FFFF, 32);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn subwarps_pair_independently() {
        // Subwarp size 8: group 0 (t0..7), group 1 (t8..15), ...
        // Group 0: helper 1, main 2. Group 2: helper 17, main 20.
        let can = (1 << 1) | (1 << 17);
        let needs = (1 << 2) | (1 << 20);
        let pairs = find_pairs(can, needs, 8);
        assert_eq!(
            pairs.as_slice(),
            &[
                LbuPair { helper: 1, main: 2 },
                LbuPair {
                    helper: 17,
                    main: 20
                }
            ]
        );
    }

    #[test]
    fn subwarp_boundary_blocks_cooperation() {
        // Helper in group 0, main in group 1: with subwarp scope 16 they
        // cannot pair; with whole-warp scope they can.
        let can = 1 << 3;
        let needs = 1 << 20;
        assert!(find_pairs(can, needs, 16).is_empty());
        assert_eq!(find_pairs(can, needs, 32).len(), 1);
    }

    #[test]
    fn four_subwarps_of_8_can_produce_four_pairs() {
        let can = 0x0101_0101; // thread 0 of each group
        let needs = 0x0202_0202; // thread 1 of each group
        let pairs = find_pairs(can, needs, 8);
        assert_eq!(pairs.len(), 4);
        for (g, p) in pairs.iter().enumerate() {
            assert_eq!(p.helper, g * 8);
            assert_eq!(p.main, g * 8 + 1);
        }
    }

    #[test]
    fn smallest_subwarp_scope() {
        let can = 1 << 0;
        let needs = 1 << 3;
        assert_eq!(
            find_pairs(can, needs, 4).as_slice(),
            &[LbuPair { helper: 0, main: 3 }]
        );
        // Main just outside the 4-thread group: no pair.
        assert!(find_pairs(can, 1 << 4, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "subwarp size")]
    fn rejects_non_dividing_subwarp() {
        let _ = find_pairs(0, 0, 5);
    }

    #[test]
    #[should_panic(expected = "subwarp size")]
    fn rejects_subwarps_below_four_threads() {
        // Size 2 divides the warp but gives 16 groups, more pairs than
        // the inline list holds.
        let _ = find_pairs(0, 0, 2);
    }
}
