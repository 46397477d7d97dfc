//! The RT unit: warp buffer, memory scheduler, response FIFO, math units
//! and the CoopRT Load Balancing Unit (§2.3, §4, §5).
//!
//! One RT unit exists per SM. Each cycle it:
//!
//! 1. pops at most one response from the response FIFO and runs the
//!    per-thread math units on it (child AABB tests / triangle test,
//!    min_thit update through the per-thread AND/OR network of Fig. 7);
//! 2. schedules one non-stalling warp from the warp buffer;
//! 3. coalesces the top-of-stack node addresses of that warp's eligible
//!    threads and issues **one** unique address to the memory hierarchy;
//! 4. (CoopRT only) lets the LBU move one node per subwarp from a busy
//!    thread's stack to an idle thread's stack;
//! 5. retires any warp whose threads have all drained.
//!
//! The traversal is performed *functionally inside the timing model*:
//! node elimination tests children against the live `min_thit` of the
//! ray's main thread, which is exactly the hardware behaviour (and what
//! the paper had to approximate in Vulkan-sim's split functional/timing
//! design, §6.1).

use crate::config::{GpuConfig, TraversalPolicy, WARP_SIZE};
use crate::lbu::{find_pairs, has_pair, LbuPair};
use crate::predictor::{PredictPolicy, PredictorStats, RayPathPredictor};
use cooprt_bvh::NodeKind;
use cooprt_gpu::{EnergyEvents, MemoryHierarchy};
use cooprt_math::Ray;
use cooprt_scenes::Scene;
use cooprt_telemetry::{EventKind, Probe};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The hit a ray ends a `trace_ray` with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayHit {
    /// Index of the closest-hit (or first any-hit) triangle.
    pub triangle: u32,
    /// Hit distance.
    pub t: f32,
}

/// One `trace_ray` instruction as dispatched to the RT unit: up to 32
/// rays, one per active thread.
#[derive(Clone, Debug)]
pub struct TraceQuery {
    /// Identifier of the issuing warp (opaque to the RT unit).
    pub warp: usize,
    /// Per-thread ray; `None` for threads masked off by SIMT divergence.
    pub rays: [Option<Ray>; WARP_SIZE],
    /// Per-thread search limit (`f32::INFINITY` for closest-hit;
    /// the light/occlusion distance for shadow and AO rays).
    pub t_max: [f32; WARP_SIZE],
    /// Any-hit semantics: terminate a ray on its first accepted hit.
    pub any_hit: bool,
    /// Gather semantics (spatial queries): instead of intersecting the
    /// ray against the tree, every node whose AABB *contains the ray
    /// origin* is descended and every such leaf triangle is collected
    /// into [`TraceResult::gathered`] — a full enumeration with no
    /// early-out, so `min_thit`/`best` are never touched. The rays are
    /// epsilon probes ([`Ray::probe`]); timing-wise each node visit
    /// still costs one fetch and one box/triangle test per thread.
    pub gather: bool,
}

impl TraceQuery {
    /// A closest-hit query over the given per-thread rays.
    pub fn closest_hit(warp: usize, rays: [Option<Ray>; WARP_SIZE]) -> Self {
        TraceQuery {
            warp,
            rays,
            t_max: [f32::INFINITY; WARP_SIZE],
            any_hit: false,
            gather: false,
        }
    }
}

/// The retired result of one `trace_ray` instruction.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// The issuing warp.
    pub warp: usize,
    /// Per-thread hit (indexed by the thread that owns the ray).
    pub hits: [Option<RayHit>; WARP_SIZE],
    /// Gather-mode collection: `(lane, triangle)` pairs credited to the
    /// lane that *owns* the ray (helpers credit their main thread), in
    /// ascending `(lane, triangle)` order regardless of the traversal
    /// interleaving the LBU produced. Empty for non-gather queries.
    pub gathered: Vec<(u8, u32)>,
    /// Cycle the instruction entered the RT unit.
    pub issued_at: u64,
    /// Cycle the instruction retired.
    pub retired_at: u64,
}

/// Per-thread status for interval sampling (Fig. 4 categories).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Threads with a non-empty stack or an outstanding fetch.
    pub busy: usize,
    /// Active threads that drained early and are waiting for the warp.
    pub waiting: usize,
    /// Threads masked off (no ray for this `trace_ray`).
    pub inactive: usize,
}

impl StatusCounts {
    /// Total sampled threads.
    pub fn total(&self) -> usize {
        self.busy + self.waiting + self.inactive
    }
}

/// "No outstanding fetch" sentinel in [`ThreadArray::pending`].
const NO_PENDING: u64 = u64::MAX;

/// Cycles one ray-path prediction-table probe keeps a lane's math units
/// busy before its first node fetch can issue (the table is a small
/// per-SM SRAM read in parallel with traversal setup).
const PREDICT_LOOKUP_CYCLES: u64 = 1;

/// Per-ray ray-path prediction state (indexed by the ray's main
/// thread). Present while the traversal runs below the root: from the
/// predicted entry node through any go-up-level fallback steps.
#[derive(Clone, Copy, Debug)]
struct PredictState {
    /// Node the traversal currently starts from: the predicted entry,
    /// then successive ancestors after go-up steps.
    level: u64,
    /// Depth of `level` below the root — the ancestor fetches a
    /// root-start traversal would have performed first.
    depth: u32,
    /// True until the first go-up step: an accepted hit now is an
    /// entry hit (the prediction was exactly right).
    at_entry: bool,
    /// The child of `level` whose subtree the previous restart already
    /// drained (a restart trail): when the node at `level` is
    /// processed, this child is not re-pushed. Exact for any-hit — the
    /// skipped subtree was searched exhaustively with no accept.
    skip: Option<u64>,
}

/// Per-warp thread state in struct-of-arrays layout.
///
/// Each per-cycle sweep (scheduling, coalescing, response delivery, LBU
/// mask building) reads *one* attribute across all 32 threads, so the
/// attributes live in parallel arrays that each sweep walks linearly.
/// The `nonempty`/`pending_mask` occupancy bitmaps additionally answer
/// the aggregate questions (drained? anyone issuable? who can help?)
/// with bit arithmetic, and let the sweeps visit only the set bits —
/// in ascending thread order, which keeps every scheduling decision
/// identical to the old array-of-structs scan.
#[derive(Clone, Debug)]
struct ThreadArray {
    /// Traversal stack per thread (DFS: the top is the back).
    stacks: Vec<Vec<u64>>,
    /// Outstanding fetch address per thread ([`NO_PENDING`] = none).
    pending: [u64; WARP_SIZE],
    /// Cycle each thread's math units are free again.
    ready_at: [u64; WARP_SIZE],
    /// Owner of the ray each thread traverses (differs from the thread
    /// itself after an LBU steal).
    main_tid: [u8; WARP_SIZE],
    /// Bit `i` set ⇔ `stacks[i]` is non-empty.
    nonempty: u32,
    /// Bit `i` set ⇔ thread `i` has an outstanding fetch.
    pending_mask: u32,
}

impl ThreadArray {
    fn new() -> Self {
        ThreadArray {
            stacks: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            pending: [NO_PENDING; WARP_SIZE],
            ready_at: [0; WARP_SIZE],
            main_tid: std::array::from_fn(|i| i as u8),
            nonempty: 0,
            pending_mask: 0,
        }
    }

    /// Clears all per-thread state; stack capacity is retained so a
    /// recycled array allocates nothing.
    fn reset(&mut self) {
        for s in &mut self.stacks {
            s.clear();
        }
        self.pending = [NO_PENDING; WARP_SIZE];
        self.ready_at = [0; WARP_SIZE];
        for (i, m) in self.main_tid.iter_mut().enumerate() {
            *m = i as u8;
        }
        self.nonempty = 0;
        self.pending_mask = 0;
    }

    fn busy_mask(&self) -> u32 {
        self.nonempty | self.pending_mask
    }

    /// Threads with a non-empty stack and no outstanding fetch. The
    /// per-thread `ready_at` gate still applies on top of this mask.
    fn issue_candidates(&self) -> u32 {
        self.nonempty & !self.pending_mask
    }

    fn push(&mut self, tid: usize, node: u64) {
        self.stacks[tid].push(node);
        self.nonempty |= 1 << tid;
    }

    /// The node thread `tid` would process next: its top of stack.
    fn peek_next(&self, tid: usize) -> Option<u64> {
        self.stacks[tid].last().copied()
    }

    /// Removes and returns thread `tid`'s top of stack: the node it
    /// processes next, and the node the LBU steals from it (§4.2).
    fn pop_next(&mut self, tid: usize) -> Option<u64> {
        let node = self.stacks[tid].pop();
        if self.stacks[tid].is_empty() {
            self.nonempty &= !(1 << tid);
        }
        node
    }

    fn clear_stack(&mut self, tid: usize) {
        self.stacks[tid].clear();
        self.nonempty &= !(1 << tid);
    }

    fn set_pending(&mut self, tid: usize, addr: u64) {
        debug_assert_ne!(addr, NO_PENDING, "node address collides with sentinel");
        self.pending[tid] = addr;
        self.pending_mask |= 1 << tid;
    }

    fn clear_pending(&mut self, tid: usize) {
        self.pending[tid] = NO_PENDING;
        self.pending_mask &= !(1 << tid);
    }
}

#[derive(Clone, Debug)]
struct Slot {
    warp: usize,
    rays: [Option<Ray>; WARP_SIZE],
    any_hit: bool,
    gather: bool,
    /// Gather-mode collection, unsorted while the warp is resident (the
    /// LBU interleaves threads); sorted at retirement.
    gathered: Vec<(u8, u32)>,
    min_thit: [f32; WARP_SIZE],
    best: [Option<RayHit>; WARP_SIZE],
    done_ray: [bool; WARP_SIZE],
    threads: ThreadArray,
    /// Bit `i` set ⇔ thread `i` owns a ray (not masked off).
    active: u32,
    issued_at: u64,
    /// Ray-path prediction state per ray (by main thread); all `None`
    /// unless [`PredictPolicy::RayPath`] is active on an any-hit query.
    predict: [Option<PredictState>; WARP_SIZE],
    /// Count of `Some` entries in `predict`, so the per-cycle fallback
    /// sweep is skipped entirely for unpredicted warps.
    predict_live: u32,
}

/// What the schedulers need to know about one warp-buffer slot.
///
/// Picking a warp, picking an LBU slot, the retire sweep and the
/// next-event query read these three facts instead of re-deriving them
/// from the slot's 32-thread masks. Every change to a slot's masks (a
/// dispatch, a response, a fetch, an LBU move, a ray-path restart)
/// brings its summary up to date from the threads it touched, so the
/// summary is always current between changes; with the checker on,
/// every slot's summary is re-derived and compared after each `issue`
/// and `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlotSummary {
    /// Earliest `ready_at` over the slot's issue candidates (non-empty
    /// stack, no fetch in flight); `u64::MAX` when there are none.
    ready: u64,
    /// The LBU finds a helper/main pair in the slot (never under the
    /// baseline policy).
    pairable: bool,
    /// Every thread drained: the warp retires this cycle.
    drained: bool,
}

impl SlotSummary {
    /// The summary of a free slot: nothing to issue, pair or retire.
    const FREE: SlotSummary = SlotSummary {
        ready: u64::MAX,
        pairable: false,
        drained: false,
    };
}

/// The RT unit of one SM.
#[derive(Clone, Debug)]
pub struct RtUnit {
    sm_id: usize,
    /// Baseline or CoopRT: whether the LBU runs.
    policy: TraversalPolicy,
    /// LBU subwarp scope, from the configuration the unit was built
    /// with.
    subwarp: usize,
    slots: Vec<Option<Slot>>,
    /// Schedule summary per slot ([`SlotSummary::FREE`] when empty).
    summary: Vec<SlotSummary>,
    /// Number of occupied slots.
    occupied: usize,
    /// Pending memory responses as `(ready, seq, slot, addr)`, earliest
    /// first. `seq` is the unit's issue count at the fetch, so
    /// responses due in the same cycle pop in the order they were
    /// issued.
    responses: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    /// Fetches issued so far: the next response's `seq`.
    issued: u64,
    rr: usize,
    /// Ray-path prediction table ([`PredictPolicy::RayPath`]), when
    /// enabled.
    path_predictor: Option<RayPathPredictor>,
    /// Recycled per-warp thread arrays: retiring a warp returns its
    /// [`ThreadArray`] here so the next [`RtUnit::issue`] reuses the
    /// allocation (including each thread's stack capacity) instead of
    /// allocating 32 fresh stacks per `trace_ray`.
    thread_pool: Vec<ThreadArray>,
    /// Energy-event counters accumulated by this unit.
    pub events: EnergyEvents,
    /// Total rays dispatched into this unit (active threads across all
    /// issued `trace_ray` instructions); summed into
    /// `FrameResult::rays`.
    pub rays_issued: u64,
}

impl RtUnit {
    /// Creates the RT unit of SM `sm_id` configured per `cfg` (its
    /// warp-buffer size, LBU subwarp scope and optional ray-path
    /// prediction table), traversing under `policy`. The unit keeps
    /// the subwarp scope for its lifetime; the `cfg` later passed to
    /// [`RtUnit::step`] supplies the remaining timing knobs.
    ///
    /// The simulation entry points reject a configuration this
    /// constructor cannot build with a typed
    /// [`ConfigError`](crate::ConfigError) before any unit exists.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.warp_buffer_size` is 0, if `cfg.subwarp_size` is
    /// not 4, 8, 16 or 32, or if the ray-path predictor is enabled with
    /// no table entries.
    pub fn new(sm_id: usize, cfg: &GpuConfig, policy: TraversalPolicy) -> Self {
        assert!(
            cfg.warp_buffer_size > 0,
            "warp buffer needs at least one entry"
        );
        assert!(
            matches!(cfg.subwarp_size, 4 | 8 | 16 | 32),
            "subwarp size must be 4, 8, 16 or 32 (got {})",
            cfg.subwarp_size
        );
        RtUnit {
            sm_id,
            policy,
            subwarp: cfg.subwarp_size,
            slots: vec![None; cfg.warp_buffer_size],
            summary: vec![SlotSummary::FREE; cfg.warp_buffer_size],
            occupied: 0,
            responses: BinaryHeap::new(),
            issued: 0,
            rr: 0,
            path_predictor: (cfg.predict == PredictPolicy::RayPath)
                .then(|| RayPathPredictor::new(cfg.predictor_entries)),
            thread_pool: Vec::new(),
            events: EnergyEvents::default(),
            rays_issued: 0,
        }
    }

    /// Ray-path prediction-table counters, when the table is enabled.
    pub fn predictor_stats(&self) -> Option<PredictorStats> {
        self.path_predictor.as_ref().map(RayPathPredictor::stats)
    }

    /// True if a warp-buffer entry is free.
    pub fn has_free_slot(&self) -> bool {
        self.occupied < self.slots.len()
    }

    /// Number of occupied warp-buffer entries.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Earliest `ready_at` over the threads in `mask` (`u64::MAX` for
    /// none).
    fn earliest(threads: &ThreadArray, mut mask: u32) -> u64 {
        let mut ready = u64::MAX;
        while mask != 0 {
            let tid = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            ready = ready.min(threads.ready_at[tid]);
        }
        ready
    }

    /// The summary of `slot` whose issue candidates are ready at
    /// `ready` at the earliest.
    fn summary_with(&self, slot: &Slot, ready: u64) -> SlotSummary {
        let (can, needs) = Self::lbu_masks(slot);
        SlotSummary {
            ready,
            pairable: self.policy == TraversalPolicy::CoopRt && has_pair(can, needs, self.subwarp),
            drained: slot.threads.busy_mask() == 0,
        }
    }

    /// Summarizes `slot` from its thread masks alone.
    fn summarize(&self, slot: &Slot) -> SlotSummary {
        let ready = Self::earliest(&slot.threads, slot.threads.issue_candidates());
        self.summary_with(slot, ready)
    }

    /// The issue candidates of slot `idx` (none when it is free), read
    /// before a change for [`RtUnit::update`].
    fn candidates(&self, idx: usize) -> u32 {
        self.slots[idx]
            .as_ref()
            .map_or(0, |slot| slot.threads.issue_candidates())
    }

    /// Brings slot `idx`'s summary up to date after a step changed its
    /// masks; `before` is its issue-candidate mask before the change.
    ///
    /// Every change leaves `ready_at` alone for the threads that stay
    /// candidates (a response re-arms only threads that were waiting on
    /// it; an LBU move or a ray-path restart re-arms none), so the
    /// earliest `ready_at` is re-read from the threads that left or
    /// joined the candidates. Only when one that left held the earliest
    /// time are all candidates scanned again. (A fetch updates the
    /// summary itself, in [`RtUnit::issue_memory`].)
    fn update(&mut self, idx: usize, before: u32) {
        let Some(slot) = &self.slots[idx] else {
            self.summary[idx] = SlotSummary::FREE;
            return;
        };
        let threads = &slot.threads;
        let after = threads.issue_candidates();
        let old = self.summary[idx].ready;
        let ready = if Self::earliest(threads, before & !after) == old {
            Self::earliest(threads, after)
        } else {
            old.min(Self::earliest(threads, after & !before))
        };
        self.summary[idx] = self.summary_with(slot, ready);
    }

    /// The first slot whose cached summary or occupancy disagrees with
    /// its thread masks: `(slot, cached, derived)`.
    fn stale_summary(&self) -> Option<(usize, SlotSummary, SlotSummary)> {
        self.slots.iter().enumerate().find_map(|(i, slot)| {
            let derived = slot
                .as_ref()
                .map_or(SlotSummary::FREE, |s| self.summarize(s));
            (derived != self.summary[i]).then_some((i, self.summary[i], derived))
        })
    }

    /// Checker only: re-derives every slot's summary, and the occupied
    /// count, from the thread masks and reports any cached value that
    /// went stale.
    fn check_summaries(&self, now: u64, probe: &mut Probe) {
        let sm = self.sm_id;
        probe.check(
            now,
            || self.stale_summary().is_none(),
            || match self.stale_summary() {
                Some((i, cached, derived)) => format!(
                    "RT unit {sm}: slot {i} summary is {cached:?}, its thread masks give {derived:?}"
                ),
                None => unreachable!("the check failed, so a summary is stale"),
            },
        );
        probe.check(
            now,
            || self.occupied == self.slots.iter().flatten().count(),
            || {
                format!(
                    "RT unit {sm}: occupied count {} disagrees with the warp buffer",
                    self.occupied
                )
            },
        );
    }

    /// Dispatches a `trace_ray` instruction into a free warp-buffer
    /// entry; performs the root-AABB test for each active thread
    /// (Algorithm 1, lines 1–2). The `trace_ray` begin and any
    /// ray-path predictions are emitted through `probe`.
    ///
    /// Returns `false` (and does nothing) if the warp buffer is full.
    pub fn issue(&mut self, query: TraceQuery, now: u64, scene: &Scene, probe: &mut Probe) -> bool {
        let Some(free) = self.slots.iter().position(|s| s.is_none()) else {
            return false;
        };
        self.events.trace_instructions += 1;
        self.rays_issued += query.rays.iter().flatten().count() as u64;
        // Reuse a retired warp's thread array (and its stacks' capacity)
        // when one is available.
        let mut threads = self.thread_pool.pop().unwrap_or_else(ThreadArray::new);
        threads.reset();
        let mut active = 0u32;
        for (i, ray) in query.rays.iter().enumerate() {
            if ray.is_some() {
                active |= 1 << i;
            }
        }
        probe.emit(now, || EventKind::TraceBegin {
            sm: self.sm_id as u32,
            warp: query.warp as u32,
            active_rays: active.count_ones(),
        });
        let mut slot = Slot {
            warp: query.warp,
            rays: query.rays,
            any_hit: query.any_hit,
            gather: query.gather,
            gathered: Vec::new(),
            min_thit: query.t_max,
            best: [None; WARP_SIZE],
            done_ray: [false; WARP_SIZE],
            threads,
            active,
            issued_at: now,
            predict: [None; WARP_SIZE],
            predict_live: 0,
        };
        let image = &scene.image;
        for i in 0..WARP_SIZE {
            if let Some(ray) = &slot.rays[i] {
                self.events.box_tests += 1;
                // Gather mode descends by point containment instead of
                // ray-box intersection (same test unit, same cost).
                let enters = image.node_count() > 0
                    && if slot.gather {
                        image.root_bounds().contains(ray.orig)
                    } else {
                        image
                            .root_bounds()
                            .intersect(ray, slot.min_thit[i])
                            .is_some()
                    };
                if enters {
                    let mut start = image.root_addr();
                    // Ray-path prediction (Demoullin et al.): an
                    // any-hit traversal starts at the predicted entry
                    // node; the go-up-level fallback in
                    // `refill_predicted` restores full-tree coverage on
                    // a subtree miss, so the occlusion outcome — the
                    // only thing any-hit consumers read — is exact.
                    if slot.any_hit {
                        if let Some(pred) = self.path_predictor.as_mut() {
                            self.events.predict_lookups += 1;
                            slot.threads.ready_at[i] = now + PREDICT_LOOKUP_CYCLES;
                            if let Some(entry) = pred.predict(ray, image) {
                                if entry != image.root_addr() {
                                    let depth =
                                        image.depth_of(entry).expect("candidates are validated");
                                    slot.predict[i] = Some(PredictState {
                                        level: entry,
                                        depth,
                                        at_entry: true,
                                        skip: None,
                                    });
                                    slot.predict_live += 1;
                                    start = entry;
                                    let warp = query.warp as u32;
                                    probe.emit(now, || EventKind::Predict {
                                        sm: self.sm_id as u32,
                                        warp,
                                        lane: i as u32,
                                        entry,
                                        depth,
                                    });
                                }
                            }
                        }
                    }
                    slot.threads.push(i, start);
                    self.events.stack_ops += 1;
                }
            }
        }
        self.summary[free] = self.summarize(&slot);
        self.slots[free] = Some(slot);
        self.occupied += 1;
        self.check_summaries(now, probe);
        true
    }

    /// Ray-path go-up-level fallback: any predicted ray whose current
    /// subtree drained without an accepted hit restarts one parent
    /// level higher (re-testing that subtree, which is what the
    /// hardware would do — the refetched nodes are L1-warm), or is
    /// concluded as a miss once the root's subtree itself drained.
    /// Runs before warp retirement each cycle, and only sweeps slots
    /// that actually carry prediction state.
    fn refill_predicted(&mut self, scene: &Scene) {
        if self.path_predictor.is_none() {
            return;
        }
        for s in 0..self.slots.len() {
            let Some(slot) = self.slots[s].as_mut() else {
                continue;
            };
            if slot.predict_live == 0 {
                continue;
            }
            let before = slot.threads.issue_candidates();
            let mut restarted = false;
            // Which rays still have traversal work, counting helper
            // threads that adopted the ray through the LBU.
            let mut ray_busy = [false; WARP_SIZE];
            let mut busy = slot.threads.busy_mask();
            for t in 0..WARP_SIZE {
                if busy & (1 << t) != 0 {
                    ray_busy[slot.threads.main_tid[t] as usize] = true;
                }
            }
            #[allow(clippy::needless_range_loop)] // mt indexes several parallel arrays
            for mt in 0..WARP_SIZE {
                let Some(ps) = slot.predict[mt] else { continue };
                if slot.done_ray[mt] {
                    slot.predict[mt] = None;
                    slot.predict_live -= 1;
                    continue;
                }
                if ray_busy[mt] {
                    continue;
                }
                match scene.image.parent_addr(ps.level) {
                    Some(parent) => {
                        // The restart must land on a thread that routes
                        // results to ray `mt`. Under CoopRT the ray's
                        // own lane may have been adopted as a helper
                        // for another ray, so prefer an idle thread
                        // already serving `mt` and otherwise retarget
                        // any idle thread (an LBU-style assignment).
                        // With every thread busy, retry next cycle —
                        // the slot cannot retire while threads work.
                        let serving = (0..WARP_SIZE).find(|&t| {
                            busy & (1 << t) == 0 && slot.threads.main_tid[t] as usize == mt
                        });
                        let carrier =
                            serving.or_else(|| (0..WARP_SIZE).find(|&t| busy & (1 << t) == 0));
                        let Some(carrier) = carrier else { continue };
                        let pred = self.path_predictor.as_mut().expect("checked above");
                        pred.record_go_up();
                        if ps.at_entry {
                            // The predicted subtree itself missed:
                            // decay the entry's confidence so a
                            // signature that keeps mispredicting goes
                            // quiet instead of paying this penalty on
                            // every ray.
                            if let Some(ray) = slot.rays[mt].as_ref() {
                                pred.record_mispredict(ray);
                            }
                        }
                        slot.predict[mt] = Some(PredictState {
                            level: parent,
                            depth: ps.depth - 1,
                            at_entry: false,
                            skip: Some(ps.level),
                        });
                        slot.threads.main_tid[carrier] = mt as u8;
                        slot.threads.push(carrier, parent);
                        busy |= 1 << carrier;
                        restarted = true;
                        self.events.stack_ops += 1;
                    }
                    None => {
                        // The root's subtree drained too: a true miss.
                        slot.predict[mt] = None;
                        slot.predict_live -= 1;
                    }
                }
            }
            if restarted {
                self.update(s, before);
            }
        }
    }

    /// Advances the unit by one cycle, emitting and checking through
    /// `probe`; any warps that retired this cycle are appended to
    /// `retired`.
    pub fn step(
        &mut self,
        now: u64,
        mem: &mut MemoryHierarchy,
        scene: &Scene,
        cfg: &GpuConfig,
        probe: &mut Probe,
        retired: &mut Vec<TraceResult>,
    ) {
        // 1. Response FIFO: pop at most one ready response per cycle.
        if self
            .responses
            .peek()
            .is_some_and(|&Reverse((ready, ..))| ready <= now)
        {
            let Reverse((_, _, slot, addr)) = self.responses.pop().expect("peeked");
            let sm = self.sm_id;
            probe.emit(now, || EventKind::ResponsePop {
                sm: sm as u32,
                addr,
            });
            let before = self.candidates(slot);
            self.process_response((slot, addr), now, mem, scene, cfg, probe);
            self.update(slot, before);
        }

        // 2–3. Warp scheduler + memory scheduler: one coalesced node
        // fetch per cycle from one warp.
        let chosen = self.pick_warp(now);
        if let Some(slot_idx) = chosen {
            self.events.scheduler_ops += 1;
            self.issue_memory(slot_idx, now, mem, scene, probe);
        }

        // 4. Load Balancing Unit (CoopRT only), on the scheduled warp —
        // or, if no warp could issue memory, on any warp with a
        // helper/main pair.
        if self.policy == TraversalPolicy::CoopRt {
            if let Some(s) = chosen.or_else(|| self.pick_lbu_slot()) {
                let before = self.candidates(s);
                self.run_lbu(s, cfg, now, probe);
                self.update(s, before);
            }
        }

        // 4b. Ray-path go-up fallback: restart drained-but-unresolved
        // predicted rays one level up before retirement can see them.
        self.refill_predicted(scene);

        // 5. Retire drained warps.
        for s in 0..self.slots.len() {
            if self.summary[s].drained {
                let mut slot = self.slots[s].take().expect("a drained slot is occupied");
                self.summary[s] = SlotSummary::FREE;
                self.occupied -= 1;
                probe.emit(now, || EventKind::TraceEnd {
                    sm: self.sm_id as u32,
                    warp: slot.warp as u32,
                    issued_at: slot.issued_at,
                });
                // Canonicalize the gather collection: the LBU interleaves
                // threads non-deterministically *across policies*, so the
                // answer order must not depend on it.
                slot.gathered.sort_unstable();
                retired.push(TraceResult {
                    warp: slot.warp,
                    hits: slot.best,
                    gathered: std::mem::take(&mut slot.gathered),
                    issued_at: slot.issued_at,
                    retired_at: now,
                });
                self.thread_pool.push(slot.threads);
            }
        }
        self.check_summaries(now, probe);
    }

    /// Earliest cycle (>= `now`) at which this unit can make progress,
    /// or `None` if it is empty. Used for cycle skipping.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut earliest = self
            .responses
            .peek()
            .map(|&Reverse((ready, ..))| ready.max(now));
        for s in &self.summary {
            // A pairable slot can move an LBU node, and a drained one
            // retires, right away.
            let t = if s.pairable || s.drained {
                now
            } else if s.ready != u64::MAX {
                s.ready.max(now)
            } else {
                continue;
            };
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        }
        earliest
    }

    /// Per-thread status over all resident warps (Fig. 4 / Fig. 10).
    pub fn sample_status(&self) -> StatusCounts {
        let mut c = StatusCounts::default();
        for slot in self.slots.iter().flatten() {
            let busy = slot.threads.busy_mask();
            c.busy += busy.count_ones() as usize;
            c.waiting += (slot.active & !busy).count_ones() as usize;
            c.inactive += (!slot.active & !busy).count_ones() as usize;
        }
        c
    }

    /// Busy mask of the slot holding `warp`, if resident (Fig. 11
    /// timelines). Bit `i` set means thread `i` is traversing.
    pub fn busy_mask_of(&self, warp: usize) -> Option<u32> {
        self.slots
            .iter()
            .flatten()
            .find(|s| s.warp == warp)
            .map(|s| s.threads.busy_mask())
    }

    /// Round-robin from the cursor: the first slot with a thread ready
    /// to issue at `now`.
    fn pick_warp(&mut self, now: u64) -> Option<usize> {
        let n = self.summary.len();
        let mut idx = self.rr;
        for _ in 0..n {
            if self.summary[idx].ready <= now {
                self.rr = if idx + 1 == n { 0 } else { idx + 1 };
                return Some(idx);
            }
            idx = if idx + 1 == n { 0 } else { idx + 1 };
        }
        None
    }

    fn issue_memory(
        &mut self,
        slot_idx: usize,
        now: u64,
        mem: &mut MemoryHierarchy,
        scene: &Scene,
        probe: &mut Probe,
    ) {
        let slot = self.slots[slot_idx]
            .as_mut()
            .expect("scheduler picked occupied slot");
        // Coalesce: the lowest-numbered eligible thread nominates the
        // address; every eligible thread with the same next node joins.
        let eligible = slot.threads.issue_candidates();
        let mut addr = None;
        let mut m = eligible;
        while m != 0 {
            let tid = m.trailing_zeros() as usize;
            m &= m - 1;
            if slot.threads.ready_at[tid] <= now {
                addr = slot.threads.peek_next(tid);
                break;
            }
        }
        let addr = addr.expect("scheduler guaranteed an eligible thread");
        let mut coalesced = 0u32;
        // Earliest `ready_at` of the candidates the fetch leaves behind.
        let mut rest = u64::MAX;
        let mut m = eligible;
        while m != 0 {
            let tid = m.trailing_zeros() as usize;
            m &= m - 1;
            if slot.threads.ready_at[tid] <= now && slot.threads.peek_next(tid) == Some(addr) {
                slot.threads.pop_next(tid);
                slot.threads.set_pending(tid, addr);
                self.events.stack_ops += 1;
                coalesced += 1;
            } else {
                rest = rest.min(slot.threads.ready_at[tid]);
            }
        }
        // The fetch turned the coalesced threads from candidates into
        // waiters: the slot's busy mask, and so `drained`, is unchanged,
        // and `ready` is the earliest of the rest. `pairable` may have
        // changed with the stacks; the LBU, which runs on this slot
        // under CoopRT, brings it up to date.
        self.summary[slot_idx].ready = rest;
        let warp = slot.warp as u32;
        let bytes = scene
            .image
            .node_at(addr)
            .expect("traversal stacks hold valid node addresses")
            .size_bytes();
        let sm = self.sm_id;
        let ready = mem.access_probed(sm, addr, bytes, now, probe);
        probe.check(
            now,
            || ready > now,
            || {
                format!(
                    "RT unit {sm} fetch of node {addr:#x} completes at cycle {ready}, not in the future"
                )
            },
        );
        self.responses
            .push(Reverse((ready, self.issued, slot_idx, addr)));
        self.issued += 1;
        probe.emit(now, || EventKind::NodeFetch {
            sm: sm as u32,
            warp,
            addr,
            threads: coalesced,
            ready_at: ready,
        });
    }

    /// Delivers the fetched node of a `(slot, addr)` response to every
    /// thread waiting on it.
    fn process_response(
        &mut self,
        (slot_idx, addr): (usize, u64),
        now: u64,
        mem: &mut MemoryHierarchy,
        scene: &Scene,
        cfg: &GpuConfig,
        probe: &mut Probe,
    ) {
        let Some(slot) = self.slots[slot_idx].as_mut() else {
            return;
        };
        let node = scene
            .image
            .node_at(addr)
            .expect("response for a valid node");
        let mut pm = slot.threads.pending_mask;
        while pm != 0 {
            let tid = pm.trailing_zeros() as usize;
            pm &= pm - 1;
            if slot.threads.pending[tid] != addr {
                continue;
            }
            slot.threads.clear_pending(tid);
            slot.threads.ready_at[tid] = now + cfg.math_latency;
            let mt = slot.threads.main_tid[tid] as usize;
            if slot.done_ray[mt] {
                continue; // Any-hit already satisfied for this ray.
            }
            let ray = slot.rays[mt].expect("main thread owns a ray");
            match &node.kind {
                NodeKind::Internal { children } => {
                    // A go-up restart re-fetches the drained node's
                    // parent; the restart trail marks the child whose
                    // subtree was already searched so it is tested but
                    // never re-descended.
                    let skip =
                        slot.predict[mt].and_then(
                            |ps| {
                                if ps.level == addr {
                                    ps.skip
                                } else {
                                    None
                                }
                            },
                        );
                    for child in children {
                        self.events.box_tests += 1;
                        if Some(child.addr) == skip {
                            continue;
                        }
                        let limit = if cfg.node_elimination {
                            slot.min_thit[mt]
                        } else {
                            f32::INFINITY
                        };
                        // Gather: descend every child whose box contains
                        // the query point (node elimination cannot apply
                        // — there is no shrinking t interval).
                        let descend = if slot.gather {
                            child.bounds.contains(ray.orig)
                        } else {
                            child.bounds.intersect(&ray, limit).is_some()
                        };
                        if descend {
                            slot.threads.push(tid, child.addr);
                            self.events.stack_ops += 1;
                            if cfg.prefetch_children {
                                let bytes = scene
                                    .image
                                    .node_at(child.addr)
                                    .expect("child addresses are valid")
                                    .size_bytes();
                                mem.prefetch(self.sm_id, child.addr, bytes, now, probe);
                            }
                        }
                    }
                }
                NodeKind::Leaf { triangle } => {
                    self.events.triangle_tests += 1;
                    if slot.gather {
                        // Collect, don't intersect: the leaf's triangle
                        // AABB containing the query point makes it a
                        // candidate. Credited to the ray's owner lane so
                        // LBU-stolen work lands on the right query.
                        if scene.image.triangle(*triangle).bounds().contains(ray.orig) {
                            slot.gathered.push((mt as u8, *triangle));
                        }
                        continue;
                    }
                    // Unbounded test + order-independent tie-break on the
                    // primitive index (see cooprt_bvh::traverse::accepts):
                    // CoopRT re-orders traversal, and edge-grazing rays
                    // tie between adjacent triangles at identical t.
                    let accept = scene
                        .image
                        .triangle(*triangle)
                        .intersect(&ray, f32::INFINITY)
                        .filter(|h| {
                            h.t < slot.min_thit[mt]
                                || matches!(slot.best[mt], Some(b) if h.t == b.t && *triangle < b.triangle)
                        });
                    if let Some(h) = accept {
                        let prev = slot.min_thit[mt];
                        let t = h.t;
                        probe.check(
                            now,
                            || t <= prev,
                            || format!("thread {mt} min_thit increased from {prev} to {t}"),
                        );
                        slot.min_thit[mt] = h.t;
                        slot.best[mt] = Some(RayHit {
                            triangle: *triangle,
                            t: h.t,
                        });
                        if slot.any_hit {
                            // Ray-path table learns from the accepted
                            // occluder: future similar rays enter the
                            // BVH a couple of levels above this leaf.
                            if let Some(pred) = self.path_predictor.as_mut() {
                                pred.update(&ray, addr, &scene.image);
                                self.events.predict_lookups += 1;
                                if let Some(ps) = slot.predict[mt] {
                                    if ps.at_entry {
                                        pred.record_entry_hit();
                                    }
                                    // A root-start traversal would have
                                    // fetched the `depth` ancestors the
                                    // prediction let this ray skip.
                                    pred.record_saved(u64::from(ps.depth));
                                }
                            }
                            if slot.predict[mt].take().is_some() {
                                slot.predict_live -= 1;
                            }
                            slot.done_ray[mt] = true;
                            for t in 0..WARP_SIZE {
                                if slot.threads.main_tid[t] as usize == mt {
                                    slot.threads.clear_stack(t);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn lbu_masks(slot: &Slot) -> (u32, u32) {
        // Helpers: empty stack and no fetch in flight. Mains: non-empty
        // stack (even with a fetch in flight — there is work to share).
        (!slot.threads.busy_mask(), slot.threads.nonempty)
    }

    /// The lowest-numbered slot with a helper/main pair.
    fn pick_lbu_slot(&self) -> Option<usize> {
        self.summary.iter().position(|s| s.pairable)
    }

    fn run_lbu(&mut self, slot_idx: usize, cfg: &GpuConfig, now: u64, probe: &mut Probe) {
        for _ in 0..cfg.lbu_moves_per_cycle.max(1) {
            let slot = self.slots[slot_idx]
                .as_ref()
                .expect("LBU picked occupied slot");
            let (can, needs) = Self::lbu_masks(slot);
            let pairs = find_pairs(can, needs, self.subwarp);
            if pairs.is_empty() {
                break;
            }
            for &pair in &pairs {
                self.apply_lbu_pair(slot_idx, pair, now, probe);
            }
        }
    }

    /// Executes one LBU move: pops the top of `pair.main`'s stack and
    /// pushes it onto `pair.helper`'s, re-pointing the helper at the
    /// main's ray. In checked mode the pair is verified first: the
    /// helper must be idle (empty stack, no fetch in flight) and the
    /// main must have stack work to share; the probe checks that the
    /// emitted move pairs distinct threads. [`find_pairs`] guarantees
    /// all three, so a violation means the pairing logic regressed.
    fn apply_lbu_pair(&mut self, slot_idx: usize, pair: LbuPair, now: u64, probe: &mut Probe) {
        let sm = self.sm_id;
        let slot = self.slots[slot_idx]
            .as_mut()
            .expect("LBU picked occupied slot");
        let (helper, main) = (pair.helper, pair.main);
        probe.check(
            now,
            || slot.threads.busy_mask() & (1 << helper) == 0,
            || format!("LBU on RT unit {sm}: helper thread {helper} is not idle"),
        );
        probe.check(
            now,
            || slot.threads.nonempty & (1 << main) != 0,
            || format!("LBU on RT unit {sm}: main thread {main} has no stack work to share"),
        );
        let Some(node) = slot.threads.pop_next(pair.main) else {
            // Unreachable through `find_pairs`; only a corrupted pair
            // (recorded by the checks above) can land here.
            return;
        };
        let main_tid = slot.threads.main_tid[pair.main];
        slot.threads.push(pair.helper, node);
        slot.threads.main_tid[pair.helper] = main_tid;
        self.events.lbu_moves += 1;
        self.events.stack_ops += 2;
        let warp = slot.warp as u32;
        probe.emit(now, || EventKind::LbuMove {
            sm: sm as u32,
            warp,
            helper: pair.helper as u32,
            main: pair.main as u32,
            main_tid: u32::from(main_tid),
        });
    }

    /// Test-only hook: applies an arbitrary (possibly invalid) LBU pair
    /// to the slot holding `warp`, bypassing [`find_pairs`]. Used by the
    /// mutation test that proves a broken pairing is caught by the
    /// checker.
    #[cfg(test)]
    fn force_lbu_move(&mut self, warp: usize, pair: LbuPair, now: u64, probe: &mut Probe) {
        let slot_idx = self
            .slots
            .iter()
            .position(|s| matches!(s, Some(slot) if slot.warp == warp))
            .expect("warp is resident");
        self.apply_lbu_pair(slot_idx, pair, now, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooprt_gpu::MemoryConfig;
    use cooprt_math::{Rgb, Vec3};
    use cooprt_scenes::{Camera, Material, SceneBuilder};
    use cooprt_telemetry::{Checker, Tracer};

    fn test_scene(clutter: usize) -> Scene {
        let cam = Camera::look_at(Vec3::new(0.0, 2.0, 12.0), Vec3::ZERO, Vec3::Y, 60.0, 1.0);
        SceneBuilder::new("rtunit-test", cam)
            .push(
                cooprt_scenes::quad(Vec3::new(-20.0, 0.0, -20.0), Vec3::X * 40.0, Vec3::Z * 40.0),
                Material::Lambertian {
                    albedo: Rgb::splat(0.5),
                },
            )
            .push(
                cooprt_scenes::scatter_clutter(
                    cooprt_math::Aabb::new(Vec3::new(-6.0, 0.5, -6.0), Vec3::new(6.0, 5.0, 6.0)),
                    clutter,
                    0.2..0.6,
                    7,
                ),
                Material::Lambertian {
                    albedo: Rgb::splat(0.7),
                },
            )
            .build()
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&MemoryConfig::rtx2060_like(1))
    }

    /// Issues `query` at cycle 0 outside any observed frame.
    fn issue(rt: &mut RtUnit, query: TraceQuery, scene: &Scene) -> bool {
        rt.issue(query, 0, scene, &mut Probe::disabled())
    }

    fn run_to_retire(
        rt: &mut RtUnit,
        mem: &mut MemoryHierarchy,
        scene: &Scene,
        cfg: &GpuConfig,
        probe: &mut Probe,
    ) -> (Vec<TraceResult>, u64) {
        let mut retired = Vec::new();
        let mut now = 0;
        while rt.occupied() > 0 {
            rt.step(now, mem, scene, cfg, probe, &mut retired);
            now += 1;
            assert!(now < 10_000_000, "RT unit failed to drain");
        }
        (retired, now)
    }

    fn warp_rays(scene: &Scene, n: usize) -> [Option<Ray>; WARP_SIZE] {
        let mut rays = [None; WARP_SIZE];
        for (i, r) in rays.iter_mut().enumerate().take(n) {
            let s = i as f32 / WARP_SIZE as f32;
            *r = Some(scene.camera.primary_ray(0.2 + 0.6 * s, 0.45));
        }
        rays
    }

    #[test]
    fn results_match_cpu_reference_baseline_and_coop() {
        let scene = test_scene(40);
        let cfg = GpuConfig::small(1);
        let rays = warp_rays(&scene, WARP_SIZE);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let mut rt = RtUnit::new(0, &cfg, policy);
            let mut m = mem();
            assert!(issue(&mut rt, TraceQuery::closest_hit(7, rays), &scene));
            let (retired, _) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
            assert_eq!(retired.len(), 1);
            assert_eq!(retired[0].warp, 7);
            #[allow(clippy::needless_range_loop)] // i is the SIMT lane id
            for i in 0..WARP_SIZE {
                let expected = cooprt_bvh::traverse::closest_hit(
                    &scene.image,
                    rays[i].as_ref().unwrap(),
                    f32::INFINITY,
                );
                let got = retired[0].hits[i];
                match (expected, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert_eq!(e.triangle, g.triangle, "thread {i} ({policy:?})");
                        assert!((e.t - g.t).abs() < 1e-5);
                    }
                    (e, g) => panic!("thread {i} ({policy:?}): cpu={e:?} rt={g:?}"),
                }
            }
        }
    }

    #[test]
    fn coop_is_not_slower_with_divergent_warp() {
        let scene = test_scene(120);
        let cfg = GpuConfig::small(1);
        // Only 4 active threads out of 32: lots of idle helpers.
        let rays = warp_rays(&scene, 4);
        let mut cycles = Vec::new();
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let mut rt = RtUnit::new(0, &cfg, policy);
            let mut m = mem();
            issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene);
            let (_, t) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
            cycles.push(t);
        }
        assert!(
            cycles[1] < cycles[0],
            "coop ({}) should beat baseline ({}) on a divergent warp",
            cycles[1],
            cycles[0]
        );
    }

    #[test]
    fn coop_uses_the_lbu() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let rays = warp_rays(&scene, 2);
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::CoopRt);
        let mut m = mem();
        issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene);
        let _ = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
        assert!(rt.events.lbu_moves > 0, "LBU should have moved nodes");
    }

    #[test]
    fn baseline_never_uses_the_lbu() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        let mut m = mem();
        issue(
            &mut rt,
            TraceQuery::closest_hit(0, warp_rays(&scene, 2)),
            &scene,
        );
        let _ = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
        assert_eq!(rt.events.lbu_moves, 0);
    }

    #[test]
    fn coalescing_merges_identical_rays() {
        let scene = test_scene(30);
        let cfg = GpuConfig::small(1);
        // All 32 threads trace the *same* ray: every fetch coalesces to
        // one memory access.
        let ray = scene.camera.primary_ray(0.5, 0.5);
        let rays = [Some(ray); WARP_SIZE];
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        let mut m = mem();
        issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene);
        let _ = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
        let one_ray_nodes = {
            let mut counters = cooprt_bvh::traverse::TraversalCounters::default();
            let _ = cooprt_bvh::traverse::closest_hit_counted(
                &scene.image,
                &ray,
                f32::INFINITY,
                &mut counters,
            );
            counters.nodes_visited
        };
        // Fetches (= L1 accesses may span 2 lines each) must scale with
        // ONE ray's node count, not 32 rays' worth.
        let accesses = m.stats().l1.accesses;
        assert!(
            accesses <= one_ray_nodes * 3,
            "coalescing failed: {accesses} accesses for {one_ray_nodes} nodes"
        );
    }

    #[test]
    fn any_hit_terminates_early() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let rays = warp_rays(&scene, WARP_SIZE);
        let run = |any_hit: bool| {
            let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
            let mut m = mem();
            let q = TraceQuery {
                warp: 0,
                rays,
                t_max: [f32::INFINITY; WARP_SIZE],
                any_hit,
                gather: false,
            };
            issue(&mut rt, q, &scene);
            let (res, t) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
            (res, t)
        };
        let (closest, t_closest) = run(false);
        let (any, t_any) = run(true);
        assert!(
            t_any <= t_closest,
            "any-hit ({t_any}) must not exceed closest ({t_closest})"
        );
        // Wherever closest-hit found something, any-hit must too.
        for i in 0..WARP_SIZE {
            assert_eq!(
                closest[0].hits[i].is_some(),
                any[0].hits[i].is_some(),
                "thread {i}"
            );
        }
    }

    #[test]
    fn gather_enumerates_containing_leaves_identically_across_policies() {
        let scene = cooprt_scenes::SceneId::Quni.build(2);
        let cfg = GpuConfig::small(1);
        let mut rays = [None; WARP_SIZE];
        let mut t_max = [f32::INFINITY; WARP_SIZE];
        for (i, r) in rays.iter_mut().enumerate().take(8) {
            let q = crate::shader::ShaderThread::query_point(&scene, i, 1);
            *r = Some(Ray::probe(q));
            t_max[i] = crate::shader::PROBE_T_MAX;
        }
        let mut per_policy = Vec::new();
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let mut rt = RtUnit::new(0, &cfg, policy);
            let mut m = mem();
            let q = TraceQuery {
                warp: 0,
                rays,
                t_max,
                any_hit: false,
                gather: true,
            };
            assert!(issue(&mut rt, q, &scene));
            let (res, _) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
            assert!(
                res[0].hits.iter().all(|h| h.is_none()),
                "gather never reports hits ({policy:?})"
            );
            per_policy.push(res[0].gathered.clone());
        }
        assert_eq!(per_policy[0], per_policy[1], "answers are policy-invariant");
        // Brute force over every triangle AABB: gather must enumerate
        // exactly the containing leaves, in (lane, triangle) order.
        let mut expect = Vec::new();
        for i in 0..8u8 {
            let q = crate::shader::ShaderThread::query_point(&scene, i as usize, 1);
            for t in 0..scene.image.triangles().len() as u32 {
                if scene.image.triangle(t).bounds().contains(q) {
                    expect.push((i, t));
                }
            }
        }
        assert_eq!(per_policy[0], expect);
        assert!(!expect.is_empty(), "fixture should gather candidates");
    }

    #[test]
    fn t_max_limits_the_search() {
        let scene = test_scene(30);
        let cfg = GpuConfig::small(1);
        let rays = warp_rays(&scene, 8);
        let mut q = TraceQuery::closest_hit(0, rays);
        q.t_max = [0.01; WARP_SIZE]; // nothing is this close
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        let mut m = mem();
        issue(&mut rt, q, &scene);
        let (res, _) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
        assert!(res[0].hits.iter().all(|h| h.is_none()));
    }

    #[test]
    fn warp_buffer_capacity_is_enforced() {
        let scene = test_scene(10);
        let mut rt = RtUnit::new(
            0,
            &GpuConfig::small(1).with_warp_buffer(2),
            TraversalPolicy::Baseline,
        );
        let rays = warp_rays(&scene, 4);
        assert!(issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene));
        assert!(issue(&mut rt, TraceQuery::closest_hit(1, rays), &scene));
        assert!(!rt.has_free_slot());
        assert!(!issue(&mut rt, TraceQuery::closest_hit(2, rays), &scene));
        assert_eq!(rt.occupied(), 2);
    }

    #[test]
    fn all_missing_rays_retire_immediately() {
        let scene = test_scene(10);
        let cfg = GpuConfig::small(1);
        // Rays pointing straight up, away from everything.
        let mut rays = [None; WARP_SIZE];
        for r in rays.iter_mut().take(8) {
            *r = Some(Ray::new(Vec3::new(0.0, 50.0, 0.0), Vec3::Y));
        }
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        let mut m = mem();
        issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene);
        let (res, t) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut Probe::disabled());
        assert!(t < 5, "nothing to traverse: retires in the first cycles");
        assert!(res[0].hits.iter().all(|h| h.is_none()));
    }

    #[test]
    fn rays_issued_counts_active_threads() {
        let scene = test_scene(10);
        let mut rt = RtUnit::new(0, &GpuConfig::small(1), TraversalPolicy::Baseline);
        issue(
            &mut rt,
            TraceQuery::closest_hit(0, warp_rays(&scene, 5)),
            &scene,
        );
        issue(
            &mut rt,
            TraceQuery::closest_hit(1, warp_rays(&scene, WARP_SIZE)),
            &scene,
        );
        assert_eq!(rt.rays_issued, 5 + WARP_SIZE as u64);
    }

    #[test]
    fn status_sampling_tracks_masks() {
        let scene = test_scene(40);
        let rays = warp_rays(&scene, 10);
        let mut rt = RtUnit::new(0, &GpuConfig::small(1), TraversalPolicy::Baseline);
        issue(&mut rt, TraceQuery::closest_hit(0, rays), &scene);
        let s = rt.sample_status();
        assert_eq!(s.total(), WARP_SIZE);
        assert_eq!(s.inactive, WARP_SIZE - 10);
        assert!(s.busy > 0);
        assert!(rt.busy_mask_of(0).is_some());
        assert!(rt.busy_mask_of(99).is_none());
    }

    #[test]
    fn checked_run_is_clean_for_both_policies() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let rays = warp_rays(&scene, 6);
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            let checker = Checker::enabled();
            let mut probe = Probe::new(&Tracer::disabled(), &checker);
            let mut rt = RtUnit::new(0, &cfg, policy);
            let mut m = mem();
            rt.issue(TraceQuery::closest_hit(0, rays), 0, &scene, &mut probe);
            let (retired, now) = run_to_retire(&mut rt, &mut m, &scene, &cfg, &mut probe);
            assert_eq!(retired.len(), 1);
            probe.finish(now);
            assert!(
                checker.checks_run() > 0,
                "checked run must evaluate invariants ({policy:?})"
            );
            checker.assert_clean();
        }
    }

    #[test]
    fn corrupted_lbu_pair_is_caught_by_the_checker() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let checker = Checker::enabled();
        let mut probe = Probe::new(&Tracer::disabled(), &checker);
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::CoopRt);
        let query = TraceQuery::closest_hit(3, warp_rays(&scene, 8));
        rt.issue(query, 0, &scene, &mut probe);
        // Threads 0..8 all pushed the root: thread 1 is busy, so pairing
        // it as a *helper* violates the LBU contract. `find_pairs` would
        // never emit this; inject it directly (the mutation).
        rt.force_lbu_move(3, LbuPair { helper: 1, main: 0 }, 0, &mut probe);
        probe.finish(0);
        let violations = checker.violations();
        assert!(
            violations.iter().any(|v| v.contains("helper thread 1")),
            "mutated LBU pairing must be flagged, got {violations:?}"
        );
    }

    #[test]
    fn stale_schedule_summary_is_caught_by_the_checker() {
        let scene = test_scene(60);
        let cfg = GpuConfig::small(1);
        let checker = Checker::enabled();
        let mut probe = Probe::new(&Tracer::disabled(), &checker);
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        rt.issue(
            TraceQuery::closest_hit(3, warp_rays(&scene, 8)),
            0,
            &scene,
            &mut probe,
        );
        assert!(checker.violations().is_empty());
        // The root fetch is ready at cycle 0; a summary claiming nothing
        // can issue keeps the scheduler off the slot, so the step never
        // refreshes it (the mutation: a refresh the step forgot).
        rt.summary[0].ready = u64::MAX;
        let mut m = mem();
        let mut retired = Vec::new();
        rt.step(0, &mut m, &scene, &cfg, &mut probe, &mut retired);
        probe.finish(0);
        let violations = checker.violations();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("slot 0 summary") && v.contains("ready: 0")),
            "a stale summary must be flagged, got {violations:?}"
        );
    }

    #[test]
    fn next_event_reports_progress_opportunities() {
        let scene = test_scene(20);
        let cfg = GpuConfig::small(1);
        let mut rt = RtUnit::new(0, &cfg, TraversalPolicy::Baseline);
        // Empty unit: no events.
        assert_eq!(rt.next_event(0), None);
        issue(
            &mut rt,
            TraceQuery::closest_hit(0, warp_rays(&scene, 4)),
            &scene,
        );
        // Threads can issue right away.
        assert_eq!(rt.next_event(5), Some(5));
        // After issuing, the next event is the memory response.
        let mut m = mem();
        let mut retired = Vec::new();
        rt.step(
            5,
            &mut m,
            &scene,
            &cfg,
            &mut Probe::disabled(),
            &mut retired,
        );
        let ev = rt.next_event(6);
        assert!(ev.is_some());
    }
}
