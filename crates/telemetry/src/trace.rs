//! Sim-time event tracing: the [`Tracer`] handle and event taxonomy.
//!
//! Every simulator component that makes a scheduling-relevant decision
//! emits through the frame's [`Probe`](crate::Probe), which forwards to
//! the [`Tracer`] installed on the run. When tracing is disabled (the
//! default) the handle is a `None` and [`Tracer::emit`] is a single
//! branch — the event-construction closure is never even run, so the
//! hot path pays nothing for the instrumentation.
//!
//! When enabled, events go into a shared, mutex-protected buffer with a
//! configurable capacity. Past the capacity, events are *counted* but
//! not stored (`dropped`), which keeps memory bounded while the
//! emission path still executes identically — important because the
//! no-perturbation invariant is proven by running `golden_cycles` with
//! a capacity-limited tracer fully enabled.

use std::sync::{Arc, Mutex};

/// Which cache level a [`EventKind::CacheAccess`] probe hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheLevel {
    /// Per-SM first-level cache.
    L1,
    /// Shared second-level cache.
    L2,
}

/// Outcome of a single cache-line probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was absent and a fill was started.
    Miss,
    /// The line was already in flight; the request merged into the
    /// existing MSHR entry.
    MshrMerge,
}

/// A typed simulator event. The variants cover every layer of the
/// machine: SM warp scheduling, the RT unit's warp buffer and fetch
/// path, the LBU, and the memory hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A queued warp was activated on an SM.
    WarpIssue {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
    },
    /// A warp finished its final phase and was reaped.
    WarpRetire {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
    },
    /// A `trace_ray` instruction entered the RT unit's warp buffer.
    TraceBegin {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
        /// Number of rays active in the warp at issue.
        active_rays: u32,
    },
    /// A `trace_ray` instruction retired from the warp buffer.
    TraceEnd {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
        /// Cycle the instruction was issued at (span start).
        issued_at: u64,
    },
    /// One coalesced node fetch was issued to the memory hierarchy.
    NodeFetch {
        /// SM index.
        sm: u32,
        /// Global warp id of the fetching warp-buffer slot.
        warp: u32,
        /// Node address fetched.
        addr: u64,
        /// Number of threads coalesced onto this address.
        threads: u32,
        /// Cycle the response will be ready.
        ready_at: u64,
    },
    /// A ready node response was popped from the response FIFO.
    ResponsePop {
        /// SM index.
        sm: u32,
        /// Node address of the completed fetch.
        addr: u64,
    },
    /// The LBU paired a helper thread with a main thread and moved one
    /// stack node (with `main_tid` handoff for result forwarding).
    LbuMove {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
        /// Helper (idle) thread lane.
        helper: u32,
        /// Main (busy) thread lane the node was stolen from.
        main: u32,
        /// The main-thread id propagated to the helper.
        main_tid: u32,
    },
    /// A cache-line probe at L1 or L2.
    CacheAccess {
        /// Requesting SM index.
        sm: u32,
        /// Which level was probed.
        level: CacheLevel,
        /// Line address probed.
        line: u64,
        /// Probe outcome.
        outcome: AccessOutcome,
    },
    /// A service-layer request was attached to this simulation run
    /// (emitted at cycle 0 by `cooprt-serve` workers so every event in
    /// a per-request trace can be joined back to the HTTP request id).
    Request {
        /// Server-assigned request id (also returned to the client in
        /// the `X-Request-Id` response header).
        id: u64,
    },
    /// One ray-reordering pass ran in the engine front end: the
    /// pending threads were key-sorted before being packed into warps
    /// (first-wave formation, or a between-wave compaction re-form).
    Reorder {
        /// Compaction wave index (0 = first-wave formation).
        wave: u32,
        /// Threads keyed and sorted in this pass.
        rays: u32,
        /// Threads whose position changed relative to the unsorted
        /// order.
        moved: u32,
        /// Non-empty counting-sort buckets.
        buckets_occupied: u32,
    },
    /// The ray-path predictor produced a candidate entry node: this
    /// lane's any-hit traversal starts `depth` levels below the root
    /// instead of at the root (go-up-level fallback restores coverage
    /// on a subtree miss, so images are unchanged).
    Predict {
        /// SM index.
        sm: u32,
        /// Global warp id.
        warp: u32,
        /// Lane whose traversal was redirected.
        lane: u32,
        /// Predicted BVH entry node address.
        entry: u64,
        /// Tree depth of the entry node (root = 0).
        depth: u32,
    },
    /// A DRAM channel data-bus occupancy interval.
    DramBusy {
        /// Channel index.
        channel: u32,
        /// Cycle the transfer starts occupying the channel.
        start: u64,
        /// Channel-busy duration in cycles.
        service: u64,
        /// Bytes transferred.
        bytes: u32,
    },
}

/// A cycle-stamped [`EventKind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Simulation cycle the event was emitted at.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct LogInner {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

#[derive(Debug)]
struct Shared {
    log: Mutex<LogInner>,
}

/// The events captured by an enabled [`Tracer`].
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Captured events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events emitted past the buffer capacity (counted, not stored).
    pub dropped: u64,
}

/// Default event-buffer capacity: large enough for a small scene's
/// full event stream, small enough that a fully traced `golden_cycles`
/// run stays within a bounded memory footprint.
pub const DEFAULT_TRACE_CAPACITY: usize = 4_000_000;

/// A cheap, cloneable handle for emitting simulator events.
///
/// Clones share one buffer, so every frame's [`Probe`](crate::Probe)
/// emits into the caller's handle and a single [`Tracer::take`]
/// collects everything. The handle is `Send + Sync` (the buffer sits
/// behind a mutex) because `Simulation` values are shared by reference
/// across the worker pool.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl Tracer {
    /// A disabled tracer: [`Tracer::emit`] is a no-op and never runs
    /// the event closure. This is the default everywhere.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer with the default buffer capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer storing at most `capacity` events; further
    /// emissions are counted in [`TraceLog::dropped`] but not stored.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Shared {
                log: Mutex::new(LogInner {
                    events: Vec::new(),
                    capacity,
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event at `cycle`. The closure is only invoked when the
    /// tracer is enabled, so disabled tracing costs one branch.
    #[inline]
    pub fn emit(&self, cycle: u64, kind: impl FnOnce() -> EventKind) {
        let Some(shared) = &self.inner else {
            return;
        };
        let mut log = shared.log.lock().expect("trace buffer poisoned");
        if log.events.len() < log.capacity {
            let kind = kind();
            log.events.push(TraceEvent { cycle, kind });
        } else {
            log.dropped += 1;
        }
    }

    /// Drain the captured events, leaving the tracer enabled and empty.
    /// Returns an empty log for a disabled tracer.
    pub fn take(&self) -> TraceLog {
        let Some(shared) = &self.inner else {
            return TraceLog::default();
        };
        let mut log = shared.log.lock().expect("trace buffer poisoned");
        let events = std::mem::take(&mut log.events);
        let dropped = std::mem::take(&mut log.dropped);
        TraceLog { events, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        t.emit(5, || panic!("closure must not run when disabled"));
        assert!(!t.is_enabled());
        assert!(t.take().events.is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        t.emit(1, || EventKind::WarpIssue { sm: 0, warp: 0 });
        u.emit(2, || EventKind::WarpRetire { sm: 0, warp: 0 });
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].cycle, 1);
        assert_eq!(log.events[1].cycle, 2);
        assert_eq!(log.dropped, 0);
        // take() drained the shared buffer for both handles.
        assert!(u.take().events.is_empty());
    }

    #[test]
    fn capacity_limit_counts_drops() {
        let t = Tracer::with_capacity(2);
        for c in 0..5 {
            t.emit(c, || EventKind::ResponsePop { sm: 0, addr: c });
        }
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
    }
}
