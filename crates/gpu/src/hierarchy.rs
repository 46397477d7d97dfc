//! The L1 → L2 → DRAM access path.

use crate::{Cache, CacheStats, Dram, DramStats, MemoryConfig, Mshr, MshrStats};
use cooprt_telemetry::{AccessOutcome, CacheLevel, EventKind, Probe};

/// Aggregated memory-system statistics for one simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Combined counters of all per-SM L1 caches.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Bytes crossing the SM ↔ L2 interconnect (L1 fills).
    pub l2_bytes: u64,
    /// Bytes read from DRAM (L2 fills).
    pub dram_bytes: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Aggregated L1 MSHR counters (merged in-flight misses).
    pub l1_mshr: MshrStats,
    /// L2 MSHR counters.
    pub l2_mshr: MshrStats,
}

impl MemStats {
    /// L2 ↔ interconnect bandwidth in bytes/cycle over a window.
    pub fn l2_bandwidth(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.l2_bytes as f64 / cycles as f64
        }
    }

    /// DRAM bandwidth in bytes/cycle over a window.
    pub fn dram_bandwidth(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.dram_bytes as f64 / cycles as f64
        }
    }
}

/// The full memory hierarchy: per-SM L1s, one shared L2, multi-channel
/// DRAM.
///
/// Latency model: an access touches every cache line covering the
/// request; each line goes L1 → L2 → DRAM until it hits, accumulating
/// the per-level latencies of [`MemoryConfig`]; the request completes
/// when its slowest line arrives. Caches fill on miss (no write traffic
/// — BVH data is read-only, and hit stores go through a separate store
/// queue that is never a bottleneck, per the paper).
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1s: Vec<Cache>,
    l1_mshrs: Vec<Mshr>,
    l2: Cache,
    l2_mshr: Mshr,
    dram: Dram,
    config: MemoryConfig,
    l2_bytes: u64,
    dram_bytes: u64,
    prefetches: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &MemoryConfig) -> Self {
        let l1s = (0..config.sm_count)
            .map(|_| Cache::new(config.l1_bytes, config.l1_assoc, config.line_bytes))
            .collect();
        let l1_mshrs = (0..config.sm_count)
            .map(|_| Mshr::new(config.l1_mshr_entries.max(1)))
            .collect();
        MemoryHierarchy {
            l1s,
            l1_mshrs,
            l2: Cache::new(config.l2_bytes, config.l2_assoc, config.line_bytes),
            l2_mshr: Mshr::new(config.l2_mshr_entries.max(1)),
            dram: Dram::new(
                config.dram_channels,
                config.dram_bytes_per_cycle,
                config.dram_latency,
            ),
            config: config.clone(),
            l2_bytes: 0,
            dram_bytes: 0,
            prefetches: 0,
        }
    }

    /// Performs a read of `bytes` at `addr` from SM `sm` at time `now`,
    /// outside any observed frame. Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) -> u64 {
        self.access_probed(sm, addr, bytes, now, &mut Probe::disabled())
    }

    /// [`MemoryHierarchy::access`] within a frame: cache probes and
    /// DRAM channel-busy intervals are emitted through `probe`. Purely
    /// observational — no latency or fill decision reads the probe.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access_probed(
        &mut self,
        sm: usize,
        addr: u64,
        bytes: u32,
        now: u64,
        probe: &mut Probe,
    ) -> u64 {
        let (first, count) = self.l1s[sm].lines_covering(addr, bytes);
        let mut done = now;
        for i in 0..count {
            let t = self.access_one_line(sm, first + i, now, probe);
            done = done.max(t);
        }
        done
    }

    /// Fetches one line; returns its arrival cycle.
    fn access_one_line(&mut self, sm: usize, line: u64, now: u64, probe: &mut Probe) -> u64 {
        let line_bytes = self.config.line_bytes as u64;
        let line_addr = line * line_bytes;
        let mut t = now + self.config.l1_latency;
        let l1_hit = self.l1s[sm].access_line(line_addr);
        if let Some(fill_done) = self.l1_mshrs[sm].lookup(line, now) {
            // The line's fill is still in flight (a prefetch or an
            // earlier miss): whether the tag already matched or not,
            // the data arrives only when the fill lands.
            probe.emit(now, || EventKind::CacheAccess {
                sm: sm as u32,
                level: CacheLevel::L1,
                line: line_addr,
                outcome: AccessOutcome::MshrMerge,
            });
            return t.max(fill_done);
        }
        probe.emit(now, || EventKind::CacheAccess {
            sm: sm as u32,
            level: CacheLevel::L1,
            line: line_addr,
            outcome: if l1_hit {
                AccessOutcome::Hit
            } else {
                AccessOutcome::Miss
            },
        });
        if l1_hit {
            return t;
        }
        // True L1 miss: cross the interconnect to L2.
        t += self.config.l2_latency;
        self.l2_bytes += line_bytes;
        let l2_hit = self.l2.access_line(line_addr);
        let in_flight = self.l2_mshr.lookup(line, now);
        probe.emit(now, || EventKind::CacheAccess {
            sm: sm as u32,
            level: CacheLevel::L2,
            line: line_addr,
            outcome: match (l2_hit, in_flight) {
                (_, Some(_)) => AccessOutcome::MshrMerge,
                (true, None) => AccessOutcome::Hit,
                (false, None) => AccessOutcome::Miss,
            },
        });
        match (l2_hit, in_flight) {
            (_, Some(dram_done)) => {
                // Fill still inbound from DRAM.
                t = t.max(dram_done + self.config.l2_latency);
            }
            (true, None) => {}
            (false, None) => {
                self.dram_bytes += line_bytes;
                let dram_done = self
                    .dram
                    .request(line_addr, self.config.line_bytes, now, probe);
                self.l2_mshr.insert(line, dram_done, now);
                t = t.max(dram_done + self.config.l2_latency);
            }
        }
        self.l1_mshrs[sm].insert(line, t, now);
        t
    }

    /// Issues a prefetch for `[addr, addr+bytes)` from SM `sm`: the
    /// lines travel the same L1 → L2 → DRAM path (consuming the same
    /// bandwidth and MSHR entries) but nothing waits on them — later
    /// demand accesses find the lines resident, or in flight at the
    /// MSHRs. Cache probes are emitted through `probe`.
    pub fn prefetch(&mut self, sm: usize, addr: u64, bytes: u32, now: u64, probe: &mut Probe) {
        self.prefetches += 1;
        let (first, count) = self.l1s[sm].lines_covering(addr, bytes);
        for i in 0..count {
            let _ = self.access_one_line(sm, first + i, now, probe);
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> MemStats {
        let mut l1 = CacheStats::default();
        for c in &self.l1s {
            let s = c.stats();
            l1.accesses += s.accesses;
            l1.hits += s.hits;
        }
        let mut l1_mshr = MshrStats::default();
        for m in &self.l1_mshrs {
            let s = m.stats();
            l1_mshr.allocations += s.allocations;
            l1_mshr.merges += s.merges;
        }
        MemStats {
            l1,
            l2: self.l2.stats(),
            dram: self.dram.stats(),
            l2_bytes: self.l2_bytes,
            dram_bytes: self.dram_bytes,
            prefetches: self.prefetches,
            l1_mshr,
            l2_mshr: self.l2_mshr.stats(),
        }
    }

    /// DRAM utilization over `total_cycles` (see [`Dram::utilization`]).
    pub fn dram_utilization(&self, total_cycles: u64) -> f64 {
        self.dram.utilization(total_cycles)
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            sm_count: 2,
            line_bytes: 64,
            l1_bytes: 4 * 64,
            l1_assoc: 0,
            l1_latency: 10,
            l2_bytes: 16 * 64,
            l2_assoc: 4,
            l2_latency: 50,
            dram_latency: 200,
            dram_channels: 2,
            l1_mshr_entries: 8,
            l2_mshr_entries: 16,
            dram_bytes_per_cycle: 16.0,
            core_clock_mhz: 1000.0,
        }
    }

    #[test]
    fn cold_access_pays_full_path() {
        let mut m = MemoryHierarchy::new(&small_config());
        let done = m.access(0, 0, 64, 0);
        // DRAM completion (200 + 4) + L2 latency back = 254 > L1+L2 sum.
        assert_eq!(done, 254);
        let s = m.stats();
        assert_eq!(s.l1.misses(), 1);
        assert_eq!(s.l2.misses(), 1);
        assert_eq!(s.dram.requests, 1);
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = MemoryHierarchy::new(&small_config());
        let t1 = m.access(0, 0, 64, 0);
        let t2 = m.access(0, 0, 64, t1);
        assert_eq!(t2 - t1, 10);
        assert_eq!(m.stats().l1.hits, 1);
    }

    #[test]
    fn l2_serves_other_sms_l1_misses() {
        let mut m = MemoryHierarchy::new(&small_config());
        let _ = m.access(0, 0, 64, 0);
        // SM 1 misses its own L1 but hits the shared L2.
        let t = m.access(1, 0, 64, 1000);
        assert_eq!(t - 1000, 10 + 50);
        let s = m.stats();
        assert_eq!(s.l2.hits, 1);
        assert_eq!(s.dram.requests, 1, "no second DRAM trip");
    }

    #[test]
    fn concurrent_misses_to_one_line_merge_at_the_mshr() {
        let mut m = MemoryHierarchy::new(&small_config());
        // Two accesses to the same line from the same SM at nearly the
        // same time: the second must merge, not issue a second DRAM
        // request.
        let t1 = m.access(0, 0, 64, 0);
        // The line is now resident in L1 (fill-on-miss model), so use a
        // different SM to observe L2-level merging instead: SM 1 misses
        // L1 and L2... but L2 also filled. So test the L1 MSHR with a
        // *fresh* line accessed twice from different warps of one SM
        // before the fill lands — our fill-on-access model fills
        // immediately, so the second access hits L1: the architected
        // behaviour (one DRAM trip) is what we assert.
        let _ = t1;
        let before = m.stats().dram.requests;
        let _ = m.access(0, 4096, 64, 0);
        let _ = m.access(0, 4096, 64, 1);
        assert_eq!(m.stats().dram.requests, before + 1, "one fill per line");
    }

    #[test]
    fn l2_mshr_merges_cross_sm_misses() {
        // Craft a config where the L2 is tiny so both SMs miss it, and
        // verify the second SM's miss merges into the first's DRAM fill.
        let mut cfg = small_config();
        cfg.l2_bytes = 2 * 64;
        cfg.l2_assoc = 2;
        let mut m = MemoryHierarchy::new(&cfg);
        let before = m.stats();
        assert_eq!(before.l2_mshr.allocations, 0);
        let _ = m.access(0, 0, 64, 0);
        // SM 1 misses its own L1; hits L2 (filled by SM 0's access), so
        // to exercise the L2 MSHR we need the L2 probe itself to miss —
        // with a 2-line L2, push two other lines through first.
        let _ = m.access(0, 4096, 64, 1);
        let _ = m.access(0, 8192, 64, 2);
        // Now line 0 has been evicted from L2; SM 1 misses L1 and L2.
        let _ = m.access(1, 0, 64, 3);
        let s = m.stats();
        assert!(s.l2_mshr.allocations >= 3);
    }

    #[test]
    fn access_to_line_in_flight_waits_for_the_fill() {
        let mut m = MemoryHierarchy::new(&small_config());
        let fill_done = m.access(0, 0, 64, 0); // cold miss, lands at 254
                                               // A second demand access at cycle 5 cannot beat the fill.
        let t = m.access(0, 0, 64, 5);
        assert_eq!(t, fill_done, "data arrives with the in-flight fill");
        // After the fill lands, accesses are plain L1 hits.
        let t2 = m.access(0, 0, 64, fill_done + 1);
        assert_eq!(t2 - (fill_done + 1), 10);
    }

    #[test]
    fn prefetch_hides_latency_without_blocking() {
        let mut m = MemoryHierarchy::new(&small_config());
        m.prefetch(0, 0, 64, 0, &mut Probe::disabled());
        assert_eq!(m.stats().prefetches, 1);
        assert_eq!(m.stats().dram.requests, 1, "prefetch fetches through DRAM");
        // A demand access long after the prefetch completed: L1 hit.
        let t = m.access(0, 0, 64, 10_000);
        assert_eq!(t - 10_000, 10);
        // A demand access right after the prefetch still waits for the
        // fill, but issues no duplicate DRAM request.
        let mut m2 = MemoryHierarchy::new(&small_config());
        m2.prefetch(0, 4096, 64, 0, &mut Probe::disabled());
        let before = m2.stats().dram.requests;
        let t2 = m2.access(0, 4096, 64, 5);
        assert_eq!(m2.stats().dram.requests, before);
        assert!(t2 > 5 + 10, "fill still in flight");
    }

    #[test]
    fn multi_line_access_completes_with_slowest_line() {
        let mut m = MemoryHierarchy::new(&small_config());
        // Warm one of the two lines.
        let _ = m.access(0, 0, 64, 0);
        let start = 10_000;
        let t = m.access(0, 0, 128, start); // lines 0 (hit) and 1 (cold)
        assert!(t - start > 10, "completion is gated by the cold line");
        assert_eq!(m.stats().l1.accesses, 3);
    }

    #[test]
    fn bandwidth_counters_track_fills() {
        let mut m = MemoryHierarchy::new(&small_config());
        let _ = m.access(0, 0, 64, 0); // cold: 64B over both interfaces
        let _ = m.access(0, 0, 64, 500); // L1 hit: no fill traffic
        let s = m.stats();
        assert_eq!(s.l2_bytes, 64);
        assert_eq!(s.dram_bytes, 64);
        assert!((s.l2_bandwidth(64) - 1.0).abs() < 1e-12);
        assert_eq!(s.dram_bandwidth(0), 0.0);
    }

    #[test]
    fn capacity_miss_returns_to_l2() {
        let mut m = MemoryHierarchy::new(&small_config());
        // L1 holds 4 lines; stream 8 distinct lines then revisit the
        // first: it must have been evicted from L1 but still sit in L2.
        let mut now = 0;
        for l in 0..8u64 {
            now = m.access(0, l * 64, 64, now);
        }
        let before = m.stats();
        let t = m.access(0, 0, 64, now);
        let after = m.stats();
        assert_eq!(after.l1.hits, before.l1.hits, "L1 must miss");
        assert_eq!(after.l2.hits, before.l2.hits + 1, "L2 must hit");
        assert_eq!(t - now, 60);
    }
}
