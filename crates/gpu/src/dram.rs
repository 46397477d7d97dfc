//! Multi-channel DRAM with per-channel queueing and finite bandwidth.

use cooprt_telemetry::{EventKind, Probe};

/// Aggregate DRAM counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramStats {
    /// Number of line requests served.
    pub requests: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Cycles during which at least the busiest channel was transferring
    /// data (sum over channels of their busy cycles).
    pub busy_cycles: u64,
}

/// A DRAM subsystem with `channels` independent channels.
///
/// Each line request is routed to a channel by address; the channel
/// serves requests one at a time at `bytes_per_cycle`, so a burst of
/// requests queues up and the completion time reflects both the access
/// latency and the bandwidth contention — the effect that caps the
/// mobile configuration of Fig. 18.
///
/// # Examples
///
/// ```
/// use cooprt_gpu::Dram;
/// use cooprt_telemetry::Probe;
///
/// let mut dram = Dram::new(1, 32.0, 100);
/// let mut probe = Probe::disabled();
/// let t1 = dram.request(0, 128, 0, &mut probe);
/// // A second request to the same (only) channel queues behind the first.
/// let t2 = dram.request(4096, 128, 0, &mut probe);
/// assert!(t2 > t1);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    /// Cycle until which each channel's data bus is busy.
    busy_until: Vec<u64>,
    bytes_per_cycle: f64,
    latency: u64,
    stats: DramStats,
    channel_busy: Vec<u64>,
}

impl Dram {
    /// Creates a DRAM with `channels` channels, each transferring
    /// `bytes_per_cycle`, with a fixed access `latency` in core cycles.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `bytes_per_cycle <= 0`.
    pub fn new(channels: usize, bytes_per_cycle: f64, latency: u64) -> Self {
        assert!(channels > 0, "at least one DRAM channel required");
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        Dram {
            busy_until: vec![0; channels],
            bytes_per_cycle,
            latency,
            stats: DramStats::default(),
            channel_busy: vec![0; channels],
        }
    }

    /// Issues a line fill of `bytes` at address `addr` at time `now`;
    /// returns the completion cycle. The channel-busy interval is
    /// emitted through `probe`.
    pub fn request(&mut self, addr: u64, bytes: u32, now: u64, probe: &mut Probe) -> u64 {
        let ch = self.channel_of(addr);
        let service = (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        let start = now.max(self.busy_until[ch]);
        let done = start + self.latency + service;
        // The data bus is occupied for the transfer; the fixed latency
        // (activation + CAS) pipelines with other requests.
        self.busy_until[ch] = start + service;
        self.stats.requests += 1;
        self.stats.bytes += bytes as u64;
        self.stats.busy_cycles += service;
        self.channel_busy[ch] += service;
        probe.emit(now, || EventKind::DramBusy {
            channel: ch as u32,
            start,
            service,
            bytes,
        });
        done
    }

    /// Channel index a given address maps to (line interleaving).
    pub fn channel_of(&self, addr: u64) -> usize {
        // Interleave at 256B granularity across channels.
        ((addr >> 8) % self.busy_until.len() as u64) as usize
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.busy_until.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Fraction of total channel-cycles spent transferring over an
    /// elapsed window of `total_cycles` (the §7.4 "DRAM utilization").
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.stats.busy_cycles as f64 / (total_cycles * self.channels() as u64) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_applies_to_isolated_request() {
        let mut d = Dram::new(2, 32.0, 100);
        let done = d.request(0, 128, 1000, &mut Probe::disabled());
        assert_eq!(done, 1000 + 100 + 4);
    }

    #[test]
    fn same_channel_requests_queue() {
        let mut d = Dram::new(1, 32.0, 100);
        let t1 = d.request(0, 128, 0, &mut Probe::disabled());
        let t2 = d.request(1 << 20, 128, 0, &mut Probe::disabled());
        assert_eq!(t1, 104);
        // Second transfer starts when the bus frees at cycle 4.
        assert_eq!(t2, 4 + 104);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = Dram::new(2, 32.0, 100);
        let a = d.request(0, 128, 0, &mut Probe::disabled()); // channel 0
        let b = d.request(256, 128, 0, &mut Probe::disabled()); // channel 1
        assert_eq!(a, b, "parallel channels see no queueing");
    }

    #[test]
    fn channel_mapping_interleaves() {
        let d = Dram::new(4, 32.0, 100);
        assert_eq!(d.channel_of(0), 0);
        assert_eq!(d.channel_of(256), 1);
        assert_eq!(d.channel_of(512), 2);
        assert_eq!(d.channel_of(1024), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Dram::new(2, 64.0, 50);
        d.request(0, 128, 0, &mut Probe::disabled());
        d.request(256, 256, 0, &mut Probe::disabled());
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes, 384);
        assert_eq!(s.busy_cycles, 2 + 4);
    }

    #[test]
    fn utilization_is_fraction_of_channel_cycles() {
        let mut d = Dram::new(2, 32.0, 0);
        d.request(0, 320, 0, &mut Probe::disabled()); // 10 busy cycles on channel 0
        assert!((d.utilization(10) - 0.5).abs() < 1e-12);
        assert_eq!(d.utilization(0), 0.0);
    }

    #[test]
    fn saturated_channel_pushes_completions_out() {
        let mut d = Dram::new(1, 8.0, 10);
        let mut last = 0;
        for i in 0..10 {
            last = d.request(i << 20, 128, 0, &mut Probe::disabled());
        }
        // 10 requests x 16 service cycles each, fully serialized.
        assert_eq!(last, 9 * 16 + 10 + 16);
    }

    #[test]
    #[should_panic(expected = "at least one DRAM channel")]
    fn zero_channels_rejected() {
        let _ = Dram::new(0, 1.0, 1);
    }
}
