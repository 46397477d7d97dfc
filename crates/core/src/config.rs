//! GPU and RT-unit configuration (Table 1 of the paper).

use crate::predictor::PredictPolicy;
use crate::reorder::{ReorderPolicy, DEFAULT_REORDER_BUCKETS};
use cooprt_gpu::{MemoryConfig, PowerModel};

/// Warp width — 32 threads, lock-step (§2.2).
pub const WARP_SIZE: usize = 32;

/// Which traversal policy the RT unit runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraversalPolicy {
    /// The baseline RT unit: every thread traverses only its own ray
    /// (Algorithm 1).
    #[default]
    Baseline,
    /// CoopRT: the Load Balancing Unit lets idle threads steal nodes
    /// from busy threads' traversal stacks (Algorithm 2).
    CoopRt,
}

impl TraversalPolicy {
    /// Short label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            TraversalPolicy::Baseline => "baseline",
            TraversalPolicy::CoopRt => "cooprt",
        }
    }

    /// Parses a [`TraversalPolicy::label`] back to the policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "baseline" => Some(TraversalPolicy::Baseline),
            "cooprt" => Some(TraversalPolicy::CoopRt),
            _ => None,
        }
    }
}

/// Full configuration of the simulated GPU.
///
/// Defaults mirror Table 1 (`SM75_RTX2060`): 30 SMs, one RT unit per SM,
/// a 4-entry RT warp buffer, 32 thread blocks per SM, and the Table 1
/// memory system. [`GpuConfig::mobile`] gives the §7.4 mobile part.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Memory system parameters.
    pub mem: MemoryConfig,
    /// RT-unit warp buffer entries (Table 1: 4).
    pub warp_buffer_size: usize,
    /// Maximum resident thread blocks per SM (Table 1: 32). Each TB is
    /// one warp, the Vulkan-sim default.
    pub max_tbs_per_sm: usize,
    /// Subwarp scope of the Load Balancing Unit: only threads within the
    /// same subwarp may help each other. `32` = whole-warp cooperation
    /// (the paper's default); §7.5 explores 4, 8 and 16.
    pub subwarp_size: usize,
    /// Latency of the per-thread math units (coordinate transform +
    /// intersection tests), core cycles.
    pub math_latency: u64,
    /// Cycles the raygen shader spends computing the primary ray.
    pub raygen_cycles: u64,
    /// Per-bounce shading cost attributed to ALU instructions, cycles.
    pub shade_alu_cycles: u64,
    /// Per-bounce shading cost attributed to load/store instructions
    /// (hit-record reads, color stores), cycles.
    pub shade_mem_cycles: u64,
    /// Per-bounce shading cost attributed to SFU instructions
    /// (normalize / sqrt / trig), cycles.
    pub shade_sfu_cycles: u64,
    /// Path-tracing bounce budget (§2.1: 16 in this study).
    pub max_bounces: u32,
    /// Ambient-occlusion rays per shaded pixel.
    pub ao_samples: u32,
    /// Maximum AO ray length (world units) — AO rays are short and
    /// localized (§7.3).
    pub ao_radius: f32,
    /// Shadow rays per shaded pixel.
    pub sh_samples: u32,
    /// Node transfers the LBU performs per subwarp per cycle (the
    /// paper's hardware moves exactly one; the `ablations` figure
    /// sweeps this).
    pub lbu_moves_per_cycle: u32,
    /// Ray reordering ahead of warp formation (Meister et al.): sort
    /// pending rays by a spatial coherence key before packing them into
    /// warps, at first-wave formation and — with
    /// [`GpuConfig::compaction`] — at every between-wave re-packing.
    /// The third policy axis, orthogonal to [`TraversalPolicy`]:
    /// timing-only, never results (images stay bitwise identical to
    /// [`ReorderPolicy::Off`]).
    pub reorder: ReorderPolicy,
    /// Bucket count of the reordering counting sort. Must be non-zero
    /// when [`GpuConfig::reorder`] is enabled (typed
    /// [`ConfigError`](crate::ConfigError) at the simulation entry
    /// points).
    pub reorder_buckets: usize,
    /// Hash-based ray-path prediction (Demoullin et al.): any-hit
    /// traversals start at a predicted BVH entry node and walk up one
    /// parent level at a time on a subtree miss (go-up-level fallback),
    /// so occlusion outcomes — and therefore images — are bitwise
    /// identical to [`PredictPolicy::Off`]. The fourth policy axis,
    /// orthogonal to [`TraversalPolicy`], [`GpuConfig::reorder`] and
    /// compaction. Unlike reordering this one changes real
    /// traversal *work* (node fetches flow through the same L1/MSHR
    /// path), so cycle counts move; images never do.
    pub predict: PredictPolicy,
    /// Entries in the per-SM ray-path prediction table (direct-mapped).
    ///
    /// Must be non-zero when [`GpuConfig::predict`] is enabled —
    /// rejected with a typed
    /// [`ConfigError::ZeroPredictorEntries`](crate::ConfigError) at
    /// every simulation entry point. Any non-zero size is
    /// valid — the table index is a splitmix64-finalized signature
    /// reduced modulo this size, so non-power-of-two sizes distribute
    /// uniformly too (pinned by the predictor's distribution test);
    /// powers of two merely match the hardware-cost model of the
    /// original technique.
    pub predictor_entries: usize,
    /// Active-thread compaction (Wald, HPG'11), the software technique
    /// the paper contrasts with in §3/§8.1: between bounces, threads
    /// with live rays are re-packed into fewer, denser warps. Addresses
    /// *inactive* threads but not *early finishers* — the `ext_compaction`
    /// bench reproduces that argument. Execution becomes wave-synchronous
    /// (one `trace_ray` per warp per wave).
    pub compaction: bool,
    /// Cycles charged between waves for the compaction pass / relaunch.
    pub compaction_overhead_cycles: u64,
    /// Child-node prefetching: when an internal node is processed, the
    /// surviving children's lines are prefetched. A simple stand-in for
    /// the treelet prefetcher the paper discusses in §8.2 — useful when
    /// bandwidth is abundant, counterproductive once CoopRT saturates it
    /// (the `ext_prefetch` bench quantifies the interaction).
    pub prefetch_children: bool,
    /// Eliminate child nodes whose AABB entry distance is not closer
    /// than the current `min_thit` (Algorithm 1 line 8). Disabling this
    /// (in the `ablations` figure) quantifies how much pruning saves.
    pub node_elimination: bool,
    /// Interval-sampling period, cycles (the paper samples
    /// AerialVision stats every 500 cycles).
    pub sample_interval: u64,
    /// Power model for energy/EDP reporting.
    pub power: PowerModel,
}

impl GpuConfig {
    /// The desktop configuration of Table 1.
    pub fn rtx2060() -> Self {
        GpuConfig {
            mem: MemoryConfig::rtx2060_like(30),
            warp_buffer_size: 4,
            max_tbs_per_sm: 32,
            subwarp_size: WARP_SIZE,
            math_latency: 12,
            raygen_cycles: 60,
            shade_alu_cycles: 30,
            shade_mem_cycles: 90,
            shade_sfu_cycles: 15,
            max_bounces: 16,
            ao_samples: 4,
            ao_radius: 2.5,
            sh_samples: 2,
            lbu_moves_per_cycle: 1,
            reorder: ReorderPolicy::Off,
            reorder_buckets: DEFAULT_REORDER_BUCKETS,
            predict: PredictPolicy::Off,
            predictor_entries: 1024,
            compaction: false,
            compaction_overhead_cycles: 300,
            prefetch_children: false,
            node_elimination: true,
            sample_interval: 500,
            power: PowerModel::gpuwattch_like(),
        }
    }

    /// The §7.4 mobile configuration: 8 SMs, 4 memory channels.
    pub fn mobile() -> Self {
        GpuConfig {
            mem: MemoryConfig::mobile_like(8),
            ..Self::rtx2060()
        }
    }

    /// A scaled-down desktop config for unit tests: `sms` SMs, same
    /// relative parameters.
    pub fn small(sms: usize) -> Self {
        GpuConfig {
            mem: MemoryConfig::rtx2060_like(sms),
            ..Self::rtx2060()
        }
    }

    /// Returns a copy with a different RT warp buffer size (Fig. 13
    /// sweep).
    pub fn with_warp_buffer(mut self, entries: usize) -> Self {
        assert!(entries > 0, "warp buffer needs at least one entry");
        self.warp_buffer_size = entries;
        self
    }

    /// Returns a copy with a different LBU subwarp scope (Fig. 19
    /// sweep).
    ///
    /// # Panics
    ///
    /// Panics unless `size` is one of 4, 8, 16 or 32.
    pub fn with_subwarp(mut self, size: usize) -> Self {
        assert!(
            matches!(size, 4 | 8 | 16 | 32),
            "subwarp size must be 4, 8, 16 or 32 (got {size})"
        );
        self.subwarp_size = size;
        self
    }

    /// Returns a copy with a different ray-reordering policy (the
    /// bench matrix's third axis).
    pub fn with_reorder(mut self, policy: ReorderPolicy) -> Self {
        self.reorder = policy;
        self
    }

    /// Returns a copy with a different ray-path prediction policy (the
    /// bench matrix's fourth axis).
    pub fn with_predict(mut self, policy: PredictPolicy) -> Self {
        self.predict = policy;
        self
    }

    /// Number of SMs (each with one RT unit).
    pub fn sm_count(&self) -> usize {
        self.mem.sm_count
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::rtx2060()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = GpuConfig::rtx2060();
        assert_eq!(c.sm_count(), 30);
        assert_eq!(c.warp_buffer_size, 4);
        assert_eq!(c.max_tbs_per_sm, 32);
        assert_eq!(c.subwarp_size, 32);
        assert_eq!(c.max_bounces, 16);
    }

    #[test]
    fn mobile_is_smaller() {
        let m = GpuConfig::mobile();
        assert_eq!(m.sm_count(), 8);
        assert_eq!(m.mem.dram_channels, 4);
    }

    #[test]
    fn sweep_helpers() {
        let c = GpuConfig::rtx2060().with_warp_buffer(16).with_subwarp(8);
        assert_eq!(c.warp_buffer_size, 16);
        assert_eq!(c.subwarp_size, 8);
    }

    #[test]
    #[should_panic(expected = "subwarp size")]
    fn bad_subwarp_rejected() {
        let _ = GpuConfig::rtx2060().with_subwarp(5);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(TraversalPolicy::Baseline.label(), "baseline");
        assert_eq!(TraversalPolicy::CoopRt.label(), "cooprt");
        assert_eq!(TraversalPolicy::default(), TraversalPolicy::Baseline);
    }

    #[test]
    fn policy_parse_inverts_label() {
        for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
            assert_eq!(TraversalPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(TraversalPolicy::parse("coop"), None);
    }

    #[test]
    fn reorder_axis_defaults_off_with_buckets() {
        let c = GpuConfig::rtx2060();
        assert_eq!(c.reorder, ReorderPolicy::Off);
        assert_eq!(c.reorder_buckets, DEFAULT_REORDER_BUCKETS);
        let m = c.with_reorder(ReorderPolicy::Morton);
        assert_eq!(m.reorder, ReorderPolicy::Morton);
    }

    #[test]
    fn predict_axis_defaults_off_with_entries() {
        let c = GpuConfig::rtx2060();
        assert_eq!(c.predict, PredictPolicy::Off);
        assert_eq!(c.predictor_entries, 1024);
        let p = c.with_predict(PredictPolicy::RayPath);
        assert_eq!(p.predict, PredictPolicy::RayPath);
    }
}
