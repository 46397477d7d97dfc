//! GPU memory-hierarchy and power substrate for the CoopRT reproduction.
//!
//! The paper evaluates CoopRT inside Vulkan-sim / GPGPU-sim, whose memory
//! system (per-SM L1, shared L2 over a crossbar, multi-channel DRAM) and
//! GpuWattch power model are the substrate for every result. This crate
//! rebuilds that substrate:
//!
//! - [`Cache`] — set-associative / fully-associative LRU caches with the
//!   paper's Table 1 parameters;
//! - [`Dram`] — a multi-channel DRAM model with per-channel queueing and
//!   finite bandwidth (the bottleneck in the mobile configuration of
//!   Fig. 18);
//! - [`MemoryHierarchy`] — the L1 → L2 → DRAM path that node fetches
//!   travel, with the bandwidth counters behind Fig. 12 and the miss
//!   rates behind Fig. 16;
//! - [`PowerModel`] — a GpuWattch-style event-energy + leakage model
//!   behind the power/energy/EDP results of Figs. 9, 15 and 18.
//!
//! # Examples
//!
//! ```
//! use cooprt_gpu::{MemoryConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(&MemoryConfig::rtx2060_like(2));
//! // A cold access goes L1 -> L2 -> DRAM.
//! let t1 = mem.access(0, 0x1000, 64, 0);
//! // Re-accessing the same line hits in L1 and is much faster.
//! let t2 = mem.access(0, 0x1000, 64, t1) - t1;
//! assert!(t2 < t1);
//! ```

mod cache;
mod config;
mod dram;
mod hierarchy;
mod mshr;
mod power;

pub use cache::{Cache, CacheStats};
pub use config::MemoryConfig;
pub use dram::{Dram, DramStats};
pub use hierarchy::{MemStats, MemoryHierarchy};
pub use mshr::{Mshr, MshrStats};
pub use power::{EnergyEvents, EnergyReport, PowerModel};
