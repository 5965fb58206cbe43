//! Design-agnostic simulation substrate: backing-store memory + virtual
//! address space, the interval-based core model, the energy model, and the
//! statistics plumbing shared by all evaluated designs.

pub mod energy;
pub mod interval;
pub mod stats;
pub mod vm;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use interval::IntervalCore;
pub use stats::{
    Counters, EvictionBreakdown, FaultBreakdown, LlcRequestBreakdown, MemoBreakdown, RunMetrics,
    Traffic,
};
pub use vm::{AddressSpace, PhysMem, Region, RegionOpts};
