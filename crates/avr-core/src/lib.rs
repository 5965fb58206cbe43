//! The AVR architecture (paper §3) assembled into runnable full systems,
//! plus the four comparison designs of §4.1.
//!
//! The crate's central type is [`System`]: an execution-driven simulator of
//! one core with an L1/L2/LLC hierarchy, a DDR4 main memory, and —
//! depending on [`avr_types::DesignKind`] — the AVR compressor/decompressor
//! layer, CMT, DBUF and prefetch engine between the LLC and the memory
//! controller (Fig. 1).
//!
//! Workloads drive a system through the [`Vm`] trait — word accesses,
//! batched/strided/gathered bulk transfers, compute accounting — and the
//! system produces a [`avr_sim::RunMetrics`] with every statistic the
//! paper's tables and figures need. [`System`] serves the bulk operations
//! through cacheline-coalesced fast paths that are bit-identical (values,
//! timing, traffic) to the word-at-a-time decomposition.

pub mod avr_ops;
pub mod design;
pub mod layout;
pub mod memo;
pub mod overhead;
pub mod pool;
pub mod summary;
pub mod system;
pub mod vm_api;

pub use design::{policy_for, DesignPolicy};
pub use layout::{
    FieldSpec, FieldType, FieldView, Layout, LayoutMap, PlacementPolicy, RecordSchema, SoaGrouping,
};
pub use overhead::OverheadReport;
pub use pool::{JobCtx, PoolControl, SimPool};
pub use system::System;
pub use vm_api::{ExactVm, Vm, WordAtATime};

pub use avr_sim::vm::RegionOpts;
pub use avr_types::{BackendKind, DesignKind, ErrorModelParams, LayoutKind, SystemConfig};
