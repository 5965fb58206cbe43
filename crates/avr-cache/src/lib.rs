//! Cache structures for the AVR reproduction.
//!
//! * [`set_assoc`] — a conventional set-associative write-back cache used
//!   for the private L1/L2 levels and the baseline LLC. The simulator keeps
//!   data in a central backing store, so caches track only presence,
//!   dirtiness and recency.
//! * [`llc`] — the decoupled AVR last-level cache (paper §3.4, Fig. 6):
//!   a block-granularity tag array, a line-granularity data array and the
//!   back-pointer array tying them together; it co-locates uncompressed
//!   cachelines (UCL) and compressed memory sub-blocks (CMS).
//! * [`cmt`] — the Compression Metadata Table (paper §3.2, Fig. 3) and its
//!   on-chip cache.
//! * [`dbuf`] — the decompressed-block buffer.
//! * [`pfe`] — the prefetch engine deciding which DBUF lines to save.

pub mod cmt;
pub mod dbuf;
pub mod llc;
pub mod pfe;
pub mod set_assoc;

pub use cmt::{CmtCache, CmtEntry, CmtTable};
pub use dbuf::Dbuf;
pub use llc::{AvrLlc, ClMask, Evicted};
pub use pfe::PrefetchEngine;
pub use set_assoc::{CacheStats, Eviction, Lookup, SetAssocCache, Victim};
