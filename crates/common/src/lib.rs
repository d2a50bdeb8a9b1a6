//! Shared building blocks for the TRIAD log-structured key-value store.
//!
//! This crate holds the pieces that every other crate in the workspace needs:
//!
//! * [`error`] — the common [`error::Error`] / [`error::Result`] types.
//! * [`types`] — user keys, sequence numbers, value kinds and the internal key
//!   encoding used by SSTables and the commit log.
//! * [`varint`] — LEB128-style variable-length integer encoding.
//! * [`checksum`] — a software CRC32C implementation used to frame on-disk records.
//! * [`stats`] — the atomic statistics registry from which write amplification,
//!   read amplification and background-I/O time are derived.
//! * [`hist`] — a fixed-bucket HDR-style latency histogram for the benches.
//! * [`retention`] — the snapshot registry telling the memtable which
//!   superseded versions MVCC snapshots can still see.
//! * [`failpoint`] — a tiny failure-injection facility used by recovery tests.
//! * [`lockrank`] — rank-checked lock wrappers that turn lock-order
//!   violations into debug-build panics.
//!
//! Nothing in this crate performs I/O or spawns threads; it is deliberately the
//! leaf of the dependency graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod failpoint;
pub mod hist;
pub mod lockrank;
pub mod retention;
pub mod stats;
pub mod types;
pub mod varint;

pub use error::{Error, Result};
pub use hist::LatencyHistogram;
pub use lockrank::{allow_equal_rank, EqualRankScope, RankedMutex, RankedRwLock};
pub use retention::SnapshotRetention;
pub use stats::{StatSnapshot, Stats};
pub use types::{InternalKey, SeqNo, ValueKind};
