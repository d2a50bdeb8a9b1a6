//! The TRIAD LSM key-value store engine.
//!
//! This crate is the primary contribution of the reproduction: a complete
//! leveled-compaction LSM key-value store (memtable, commit log, SSTables, manifest,
//! background flush and compaction) extended with the three TRIAD techniques of
//! Balmau et al. (USENIX ATC '17):
//!
//! * **TRIAD-MEM** — skew-aware flushing: hot keys stay in memory, only cold keys go
//!   to disk (implemented in the private `flush` module using
//!   [`triad_memtable::separate_keys`]).
//! * **TRIAD-DISK** — deferred L0→L1 compaction gated on a HyperLogLog-estimated
//!   key-overlap ratio (implemented in the private `compaction` module).
//! * **TRIAD-LOG** — commit logs double as L0 "CL-SSTables", so flushes write only a
//!   small index instead of re-writing every value (implemented in the private
//!   `flush` module using [`triad_sstable::ClTableBuilder`]).
//!
//! Each technique is individually switchable through [`TriadConfig`], which is how
//! the benchmark harness reproduces the paper's baseline comparison (RocksDB ≈ all
//! three disabled) and the per-technique breakdown of Figures 10 and 11.
//!
//! # Example
//!
//! ```
//! use triad_core::{Db, Options};
//!
//! let dir = std::env::temp_dir().join(format!("triad-doc-{}", std::process::id()));
//! let mut options = Options::small_for_tests();
//! options.triad.enable_all();
//! let db = Db::open(&dir, options).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! db.close().unwrap();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod block_cache;
mod checkpoint;
mod commit;
mod committer;
mod compaction;
mod db;
mod durability;
mod flush;
pub mod iterator;
pub mod manifest;
pub mod options;
mod replica;
mod shard;
pub mod snapshot;
mod stamps;
pub mod table_cache;
pub mod version;

pub use batch::{WriteBatch, WriteOptions};
pub use block_cache::BlockCache;
pub use db::Db;
pub use iterator::DbIterator;
pub use options::{
    BackgroundIoMode, GroupCommitConfig, Options, ShardConfig, SyncMode, TriadConfig,
};
pub use replica::Replica;
pub use snapshot::Snapshot;
pub use version::{FileMetadata, Version, VersionEdit};

pub use triad_common::{Error, Result, StatSnapshot, Stats};
pub use triad_memtable::HotColdPolicy;
