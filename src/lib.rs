//! # TRIAD
//!
//! A from-scratch Rust reproduction of *TRIAD: Creating Synergies Between Memory,
//! Disk and Log in Log-Structured Key-Value Stores* (Balmau et al., USENIX ATC '17).
//!
//! This façade crate re-exports the public API of the engine ([`triad_core`]) and
//! the workload generators ([`triad_workload`]) so that applications can depend on a
//! single crate:
//!
//! ```no_run
//! use triad::{Db, Options};
//!
//! let db = Db::open("/tmp/triad-demo", Options::triad()).unwrap();
//! db.put(b"user:1", b"alice").unwrap();
//! assert_eq!(db.get(b"user:1").unwrap().as_deref(), Some(&b"alice"[..]));
//! ```
//!
//! See the `examples/` directory for complete programs and `crates/bench` for the
//! harness that regenerates every figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use triad_common::{Error, Result, StatSnapshot, Stats};
pub use triad_core::{
    Db, DbIterator, Options, Snapshot, SyncMode, TriadConfig, WriteBatch, WriteOptions,
};
pub use triad_workload as workload;

/// The version of the TRIAD reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
