//! A minimal failure-injection facility.
//!
//! Recovery-oriented tests need to interrupt the engine at interesting moments —
//! after the commit log append but before the memtable insert, halfway through a
//! flush, between writing an SSTable and logging it in the manifest, and so on.
//! Components call [`FailpointRegistry::check`] with a [`Failpoint`] at those
//! moments; in production the call is a single relaxed atomic load, while tests
//! arm specific failpoints with [`FailpointRegistry::arm`] to make the call site
//! return an error. Failpoints are enum variants, so a test cannot arm a point
//! the engine does not have.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Declares [`Failpoint`] from one table: each row is a variant, its doc and
/// its dotted name, and the table also generates [`Failpoint::ALL`].
macro_rules! failpoints {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal;)*) => {
        /// Every failure-injection site in the engine.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Failpoint {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Failpoint {
            /// Every failpoint, in declaration order.
            pub const ALL: &'static [Failpoint] = &[$(Failpoint::$variant),*];

            /// The dotted name an injected error carries, e.g. `flush.start`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Failpoint::$variant => $name,)*
                }
            }
        }
    };
}

failpoints! {
    /// Before a write batch reaches the commit log.
    WriteBeforeWalAppend => "write.before_wal_append";
    /// After a commit group's log append, before any memtable insert.
    CommitAfterGroupWalAppend => "commit.after_group_wal_append";
    /// After a durable commit group's log append, before its fsync.
    CommitBeforeGroupWalSync => "commit.before_group_wal_sync";
    /// After one shard's slice of a cross-shard batch committed.
    DbAfterShardCommit => "db.after_shard_commit";
    /// Before TRIAD-MEM rewrites a small memtable into a fresh log.
    RotateSmallFlushSkip => "rotate.small_flush_skip";
    /// After a small-flush skip released its locks, before it fsyncs the new
    /// log and retires the old one.
    RotateSkipBeforeRetire => "rotate.skip_before_retire";
    /// Before a rotation seals the log and the memtable.
    RotateSeal => "rotate.seal";
    /// At the start of a flush.
    FlushStart => "flush.start";
    /// Before a flush writes TRIAD-MEM's hot entries back to the log.
    FlushHotWriteBack => "flush.hot_write_back";
    /// Before a flush writes its table.
    FlushBeforeTableWrite => "flush.before_table_write";
    /// Before a flush logs its version edit.
    FlushBeforeManifest => "flush.before_manifest";
    /// At the start of a compaction.
    CompactionStart => "compaction.start";
    /// After a compaction wrote its outputs, before its version edit.
    CompactionBeforeManifest => "compaction.before_manifest";
    /// Before a checkpoint hard-links a file; failing it forces the copy.
    CheckpointLink => "checkpoint.link";
    /// After a checkpoint linked every file of a shard.
    CheckpointAfterLink => "checkpoint.after_link";
    /// Before a checkpoint writes a shard's manifest.
    CheckpointBeforeManifest => "checkpoint.before_manifest";
}

/// How an armed failpoint behaves when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailpointAction {
    /// Return an [`Error::Injected`] from the call site.
    ReturnError,
    /// Return an error only for the first `n` hits, then behave normally.
    ErrorTimes(u32),
}

#[derive(Debug)]
struct Armed {
    action: FailpointAction,
    hits: u32,
}

/// A registry of armed failpoints.
///
/// Cloning the registry is cheap; clones share the same underlying state.
#[derive(Debug, Clone, Default)]
pub struct FailpointRegistry {
    // Fast path: when `false` no failpoint is armed and `check` avoids the mutex.
    any_armed: Arc<AtomicBool>,
    armed: Arc<Mutex<HashMap<Failpoint, Armed>>>,
}

impl FailpointRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `point` with the given action.
    pub fn arm(&self, point: Failpoint, action: FailpointAction) {
        let mut armed = self.armed.lock();
        armed.insert(point, Armed { action, hits: 0 });
        self.any_armed.store(true, Ordering::SeqCst);
    }

    /// Disarms `point`; does nothing if it was not armed.
    pub fn disarm(&self, point: Failpoint) {
        let mut armed = self.armed.lock();
        armed.remove(&point);
        if armed.is_empty() {
            self.any_armed.store(false, Ordering::SeqCst);
        }
    }

    /// Disarms every failpoint.
    pub fn clear(&self) {
        let mut armed = self.armed.lock();
        armed.clear();
        self.any_armed.store(false, Ordering::SeqCst);
    }

    /// Number of times `point` has been hit since it was armed.
    pub fn hits(&self, point: Failpoint) -> u32 {
        let armed = self.armed.lock();
        armed.get(&point).map(|a| a.hits).unwrap_or(0)
    }

    /// Checks whether `point` should fail at this call site.
    ///
    /// Returns `Ok(())` when the failpoint is not armed (the common case) or when an
    /// `ErrorTimes` budget has been exhausted.
    pub fn check(&self, point: Failpoint) -> Result<()> {
        if !self.any_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut armed = self.armed.lock();
        let Some(entry) = armed.get_mut(&point) else {
            return Ok(());
        };
        entry.hits += 1;
        let fail = match entry.action {
            FailpointAction::ReturnError => true,
            FailpointAction::ErrorTimes(n) => entry.hits <= n,
        };
        if fail {
            Err(Error::Injected(point.name().to_string()))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_failpoints_do_nothing() {
        let registry = FailpointRegistry::new();
        assert!(registry.check(Failpoint::FlushBeforeTableWrite).is_ok());
        assert_eq!(registry.hits(Failpoint::FlushBeforeTableWrite), 0);
    }

    #[test]
    fn armed_failpoint_returns_injected_error() {
        let registry = FailpointRegistry::new();
        registry.arm(Failpoint::WriteBeforeWalAppend, FailpointAction::ReturnError);
        let err = registry.check(Failpoint::WriteBeforeWalAppend).unwrap_err();
        assert!(matches!(err, Error::Injected(name) if name == "write.before_wal_append"));
        assert_eq!(registry.hits(Failpoint::WriteBeforeWalAppend), 1);
        // Other failpoints are unaffected.
        assert!(registry.check(Failpoint::FlushBeforeTableWrite).is_ok());
    }

    #[test]
    fn error_times_budget_is_respected() {
        let registry = FailpointRegistry::new();
        registry.arm(Failpoint::CompactionStart, FailpointAction::ErrorTimes(2));
        assert!(registry.check(Failpoint::CompactionStart).is_err());
        assert!(registry.check(Failpoint::CompactionStart).is_err());
        assert!(registry.check(Failpoint::CompactionStart).is_ok());
        assert_eq!(registry.hits(Failpoint::CompactionStart), 3);
    }

    #[test]
    fn disarm_and_clear() {
        let registry = FailpointRegistry::new();
        registry.arm(Failpoint::FlushStart, FailpointAction::ReturnError);
        registry.arm(Failpoint::RotateSeal, FailpointAction::ReturnError);
        registry.disarm(Failpoint::FlushStart);
        assert!(registry.check(Failpoint::FlushStart).is_ok());
        assert!(registry.check(Failpoint::RotateSeal).is_err());
        registry.clear();
        assert!(registry.check(Failpoint::RotateSeal).is_ok());
    }

    #[test]
    fn clones_share_state() {
        let registry = FailpointRegistry::new();
        let clone = registry.clone();
        registry.arm(Failpoint::CheckpointLink, FailpointAction::ReturnError);
        assert!(clone.check(Failpoint::CheckpointLink).is_err());
    }
}
