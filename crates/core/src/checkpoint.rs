//! Crash-consistent checkpoints: [`Db::checkpoint`] materializes a frozen,
//! openable copy of the database into a fresh directory.
//!
//! # Protocol
//!
//! A checkpoint is taken in two phases per shard:
//!
//! 1. **Under the shard-spanning capture gate** (the same protocol as a
//!    shard-spanning [`Snapshot`](crate::Snapshot) —
//!    `snapshot::capture_all_shards`): the commit pipeline is drained, the
//!    watermark seqno sits on a commit-group boundary, and the shard's
//!    *mutable* log state is captured — the active commit log's current
//!    prefix is **copied** byte-for-byte (it keeps growing the moment the
//!    gate opens, so a hard link would capture future bytes), and each sealed
//!    but unflushed memtable's log is hard-linked (these are immutable, but
//!    they are *not* version-pinned, so they must be captured while the WAL
//!    lock blocks the collector). The shard's version is pinned and its
//!    manifest counters recorded.
//! 2. **After the gate releases**: every file the pinned version references —
//!    tables, CL indexes, backing commit logs — is hard-linked into the
//!    checkpoint (the pin keeps them alive; links survive any later primary
//!    deletion), and a fresh single-snapshot manifest plus `CURRENT` pointer
//!    are written describing exactly the captured state.
//!
//! Every hard link falls back to a byte copy per file when linking fails —
//! a checkpoint directory on a different filesystem (`EXDEV`) degrades to a
//! copy, it does not fail midway. The split is observable as
//! `checkpoint_files_linked` / `checkpoint_files_copied` in [`Stats`].
//!
//! # Partial checkpoints are detectable
//!
//! The first file created in the target directory is a `CHECKPOINT-PENDING`
//! marker; it is removed only after every shard's manifest (and, on a sharded
//! database, the root `SHARDS` marker — written last) is in place. A crash or
//! injected failure mid-checkpoint (`checkpoint.after_link`,
//! `checkpoint.before_manifest`, `checkpoint.link` failpoints) therefore
//! leaves the marker behind: [`Db::open`] refuses such a directory with
//! [`Error::Corruption`], and the caller can delete the directory wholesale.
//! The primary is never mutated by a checkpoint, failed or not
//! (`engine_checkpoint::checkpoints_leave_the_primarys_files_untouched`).
//!
//! All filesystem mutation in this module lives in the helpers at the end of
//! the file. `link_or_copy` is the only code in the workspace allowed to call
//! `std::fs::hard_link` or `std::fs::copy` (clippy's `disallowed-methods`).
//!
//! [`Stats`]: triad_common::Stats

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use triad_common::failpoint::{Failpoint, FailpointRegistry};
use triad_common::types::SeqNo;
use triad_common::{Error, Result, Stats};
use triad_wal::log_file_name;

use crate::db::{Db, DbInner, PinnedVersion, WalState};
use crate::manifest::VersionSet;
use crate::snapshot::{capture_all_shards, Snapshot};

/// Name of the in-progress marker file. Present in a checkpoint directory
/// only while the checkpoint is being built; a directory that still has it
/// is a partial checkpoint and is refused by [`Db::open`].
pub(crate) const PENDING_MARKER: &str = "CHECKPOINT-PENDING";

/// What phase 1 captured for one shard, consumed by phase 2.
struct ShardCapture {
    /// The shard's commit-group-boundary watermark seqno.
    seqno: SeqNo,
    /// Keeps every file of the captured version on disk until phase 2 is done.
    pin: PinnedVersion,
    /// The primary's file-number counter at capture; every captured file id
    /// is below it, so the checkpoint's manifest takes this id conflict-free.
    next_file_number: u64,
    /// The primary's replay horizon at capture: the copied active-log prefix
    /// and the linked sealed logs sit at or past it, so opening the
    /// checkpoint replays exactly them.
    log_number: u64,
    /// The checkpoint directory of this shard.
    shard_dir: PathBuf,
    /// The shard's own (primary) directory, the link/copy source.
    shard_root: PathBuf,
}

impl Db {
    /// Writes a crash-consistent checkpoint of the entire database into
    /// `dir`, which must be empty or absent, and returns a [`Snapshot`]
    /// pinned at exactly the checkpoint's cut.
    ///
    /// The checkpoint directory is a self-contained database: opening it with
    /// [`Db::open`] recovers precisely the state the returned snapshot reads
    /// — the same commit-group (and cross-shard batch) boundaries, taken
    /// under the shard-spanning capture gate while concurrent writers keep
    /// committing. Files shared with the primary are hard-linked where the
    /// filesystem allows and copied otherwise, so a checkpoint onto a
    /// different filesystem works per file rather than failing midway.
    ///
    /// A checkpoint that fails partway (crash, injected failpoint, I/O
    /// error) leaves a `CHECKPOINT-PENDING` marker in `dir`; [`Db::open`]
    /// refuses the directory and the caller may simply remove it. The
    /// primary is never mutated.
    ///
    /// To seed a [`Replica`](crate::Replica) from the checkpoint, call
    /// [`Db::hold_wal_for_replication`] first so the primary retains the
    /// logs the follower will need to catch up.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<Snapshot> {
        let dir = dir.as_ref();
        prepare_target(dir)?;

        let sharded = self.shards.len() > 1;
        let (snapshot, captures) =
            capture_all_shards(&self.shards, &self.router, |index, shard, wal| {
                let shard_dir = if sharded {
                    dir.join(crate::shard::dir_name(index))
                } else {
                    dir.to_path_buf()
                };
                capture_shard_locked(&shard.inner, wal, shard_dir, &self.failpoints)
            })?;

        // Phase 2, off the gate: writers are running again; the version pins
        // keep every referenced file alive until its link lands.
        for capture in &captures {
            finish_shard(capture, &self.shards[0].inner.stats, &self.failpoints)?;
        }
        if sharded {
            crate::shard::write_marker(dir, self.shards.len())?;
        }
        finalize_target(dir)?;
        self.shards[0].inner.stats.add_checkpoints_created(1);
        Ok(snapshot)
    }
}

/// Phase 1 for one shard. Runs with the shard's WAL lock held and its commit
/// pipeline drained (inside the snapshot gate), so the active log cannot
/// rotate, the sealed list cannot change, and the collector — which takes the
/// WAL lock — cannot delete a sealed log out from under the link.
fn capture_shard_locked(
    inner: &DbInner,
    wal: &mut WalState,
    shard_dir: PathBuf,
    failpoints: &FailpointRegistry,
) -> Result<ShardCapture> {
    create_dir(&shard_dir)?;

    // Push buffered appends to the OS so the prefix copy below reads every
    // appended byte. Drained pipeline ⇒ every appended record is published,
    // so the whole prefix sits at or below the watermark seqno.
    wal.writer.flush()?;
    let active_len = wal.writer.size();
    let active = log_file_name(wal.id);
    copy_prefix(&inner.path.join(&active), &shard_dir.join(&active), active_len, &inner.stats)?;

    // Sealed-but-unflushed logs: immutable, but only the imm list (not any
    // version) protects them, hence captured under the lock. A hard link
    // keeps the inode alive even after the primary flushes and deletes them.
    for imm in inner.imm.read().iter() {
        let name = log_file_name(imm.wal_id);
        link_or_copy(&inner.path.join(&name), &shard_dir.join(&name), &inner.stats, failpoints)?;
    }

    // Retained batch-stamp evidence logs: sub-horizon logs the retention
    // registry keeps on disk because they hold the last proof that an
    // in-flight cross-shard batch committed everywhere (`stamps.rs`). A
    // reopen of this checkpoint re-reads them as evidence, exactly like
    // crash recovery on the primary would. Captured under the WAL lock (the
    // collector takes it too, so nothing is deleted mid-link); the `exists`
    // guard keeps a log that doubles as the active or a sealed log from
    // clobbering the prefix copy above.
    for log_id in inner.stamps.retained_logs(inner.shard_index) {
        let name = log_file_name(log_id);
        let dst = shard_dir.join(&name);
        if dst.exists() {
            continue;
        }
        link_or_copy(&inner.path.join(&name), &dst, &inner.stats, failpoints)?;
    }

    let (next_file_number, log_number) = {
        let versions = inner.versions.lock();
        (versions.next_file_number(), versions.log_number())
    };
    Ok(ShardCapture {
        seqno: inner.last_seqno.load(Ordering::Acquire),
        pin: inner.pin_current_version(),
        next_file_number,
        log_number,
        shard_dir,
        shard_root: inner.path.clone(),
    })
}

/// Phase 2 for one shard: link (or copy) every version-referenced file, then
/// write the checkpoint's manifest and `CURRENT` pointer.
fn finish_shard(
    capture: &ShardCapture,
    stats: &Stats,
    failpoints: &FailpointRegistry,
) -> Result<()> {
    for name in capture.pin.referenced_file_names() {
        let dst = capture.shard_dir.join(&name);
        // Belt and braces: never clobber a file phase 1 already materialized.
        if dst.exists() {
            continue;
        }
        link_or_copy(&capture.shard_root.join(&name), &dst, stats, failpoints)?;
    }
    failpoints.check(Failpoint::CheckpointAfterLink)?;
    failpoints.check(Failpoint::CheckpointBeforeManifest)?;
    VersionSet::write_snapshot_manifest(
        &capture.shard_dir,
        capture.pin.version(),
        capture.next_file_number,
        capture.seqno,
        capture.log_number,
    )
}

// Filesystem mutation: every write a checkpoint performs lives below, so the
// feature's whole on-disk footprint is auditable in one place. Nothing here
// ever touches a primary-owned path destructively: the only targets are the
// fresh checkpoint directory and the pending marker.

/// Validates the target directory (must be empty or absent) and drops the
/// `CHECKPOINT-PENDING` marker into it before anything else.
fn prepare_target(dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::io(format!("creating checkpoint directory {}", dir.display()), e))?;
    let mut entries = std::fs::read_dir(dir)
        .map_err(|e| Error::io(format!("listing checkpoint directory {}", dir.display()), e))?;
    if entries.next().is_some() {
        return Err(Error::InvalidArgument(format!(
            "checkpoint target {} is not empty",
            dir.display()
        )));
    }
    let marker = dir.join(PENDING_MARKER);
    let file = File::create(&marker)
        .map_err(|e| Error::io(format!("creating {}", marker.display()), e))?;
    file.sync_all().map_err(|e| Error::io(format!("syncing {}", marker.display()), e))
}

/// Removes the pending marker — the checkpoint's commit point: from here on
/// the directory is a complete, openable database.
// The marker belongs to the checkpoint directory, never to a live version.
#[allow(clippy::disallowed_methods)]
fn finalize_target(dir: &Path) -> Result<()> {
    let marker = dir.join(PENDING_MARKER);
    std::fs::remove_file(&marker)
        .map_err(|e| Error::io(format!("removing {}", marker.display()), e))
}

/// Creates one shard's checkpoint directory.
fn create_dir(dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::io(format!("creating checkpoint shard directory {}", dir.display()), e))
}

/// Hard-links `src` to `dst`, falling back to a full byte copy when the link
/// fails (different filesystem, or a filesystem without hard links). The
/// `checkpoint.link` failpoint forces the fallback, simulating `EXDEV`.
// The one place engine files are linked or copied: `src` is a primary file,
// `dst` a path inside the fresh checkpoint directory.
#[allow(clippy::disallowed_methods)]
fn link_or_copy(
    src: &Path,
    dst: &Path,
    stats: &Stats,
    failpoints: &FailpointRegistry,
) -> Result<()> {
    if failpoints.check(Failpoint::CheckpointLink).is_ok() && std::fs::hard_link(src, dst).is_ok() {
        stats.add_checkpoint_files_linked(1);
        return Ok(());
    }
    std::fs::copy(src, dst)
        .map_err(|e| Error::io(format!("copying {} to {}", src.display(), dst.display()), e))?;
    sync_file(dst)?;
    stats.add_checkpoint_files_copied(1);
    Ok(())
}

/// Copies exactly the first `len` bytes of `src` to `dst` and syncs the copy.
/// Used for the active commit log, whose tail keeps growing on the primary:
/// the captured prefix must end at the drained-pipeline boundary.
fn copy_prefix(src: &Path, dst: &Path, len: u64, stats: &Stats) -> Result<()> {
    let file = File::open(src)
        .map_err(|e| Error::io(format!("opening {} for checkpoint", src.display()), e))?;
    let mut bytes = Vec::with_capacity(len as usize);
    file.take(len)
        .read_to_end(&mut bytes)
        .map_err(|e| Error::io(format!("reading {} for checkpoint", src.display()), e))?;
    if (bytes.len() as u64) < len {
        return Err(Error::corruption_at(
            format!("active commit log shorter than its flushed size ({} < {len})", bytes.len()),
            src,
        ));
    }
    std::fs::write(dst, &bytes)
        .map_err(|e| Error::io(format!("writing checkpoint log {}", dst.display()), e))?;
    sync_file(dst)?;
    stats.add_checkpoint_files_copied(1);
    Ok(())
}

/// Fsyncs a freshly copied checkpoint file.
fn sync_file(path: &Path) -> Result<()> {
    File::open(path)
        .and_then(|file| file.sync_all())
        .map_err(|e| Error::io(format!("syncing checkpoint file {}", path.display()), e))
}
