//! The durability watermark of the commit pipeline.
//!
//! The write path (`commit.rs`) splits a commit into an *append stage* (under the
//! short append lock: encode, `append_batch`, flush to the OS) and a *sync
//! stage* that runs with no engine-wide lock held. This module is the sync
//! stage's bookkeeping: a monotonic byte watermark over everything commit
//! groups have appended, and a second watermark over what is known durable.
//!
//! Offsets are *cumulative across log rotations* — a virtual clock that only
//! counts commit-group bytes — so a target handed out before a rotation stays
//! comparable after it. A group that needs durability calls
//! [`DurabilityWatermark::ensure_durable`] with the target it received from
//! [`record_append`](DurabilityWatermark::record_append): either the durable
//! watermark already passed it (another group's fsync covered these bytes — the
//! *overlapped* case), or the caller queues on the fsync lock and issues one
//! `fsync` that covers every byte appended (and OS-flushed) to the active log
//! so far, retiring every group in that window at once.
//!
//! Safety argument for the advance: `mark` records, under the append lock, how
//! many cumulative bytes have been appended *and flushed to the OS* for which
//! log. An fsync issued afterwards on that same log's file covers at least
//! those bytes, so advancing `durable` to the mark read just before the
//! `sync_data` call never claims durability for an unsynced byte. Rotations
//! fsync (or delete) the outgoing log with the pipeline drained, then advance
//! `durable` to the full appended watermark.

// lint:allow-file(no-std-sync-lock) `sync_active` pairs with the `waiters`
// Condvar (absent from the vendored parking_lot stand-in), and the fsync lock
// needs try_lock's contended/uncontended distinction with a guard passable to
// `drive_fsync`; all three locks stay private to this module.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use triad_common::Result;
use triad_wal::LogSyncHandle;

use crate::committer::Committer;

/// Upper bound on scheduler yields the fsync-er spends waiting for the append
/// mark to go quiet before issuing the fsync (see `ensure_durable`). Bounds the
/// extra latency a durable write can pay to ~a fraction of an fsync.
const SYNC_QUIESCE_MAX_YIELDS: u32 = 64;

/// How many consecutive quiet observations of the append mark count as "the
/// appends stopped landing": fsync now, covering everyone.
const SYNC_QUIESCE_QUIET: u32 = 2;

/// How a group's durability requirement was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncOutcome {
    /// This call issued the fsync (covering this group and any group appended
    /// behind it before the syscall ran).
    Synced,
    /// The watermark had already passed the target: another in-flight group's
    /// fsync (or a rotation's seal) made these bytes durable — the overlap the
    /// pipeline exists to create.
    AlreadyDurable,
}

/// Cumulative bytes appended to a specific log, as of the last append.
#[derive(Debug, Clone, Copy)]
struct AppendMark {
    log_id: u64,
    appended: u64,
}

/// Tracks which appended commit-log bytes are durable (see the module docs).
#[derive(Debug)]
pub(crate) struct DurabilityWatermark {
    /// Cumulative commit-group bytes known durable.
    durable: AtomicU64,
    /// Cumulative bytes appended + OS-flushed, and the log they went to.
    /// Written under the append lock; read lock-free by the sync stage via this
    /// dedicated mutex so fsyncs never need the append lock.
    mark: Mutex<AppendMark>,
    /// Serializes fsyncs: exactly one group drives the disk at a time; the rest
    /// park on `waiters` and are released in bulk when the watermark advances —
    /// no futex hand-off chain through this mutex.
    fsync_lock: Mutex<()>,
    /// `true` while an fsync is actually in flight; guarded state for `waiters`.
    sync_active: Mutex<bool>,
    /// Parks groups whose durability is owed to an in-flight fsync. One
    /// `notify_all` per watermark advance wakes every covered group at once.
    waiters: std::sync::Condvar,
}

impl DurabilityWatermark {
    pub(crate) fn new(active_log_id: u64) -> Self {
        DurabilityWatermark {
            durable: AtomicU64::new(0),
            mark: Mutex::new(AppendMark { log_id: active_log_id, appended: 0 }),
            fsync_lock: Mutex::new(()),
            sync_active: Mutex::new(false),
            waiters: std::sync::Condvar::new(),
        }
    }

    /// Records `bytes` appended (and flushed to the OS) to `log_id`; returns the
    /// new cumulative watermark — the caller's durability target. Must be called
    /// under the append lock, after the flush succeeded.
    pub(crate) fn record_append(&self, log_id: u64, bytes: u64) -> u64 {
        let mut mark = self.mark.lock().expect("append mark poisoned");
        mark.log_id = log_id;
        mark.appended += bytes;
        mark.appended
    }

    /// Whether every byte up to `target` is known durable.
    pub(crate) fn is_durable(&self, target: u64) -> bool {
        self.durable.load(Ordering::Acquire) >= target
    }

    /// Called under the append lock after a rotation made the outgoing log's
    /// bytes moot (sealed with an fsync, or deleted with its fresh values
    /// rewritten): every previously appended byte is as durable as it will ever
    /// need to be, and future appends go to `new_log_id`. The caller must have
    /// drained the pipeline first, so no group still waits on the old log.
    pub(crate) fn note_rotation(&self, new_log_id: u64) {
        let mut mark = self.mark.lock().expect("append mark poisoned");
        mark.log_id = new_log_id;
        self.durable.fetch_max(mark.appended, Ordering::AcqRel);
    }

    /// Makes every byte up to `target` durable, fsyncing `handle` (the log the
    /// caller appended to) only if no other group's fsync already covered it.
    /// Runs with no engine lock held — this is the call the append lock must
    /// never be held across.
    ///
    /// While the fsync is in flight the `committer` accumulates newly arriving
    /// writers instead of letting each lead a tiny group: their bytes could not
    /// ride this fsync anyway (it only covers what was OS-flushed before the
    /// syscall), so they wait and form one large group the moment it completes.
    pub(crate) fn ensure_durable(
        &self,
        log_id: u64,
        target: u64,
        handle: &LogSyncHandle,
        committer: &Committer,
    ) -> Result<SyncOutcome> {
        loop {
            if self.is_durable(target) {
                return Ok(SyncOutcome::AlreadyDurable);
            }
            match self.fsync_lock.try_lock() {
                Ok(guard) => return self.drive_fsync(log_id, target, handle, committer, guard),
                Err(std::sync::TryLockError::WouldBlock) => {
                    // Another group is driving the disk. Park until the
                    // watermark advances (one notify_all releases every covered
                    // group at once) or the driver retires without covering us,
                    // then re-evaluate.
                    let mut active = self.sync_active.lock().expect("sync state poisoned");
                    while *active && !self.is_durable(target) {
                        active = self.waiters.wait(active).expect("sync state poisoned");
                    }
                    drop(active);
                    // The driver may hold the fsync lock for an instant before
                    // raising the active flag; yield instead of spinning on
                    // that window.
                    std::thread::yield_now();
                }
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("fsync lock poisoned"),
            }
        }
    }

    /// The fsync driver's half of [`ensure_durable`]: quiesce, sync, advance,
    /// release the parked waiters.
    fn drive_fsync(
        &self,
        log_id: u64,
        target: u64,
        handle: &LogSyncHandle,
        committer: &Committer,
        guard: std::sync::MutexGuard<'_, ()>,
    ) -> Result<SyncOutcome> {
        if self.is_durable(target) {
            return Ok(SyncOutcome::AlreadyDurable);
        }
        *self.sync_active.lock().expect("sync state poisoned") = true;
        // Adaptive sync batching: while appends are actively landing (groups
        // released by the previous fsync re-entering, or fresh writers racing
        // in), briefly yield so they finish, and let this one fsync cover them
        // all. Without this, a closed loop of writers degenerates into half the
        // groups just missing every fsync and paying a second one — twice the
        // disk traffic for the same acknowledgements. The wait is bounded and
        // the common quiet case costs two yields.
        let mut mark = *self.mark.lock().expect("append mark poisoned");
        let mut quiet = 0u32;
        for _ in 0..SYNC_QUIESCE_MAX_YIELDS {
            std::thread::yield_now();
            let fresh = *self.mark.lock().expect("append mark poisoned");
            if fresh.appended == mark.appended && fresh.log_id == mark.log_id {
                quiet += 1;
                if quiet >= SYNC_QUIESCE_QUIET {
                    break;
                }
            } else {
                quiet = 0;
                mark = fresh;
            }
        }
        // The mark read is the extent this fsync will cover: every byte it
        // counts is already in the OS page cache for this file, so the sync
        // covers groups appended behind us too. If a rotation changed the log
        // under us (impossible while the caller holds its pipeline gate, but
        // cheap to tolerate), fall back to our own target — under-claiming is
        // always safe.
        let covered = if mark.log_id == log_id { mark.appended } else { target };
        committer.begin_sync();
        let synced = handle.sync();
        committer.end_sync();
        if synced.is_ok() {
            self.durable.fetch_max(covered, Ordering::AcqRel);
        }
        // Clear the active flag and broadcast *while still holding the fsync
        // lock*: only a lock holder ever raises the flag, so clearing here can
        // never stomp a successor driver's `true` (released-lock-first ordering
        // had exactly that race, leaving that driver's waiters busy-spinning
        // for its whole fsync). The woken covered waiters return immediately;
        // an uncovered one yields for the instant between this broadcast and
        // the `guard` drop below, then becomes the next driver. On an fsync
        // error the waiters wake too, find the watermark unmoved, and drive
        // (likely failing) fsyncs of their own — no one is left parked behind a
        // dead driver.
        let mut active = self.sync_active.lock().expect("sync state poisoned");
        *active = false;
        drop(active);
        self.waiters.notify_all();
        drop(guard);
        synced?;
        Ok(SyncOutcome::Synced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_wal::{log_file_path, LogRecord, LogWriter};

    fn temp_writer(name: &str) -> (LogWriter, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("triad-durability-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (LogWriter::create(log_file_path(&dir, 1), 1).unwrap(), dir)
    }

    #[test]
    fn targets_are_cumulative_and_monotonic() {
        let watermark = DurabilityWatermark::new(1);
        assert_eq!(watermark.record_append(1, 100), 100);
        assert_eq!(watermark.record_append(1, 50), 150);
        assert!(!watermark.is_durable(1));
        watermark.note_rotation(2);
        assert!(watermark.is_durable(150), "rotation retires every appended byte");
        assert_eq!(watermark.record_append(2, 10), 160);
        assert!(!watermark.is_durable(160), "new-log bytes are not durable yet");
    }

    #[test]
    fn one_fsync_retires_every_covered_group() {
        let (mut writer, _dir) = temp_writer("retire");
        let handle = writer.sync_handle();
        let watermark = DurabilityWatermark::new(1);

        // Two groups append before anyone syncs.
        writer.append(&LogRecord::put(1, b"a".to_vec(), b"1".to_vec())).unwrap();
        writer.flush().unwrap();
        let first = watermark.record_append(1, 10);
        writer.append(&LogRecord::put(2, b"b".to_vec(), b"2".to_vec())).unwrap();
        writer.flush().unwrap();
        let second = watermark.record_append(1, 10);

        // The first group's fsync reads the freshest mark, so it covers the
        // second group as well…
        let committer = Committer::new();
        assert_eq!(
            watermark.ensure_durable(1, first, &handle, &committer).unwrap(),
            SyncOutcome::Synced
        );
        // …which then needs no fsync of its own.
        assert_eq!(
            watermark.ensure_durable(1, second, &handle, &committer).unwrap(),
            SyncOutcome::AlreadyDurable
        );
    }
}
