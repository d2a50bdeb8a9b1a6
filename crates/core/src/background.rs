//! Background work: one job picker and one wakeup per shard.
//!
//! Each shard's worker thread runs the job [`DbInner::next_job`] picks, tells
//! the waiters, and picks again. When a pass makes no progress it parks on
//! the shard's [`Wakeup`] until asked again: by `queue_flush`, by a
//! `PinnedVersion` dropped while files await collection, by a small-flush
//! skip that retired its old log (`finish_skip`), by a blocking wait (which
//! is what retries a failed job, never a timer), or by close. The
//! worker installs every version and retires every file itself, so those
//! need no signal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Condvar;
use triad_common::lockrank::RankedMutex;
use triad_common::{Error, Result};

use crate::compaction::CompactionJob;
use crate::db::{lock_rank, DbInner, ImmutableMemtable};
use crate::version::Version;

/// Background attempts that may fail during one blocking wait before it
/// returns the last error. Large enough that a transient fault (the recovery
/// tests inject up to three failures in a row) still completes.
const MAX_BACKGROUND_FAILURES: u64 = 5;

/// One unit of background work, as chosen by [`DbInner::next_job`].
#[derive(Debug)]
pub(crate) enum Job {
    /// Flush the oldest sealed memtable.
    Flush(Arc<ImmutableMemtable>),
    /// Run a compaction picked on this version.
    Compact(Arc<Version>, CompactionJob),
    /// Run a garbage-collection pass.
    Gc,
}

#[derive(Debug, Default)]
struct WakeState {
    requests: u64,
    /// Bumped by the worker after every pick, whether or not it ran a job.
    passes: u64,
    /// No pass is running and the last one made no progress: the worker has
    /// picked on the current version and counted any deferral there.
    idle: bool,
}

/// Producers and waiters bump `requests`, the worker bumps `passes`, and
/// both park on one condvar. The mutex is a leaf (rank `WAKEUP`), so
/// producers may signal while holding any engine lock.
#[derive(Debug)]
pub(crate) struct Wakeup {
    state: RankedMutex<WakeState>,
    changed: Condvar,
    /// `true` while the GC queue is non-empty, so a dropped version pin can
    /// tell whether to signal without taking the queue lock.
    pub(crate) gc_pending: AtomicBool,
}

impl Wakeup {
    pub(crate) fn new() -> Self {
        Wakeup {
            state: RankedMutex::new(lock_rank::WAKEUP, "db.wakeup", WakeState::default()),
            changed: Condvar::new(),
            gc_pending: AtomicBool::new(false),
        }
    }

    /// Asks the worker to pick again; call after the change it should see.
    pub(crate) fn signal(&self) {
        self.state.lock().requests += 1;
        self.changed.notify_all();
    }

    /// Parks the worker until a request newer than `stalled_at` (or `stop`),
    /// then marks a pass as running; returns the request count it answers.
    fn start_pass(&self, stalled_at: Option<u64>, stop: impl Fn() -> bool) -> u64 {
        let mut state = self.state.lock();
        while Some(state.requests) == stalled_at && !stop() {
            state.wait(&self.changed);
        }
        state.idle = false;
        state.requests
    }

    fn finish_pass(&self, idle: bool) {
        let mut state = self.state.lock();
        state.passes += 1;
        state.idle = idle;
        drop(state);
        self.changed.notify_all();
    }

    fn last_pass(&self) -> (u64, bool) {
        let state = self.state.lock();
        (state.passes, state.idle)
    }

    /// Parks a waiter until a pass after `passes` ends, or `stop`.
    fn wait_for_pass(&self, passes: u64, stop: impl Fn() -> bool) {
        let mut state = self.state.lock();
        while state.passes == passes && !stop() {
            state.wait(&self.changed);
        }
    }
}

impl DbInner {
    /// The most urgent job: flush the oldest sealed memtable, then compact
    /// L0, then the first level over its size target, then collect garbage.
    /// Pure: nothing is started or counted, so waiters can poll it freely.
    pub(crate) fn next_job(&self) -> Option<Job> {
        self.pick_job().0
    }

    /// `next_job`, plus the version TRIAD-DISK deferred L0 on, if any.
    fn pick_job(&self) -> (Option<Job>, Option<Arc<Version>>) {
        if let Some(imm) = self.imm.read().first() {
            return (Some(Job::Flush(Arc::clone(imm))), None);
        }
        let version = self.current_version.read().clone();
        let (compaction, deferred) = self.pick_compaction(&version);
        let deferred = deferred.then(|| Arc::clone(&version));
        let job = match compaction {
            Some(compaction) => Some(Job::Compact(version, compaction)),
            None => self.wakeup.gc_pending.load(Ordering::Relaxed).then_some(Job::Gc),
        };
        (job, deferred)
    }

    /// Runs `job`; returns `true` if it made progress.
    fn run_job(&self, job: Job) -> bool {
        let (name, result) = match job {
            Job::Flush(imm) => ("flush", self.flush_memtable(&imm)),
            // Drops the version before installing the next, so the GC pass
            // below can delete every input.
            Job::Compact(version, compaction) => {
                ("compaction", self.run_compaction(version, compaction))
            }
            Job::Gc => return self.collect_garbage(),
        };
        match result {
            Ok(()) => {
                self.collect_garbage();
                true
            }
            Err(error) => {
                eprintln!("triad: background {name} error: {error}");
                self.stats.add_background_errors(1);
                *self.last_background_error.lock() = Some((name, error));
                false
            }
        }
    }

    /// Blocks until no memtable is sealed; see [`wait_for`](Self::wait_for).
    pub(crate) fn wait_for_pending_flushes(&self) -> Result<()> {
        self.wait_for(false, || self.imm.read().is_empty())
    }

    /// Blocks until no flush or compaction would be picked and the worker is
    /// idle; see [`wait_for`](Self::wait_for).
    pub(crate) fn wait_for_compactions(&self) -> Result<()> {
        self.wait_for(true, || !matches!(self.next_job(), Some(Job::Flush(_) | Job::Compact(..))))
    }

    /// Blocks until `done` holds (and, with `settle`, the worker is idle),
    /// then runs a GC pass; returns early on shutdown. After
    /// [`MAX_BACKGROUND_FAILURES`] failed attempts during the wait it returns
    /// [`Error::Background`] with the last error, or [`Error::Corruption`]
    /// naming the same file when the last error was corruption.
    fn wait_for(&self, settle: bool, done: impl Fn() -> bool) -> Result<()> {
        let failures_before = self.stats.background_errors();
        loop {
            // Read before `done`, so a pass that lands in between is not missed.
            let (passes, idle) = self.wakeup.last_pass();
            if (idle || !settle) && done() {
                self.collect_garbage();
                return Ok(());
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let failures = self.stats.background_errors() - failures_before;
            if failures >= MAX_BACKGROUND_FAILURES {
                let last = self.last_background_error.lock();
                let message = match &*last {
                    Some((name, error)) => format!(
                        "{failures} background attempts failed while waiting; last: {name}: {error}"
                    ),
                    None => format!("{failures} background attempts failed while waiting"),
                };
                return Err(match &*last {
                    Some((_, Error::Corruption { path, .. })) => {
                        Error::Corruption { message, path: path.clone() }
                    }
                    _ => Error::Background(message),
                });
            }
            // Only an idle worker is asked (a busy one picks again anyway), so
            // each failure counted here is one attempt, and none is still
            // running when the wait gives up.
            if idle {
                self.wakeup.signal();
            }
            self.wakeup.wait_for_pass(passes, || self.shutdown.load(Ordering::SeqCst));
        }
    }
}

/// The shard's background thread. On shutdown it flushes what is still
/// sealed, so close leaves no work for the next open's replay.
pub(crate) fn background_worker(inner: Arc<DbInner>) {
    // The request count of the last pass without progress: the worker parks
    // until a newer request, so a failing job is never retried in a spin.
    let mut stalled_at: Option<u64> = None;
    // The last version TRIAD-DISK deferred on, so each deferral counts once.
    let mut deferred_on: Weak<Version> = Weak::new();
    loop {
        let requests =
            inner.wakeup.start_pass(stalled_at, || inner.shutdown.load(Ordering::SeqCst));
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (job, deferred) = inner.pick_job();
        if let Some(version) = deferred {
            if !std::ptr::eq(deferred_on.as_ptr(), Arc::as_ptr(&version)) {
                inner.stats.add_compactions_deferred(1);
                deferred_on = Arc::downgrade(&version);
            }
        }
        let progressed = job.is_some_and(|job| inner.run_job(job));
        stalled_at = (!progressed).then_some(requests);
        inner.wakeup.finish_pass(!progressed);
    }
    loop {
        let Some(imm) = inner.imm.read().first().cloned() else { break };
        if inner.flush_memtable(&imm).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Job;
    use crate::{Db, Options, ShardConfig};
    use triad_common::failpoint::{Failpoint, FailpointAction, FailpointRegistry};

    /// A flush queued while L0 needs compaction is picked first. The
    /// failpoints hold both jobs pending, so the picks are deterministic.
    #[test]
    fn a_queued_flush_is_picked_before_a_pending_compaction() {
        let dir =
            std::env::temp_dir().join(format!("triad-background-picker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = Options::small_for_tests();
        options.shards = ShardConfig::with_count(1);
        options.l0_compaction_trigger = 2;
        let failpoints = FailpointRegistry::new();
        failpoints.arm(Failpoint::CompactionStart, FailpointAction::ReturnError);
        let db = Db::open_with_failpoints(&dir, options, failpoints.clone()).unwrap();
        for round in 0..2u8 {
            db.put([round], [round]).unwrap();
            db.flush().unwrap();
        }
        let inner = &db.shards[0].inner;
        assert!(matches!(inner.next_job(), Some(Job::Compact(..))));

        failpoints.arm(Failpoint::FlushStart, FailpointAction::ReturnError);
        db.put([9], [9]).unwrap();
        inner.force_rotate().unwrap();
        assert!(matches!(inner.next_job(), Some(Job::Flush(_))));
        // A wait gives up on the held jobs instead of hanging.
        assert!(db.flush().is_err());
        assert!(db.wait_for_compactions().is_err());

        failpoints.clear();
        db.wait_for_compactions().unwrap();
        assert!(inner.next_job().is_none());
        assert_eq!(db.get([9]).unwrap(), Some(vec![9]));
        db.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
