//! A small fixed-size I/O worker pool for sequential readahead.
//!
//! A scan cursor walks a table's data blocks in order, so the next block it
//! needs is known one step in advance. When a table is opened with a
//! [`FetchContext`](crate::FetchContext) whose `readahead` pool is set, the
//! table's [scan cursor](crate::SortedTable::scan_cursor), once it has read a
//! block to its end, hands the *next* block's read to this pool while the
//! merge consumes the current one, overlapping disk (or page-cache syscall)
//! latency with merging. Prefetched blocks land in the shared block cache
//! through the same single-flight [`BlockFetch`](crate::BlockFetch) path as
//! foreground reads, so a prefetch and a foreground probe for the same block
//! still do one read between them.
//!
//! Jobs are best-effort: they run soon, in submission order, and any I/O
//! error is swallowed (the foreground read will surface it). The pool
//! distributes work over a `std::sync::mpsc` channel whose receiver the
//! workers share behind a `parking_lot::Mutex` — a worker holds the lock only
//! to dequeue, never while running a job.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// A prefetch task. Boxed so callers can capture whatever table handle and
/// block coordinates they need.
type Job = Box<dyn FnOnce() + Send>;

/// A fixed pool of named worker threads draining a shared job queue.
///
/// Dropping the pool closes the queue and joins every worker; queued jobs
/// still run before shutdown completes (they only touch the cache, so
/// finishing them is cheaper than tracking cancellation).
pub struct IoPool {
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs queued or running, and the condvar a worker notifies when the
    /// count drops to zero ([`IoPool::wait_idle`]).
    pending: Arc<(Mutex<usize>, Condvar)>,
}

impl IoPool {
    /// Spawns `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> IoPool {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let pending = Arc::new((Mutex::new(0usize), Condvar::new()));
        let workers = (0..threads.max(1))
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                let pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("triad-io-{index}"))
                    .spawn(move || loop {
                        // Dequeue under the lock, run outside it: the other
                        // workers only wait while this one is *receiving*,
                        // not while it is executing a job.
                        let job = {
                            let guard = receiver.lock();
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                job();
                                let (count, idle) = &*pending;
                                let mut count = count.lock();
                                *count -= 1;
                                if *count == 0 {
                                    idle.notify_all();
                                }
                            }
                            // Channel closed: the pool is shutting down.
                            Err(_) => return,
                        }
                    })
                    .expect("spawn io pool worker")
            })
            .collect();
        IoPool { sender: Mutex::new(Some(sender)), workers: Mutex::new(workers), pending }
    }

    /// Enqueues a job. Silently ignored if the pool is already shutting down
    /// — readahead is an optimization, never a correctness dependency.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = self.sender.lock().as_ref() {
            *self.pending.0.lock() += 1;
            if sender.send(Box::new(job)).is_err() {
                *self.pending.0.lock() -= 1;
            }
        }
    }

    /// Blocks until every job spawned so far has run.
    pub fn wait_idle(&self) {
        let (count, idle) = &*self.pending;
        let mut count = count.lock();
        while *count > 0 {
            idle.wait(&mut count);
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Dropping the sender closes the channel; workers drain what is
        // queued and exit on the resulting `RecvError`.
        *self.sender.lock() = None;
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_drop_joins_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = IoPool::new(3);
        pool.wait_idle();
        for round in 1..=2 {
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            if round == 1 {
                pool.wait_idle();
                assert_eq!(counter.load(Ordering::Relaxed), 64);
            }
        }
        // Drop closes the queue only after every queued job has been drained.
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let pool = IoPool::new(0);
        let counter = Arc::new(AtomicUsize::new(0));
        let counter_clone = Arc::clone(&counter);
        pool.spawn(move || {
            counter_clone.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
