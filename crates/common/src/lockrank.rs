//! Rank-checked lock wrappers: the engine's lock-order checker.
//!
//! Every lock that participates in the engine's documented acquisition order
//! (see docs/ARCHITECTURE.md, "Enforced invariants") is wrapped in a
//! [`RankedMutex`] or [`RankedRwLock`] carrying a numeric rank and a name;
//! a ranked mutex that pairs with a condvar parks through
//! [`RankedMutexGuard::wait`], so it stays checked too.
//! Under `debug_assertions` a thread-local stack records the ranks this
//! thread currently holds; acquiring a lock whose rank is not strictly
//! greater than every held rank panics with both lock names, turning a
//! latent deadlock into an immediate, attributable test failure. In release
//! builds the wrappers compile down to the underlying `parking_lot`
//! primitives with zero bookkeeping.
//!
//! The check runs *before* blocking on the lock, so a misordered acquisition
//! fails fast even when the other side of the would-be deadlock never runs.
//! Guards release their rank when dropped, including out-of-order drops
//! (`drop(wal)` while the commit gate stays held), which the engine's
//! pipelined commit relies on.
//!
//! Ranks are spaced by tens so new locks can slot between existing ones
//! without renumbering; equal ranks are rejected (no two ranked locks may
//! nest in either order). The one sanctioned exception is a scoped,
//! per-thread [`allow_equal_rank`] allowance: a coordinator that must hold
//! the *same* lock of every shard at once (the shard-spanning snapshot gate)
//! opens a scope for that rank and acquires the locks in a canonical
//! external order (shard index). Lower-than-held acquisitions still panic
//! inside the scope, so real inversions stay fatal.

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::fmt;
use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
mod tracking {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// (token id, rank, lock name) per lock currently held by this thread.
        static HELD: RefCell<Vec<(u64, u32, &'static str)>> =
            const { RefCell::new(Vec::new()) };
        /// Ranks with an open equal-rank allowance (one entry per open scope).
        static EQUAL_OK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Opens an equal-rank allowance for `rank` on this thread.
    pub(super) fn push_equal_allowance(rank: u32) {
        EQUAL_OK.with(|ranks| ranks.borrow_mut().push(rank));
    }

    /// Closes the most recent allowance for `rank`.
    pub(super) fn pop_equal_allowance(rank: u32) {
        EQUAL_OK.with(|ranks| {
            let mut ranks = ranks.borrow_mut();
            if let Some(pos) = ranks.iter().rposition(|&r| r == rank) {
                ranks.remove(pos);
            }
        });
    }

    /// Proof that a ranked lock is held; removing it from the thread-local
    /// stack on drop keeps the stack accurate across out-of-order releases.
    #[derive(Debug)]
    pub(super) struct RankToken {
        id: u64,
    }

    /// Panics if `rank` is not strictly greater than every rank this thread
    /// already holds — unless the acquisition is exactly *equal* to the top
    /// rank and an [`push_equal_allowance`] scope for that rank is open.
    /// Called before blocking on the lock.
    pub(super) fn check(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(&(_, top_rank, top_name)) = held.iter().max_by_key(|e| e.1) {
                if rank == top_rank && EQUAL_OK.with(|ranks| ranks.borrow().contains(&rank)) {
                    return;
                }
                assert!(
                    rank > top_rank,
                    "lock-rank violation: acquiring `{name}` (rank {rank}) while holding \
                     `{top_name}` (rank {top_rank}); ranked locks must be taken in strictly \
                     increasing rank order (see docs/ARCHITECTURE.md, \"Enforced invariants\")"
                );
            }
        });
    }

    /// Records the lock as held; call after the underlying acquisition
    /// succeeds.
    pub(super) fn register(rank: u32, name: &'static str) -> RankToken {
        let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| held.borrow_mut().push((id, rank, name)));
        RankToken { id }
    }

    impl Drop for RankToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().position(|e| e.0 == self.id) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod tracking {
    /// Zero-sized stand-in: release builds do no rank bookkeeping.
    #[derive(Debug)]
    pub(super) struct RankToken;

    #[inline(always)]
    pub(super) fn check(_rank: u32, _name: &'static str) {}

    #[inline(always)]
    pub(super) fn register(_rank: u32, _name: &'static str) -> RankToken {
        RankToken
    }

    #[inline(always)]
    pub(super) fn push_equal_allowance(_rank: u32) {}

    #[inline(always)]
    pub(super) fn pop_equal_allowance(_rank: u32) {}
}

use tracking::RankToken;

/// Scoped permission for this thread to stack ranked locks of one *equal*
/// rank; returned by [`allow_equal_rank`] and revoked on drop.
#[derive(Debug)]
#[must_use = "the allowance ends when the scope is dropped"]
pub struct EqualRankScope {
    rank: u32,
}

/// Grants the current thread permission to acquire several ranked locks of
/// the same rank `rank` while the returned scope is alive.
///
/// This exists for the one place the engine legitimately holds "the same"
/// lock of many shards at once: the shard-spanning snapshot gate, which
/// drains every shard's commit pipeline by taking each shard's WAL lock and
/// then each shard's commit gate, always in shard-index order. The caller is
/// responsible for that canonical external order — the allowance only
/// relaxes the equality check, so acquiring a rank *below* a held rank still
/// panics inside the scope.
pub fn allow_equal_rank(rank: u32) -> EqualRankScope {
    tracking::push_equal_allowance(rank);
    EqualRankScope { rank }
}

impl Drop for EqualRankScope {
    fn drop(&mut self) {
        tracking::pop_equal_allowance(self.rank);
    }
}

/// A `parking_lot::Mutex` that asserts rank-ordered acquisition under
/// `debug_assertions`.
pub struct RankedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex holding position `rank` in the global lock
    /// order; `name` appears in violation panics and must be unique enough
    /// to identify the lock.
    pub fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { rank, name, inner: Mutex::new(value) }
    }

    /// Acquires the mutex, panicking first (debug builds) if a lock of equal
    /// or higher rank is already held by this thread.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.lock();
        let token = tracking::register(self.rank, self.name);
        RankedMutexGuard { guard, _token: token }
    }

    /// Non-blocking acquisition. A `try_lock` cannot deadlock, but a success
    /// still registers the rank (and is checked) so locks taken while it is
    /// held stay ordered.
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.try_lock()?;
        let token = tracking::register(self.rank, self.name);
        Some(RankedMutexGuard { guard, _token: token })
    }

    /// Mutable access without locking (requires `&mut self`, so no rank
    /// bookkeeping is needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// The lock's position in the global acquisition order.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The name reported in violation panics.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`RankedMutex::lock`]; releases the rank when dropped.
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T> {
    // Declared first so the lock is released before the rank is popped.
    guard: MutexGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> RankedMutexGuard<'_, T> {
    /// Parks on `condvar`, releasing the mutex until notified (parking_lot's
    /// `Condvar::wait`). The rank stays registered while parked: a parked
    /// thread acquires nothing, and it holds the lock again on return.
    pub fn wait(&mut self, condvar: &Condvar) {
        condvar.wait(&mut self.guard);
    }
}

/// A `parking_lot::RwLock` that asserts rank-ordered acquisition under
/// `debug_assertions`.
///
/// Readers and writers share one rank: a read acquisition while a lock of
/// equal or higher rank is held is just as much an ordering bug as a write,
/// because the writer on the other side of the inversion blocks either way.
pub struct RankedRwLock<T> {
    rank: u32,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Wraps `value` in an rwlock holding position `rank` in the global lock
    /// order; `name` appears in violation panics.
    pub fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { rank, name, inner: RwLock::new(value) }
    }

    /// Acquires a shared read guard, checking the rank first (debug builds).
    pub fn read(&self) -> RankedRwLockReadGuard<'_, T> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.read();
        let token = tracking::register(self.rank, self.name);
        RankedRwLockReadGuard { guard, _token: token }
    }

    /// Acquires an exclusive write guard, checking the rank first (debug
    /// builds).
    pub fn write(&self) -> RankedRwLockWriteGuard<'_, T> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.write();
        let token = tracking::register(self.rank, self.name);
        RankedRwLockWriteGuard { guard, _token: token }
    }

    /// Non-blocking read acquisition; a success registers the rank.
    pub fn try_read(&self) -> Option<RankedRwLockReadGuard<'_, T>> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.try_read()?;
        let token = tracking::register(self.rank, self.name);
        Some(RankedRwLockReadGuard { guard, _token: token })
    }

    /// Non-blocking write acquisition; a success registers the rank.
    pub fn try_write(&self) -> Option<RankedRwLockWriteGuard<'_, T>> {
        tracking::check(self.rank, self.name);
        let guard = self.inner.try_write()?;
        let token = tracking::register(self.rank, self.name);
        Some(RankedRwLockWriteGuard { guard, _token: token })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// The lock's position in the global acquisition order.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The name reported in violation panics.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedRwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Shared guard returned by [`RankedRwLock::read`].
#[derive(Debug)]
pub struct RankedRwLockReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for RankedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard returned by [`RankedRwLock::write`].
#[derive(Debug)]
pub struct RankedRwLockWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for RankedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_acquisition_is_allowed() {
        let low = RankedMutex::new(10, "low", 1u32);
        let high = RankedRwLock::new(20, "high", 2u32);
        let a = low.lock();
        let b = high.read();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn rank_is_released_on_drop() {
        let low = RankedMutex::new(10, "low", ());
        let high = RankedMutex::new(20, "high", ());
        {
            let _g = high.lock();
        }
        // `high` was released, so taking `low` afterwards is fine.
        let _g = low.lock();
    }

    #[test]
    fn out_of_order_release_keeps_stack_accurate() {
        let wal = RankedMutex::new(10, "wal", ());
        let gate = RankedRwLock::new(20, "gate", ());
        let mid = RankedMutex::new(15, "mid", ());
        let w = wal.lock();
        let g = gate.write();
        // Release the *lower*-ranked lock first (the pipelined-commit shape):
        // the gate's rank must survive the wal token's removal.
        drop(w);
        drop(g);
        let _m = mid.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn misordered_acquisition_panics() {
        let low = RankedMutex::new(10, "low", ());
        let high = RankedRwLock::new(20, "high", ());
        let _g = high.write();
        let _violation = low.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn equal_rank_nesting_panics() {
        let a = RankedMutex::new(10, "a", ());
        let b = RankedMutex::new(10, "b", ());
        let _g = a.lock();
        let _violation = b.lock();
    }

    #[test]
    fn equal_rank_scope_permits_same_rank_stacking() {
        // The shard-spanning snapshot shape: all shards' WAL locks, then all
        // shards' commit gates, each tier under its own allowance.
        let wal_a = RankedMutex::new(10, "wal_a", ());
        let wal_b = RankedMutex::new(10, "wal_b", ());
        let gate_a = RankedRwLock::new(20, "gate_a", ());
        let gate_b = RankedRwLock::new(20, "gate_b", ());
        let _allow_wal = allow_equal_rank(10);
        let _wa = wal_a.lock();
        let _wb = wal_b.lock();
        let _allow_gate = allow_equal_rank(20);
        let _ga = gate_a.write();
        let _gb = gate_b.write();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn equal_rank_scope_expires_on_drop() {
        let a = RankedMutex::new(10, "a", ());
        let b = RankedMutex::new(10, "b", ());
        {
            let _allow = allow_equal_rank(10);
        }
        let _g = a.lock();
        let _violation = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn equal_rank_scope_does_not_permit_lower_ranks() {
        let low = RankedMutex::new(10, "low", ());
        let high = RankedRwLock::new(20, "high", ());
        let _allow = allow_equal_rank(10);
        let _g = high.write();
        let _violation = low.lock();
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = RankedMutex::new(10, "m", 7u32);
        let g = m.lock();
        // Same thread, same lock: the vendored stand-in delegates to std,
        // where a second try_lock on a held mutex fails rather than blocks —
        // but the rank check fires first in debug builds, so only probe from
        // another thread.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(m.try_lock().is_none());
            });
        });
        assert_eq!(*g, 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn a_condvar_wait_keeps_the_rank_held() {
        let low = RankedMutex::new(10, "low", ());
        let flag = RankedMutex::new(20, "flag", false);
        let ready = Condvar::new();
        let mut set = flag.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                *flag.lock() = true;
                ready.notify_all();
            });
            while !*set {
                set.wait(&ready);
            }
        });
        // Woken with the lock re-acquired, so the rank is still held.
        let _violation = low.lock();
    }
}
