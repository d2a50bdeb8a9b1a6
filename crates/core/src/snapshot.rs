//! MVCC snapshots: frozen, consistent views of the database.
//!
//! A [`Snapshot`] is, per shard, a *pin* on three things at once:
//!
//! 1. **A published sequence number** sitting on a commit-group boundary. The
//!    capture happens under the shard's WAL lock plus an exclusive
//!    acquisition of its commit gate, which drains the commit pipeline:
//!    every appended group has published (or been abandoned) by the time the
//!    seqno is read, and no new group can append while the locks are held. A
//!    boundary seqno can never split a write batch, and — because
//!    publication happens only after a group is as durable as the engine's
//!    sync policy promises — it can never cover unacknowledged, non-durable
//!    data either.
//! 2. **The memory components**: the active memtable and the sealed list, by
//!    `Arc`. The active memtable keeps absorbing writes afterwards, but the
//!    snapshot registered itself in the shared
//!    [`SnapshotRetention`](triad_common::SnapshotRetention) registry *before*
//!    releasing the gate, so any later overwrite of a version the snapshot can
//!    see preserves that version on the slot's prior list, where the
//!    seqno-bounded reads ([`Memtable::get`], [`Memtable::range_at`]) find
//!    it. A scan reads its memtables in chunks long after the capture, so the
//!    scan's iterator shares the snapshot's one capture and keeps it, and with
//!    it the registration, alive until the iterator is dropped too.
//! 3. **The current [`Version`](crate::Version)** via an internal pin: every
//!    table file, CL index and backing commit log the version references survives any
//!    concurrent flush or compaction until the capture is released — garbage
//!    collection consults the live-version registry, and a pinned version is
//!    live. Compaction may dedup older versions out of *new* files, but the
//!    snapshot never reads those; it reads the files of the version it pinned.
//!
//! # The shard-spanning snapshot gate
//!
//! On a sharded database the snapshot must be consistent across shards: a
//! cross-shard batch (committed per shard, see
//! [`Db::write`](crate::Db::write)) must be visible either on every shard it
//! touched or on none. `capture_all_shards` achieves this by taking the
//! router gate exclusively — in-flight cross-shard batches hold it shared —
//! and then acquiring **every** shard's WAL lock and commit gate before
//! capturing any shard's seqno. This is the only place in the engine where
//! two shards' WAL locks may be held at once: the debug lock-rank checker
//! panics on equal-rank nesting outside the scoped allowance this function
//! opens. Lock order is global rank order: router gate (8), then the WAL
//! locks (10, shard-index order), then the commit gates (20, shard-index
//! order). A single-shard database takes the same path, with an uncontended
//! router gate; so does every live scan, through an ephemeral snapshot.
//!
//! The capture is released when its last holder drops: the snapshot handle
//! or any iterator opened on it. Each shard's view then deregisters its seqno
//! and, whenever that moves the registry's visibility bounds, sweeps the
//! shard's memory components so retained versions nobody can read are
//! released promptly — even on idle keys that are never overwritten again.
//! It also releases its version pin, nudging the shard's collector to reclaim
//! whatever only the snapshot was keeping.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use triad_common::lockrank::RankedRwLock;
use triad_common::types::SeqNo;
use triad_common::Result;
use triad_memtable::Memtable;

use crate::db::{lock_rank, DbInner, ImmutableMemtable, PinnedVersion, WalState};
use crate::iterator::DbIterator;
use crate::shard::{Shard, ShardRouter};

/// One shard's frozen view: the capture-time seqno, memory components and
/// pinned version of a single engine shard. Dropping it releases the shard's
/// part of the capture.
pub(crate) struct SnapshotShard {
    pub(crate) db: Arc<DbInner>,
    pub(crate) seqno: SeqNo,
    /// The memory component that was active at the snapshot point. Later
    /// writes land in it (or a successor) with larger seqnos; the bounded
    /// probes below never see them.
    pub(crate) mem: Arc<Memtable>,
    /// The sealed memtables pending flush at the snapshot point, oldest first.
    pub(crate) imm: Vec<Arc<ImmutableMemtable>>,
    /// Keeps every file of the captured version safe from garbage collection.
    pub(crate) pin: PinnedVersion,
}

impl SnapshotShard {
    /// Captures one shard's view. The caller must hold the shard's WAL lock
    /// and an exclusive acquisition of its commit gate (pipeline drained).
    fn capture_locked(db: &Arc<DbInner>) -> SnapshotShard {
        let seqno = db.last_seqno.load(Ordering::Acquire);
        // Register *before* the gate opens: the first write group that could
        // overwrite something this snapshot sees must already find it
        // registered, or the shadowed version would be discarded.
        db.retention.register(seqno);
        let mem = db.mem.read().clone();
        let imm: Vec<Arc<ImmutableMemtable>> = db.imm.read().clone();
        let pin = db.pin_current_version();
        SnapshotShard { db: Arc::clone(db), seqno, mem, imm, pin }
    }

    /// Seqno-bounded point lookup within this shard's captured view: the
    /// live read path's probe over the capture-time memtables and the pinned
    /// version, bounded by the snapshot seqno.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.db.probe_memtables(key, self.seqno, &self.mem, &self.imm) {
            Some(found) => Ok(found),
            None => self.db.probe_version(key, self.seqno, &self.pin),
        }
    }
}

impl Drop for SnapshotShard {
    fn drop(&mut self) {
        // Deregistration first: subsequent overwrites stop retaining for this
        // seqno. When that moves the registry's visibility bounds, retained
        // priors may have just become unreachable, including on idle keys no
        // future overwrite would ever prune, so the shard's *current* memory
        // components are swept (lock order MEM < IMM < each memtable's map
        // lock); the captured ones are either among them or dropped with this
        // view. The field drops that follow release the version pin, which
        // nudges the shard's garbage collector if files are waiting.
        if self.db.retention.deregister(self.seqno) {
            let mem = self.db.mem.read().clone();
            let imm: Vec<Arc<ImmutableMemtable>> = self.db.imm.read().clone();
            mem.prune_retained();
            for sealed in &imm {
                sealed.memtable.prune_retained();
            }
        }
    }
}

/// A frozen, consistent view of the database at a commit-group boundary
/// (one boundary per shard on a sharded database).
///
/// Obtained from [`Db::snapshot`](crate::Db::snapshot); reads through the
/// handle are repeatable and unaffected by concurrent writes, flushes and
/// compactions. The handle is `Send + Sync`; it may outlive arbitrary amounts
/// of write traffic, at the cost of pinning the files and superseded in-memory
/// versions it can still see.
pub struct Snapshot {
    /// One frozen view per engine shard, shard-index order. Every iterator
    /// opened on the snapshot shares it, so it is released when the last of
    /// them, or the handle, drops.
    shards: Arc<[SnapshotShard]>,
    /// Key → shard routing, mirroring the database's own router.
    routes: ShardRouter,
    /// The largest per-shard snapshot seqno (equals the single shard's seqno
    /// on an unsharded database).
    seqno: SeqNo,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seqno", &self.seqno)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Snapshot {
    /// The snapshot's sequence number: the largest seqno whose effects are
    /// visible through this handle. Always a commit-group boundary; on a
    /// sharded database, the largest of the per-shard boundary seqnos.
    ///
    /// Shards run independent sequence spaces, so on a sharded database this
    /// maximum is **not comparable across keys on different shards** and must
    /// not be used to order writes against the snapshot: with shard A at
    /// seqno 10 and shard B at 4 the snapshot reports 10, yet B's next write
    /// (seqno 5) is *not* visible to it. Bounded reads use each shard's own
    /// captured seqno; callers that need "was this write before the
    /// snapshot?" must keep their own logical clock.
    pub fn seqno(&self) -> SeqNo {
        self.seqno
    }

    /// Returns the value `key` had at the snapshot point, or `None` if it did
    /// not exist (or was deleted) then.
    ///
    /// The probe is the live read path's — active memtable, sealed memtables
    /// newest first, then the pinned version level by level — but every probe
    /// is bounded by the owning shard's snapshot seqno, so the memtables
    /// consult retained prior versions. The capture-time components are
    /// used, not the current ones: a memtable sealed, flushed and even
    /// garbage-collected since the snapshot was taken is still read here, in
    /// memory, through its `Arc`.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        let key = key.as_ref();
        self.shards[self.routes.route(key)].get(key)
    }

    /// Returns an iterator over every key/value pair that was live at the
    /// snapshot point, in key order.
    pub fn scan(&self) -> Result<DbIterator> {
        self.scan_range(None, None)
    }

    /// Returns an iterator over the snapshot's live key/value pairs with user
    /// keys in `[start, end)`; either bound may be omitted.
    ///
    /// No lock is taken: each shard's snapshot seqno already sits on a
    /// commit-group boundary, so the bounded view is batch-atomic by
    /// construction — a concurrent group's writes all carry seqnos above the
    /// bound, and anything it overwrites that the snapshot can see is
    /// preserved by the retention registry. On a sharded database the per-shard sources are
    /// k-way merged; routing makes the shards' key sets disjoint.
    ///
    /// The iterator shares the snapshot's capture, so it stays valid after
    /// the snapshot handle is dropped.
    pub fn scan_range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Result<DbIterator> {
        DbIterator::with_snapshot_parts(Arc::clone(&self.shards), start, end)
    }
}

/// The snapshot capture protocol: drains every shard's pipeline under one
/// exclusive router-gate hold, captures a [`Snapshot`], and then — while
/// **every** shard's WAL lock and commit gate are still held — runs `capture`
/// once per shard with that shard's locked [`WalState`].
/// [`Db::snapshot`](crate::Db::snapshot) passes a no-op `capture`. Checkpoint
/// capture copies per-shard commit-log state here, and WAL shipping reads its
/// segments here; both get a cut that can never split a write batch or a
/// cross-shard batch, plus a [`Snapshot`] pinned at exactly the same cut.
///
/// On a callback error the already-captured snapshot drops (releasing its
/// retention registrations and version pins) and the error propagates; the
/// locks release either way when the function returns. Works unchanged on a
/// single-shard database, where the router gate is simply uncontended.
pub(crate) fn capture_all_shards<T>(
    shards: &[Shard],
    router: &RankedRwLock<()>,
    mut capture: impl FnMut(usize, &Shard, &mut WalState) -> Result<T>,
) -> Result<(Snapshot, Vec<T>)> {
    let coord = router.write();
    // The one place allowed to hold several shards' WAL locks (and commit
    // gates) at once. Acquisition is in shard-index order under a scoped
    // equal-rank allowance; the locks are released together when the guards
    // drop below.
    let mut wals = Vec::with_capacity(shards.len());
    {
        let _same_rank = triad_common::allow_equal_rank(lock_rank::WAL);
        for shard in shards {
            wals.push(shard.inner.wal.lock());
        }
    }
    let mut gates = Vec::with_capacity(shards.len());
    {
        let _same_rank = triad_common::allow_equal_rank(lock_rank::COMMIT_GATE);
        for shard in shards {
            gates.push(shard.inner.commit_gate.write());
        }
    }
    let mut captured = Vec::with_capacity(shards.len());
    for shard in shards {
        captured.push(SnapshotShard::capture_locked(&shard.inner));
    }
    let seqno = captured.iter().map(|shard| shard.seqno).max().unwrap_or(0);
    // Assemble the snapshot *before* the fallible callbacks: an early return
    // below drops it, and each captured shard's drop runs the full release
    // protocol (deregistration, retention sweep, pin release).
    let snapshot =
        Snapshot { shards: captured.into(), routes: ShardRouter::new(shards.len()), seqno };
    let mut extras = Vec::with_capacity(shards.len());
    for (index, (shard, wal)) in shards.iter().zip(wals.iter_mut()).enumerate() {
        extras.push(capture(index, shard, wal)?);
    }
    drop(gates);
    drop(wals);
    drop(coord);
    // One snapshot, one count: attribute it to shard 0 so the merged
    // stats see a single shard-spanning snapshot, not one per shard.
    shards[0].inner.stats.add_snapshots_created(1);
    Ok((snapshot, extras))
}
