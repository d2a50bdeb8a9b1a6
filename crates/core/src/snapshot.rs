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
//!    seqno-bounded probes ([`Memtable::get_at`],
//!    [`Memtable::snapshot_entries_at`]) find it.
//! 3. **The current [`Version`](crate::Version)** via an internal pin: every
//!    table file, CL index and backing commit log the version references survives any
//!    concurrent flush or compaction until the snapshot drops — garbage
//!    collection consults the live-version registry, and a pinned version is
//!    live. Compaction may dedup older versions out of *new* files, but the
//!    snapshot never reads those; it reads the files of the version it pinned.
//!
//! # The shard-spanning snapshot gate
//!
//! On a sharded database the snapshot must be consistent across shards: a
//! cross-shard batch (committed per shard, see
//! [`Db::write`](crate::Db::write)) must be visible either on every shard it
//! touched or on none. `Snapshot::open_multi` achieves this by taking the
//! router gate exclusively — in-flight cross-shard batches hold it shared —
//! and then, inside the marked `SNAPSHOT-GATE` region, acquiring **every**
//! shard's WAL lock and commit gate before capturing any shard's seqno.
//! This is the only place in the engine where two shards' WAL locks may be
//! held at once (enforced by `triad-lint`'s `multi-shard-wal-gate` rule and,
//! dynamically, by the lock-rank checker's scoped equal-rank allowance).
//! Lock order is global rank order: router gate (8), then the WAL locks
//! (10, shard-index order), then the commit gates (20, shard-index order).
//!
//! Dropping the snapshot deregisters it per shard and, whenever that moves
//! the registry's visibility bounds, sweeps the shard's memory components so
//! retained versions nobody can read are released promptly — even on idle
//! keys that are never overwritten again. It also releases the version pins,
//! nudging each shard's collector to reclaim whatever only the snapshot was
//! keeping.

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
/// pinned version of a single engine shard.
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

    /// Seqno-bounded point lookup within this shard's captured view.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let db = &self.db;
        db.stats.add_user_reads(1);

        // 1. The memtable that was active at the snapshot point.
        db.stats.add_memtable_probes(1);
        if let Some(entry) = self.mem.get_at(key, self.seqno) {
            return Ok(db.resolve_entry(entry));
        }
        // 2. The sealed memtables of the snapshot point, newest first.
        for sealed in self.imm.iter().rev() {
            db.stats.add_memtable_probes(1);
            if let Some(entry) = sealed.memtable.get_at(key, self.seqno) {
                return Ok(db.resolve_entry(entry));
            }
        }
        // 3. The pinned version, level by level. Within L0 files are probed
        // newest first, and no older file can hold a newer visible version
        // than a younger file (flush order), so the first bounded hit is the
        // newest version the snapshot can see.
        for level in 0..self.pin.num_levels() {
            for file in self.pin.files_for_key(level, key) {
                let table = db.table_cache.get_or_open(&file)?;
                db.stats.add_table_probes(1);
                if let Some(entry) = table.get(key, self.seqno)? {
                    return Ok(db.resolve_entry(entry));
                }
            }
        }
        Ok(None)
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
    /// One frozen view per engine shard, shard-index order.
    shards: Vec<SnapshotShard>,
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
    /// Captures a snapshot of a single-shard database. See the module docs
    /// for the protocol.
    pub(crate) fn open(db: &Arc<DbInner>) -> Snapshot {
        let captured = {
            // WAL lock then exclusive commit gate — the engine's global lock
            // order. With both held the pipeline is drained: `last_seqno` is a
            // group boundary and every write at or below it is fully applied.
            let _wal = db.wal.lock();
            let _gate = db.commit_gate.write();
            SnapshotShard::capture_locked(db)
        };
        db.stats.add_snapshots_created(1);
        let seqno = captured.seqno;
        Snapshot { shards: vec![captured], routes: ShardRouter::new(1), seqno }
    }

    /// Captures a shard-spanning snapshot: every shard's pipeline is drained
    /// and its commit-group-boundary seqno captured under one exclusive
    /// router-gate hold, so cross-shard batches (which commit under a shared
    /// hold) are observed all-or-nothing. See the module docs.
    pub(crate) fn open_multi(shards: &[Shard], router: &RankedRwLock<()>) -> Snapshot {
        let (snapshot, _) = capture_all_shards(shards, router, |_, _, _| Ok(()))
            .expect("snapshot capture with a no-op callback cannot fail");
        snapshot
    }

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
    /// The probe order mirrors the live read path — active memtable, sealed
    /// memtables newest first, then the pinned version level by level — but
    /// every probe is bounded by the owning shard's snapshot seqno and
    /// consults retained prior versions. The capture-time components are
    /// used, not the current ones: a memtable sealed, flushed and even
    /// garbage-collected since the snapshot was taken is still read here, in
    /// memory, through its `Arc`.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        let key = key.as_ref();
        let shard = &self.shards[self.routes.route(key)];
        let started = std::time::Instant::now();
        let result = shard.get(key);
        shard.db.stats.record_get_latency_ns(started.elapsed().as_nanos() as u64);
        result
    }

    /// Returns an iterator over every key/value pair that was live at the
    /// snapshot point, in key order.
    pub fn scan(&self) -> Result<DbIterator> {
        self.scan_range(None, None)
    }

    /// Returns an iterator over the snapshot's live key/value pairs with user
    /// keys in `[start, end)`; either bound may be omitted.
    ///
    /// Unlike the live [`Db::scan_range`](crate::Db::scan_range), no lock is
    /// taken: each shard's snapshot seqno already sits on a commit-group
    /// boundary, so the bounded view is batch-atomic by construction — a
    /// concurrent group's writes all carry seqnos above the bound, and
    /// anything it overwrites that the snapshot can see is preserved by the
    /// retention registry. On a sharded database the per-shard sources are
    /// k-way merged; routing makes the shards' key sets disjoint.
    pub fn scan_range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Result<DbIterator> {
        DbIterator::with_snapshot_parts(
            &self.shards,
            start.map(|s| s.to_vec()),
            end.map(|e| e.to_vec()),
        )
    }
}

/// The shard-spanning capture protocol, generalized: drains every shard's
/// pipeline under one exclusive router-gate hold (exactly as a shard-spanning
/// snapshot does), captures a [`Snapshot`], and then — while **every** shard's
/// WAL lock and commit gate are still held — runs `capture` once per shard
/// with that shard's locked [`WalState`]. Checkpoint capture copies per-shard
/// commit-log state here, and WAL shipping reads its segments here; both get
/// a cut that can never split a write batch or a cross-shard batch, plus a
/// [`Snapshot`] pinned at exactly the same cut.
///
/// On a callback error the already-captured snapshot drops (deregistering its
/// retention and version pins) and the error propagates; the locks release
/// either way when the function returns. Works unchanged on a single-shard
/// database, where the router gate is simply uncontended.
pub(crate) fn capture_all_shards<T>(
    shards: &[Shard],
    router: &RankedRwLock<()>,
    mut capture: impl FnMut(usize, &Shard, &mut WalState) -> Result<T>,
) -> Result<(Snapshot, Vec<T>)> {
    let coord = router.write();
    // SNAPSHOT-GATE-BEGIN: the one region allowed to hold several
    // shards' WAL locks (and commit gates) at once. Acquisition is in
    // shard-index order under a scoped equal-rank allowance; the
    // locks are released together when the guards drop below.
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
    // below drops it, and `Snapshot::drop` runs the full release protocol
    // (deregistration, retention sweep, pin release) for the captured shards.
    let snapshot = Snapshot { shards: captured, routes: ShardRouter::new(shards.len()), seqno };
    let mut extras = Vec::with_capacity(shards.len());
    for (index, (shard, wal)) in shards.iter().zip(wals.iter_mut()).enumerate() {
        extras.push(capture(index, shard, wal)?);
    }
    drop(gates);
    drop(wals);
    // SNAPSHOT-GATE-END
    drop(coord);
    // One snapshot, one count: attribute it to shard 0 so the merged
    // stats see a single shard-spanning snapshot, not one per shard.
    shards[0].inner.stats.add_snapshots_created(1);
    Ok((snapshot, extras))
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Deregistration first: subsequent overwrites stop retaining for this
        // seqno and prune what only it could read. The field drops that follow
        // release the memtables and the version pins; each pin's drop nudges
        // its shard's garbage collector if files are waiting.
        for shard in &self.shards {
            if shard.db.retention.deregister(shard.seqno) {
                // The visibility bounds moved: some retained priors may have
                // just become unreachable, including on idle keys no future
                // overwrite would ever prune. Sweep the shard's *current*
                // memory components (lock order MEM < IMM < the memtable's
                // internal shard locks); the components this snapshot captured
                // are either among them or dropped with this handle.
                let mem = shard.db.mem.read().clone();
                let imm: Vec<Arc<ImmutableMemtable>> = shard.db.imm.read().clone();
                mem.prune_retained();
                for sealed in &imm {
                    sealed.memtable.prune_retained();
                }
            }
        }
    }
}
