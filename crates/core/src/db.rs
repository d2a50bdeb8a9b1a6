//! The database engine: recovery, the `Db` facade, rotation, the read path,
//! garbage collection and background scheduling. The write path — how a batch
//! commits — lives in `commit.rs`.
//!
//! # File lifetime
//!
//! Physical deletion of table files, CL index files and commit logs is *deferred*:
//! background work never unlinks a file inline. Instead, files retired from the
//! version chain are enqueued on a [`GcQueue`] and a garbage-collection pass —
//! run after every version installation, when the last pin of a retired version
//! drops, and on close — deletes only what no live [`Version`], no pending
//! immutable memtable and not the active commit log references. Readers pin the
//! version they operate on with a [`PinnedVersion`], so a file they can still
//! reach is never deleted underneath them and a missing file is always what it
//! looks like: corruption, surfaced immediately.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use triad_common::lockrank::{RankedMutex, RankedRwLock};

use triad_common::failpoint::FailpointRegistry;
use triad_common::types::{Entry, SeqNo, ValueKind};
use triad_common::{Error, Result, SnapshotRetention, StatSnapshot, Stats};
use triad_memtable::{LogPosition, Memtable};
use triad_sstable::{
    cl_index_file_path, parse_table_file_name, sst_file_path, IoPool, TableBuilder,
    TableBuilderOptions, TableKind,
};
use triad_wal::{
    log_file_name, log_file_path, parse_log_file_name, BatchEncoder, BatchStamp, LogReader,
    LogRecord, LogWriter,
};

use crate::batch::{WriteBatch, WriteOptions};
use crate::block_cache::BlockCache;
use crate::committer::{Committer, PublicationSequencer};
use crate::durability::DurabilityWatermark;
use crate::iterator::DbIterator;
use crate::manifest::VersionSet;
use crate::options::{BackgroundIoMode, Options};
use crate::shard::{Shard, ShardRouter};
use crate::snapshot::Snapshot;
use crate::table_cache::TableCache;
use crate::version::{FileMetadata, Version, VersionEdit};

/// The state protected by the write mutex: the active commit log.
#[derive(Debug)]
pub(crate) struct WalState {
    pub(crate) writer: LogWriter,
    pub(crate) id: u64,
    pub(crate) writes_since_sync: u64,
    /// The next sequence number to hand out. Allocation is separate from
    /// publication (`DbInner::last_seqno`): a commit group that fails *after* its
    /// WAL append has consumed its range — the records are in the log and may be
    /// replayed on recovery — so the range must never be re-issued to different
    /// data, or replay (which keeps the first record at a given seqno for a key)
    /// could prefer the failed group's value over a later acknowledged write.
    pub(crate) next_seqno: SeqNo,
    /// Reusable frame buffer for batched appends (commit groups, hot write-back,
    /// small-flush log rewrites). Living here puts it under the WAL lock, which
    /// is exactly when it may be used.
    pub(crate) encoder: BatchEncoder,
    /// Publication ticket of the next commit group, assigned under the
    /// append lock so tickets follow append order exactly.
    pub(crate) next_group_index: u64,
}

/// A memory component that has been sealed and is waiting to be flushed.
#[derive(Debug)]
pub(crate) struct ImmutableMemtable {
    pub(crate) memtable: Arc<Memtable>,
    /// The commit log that was active while this memtable absorbed writes.
    pub(crate) wal_id: u64,
}

/// Messages sent to the background worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkItem {
    /// One or more immutable memtables are waiting to be flushed.
    Flush,
    /// Re-evaluate whether a compaction is needed.
    Compact,
    /// A retired version lost its last pin; run a garbage-collection pass.
    Gc,
    /// Stop the worker.
    Shutdown,
}

/// What the garbage collector needs to locate a retired table file on disk.
#[derive(Debug)]
struct RetiredTable {
    kind: TableKind,
    backing_log_id: Option<u64>,
}

/// Files retired from the version chain, awaiting physical deletion by a GC pass.
///
/// A table enters the queue when a version edit removes it; its backing commit log
/// (for CL-SSTables) graduates into `logs` once the index file is gone. Entries
/// whose deletion fails (e.g. `EACCES`) stay queued so later passes retry, with the
/// failure counted in [`Stats`].
#[derive(Debug, Default)]
struct GcQueue {
    /// Retired tables by file id.
    tables: HashMap<u64, RetiredTable>,
    /// Sealed commit logs awaiting deletion.
    logs: HashSet<u64>,
}

/// A reader's pin on a [`Version`].
///
/// While the pin is alive every file the version references — tables, CL indexes
/// and backing commit logs — is protected from garbage collection, because the
/// version stays upgradeable in the [`VersionSet`]'s live registry. Dropping a
/// pin while files await collection nudges the background worker to run a pass.
pub(crate) struct PinnedVersion {
    /// `Some` until dropped; an `Option` so `Drop` can release the reference
    /// *before* signalling the collector.
    version: Option<Arc<Version>>,
    work_tx: Sender<WorkItem>,
    /// Mirrors "the GC queue is non-empty" (see [`DbInner::gc_pending`]).
    gc_pending: Arc<AtomicBool>,
}

impl PinnedVersion {
    /// The pinned version.
    pub(crate) fn version(&self) -> &Arc<Version> {
        self.version.as_ref().expect("pin is alive until dropped")
    }
}

impl std::ops::Deref for PinnedVersion {
    type Target = Version;

    fn deref(&self) -> &Version {
        self.version()
    }
}

impl Drop for PinnedVersion {
    fn drop(&mut self) {
        if let Some(version) = self.version.take() {
            drop(version);
            // Nudge the collector whenever files are awaiting deletion: this pin
            // may have been what kept them alive, and an idle database would
            // otherwise hold them until close. The flag is almost always false
            // (the queue drains on the pass right after each retirement), so the
            // common read path sends nothing; spurious nudges are one cheap
            // empty pass. Deciding via `Arc::strong_count` instead would race:
            // two pins of the same retired version dropped concurrently would
            // each see the other's reference and neither would signal.
            if self.gc_pending.load(Ordering::Relaxed) {
                let _ = self.work_tx.send(WorkItem::Gc);
            }
        }
    }
}

/// Lock ranks for the engine's ranked locks. Acquisition must proceed in
/// strictly increasing rank (checked dynamically in debug builds by
/// `triad_common::lockrank`, statically by `triad-lint`'s `lock-order` rule).
/// Ranks are spaced so new locks can slot in without renumbering; the
/// memtable's shard locks sit above all of these at rank
/// [`triad_memtable::SHARD_LOCK_RANK`] (70). The full table with rationale
/// lives in docs/ARCHITECTURE.md, "Enforced invariants".
pub(crate) mod lock_rank {
    /// GC queue: held while inspecting the version set / WAL / imm list.
    pub const GC: u32 = 5;
    /// The cross-shard router gate: read-held by multi-shard batch writes,
    /// write-held while a shard-spanning snapshot drains every shard's
    /// pipeline. Sits below every per-shard lock so the snapshot gate can
    /// acquire each shard's WAL lock and commit gate after it.
    pub const ROUTER: u32 = 8;
    /// The append (WAL) lock: the first lock on the write path.
    pub const WAL: u32 = 10;
    /// The commit gate: taken after the WAL lock, released out of order.
    pub const COMMIT_GATE: u32 = 20;
    /// The version set (manifest).
    pub const VERSIONS: u32 = 30;
    /// The cached current version (installed while `versions` is held).
    pub const CURRENT_VERSION: u32 = 35;
    /// The active memtable handle.
    pub const MEM: u32 = 40;
    /// The sealed-memtable list.
    pub const IMM: u32 = 45;
    /// The cross-shard batch-stamp retention registry (`stamps.rs`). Taken
    /// briefly from the commit paths (WAL lock held), flush (no locks held),
    /// GC (queue lock held) and checkpoint capture (WAL lock held), so it
    /// sits above all of those.
    pub const STAMPS: u32 = 50;
    /// The table cache's open-reader map.
    pub const TABLE_CACHE: u32 = 60;
    /// One shard of the shared block cache. Above `TABLE_CACHE` (a table-cache
    /// miss opens a table whose block reads probe the cache) and below the
    /// memtable shard locks; block-cache shards never nest with each other.
    pub const BLOCK_CACHE: u32 = 65;
}

/// Shared engine state.
pub(crate) struct DbInner {
    pub(crate) path: PathBuf,
    pub(crate) options: Options,
    pub(crate) stats: Arc<Stats>,
    pub(crate) failpoints: FailpointRegistry,
    /// Guards the active commit log. Only the current commit-group leader (for
    /// its append stage), flush hot write-back, rotation, capture and close
    /// take it; encoding aside, no per-record work happens under it.
    pub(crate) wal: RankedMutex<WalState>,
    /// The group-commit queue: leader election and writer hand-off.
    pub(crate) committer: Committer,
    /// Retires commit groups in append order: `last_seqno` may only
    /// move through contiguous group ranges even when a later group's inserts
    /// (or fsync) finish first.
    pub(crate) publisher: PublicationSequencer,
    /// Which appended commit-log bytes are durable; the commit's sync stage.
    pub(crate) watermark: DurabilityWatermark,
    /// Commit groups currently in flight (appended, not yet complete). Feeds the
    /// `wal_pipeline_max_depth` high-water mark.
    pub(crate) pipeline_depth: AtomicU64,
    /// Size of the active commit log as of the last group append, so the
    /// per-group rotation check can stay off the append lock; re-verified under
    /// the lock before any actual rotation.
    pub(crate) wal_size_hint: AtomicU64,
    /// Held shared (after the WAL lock, never the other way) by every commit
    /// group from its WAL append until its publication. Scan captures, forced
    /// rotations and the leader-side rotation take it exclusively to drain the
    /// pipeline: a scan must never observe half a write batch, and a rotation
    /// must never seal a memtable a group is still inserting into (its entries
    /// would be flushed from an incomplete snapshot while the WAL records that
    /// back them are retired).
    pub(crate) commit_gate: RankedRwLock<()>,
    /// The active memory component.
    pub(crate) mem: RankedRwLock<Arc<Memtable>>,
    /// Sealed memory components awaiting flush, oldest first.
    pub(crate) imm: RankedRwLock<Vec<Arc<ImmutableMemtable>>>,
    /// The version set (manifest); also the allocator of file numbers.
    pub(crate) versions: RankedMutex<VersionSet>,
    /// Cached copy of the current version for the read path.
    pub(crate) current_version: RankedRwLock<Arc<Version>>,
    /// Open MVCC snapshots, by seqno. Shared with every memtable this engine
    /// creates, so an overwrite knows whether the version it shadows must be
    /// preserved for a snapshot-bounded read (see [`SnapshotRetention`]).
    pub(crate) retention: Arc<SnapshotRetention>,
    /// Files retired from the version chain, awaiting garbage collection.
    gc: RankedMutex<GcQueue>,
    /// `true` while the GC queue is non-empty; lets dropping readers decide
    /// whether a collection nudge is worth sending without taking the queue lock.
    gc_pending: Arc<AtomicBool>,
    pub(crate) table_cache: TableCache,
    /// WAL-shipping retention floor: commit logs with `id >= ship_floor` are
    /// exempt from garbage collection, so a read replica that last caught up
    /// while `ship_floor`'s log was active can always re-read the records past
    /// its cursor. `u64::MAX` (the default) holds nothing. Armed by
    /// [`Db::hold_wal_for_replication`] and ratcheted forward by each
    /// [`Replica::catch_up`](crate::Replica::catch_up); see `replica.rs`.
    pub(crate) ship_floor: AtomicU64,
    /// Cross-shard batch-stamp retention, shared by every shard of this
    /// database: keeps a commit log on disk while it holds the last evidence
    /// that a cross-shard batch committed everywhere. See `stamps.rs`.
    pub(crate) stamps: Arc<crate::stamps::StampRetention>,
    /// This shard's index in the router order (0 on single-shard databases);
    /// the key under which it reports to the shared `stamps` registry.
    pub(crate) shard_index: usize,
    /// Largest sequence number whose effects are visible to readers.
    pub(crate) last_seqno: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    pub(crate) work_tx: Sender<WorkItem>,
}

impl std::fmt::Debug for DbInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbInner").field("path", &self.path).finish()
    }
}

/// A TRIAD (or baseline) LSM key-value store.
///
/// All methods take `&self` and are safe to call from multiple threads.
///
/// # Sharding
///
/// With `Options::shards.count > 1` the database is that many fully
/// independent engine shards (`Shard`) behind this facade. Point
/// operations hash to exactly one shard (`crate::shard::ShardRouter`) and
/// touch no cross-shard state; scans and snapshots span every shard. A
/// multi-key batch whose keys hash to different shards commits atomically
/// *per shard* — see [`Db::write`] for the caveat.
pub struct Db {
    /// The engine shards, router index order. Always at least one.
    pub(crate) shards: Vec<Shard>,
    /// Key → shard routing (pure function of the key and the shard count).
    pub(crate) routes: ShardRouter,
    /// The cross-shard coordination gate (rank `ROUTER`, below every
    /// per-shard lock). Multi-shard batch writes hold it shared across their
    /// sequential per-shard commits; a shard-spanning snapshot holds it
    /// exclusively while it drains every shard's pipeline, so a snapshot can
    /// never observe a cross-shard batch half-applied. Single-shard
    /// operations — the hot path — never touch it.
    pub(crate) router: RankedRwLock<()>,
    /// Allocator of cross-shard batch ids ([`triad_wal::BatchStamp`]).
    /// Seeded as `(epoch << 32) | 1`, where the epoch is the manifest's
    /// file-number high-water mark at open: retained stamp-evidence logs can
    /// carry a previous epoch's stamps into this one (see `stamps.rs`), so
    /// ids must be unique across opens, not just within one.
    next_batch_id: AtomicU64,
    path: PathBuf,
    options: Options,
    pub(crate) failpoints: FailpointRegistry,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("path", &self.path).field("shards", &self.shards.len()).finish()
    }
}

/// A shard recovered from disk but not yet live: the manifest is loaded and
/// every stray commit log's records are in memory, but nothing has been
/// replayed. [`Db::open`] runs cross-shard torn-batch detection over the
/// stray records of *every* shard between [`Shard::begin_open`] and
/// [`Shard::finish_open`] — a per-shard open could never tell a complete
/// cross-shard batch from a torn one.
struct ShardRecovery {
    path: PathBuf,
    versions: VersionSet,
    /// Stray commit logs in log-id order, each with its recovered records.
    stray_logs: Vec<(u64, Vec<LogRecord>)>,
}

impl ShardRecovery {
    /// Reads every on-disk commit log *not* in the stray set — retained
    /// batch-stamp evidence below the recovery horizon, and live CL-SSTable
    /// backing logs — and returns the records of those carrying a stamp.
    /// These records are never replayed (the version chain already owns
    /// them); they exist purely so torn-batch detection can tell a batch
    /// whose slice graduated into an SSTable from one that never committed.
    /// Best-effort by design: an unreadable log contributes nothing, and
    /// detection falls back to its conservative stray-only verdict.
    fn read_stamp_evidence(&self) -> Vec<LogRecord> {
        let stray: HashSet<u64> = self.stray_logs.iter().map(|(id, _)| *id).collect();
        let mut evidence = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.path) else { return evidence };
        let mut ids: Vec<u64> = entries
            .flatten()
            .filter_map(|entry| parse_log_file_name(&entry.file_name().to_string_lossy()))
            .filter(|id| !stray.contains(id))
            .collect();
        ids.sort_unstable();
        for id in ids {
            let Ok(reader) = LogReader::open(log_file_path(&self.path, id)) else { continue };
            let Ok((records, _tail)) = reader.recover() else { continue };
            let records: Vec<LogRecord> = records.into_iter().map(|r| r.record).collect();
            if records.iter().any(|record| record.stamp.is_some()) {
                evidence.extend(records);
            }
        }
        evidence
    }
}

impl Shard {
    /// First half of opening one engine shard rooted at `path`: recover the
    /// manifest and read (but do not replay) every stray commit log.
    fn begin_open(path: PathBuf, options: &Options) -> Result<ShardRecovery> {
        std::fs::create_dir_all(&path)
            .map_err(|e| Error::io(format!("creating database directory {}", path.display()), e))?;

        let versions = VersionSet::recover(&path, options.num_levels)?;

        // Find commit logs that hold updates which never reached an SSTable: logs
        // at or past the recovered `log_number` horizon that no live CL-SSTable owns.
        // Logs *below* the horizon are either backing stores of live CL-SSTables
        // (kept) or leftovers of a crash while deletions were pending — replaying one
        // of those would resurrect data a compaction already superseded, so they are
        // swept by `finish_open` instead.
        let live_backing_logs = versions.current().live_backing_logs();
        let recovery_horizon = versions.log_number();
        let mut stray_ids: Vec<u64> = Vec::new();
        for entry in
            std::fs::read_dir(&path).map_err(|e| Error::io("listing database directory", e))?
        {
            let entry = entry.map_err(|e| Error::io("listing database directory", e))?;
            if let Some(id) = parse_log_file_name(&entry.file_name().to_string_lossy()) {
                if id >= recovery_horizon && !live_backing_logs.contains(&id) {
                    stray_ids.push(id);
                }
            }
        }
        stray_ids.sort_unstable();
        let mut stray_logs = Vec::with_capacity(stray_ids.len());
        for id in stray_ids {
            let reader = LogReader::open(log_file_path(&path, id))?;
            let (records, _tail) = reader.recover()?;
            stray_logs.push((id, records.into_iter().map(|r| r.record).collect()));
        }
        Ok(ShardRecovery { path, versions, stray_logs })
    }

    /// Second half of the open: replay the stray logs (skipping `drops`, the
    /// seqnos of torn cross-shard batches), start a fresh WAL and memtable,
    /// and spawn the background worker.
    #[allow(clippy::too_many_arguments)] // one-call-site constructor plumbing
    fn finish_open(
        recovery: ShardRecovery,
        options: Options,
        failpoints: FailpointRegistry,
        index: usize,
        block_cache: Option<Arc<BlockCache>>,
        io_pool: Option<Arc<IoPool>>,
        stamps: Arc<crate::stamps::StampRetention>,
        drops: &HashSet<SeqNo>,
        torn_batches: u64,
    ) -> Result<Shard> {
        let ShardRecovery { path, mut versions, stray_logs } = recovery;
        let stats = Arc::new(Stats::new());
        stats.add_recovery_torn_batches(torn_batches);
        let mut last_seqno = versions.last_seqno();

        // Replay each stray log as one L0 table, in log-id order, so newer logs
        // shadow older ones.
        for (log_id, records) in &stray_logs {
            last_seqno = last_seqno.max(replay_log(
                &path,
                *log_id,
                records,
                drops,
                &mut versions,
                &options,
            )?);
        }
        versions.set_last_seqno(last_seqno);

        // Fresh commit log and memtable for new writes.
        let wal_id = versions.allocate_file_number();
        let wal_writer = LogWriter::create(log_file_path(&path, wal_id), wal_id)?;
        let current_version = versions.current();

        let (work_tx, work_rx) = crossbeam_channel::unbounded();
        let retention = Arc::new(SnapshotRetention::new());
        let inner = Arc::new(DbInner {
            table_cache: TableCache::new(path.clone(), Arc::clone(&stats), block_cache, io_pool),
            path,
            options,
            stats,
            failpoints,
            wal: RankedMutex::new(
                lock_rank::WAL,
                "db.wal",
                WalState {
                    writer: wal_writer,
                    id: wal_id,
                    writes_since_sync: 0,
                    next_seqno: last_seqno + 1,
                    encoder: BatchEncoder::new(),
                    next_group_index: 0,
                },
            ),
            committer: Committer::new(),
            publisher: PublicationSequencer::new(),
            watermark: DurabilityWatermark::new(wal_id),
            pipeline_depth: AtomicU64::new(0),
            wal_size_hint: AtomicU64::new(0),
            commit_gate: RankedRwLock::new(lock_rank::COMMIT_GATE, "db.commit_gate", ()),
            mem: RankedRwLock::new(
                lock_rank::MEM,
                "db.mem",
                Arc::new(Memtable::with_retention(Arc::clone(&retention))),
            ),
            imm: RankedRwLock::new(lock_rank::IMM, "db.imm", Vec::new()),
            versions: RankedMutex::new(lock_rank::VERSIONS, "db.versions", versions),
            current_version: RankedRwLock::new(
                lock_rank::CURRENT_VERSION,
                "db.current_version",
                current_version,
            ),
            retention,
            gc: RankedMutex::new(lock_rank::GC, "db.gc", GcQueue::default()),
            gc_pending: Arc::new(AtomicBool::new(false)),
            ship_floor: AtomicU64::new(u64::MAX),
            stamps,
            shard_index: index,
            last_seqno: AtomicU64::new(last_seqno),
            shutdown: AtomicBool::new(false),
            work_tx,
        });

        // Delete whatever a previous incarnation left behind: replayed stray logs,
        // logs below the recovery horizon, and table files a crash orphaned while
        // their deletion (or manifest installation) was pending.
        inner.sweep_unreferenced_files()?;

        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("triad-background-{index}"))
                .spawn(move || background_worker(inner, work_rx))
                .map_err(|e| Error::io("spawning background worker", e))?
        };

        Ok(Shard { inner, worker: Mutex::new(Some(worker)) })
    }

    /// Stops this shard's background worker, collects leftover garbage and
    /// syncs its commit log. Idempotent.
    fn close(&self) -> Result<()> {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        let _ = self.inner.work_tx.send(WorkItem::Shutdown);
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        // Collect whatever the worker left queued (files pinned by readers that
        // have finished since, or retirements raced with shutdown). Anything still
        // pinned now is swept by the next open.
        self.inner.collect_garbage();
        // Make sure everything appended so far survives a process exit.
        let mut wal = self.inner.wal.lock();
        wal.writer.sync()?;
        Ok(())
    }
}

/// Rebuilds one stray commit log into an L0 SSTable during recovery, skipping
/// the seqnos in `drops` (slices of torn cross-shard batches).
///
/// Returns the largest sequence number seen in the log — over *all* records,
/// dropped ones included: their seqnos are consumed (the records were durable
/// once) and must never be re-issued to different data.
fn replay_log(
    path: &Path,
    log_id: u64,
    records: &[LogRecord],
    drops: &HashSet<SeqNo>,
    versions: &mut VersionSet,
    options: &Options,
) -> Result<SeqNo> {
    if records.is_empty() {
        return Ok(0);
    }
    let mut latest: std::collections::BTreeMap<Vec<u8>, (SeqNo, ValueKind, Vec<u8>)> =
        std::collections::BTreeMap::new();
    let mut max_seqno = 0;
    for record in records {
        max_seqno = max_seqno.max(record.seqno);
        if drops.contains(&record.seqno) {
            continue;
        }
        match latest.get(&record.key) {
            Some((existing_seqno, _, _)) if *existing_seqno >= record.seqno => {}
            _ => {
                latest
                    .insert(record.key.clone(), (record.seqno, record.kind, record.value.clone()));
            }
        }
    }
    if latest.is_empty() {
        // Every record was dropped: there is no table to build, but the seqno
        // range is still consumed and the horizon must advance past this log,
        // or the next open would replay the torn slice after all.
        versions.log_and_apply(VersionEdit {
            last_seqno: Some(max_seqno),
            log_number: Some(log_id + 1),
            ..Default::default()
        })?;
        return Ok(max_seqno);
    }
    let file_id = versions.allocate_file_number();
    let sst_path = sst_file_path(path, file_id);
    let table_options = TableBuilderOptions {
        block_size: options.block_size,
        bloom_bits_per_key: options.bloom_bits_per_key,
    };
    let mut builder = TableBuilder::create(&sst_path, table_options)?;
    for (key, (seqno, kind, value)) in &latest {
        let ikey = triad_common::types::InternalKey::new(key.clone(), *seqno, *kind);
        builder.add(&ikey, value)?;
    }
    let (props, size) = builder.finish()?;
    let file = FileMetadata {
        id: file_id,
        level: 0,
        kind: triad_sstable::TableKind::Block,
        size,
        num_entries: props.num_entries,
        smallest: props.smallest.clone().expect("non-empty table"),
        largest: props.largest.clone().expect("non-empty table"),
        hll: props.hll.clone(),
        backing_log_id: None,
    };
    versions.log_and_apply(VersionEdit {
        added: vec![file],
        last_seqno: Some(max_seqno),
        // The log's contents are captured by the new table, so a crash between
        // this edit and the startup sweep must not replay the log again.
        log_number: Some(log_id + 1),
        ..Default::default()
    })?;
    Ok(max_seqno)
}

/// Cross-shard torn-batch detection over every shard's stray-log records.
///
/// A shard-spanning batch commits per shard, and its per-shard slices carry a
/// [`BatchStamp`] on their first record. A batch is *torn* when fewer (or
/// more) than `fanout` shards hold a complete slice — all `len` consecutive
/// seqnos durable — or when its stamps disagree on the fanout. Every seqno of
/// every slice of a torn batch, complete slices included, goes into the
/// owning shard's drop set: the batch was never acknowledged (the router acks
/// only after all shards commit), so dropping it wholesale restores
/// all-or-nothing semantics. Returns one drop set per shard (seqnos are a
/// per-shard namespace) and the number of torn batches.
///
/// Residual caveat: detection sees only records still in stray logs. In the
/// (much rarer) crash window where one shard's slice already graduated into
/// an SSTable — a flush between the per-shard commits — that slice is beyond
/// recall and the tear survives; fixing that would take cross-shard
/// two-phase commit.
pub(crate) fn torn_batch_drops(per_shard: &[Vec<&LogRecord>]) -> (Vec<HashSet<SeqNo>>, u64) {
    struct Slice {
        shard: usize,
        first: SeqNo,
        len: u32,
        complete: bool,
    }
    struct BatchSlices {
        fanout: u32,
        fanout_disagrees: bool,
        slices: Vec<Slice>,
    }
    let mut batches: HashMap<u64, BatchSlices> = HashMap::new();
    for (shard, records) in per_shard.iter().enumerate() {
        let seqnos: HashSet<SeqNo> = records.iter().map(|record| record.seqno).collect();
        for record in records {
            let Some(stamp) = record.stamp else { continue };
            let complete = (record.seqno..record.seqno + u64::from(stamp.len))
                .all(|seqno| seqnos.contains(&seqno));
            let entry = batches.entry(stamp.batch_id).or_insert_with(|| BatchSlices {
                fanout: stamp.fanout,
                fanout_disagrees: false,
                slices: Vec::new(),
            });
            if entry.fanout != stamp.fanout {
                entry.fanout_disagrees = true;
            }
            entry.slices.push(Slice { shard, first: record.seqno, len: stamp.len, complete });
        }
    }
    let mut drops: Vec<HashSet<SeqNo>> = vec![HashSet::new(); per_shard.len()];
    let mut torn = 0;
    for batch in batches.values() {
        let complete = batch.slices.iter().filter(|slice| slice.complete).count();
        if !batch.fanout_disagrees && complete == batch.fanout as usize {
            continue;
        }
        torn += 1;
        for slice in &batch.slices {
            for seqno in slice.first..slice.first + u64::from(slice.len) {
                drops[slice.shard].insert(seqno);
            }
        }
    }
    (drops, torn)
}

impl Db {
    /// Opens (creating or recovering) the database at `path`.
    pub fn open(path: impl AsRef<Path>, options: Options) -> Result<Db> {
        Self::open_with_failpoints(path, options, FailpointRegistry::new())
    }

    /// Opens the database with an explicit failpoint registry (used by recovery tests).
    pub fn open_with_failpoints(
        path: impl AsRef<Path>,
        options: Options,
        failpoints: FailpointRegistry,
    ) -> Result<Db> {
        options.validate()?;
        let path = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&path)
            .map_err(|e| Error::io(format!("creating database directory {}", path.display()), e))?;

        // A directory still carrying the checkpoint-in-progress marker is a
        // partial checkpoint: opening it would silently recover a torn subset
        // of the source database (or reinitialize an empty one). Refuse hard;
        // the remedy is to delete the directory and take a fresh checkpoint.
        if path.join(crate::checkpoint::PENDING_MARKER).exists() {
            return Err(Error::corruption_at(
                "partial checkpoint (CHECKPOINT-PENDING marker present); \
                 remove the directory and take a new checkpoint",
                path.clone(),
            ));
        }

        // The persisted shard count always wins over the requested one; the
        // effective count is reflected back into `options.shards`.
        let count = crate::shard::resolve_count(&path, options.shards.count)?;
        let mut options = options;
        options.shards.count = count;
        if count > 1 {
            crate::shard::write_marker(&path, count)?;
        }

        // One block cache (and one readahead pool) serves every keyspace
        // shard: the cache shards internally by block key, independently of
        // keyspace sharding, so the byte budget is global rather than
        // multiplied by the shard count.
        let block_cache =
            (options.block_cache > 0).then(|| Arc::new(BlockCache::new(options.block_cache)));
        let io_pool = (block_cache.is_some() && options.io_threads > 0)
            .then(|| Arc::new(IoPool::new(options.io_threads)));

        // Phase one: recover every shard's manifest and read (without
        // replaying) its stray commit logs.
        let mut recoveries = Vec::with_capacity(count);
        for index in 0..count {
            let shard_path = if count == 1 {
                // Single-shard databases keep the unsharded root layout,
                // byte-identical to earlier versions.
                path.clone()
            } else {
                path.join(crate::shard::dir_name(index))
            };
            recoveries.push(Shard::begin_open(shard_path, &options)?);
        }

        // Cross-shard torn-batch detection, between the per-shard phases: a
        // crash between the sequential per-shard commits of a shard-spanning
        // batch can persist some shards' slices and not others, and only a
        // view across every shard's stray records can tell. Single-shard
        // databases never write stamps, so there is nothing to detect.
        let (drops, torn_batches) = if count > 1 {
            let per_shard: Vec<Vec<&LogRecord>> = recoveries
                .iter()
                .map(|recovery| {
                    recovery.stray_logs.iter().flat_map(|(_, records)| records).collect()
                })
                .collect();
            let first_pass = torn_batch_drops(&per_shard);
            if first_pass.1 == 0 {
                first_pass
            } else {
                // A batch can look torn from the stray logs alone when one
                // shard's slice already graduated into an SSTable: its
                // stamped records left the stray set with the flush. The
                // retention registry kept (and checkpoints copied) the
                // sub-horizon logs holding that evidence, so read them back
                // and re-judge before dropping anything acknowledged. The
                // merged drop sets may name evidence-log seqnos; harmless —
                // only stray-log replay consults them.
                let evidence: Vec<Vec<LogRecord>> =
                    recoveries.iter().map(ShardRecovery::read_stamp_evidence).collect();
                let merged: Vec<Vec<&LogRecord>> = recoveries
                    .iter()
                    .zip(&evidence)
                    .map(|(recovery, extra)| {
                        recovery
                            .stray_logs
                            .iter()
                            .flat_map(|(_, records)| records)
                            .chain(extra.iter())
                            .collect()
                    })
                    .collect();
                torn_batch_drops(&merged)
            }
        } else {
            (vec![HashSet::new()], 0)
        };

        // Phase two: replay (minus the torn slices) and go live. The global
        // torn count lands on shard 0's stats registry: `Db::stats` sums
        // across shards, so attributing it once keeps the merged total right.
        let stamps = Arc::new(crate::stamps::StampRetention::new());
        let mut shards = Vec::with_capacity(count);
        for (index, recovery) in recoveries.into_iter().enumerate() {
            shards.push(Shard::finish_open(
                recovery,
                options.clone(),
                failpoints.clone(),
                index,
                block_cache.clone(),
                io_pool.clone(),
                Arc::clone(&stamps),
                &drops[index],
                if index == 0 { torn_batches } else { 0 },
            )?);
        }

        // Batch ids must be unique across open-to-open epochs: retained
        // evidence logs (and checkpoints of them) can carry stamps from a
        // previous epoch into this one, and a colliding id would corrupt the
        // per-batch slice counts. The manifest's file-number space strictly
        // grows across opens (every open allocates a fresh commit-log
        // number), so its high-water mark is a ready-made epoch counter.
        let epoch = shards
            .iter()
            .map(|shard| shard.inner.versions.lock().next_file_number())
            .max()
            .unwrap_or(1);
        Ok(Db {
            shards,
            routes: ShardRouter::new(count),
            router: RankedRwLock::new(lock_rank::ROUTER, "db.router", ()),
            next_batch_id: AtomicU64::new((epoch << 32) | 1),
            path,
            options,
            failpoints,
        })
    }

    /// Inserts or updates `key`.
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Result<()> {
        self.put_opt(key, value, WriteOptions::default())
    }

    /// Inserts or updates `key` with explicit write options.
    pub fn put_opt(
        &self,
        key: impl AsRef<[u8]>,
        value: impl AsRef<[u8]>,
        opts: WriteOptions,
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key.as_ref().to_vec(), value.as_ref().to_vec());
        self.write(batch, opts)
    }

    /// Deletes `key`.
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key.as_ref().to_vec());
        self.write(batch, WriteOptions::default())
    }

    /// Applies a [`WriteBatch`] atomically with respect to the commit log.
    ///
    /// # Cross-shard atomicity
    ///
    /// On a sharded database (`Options::shards.count > 1`) a batch whose keys
    /// hash to more than one shard is split and committed sequentially per
    /// shard. Live readers never observe a half-applied batch — MVCC
    /// snapshots (and the scans built on them) drain every shard behind the
    /// router gate that in-flight cross-shard batches hold. Crash recovery
    /// holds the same line for *unacknowledged* batches: each slice's first
    /// WAL record carries a [`triad_wal::BatchStamp`], and recovery drops
    /// every slice of a batch that is only partially durable (counted in
    /// `recovery_torn_batches`), so a batch whose `write` never returned
    /// recovers all-or-nothing. The residual window: a slice that already
    /// graduated into an SSTable (a flush racing the crash) is beyond
    /// recall — see `torn_batch_drops`.
    pub fn write(&self, batch: WriteBatch, opts: WriteOptions) -> Result<()> {
        self.write_routed(batch, opts).map(|_| ())
    }

    /// Like [`write`](Db::write), but returns the sequence number assigned to the
    /// batch's last operation (its operations occupy the contiguous range ending
    /// there). Returns the current [`last_seqno`](Db::last_seqno) for an empty
    /// batch. Used by tests and tooling that audit commit ordering.
    ///
    /// On a sharded database every shard runs its own sequence space, so the
    /// returned seqno is **not comparable across keys on different shards**:
    /// it orders this write only against other writes to the same shard, and
    /// must not be used to decide whether the write is visible to a
    /// [`Snapshot`] (whose [`seqno`](Snapshot::seqno) is a maximum across
    /// shards — compare against an external logical clock instead). For a
    /// batch that spans shards this returns the largest per-shard commit seqno.
    pub fn write_committed(&self, batch: WriteBatch, opts: WriteOptions) -> Result<SeqNo> {
        self.write_routed(batch, opts)
    }

    /// Routes a batch to its shard(s). Single-shard batches — every point
    /// write, and any batch whose keys all hash together — go straight to the
    /// owning shard with no cross-shard coordination. A batch spanning shards
    /// commits sequentially per shard (shard-index order) under a shared
    /// router-gate hold, so shard-spanning snapshots (which take the gate
    /// exclusively) serialize against it and observe the batch all-or-nothing.
    fn write_routed(&self, batch: WriteBatch, opts: WriteOptions) -> Result<SeqNo> {
        if self.shards.len() == 1 {
            return self.shards[0].inner.write_batch(batch, opts);
        }
        if batch.ops.is_empty() {
            return Ok(self.last_seqno());
        }

        // Detect the common single-shard batch without allocating.
        let first = self.routes.route(&batch.ops[0].key);
        if batch.ops.iter().all(|op| self.routes.route(&op.key) == first) {
            return self.shards[first].inner.write_batch(batch, opts);
        }

        // Split the batch per shard, preserving intra-shard operation order
        // (later ops on the same key stay later in that shard's slice).
        let mut per_shard: Vec<WriteBatch> = Vec::new();
        per_shard.resize_with(self.shards.len(), WriteBatch::new);
        for op in batch.ops {
            per_shard[self.routes.route(&op.key)].ops.push(op);
        }

        // Stamp every slice with the batch's provenance — one fresh batch id,
        // the number of shards that got a slice, and the slice's own length.
        // The commit paths put the stamp on the slice's first WAL record;
        // recovery counts durable slices per batch id and drops the slices of
        // any batch a crash left partially committed.
        let fanout = per_shard.iter().filter(|slice| !slice.ops.is_empty()).count() as u32;
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        for slice in per_shard.iter_mut().filter(|slice| !slice.ops.is_empty()) {
            slice.stamp = Some(BatchStamp { batch_id, fanout, len: slice.ops.len() as u32 });
        }

        let _coord = self.router.read();
        let mut max_seqno = 0;
        for (index, slice) in per_shard.into_iter().enumerate() {
            if slice.ops.is_empty() {
                continue;
            }
            let committed = self.shards[index].inner.write_batch(slice, opts).and_then(|seqno| {
                // The crash window the torn-batch recovery test probes: some
                // shards' slices are durably committed, the rest never happen.
                self.failpoints.check("db.after_shard_commit")?;
                Ok(seqno)
            });
            match committed {
                Ok(seqno) => max_seqno = max_seqno.max(seqno),
                Err(err) => {
                    // The fan-out died partway: this batch can never complete,
                    // so its slices must not pin their logs forever. The
                    // committed slices stay durable; recovery judges the tear.
                    self.shards[0].inner.stamps.abandon(batch_id);
                    return Err(err);
                }
            }
        }
        Ok(max_seqno)
    }

    /// The largest published sequence number. It only moves once the covering
    /// WAL prefix is at least as durable as the engine's sync policy promises
    /// *and* the covered writes are visible in the memtable — and it moves
    /// strictly in commit-group order, through contiguous group ranges, even
    /// when a later group's inserts finish first.
    ///
    /// Publication is per commit group and completion-based: a group member's
    /// `write` call may return a moment before the group's range is applied
    /// here (the member's own writes are already readable, and a group whose
    /// predecessor is still in flight registers its range and moves on), so
    /// compare against seqnos returned by
    /// [`write_committed`](Db::write_committed) only after concurrent writers
    /// have quiesced.
    ///
    /// On a sharded database each shard runs its own sequence space and this
    /// returns the largest published seqno across shards. That maximum is
    /// **not comparable across keys on different shards**: a write on another
    /// shard may carry a smaller seqno and still be newer. Do not use it to
    /// order writes against each other or against snapshots.
    pub fn last_seqno(&self) -> SeqNo {
        self.shards
            .iter()
            .map(|shard| shard.inner.last_seqno.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Returns the current value of `key`, or `None` if it does not exist (or was
    /// deleted).
    ///
    /// Each call's wall-clock latency is recorded (in nanoseconds) into the
    /// shared [`Stats::get_latency`] histogram, so tail latency of the read
    /// path is observable without any harness-side clocking.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        let key = key.as_ref();
        let shard = &self.shards[self.routes.route(key)];
        let started = Instant::now();
        let result = shard.inner.get(key);
        shard.inner.stats.record_get_latency_ns(started.elapsed().as_nanos() as u64);
        result
    }

    /// Returns an iterator over every live key/value pair in key order.
    pub fn scan(&self) -> Result<DbIterator> {
        self.scan_range(None, None)
    }

    /// Opens an MVCC snapshot: a frozen, consistent view of the database as of
    /// the moment of the call.
    ///
    /// The returned [`Snapshot`] pins a published sequence number together with
    /// everything needed to read at it — the memory components and the current
    /// [`Version`]. The sequence number always sits on a *commit-group
    /// boundary*: the snapshot is taken with the commit pipeline drained, so it
    /// can never observe half a write batch, data that was never acknowledged
    /// under the engine's durability policy, or a torn commit group. Reads
    /// through the snapshot ([`Snapshot::get`], [`Snapshot::scan`]) are
    /// seqno-bounded and unaffected by later writes, flushes or compactions;
    /// files and superseded versions the snapshot can still see stay alive
    /// until the handle is dropped, at which point garbage collection reclaims
    /// whatever only the snapshot was pinning.
    ///
    /// On a sharded database the snapshot spans every shard: it is taken
    /// under the exclusive router gate with each shard's pipeline drained in
    /// turn, capturing one commit-group-boundary seqno per shard. Because
    /// in-flight cross-shard batches hold the router gate shared, the
    /// snapshot observes every such batch all-or-nothing.
    pub fn snapshot(&self) -> Snapshot {
        if self.shards.len() == 1 {
            Snapshot::open(&self.shards[0].inner)
        } else {
            Snapshot::open_multi(&self.shards, &self.router)
        }
    }

    /// Returns an iterator over the live key/value pairs with user keys in
    /// `[start, end)`; either bound may be omitted.
    ///
    /// The iterator pins the version it was created against, so the files it reads
    /// — including the commit logs backing CL-SSTables — outlive any concurrent
    /// compaction for as long as the iterator exists. On a sharded database
    /// the per-shard iterators are k-way merged (routing makes per-shard key
    /// sets disjoint, so the merge needs no cross-shard dedup) over an
    /// ephemeral shard-spanning snapshot, which is released as soon as the
    /// iterator has pinned its sources.
    pub fn scan_range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Result<DbIterator> {
        if self.shards.len() == 1 {
            return DbIterator::with_bounds(
                &self.shards[0].inner,
                start.map(|s| s.to_vec()),
                end.map(|e| e.to_vec()),
            );
        }
        let snapshot = self.snapshot();
        snapshot.scan_range(start, end)
    }

    /// Forces the active memtable to be sealed and flushed, then waits for every
    /// pending flush to complete. Primarily useful in tests and benchmarks.
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.inner.force_rotate()?;
        }
        for shard in &self.shards {
            shard.inner.wait_for_pending_flushes()?;
        }
        Ok(())
    }

    /// Blocks until no compaction work is pending on any shard (used by
    /// benchmarks to measure steady-state sizes), then runs a
    /// garbage-collection pass.
    pub fn wait_for_compactions(&self) -> Result<()> {
        for shard in &self.shards {
            shard.inner.wait_for_pending_flushes()?;
            loop {
                if shard.inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if !shard.inner.compaction_needed() {
                    shard.inner.collect_garbage();
                    break;
                }
                let _ = shard.inner.work_tx.send(WorkItem::Compact);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        Ok(())
    }

    /// Runs a synchronous garbage-collection pass, deleting every retired file that
    /// no live version, pending memtable or the active commit log still references.
    ///
    /// GC also runs automatically after every version installation and when the
    /// last pin of a retired version drops; this method exists for tests and
    /// operational tooling that want a deterministic collection point. Returns
    /// `true` when nothing is left awaiting deletion.
    pub fn collect_garbage(&self) -> bool {
        let mut clean = true;
        for shard in &self.shards {
            clean &= shard.inner.collect_garbage();
        }
        clean
    }

    /// The set of file names the engine expects in its directory for the current
    /// state: live tables and CL indexes, their backing commit logs, the logs of
    /// sealed-but-unflushed memtables, the active commit log, the live manifest and
    /// the `CURRENT` pointer — plus every file still referenced by a *pinned*
    /// version (an open [`Snapshot`] or in-flight iterator holds retired files
    /// alive, and they are expected on disk until the pin drops).
    ///
    /// Once all readers and snapshots have finished and
    /// [`collect_garbage`](Db::collect_garbage) reports an empty queue, a
    /// directory listing equals exactly this set — the invariant the
    /// file-lifetime tests assert (no leaks, no premature deletes).
    /// On a sharded database, names are relative to the database root:
    /// per-shard files carry their `shard-NNN/` prefix and the root `SHARDS`
    /// marker is included.
    pub fn expected_live_files(&self) -> BTreeSet<String> {
        if self.shards.len() == 1 {
            return self.shards[0].inner.expected_live_files();
        }
        let mut names = BTreeSet::new();
        names.insert(crate::shard::SHARDS_MARKER.to_string());
        for (index, shard) in self.shards.iter().enumerate() {
            let prefix = crate::shard::dir_name(index);
            for name in shard.inner.expected_live_files() {
                names.insert(format!("{prefix}/{name}"));
            }
        }
        names
    }

    /// Ids of the table handles currently held by the table caches, sorted
    /// (exposed for tests and diagnostics). File numbers are a per-shard
    /// namespace, so on a sharded database the ids of different shards may
    /// collide; duplicates are kept.
    pub fn cached_table_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.shards.iter().flat_map(|shard| shard.inner.table_cache.cached_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// A snapshot of the engine statistics, merged across shards: counters
    /// sum, latency histograms merge bucket-wise, and group-size /
    /// pipeline-depth high-water marks take the max.
    pub fn stats(&self) -> StatSnapshot {
        let mut merged = self.shards[0].inner.stats.snapshot();
        for shard in &self.shards[1..] {
            merged = merged.merge(&shard.inner.stats.snapshot());
        }
        merged
    }

    /// The shared statistics registry. On a single-shard database this is the
    /// live registry (counters keep updating as the engine runs); on a sharded
    /// database it is a *frozen* merge across shards, taken at call time.
    pub fn stats_handle(&self) -> Arc<Stats> {
        if self.shards.len() == 1 {
            return Arc::clone(&self.shards[0].inner.stats);
        }
        let merged = Stats::new();
        for shard in &self.shards {
            merged.absorb(&shard.inner.stats);
        }
        Arc::new(merged)
    }

    /// Per-shard statistics snapshots, shard-index order (the bench harness's
    /// per-shard breakdown).
    pub fn shard_stats(&self) -> Vec<StatSnapshot> {
        self.shards.iter().map(|shard| shard.inner.stats.snapshot()).collect()
    }

    /// The number of engine shards behind this handle (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total snapshot-retained prior versions currently held by the memory
    /// component (active plus sealed memtables).
    ///
    /// Exposed for tests and diagnostics of the MVCC retention bound: with
    /// `S` open snapshots, each key slot retains at most `S` prior versions,
    /// and a prior left stale by a dropped snapshot is released promptly —
    /// whenever a drop moves the retention registry's visibility bounds, the
    /// shard's memory components are swept of every prior no remaining
    /// snapshot can see (see [`crate::snapshot::Snapshot`]).
    pub fn retained_prior_versions(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.inner.mem.read().retained_versions();
            total += shard
                .inner
                .imm
                .read()
                .iter()
                .map(|imm| imm.memtable.retained_versions())
                .sum::<usize>();
        }
        total
    }

    /// The engine options this database was opened with, with
    /// `Options::shards.count` reflecting the *effective* (persisted) count.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The database directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of files per level, summed across shards (index = level).
    pub fn files_per_level(&self) -> Vec<usize> {
        let mut totals = vec![0usize; self.options.num_levels];
        for shard in &self.shards {
            let version = shard.inner.current_version.read().clone();
            for (level, total) in totals.iter_mut().enumerate().take(version.num_levels()) {
                *total += version.num_files(level);
            }
        }
        totals
    }

    /// Total on-disk size of every level across shards, in bytes.
    pub fn disk_usage(&self) -> u64 {
        let mut total = 0;
        for shard in &self.shards {
            let version = shard.inner.current_version.read().clone();
            total += (0..version.num_levels()).map(|l| version.level_size(l)).sum::<u64>();
        }
        total
    }

    /// The failpoint registry used by this instance (for tests). One registry
    /// is shared by every shard, so arming a failpoint affects them all.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.failpoints
    }

    /// Arms WAL retention for replication: from this call on, no shard deletes
    /// a commit log that was active at or after the call, so a [`Replica`]
    /// bootstrapped from a checkpoint taken *after* this call can always ship
    /// the records past its cursor. Each successful
    /// [`Replica::catch_up`](crate::Replica::catch_up) ratchets the retention
    /// floor forward, releasing the logs the replica no longer needs. Call
    /// before [`Db::checkpoint`](Db::checkpoint) when the checkpoint seeds a
    /// replica; a plain backup checkpoint does not need it.
    ///
    /// [`Replica`]: crate::Replica
    pub fn hold_wal_for_replication(&self) {
        for shard in &self.shards {
            shard.inner.arm_ship_floor();
        }
    }

    /// Releases the WAL retention armed by
    /// [`hold_wal_for_replication`](Db::hold_wal_for_replication): retired
    /// logs become collectable again on the next garbage-collection pass.
    /// A replica that has not caught up past the released logs must
    /// re-bootstrap from a fresh checkpoint.
    pub fn release_wal_hold(&self) {
        for shard in &self.shards {
            shard.inner.ship_floor.store(u64::MAX, Ordering::Release);
        }
        self.collect_garbage();
    }

    /// Closes the database, stopping background work and syncing every shard's
    /// commit log. Idempotent; dropping the handle performs the same shutdown.
    pub fn close(&self) -> Result<()> {
        let mut first_err = None;
        for shard in &self.shards {
            if let Err(err) = shard.close() {
                first_err.get_or_insert(err);
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

impl DbInner {
    /// The file names this shard expects in its directory for its current
    /// state (relative to the shard root). See [`Db::expected_live_files`].
    pub(crate) fn expected_live_files(&self) -> BTreeSet<String> {
        let (versions, manifest_name) = {
            let mut set = self.versions.lock();
            (set.live_versions(), set.live_manifest_name())
        };
        let mut names = BTreeSet::new();
        for version in versions {
            names.append(&mut version.referenced_file_names());
        }
        names.insert(manifest_name);
        names.insert("CURRENT".to_string());
        names.insert(log_file_name(self.wal.lock().id));
        for imm in self.imm.read().iter() {
            names.insert(log_file_name(imm.wal_id));
        }
        for log_id in self.stamps.retained_logs(self.shard_index) {
            names.insert(log_file_name(log_id));
        }
        names
    }

    /// Rotates the commit log and (usually) seals the memtable. Must be called
    /// with the WAL lock held, with `mem` the active memtable already captured by
    /// the caller (every caller holds a clone; re-reading `self.mem` here would
    /// be a second lock acquisition for the same value).
    ///
    /// Only a commit-group leader (after its group retired) or a forced rotation
    /// reaches this, so the TRIAD-MEM small-flush rewrite below never runs on a
    /// follower thread and never races a group's in-flight inserts.
    pub(crate) fn rotate_locked(
        &self,
        wal: &mut WalState,
        mem: &Arc<Memtable>,
        mem_size: usize,
    ) -> Result<()> {
        // Drain the commit pipeline before touching the log or the memtable: no
        // in-flight group may still be inserting into the memtable being sealed
        // or awaiting durability on the log being retired. In-flight groups
        // never need the WAL lock we hold (their fsync goes through a shared
        // handle, publication through the sequencer), so they always progress to
        // publication and release their gate membership; new groups cannot enter
        // because appending needs the WAL lock.
        let _drain = self.commit_gate.write();
        let triad = &self.options.triad;

        // TRIAD-MEM's FLUSH_TH rule: the flush trigger fired (typically because the
        // log filled up with updates to hot keys) but the memtable itself is small.
        // Instead of flushing a tiny file, rewrite the fresh values into a new log
        // and keep everything in memory (paper Algorithm 1, lines 14-20).
        if triad.mem_enabled
            && mem_size < triad.flush_skip_threshold_bytes
            && self.options.background_io == BackgroundIoMode::Enabled
        {
            self.failpoints.check("rotate.small_flush_skip")?;
            let new_id = self.versions.lock().allocate_file_number();
            let mut new_writer = LogWriter::create(log_file_path(&self.path, new_id), new_id)?;
            let encoder = &mut wal.encoder;
            encoder.clear();
            let mut rewrites: Vec<(Vec<u8>, SeqNo, u64)> = Vec::new();
            for (key, entry) in mem.snapshot_entries() {
                let rel = encoder.add_parts(entry.seqno, entry.kind, &key, &entry.value)?;
                rewrites.push((key, entry.seqno, rel));
            }
            let start = new_writer.append_batch(encoder)?;
            self.stats.add_wal_appends(rewrites.len() as u64);
            self.stats.add_wal_bytes_written(encoder.encoded_bytes());
            for (key, seqno, rel) in rewrites {
                mem.update_log_position(
                    &key,
                    seqno,
                    LogPosition { log_id: new_id, offset: start + rel },
                );
            }
            // Sync, not just flush: the old log below may hold the only durable
            // copy of sync-acknowledged keys, and it is about to be deleted. The
            // rewrite must be on disk before its predecessor goes — this is also
            // what entitles `note_rotation` to treat the rotation as a durable
            // boundary for the durability watermark.
            new_writer.sync()?;
            let old_id = wal.id;
            let old_writer = std::mem::replace(&mut wal.writer, new_writer);
            wal.id = new_id;
            wal.writes_since_sync = 0;
            drop(old_writer);
            // The old log's bytes are moot (deleted below, fresh values rewritten
            // durably into the new log) and the pipeline is drained, so the
            // watermark can retire everything appended so far and switch to the
            // new log.
            self.watermark.note_rotation(new_id);
            self.wal_size_hint.store(wal.writer.size(), Ordering::Relaxed);
            // The old log was never sealed into an immutable memtable and backs no
            // table, so nothing can reference it: safe to delete inline.
            self.remove_file_counted(&log_file_path(&self.path, old_id), true);
            self.stats.add_small_flush_skips(1);
            self.stats.add_wal_rotations(1);
            return Ok(());
        }

        // Figure 2 mode: discard the full memtable instead of flushing it.
        if self.options.background_io == BackgroundIoMode::Disabled {
            let new_id = self.versions.lock().allocate_file_number();
            let new_writer = LogWriter::create(log_file_path(&self.path, new_id), new_id)?;
            let old_id = wal.id;
            let old_writer = std::mem::replace(&mut wal.writer, new_writer);
            wal.id = new_id;
            wal.writes_since_sync = 0;
            drop(old_writer);
            self.watermark.note_rotation(new_id);
            self.wal_size_hint.store(0, Ordering::Relaxed);
            self.remove_file_counted(&log_file_path(&self.path, old_id), true);
            *self.mem.write() = self.fresh_memtable();
            self.stats.add_wal_rotations(1);
            return Ok(());
        }

        // Regular rotation: seal the log and the memtable, hand both to the flusher.
        self.failpoints.check("rotate.seal")?;
        let new_id = self.versions.lock().allocate_file_number();
        let new_writer = LogWriter::create(log_file_path(&self.path, new_id), new_id)?;
        let old_id = wal.id;
        let old_writer = std::mem::replace(&mut wal.writer, new_writer);
        wal.id = new_id;
        wal.writes_since_sync = 0;
        // Sealing fsyncs the outgoing log: with the pipeline drained, this is the
        // durable boundary — every byte ever appended is now durable.
        old_writer.seal()?;
        self.watermark.note_rotation(new_id);
        self.wal_size_hint.store(0, Ordering::Relaxed);

        let sealed = Arc::new(ImmutableMemtable { memtable: Arc::clone(mem), wal_id: old_id });
        self.imm.write().push(sealed);
        *self.mem.write() = self.fresh_memtable();
        self.stats.add_wal_rotations(1);
        let _ = self.work_tx.send(WorkItem::Flush);
        Ok(())
    }

    /// Seals the current memtable even if it is not full (used by `Db::flush`).
    pub(crate) fn force_rotate(&self) -> Result<()> {
        let mut wal = self.wal.lock();
        // Drain the commit pipeline (WAL-lock then gate, the global ordering):
        // sealing mid-insert would flush an incomplete snapshot of a group while
        // the WAL records that back it are retired, and in-flight groups may
        // still owe the old log an fsync.
        let _gate = self.commit_gate.write();
        let mem = self.mem.read().clone();
        if mem.is_empty() {
            return Ok(());
        }
        // Bypass the small-flush rule: an explicit flush should always persist.
        let new_id = self.versions.lock().allocate_file_number();
        let new_writer = LogWriter::create(log_file_path(&self.path, new_id), new_id)?;
        let old_id = wal.id;
        let old_writer = std::mem::replace(&mut wal.writer, new_writer);
        wal.id = new_id;
        wal.writes_since_sync = 0;
        old_writer.seal()?;
        self.watermark.note_rotation(new_id);
        self.wal_size_hint.store(0, Ordering::Relaxed);
        if self.options.background_io == BackgroundIoMode::Disabled {
            self.remove_file_counted(&log_file_path(&self.path, old_id), true);
            *self.mem.write() = self.fresh_memtable();
            return Ok(());
        }
        let sealed = Arc::new(ImmutableMemtable { memtable: Arc::clone(&mem), wal_id: old_id });
        self.imm.write().push(sealed);
        *self.mem.write() = self.fresh_memtable();
        let _ = self.work_tx.send(WorkItem::Flush);
        Ok(())
    }

    /// Blocks until the immutable-memtable queue is empty, then collects any files
    /// the flushes retired.
    pub(crate) fn wait_for_pending_flushes(&self) -> Result<()> {
        loop {
            if self.imm.read().is_empty() {
                self.collect_garbage();
                return Ok(());
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let _ = self.work_tx.send(WorkItem::Flush);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Pins the current version: the returned guard keeps every file the version
    /// references safe from garbage collection until it is dropped.
    pub(crate) fn pin_current_version(&self) -> PinnedVersion {
        self.pin_version(self.current_version.read().clone())
    }

    /// Lowers this shard's shipping floor to its active commit log so the
    /// collector retains every log a future shipment could need (see
    /// [`Db::hold_wal_for_replication`]). Only ever lowers: a later call must
    /// not release logs an earlier hold still covers.
    pub(crate) fn arm_ship_floor(&self) {
        let active = self.wal.lock().id;
        let _ = self.ship_floor.fetch_min(active, Ordering::AcqRel);
    }

    /// Pins an explicit version (used by snapshot iterators, which must read the
    /// version their snapshot captured, not whatever is current now).
    pub(crate) fn pin_version(&self, version: Arc<Version>) -> PinnedVersion {
        PinnedVersion {
            version: Some(version),
            work_tx: self.work_tx.clone(),
            gc_pending: Arc::clone(&self.gc_pending),
        }
    }

    /// A fresh active memtable wired to this engine's snapshot registry, so its
    /// overwrites preserve versions that open snapshots can still see.
    pub(crate) fn fresh_memtable(&self) -> Arc<Memtable> {
        Arc::new(Memtable::with_retention(Arc::clone(&self.retention)))
    }

    /// Point lookup against the pinned current version. A missing table file is a
    /// hard error (corruption): garbage collection never deletes a file that a
    /// live version still references.
    ///
    /// The markers below delimit the region CI grep-guards against seqno-bounded
    /// probes: this is the read-*newest* fast path, and bounding it by a
    /// just-loaded sequence number would reintroduce the missed-key race PR 2
    /// fixed (the memtable keeps one slot per key, so "too new" means invisible,
    /// not "an older version exists here"). Seqno-bounded reads live exclusively
    /// on the snapshot path ([`crate::snapshot::Snapshot`]), where the retention
    /// registry guarantees the bounded probe can always find its version.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // HOT-READ-NEWEST-BEGIN (no seqno-bounded probes in this region)
        self.stats.add_user_reads(1);
        // Reads return the newest committed version, with no sequence-number
        // ceiling: the memtable keeps one slot per key and compaction's dedup
        // keeps only the newest version, so a lookup bounded by a just-loaded
        // sequence number could find *nothing* when a concurrent overwrite lands
        // in the probe window — even though the key exists before and after.
        // Observing the racing write instead is linearizable.
        let snapshot = u64::MAX;

        // Capture the memory component coherently *before* probing anything: the
        // active memtable handle first, then the sealed list. Rotation pushes the
        // sealed memtable before swapping in a fresh active one, and a flush
        // re-installs hot entries into the (live) active memtable and publishes
        // its table in a new version before unlinking the sealed memtable — so
        // with this capture order, every live entry is present in a captured
        // memtable or in the version pinned below.
        let mem = self.mem.read().clone();
        let imm: Vec<Arc<ImmutableMemtable>> = self.imm.read().clone();

        // 1. Active memtable.
        self.stats.add_memtable_probes(1);
        if let Some(entry) = mem.get(key, snapshot) {
            return Ok(self.resolve_entry(entry));
        }
        // 2. Immutable memtables, newest first.
        for sealed in imm.iter().rev() {
            self.stats.add_memtable_probes(1);
            if let Some(entry) = sealed.memtable.get(key, snapshot) {
                return Ok(self.resolve_entry(entry));
            }
        }
        // 3. The disk component, level by level, pinned for the whole descent.
        let pinned = self.pin_current_version();
        for level in 0..pinned.num_levels() {
            for file in pinned.files_for_key(level, key) {
                let table = self.table_cache.get_or_open(&file)?;
                self.stats.add_table_probes(1);
                if let Some(entry) = table.get(key, snapshot)? {
                    return Ok(self.resolve_entry(entry));
                }
            }
        }
        Ok(None)
        // HOT-READ-NEWEST-END
    }

    pub(crate) fn resolve_entry(&self, entry: Entry) -> Option<Vec<u8>> {
        match entry.key.kind {
            ValueKind::Put => {
                self.stats.add_user_read_hits(1);
                Some(entry.value)
            }
            ValueKind::Delete => None,
        }
    }

    /// Queues `files` — about to be (or just) removed from the version chain by a
    /// version edit — for physical deletion once no live version references them.
    ///
    /// Call sites enqueue *before* installing the edit: the garbage collector never
    /// deletes a file the current version still references, so early enqueueing is
    /// safe and guarantees the queue already covers the retirement by the time the
    /// new version is visible.
    pub(crate) fn retire_files<'a>(&self, files: impl IntoIterator<Item = &'a FileMetadata>) {
        let mut gc = self.gc.lock();
        for file in files {
            gc.tables.insert(
                file.id,
                RetiredTable { kind: file.kind, backing_log_id: file.backing_log_id },
            );
        }
        if !gc.tables.is_empty() || !gc.logs.is_empty() {
            self.gc_pending.store(true, Ordering::Relaxed);
        }
    }

    /// Queues a sealed commit log that no table references for deletion by the next
    /// GC pass (which will still hold it back while an immutable memtable's replay
    /// depends on it).
    pub(crate) fn retire_log(&self, log_id: u64) {
        let mut gc = self.gc.lock();
        gc.logs.insert(log_id);
        self.gc_pending.store(true, Ordering::Relaxed);
    }

    /// Removes `path`, recording the outcome in the GC statistics. Returns `true`
    /// when the file is gone (deleted now, or already absent).
    fn remove_file_counted(&self, path: &Path, is_log: bool) -> bool {
        match std::fs::remove_file(path) {
            Ok(()) => {
                if is_log {
                    self.stats.add_gc_logs_deleted(1);
                } else {
                    self.stats.add_gc_files_deleted(1);
                }
                true
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => {
                self.stats.add_gc_delete_failures(1);
                eprintln!("triad: failed to delete obsolete file {}: {e}", path.display());
                false
            }
        }
    }

    /// Runs one garbage-collection pass: deletes every queued file referenced by no
    /// live version, no pending immutable memtable and not the active commit log.
    /// Returns `true` when the queue is empty afterwards.
    ///
    /// Safety argument: the reachable-set snapshot is taken *after* the queue lock,
    /// so any file enqueued before we read the queue was referenced by a version
    /// that is either still upgradeable here (and protects it) or died beforehand —
    /// and dead versions can never be re-pinned, because readers only pin the
    /// current version.
    pub(crate) fn collect_garbage(&self) -> bool {
        let mut gc = self.gc.lock();
        if gc.tables.is_empty() && gc.logs.is_empty() {
            self.gc_pending.store(false, Ordering::Relaxed);
            return true;
        }
        let live_versions = self.versions.lock().live_versions();
        let mut live_tables = HashSet::new();
        let mut live_logs = HashSet::new();
        for version in &live_versions {
            live_tables.extend(version.live_file_ids());
            live_logs.extend(version.live_backing_logs());
        }
        let active_wal = self.wal.lock().id;
        let imm_logs: HashSet<u64> = self.imm.read().iter().map(|imm| imm.wal_id).collect();

        let deletable: Vec<u64> =
            gc.tables.keys().copied().filter(|id| !live_tables.contains(id)).collect();
        for id in deletable {
            let path = match gc.tables[&id].kind {
                TableKind::Block => sst_file_path(&self.path, id),
                TableKind::CommitLogIndex => cl_index_file_path(&self.path, id),
            };
            // Evict before unlinking: no version can still reach this id, so the
            // cache entry can never be resurrected by a racing reader.
            self.table_cache.evict(id);
            if self.remove_file_counted(&path, false) {
                let table = gc.tables.remove(&id).expect("id listed from this queue");
                if let Some(log_id) = table.backing_log_id {
                    gc.logs.insert(log_id);
                }
            }
        }

        let ship_floor = self.ship_floor.load(Ordering::Acquire);
        let stamp_evidence = self.stamps.retained_logs(self.shard_index);
        let deletable_logs: Vec<u64> = gc
            .logs
            .iter()
            .copied()
            .filter(|id| {
                !live_logs.contains(id)
                    && *id != active_wal
                    && !imm_logs.contains(id)
                    // Logs at or past the shipping floor may still owe a read
                    // replica records past its cursor; they stay queued until
                    // the replica's next catch-up ratchets the floor forward.
                    && *id < ship_floor
                    // Logs holding the last evidence of an in-flight
                    // cross-shard batch stay until it settles (`stamps.rs`):
                    // deleting one would make the batch look torn on reopen.
                    && !stamp_evidence.contains(id)
            })
            .collect();
        for id in deletable_logs {
            if self.remove_file_counted(&log_file_path(&self.path, id), true) {
                gc.logs.remove(&id);
            }
        }
        let drained = gc.tables.is_empty() && gc.logs.is_empty();
        // Safe to update while still holding the queue lock: a concurrent enqueue
        // sets the flag under this same lock, so it cannot be lost.
        self.gc_pending.store(!drained, Ordering::Relaxed);
        drained
    }

    /// Startup sweep: deletes every engine file in the database directory that the
    /// freshly recovered state does not reference — obsolete commit logs below the
    /// recovery horizon, stray logs already replayed into tables, and table files
    /// orphaned by a crash between their creation and their manifest installation
    /// (or between their retirement and their deferred deletion).
    fn sweep_unreferenced_files(&self) -> Result<()> {
        let version = self.current_version.read().clone();
        let live_tables = version.live_file_ids();
        let live_logs = version.live_backing_logs();
        let active_wal = self.wal.lock().id;
        let entries = std::fs::read_dir(&self.path)
            .map_err(|e| Error::io("listing database directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("listing database directory", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some((id, _kind)) = parse_table_file_name(&name) {
                if !live_tables.contains(&id) {
                    self.remove_file_counted(&entry.path(), false);
                }
            } else if let Some(id) = parse_log_file_name(&name) {
                if !live_logs.contains(&id) && id != active_wal {
                    self.remove_file_counted(&entry.path(), true);
                }
            }
        }
        Ok(())
    }
}

/// The background thread: drains flush requests, then runs compactions until the
/// tree satisfies its shape invariants.
fn background_worker(inner: Arc<DbInner>, rx: Receiver<WorkItem>) {
    while let Ok(item) = rx.recv() {
        match item {
            WorkItem::Shutdown => break,
            WorkItem::Gc => {
                // A retired version lost its last pin; its files may be collectable.
                inner.collect_garbage();
            }
            WorkItem::Flush | WorkItem::Compact => {
                if let Err(e) = inner.flush_pending_memtables() {
                    // Background errors are recorded but do not crash the process;
                    // the next flush attempt will retry.
                    eprintln!("triad: background flush error: {e}");
                }
                loop {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match inner.maybe_compact() {
                        Ok(true) => continue,
                        Ok(false) => break,
                        Err(e) => {
                            eprintln!("triad: background compaction error: {e}");
                            break;
                        }
                    }
                }
                inner.collect_garbage();
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            // Drain any remaining flushes so close() does not lose sealed memtables.
            let _ = inner.flush_pending_memtables();
            break;
        }
    }
}
