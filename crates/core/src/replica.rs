//! WAL shipping to a read replica.
//!
//! A [`Replica`] is a second, read-only-facing database bootstrapped from a
//! [`Db::checkpoint`](crate::Db::checkpoint) directory and kept fresh by
//! replaying the primary's commit-log records:
//!
//! 1. **Bootstrap.** The checkpoint opens as a normal database; its recovered
//!    per-shard `last_seqno` *is* the replication cursor — no extra watermark
//!    plumbing is needed, the checkpoint's manifest already records the cut.
//! 2. **Shipping.** [`Replica::catch_up`] asks the primary for every commit-log
//!    record past each shard's cursor. The export runs under the primary's
//!    shard-spanning capture gate (`snapshot::capture_all_shards`), so the
//!    shipped targets form a consistent cross-shard cut: a cross-shard batch
//!    is shipped to all of its shards or to none of them. Defensively, the
//!    shipped records are still run through the same torn-batch detection
//!    recovery uses ([`torn_batch_drops`]) before any of them is applied.
//! 3. **Replay.** Each shard's records are appended — original seqnos and
//!    cross-shard [`BatchStamp`](triad_wal::BatchStamp)s preserved — to the
//!    *replica's own* commit log and inserted into its memtable, exactly the
//!    write path's bookkeeping. A replica that crashes therefore recovers
//!    through the ordinary open path, torn-batch detection included, and can
//!    keep catching up afterwards.
//! 4. **Serving.** Reads go through a rolling [`Snapshot`] that is swapped
//!    only after a whole catch-up round lands, so [`Replica::get`] and
//!    [`Replica::scan`] always see a consistent cross-shard cut of the
//!    primary — never a half-applied shipment.
//!
//! # Log retention
//!
//! Shipping reads the primary's on-disk commit logs. The primary retains the
//! logs a replica still needs only while a shipping hold is armed: call
//! [`Db::hold_wal_for_replication`](crate::Db::hold_wal_for_replication)
//! *before* taking the checkpoint that seeds the replica. Each successful
//! catch-up ratchets the retention floor to the primary's then-active log, so
//! the hold releases storage as the replica advances. A replica that falls
//! behind a released window (hold never armed, or explicitly released via
//! [`Db::release_wal_hold`](crate::Db::release_wal_hold)) may find the records
//! it needs flushed into tables and their logs deleted; its only remedy is to
//! re-bootstrap from a fresh checkpoint.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;

use triad_common::lockrank::RankedRwLock;
use triad_common::types::SeqNo;
use triad_common::{Error, Result};
use triad_memtable::LogPosition;
use triad_wal::{parse_log_file_name, LogReader, LogRecord};

use crate::db::{lock_rank, torn_batch_drops, Db, DbInner, WalState};
use crate::iterator::DbIterator;
use crate::options::Options;
use crate::snapshot::{capture_all_shards, Snapshot};

/// One shard's shipped segment: every commit-log record with
/// `cursor < seqno <= target`, seqno-ascending, stamps preserved.
pub(crate) struct ShardShipment {
    records: Vec<LogRecord>,
}

/// A read replica: a database bootstrapped from a checkpoint and kept fresh
/// by replaying the primary's shipped commit-log records. See the module
/// docs for the protocol and its retention contract.
pub struct Replica {
    db: Db,
    /// The rolling serving view, swapped atomically after each catch-up
    /// round; reads never observe a half-applied shipment.
    view: RankedRwLock<Snapshot>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica").field("path", &self.db.path()).finish()
    }
}

impl Replica {
    /// Opens the database at `dir` — typically a
    /// [`Db::checkpoint`](crate::Db::checkpoint) directory — as a replica.
    ///
    /// The directory is opened exactly like a normal database (a partial
    /// checkpoint is refused, a sharded checkpoint's persisted shard count
    /// wins over `options`), and the recovered per-shard sequence numbers
    /// become the replication cursors.
    pub fn bootstrap(dir: impl AsRef<Path>, options: Options) -> Result<Replica> {
        let db = Db::open(dir, options)?;
        let view = RankedRwLock::new(lock_rank::REPLICA_VIEW, "replica.view", db.snapshot());
        Ok(Replica { db, view })
    }

    /// Ships and applies every primary record past this replica's cursors,
    /// then swaps the serving view to the new (consistent, cross-shard) cut.
    /// Returns the number of records applied; `Ok(0)` means the replica was
    /// already caught up. After a successful call, `lag(primary)` is `0`
    /// unless the primary committed more writes in the meantime.
    pub fn catch_up(&self, primary: &Db) -> Result<u64> {
        if primary.shard_count() != self.db.shard_count() {
            return Err(Error::InvalidArgument(format!(
                "replica has {} shard(s) but the primary has {}",
                self.db.shard_count(),
                primary.shard_count()
            )));
        }
        let cursors: Vec<SeqNo> = self
            .db
            .shards
            .iter()
            .map(|shard| shard.inner.last_seqno.load(Ordering::Acquire))
            .collect();
        let mut shipments = primary.export_wal_shipment(&cursors)?;

        // The export's gate makes tears impossible, but replay reuses
        // recovery's detection anyway: a foreign or hand-damaged shipment
        // must degrade to a consistent cut, not a silently torn one.
        if shipments.len() > 1 {
            let per_shard: Vec<Vec<&LogRecord>> =
                shipments.iter().map(|shipment| shipment.records.iter().collect()).collect();
            let (drops, torn) = torn_batch_drops(&per_shard);
            if torn > 0 {
                self.db.shards[0].inner.stats.add_recovery_torn_batches(torn);
                for (shipment, drop_set) in shipments.iter_mut().zip(&drops) {
                    shipment.records.retain(|record| !drop_set.contains(&record.seqno));
                }
            }
        }

        let mut applied = 0;
        for (shard, shipment) in self.db.shards.iter().zip(&shipments) {
            applied += apply_replicated(&shard.inner, &shipment.records)?;
        }
        // Swap the serving view only now: every shard of the shipped cut is
        // applied, so the fresh snapshot observes the cut (or newer) on all
        // shards at once.
        let fresh = self.db.snapshot();
        *self.view.write() = fresh;
        Ok(applied)
    }

    /// How far this replica trails `primary`: the sum over shards of the
    /// primary's published seqno minus the replica's. `0` means fully caught
    /// up. Advisory under concurrent writes — the primary keeps moving.
    pub fn lag(&self, primary: &Db) -> u64 {
        assert_eq!(
            primary.shard_count(),
            self.db.shard_count(),
            "replica and primary shard counts must match"
        );
        self.db
            .shards
            .iter()
            .zip(&primary.shards)
            .map(|(ours, theirs)| {
                theirs
                    .inner
                    .last_seqno
                    .load(Ordering::Acquire)
                    .saturating_sub(ours.inner.last_seqno.load(Ordering::Acquire))
            })
            .sum()
    }

    /// Point lookup through the rolling view: the value `key` had at the last
    /// completed catch-up cut (or the bootstrap cut), or `None`.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        self.view.read().get(key)
    }

    /// Iterates every live key/value pair of the rolling view in key order.
    pub fn scan(&self) -> Result<DbIterator> {
        self.view.read().scan()
    }

    /// The sequence number of the rolling view (largest per-shard cut seqno).
    pub fn view_seqno(&self) -> SeqNo {
        self.view.read().seqno()
    }

    /// The replica's underlying database handle (for stats, file-lifetime
    /// assertions and diagnostics). Writing to it directly would fork the
    /// replica from the primary; don't.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Closes the underlying database. Idempotent; dropping does the same.
    pub fn close(&self) -> Result<()> {
        self.db.close()
    }
}

impl Db {
    /// Exports, per shard, every commit-log record past `cursors[shard]`, up
    /// to a target cut captured under the shard-spanning gate — the primary
    /// half of WAL shipping. Cross-shard consistency of the cut comes from
    /// the gate; completeness past the cursor comes from the shipping hold
    /// ([`Db::hold_wal_for_replication`]), which keeps the covering logs on
    /// disk. The per-shard record lists are seqno-ascending and deduplicated
    /// (TRIAD's hot write-back and small-flush rewrites can leave the same
    /// record in two logs).
    pub(crate) fn export_wal_shipment(&self, cursors: &[SeqNo]) -> Result<Vec<ShardShipment>> {
        let (snapshot, shipments) =
            capture_all_shards(&self.shards, &self.router, |index, shard, wal| {
                export_shard_locked(&shard.inner, wal, cursors[index])
            })?;
        // The capture's snapshot was only needed to drain the pipelines; the
        // shipment itself carries the cut.
        drop(snapshot);
        Ok(shipments)
    }
}

/// One shard's export, under its WAL lock with the pipeline drained: flush
/// the active log so its file covers every published record, then read every
/// on-disk commit log and keep the records in `(cursor, target]`. Holding
/// the WAL lock keeps the log set stable — rotation and the collector both
/// need it. Finally the shipping hold is ratcheted to the active log: the
/// next round's records (seqno > target) can only live there or later.
fn export_shard_locked(
    inner: &DbInner,
    wal: &mut WalState,
    cursor: SeqNo,
) -> Result<ShardShipment> {
    wal.writer.flush()?;
    let target = inner.last_seqno.load(Ordering::Acquire);
    let mut records: BTreeMap<SeqNo, LogRecord> = BTreeMap::new();
    if target > cursor {
        let mut log_ids: Vec<u64> = Vec::new();
        let entries = std::fs::read_dir(&inner.path)
            .map_err(|e| Error::io("listing shard directory for WAL shipping", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("listing shard directory", e))?;
            if let Some(id) = parse_log_file_name(&entry.file_name().to_string_lossy()) {
                log_ids.push(id);
            }
        }
        log_ids.sort_unstable();
        for id in log_ids {
            let reader = LogReader::open(triad_wal::log_file_path(&inner.path, id))?;
            let (recovered, _tail) = reader.recover()?;
            for recovered in recovered {
                let record = recovered.record;
                if record.seqno > cursor && record.seqno <= target {
                    // Later logs win ties; a rewrite carries identical bytes.
                    records.insert(record.seqno, record);
                }
            }
        }
    }
    // Ratchet the shipping hold forward (never past disarming `u64::MAX`,
    // never backwards): logs below the now-active one are covered by this
    // shipment and may be collected once the replica applies it.
    let active = wal.id;
    let _ = inner.ship_floor.fetch_update(Ordering::AcqRel, Ordering::Acquire, |floor| {
        (floor != u64::MAX && floor < active).then_some(active)
    });
    Ok(ShardShipment { records: records.into_values().collect() })
}

/// Applies one shard's shipped records on the replica: append to the
/// replica's own commit log (seqnos and stamps preserved), insert into its
/// memtable, fsync once for the round, publish, and rotate if the usual
/// thresholds trip — the serialized write path, minus seqno allocation.
fn apply_replicated(inner: &DbInner, records: &[LogRecord]) -> Result<u64> {
    if records.is_empty() {
        return Ok(0);
    }
    let mut wal = inner.wal.lock();
    let mem = inner.mem.read().clone();
    let mut last = inner.last_seqno.load(Ordering::Acquire);
    let mut applied = 0u64;
    for record in records {
        // Idempotency: a re-shipped overlap (e.g. a retried round) lands as
        // a no-op rather than a duplicate insert.
        if record.seqno <= last {
            continue;
        }
        if let Some(stamp) = &record.stamp {
            // The replica re-persists the slice's stamped record in its own
            // log; track it like the primary does so the replica's GC keeps
            // the evidence until every shard's slice graduates there too.
            inner.stamps.note_slice(inner.shard_index, wal.id, stamp);
        }
        let offset = wal.writer.append(record)?;
        inner.stats.add_wal_appends(1);
        inner.stats.add_wal_bytes_written(
            triad_wal::RECORD_HEADER_LEN as u64 + record.encoded_len() as u64,
        );
        mem.insert(
            &record.key,
            &record.value,
            record.seqno,
            record.kind,
            LogPosition { log_id: wal.id, offset },
        );
        last = record.seqno;
        applied += 1;
    }
    if applied == 0 {
        return Ok(0);
    }
    // One fsync per round: the replica's own recovery point must not run
    // ahead of what it would re-ship anyway, but acknowledged rounds should
    // survive a replica crash without re-shipping the world.
    wal.writer.sync()?;
    inner.stats.add_wal_syncs(1);
    wal.writes_since_sync = 0;
    wal.next_seqno = wal.next_seqno.max(last + 1);
    inner.last_seqno.store(last, Ordering::Release);
    inner.stats.add_replica_records_applied(applied);

    let mem_size = mem.approximate_size();
    if mem_size >= inner.options.memtable_size
        || wal.writer.size() as usize >= inner.options.max_log_size
    {
        let skipped = inner.rotate_locked(&mut wal, &mem, mem_size)?;
        drop(wal);
        if let Some(skipped) = skipped {
            inner.finish_skip(skipped)?;
        }
    }
    Ok(applied)
}
