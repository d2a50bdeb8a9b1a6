//! Full-database scans.

use std::sync::Arc;
use std::time::Instant;

use triad_common::types::{Entry, ValueKind};
use triad_common::{Result, Stats};
use triad_sstable::{bounded_to_seqno, DedupIterator, EntryIter, MergingIterator};

use crate::db::DbInner;
use crate::snapshot::SnapshotShard;

/// An iterator over every live key/value pair in the database, in key order.
///
/// The iterator captures the tree once, at creation time: the active memtable's
/// contents, the sealed memtables and the current version. Every key live at that
/// moment is observed exactly once, at its newest captured version; writes issued
/// after creation are not reflected (except that a concurrent overwrite racing
/// iterator construction may already be the version captured). The version is
/// *pinned* for the iterator's whole lifetime, so every file it reads — tables,
/// CL indexes and the commit logs backing them — survives any concurrent
/// compaction until the iterator is dropped.
pub struct DbIterator {
    inner: DedupIterator,
    /// Inclusive lower bound on user keys, if any.
    start: Option<Vec<u8>>,
    /// Exclusive upper bound on user keys, if any.
    end: Option<Vec<u8>>,
    /// Keeps the captured files safe from garbage collection until drop —
    /// one pinned version per shard the iterator reads.
    _pins: Vec<crate::db::PinnedVersion>,
    /// Shared statistics registry; the drop impl records this iterator's
    /// lifetime into the scan-latency histogram.
    stats: Arc<Stats>,
    /// When the iterator was created. The recorded "scan latency" is the
    /// whole lifetime — tree capture through drop — which for a
    /// construct-iterate-drop scan (every bench and most callers) is exactly
    /// the scan's wall-clock cost.
    created: Instant,
}

impl Drop for DbIterator {
    fn drop(&mut self) {
        self.stats.record_scan_latency_ns(self.created.elapsed().as_nanos() as u64);
    }
}

impl DbIterator {
    /// Creates an iterator restricted to user keys in `[start, end)`.
    pub(crate) fn with_bounds(
        db: &Arc<DbInner>,
        start: Option<Vec<u8>>,
        end: Option<Vec<u8>>,
    ) -> Result<DbIterator> {
        let created = Instant::now();
        let mut sources: Vec<EntryIter> = Vec::new();

        // Capture the memory component under the WAL lock plus an exclusive
        // acquisition of the commit gate. The WAL lock serialises rotations,
        // group appends and the flush hot-write-back; the gate (always taken
        // after the WAL lock, never before) drains the commit pipeline —
        // every in-flight group holds a shared gate membership from its WAL
        // append until its publication, and memtable inserts run *outside*
        // the WAL lock, so the lock alone does not guarantee a batch-atomic
        // capture. With both held, no write batch can
        // be half-applied while the active memtable is materialised, and the
        // sealed list captured alongside is consistent with it. (Sealed
        // memtables are immutable, so their contents can be materialised after
        // the locks are released, and they only ever hold whole batches —
        // rotation drains the same gate.) The merge
        // orders identical user keys by sequence number, newest first, so the
        // dedup stage keeps the newest captured version no matter which source
        // supplied it; memtable entries are deliberately *not* filtered by a
        // sequence-number snapshot, because the memtable keeps one slot per key —
        // suppressing a slot whose version is "too new" would hide the key
        // entirely, not reveal an older version.
        let (mem_entries, imm) = {
            let _wal = db.wal.lock();
            let _gate = db.commit_gate.write();
            let mem_entries = db.mem.read().snapshot_as_entries();
            let imm: Vec<Arc<crate::db::ImmutableMemtable>> = db.imm.read().clone();
            (mem_entries, imm)
        };

        sources.push(Box::new(mem_entries.into_iter().map(Ok)));
        for sealed in imm.iter().rev() {
            let entries = sealed.memtable.snapshot_as_entries();
            sources.push(Box::new(entries.into_iter().map(Ok)));
        }
        // Pinned after the memory capture: a flush completing in between installs
        // its table before removing its memtable from the sealed list, so the pin
        // can only add (deduplicated) coverage, never lose entries.
        let pin = db.pin_current_version();
        for level in 0..pin.num_levels() {
            for file in &pin.levels[level] {
                let table = db.table_cache.get_or_open(file)?;
                // `entries_arc` keeps the handle alive inside the iterator, which
                // lets block-backed tables stream blocks through the shared cache
                // (with readahead) instead of materialising the whole table.
                sources.push(table.entries_arc()?);
            }
        }
        let merged = MergingIterator::new(sources)?;
        Ok(DbIterator {
            inner: DedupIterator::new(Box::new(merged), false),
            start,
            end,
            _pins: vec![pin],
            stats: Arc::clone(&db.stats),
            created,
        })
    }

    /// Creates an iterator over a snapshot's captured components — one
    /// [`SnapshotShard`] per engine shard — each source bounded at its own
    /// shard's snapshot sequence number.
    ///
    /// No lock is taken here, in contrast to [`with_bounds`](Self::with_bounds):
    /// each shard's snapshot seqno sits on a commit-group boundary, so bounding
    /// that shard's sources at it yields a batch-atomic view by construction —
    /// a concurrent group's writes all carry seqnos above the bound, and any
    /// version the snapshot can see that such a write shadows is preserved on
    /// the memtable's prior list (the snapshot registered itself before the
    /// bound was chosen). Table sources are bounded *before* the dedup stage,
    /// so the survivor per user key is the newest version visible at the
    /// snapshot. The versions are the ones the snapshot pinned — never the
    /// current ones, whose compactions may already have deduped away versions
    /// the snapshot still needs. Hash routing makes the shards' key sets
    /// disjoint, so the k-way merge needs no cross-shard conflict resolution.
    ///
    /// The iterator takes its own version pins, so the snapshot handle may be
    /// dropped as soon as this returns (the ephemeral snapshot behind a live
    /// multi-shard [`Db::scan_range`](crate::Db::scan_range) does exactly that).
    pub(crate) fn with_snapshot_parts(
        parts: &[SnapshotShard],
        start: Option<Vec<u8>>,
        end: Option<Vec<u8>>,
    ) -> Result<DbIterator> {
        let created = Instant::now();
        let mut sources: Vec<EntryIter> = Vec::new();
        let mut pins = Vec::with_capacity(parts.len());
        for part in parts {
            let db: &Arc<DbInner> = &part.db;
            sources.push(Box::new(part.mem.snapshot_as_entries_at(part.seqno).into_iter().map(Ok)));
            for sealed in part.imm.iter().rev() {
                let entries = sealed.memtable.snapshot_as_entries_at(part.seqno);
                sources.push(Box::new(entries.into_iter().map(Ok)));
            }
            let pin = db.pin_version(Arc::clone(part.pin.version()));
            for level in 0..pin.num_levels() {
                for file in &pin.levels[level] {
                    let table = db.table_cache.get_or_open(file)?;
                    sources.push(bounded_to_seqno(table.entries_arc()?, part.seqno));
                }
            }
            pins.push(pin);
        }
        let merged = MergingIterator::new(sources)?;
        Ok(DbIterator {
            inner: DedupIterator::new(Box::new(merged), false),
            start,
            end,
            _pins: pins,
            stats: Arc::clone(&parts[0].db.stats),
            created,
        })
    }
}

impl Iterator for DbIterator {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let entry: Entry = match self.inner.next()? {
                Ok(entry) => entry,
                Err(e) => return Some(Err(e)),
            };
            if let Some(start) = &self.start {
                if entry.key.user_key.as_slice() < start.as_slice() {
                    continue;
                }
            }
            if let Some(end) = &self.end {
                if entry.key.user_key.as_slice() >= end.as_slice() {
                    // Sources are sorted, so nothing after this point can qualify.
                    return None;
                }
            }
            match entry.key.kind {
                ValueKind::Put => return Some(Ok((entry.key.user_key, entry.value))),
                ValueKind::Delete => continue,
            }
        }
    }
}
