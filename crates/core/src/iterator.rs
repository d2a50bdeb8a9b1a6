//! Full-database scans.

use std::sync::Arc;
use std::time::Instant;

use triad_common::types::{parse_encoded_internal_key, ValueKind};
use triad_common::{Error, Result, Stats};
use triad_sstable::iter::entries_to_iter;
use triad_sstable::{
    bounded_to_seqno, BoxedCursor, DedupCursor, EntryCursor, IterCursor, MergingCursor,
};

use crate::db::DbInner;
use crate::snapshot::SnapshotShard;

/// An iterator over every live key/value pair in the database, in key order.
///
/// The iterator reads a snapshot's view, materialised at creation time: per
/// shard, the memtables and the version captured at one commit-group
/// boundary. Every key live at that boundary is observed exactly once, at its
/// newest version there; writes issued after it are not reflected. The
/// versions are *pinned* for the iterator's whole lifetime, so every file it
/// reads — tables, CL indexes and the commit logs backing them — survives any
/// concurrent compaction until the iterator is dropped.
pub struct DbIterator {
    inner: DedupCursor<MergingCursor>,
    /// Whether `inner` still sits on the entry the last `next` returned (or
    /// skipped), so the next call must advance it first.
    consumed: bool,
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
    /// Creates an iterator over a snapshot's captured components — one
    /// [`SnapshotShard`] per engine shard — each source bounded at its own
    /// shard's snapshot sequence number.
    ///
    /// No lock is taken here: each shard's snapshot seqno sits on a
    /// commit-group boundary, so bounding that shard's sources at it yields a
    /// batch-atomic view by construction — a concurrent group's writes all
    /// carry seqnos above the bound, and any version the snapshot can see
    /// that such a write shadows is preserved on the memtable's prior list
    /// (the snapshot registered itself before the bound was chosen). Table sources are bounded *before* the dedup stage,
    /// so the survivor per user key is the newest version visible at the
    /// snapshot. The versions are the ones the snapshot pinned — never the
    /// current ones, whose compactions may already have deduped away versions
    /// the snapshot still needs. Hash routing makes the shards' key sets
    /// disjoint, so the k-way merge needs no cross-shard conflict resolution.
    ///
    /// The iterator takes its own version pins, so the snapshot handle may be
    /// dropped as soon as this returns (the ephemeral snapshot behind a live
    /// [`Db::scan_range`](crate::Db::scan_range) does exactly that).
    pub(crate) fn with_snapshot_parts(
        parts: &[SnapshotShard],
        start: Option<Vec<u8>>,
        end: Option<Vec<u8>>,
    ) -> Result<DbIterator> {
        let created = Instant::now();
        let mut sources: Vec<BoxedCursor> = Vec::new();
        let mut pins = Vec::with_capacity(parts.len());
        let source = |entries| -> Result<BoxedCursor> { Ok(Box::new(IterCursor::new(entries)?)) };
        for part in parts {
            let db: &Arc<DbInner> = &part.db;
            sources.push(source(entries_to_iter(part.mem.snapshot_as_entries_at(part.seqno)))?);
            for sealed in part.imm.iter().rev() {
                let entries = sealed.memtable.snapshot_as_entries_at(part.seqno);
                sources.push(source(entries_to_iter(entries))?);
            }
            let pin = db.pin_version(Arc::clone(part.pin.version()));
            for level in 0..pin.num_levels() {
                for file in &pin.levels[level] {
                    let table = db.table_cache.get_or_open(file)?;
                    sources.push(source(bounded_to_seqno(table.entries_arc()?, part.seqno))?);
                }
            }
            pins.push(pin);
        }
        Ok(DbIterator {
            inner: DedupCursor::new(MergingCursor::new(sources), false)?,
            consumed: false,
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
            if std::mem::take(&mut self.consumed) {
                if let Err(e) = self.inner.advance() {
                    return Some(Err(e));
                }
            }
            if !self.inner.valid() {
                return None;
            }
            self.consumed = true;
            // Bounds and kind are checked on the borrowed key; only an entry
            // the iterator returns is copied out.
            let Some((user_key, kind)) = parse_encoded_internal_key(self.inner.key()) else {
                return Some(Err(Error::corruption("undecodable internal key in scan")));
            };
            if let Some(start) = &self.start {
                if user_key < start.as_slice() {
                    continue;
                }
            }
            if let Some(end) = &self.end {
                if user_key >= end.as_slice() {
                    // Sources are sorted, so nothing after this point can qualify.
                    return None;
                }
            }
            match kind {
                ValueKind::Put => {
                    return Some(Ok((user_key.to_vec(), self.inner.value().to_vec())))
                }
                ValueKind::Delete => continue,
            }
        }
    }
}
