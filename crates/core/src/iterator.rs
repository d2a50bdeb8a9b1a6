//! Database scans. A scan reads through a snapshot and shares that
//! snapshot's one capture: it takes no version pins or retention
//! registrations of its own.

use std::ops::Bound;
use std::sync::Arc;

use triad_common::types::{parse_encoded_internal_key, Entry, SeqNo, ValueKind};
use triad_common::{Error, Result};
use triad_memtable::Memtable;
use triad_sstable::{BoundedCursor, BoxedCursor, DedupCursor, EntryCursor, MergingCursor};

use crate::db::DbInner;
use crate::snapshot::SnapshotShard;
use crate::version::FileMetadata;

/// How many visible keys a scan copies out of a memtable in its first
/// read-lock hold. Each later hold copies twice as many as the one before, up
/// to [`MEMTABLE_CHUNK`], so a short scan copies little past where it stops.
const FIRST_MEMTABLE_CHUNK: usize = 8;

/// The most visible keys a scan copies out of a memtable per read-lock hold.
const MEMTABLE_CHUNK: usize = 64;

/// An iterator over the live key/value pairs of a key range, in key order.
///
/// The iterator reads a snapshot's view: per shard, the memtables and the
/// version captured at one commit-group boundary. Every key live at that
/// boundary is observed exactly once, at its newest version there; writes
/// issued after it are not reflected. Every source starts at the range's
/// start key and streams from there: memtables are read in short chunks, and
/// files are opened only when the scan reaches them. So the view must stay
/// readable for the iterator's whole lifetime, and the iterator shares the
/// snapshot's capture to keep it so:
///
/// * the captured versions are *pinned*, so every file it reads — tables, CL
///   indexes and the commit logs backing them — survives any concurrent
///   compaction until the capture is released;
/// * the capture holds a registration in each shard's snapshot retention
///   registry, so the memtables keep every version it can see when later
///   writes overwrite them. Like an open [`Snapshot`](crate::Snapshot), a
///   long-lived iterator therefore retains overwritten versions in memory
///   until it is dropped.
pub struct DbIterator {
    inner: DedupCursor<MergingCursor>,
    /// Whether `inner` still sits on the entry the last `next` returned (or
    /// skipped), so the next call must advance it first.
    consumed: bool,
    /// Exclusive upper bound on user keys, if any.
    end: Option<Vec<u8>>,
    /// The snapshot's capture, shared with its handle: the capture is
    /// released when the last of them drops.
    _view: Arc<[SnapshotShard]>,
}

impl DbIterator {
    /// Creates an iterator over the user keys in `[start, end)` of a
    /// snapshot's captured components — one [`SnapshotShard`] per engine
    /// shard — each source bounded at its own shard's snapshot sequence
    /// number.
    ///
    /// No lock is taken here: each shard's snapshot seqno sits on a
    /// commit-group boundary, so bounding that shard's sources at it yields a
    /// batch-atomic view by construction — a concurrent group's writes all
    /// carry seqnos above the bound, and any version the snapshot can see
    /// that such a write shadows is preserved on the memtable's prior list.
    /// Table sources are bounded *before* the dedup stage, so the survivor
    /// per user key is the newest version visible at the snapshot. The
    /// versions are the ones the snapshot pinned — never the current ones,
    /// whose compactions may already have deduped away versions the snapshot
    /// still needs. Hash routing makes the shards' key sets disjoint, so the
    /// k-way merge needs no cross-shard conflict resolution.
    ///
    /// Files wholly outside `[start, end)` are never opened. Each level below
    /// L0 is one concatenating source that opens its next file only when the
    /// current one is exhausted.
    ///
    /// The iterator keeps `view`, the snapshot's capture, so the snapshot
    /// handle may be dropped as soon as this returns (the ephemeral snapshot
    /// behind a live [`Db::scan_range`](crate::Db::scan_range) does exactly
    /// that) without any retention bound moving.
    pub(crate) fn with_snapshot_parts(
        view: Arc<[SnapshotShard]>,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<DbIterator> {
        let start = start.unwrap_or_default();
        let mut sources: Vec<BoxedCursor> = Vec::new();
        for part in view.iter() {
            let memtables =
                std::iter::once(&part.mem).chain(part.imm.iter().rev().map(|m| &m.memtable));
            for memtable in memtables {
                let cursor = MemtableCursor::new(Arc::clone(memtable), part.seqno, start);
                sources.push(Box::new(cursor));
            }
            // L0 files overlap, so each is its own sorted run, newest first;
            // a deeper level is one run of disjoint files in key order.
            let in_range = |file: &&Arc<FileMetadata>| {
                file.largest.user_key.as_slice() >= start
                    && end.map_or(true, |end| file.smallest.user_key.as_slice() < end)
            };
            let mut runs: Vec<Vec<Arc<FileMetadata>>> = part.pin.levels[0]
                .iter()
                .filter(in_range)
                .map(|file| vec![Arc::clone(file)])
                .collect();
            for files in &part.pin.levels[1..] {
                let first = files.partition_point(|f| f.largest.user_key.as_slice() < start);
                let last = end.map_or(files.len(), |end| {
                    files.partition_point(|f| f.smallest.user_key.as_slice() < end)
                });
                if first < last {
                    runs.push(files[first..last].to_vec());
                }
            }
            for run in runs {
                let run = RunCursor::new(Arc::clone(&part.db), run, start)?;
                sources.push(Box::new(BoundedCursor::new(run, part.seqno)?));
            }
        }
        let inner = DedupCursor::new(MergingCursor::new(sources), false)?;
        Ok(DbIterator { inner, consumed: false, end: end.map(<[u8]>::to_vec), _view: view })
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
            // Bound and kind are checked on the borrowed key; only an entry
            // the iterator returns is copied out. Every source starts at the
            // start key, so nothing below it ever arrives here.
            let Some((user_key, kind)) = parse_encoded_internal_key(self.inner.key()) else {
                return Some(Err(Error::corruption("undecodable internal key in scan")));
            };
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

/// A scan's source over one memtable: the keys visible at the snapshot seqno,
/// copied in chunks of [`FIRST_MEMTABLE_CHUNK`] doubling up to
/// [`MEMTABLE_CHUNK`] keys, each chunk under one short read-lock hold that
/// resumes after the previous chunk's last key.
///
/// The chunks are read after the snapshot was taken, while writers keep
/// overwriting the memtable; the iterator's retention registration keeps
/// every version visible at the seqno on the slots' prior lists.
struct MemtableCursor {
    memtable: Arc<Memtable>,
    seqno: SeqNo,
    /// The rest of the current chunk, in key order.
    chunk: std::vec::IntoIter<Entry>,
    /// How many keys the current chunk asked for.
    limit: usize,
    /// Whether the memtable may hold visible keys after the current chunk.
    more: bool,
    entry: Option<Entry>,
    key: Vec<u8>,
}

impl MemtableCursor {
    fn new(memtable: Arc<Memtable>, seqno: SeqNo, start: &[u8]) -> MemtableCursor {
        let limit = FIRST_MEMTABLE_CHUNK;
        let chunk = memtable.range_at(Bound::Included(start), seqno, limit);
        let more = chunk.len() == limit;
        let mut cursor = MemtableCursor {
            memtable,
            seqno,
            chunk: chunk.into_iter(),
            limit,
            more,
            entry: None,
            key: Vec::new(),
        };
        cursor.step();
        cursor
    }

    /// Moves to the next entry, reading the next chunk when this one is used up.
    fn step(&mut self) {
        let mut next = self.chunk.next();
        if next.is_none() && self.more {
            if let Some(last) = &self.entry {
                self.limit = (self.limit * 2).min(MEMTABLE_CHUNK);
                let lower = Bound::Excluded(last.key.user_key.as_slice());
                let chunk = self.memtable.range_at(lower, self.seqno, self.limit);
                self.more = chunk.len() == self.limit;
                self.chunk = chunk.into_iter();
                next = self.chunk.next();
            }
        }
        self.entry = next;
        if let Some(entry) = &self.entry {
            entry.key.encode_into(&mut self.key);
        }
    }
}

impl EntryCursor for MemtableCursor {
    fn valid(&self) -> bool {
        self.entry.is_some()
    }

    fn key(&self) -> &[u8] {
        &self.key
    }

    fn value(&self) -> &[u8] {
        self.entry.as_ref().map_or(&[], |entry| &entry.value)
    }

    fn advance(&mut self) -> Result<()> {
        if self.entry.is_some() {
            self.step();
        }
        Ok(())
    }
}

/// A scan's source over one sorted run of files: one L0 file, or the files of
/// a deeper level that overlap the scan's range, in key order. Like LevelDB's
/// two-level iterator it opens the next file only when the current one is
/// exhausted, so a short scan touches one or two files of a level.
struct RunCursor {
    db: Arc<DbInner>,
    files: std::vec::IntoIter<Arc<FileMetadata>>,
    current: Option<BoxedCursor>,
}

impl RunCursor {
    /// Opens the run's first file at `start` and moves to the first entry.
    fn new(db: Arc<DbInner>, files: Vec<Arc<FileMetadata>>, start: &[u8]) -> Result<RunCursor> {
        let mut run = RunCursor { db, files: files.into_iter(), current: None };
        if let Some(file) = run.files.next() {
            run.current = Some(run.db.table_cache.get_or_open(&file)?.scan_cursor(start)?);
        }
        run.skip_exhausted()?;
        Ok(run)
    }

    /// Opens the following files while the current one has no entry left.
    fn skip_exhausted(&mut self) -> Result<()> {
        while self.current.as_ref().is_some_and(|cursor| !cursor.valid()) {
            self.current = match self.files.next() {
                Some(file) => Some(self.db.table_cache.get_or_open(&file)?.scan_cursor(&[])?),
                None => None,
            };
        }
        Ok(())
    }
}

impl EntryCursor for RunCursor {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(|cursor| cursor.valid())
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().map_or(&[], |cursor| cursor.key())
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().map_or(&[], |cursor| cursor.value())
    }

    fn advance(&mut self) -> Result<()> {
        let Some(cursor) = self.current.as_mut() else {
            return Ok(());
        };
        if !cursor.valid() {
            return Ok(());
        }
        let moved = cursor.advance().and_then(|()| self.skip_exhausted());
        if moved.is_err() {
            self.current = None;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use triad_common::retention::SnapshotRetention;
    use triad_common::types::InternalKey;
    use triad_memtable::LogPosition;

    /// Every entry a cursor lends, from where it stands to its end.
    fn drain(mut cursor: MemtableCursor) -> Vec<Entry> {
        let mut lent = Vec::new();
        while cursor.valid() {
            lent.push(Entry::new(InternalKey::decode(cursor.key()).unwrap(), cursor.value()));
            cursor.advance().unwrap();
        }
        lent
    }

    #[test]
    fn memtable_cursor_yields_every_visible_key_once_across_growing_chunks() {
        let pos = LogPosition { log_id: 1, offset: 0 };
        // Chunks of 8, 16, 32, 64, 64 keys end after 8, 24, 56, 120 and 184.
        for visible in [7u64, 8, 9, 24, 25, 56, 57, 120, 121, 184, 185] {
            let retention = Arc::new(SnapshotRetention::new());
            let memtable = Arc::new(Memtable::with_retention(Arc::clone(&retention)));
            for i in 0..visible {
                let key = format!("key-{i:04}");
                memtable.insert(key.as_bytes(), b"old", i + 1, ValueKind::Put, pos);
            }
            let seqno = visible;
            retention.register(seqno);
            // Overwrite every key, and add a key the snapshot cannot see
            // after each one: the cursor reads the retained priors and skips
            // the invisible keys.
            for i in 0..visible {
                let key = format!("key-{i:04}");
                memtable.insert(key.as_bytes(), b"new", 1_000 + i, ValueKind::Put, pos);
                let later = format!("key-{i:04}-later");
                memtable.insert(later.as_bytes(), b"new", 2_000 + i, ValueKind::Put, pos);
            }
            let lent = drain(MemtableCursor::new(Arc::clone(&memtable), seqno, b""));
            let keys: Vec<String> =
                lent.iter().map(|e| String::from_utf8(e.key.user_key.clone()).unwrap()).collect();
            let expected: Vec<String> = (0..visible).map(|i| format!("key-{i:04}")).collect();
            assert_eq!(keys, expected, "{visible} visible keys");
            assert!(lent.iter().all(|e| e.value == b"old" && e.key.seqno <= seqno));
            // From a start key in the middle, the rest of them.
            let from = drain(MemtableCursor::new(memtable, seqno, b"key-0003x"));
            assert_eq!(from.len() as u64, visible.saturating_sub(4), "{visible} visible keys");
        }
    }
}
