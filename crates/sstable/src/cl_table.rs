//! CL-SSTables: commit-log-backed L0 tables (TRIAD-LOG, paper §4.3).
//!
//! When TRIAD-LOG is enabled, flushing the memory component does not rewrite the
//! key/value data: the values already live in the sealed commit log. Instead the
//! flush writes a small sorted *index* mapping each (cold) user key to the offset of
//! its most recent update in the log. The index file plus the sealed log together
//! form a CL-SSTable that serves reads and participates in L0→L1 compaction exactly
//! like a regular SSTable.
//!
//! The index file reuses the regular table format (blocks, bloom filter, properties,
//! footer) with [`TableKind::CommitLogIndex`]; the value of each index entry is the
//! varint-encoded byte offset into the backing log.
//!
//! A value is read from the log three ways, each with the record's CRC and
//! the index→log key check:
//!
//! * a point lookup reads its one record with a positioned read, and an
//!   unbounded one caches the entry it builds as a *row* (`row.rs`) while
//!   the cache has room for it, so the next get of the key makes no index
//!   seek and no read of the log;
//! * compaction's cursor reads the whole log once, around the block cache;
//! * a scan reads *resolved blocks*: for each index data block it enters,
//!   the same entries with each put's value in place of its offset, built
//!   once from [`LOG_CHUNK_LEN`]-byte log chunks and cached in the shared
//!   block cache under the table's cache id, at the index block's offset
//!   with a tag bit set. The scan cursor is a regular table's, so a cached
//!   CL scan makes no CRC check, chunk read or value copy per entry. A bad
//!   record fails the scan when it enters the record's block, and nothing is
//!   cached for that block.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use triad_common::types::{parse_encoded_internal_key, Entry, InternalKey, ValueKind};
use triad_common::varint;
use triad_common::{Error, Result, Stats};
use triad_wal::{LogChunk, LogReader};

use crate::block::{Block, BlockBuilder};
use crate::builder::{TableBuilder, TableBuilderOptions};
use crate::format::{BlockHandle, VerifiedBlock};
use crate::iter::{BoxedCursor, EntryCursor};
use crate::properties::{TableKind, TableProperties};
use crate::reader::{BlockSource, Table};
use crate::{row, FetchContext, SortedTable};

/// Builds the index file of a CL-SSTable.
#[derive(Debug)]
pub struct ClTableBuilder {
    inner: TableBuilder,
    log_id: u64,
    referenced_value_bytes: u64,
}

impl ClTableBuilder {
    /// Creates a builder for the index file at `index_path`, referencing commit log
    /// `log_id`.
    pub fn create(
        index_path: impl AsRef<Path>,
        options: TableBuilderOptions,
        log_id: u64,
    ) -> Result<Self> {
        let inner = TableBuilder::create(index_path, options)?;
        Ok(ClTableBuilder { inner, log_id, referenced_value_bytes: 0 })
    }

    /// Adds an index entry: `key` lives at byte `log_offset` of the backing log and
    /// its value occupies `value_len` bytes there.
    ///
    /// Keys must be added in strictly increasing internal-key order.
    pub fn add(&mut self, key: &InternalKey, log_offset: u64, value_len: u64) -> Result<()> {
        let mut offset_bytes = Vec::with_capacity(10);
        varint::encode_u64(&mut offset_bytes, log_offset);
        self.inner.add(key, &offset_bytes)?;
        self.referenced_value_bytes += value_len;
        Ok(())
    }

    /// Number of index entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.inner.num_entries()
    }

    /// Finishes the index file and returns its properties and on-disk size.
    ///
    /// The returned size is the number of bytes actually written by the flush — the
    /// whole point of TRIAD-LOG is that this is small compared to the data the log
    /// already holds.
    pub fn finish(mut self) -> Result<(TableProperties, u64)> {
        self.inner.set_kind(TableKind::CommitLogIndex);
        self.inner.set_backing_log_id(self.log_id);
        // Report the bytes the table *represents* (for compaction sizing), not the
        // tiny varint offsets stored in the index blocks.
        self.inner.set_raw_value_bytes(self.referenced_value_bytes);
        self.inner.finish()
    }

    /// Abandons the partially built index file.
    pub fn abandon(self) -> Result<()> {
        self.inner.abandon()
    }
}

/// Size of the chunks a resolved block's values are read from the backing
/// log in, aligned to multiples of it: the default data-block size.
pub const LOG_CHUNK_LEN: usize = 4 * 1024;

/// Set on the cache offset of a resolved block, which is keyed under the
/// table's cache id at its index block's offset: it keeps the resolved block
/// apart from the index block itself, which gets read through the cache.
/// Table offsets are far below it, and rows set bit 62 only.
const RESOLVED_TAG: u64 = 1 << 63;

/// An open CL-SSTable: a sorted offset index plus the sealed commit log it references.
pub struct ClTable {
    index: Arc<Table>,
    log: LogReader,
    props: TableProperties,
    index_size: u64,
    stats: Option<Arc<Stats>>,
    /// The shared block cache, when the engine opened this table through
    /// one: scans read resolved blocks through it. `None` builds each
    /// resolved block a scan enters afresh.
    fetch: Option<FetchContext>,
}

impl std::fmt::Debug for ClTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClTable")
            .field("index", &self.index)
            .field("log", &self.log.path())
            .field("entries", &self.props.num_entries)
            .finish()
    }
}

impl ClTable {
    /// Opens a CL-SSTable from its index file and the path of its backing log.
    pub fn open(
        index_path: impl AsRef<Path>,
        log_path: impl AsRef<Path>,
        stats: Option<Arc<Stats>>,
    ) -> Result<ClTable> {
        ClTable::open_with_fetch(index_path, log_path, stats, None)
    }

    /// Opens the CL-SSTable with an optional [`FetchContext`]: the index
    /// table's data blocks, which point lookups read, the scans' resolved
    /// blocks and the gets' rows then go through the shared block cache, all
    /// under the context's table id. A point lookup that misses its row
    /// reads the value with one positioned read of the log.
    pub fn open_with_fetch(
        index_path: impl AsRef<Path>,
        log_path: impl AsRef<Path>,
        stats: Option<Arc<Stats>>,
        fetch: Option<FetchContext>,
    ) -> Result<ClTable> {
        let index =
            Arc::new(Table::open_with_fetch(index_path.as_ref(), stats.clone(), fetch.clone())?);
        let props = index.properties().clone();
        if props.kind != TableKind::CommitLogIndex {
            return Err(Error::corruption_at(
                "expected a CL-SSTable index file",
                index_path.as_ref(),
            ));
        }
        let log = LogReader::open(log_path.as_ref())?;
        let index_size = index.file_size();
        Ok(ClTable { index, log, props, index_size, stats, fetch })
    }

    /// The path of the backing commit log.
    pub fn log_path(&self) -> &Path {
        self.log.path()
    }

    /// The path of the index file.
    pub fn index_path(&self) -> PathBuf {
        self.index.path().to_path_buf()
    }

    /// Size of the index file (the bytes the flush actually wrote).
    pub fn index_size(&self) -> u64 {
        self.index_size
    }

    /// Size of the backing commit log file.
    pub fn log_size(&self) -> u64 {
        self.log.len()
    }

    /// The *resolved block* of the index data block at `handle`: the same
    /// entries, each internal key mapped to its value instead of its log
    /// offset (tombstones to an empty value). Scans read it through the
    /// shared block cache, so a cached CL scan costs what a regular table's
    /// does: no CRC check, chunk probe or value copy per entry.
    pub(crate) fn resolved_block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
        let load = || {
            if let Some(stats) = &self.stats {
                stats.add_block_reads(1);
            }
            self.resolve(handle)
        };
        match &self.fetch {
            Some(ctx) => ctx.fetch.get_or_load(
                ctx.table_id,
                handle.offset | RESOLVED_TAG,
                self.stats.as_deref(),
                &load,
            ),
            None => Ok(Arc::new(load()?.into_block())),
        }
    }

    /// Builds the resolved block of the index block at `handle`, read around
    /// the cache. The puts' records are read in log order from
    /// [`LOG_CHUNK_LEN`]-byte chunks, each chunk once; every record's CRC
    /// and the index→log key check pass before the block exists.
    fn resolve(&self, handle: BlockHandle) -> Result<VerifiedBlock> {
        let index = self.index.read_uncached_block(handle)?.into_block();
        let undecodable = || {
            Error::corruption_at("undecodable internal key in CL-SSTable index", self.index.path())
        };
        // (log offset, index position) of every put, in log order.
        let mut puts = Vec::with_capacity(index.num_entries());
        for pos in 0..index.num_entries() {
            let (key, value) = index.entry(pos)?;
            let (_, kind) = parse_encoded_internal_key(key).ok_or_else(undecodable)?;
            if kind == ValueKind::Put {
                puts.push((varint::decode_u64(value)?.0, pos));
            }
        }
        puts.sort_unstable();
        // Each put's value, as a range of `values`.
        let mut ranges = vec![0..0; index.num_entries()];
        let mut values = Vec::new();
        let mut last: Option<Arc<LogChunk>> = None;
        let mut chunk = |start: u64| -> Result<Arc<LogChunk>> {
            if let Some(chunk) = last.as_ref().filter(|chunk| chunk.start() == start) {
                return Ok(Arc::clone(chunk));
            }
            let chunk = Arc::new(self.log.read_range(start, LOG_CHUNK_LEN)?);
            last = Some(Arc::clone(&chunk));
            Ok(chunk)
        };
        let mut stitch = Vec::new();
        for (offset, pos) in puts {
            let (user_key, _) =
                parse_encoded_internal_key(index.entry(pos)?.0).ok_or_else(undecodable)?;
            let len = LOG_CHUNK_LEN as u64;
            let first = chunk(offset / len * len)?;
            let value = self.checked_value(&first, offset, user_key, &mut stitch, &mut chunk)?;
            ranges[pos] = values.len()..values.len() + value.len();
            values.extend_from_slice(value);
        }
        let mut builder = BlockBuilder::new();
        for (pos, range) in ranges.into_iter().enumerate() {
            builder.add(index.entry(pos)?.0, &values[range]);
        }
        Ok(VerifiedBlock::resolved(Block::new(builder.finish())?))
    }

    /// The value of `user_key`'s put whose record starts at `offset` in
    /// `chunk`: the record's CRC is checked as it is decoded (stitched from
    /// the chunks `next` returns if it runs past `chunk`), and it must hold
    /// the key the index names.
    fn checked_value<'a>(
        &self,
        chunk: &'a LogChunk,
        offset: u64,
        user_key: &[u8],
        stitch: &'a mut Vec<u8>,
        next: &mut dyn FnMut(u64) -> Result<Arc<LogChunk>>,
    ) -> Result<&'a [u8]> {
        let record = chunk.record_at(offset, stitch, next)?;
        self.check_record_key(record.key, user_key, offset)?;
        Ok(record.value)
    }

    /// The index→log corruption check: the record at `offset` must belong to
    /// `user_key`.
    fn check_record_key(&self, record_key: &[u8], user_key: &[u8], offset: u64) -> Result<()> {
        if record_key == user_key {
            return Ok(());
        }
        Err(Error::corruption_at(
            format!(
                "CL-SSTable index points at offset {offset} holding a different key ({} vs {})",
                String::from_utf8_lossy(record_key),
                String::from_utf8_lossy(user_key)
            ),
            self.log.path(),
        ))
    }
}

impl SortedTable for ClTable {
    fn get(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        let Some(hash) = self.index.filter(user_key) else { return Ok(None) };
        if let Some(ctx) = &self.fetch {
            if let Some(entry) = row::probe(ctx, hash, user_key, snapshot, self.stats.as_deref())? {
                return Ok(Some(entry));
            }
        }
        let Some(index_entry) = self.index.lookup(user_key, snapshot)? else {
            return Ok(None);
        };
        // Tombstones carry no value; no need to touch the log. A put's record
        // is read with its CRC checked, and it must hold the key the index says.
        let value = if index_entry.key.kind == ValueKind::Delete {
            Vec::new()
        } else {
            let (offset, _) = varint::decode_u64(&index_entry.value)?;
            let record = self.log.read_at(offset)?;
            self.check_record_key(&record.key, user_key, offset)?;
            record.value
        };
        if let Some(ctx) = self.fetch.as_ref().filter(|_| row::cacheable(snapshot)) {
            let row = VerifiedBlock::row(&index_entry.key.encode(), &value);
            if ctx.fetch.has_room(ctx.table_id, row::offset(hash), row.block()) {
                ctx.fetch.insert(ctx.table_id, row::offset(hash), row, self.stats.as_deref());
            }
        }
        Ok(Some(Entry::new(index_entry.key, value)))
    }

    fn cursor(self: Arc<Self>) -> Result<BoxedCursor> {
        // Compaction reads the sealed log once, whole and around the block
        // cache; one read per entry would dominate compaction time.
        let len = usize::try_from(self.log.len())
            .map_err(|_| Error::corruption_at("commit log overflows usize", self.log.path()))?;
        let log = Arc::new(self.log.read_range(0, len)?);
        let index = Arc::clone(&self.index).cursor()?;
        Ok(Box::new(ClCursor::new(self, index, log)?))
    }

    fn scan_cursor(self: Arc<Self>, start: &[u8]) -> Result<BoxedCursor> {
        Arc::clone(&self.index).cursor_from(BlockSource::Resolved(self), start)
    }

    fn properties(&self) -> &TableProperties {
        &self.props
    }

    fn size_bytes(&self) -> u64 {
        // The bytes this table occupies on disk beyond what the WAL already wrote.
        self.index_size
    }
}

/// Compaction's cursor over a CL-SSTable: it walks the index's uncached
/// cursor and reads each put's value from the whole backing log, read once
/// when the cursor opens. Each record is CRC-checked as it is decoded and
/// must hold the key the index says; the value is copied into one reused
/// buffer, so an entry costs no allocation.
struct ClCursor {
    table: Arc<ClTable>,
    index: BoxedCursor,
    /// The whole backing log.
    log: Arc<LogChunk>,
    /// The current entry's value; empty for tombstones.
    value: Vec<u8>,
    /// Set by an error, which ends the stream.
    failed: bool,
}

impl ClCursor {
    fn new(table: Arc<ClTable>, index: BoxedCursor, log: Arc<LogChunk>) -> Result<ClCursor> {
        let mut cursor = ClCursor { table, index, log, value: Vec::new(), failed: false };
        cursor.resolve()?;
        Ok(cursor)
    }

    /// Reads the value of the index entry the cursor is on.
    fn resolve(&mut self) -> Result<()> {
        self.value.clear();
        if !self.index.valid() {
            return Ok(());
        }
        let (user_key, kind) = parse_encoded_internal_key(self.index.key())
            .ok_or_else(|| Error::corruption("undecodable internal key in CL-SSTable index"))?;
        if kind == ValueKind::Delete {
            return Ok(());
        }
        let (offset, _) = varint::decode_u64(self.index.value())?;
        // `record_at` rejects a record that would end past the log before
        // it asks for more bytes, so a whole-log chunk never stitches.
        let mut past_the_log = |start: u64| -> Result<Arc<LogChunk>> {
            Err(Error::corruption(format!("log bytes at {start} lie past the end of the log")))
        };
        self.value.extend_from_slice(self.table.checked_value(
            &self.log,
            offset,
            user_key,
            &mut Vec::new(),
            &mut past_the_log,
        )?);
        Ok(())
    }
}

impl EntryCursor for ClCursor {
    fn valid(&self) -> bool {
        !self.failed && self.index.valid()
    }

    fn key(&self) -> &[u8] {
        self.index.key()
    }

    fn value(&self) -> &[u8] {
        &self.value
    }

    fn advance(&mut self) -> Result<()> {
        if !self.valid() {
            return Ok(());
        }
        let moved = self.index.advance().and_then(|()| self.resolve());
        self.failed = moved.is_err();
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::MapCache;
    use crate::BlockFetch;
    use triad_wal::{LogRecord, LogWriter};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-cl-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds a commit log with `n` puts (and every 10th key also deleted afterwards),
    /// then a CL-SSTable index over the *latest* state, mimicking what a TRIAD-LOG
    /// flush does.
    fn build_cl_table(dir: &Path, n: u64) -> (PathBuf, PathBuf) {
        // Values are padded to 100 bytes, mirroring the paper's small-key /
        // larger-value workloads where TRIAD-LOG pays off.
        build_cl_table_sized(dir, n, |_| 100)
    }

    /// [`build_cl_table`] with the value of key `i` `value_len(i)` bytes long.
    fn build_cl_table_sized(
        dir: &Path,
        n: u64,
        value_len: impl Fn(u64) -> usize,
    ) -> (PathBuf, PathBuf) {
        let log_path = triad_wal::log_file_path(dir, 1);
        let mut writer = LogWriter::create(&log_path, 1).unwrap();
        let mut latest: std::collections::BTreeMap<Vec<u8>, (u64, u64, ValueKind, u64)> =
            std::collections::BTreeMap::new();
        let mut seqno = 0u64;
        for i in 0..n {
            seqno += 1;
            let key = format!("key-{i:05}").into_bytes();
            let mut value = format!("value-{i}").into_bytes();
            value.resize(value_len(i), b'x');
            let record = LogRecord::put(seqno, key.clone(), value.clone());
            let offset = writer.append(&record).unwrap();
            latest.insert(key, (seqno, offset, ValueKind::Put, value.len() as u64));
        }
        for i in (0..n).step_by(10) {
            seqno += 1;
            let key = format!("key-{i:05}").into_bytes();
            let record = LogRecord::delete(seqno, key.clone());
            let offset = writer.append(&record).unwrap();
            latest.insert(key, (seqno, offset, ValueKind::Delete, 0));
        }
        writer.seal().unwrap();

        let index_path = crate::cl_index_file_path(dir, 1);
        let mut builder =
            ClTableBuilder::create(&index_path, TableBuilderOptions::default(), 1).unwrap();
        for (key, (seqno, offset, kind, value_len)) in &latest {
            let ikey = InternalKey::new(key.clone(), *seqno, *kind);
            builder.add(&ikey, *offset, *value_len).unwrap();
        }
        builder.finish().unwrap();
        (index_path, log_path)
    }

    /// Values of 100 to 600 bytes: records straddle every chunk boundary.
    fn straddling_value_len(i: u64) -> usize {
        100 + (i as usize * 37) % 501
    }

    /// Opens the table through `cache`, as the engine's table cache does.
    fn open_cached(index_path: &Path, log_path: &Path, cache: &Arc<MapCache>) -> Arc<ClTable> {
        let ctx = FetchContext { table_id: 1, fetch: Arc::clone(cache) as _ };
        Arc::new(ClTable::open_with_fetch(index_path, log_path, None, Some(ctx)).unwrap())
    }

    #[test]
    fn lookups_resolve_values_from_the_log() {
        let dir = temp_dir("lookup");
        let (index_path, log_path) = build_cl_table(&dir, 200);
        let table = ClTable::open(&index_path, &log_path, None).unwrap();
        // Key 5 was never deleted.
        let entry = table.get(b"key-00005", u64::MAX).unwrap().unwrap();
        assert_eq!(entry.key.kind, ValueKind::Put);
        assert!(entry.value.starts_with(b"value-5"));
        assert_eq!(entry.value.len(), 100);
        // Key 10 was deleted after being written.
        let entry = table.get(b"key-00010", u64::MAX).unwrap().unwrap();
        assert_eq!(entry.key.kind, ValueKind::Delete);
        // Absent key.
        assert!(table.get(b"key-99999", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn index_is_much_smaller_than_the_data_it_references() {
        let dir = temp_dir("size");
        let (index_path, log_path) = build_cl_table(&dir, 2_000);
        let table = ClTable::open(&index_path, &log_path, None).unwrap();
        assert!(table.index_size() > 0);
        assert!(table.log_size() > 0);
        // The point of TRIAD-LOG: the flush writes far fewer bytes than a regular
        // flush (which would rewrite every key and value).
        assert!(
            table.index_size() * 2 < table.log_size(),
            "index ({}) should be much smaller than the log ({})",
            table.index_size(),
            table.log_size()
        );
        assert_eq!(table.size_bytes(), table.index_size());
    }

    #[test]
    fn entries_iterate_in_key_order_with_resolved_values() {
        let dir = temp_dir("entries");
        let (index_path, log_path) = build_cl_table(&dir, 100);
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        let entries = drain(table.cursor().unwrap()).unwrap();
        assert_eq!(entries.len(), 100);
        for window in entries.windows(2) {
            assert!(window[0].key < window[1].key);
        }
        // Non-deleted keys carry their value read back from the log.
        let alive: Vec<&Entry> = entries.iter().filter(|e| e.key.kind == ValueKind::Put).collect();
        assert!(!alive.is_empty());
        for entry in alive {
            let expect = format!(
                "value-{}",
                String::from_utf8_lossy(&entry.key.user_key)
                    .trim_start_matches("key-")
                    .trim_start_matches('0')
            );
            // Key 0 trims to an empty string; handle it explicitly.
            let expect = if expect == "value-" { "value-0".to_string() } else { expect };
            assert!(entry.value.starts_with(expect.as_bytes()));
            assert_eq!(entry.value.len(), 100);
        }
    }

    /// Every entry a cursor lends, from where it stands to its end.
    fn drain(mut cursor: BoxedCursor) -> Result<Vec<Entry>> {
        let mut lent = Vec::new();
        while cursor.valid() {
            lent.push(Entry::new(InternalKey::decode(cursor.key()).unwrap(), cursor.value()));
            cursor.advance()?;
        }
        Ok(lent)
    }

    #[test]
    fn scan_cursor_resolves_values_per_entry_and_keeps_tombstones() {
        let dir = temp_dir("scan-cursor");
        let (index_path, log_path) = build_cl_table(&dir, 100);
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        let eager = drain(Arc::clone(&table).cursor().unwrap()).unwrap();
        let scanned = drain(Arc::clone(&table).scan_cursor(b"").unwrap()).unwrap();
        assert_eq!(scanned, eager, "the scan cursor lends what the compaction cursor does");
        let tombstones = scanned.iter().filter(|e| e.key.kind == ValueKind::Delete).count();
        assert_eq!(tombstones, 10);
        assert!(scanned.iter().all(|e| (e.key.kind == ValueKind::Delete) == e.value.is_empty()));

        // Seeking onto a tombstone lands on it; between keys on the next one.
        let from_deleted = drain(Arc::clone(&table).scan_cursor(b"key-00050").unwrap()).unwrap();
        assert_eq!(from_deleted, eager[50..]);
        assert_eq!(from_deleted[0].key.kind, ValueKind::Delete);
        let between = drain(Arc::clone(&table).scan_cursor(b"key-00050x").unwrap()).unwrap();
        assert_eq!(between, eager[51..]);
        assert!(drain(Arc::clone(&table).scan_cursor(b"key-99999").unwrap()).unwrap().is_empty());
    }

    #[test]
    fn properties_record_the_backing_log() {
        let dir = temp_dir("props");
        let (index_path, log_path) = build_cl_table(&dir, 50);
        let table = ClTable::open(&index_path, &log_path, None).unwrap();
        let props = SortedTable::properties(&table);
        assert_eq!(props.kind, TableKind::CommitLogIndex);
        assert_eq!(props.backing_log_id, Some(1));
        assert_eq!(props.num_entries, 50);
        assert_eq!(props.num_tombstones, 5);
    }

    #[test]
    fn open_rejects_a_regular_sstable_index() {
        let dir = temp_dir("wrong-kind");
        // Build a *regular* table and try to open it as a CL index.
        let sst_path = crate::sst_file_path(&dir, 9);
        let mut builder = TableBuilder::create(&sst_path, TableBuilderOptions::default()).unwrap();
        builder.add(&InternalKey::new(b"a".to_vec(), 1, ValueKind::Put), b"v").unwrap();
        builder.finish().unwrap();
        let log_path = triad_wal::log_file_path(&dir, 9);
        LogWriter::create(&log_path, 9).unwrap().seal().unwrap();
        assert!(ClTable::open(&sst_path, &log_path, None).is_err());
    }

    #[test]
    fn corrupt_offset_is_reported_as_corruption() {
        let dir = temp_dir("corrupt-offset");
        let log_path = triad_wal::log_file_path(&dir, 2);
        let mut writer = LogWriter::create(&log_path, 2).unwrap();
        let offset_a = writer.append(&LogRecord::put(1, b"aaa".to_vec(), b"va".to_vec())).unwrap();
        let _offset_b = writer.append(&LogRecord::put(2, b"bbb".to_vec(), b"vb".to_vec())).unwrap();
        writer.seal().unwrap();

        let index_path = crate::cl_index_file_path(&dir, 2);
        let mut builder =
            ClTableBuilder::create(&index_path, TableBuilderOptions::default(), 2).unwrap();
        builder.add(&InternalKey::new(b"aaa".to_vec(), 1, ValueKind::Put), offset_a, 2).unwrap();
        // Deliberately point "bbb" at the offset of "aaa" to simulate a bad index.
        builder.add(&InternalKey::new(b"bbb".to_vec(), 2, ValueKind::Put), offset_a, 2).unwrap();
        builder.finish().unwrap();

        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        assert_eq!(table.get(b"aaa", u64::MAX).unwrap().unwrap().value, b"va");
        let err = table.get(b"bbb", u64::MAX).unwrap_err();
        assert!(err.is_corruption());

        // Both entries share one index block, so a scan fails as it enters
        // that block, wherever in it the scan starts, with or without a cache.
        for start in [&b""[..], b"aaa", b"bbb"] {
            let err = Arc::clone(&table).scan_cursor(start).err().unwrap();
            assert!(err.is_corruption(), "{err}");
        }
        let cache = MapCache::new();
        let cached = open_cached(&index_path, &log_path, &cache);
        assert!(Arc::clone(&cached).scan_cursor(b"").err().unwrap().is_corruption());
        assert_eq!(cache.block_count(), 0, "a block that fails its checks is not cached");
        // Compaction lends "aaa", then stops at "bbb".
        let mut cursor = Arc::clone(&table).cursor().unwrap();
        assert_eq!(cursor.value(), b"va");
        assert!(cursor.advance().unwrap_err().is_corruption());
        assert!(!cursor.valid(), "an error ends the stream");
    }

    #[test]
    fn offsets_at_or_past_the_end_of_the_log_are_corruption() {
        let dir = temp_dir("offset-past-end");
        let log_path = triad_wal::log_file_path(&dir, 3);
        let mut writer = LogWriter::create(&log_path, 3).unwrap();
        writer.append(&LogRecord::put(1, b"aaa".to_vec(), b"va".to_vec())).unwrap();
        writer.seal().unwrap();
        let log_len = std::fs::metadata(&log_path).unwrap().len();
        for (i, offset) in [log_len, log_len + 100, u64::MAX - 3, u64::MAX].into_iter().enumerate()
        {
            let index_path = crate::cl_index_file_path(&dir, 10 + i as u64);
            let mut builder =
                ClTableBuilder::create(&index_path, TableBuilderOptions::default(), 3).unwrap();
            builder.add(&InternalKey::new(b"aaa".to_vec(), 1, ValueKind::Put), offset, 2).unwrap();
            builder.finish().unwrap();
            let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
            assert!(table.get(b"aaa", u64::MAX).unwrap_err().is_corruption(), "get at {offset}");
            let scan = Arc::clone(&table).scan_cursor(b"").err().unwrap();
            assert!(scan.is_corruption(), "scan at {offset}: {scan}");
            let cached = open_cached(&index_path, &log_path, &MapCache::new());
            assert!(cached.scan_cursor(b"").err().unwrap().is_corruption(), "cached at {offset}");
            let compaction = table.cursor().err().unwrap();
            assert!(compaction.is_corruption(), "compaction at {offset}: {compaction}");
        }
    }

    #[test]
    fn scans_read_records_across_chunk_boundaries_like_compaction() {
        let dir = temp_dir("chunk-boundaries");
        let (index_path, log_path) = build_cl_table_sized(&dir, 400, straddling_value_len);
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        assert!(table.log_size() > 20 * LOG_CHUNK_LEN as u64, "the log spans many chunks");
        let compacted = drain(Arc::clone(&table).cursor().unwrap()).unwrap();
        assert_eq!(compacted.len(), 400);
        for entry in compacted.iter().filter(|entry| entry.key.kind == ValueKind::Put) {
            let i: u64 = std::str::from_utf8(&entry.key.user_key[4..]).unwrap().parse().unwrap();
            assert_eq!(entry.value.len(), straddling_value_len(i));
            assert!(entry.value.starts_with(format!("value-{i}").as_bytes()));
        }
        // A scan without a cache and one through the shared cache lend the same.
        let uncached = drain(Arc::clone(&table).scan_cursor(b"").unwrap()).unwrap();
        assert_eq!(uncached, compacted);
        let cache = MapCache::new();
        let cached = open_cached(&index_path, &log_path, &cache);
        assert_eq!(drain(Arc::clone(&cached).scan_cursor(b"").unwrap()).unwrap(), compacted);
        let blocks = index_blocks(&index_path);
        assert!(blocks > 2, "the index spans several blocks: {blocks}");
        assert_eq!(cache.loads(), blocks, "a full scan resolves every index block once");
        assert_eq!(cache.block_count() as u64, blocks);
        // A scan from every key lands on it, stitched record or not.
        for (i, entry) in compacted.iter().enumerate().step_by(7) {
            let from = drain(Arc::clone(&cached).scan_cursor(&entry.key.user_key).unwrap());
            assert_eq!(from.unwrap(), compacted[i..]);
        }
    }

    #[test]
    fn a_second_scan_of_a_range_loads_nothing() {
        let dir = temp_dir("second-scan");
        let (index_path, log_path) = build_cl_table_sized(&dir, 400, straddling_value_len);
        let cache = MapCache::new();
        let table = open_cached(&index_path, &log_path, &cache);
        let scan = |start: &[u8]| {
            let mut cursor = Arc::clone(&table).scan_cursor(start).unwrap();
            for _ in 0..100 {
                cursor.advance().unwrap();
            }
        };
        scan(b"key-00123");
        let loads = cache.loads();
        assert!(loads > 0);
        scan(b"key-00123");
        assert_eq!(cache.loads(), loads, "the second scan is served from the cache");
    }

    #[test]
    fn a_corrupt_record_fails_the_scan_and_caches_nothing() {
        let dir = temp_dir("corrupt-record");
        let (index_path, log_path) = build_cl_table_sized(&dir, 400, straddling_value_len);
        let uncached = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        let model = drain(uncached.cursor().unwrap()).unwrap();
        let (records, _) = LogReader::open(&log_path).unwrap().recover().unwrap();
        let offsets: Vec<u64> = records.iter().map(|record| record.offset).collect();
        let chunk = LOG_CHUNK_LEN as u64;
        let ends_in_its_chunk = |i: usize| offsets[i] / chunk == (offsets[i + 1] - 1) / chunk;
        // One put inside a chunk and one that straddles two (every tenth
        // key's index entry is a tombstone, which reads no record).
        let put = |i: &usize| i % 10 != 0;
        let inside = (100..).filter(put).find(|&i| ends_in_its_chunk(i)).unwrap();
        let straddling = (100..).filter(put).find(|&i| !ends_in_its_chunk(i)).unwrap();
        let good = std::fs::read(&log_path).unwrap();
        for victim in [inside, straddling] {
            // Flip a byte near the end of the victim's value on disk, before
            // the first scan: in the chunk after its first for the
            // straddling record.
            let mut bad = good.clone();
            bad[offsets[victim + 1] as usize - 3] ^= 0x10;
            std::fs::write(&log_path, &bad).unwrap();
            let cache = MapCache::new();
            let table = open_cached(&index_path, &log_path, &cache);

            let key = format!("key-{victim:05}");
            let at = model.iter().position(|entry| entry.key.user_key == key.as_bytes()).unwrap();
            let scan = Arc::clone(&table).scan_cursor(&model[at - 5].key.user_key);
            let err = scan.and_then(drain).unwrap_err();
            assert!(err.is_corruption(), "record {victim}: {err}");
            let cached = cache.block_count();
            let err = Arc::clone(&table).scan_cursor(key.as_bytes()).err().unwrap();
            assert!(err.is_corruption(), "record {victim}: a scan starting on it fails: {err}");
            assert_eq!(cache.block_count(), cached, "record {victim}: its block is not cached");

            std::fs::write(&log_path, &good).unwrap();
            assert_eq!(drain(Arc::clone(&table).scan_cursor(b"").unwrap()).unwrap(), model);
        }
    }

    /// Opens the table through `cache` as [`open_cached`] does, counting into `stats`.
    fn open_counted(
        index_path: &Path,
        log_path: &Path,
        cache: &Arc<MapCache>,
    ) -> (ClTable, Arc<Stats>) {
        let ctx = FetchContext { table_id: 1, fetch: Arc::clone(cache) as _ };
        let stats = Arc::new(Stats::new());
        let table =
            ClTable::open_with_fetch(index_path, log_path, Some(Arc::clone(&stats)), Some(ctx));
        (table.unwrap(), stats)
    }

    /// The cached row of `user_key` in table 1, if any.
    fn row_of(cache: &MapCache, user_key: &[u8]) -> Option<Arc<Block>> {
        cache.probe(1, row::offset(triad_hll::hash64(user_key)))
    }

    #[test]
    fn gets_cache_rows_that_skip_the_index_and_the_log() {
        let dir = temp_dir("rows");
        let (index_path, log_path) = build_cl_table(&dir, 400);
        let cache = MapCache::with_room();
        let (table, stats) = open_counted(&index_path, &log_path, &cache);
        let put = table.get(b"key-00005", u64::MAX).unwrap().unwrap();
        let tombstone = table.get(b"key-00010", u64::MAX).unwrap().unwrap();
        assert_eq!(tombstone.key.kind, ValueKind::Delete);
        let loads = cache.loads();
        assert_eq!(loads, 1, "both keys share one index block");
        assert!(row_of(&cache, b"key-00005").is_some() && row_of(&cache, b"key-00010").is_some());

        // Zeroing the log in place proves the second gets never read it.
        let good = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, vec![0u8; good.len()]).unwrap();
        assert_eq!(table.get(b"key-00005", u64::MAX).unwrap().unwrap(), put);
        assert_eq!(table.get(b"key-00010", u64::MAX).unwrap().unwrap(), tombstone);
        assert!(table.get(b"key-00006", u64::MAX).unwrap_err().is_corruption());
        std::fs::write(&log_path, &good).unwrap();
        assert_eq!(cache.loads(), loads, "a row hit seeks no index block");
        assert_eq!(stats.block_cache_row_hits(), 2);
        // A get bounded below the row's seqno goes back to the index.
        assert!(table.get(b"key-00005", put.key.seqno - 1).unwrap().is_none());
        assert_eq!(stats.block_cache_row_hits(), 2);
    }

    #[test]
    fn a_full_cache_takes_no_cl_row() {
        let dir = temp_dir("rows-full");
        let (index_path, log_path) = build_cl_table(&dir, 200);
        let cache = MapCache::new();
        let (table, stats) = open_counted(&index_path, &log_path, &cache);
        for _ in 0..2 {
            let entry = table.get(b"key-00005", u64::MAX).unwrap().unwrap();
            assert!(entry.value.starts_with(b"value-5"));
        }
        assert!(row_of(&cache, b"key-00005").is_none(), "a CL row never evicts");
        assert_eq!((cache.block_count(), stats.block_cache_row_hits()), (1, 0));
    }

    #[test]
    fn a_cl_row_holding_another_key_is_never_served() {
        let dir = temp_dir("planted-row");
        let (index_path, log_path) = build_cl_table(&dir, 200);
        let cache = MapCache::with_room();
        let (table, stats) = open_counted(&index_path, &log_path, &cache);
        let other = InternalKey::new(b"key-00007".to_vec(), 8, ValueKind::Put);
        let planted = VerifiedBlock::row(&other.encode(), b"value-7");
        cache.insert(1, row::offset(triad_hll::hash64(b"key-00005")), planted, None);
        for snapshot in [500, u64::MAX] {
            let entry = table.get(b"key-00005", snapshot).unwrap().unwrap();
            assert_eq!(entry.key.user_key, b"key-00005");
            assert!(entry.value.starts_with(b"value-5"));
        }
        assert_eq!(stats.block_cache_row_hits(), 0);
        let row = row_of(&cache, b"key-00005").unwrap();
        let (key, _) = parse_encoded_internal_key(row.entry(0).unwrap().0).unwrap();
        assert_eq!(key, b"key-00005", "the unbounded get replaced the planted row");
    }

    #[test]
    fn a_corrupt_record_fails_the_get_and_caches_no_row() {
        let dir = temp_dir("get-corrupt-record");
        let (index_path, log_path) = build_cl_table(&dir, 200);
        let (records, _) = LogReader::open(&log_path).unwrap().recover().unwrap();
        let mut bytes = std::fs::read(&log_path).unwrap();
        // Flip a byte near the end of key 33's record.
        bytes[records[34].offset as usize - 3] ^= 0x10;
        std::fs::write(&log_path, &bytes).unwrap();
        let cache = MapCache::with_room();
        let (table, _) = open_counted(&index_path, &log_path, &cache);
        for _ in 0..2 {
            let err = table.get(b"key-00033", u64::MAX).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        }
        assert!(
            row_of(&cache, b"key-00033").is_none(),
            "a record that fails its check caches no row"
        );
        assert!(table.get(b"key-00034", u64::MAX).unwrap().unwrap().value.starts_with(b"value-34"));
    }

    /// The number of data blocks in the index file at `index_path`.
    fn index_blocks(index_path: &Path) -> u64 {
        let cache = MapCache::new();
        let ctx = FetchContext { table_id: 1, fetch: Arc::clone(&cache) as _ };
        let index = Arc::new(Table::open_with_fetch(index_path, None, Some(ctx)).unwrap());
        drain(index.scan_cursor(b"").unwrap()).unwrap();
        cache.loads()
    }
}
