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
//! A value is read from the log two ways, each with the record's CRC and
//! the index→log key check:
//!
//! * a point lookup reads its one record with a positioned read, and an
//!   unbounded one caches the entry it builds as a *row* (`row.rs`) while
//!   the cache has room for it, so the next get of the key makes no index
//!   seek and no read of the log;
//! * scans and compaction read many values through one reader
//!   (`ClTable::read_values`): it sorts the puts by log offset and reads
//!   them in ranges of at most `READ_CAP` bytes, reading through gaps of
//!   up to `READ_GAP` bytes between puts. A record that runs past its
//!   range is read alone with a positioned read. Compaction's cursor passes
//!   every put of the table once, when it opens, and lends each value from
//!   the reader's one buffer: no job holds a whole log. A scan passes the
//!   puts of each index data block it enters and reads the *resolved
//!   block* built from them: the same entries with each put's value in
//!   place of its offset, cached in the shared block cache under the
//!   table's cache id, at the index block's offset with a tag bit set. The
//!   scan cursor is a regular table's, so a cached CL scan makes no CRC
//!   check, log read or value copy per entry. A bad record fails the scan
//!   when it enters the record's block, and nothing is cached for that
//!   block.

use std::ops::Range;
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

/// A gap of up to this many bytes between two puts' log offsets is read
/// through rather than start another read, and a range reads this far past
/// its last put's offset: the default data-block size.
const READ_GAP: u64 = 4 * 1024;

/// The most bytes one ranged read of the backing log takes: small enough
/// that a range is still in the CPU's cache when its records are decoded.
/// With 1 MiB ranges, compaction's cursor cost about 40 % more per entry in
/// `cl_read_timing`.
const READ_CAP: u64 = 256 * 1024;

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
    /// does: no CRC check, log read or value copy per entry.
    pub(crate) fn resolved_block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
        let load = || {
            if let Some(stats) = &self.stats {
                stats.add_block_reads(1);
            }
            self.resolve(handle)
        };
        match &self.fetch {
            Some(ctx) => ctx.get_or_load(handle.offset | RESOLVED_TAG, self.stats.as_deref(), load),
            None => Ok(Arc::new(load()?.into_block())),
        }
    }

    /// Builds the resolved block of the index block at `handle`, read around
    /// the cache; every record's CRC and the index→log key check pass before
    /// the block exists.
    fn resolve(&self, handle: BlockHandle) -> Result<VerifiedBlock> {
        let index = self.index.read_uncached_block(handle)?.into_block();
        let mut puts = Vec::with_capacity(index.num_entries());
        for pos in 0..index.num_entries() {
            let (key, value) = index.entry(pos)?;
            if let Some(offset) = self.put_offset(key, value)? {
                puts.push((offset, pos));
            }
        }
        let key_of = |pos| Ok(index.entry(pos)?.0);
        let mut values = Vec::new();
        let ranges = self.read_values(&mut puts, index.num_entries(), key_of, &mut values)?;
        let mut builder = BlockBuilder::new();
        for (pos, range) in ranges.into_iter().enumerate() {
            builder.add(index.entry(pos)?.0, &values[range]);
        }
        Ok(VerifiedBlock::resolved(Block::new(builder.finish())?))
    }

    /// The log offset of the index entry `key → value` if it is a put;
    /// `None` for a tombstone, which carries no value.
    fn put_offset(&self, key: &[u8], value: &[u8]) -> Result<Option<u64>> {
        match parse_encoded_internal_key(key).ok_or_else(|| self.undecodable())?.1 {
            ValueKind::Put => Ok(Some(varint::decode_u64(value)?.0)),
            ValueKind::Delete => Ok(None),
        }
    }

    fn undecodable(&self) -> Error {
        Error::corruption_at("undecodable internal key in CL-SSTable index", self.index.path())
    }

    /// The one reader of many values from the backing log, for resolved
    /// blocks and compaction's cursor. Each put is a (log offset, slot)
    /// pair, and `key_of` names the encoded internal key of a slot.
    ///
    /// The puts are sorted by offset and read in ranges, with one reused
    /// buffer: a range takes every next put at most [`READ_GAP`] bytes past
    /// the one before, while it stays within [`READ_CAP`] bytes, and ends
    /// [`READ_GAP`] bytes past its last put's offset or at the end of the
    /// log. A record that runs past its range is read alone with
    /// [`LogReader::read_at`]. Every record's CRC is checked, and it must
    /// hold its slot's user key.
    ///
    /// Appends the values back to back to `values` and returns, for each of
    /// `slots` slots, its value's range in them: empty for a slot with no put.
    fn read_values<'k>(
        &self,
        puts: &mut [(u64, usize)],
        slots: usize,
        key_of: impl Fn(usize) -> Result<&'k [u8]>,
        values: &mut Vec<u8>,
    ) -> Result<Vec<Range<usize>>> {
        sort_by_offset(puts);
        let range_end = |offset: u64| offset.saturating_add(READ_GAP).min(self.log.len());
        let mut ranges = vec![0..0; slots];
        let mut chunk = LogChunk::default();
        let mut rest = &puts[..];
        while let Some(&(start, _)) = rest.first() {
            let joins = |pair: &[(u64, usize)]| {
                pair[1].0 - pair[0].0 <= READ_GAP
                    && range_end(pair[1].0).saturating_sub(start) <= READ_CAP
            };
            let (range, after) =
                rest.split_at(1 + rest.windows(2).take_while(|p| joins(p)).count());
            let last = range[range.len() - 1].0;
            self.log.read_range(
                start,
                range_end(last).saturating_sub(start) as usize,
                &mut chunk,
            )?;
            for &(offset, slot) in range {
                let (user_key, _) =
                    parse_encoded_internal_key(key_of(slot)?).ok_or_else(|| self.undecodable())?;
                let from = values.len();
                if let Some(record) = chunk.record_at(offset)? {
                    self.check_record_key(record.key, user_key, offset)?;
                    values.extend_from_slice(record.value);
                } else {
                    let record = self.log.read_at(offset)?;
                    self.check_record_key(&record.key, user_key, offset)?;
                    values.extend_from_slice(&record.value);
                }
                ranges[slot] = from..values.len();
            }
            rest = after;
        }
        Ok(ranges)
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
        // Compaction reads every value once, when the cursor opens, through
        // one plan of ranged reads around the block cache; one read per
        // entry, or per index block, would dominate compaction time. Each
        // buffer is allocated once, sized from the table's properties and
        // capped by the files it is read from: growing them by doubling
        // raised the benchmark's peak RSS on its write workloads.
        let entries = self.props.num_entries.min(self.index_size) as usize;
        let mut keys = Vec::with_capacity(self.index_size as usize);
        let mut key_bounds = Vec::with_capacity(entries + 1);
        key_bounds.push(0);
        let mut puts = Vec::with_capacity(entries);
        let mut index = Arc::clone(&self.index).cursor()?;
        while index.valid() {
            if let Some(offset) = self.put_offset(index.key(), index.value())? {
                puts.push((offset, key_bounds.len() - 1));
            }
            keys.extend_from_slice(index.key());
            key_bounds.push(keys.len());
            index.advance()?;
        }
        let key_of = |slot: usize| Ok(&keys[key_bounds[slot]..key_bounds[slot + 1]]);
        let mut values =
            Vec::with_capacity(self.props.raw_value_bytes.min(self.log.len()) as usize);
        let value_ranges =
            self.read_values(&mut puts, key_bounds.len() - 1, key_of, &mut values)?;
        Ok(Box::new(ClCursor { keys, key_bounds, values, value_ranges, pos: 0 }))
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

/// Sorts `puts` by log offset, stably: a least-significant-digit radix
/// sort, a byte a pass, over the bytes the largest offset uses. On a
/// table's worth of puts it costs compaction's cursor less than a
/// comparison sort (`cl_read_timing`).
fn sort_by_offset(puts: &mut [(u64, usize)]) {
    let max = puts.iter().map(|&(offset, _)| offset).max().unwrap_or(0);
    let mut from = puts.to_vec();
    let mut shift = 0;
    while shift < u64::BITS - max.leading_zeros() {
        let digit = |offset: u64| (offset >> shift) as u8 as usize;
        let mut starts = [0usize; 256];
        for &(offset, _) in &from {
            starts[digit(offset)] += 1;
        }
        let mut next = 0;
        for start in &mut starts {
            (*start, next) = (next, next + *start);
        }
        for &put in &from {
            let at = &mut starts[digit(put.0)];
            puts[*at] = put;
            *at += 1;
        }
        from.copy_from_slice(puts);
        shift += 8;
    }
}

/// Compaction's cursor over a CL-SSTable: every index entry, with each
/// put's value read by [`ClTable::read_values`] when the cursor opens, lent
/// from one buffer of keys and one of values. A bad record fails the open.
struct ClCursor {
    /// Every index entry's encoded internal key, back to back: entry `i`'s
    /// spans `key_bounds[i]..key_bounds[i + 1]`.
    keys: Vec<u8>,
    key_bounds: Vec<usize>,
    /// Every put's value, back to back; a tombstone's range is empty.
    values: Vec<u8>,
    value_ranges: Vec<Range<usize>>,
    /// The entry the cursor is on.
    pos: usize,
}

impl EntryCursor for ClCursor {
    fn valid(&self) -> bool {
        self.pos < self.value_ranges.len()
    }

    fn key(&self) -> &[u8] {
        &self.keys[self.key_bounds[self.pos]..self.key_bounds[self.pos + 1]]
    }

    fn value(&self) -> &[u8] {
        &self.values[self.value_ranges[self.pos].clone()]
    }

    fn advance(&mut self) -> Result<()> {
        self.pos = (self.pos + 1).min(self.value_ranges.len());
        Ok(())
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
        build_cl_table_in_order(dir, 0..n, value_len)
    }

    /// [`build_cl_table_sized`] with the puts written to the log in a
    /// scattered key order, as a random write stream leaves them: an index
    /// block's puts lie far apart in the log.
    fn build_scattered_cl_table(
        dir: &Path,
        n: u64,
        value_len: impl Fn(u64) -> usize,
    ) -> (PathBuf, PathBuf) {
        let mut order: Vec<u64> = (0..n).collect();
        order.sort_by_key(|i| triad_hll::hash64(&i.to_le_bytes()));
        build_cl_table_in_order(dir, order, value_len)
    }

    /// Writes a put of each key in `order` to the log, then a delete of
    /// every tenth key, and indexes the latest state.
    fn build_cl_table_in_order(
        dir: &Path,
        order: impl IntoIterator<Item = u64>,
        value_len: impl Fn(u64) -> usize,
    ) -> (PathBuf, PathBuf) {
        let log_path = triad_wal::log_file_path(dir, 1);
        let mut writer = LogWriter::create(&log_path, 1).unwrap();
        let mut latest: std::collections::BTreeMap<Vec<u8>, (u64, u64, ValueKind, u64)> =
            std::collections::BTreeMap::new();
        let mut seqno = 0u64;
        for i in order {
            seqno += 1;
            let key = format!("key-{i:05}").into_bytes();
            let mut value = format!("value-{i}").into_bytes();
            value.resize(value_len(i), b'x');
            let record = LogRecord::put(seqno, key.clone(), value.clone());
            let offset = writer.append(&record).unwrap();
            latest.insert(key, (seqno, offset, ValueKind::Put, value.len() as u64));
        }
        // `order` is a permutation of `0..n`.
        let n = seqno;
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

    /// Values of 100 to 600 bytes, and every 50th one 10 KiB: longer than
    /// [`READ_GAP`], so its record runs past the range it starts in and is
    /// read alone.
    fn straddling_value_len(i: u64) -> usize {
        if i % 50 == 7 {
            10 * 1024
        } else {
            100 + (i as usize * 37) % 501
        }
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
        let (index_path, log_path) = build_misindexed_cl_table(&dir);
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
        // Compaction reads every value when its cursor opens, so the open fails.
        assert!(Arc::clone(&table).cursor().err().unwrap().is_corruption());
    }

    /// A table of "aaa" and "bbb" whose index points "bbb" at the record of
    /// "aaa", as a bad index would.
    fn build_misindexed_cl_table(dir: &Path) -> (PathBuf, PathBuf) {
        let log_path = triad_wal::log_file_path(dir, 2);
        let mut writer = LogWriter::create(&log_path, 2).unwrap();
        let offset_a = writer.append(&LogRecord::put(1, b"aaa".to_vec(), b"va".to_vec())).unwrap();
        let _offset_b = writer.append(&LogRecord::put(2, b"bbb".to_vec(), b"vb".to_vec())).unwrap();
        writer.seal().unwrap();

        let index_path = crate::cl_index_file_path(dir, 2);
        let mut builder =
            ClTableBuilder::create(&index_path, TableBuilderOptions::default(), 2).unwrap();
        builder.add(&InternalKey::new(b"aaa".to_vec(), 1, ValueKind::Put), offset_a, 2).unwrap();
        builder.add(&InternalKey::new(b"bbb".to_vec(), 2, ValueKind::Put), offset_a, 2).unwrap();
        builder.finish().unwrap();
        (index_path, log_path)
    }

    /// Two keys of a [`build_cl_table_sized`] table of [`straddling_value_len`]
    /// values with puts in the index: one whose record lies in the range it
    /// is read in, and one longer than a range's tail, which is read alone
    /// (every tenth key's index entry is a tombstone, which reads no record).
    fn bad_record_victims() -> [usize; 2] {
        let put = |i: &usize| i % 10 != 0;
        let read_alone = |i: usize| straddling_value_len(i as u64) as u64 > READ_GAP;
        let in_range = (100..).filter(put).find(|&i| !read_alone(i)).unwrap();
        let alone = (100..).filter(put).find(|&i| read_alone(i)).unwrap();
        [in_range, alone]
    }

    #[test]
    fn compaction_fails_when_its_cursor_opens_on_a_bad_record() {
        let dir = temp_dir("compaction-bad-record");
        let (index_path, log_path) = build_misindexed_cl_table(&dir);
        let misindexed = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        assert!(misindexed.cursor().err().unwrap().is_corruption(), "a record of another key");

        let (index_path, log_path) = build_cl_table_sized(&dir, 400, straddling_value_len);
        let (records, _) = LogReader::open(&log_path).unwrap().recover().unwrap();
        let good = std::fs::read(&log_path).unwrap();
        for victim in bad_record_victims() {
            // Flip a byte near the end of the victim's value.
            let mut bad = good.clone();
            bad[records[victim + 1].offset as usize - 3] ^= 0x10;
            std::fs::write(&log_path, &bad).unwrap();
            let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
            let err = table.cursor().err().unwrap();
            assert!(err.is_corruption(), "record {victim}: {err}");
        }
        std::fs::write(&log_path, &good).unwrap();
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        assert_eq!(drain(table.cursor().unwrap()).unwrap().len(), 400);
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
        let n = 2_000;
        let (index_path, log_path) = build_scattered_cl_table(&dir, n, straddling_value_len);
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        assert!(table.log_size() > READ_CAP, "compaction reads the log in several ranges");
        let compacted = drain(Arc::clone(&table).cursor().unwrap()).unwrap();
        assert_eq!(compacted.len(), n as usize);
        let mut read_alone = 0;
        for entry in compacted.iter().filter(|entry| entry.key.kind == ValueKind::Put) {
            let i: u64 = std::str::from_utf8(&entry.key.user_key[4..]).unwrap().parse().unwrap();
            assert_eq!(entry.value.len(), straddling_value_len(i));
            assert!(entry.value.starts_with(format!("value-{i}").as_bytes()));
            read_alone += usize::from(entry.value.len() as u64 > READ_GAP);
        }
        assert!(read_alone > 10, "records longer than a range's tail: {read_alone}");
        // A cold scan without a cache and one through the shared cache lend the same.
        let uncached = drain(Arc::clone(&table).scan_cursor(b"").unwrap()).unwrap();
        assert_eq!(uncached, compacted);
        let cache = MapCache::new();
        let cached = open_cached(&index_path, &log_path, &cache);
        assert_eq!(drain(Arc::clone(&cached).scan_cursor(b"").unwrap()).unwrap(), compacted);
        let blocks = index_blocks(&index_path);
        assert!(blocks > 2, "the index spans several blocks: {blocks}");
        assert_eq!(cache.loads(), blocks, "a full scan resolves every index block once");
        assert_eq!(cache.block_count() as u64, blocks);
        // A scan from a key lands on it, however its record was read.
        for (i, entry) in compacted.iter().enumerate().step_by(23) {
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
        let good = std::fs::read(&log_path).unwrap();
        for victim in bad_record_victims() {
            // Flip a byte near the end of the victim's value on disk, before
            // the first scan: past its range's end for the record read alone.
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

    /// Times compaction's cursor, a cold scan and a warm scan over a table
    /// of 14 000 keys written in scattered order, with 255-byte values in a
    /// 3.9 MB log, and prints each as nanoseconds per entry (median and
    /// minimum of 7 runs). The log is in the page cache: "cold" is a scan
    /// through an empty block cache, "warm" a second scan through it. Run
    /// it optimized:
    ///
    /// `cargo test --release -p triad-sstable --lib -- --ignored --nocapture cl_read_timing`
    #[test]
    #[ignore = "timing harness; run optimized with --ignored --nocapture"]
    fn cl_read_timing() {
        let dir = temp_dir("read-timing");
        let (index_path, log_path) = build_scattered_cl_table(&dir, 14_000, |_| 255);
        let walk = |mut cursor: BoxedCursor| {
            let (mut entries, mut bytes) = (0u64, 0usize);
            while cursor.valid() {
                bytes += cursor.key().len() + cursor.value().len();
                entries += 1;
                cursor.advance().unwrap();
            }
            std::hint::black_box(bytes);
            entries
        };
        let time = |name: &str, run: &mut dyn FnMut() -> (u64, std::time::Duration)| {
            let mut per_entry: Vec<f64> = (0..7)
                .map(|_| {
                    let (entries, took) = run();
                    took.as_nanos() as f64 / entries as f64
                })
                .collect();
            per_entry.sort_by(f64::total_cmp);
            println!(
                "cl_read_timing {name}: median {:.0} ns/entry, min {:.0}",
                per_entry[per_entry.len() / 2],
                per_entry[0]
            );
        };
        let table = Arc::new(ClTable::open(&index_path, &log_path, None).unwrap());
        time("compaction_cursor", &mut || {
            let start = std::time::Instant::now();
            let entries = walk(Arc::clone(&table).cursor().unwrap());
            (entries, start.elapsed())
        });
        let scan = |table: &Arc<ClTable>| {
            let start = std::time::Instant::now();
            let entries = walk(Arc::clone(table).scan_cursor(b"").unwrap());
            (entries, start.elapsed())
        };
        let mut warm = Vec::new();
        time("cold_scan", &mut || {
            let cached = open_cached(&index_path, &log_path, &MapCache::new());
            let cold = scan(&cached);
            warm.push(cached);
            cold
        });
        let mut runs = warm.iter();
        time("warm_scan", &mut || scan(runs.next().unwrap()));
    }

    #[test]
    fn sort_by_offset_matches_a_stable_comparison_sort() {
        let offset = |i: u64| match i % 4 {
            0 => triad_hll::hash64(&i.to_le_bytes()),
            1 => triad_hll::hash64(&i.to_le_bytes()) % 5_000,
            _ => triad_hll::hash64(&i.to_le_bytes()) % 9_000_000,
        };
        for n in [0, 1, 2, 300, 5_000] {
            let mut puts: Vec<(u64, usize)> = (0..n).map(|i| (offset(i), i as usize)).collect();
            puts.extend((0..n / 3).map(|i| (offset(i), n as usize + i as usize)));
            let mut expected = puts.clone();
            expected.sort_by_key(|&(offset, _)| offset);
            sort_by_offset(&mut puts);
            assert_eq!(puts, expected, "{n} puts");
        }
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
