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

use std::path::{Path, PathBuf};
use std::sync::Arc;

use triad_common::types::{parse_encoded_internal_key, Entry, InternalKey, ValueKind};
use triad_common::varint;
use triad_common::{Error, Result, Stats};
use triad_wal::LogReader;

use crate::builder::{TableBuilder, TableBuilderOptions};
use crate::iter::{BoxedCursor, EntryCursor, EntryIter};
use crate::properties::{TableKind, TableProperties};
use crate::reader::Table;
use crate::SortedTable;

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

/// An open CL-SSTable: a sorted offset index plus the sealed commit log it references.
pub struct ClTable {
    index: Arc<Table>,
    log: LogReader,
    props: TableProperties,
    index_size: u64,
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

    /// Opens the CL-SSTable with an optional [`FetchContext`](crate::FetchContext) for the *index*
    /// table's data blocks (the value payloads live in the commit log and are
    /// read positioned; only the index goes through the block cache).
    pub fn open_with_fetch(
        index_path: impl AsRef<Path>,
        log_path: impl AsRef<Path>,
        stats: Option<Arc<Stats>>,
        fetch: Option<crate::FetchContext>,
    ) -> Result<ClTable> {
        let index = Arc::new(Table::open_with_fetch(index_path.as_ref(), stats, fetch)?);
        let mut props = index.properties().clone();
        if props.kind != TableKind::CommitLogIndex {
            return Err(Error::corruption_at(
                "expected a CL-SSTable index file",
                index_path.as_ref(),
            ));
        }
        // Keep the CL kind but expose combined metadata to the engine.
        props.kind = TableKind::CommitLogIndex;
        let log = LogReader::open(log_path.as_ref())?;
        let index_size = index.file_size();
        Ok(ClTable { index, log, props, index_size })
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

    /// The value of the index entry for `user_key` of `kind`, whose index
    /// value `log_offset` is the varint offset of its record in the log. A
    /// put's record is read with its CRC checked, and it must hold the key the
    /// index says.
    fn resolve_value(
        &self,
        user_key: &[u8],
        kind: ValueKind,
        log_offset: &[u8],
    ) -> Result<Vec<u8>> {
        // Tombstones carry no value; no need to touch the log.
        if kind == ValueKind::Delete {
            return Ok(Vec::new());
        }
        let (offset, _) = varint::decode_u64(log_offset)?;
        let record = self.log.read_at(offset)?;
        self.check_record_key(&record.key, user_key, offset)?;
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
        let Some(index_entry) = self.index.get_entry(user_key, snapshot)? else {
            return Ok(None);
        };
        let value = self.resolve_value(user_key, index_entry.key.kind, &index_entry.value)?;
        Ok(Some(Entry::new(index_entry.key, value)))
    }

    fn entries(&self) -> Result<EntryIter> {
        // Compaction reads the sealed log once into memory and resolves
        // offsets from the buffer; one positioned read per entry would
        // dominate compaction time.
        let buffer = self.log.read_to_buffer()?;
        let index_entries = SortedTable::entries(self.index.as_ref())?;
        let mut resolved = Vec::new();
        for item in index_entries {
            let index_entry = item?;
            if index_entry.key.kind == ValueKind::Delete {
                resolved.push(Entry::new(index_entry.key, Vec::new()));
                continue;
            }
            let (offset, _) = varint::decode_u64(&index_entry.value)?;
            let record = triad_wal::decode_record_in_buffer(&buffer, offset)?;
            self.check_record_key(&record.key, &index_entry.key.user_key, offset)?;
            resolved.push(Entry::new(index_entry.key, record.value));
        }
        Ok(Box::new(resolved.into_iter().map(Ok)))
    }

    fn scan_cursor(self: Arc<Self>, start: &[u8]) -> Result<BoxedCursor> {
        let index = Arc::clone(&self.index).scan_cursor(start)?;
        let mut cursor = ClCursor { table: self, index, value: Vec::new(), failed: false };
        cursor.resolve()?;
        Ok(Box::new(cursor))
    }

    fn properties(&self) -> &TableProperties {
        &self.props
    }

    fn size_bytes(&self) -> u64 {
        // The bytes this table occupies on disk beyond what the WAL already wrote.
        self.index_size
    }
}

/// A scan cursor over a CL-SSTable: walks the index table's scan cursor and
/// reads each put's value from the backing log as the cursor reaches it, so
/// a short scan reads only the records of the entries it reaches.
struct ClCursor {
    table: Arc<ClTable>,
    index: BoxedCursor,
    /// The current entry's value; empty for tombstones.
    value: Vec<u8>,
    /// Set by an error, which ends the stream.
    failed: bool,
}

impl ClCursor {
    /// Reads the value of the index entry the cursor is on.
    fn resolve(&mut self) -> Result<()> {
        if !self.index.valid() {
            return Ok(());
        }
        let (user_key, kind) = parse_encoded_internal_key(self.index.key())
            .ok_or_else(|| Error::corruption("undecodable internal key in CL-SSTable index"))?;
        self.value = self.table.resolve_value(user_key, kind, self.index.value())?;
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
        let log_path = triad_wal::log_file_path(dir, 1);
        let mut writer = LogWriter::create(&log_path, 1).unwrap();
        let mut latest: std::collections::BTreeMap<Vec<u8>, (u64, u64, ValueKind, u64)> =
            std::collections::BTreeMap::new();
        let mut seqno = 0u64;
        for i in 0..n {
            seqno += 1;
            let key = format!("key-{i:05}").into_bytes();
            // Values are padded to 100 bytes, mirroring the paper's small-key /
            // larger-value workloads where TRIAD-LOG pays off.
            let mut value = format!("value-{i}").into_bytes();
            value.resize(100, b'x');
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
        let table = ClTable::open(&index_path, &log_path, None).unwrap();
        let entries: Vec<Entry> = table.entries().unwrap().map(|r| r.unwrap()).collect();
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
        let eager: Vec<Entry> = table.entries().unwrap().map(|r| r.unwrap()).collect();
        let scanned = drain(Arc::clone(&table).scan_cursor(b"").unwrap()).unwrap();
        assert_eq!(scanned, eager, "the scan cursor lends what the eager read returns");
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

        // A scan lends "aaa", then stops at "bbb" with the same corruption.
        let mut cursor = Arc::clone(&table).scan_cursor(b"").unwrap();
        assert_eq!(cursor.value(), b"va");
        let err = cursor.advance().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(!cursor.valid(), "an error ends the scan");
        // A scan that starts on the bad entry fails to open.
        assert!(Arc::clone(&table).scan_cursor(b"bbb").err().unwrap().is_corruption());
    }
}
