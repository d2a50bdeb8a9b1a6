//! Reading regular block-based SSTables.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use triad_common::types::{parse_encoded_internal_key, Entry, InternalKey, MAX_SEQNO};
use triad_common::{Error, Result, Stats};
use triad_hll::hash64;

use crate::block::Block;
use crate::bloom::BloomFilter;
use crate::cl_table::ClTable;
use crate::format::{BlockFileReader, BlockHandle, VerifiedBlock};
use crate::iter::{cursor_entries, BoxedCursor, EntryCursor, EntryIter};
use crate::properties::{TableKind, TableProperties};
use crate::{row, FetchContext, SortedTable};

/// An open, immutable SSTable.
///
/// The index block, bloom filter and properties are loaded eagerly at open time
/// (they are small); data blocks are read on demand. A table is cheap to share
/// between threads behind an [`Arc`].
pub struct Table {
    reader: BlockFileReader,
    index: Block,
    bloom: BloomFilter,
    props: TableProperties,
    file_size: u64,
    path: PathBuf,
    stats: Option<Arc<Stats>>,
    /// The shared block cache, when the engine opened this table through one.
    /// `None` falls back to the single-slot cache below.
    fetch: Option<FetchContext>,
    /// A tiny single-block cache: scans read blocks sequentially, and point
    /// lookups often hit the same hot block repeatedly.
    cached_block: Mutex<Option<(u64, Arc<Block>)>>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("path", &self.path)
            .field("entries", &self.props.num_entries)
            .field("size", &self.file_size)
            .finish()
    }
}

impl Table {
    /// Opens the table at `path`. `stats`, when provided, receives block-read and
    /// bloom-filter counters.
    pub fn open(path: impl AsRef<Path>, stats: Option<Arc<Stats>>) -> Result<Table> {
        Table::open_with_fetch(path, stats, None)
    }

    /// Opens the table with an optional [`FetchContext`]: data-block reads go
    /// through the shared block cache instead of this table's private
    /// single-slot cache.
    pub fn open_with_fetch(
        path: impl AsRef<Path>,
        stats: Option<Arc<Stats>>,
        fetch: Option<FetchContext>,
    ) -> Result<Table> {
        let path = path.as_ref().to_path_buf();
        let reader = BlockFileReader::open(&path)?;
        let file_size = reader.len();
        let footer = reader.read_footer()?;
        let index = Block::new(reader.read_block(footer.index)?)?;
        let bloom = BloomFilter::from_bytes(&reader.read_block(footer.bloom)?)?;
        let props = TableProperties::decode(&reader.read_block(footer.properties)?)?;
        if props.kind != TableKind::Block && props.kind != TableKind::CommitLogIndex {
            return Err(Error::corruption_at("unexpected table kind", &path));
        }
        Ok(Table {
            reader,
            index,
            bloom,
            props,
            file_size,
            path,
            stats,
            fetch,
            cached_block: Mutex::new(None),
        })
    }

    /// The table's properties.
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// The on-disk size of the table file.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// The path of the table file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the data block at `handle` around every cache, checksum-verified.
    pub(crate) fn read_uncached_block(&self, handle: BlockHandle) -> Result<VerifiedBlock> {
        self.reader.read_verified_block(handle)
    }

    /// A cursor from the first entry at or after `start` (see
    /// [`SortedTable::scan_cursor`]) that reads its data blocks from `source`.
    pub(crate) fn cursor_from(
        self: Arc<Self>,
        source: BlockSource,
        start: &[u8],
    ) -> Result<BoxedCursor> {
        Ok(Box::new(TableCursor::new(self, source, start)?))
    }

    /// Fails a handle that starts past the file's end: it could alias another
    /// key of this table in the shared cache, such as a CL-SSTable's resolved
    /// block or a row.
    fn check_handle(&self, handle: BlockHandle) -> Result<()> {
        if handle.offset >= self.file_size {
            return Err(Error::corruption_at(
                format!("block handle {handle:?} starts past end of file"),
                &self.path,
            ));
        }
        Ok(())
    }

    fn read_data_block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
        self.check_handle(handle)?;
        if let Some(ctx) = &self.fetch {
            return ctx.fetch.get_or_load(
                ctx.table_id,
                handle.offset,
                self.stats.as_deref(),
                &|| {
                    if let Some(stats) = &self.stats {
                        stats.add_block_reads(1);
                    }
                    self.reader.read_verified_block(handle)
                },
            );
        }
        {
            let cached = self.cached_block.lock();
            if let Some((offset, block)) = cached.as_ref() {
                if *offset == handle.offset {
                    return Ok(Arc::clone(block));
                }
            }
        }
        if let Some(stats) = &self.stats {
            stats.add_block_reads(1);
        }
        let block = Arc::new(self.reader.read_verified_block(handle)?.into_block());
        *self.cached_block.lock() = Some((handle.offset, Arc::clone(&block)));
        Ok(block)
    }

    /// The table's key-range and bloom-filter check: `Some(hash64(user_key))`
    /// when the table may hold `user_key`, `None` (counting a bloom negative
    /// when the filter said so) when it cannot.
    pub(crate) fn filter(&self, user_key: &[u8]) -> Option<u64> {
        if !self.props.may_contain_user_key(user_key) {
            return None;
        }
        let hash = hash64(user_key);
        if !self.bloom.may_contain_hash(hash) {
            if let Some(stats) = &self.stats {
                stats.add_bloom_negatives(1);
            }
            return None;
        }
        Some(hash)
    }

    /// The handle of the data block that holds `user_key`'s newest version
    /// visible at `snapshot`, if any block can.
    fn handle_for(&self, user_key: &[u8], snapshot: u64) -> Result<Option<BlockHandle>> {
        let index_pos = self.index.seek_lookup(user_key, snapshot)?;
        if index_pos >= self.index.num_entries() {
            return Ok(None);
        }
        let (_, handle_bytes) = self.index.entry(index_pos)?;
        let handle = BlockHandle::decode(handle_bytes)?;
        self.check_handle(handle)?;
        Ok(Some(handle))
    }

    /// The position in `block` of `user_key`'s newest version visible at
    /// `snapshot`, if the block holds one.
    fn position_in(&self, block: &Block, user_key: &[u8], snapshot: u64) -> Result<Option<usize>> {
        let pos = block.seek_lookup(user_key, snapshot)?;
        if pos >= block.num_entries() {
            return Ok(None);
        }
        let (key, _) = block.entry(pos)?;
        let (found, _) = parse_encoded_internal_key(key).ok_or_else(|| {
            Error::corruption_at("undecodable internal key in data block", &self.path)
        })?;
        Ok((found == user_key).then_some(pos))
    }

    /// `user_key`'s newest version in `block` visible at `snapshot`.
    fn entry_in(&self, block: &Block, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        let Some(pos) = self.position_in(block, user_key, snapshot)? else { return Ok(None) };
        self.entry_at(block, pos).map(Some)
    }

    /// The entry at `pos` of `block`.
    fn entry_at(&self, block: &Block, pos: usize) -> Result<Entry> {
        let (key, value) = block.entry(pos)?;
        let key = InternalKey::decode(key).ok_or_else(|| {
            Error::corruption_at("undecodable internal key in data block", &self.path)
        })?;
        Ok(Entry::new(key, value))
    }

    /// [`get_entry`](Self::get_entry) past the filter: the data block through
    /// the cache's [`get_or_load`](crate::BlockFetch::get_or_load), or the
    /// table's single-slot cache when it has no shared one.
    pub(crate) fn lookup(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        let Some(handle) = self.handle_for(user_key, snapshot)? else { return Ok(None) };
        let block = self.read_data_block(handle)?;
        self.entry_in(&block, user_key, snapshot)
    }

    /// Looks up the freshest version of `user_key` visible at `snapshot`.
    ///
    /// Returns tombstones as well as puts; the caller decides how to interpret them.
    /// This is the raw lookup, through data blocks only: the cached rows of
    /// [`SortedTable::get`] are for the engine's gets, and a CL-SSTable's
    /// index lookups need offsets, which rows of resolved values do not hold.
    pub fn get_entry(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        if self.filter(user_key).is_none() {
            return Ok(None);
        }
        self.lookup(user_key, snapshot)
    }

    /// A get through the shared cache: the key's row, else a resident data
    /// block, else the block read around the cache, CRC-checked, with only
    /// the row it yields inserted. Records one cache outcome: a row or block
    /// hit, or one miss.
    fn get_through_cache(
        &self,
        ctx: &FetchContext,
        hash: u64,
        user_key: &[u8],
        snapshot: u64,
    ) -> Result<Option<Entry>> {
        let stats = self.stats.as_deref();
        if let Some(entry) = row::probe(ctx, hash, user_key, snapshot, stats)? {
            return Ok(Some(entry));
        }
        let Some(handle) = self.handle_for(user_key, snapshot)? else { return Ok(None) };
        if let Some(block) = ctx.fetch.probe(ctx.table_id, handle.offset) {
            if let Some(stats) = stats {
                stats.add_block_cache_hits(1);
            }
            return self.entry_in(&block, user_key, snapshot);
        }
        if let Some(stats) = stats {
            stats.add_block_cache_misses(1);
            stats.add_block_reads(1);
        }
        let block = self.reader.read_verified_block(handle)?.into_block();
        let Some(pos) = self.position_in(&block, user_key, snapshot)? else { return Ok(None) };
        let entry = self.entry_at(&block, pos)?;
        if row::cacheable(snapshot) {
            let (key, value) = block.entry(pos)?;
            let row = VerifiedBlock::row(key, value);
            ctx.fetch.insert(ctx.table_id, row::offset(hash), row, stats);
        }
        Ok(Some(entry))
    }

    /// Returns an iterator over every entry of the table in internal-key order,
    /// read block by block through the table's scan cursor.
    pub fn iter_entries(self: &Arc<Self>) -> EntryIter {
        match Arc::clone(self).scan_cursor(&[]) {
            Ok(cursor) => cursor_entries(cursor),
            Err(e) => Box::new(std::iter::once(Err(e))),
        }
    }
}

impl SortedTable for Table {
    fn get(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        let Some(hash) = self.filter(user_key) else { return Ok(None) };
        match &self.fetch {
            Some(ctx) => self.get_through_cache(ctx, hash, user_key, snapshot),
            None => self.lookup(user_key, snapshot),
        }
    }

    fn cursor(self: Arc<Self>) -> Result<BoxedCursor> {
        self.cursor_from(BlockSource::Uncached, &[])
    }

    fn scan_cursor(self: Arc<Self>, start: &[u8]) -> Result<BoxedCursor> {
        self.cursor_from(BlockSource::Cached, start)
    }

    fn properties(&self) -> &TableProperties {
        &self.props
    }

    fn size_bytes(&self) -> u64 {
        self.file_size
    }
}

/// Where a [`TableCursor`] reads its data blocks from.
pub(crate) enum BlockSource {
    /// Compaction: each block once, CRC-verified, straight from the file,
    /// never through the shared block cache (RocksDB's `fill_cache = false`).
    /// A compaction touches every block of its inputs once, and caching them
    /// would only evict the blocks gets are using.
    /// These reads are not counted in `block_reads`, which stays a read-path
    /// figure.
    Uncached,
    /// Scans: through the shared block cache (or the single-slot cache of a
    /// table opened without one).
    Cached,
    /// Scans of a CL-SSTable, whose index this table is: each index data
    /// block's resolved block, with the values filled in from the log
    /// ([`ClTable::resolved_block`]).
    Resolved(Arc<ClTable>),
}

/// The one cursor over a table's entries, for compaction and scans of
/// regular tables and CL-SSTables alike: it walks the index from a seek
/// position and lends the entries of one data block at a time.
struct TableCursor {
    table: Arc<Table>,
    source: BlockSource,
    /// Index position of the next data block to read.
    next_block: usize,
    block: Arc<Block>,
    pos: usize,
    key: Range<usize>,
    value: Range<usize>,
}

impl TableCursor {
    /// Opens a cursor on the first entry whose internal key is
    /// `>= (start, MAX_SEQNO)`: the newest version of the first user key at or
    /// after `start`. An empty `start` lands on the table's first entry.
    fn new(table: Arc<Table>, source: BlockSource, start: &[u8]) -> Result<TableCursor> {
        let mut cursor = TableCursor {
            table,
            source,
            next_block: 0,
            block: Arc::default(),
            pos: 0,
            key: 0..0,
            value: 0..0,
        };
        if !start.is_empty() {
            cursor.next_block = cursor.table.index.seek_lookup(start, MAX_SEQNO)?;
            if cursor.next_block < cursor.table.index.num_entries() {
                cursor.read_next_block()?;
                cursor.pos = cursor.block.seek_lookup(start, MAX_SEQNO)?;
            }
        }
        cursor.settle()?;
        Ok(cursor)
    }

    /// Reads the data block at index position `next_block` and moves onto it.
    fn read_next_block(&mut self) -> Result<()> {
        let (_, handle_bytes) = self.table.index.entry(self.next_block)?;
        let handle = BlockHandle::decode(handle_bytes)?;
        self.block = match &self.source {
            BlockSource::Uncached => Arc::new(self.table.read_uncached_block(handle)?.into_block()),
            BlockSource::Cached => self.table.read_data_block(handle)?,
            BlockSource::Resolved(cl) => cl.resolved_block(handle)?,
        };
        self.next_block += 1;
        self.pos = 0;
        Ok(())
    }

    /// Moves onto entry `pos` of the current block, reading the following
    /// blocks while the current one is exhausted.
    fn settle(&mut self) -> Result<()> {
        while self.pos >= self.block.num_entries() {
            if self.next_block >= self.table.index.num_entries() {
                return Ok(());
            }
            self.read_next_block()?;
        }
        let (key, value) = self.block.entry_ranges(self.pos)?;
        if parse_encoded_internal_key(&self.block.data()[key.clone()]).is_none() {
            return Err(Error::corruption_at(
                "undecodable internal key in data block",
                &self.table.path,
            ));
        }
        self.key = key;
        self.value = value;
        Ok(())
    }
}

impl EntryCursor for TableCursor {
    fn valid(&self) -> bool {
        self.pos < self.block.num_entries()
    }

    fn key(&self) -> &[u8] {
        &self.block.data()[self.key.clone()]
    }

    fn value(&self) -> &[u8] {
        &self.block.data()[self.value.clone()]
    }

    fn advance(&mut self) -> Result<()> {
        if !self.valid() {
            return Ok(());
        }
        self.pos += 1;
        let settled = self.settle();
        if settled.is_err() {
            self.block = Arc::default();
        }
        settled
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests remove their own scratch files
mod tests {
    use super::*;
    use crate::builder::{TableBuilder, TableBuilderOptions};
    use crate::test_util::MapCache;
    use crate::BlockFetch;
    use triad_common::types::ValueKind;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("triad-sstable-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn build_table(path: &Path, n: u64, block_size: usize) -> TableProperties {
        let mut builder =
            TableBuilder::create(path, TableBuilderOptions { block_size, bloom_bits_per_key: 10 })
                .unwrap();
        for i in 0..n {
            let key = InternalKey::new(format!("key-{i:06}").into_bytes(), i + 1, ValueKind::Put);
            builder.add(&key, format!("value-{i}").as_bytes()).unwrap();
        }
        builder.finish().unwrap().0
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let path = temp_path("lookups.sst");
        build_table(&path, 500, 512);
        let table = Table::open(&path, None).unwrap();
        assert_eq!(table.get_entry(b"key-000123", u64::MAX).unwrap().unwrap().value, b"value-123");
        assert!(table.get_entry(b"key-000500", u64::MAX).unwrap().is_none());
        assert!(table.get_entry(b"zzz", u64::MAX).unwrap().is_none());
        assert!(table.get_entry(b"", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn snapshot_visibility() {
        let path = temp_path("snapshot.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        // Same user key, three versions; newest (highest seqno) first in internal order.
        let key = |seqno| InternalKey::new(b"k".to_vec(), seqno, ValueKind::Put);
        builder.add(&key(30), b"v30").unwrap();
        builder.add(&key(20), b"v20").unwrap();
        builder.add(&key(10), b"v10").unwrap();
        builder.finish().unwrap();
        let table = Table::open(&path, None).unwrap();
        assert_eq!(table.get_entry(b"k", u64::MAX).unwrap().unwrap().value, b"v30");
        assert_eq!(table.get_entry(b"k", 25).unwrap().unwrap().value, b"v20");
        assert_eq!(table.get_entry(b"k", 10).unwrap().unwrap().value, b"v10");
        assert!(table.get_entry(b"k", 5).unwrap().is_none());
    }

    #[test]
    fn tombstones_are_returned() {
        let path = temp_path("tombstone.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        builder.add(&InternalKey::new(b"dead".to_vec(), 9, ValueKind::Delete), b"").unwrap();
        builder.finish().unwrap();
        let table = Table::open(&path, None).unwrap();
        let entry = table.get_entry(b"dead", u64::MAX).unwrap().unwrap();
        assert_eq!(entry.key.kind, ValueKind::Delete);
    }

    #[test]
    fn iterator_returns_all_entries_in_order() {
        let path = temp_path("iter.sst");
        build_table(&path, 1_000, 256);
        let table = Arc::new(Table::open(&path, None).unwrap());
        let entries: Vec<Entry> = table.iter_entries().map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 1_000);
        for window in entries.windows(2) {
            assert!(window[0].key < window[1].key, "iterator must be sorted");
        }
        assert_eq!(entries[0].key.user_key, b"key-000000");
        assert_eq!(entries[999].key.user_key, b"key-000999");
    }

    #[test]
    fn stats_capture_block_reads_and_bloom_negatives() {
        let path = temp_path("stats.sst");
        build_table(&path, 200, 512);
        let stats = Arc::new(Stats::new());
        let table = Table::open(&path, Some(Arc::clone(&stats))).unwrap();
        table.get_entry(b"key-000001", u64::MAX).unwrap().unwrap();
        assert!(stats.block_reads() >= 1);
        // A key inside the range but absent: bloom filter should usually reject it.
        let mut negatives = 0;
        for i in 0..50 {
            let absent = format!("key-{i:06}x");
            if table.get_entry(absent.as_bytes(), u64::MAX).unwrap().is_none() {
                negatives += 1;
            }
        }
        assert_eq!(negatives, 50);
        assert!(stats.bloom_negatives() > 0, "bloom filter should filter most absent keys");
    }

    #[test]
    fn block_cache_serves_repeated_lookups() {
        let path = temp_path("cache.sst");
        build_table(&path, 100, 64 * 1024);
        let stats = Arc::new(Stats::new());
        let table = Table::open(&path, Some(Arc::clone(&stats))).unwrap();
        for _ in 0..10 {
            table.get_entry(b"key-000042", u64::MAX).unwrap().unwrap();
        }
        assert_eq!(stats.block_reads(), 1, "repeated lookups of the same block hit the cache");
    }

    #[test]
    fn fetch_context_routes_block_reads_through_the_provider() {
        let path = temp_path("fetch.sst");
        build_table(&path, 100, 64 * 1024);
        let cache = MapCache::new();
        let ctx = FetchContext { table_id: 7, fetch: Arc::clone(&cache) as _ };
        let table = Table::open_with_fetch(&path, None, Some(ctx)).unwrap();
        for _ in 0..10 {
            assert_eq!(
                table.get_entry(b"key-000042", u64::MAX).unwrap().unwrap().value,
                b"value-42"
            );
        }
        assert_eq!(cache.loads(), 1, "provider loads each block once");
        // The private single-slot cache stays untouched when a provider is set.
        assert!(table.cached_block.lock().is_none());
    }

    /// A table opened through `cache` under table id 7, counting into `stats`.
    fn open_through(path: &Path, cache: &Arc<MapCache>, stats: &Arc<Stats>) -> Table {
        let ctx = FetchContext { table_id: 7, fetch: Arc::clone(cache) as _ };
        Table::open_with_fetch(path, Some(Arc::clone(stats)), Some(ctx)).unwrap()
    }

    /// The cached row of `user_key` in table 7, if any.
    fn row_of(cache: &MapCache, user_key: &[u8]) -> Option<Arc<Block>> {
        cache.probe(7, row::offset(hash64(user_key)))
    }

    #[test]
    fn gets_cache_the_row_they_read_and_not_its_block() {
        let path = temp_path("rows.sst");
        build_table(&path, 500, 4096);
        let (cache, stats) = (MapCache::new(), Arc::new(Stats::new()));
        let table = open_through(&path, &cache, &stats);
        let get = |key: &[u8], snapshot| SortedTable::get(&table, key, snapshot).unwrap();
        assert_eq!(get(b"key-000123", u64::MAX).unwrap().value, b"value-123");
        assert_eq!((stats.block_reads(), stats.block_cache_misses()), (1, 1));
        assert_eq!(cache.block_count(), 1, "the row alone is cached");
        assert_eq!(cache.loads(), 0, "a get never loads a block into the cache");
        let row = row_of(&cache, b"key-000123").expect("the get cached its row");
        assert_eq!(row.num_entries(), 1);

        // The row serves the next get, and any get bounded at or above its seqno.
        for snapshot in [u64::MAX, 124] {
            let entry = get(b"key-000123", snapshot).unwrap();
            assert_eq!((entry.key.seqno, entry.value.as_slice()), (124, &b"value-123"[..]));
        }
        assert_eq!(stats.block_cache_row_hits(), 2);
        assert_eq!(stats.block_reads(), 1);
        // Below it the row is skipped, and the bounded get caches nothing.
        assert!(get(b"key-000123", 123).is_none());
        assert_eq!(stats.block_reads(), 2);
        assert_eq!(cache.block_count(), 1);
        assert_eq!(stats.block_cache_hits(), 2);
        assert_eq!(stats.block_cache_misses(), 2, "one outcome per get");
        // A neighbour in the same block reads the block again, and caches its own row.
        assert_eq!(get(b"key-000124", u64::MAX).unwrap().value, b"value-124");
        assert_eq!((stats.block_reads(), cache.block_count()), (3, 2));
    }

    #[test]
    fn a_resident_block_serves_a_get_without_a_read() {
        let path = temp_path("resident-block.sst");
        build_table(&path, 500, 4096);
        let (cache, stats) = (MapCache::new(), Arc::new(Stats::new()));
        let table = Arc::new(open_through(&path, &cache, &stats));
        assert_eq!(drain(Arc::clone(&table).scan_cursor(b"key-000100").unwrap()).len(), 400);
        let (reads, blocks) = (stats.block_reads(), cache.block_count());
        assert_eq!(table.get(b"key-000123", u64::MAX).unwrap().unwrap().value, b"value-123");
        assert_eq!(stats.block_reads(), reads, "the scan's block served the get");
        assert_eq!(stats.block_cache_hits(), 1);
        assert_eq!(cache.block_count(), blocks, "a block hit inserts no row");
    }

    #[test]
    fn a_row_holding_another_key_is_never_served() {
        let path = temp_path("planted-row.sst");
        build_table(&path, 500, 4096);
        let (cache, stats) = (MapCache::new(), Arc::new(Stats::new()));
        let table = open_through(&path, &cache, &stats);
        // Key B's row, planted where key A's row would be: a hash collision.
        let b = InternalKey::new(b"key-000200".to_vec(), 201, ValueKind::Put);
        let planted = VerifiedBlock::row(&b.encode(), b"value-200");
        cache.insert(7, row::offset(hash64(b"key-000100")), planted, None);
        // A bounded get, then an unbounded one, which replaces the row.
        for snapshot in [500, u64::MAX] {
            let entry = SortedTable::get(&table, b"key-000100", snapshot).unwrap().unwrap();
            assert_eq!(entry.key.user_key, b"key-000100");
            assert_eq!(entry.value, b"value-100");
        }
        assert_eq!(stats.block_cache_row_hits(), 0);
        assert_eq!(row_of(&cache, b"key-000100").unwrap().entry(0).unwrap().1, b"value-100");
    }

    #[test]
    fn a_corrupt_data_block_fails_the_get_and_caches_no_row() {
        let path = temp_path("get-corrupt.sst");
        build_table(&path, 1_000, 256);
        let index = BlockFileReader::open(&path).unwrap().read_footer().unwrap().index;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[index.offset as usize - 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (cache, stats) = (MapCache::new(), Arc::new(Stats::new()));
        let table = open_through(&path, &cache, &stats);
        for _ in 0..2 {
            let err = SortedTable::get(&table, b"key-000999", u64::MAX).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        }
        assert_eq!(cache.block_count(), 0, "nothing of the corrupt block is cached");
        assert_eq!(
            SortedTable::get(&table, b"key-000001", u64::MAX).unwrap().unwrap().value,
            b"value-1"
        );
    }

    #[test]
    fn cursor_lends_every_entry_without_the_cache_or_the_block_counter() {
        let path = temp_path("cursor.sst");
        build_table(&path, 1_000, 256);
        let expected: Vec<Entry> = Arc::new(Table::open(&path, None).unwrap())
            .iter_entries()
            .map(|r| r.unwrap())
            .collect();

        let stats = Arc::new(Stats::new());
        let cache = MapCache::new();
        let ctx = FetchContext { table_id: 1, fetch: Arc::clone(&cache) as _ };
        let table =
            Arc::new(Table::open_with_fetch(&path, Some(Arc::clone(&stats)), Some(ctx)).unwrap());
        let mut cursor = table.cursor().unwrap();
        let mut lent = Vec::new();
        while cursor.valid() {
            lent.push(Entry::new(InternalKey::decode(cursor.key()).unwrap(), cursor.value()));
            cursor.advance().unwrap();
        }
        assert_eq!(lent, expected);
        assert_eq!(cache.loads(), 0, "compaction reads never fill the shared cache");
        assert_eq!(stats.block_reads(), 0, "block_reads stays a get-path figure");
    }

    #[test]
    fn scan_cursor_reads_through_the_cache() {
        let path = temp_path("scan-cache.sst");
        build_table(&path, 1_000, 256);
        let cache = MapCache::new();
        let ctx = FetchContext { table_id: 1, fetch: Arc::clone(&cache) as _ };
        let table = Arc::new(Table::open_with_fetch(&path, None, Some(ctx)).unwrap());
        let blocks = table.index.num_entries() as u64;
        assert_eq!(drain(Arc::clone(&table).scan_cursor(b"").unwrap()).len(), 1_000);
        assert_eq!(cache.loads(), blocks, "a full scan loads every block into the cache once");
        assert_eq!(drain(Arc::clone(&table).scan_cursor(b"key-000990").unwrap()).len(), 10);
        assert_eq!(cache.loads(), blocks, "a second scan is served from the cache");
    }

    #[test]
    fn cursor_detects_a_corrupt_data_block() {
        let path = temp_path("cursor-corrupt.sst");
        build_table(&path, 1_000, 256);
        // Flip a byte of the last data block, which ends where the index begins.
        let index = BlockFileReader::open(&path).unwrap().read_footer().unwrap().index;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[index.offset as usize - 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let table = Arc::new(Table::open(&path, None).unwrap());
        let mut cursor = table.cursor().unwrap();
        let mut lent = 0;
        let error = loop {
            assert!(cursor.valid(), "the corrupt block must surface before the end");
            lent += 1;
            if let Err(e) = cursor.advance() {
                break e;
            }
        };
        assert!(error.is_corruption(), "{error}");
        assert!(lent > 900, "blocks before the corrupt one are lent: {lent}");
        assert!(!cursor.valid(), "an error ends the stream");
    }

    /// Every entry a cursor lends, from where it stands to its end.
    fn drain(mut cursor: BoxedCursor) -> Vec<Entry> {
        let mut lent = Vec::new();
        while cursor.valid() {
            lent.push(Entry::new(InternalKey::decode(cursor.key()).unwrap(), cursor.value()));
            cursor.advance().unwrap();
        }
        lent
    }

    #[test]
    fn scan_cursor_seeks_to_the_start_key() {
        let path = temp_path("seek.sst");
        // Small blocks: 1 000 entries span many of them.
        build_table(&path, 1_000, 256);
        let table = Arc::new(Table::open(&path, None).unwrap());
        let all: Vec<Entry> = table.iter_entries().map(|r| r.unwrap()).collect();
        let from = |start: &[u8]| drain(Arc::clone(&table).scan_cursor(start).unwrap());

        assert_eq!(from(b""), all, "an empty start reads everything");
        assert_eq!(from(b"a"), all, "a start before the first key reads everything");
        assert_eq!(from(b"key-000500"), all[500..], "a start on a key lands on it");
        assert_eq!(from(b"key-000500x"), all[501..], "a start between keys lands on the next");
        assert!(from(b"key-001000").is_empty(), "a start past the last key reads nothing");
        assert!(from(b"zzz").is_empty());

        // A start on the first key of every block: the seek crosses block
        // boundaries and lands on the block's first entry, not the end of
        // the block before.
        let mut block_starts = 0;
        for index_pos in 1..table.index.num_entries() {
            let (last_key, _) = table.index.entry(index_pos - 1).unwrap();
            let last = InternalKey::decode(last_key).unwrap();
            let next = all.iter().position(|entry| entry.key == last).unwrap() + 1;
            let lent = from(&all[next].key.user_key);
            assert_eq!(lent.len(), all.len() - next);
            assert_eq!(lent[0], all[next]);
            block_starts += 1;
        }
        assert!(block_starts > 10, "the table spans many blocks: {block_starts}");
    }

    #[test]
    fn scan_cursor_lands_on_the_newest_version() {
        let path = temp_path("seek-versions.sst");
        let mut builder = TableBuilder::create(
            &path,
            TableBuilderOptions { block_size: 64, bloom_bits_per_key: 10 },
        )
        .unwrap();
        let key =
            |user: &str, seqno| InternalKey::new(user.as_bytes().to_vec(), seqno, ValueKind::Put);
        builder.add(&key("a", 1), b"a1").unwrap();
        for seqno in (10..40).rev() {
            builder.add(&key("k", seqno), format!("k{seqno}").as_bytes()).unwrap();
        }
        builder.add(&key("z", 2), b"z2").unwrap();
        builder.finish().unwrap();
        let table = Arc::new(Table::open(&path, None).unwrap());
        let lent = drain(Arc::clone(&table).scan_cursor(b"k").unwrap());
        assert_eq!(lent.len(), 31, "every version of k, then z");
        assert_eq!(lent[0].key, key("k", 39), "the newest version of k comes first");
        assert_eq!(lent[30].key, key("z", 2));
    }

    #[test]
    fn open_rejects_non_table_files() {
        let path = temp_path("garbage.sst");
        std::fs::write(&path, b"this is not an sstable at all").unwrap();
        assert!(Table::open(&path, None).is_err());
    }
}
