//! Reading regular block-based SSTables.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use triad_common::types::{Entry, InternalKey};
use triad_common::{Error, Result, Stats};

use crate::block::Block;
use crate::bloom::BloomFilter;
use crate::format::{BlockFileReader, BlockHandle};
use crate::iter::EntryIter;
use crate::properties::{TableKind, TableProperties};
use crate::{FetchContext, SortedTable};

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
    /// A tiny single-block cache: compaction and scans read blocks sequentially, and
    /// point lookups often hit the same hot block repeatedly.
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
    /// through the shared block cache (and scans may prefetch via its I/O
    /// pool) instead of this table's private single-slot cache.
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

    fn read_data_block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
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

    /// Best-effort readahead of the data block at index position `index_pos`:
    /// hands the read to the fetch context's I/O pool, which populates the
    /// shared cache through the same single-flight path as foreground reads.
    /// A no-op without a cache or a pool (the single-slot fallback would be
    /// *hurt* by a prefetch clobbering the block the iterator is consuming).
    fn prefetch(self: &Arc<Self>, index_pos: usize) {
        let Some(ctx) = &self.fetch else { return };
        let Some(pool) = &ctx.readahead else { return };
        if index_pos >= self.index.num_entries() {
            return;
        }
        let handle = match self.index.entry(index_pos) {
            Ok((_, handle_bytes)) => match BlockHandle::decode(handle_bytes) {
                Ok(handle) => handle,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let table = Arc::clone(self);
        pool.spawn(move || {
            // Errors surface on the foreground read that actually needs the block.
            let _ = table.read_data_block(handle);
        });
    }

    /// Looks up the freshest version of `user_key` visible at `snapshot`.
    ///
    /// Returns tombstones as well as puts; the caller decides how to interpret them.
    pub fn get_entry(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        if !self.props.may_contain_user_key(user_key) {
            return Ok(None);
        }
        if !self.bloom.may_contain(user_key) {
            if let Some(stats) = &self.stats {
                stats.add_bloom_negatives(1);
            }
            return Ok(None);
        }
        let lookup = InternalKey::for_lookup(user_key.to_vec(), snapshot).encode();
        let index_pos = self.index.seek(&lookup)?;
        if index_pos >= self.index.num_entries() {
            return Ok(None);
        }
        let (_, handle_bytes) = self.index.entry(index_pos)?;
        let handle = BlockHandle::decode(handle_bytes)?;
        let block = self.read_data_block(handle)?;
        let pos = block.seek(&lookup)?;
        if pos >= block.num_entries() {
            return Ok(None);
        }
        let (key_bytes, value) = block.entry(pos)?;
        let key = InternalKey::decode(key_bytes).ok_or_else(|| {
            Error::corruption_at("undecodable internal key in data block", &self.path)
        })?;
        if key.user_key != user_key {
            return Ok(None);
        }
        Ok(Some(Entry::new(key, value.to_vec())))
    }

    /// Returns an iterator over every entry of the table in internal-key order.
    pub fn iter_entries(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            index_pos: 0,
            block: None,
            block_pos: 0,
            errored: false,
        }
    }
}

impl SortedTable for Table {
    fn get(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>> {
        self.get_entry(user_key, snapshot)
    }

    fn entries(&self) -> Result<EntryIter> {
        // `entries` needs an owned iterator; re-open the table cheaply by cloning the
        // Arc when called through `TableRef`. For a bare `&Table` we construct a
        // temporary Arc-less path: read blocks eagerly.
        let mut all = Vec::with_capacity(self.props.num_entries as usize);
        for index_pos in 0..self.index.num_entries() {
            let (_, handle_bytes) = self.index.entry(index_pos)?;
            let handle = BlockHandle::decode(handle_bytes)?;
            let block = self.read_data_block(handle)?;
            for item in block.iter() {
                let (key_bytes, value) = item?;
                let key = InternalKey::decode(key_bytes)
                    .ok_or_else(|| Error::corruption_at("undecodable internal key", &self.path))?;
                all.push(Entry::new(key, value.to_vec()));
            }
        }
        Ok(Box::new(all.into_iter().map(Ok)))
    }

    fn entries_arc(self: Arc<Self>) -> Result<EntryIter> {
        // Streams one block at a time (prefetching the next through the I/O
        // pool when the table has one) instead of materializing the table.
        Ok(Box::new(self.iter_entries()))
    }

    fn properties(&self) -> &TableProperties {
        &self.props
    }

    fn size_bytes(&self) -> u64 {
        self.file_size
    }
}

/// Streaming iterator over a table's entries; loads one data block at a time.
pub struct TableIterator {
    table: Arc<Table>,
    index_pos: usize,
    block: Option<Arc<Block>>,
    block_pos: usize,
    errored: bool,
}

impl TableIterator {
    fn next_entry(&mut self) -> Result<Option<Entry>> {
        loop {
            if let Some(block) = &self.block {
                if self.block_pos < block.num_entries() {
                    let (key_bytes, value) = block.entry(self.block_pos)?;
                    let key = InternalKey::decode(key_bytes).ok_or_else(|| {
                        Error::corruption("undecodable internal key in data block")
                    })?;
                    let entry = Entry::new(key, value.to_vec());
                    self.block_pos += 1;
                    return Ok(Some(entry));
                }
                self.block = None;
                self.block_pos = 0;
            }
            if self.index_pos >= self.table.index.num_entries() {
                return Ok(None);
            }
            let (_, handle_bytes) = self.table.index.entry(self.index_pos)?;
            let handle = BlockHandle::decode(handle_bytes)?;
            self.block = Some(self.table.read_data_block(handle)?);
            self.index_pos += 1;
            // Overlap the *next* block's I/O with consuming this one.
            self.table.prefetch(self.index_pos);
        }
    }
}

impl Iterator for TableIterator {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        match self.next_entry() {
            Ok(Some(entry)) => Some(Ok(entry)),
            Ok(None) => None,
            Err(e) => {
                self.errored = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests remove their own scratch files
mod tests {
    use super::*;
    use crate::builder::{TableBuilder, TableBuilderOptions};
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

        // The trait-object path returns the same entries.
        let via_trait: Vec<Entry> =
            SortedTable::entries(table.as_ref()).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(via_trait, entries);
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
        use crate::{BlockFetch, VerifiedBlock};
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicU64, Ordering};

        // A minimal in-memory BlockFetch: caches forever, counts loads.
        struct MapCache {
            slots: Mutex<HashMap<(u64, u64), Arc<Block>>>,
            loads: AtomicU64,
        }
        impl BlockFetch for MapCache {
            fn get_or_load(
                &self,
                table_id: u64,
                offset: u64,
                _stats: Option<&Stats>,
                load: &dyn Fn() -> Result<VerifiedBlock>,
            ) -> Result<Arc<Block>> {
                if let Some(block) = self.slots.lock().get(&(table_id, offset)) {
                    return Ok(Arc::clone(block));
                }
                self.loads.fetch_add(1, Ordering::Relaxed);
                let block = Arc::new(load()?.into_block());
                self.slots.lock().insert((table_id, offset), Arc::clone(&block));
                Ok(block)
            }
        }

        let path = temp_path("fetch.sst");
        build_table(&path, 100, 64 * 1024);
        let cache =
            Arc::new(MapCache { slots: Mutex::new(HashMap::new()), loads: AtomicU64::new(0) });
        let ctx = FetchContext { table_id: 7, fetch: Arc::clone(&cache) as _, readahead: None };
        let table = Table::open_with_fetch(&path, None, Some(ctx)).unwrap();
        for _ in 0..10 {
            assert_eq!(
                table.get_entry(b"key-000042", u64::MAX).unwrap().unwrap().value,
                b"value-42"
            );
        }
        assert_eq!(cache.loads.load(Ordering::Relaxed), 1, "provider loads each block once");
        // The private single-slot cache stays untouched when a provider is set.
        assert!(table.cached_block.lock().is_none());
    }

    #[test]
    fn open_rejects_non_table_files() {
        let path = temp_path("garbage.sst");
        std::fs::write(&path, b"this is not an sstable at all").unwrap();
        assert!(Table::open(&path, None).is_err());
    }
}
