//! Caching of open table handles.
//!
//! Opening a table (reading its footer, index block, bloom filter and properties) is
//! far more expensive than a point lookup, so the engine keeps every live table open
//! in a cache keyed by file id.
//!
//! Eviction is driven by garbage collection, which removes the entry immediately
//! before unlinking the file — and only once no live [`Version`](crate::Version)
//! references it. That ordering is what makes a once-feared race impossible: a
//! reader can only ask the cache for files listed in a version it has pinned, a
//! pinned version keeps its files out of GC's reach, so no `get_or_open` can ever
//! resurrect a handle for a deleted file after `evict` ran.
//!
//! When the engine runs with a shared [`BlockCache`], the table cache is also
//! the bridge into it: each opened table gets a cache-wide unique table id and
//! a [`FetchContext`] so its data-block reads go through the cache, and
//! `evict` purges the departing table's blocks in the same breath — a
//! recycled per-shard file id can therefore never resurrect stale blocks.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use triad_common::lockrank::RankedMutex;
use triad_common::{Error, Result, Stats};
use triad_sstable::{
    cl_index_file_path, sst_file_path, BlockFetch, ClTable, FetchContext, Table, TableKind,
    TableRef,
};
use triad_wal::log_file_path;

use crate::block_cache::BlockCache;
use crate::version::FileMetadata;

/// A cached open table plus its identity in the block cache (when one runs).
struct OpenTable {
    table: TableRef,
    /// The cache-wide table id this handle's blocks are keyed under; `None`
    /// when the engine runs without a block cache.
    cache_table_id: Option<u64>,
}

/// A cache of open [`TableRef`]s.
pub struct TableCache {
    dir: PathBuf,
    stats: Arc<Stats>,
    /// The shared block cache, if enabled (`Options::block_cache > 0`). One
    /// instance serves every keyspace shard's table cache.
    block_cache: Option<Arc<BlockCache>>,
    tables: RankedMutex<HashMap<u64, OpenTable>>,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("dir", &self.dir)
            .field("open_tables", &self.tables.lock().len())
            .finish()
    }
}

impl TableCache {
    /// Creates an empty cache for tables living in `dir`. `block_cache`, when
    /// present, is threaded into every table this cache opens.
    pub fn new(dir: PathBuf, stats: Arc<Stats>, block_cache: Option<Arc<BlockCache>>) -> Self {
        TableCache {
            dir,
            stats,
            block_cache,
            tables: RankedMutex::new(
                crate::db::lock_rank::TABLE_CACHE,
                "table_cache.tables",
                HashMap::new(),
            ),
        }
    }

    /// Returns an open handle for `file`, opening it if necessary.
    pub fn get_or_open(&self, file: &FileMetadata) -> Result<TableRef> {
        // Probe under a scoped lock; the hit/miss counter bumps happen after
        // the guard is dropped so stats traffic never extends the critical
        // section (and an open racing below cannot double-count the probe).
        let cached = { self.tables.lock().get(&file.id).map(|open| Arc::clone(&open.table)) };
        if let Some(table) = cached {
            self.stats.add_table_cache_hits(1);
            return Ok(table);
        }
        self.stats.add_table_cache_misses(1);

        let fetch = self.block_cache.as_ref().map(|cache| FetchContext {
            table_id: cache.allocate_table_id(),
            fetch: Arc::clone(cache) as Arc<dyn BlockFetch>,
        });
        let cache_table_id = fetch.as_ref().map(|ctx| ctx.table_id);
        let table: TableRef = match file.kind {
            TableKind::Block => {
                let path = sst_file_path(&self.dir, file.id);
                Arc::new(Table::open_with_fetch(path, Some(Arc::clone(&self.stats)), fetch)?)
            }
            TableKind::CommitLogIndex => {
                let log_id = file.backing_log_id.ok_or_else(|| {
                    Error::corruption(format!("CL-SSTable {} has no backing log id", file.id))
                })?;
                let index_path = cl_index_file_path(&self.dir, file.id);
                let log_path = log_file_path(&self.dir, log_id);
                Arc::new(ClTable::open_with_fetch(
                    index_path,
                    log_path,
                    Some(Arc::clone(&self.stats)),
                    fetch,
                )?)
            }
        };
        let mut tables = self.tables.lock();
        let entry = tables
            .entry(file.id)
            .or_insert_with(|| OpenTable { table: Arc::clone(&table), cache_table_id });
        // If another opener won the race, our freshly allocated cache table
        // id dies with our handle — it never cached a block, so there is
        // nothing to purge.
        Ok(Arc::clone(&entry.table))
    }

    /// Drops the cached handle for `file_id`, purging the table's blocks from
    /// the shared block cache.
    ///
    /// Called by the garbage collector immediately before it unlinks the file;
    /// because GC only deletes files no live version references, no reader can
    /// re-insert the handle afterwards.
    pub fn evict(&self, file_id: u64) {
        let evicted = self.tables.lock().remove(&file_id);
        if let (Some(open), Some(cache)) = (evicted, &self.block_cache) {
            if let Some(cache_table_id) = open.cache_table_id {
                cache.purge_table(cache_table_id);
            }
        }
    }

    /// The shared block cache, if this table cache runs with one (exposed for
    /// tests and diagnostics).
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// Number of cached handles (exposed for tests).
    pub fn len(&self) -> usize {
        self.tables.lock().len()
    }

    /// Ids of every cached handle, sorted (exposed for tests and diagnostics).
    pub fn cached_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.tables.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Returns `true` when no handles are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_common::types::{InternalKey, ValueKind};
    use triad_hll::HyperLogLog;
    use triad_sstable::{ClTableBuilder, TableBuilder, TableBuilderOptions};
    use triad_wal::{LogRecord, LogWriter};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-table-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_sst(dir: &std::path::Path, id: u64) -> FileMetadata {
        let path = sst_file_path(dir, id);
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        let key = InternalKey::new(b"key".to_vec(), 1, ValueKind::Put);
        builder.add(&key, b"value").unwrap();
        let (props, size) = builder.finish().unwrap();
        FileMetadata {
            id,
            level: 0,
            kind: TableKind::Block,
            size,
            num_entries: props.num_entries,
            smallest: props.smallest.clone().unwrap(),
            largest: props.largest.clone().unwrap(),
            hll: HyperLogLog::new(),
            backing_log_id: None,
        }
    }

    /// A CL-SSTable `id` over commit log `log_id` holding `n` puts with
    /// values of 100 to 600 bytes.
    fn build_cl(dir: &std::path::Path, id: u64, log_id: u64, n: u64) -> FileMetadata {
        let mut writer = LogWriter::create(log_file_path(dir, log_id), log_id).unwrap();
        let mut builder = ClTableBuilder::create(
            cl_index_file_path(dir, id),
            TableBuilderOptions::default(),
            log_id,
        )
        .unwrap();
        for i in 0..n {
            let key = format!("key-{i:05}").into_bytes();
            let value = vec![b'v'; 100 + (i as usize * 37) % 501];
            let offset = writer.append(&LogRecord::put(i + 1, key.clone(), value.clone())).unwrap();
            let ikey = InternalKey::new(key, i + 1, ValueKind::Put);
            builder.add(&ikey, offset, value.len() as u64).unwrap();
        }
        writer.seal().unwrap();
        let (props, size) = builder.finish().unwrap();
        FileMetadata {
            id,
            level: 0,
            kind: TableKind::CommitLogIndex,
            size,
            num_entries: props.num_entries,
            smallest: props.smallest.clone().unwrap(),
            largest: props.largest.clone().unwrap(),
            hll: HyperLogLog::new(),
            backing_log_id: Some(log_id),
        }
    }

    /// Reads `count` entries of `table` from `start`.
    fn scan(table: &TableRef, start: &[u8], count: usize) -> usize {
        let mut cursor = Arc::clone(table).scan_cursor(start).unwrap();
        let mut read = 0;
        while cursor.valid() && read < count {
            read += 1;
            cursor.advance().unwrap();
        }
        read
    }

    #[test]
    fn a_second_scan_of_a_cl_table_adds_no_cache_misses() {
        let dir = temp_dir("cl-second-scan");
        let stats = Arc::new(Stats::new());
        let blocks = Arc::new(BlockCache::new(1 << 20));
        let cache = TableCache::new(dir.clone(), Arc::clone(&stats), Some(Arc::clone(&blocks)));
        let table = cache.get_or_open(&build_cl(&dir, 8, 3, 600)).unwrap();
        assert_eq!(scan(&table, b"key-00200", 300), 300);
        let misses = stats.block_cache_misses();
        assert!(misses > 1, "the scan loaded resolved blocks");
        assert_eq!(scan(&table, b"key-00200", 300), 300);
        assert_eq!(stats.block_cache_misses(), misses, "the second scan is served from the cache");
        assert_eq!(blocks.block_count() as u64, misses, "only resolved blocks were cached");
        // Each resolved block's load reads its one index block from disk.
        assert_eq!(stats.block_reads(), misses);
    }

    #[test]
    fn evict_of_a_cl_table_purges_its_index_and_resolved_blocks() {
        let dir = temp_dir("cl-evict");
        let stats = Arc::new(Stats::new());
        let blocks = Arc::new(BlockCache::new(1 << 20));
        let cache = TableCache::new(dir.clone(), Arc::clone(&stats), Some(Arc::clone(&blocks)));
        let table = cache.get_or_open(&build_cl(&dir, 9, 4, 600)).unwrap();
        assert_eq!(scan(&table, b"", usize::MAX), 600);
        let resolved = blocks.block_count();
        assert!(resolved > 2, "the scan cached the resolved blocks");
        // A get reads the index block itself, keyed apart from its resolved
        // block at the same offset, and caches the row it found.
        assert!(table.get(b"key-00000", u64::MAX).unwrap().is_some());
        assert_eq!(blocks.block_count(), resolved + 2);
        cache.evict(9);
        assert_eq!(blocks.block_count(), 0, "evicting the table purges every kind");
        assert_eq!(blocks.bytes_used(), 0);
    }

    fn plain_cache(dir: PathBuf, stats: Arc<Stats>) -> TableCache {
        TableCache::new(dir, stats, None)
    }

    #[test]
    fn caches_open_handles() {
        let dir = temp_dir("cache");
        let stats = Arc::new(Stats::new());
        let cache = plain_cache(dir.clone(), stats);
        let meta = build_sst(&dir, 1);
        assert!(cache.is_empty());
        let a = cache.get_or_open(&meta).unwrap();
        let b = cache.get_or_open(&meta).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a, &b), "second open must return the cached handle");
        assert_eq!(a.get(b"key", u64::MAX).unwrap().unwrap().value, b"value");
    }

    #[test]
    fn probe_counters_count_probes_not_cache_internal_retries() {
        // Regression for the stats-under-lock bug: N sequential probes of one
        // file must record exactly one miss and N-1 hits — the double-checked
        // insert path must not double-count its re-probe, and counter bumps
        // happen outside the map lock.
        let dir = temp_dir("probe-counters");
        let stats = Arc::new(Stats::new());
        let cache = plain_cache(dir.clone(), Arc::clone(&stats));
        let meta = build_sst(&dir, 7);
        for _ in 0..5 {
            cache.get_or_open(&meta).unwrap();
        }
        assert_eq!(stats.table_cache_misses(), 1, "one open, regardless of probes");
        assert_eq!(stats.table_cache_hits(), 4);
    }

    #[test]
    fn evict_drops_the_handle() {
        let dir = temp_dir("evict");
        let cache = plain_cache(dir.clone(), Arc::new(Stats::new()));
        let meta = build_sst(&dir, 2);
        cache.get_or_open(&meta).unwrap();
        assert_eq!(cache.len(), 1);
        cache.evict(2);
        assert!(cache.is_empty());
    }

    #[test]
    fn evict_purges_the_tables_blocks_from_the_block_cache() {
        let dir = temp_dir("evict-purges-blocks");
        let stats = Arc::new(Stats::new());
        let blocks = Arc::new(BlockCache::new(1 << 20));
        let cache = TableCache::new(dir.clone(), Arc::clone(&stats), Some(Arc::clone(&blocks)));
        let meta = build_sst(&dir, 5);
        let table = cache.get_or_open(&meta).unwrap();
        table.get(b"key", u64::MAX).unwrap().unwrap();
        assert!(blocks.block_count() > 0, "the lookup populated the block cache");
        cache.evict(5);
        assert_eq!(blocks.block_count(), 0, "evicting the table must purge its blocks");
        assert_eq!(blocks.bytes_used(), 0);
    }

    #[test]
    fn missing_backing_log_is_an_error() {
        let dir = temp_dir("missing-log");
        let cache = plain_cache(dir.clone(), Arc::new(Stats::new()));
        let mut meta = build_sst(&dir, 3);
        meta.kind = TableKind::CommitLogIndex;
        meta.backing_log_id = None;
        assert!(cache.get_or_open(&meta).is_err());
    }

    #[test]
    fn missing_file_is_an_error() {
        let dir = temp_dir("missing-file");
        let cache = plain_cache(dir.clone(), Arc::new(Stats::new()));
        let mut meta = build_sst(&dir, 4);
        meta.id = 999;
        assert!(cache.get_or_open(&meta).is_err());
    }
}
