//! SSTables for the TRIAD engine.
//!
//! This crate implements the on-disk sorted-table formats used by the LSM tree:
//!
//! * [`bloom`] — a bloom filter over user keys, consulted before touching data blocks.
//! * [`block`] — the sorted key/value block format shared by data and index blocks.
//! * [`mod@format`] — block handles, checksummed block I/O and the table footer.
//! * [`properties`] — per-table metadata (entry counts, key range, HyperLogLog sketch).
//! * [`builder`] / [`reader`] — the regular block-based SSTable, equivalent to the
//!   tables RocksDB writes on flush and compaction.
//! * [`cl_table`] — the TRIAD-LOG *CL-SSTable*: a sorted key→offset index over a
//!   sealed commit log, so flushes write only the index instead of re-writing values.
//! * [`iter`] — the entry cursors, k-way merge, version-resolving dedup and
//!   snapshot bound shared by compaction and scans.
//!
//! All tables expose the same [`SortedTable`] interface so the engine's read path and
//! compaction treat regular SSTables and CL-SSTables uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bloom;
pub mod builder;
pub mod cl_table;
pub mod format;
pub mod iter;
pub mod properties;
pub mod reader;
mod row;
#[cfg(test)]
mod test_util;

pub use bloom::BloomFilter;
pub use builder::{TableBuilder, TableBuilderOptions};
pub use cl_table::{ClTable, ClTableBuilder};
pub use format::VerifiedBlock;
pub use iter::{
    BoundedCursor, BoxedCursor, DedupCursor, EntryCursor, EntryIter, IterCursor, MergingCursor,
};
pub use properties::{TableKind, TableProperties};
pub use reader::Table;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use block::Block;
use triad_common::types::Entry;
use triad_common::{Result, Stats};

/// Returns the canonical file name for SSTable `id`, e.g. `000042.sst`.
pub fn sst_file_name(id: u64) -> String {
    format!("{id:06}.sst")
}

/// Returns the full path of SSTable `id` inside `dir`.
pub fn sst_file_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(sst_file_name(id))
}

/// Returns the canonical file name for the CL-SSTable index of table `id`.
pub fn cl_index_file_name(id: u64) -> String {
    format!("{id:06}.clidx")
}

/// Returns the full path of CL-SSTable index `id` inside `dir`.
pub fn cl_index_file_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(cl_index_file_name(id))
}

/// Parses a table id out of a `.sst` or `.clidx` file name.
pub fn parse_table_file_name(name: &str) -> Option<(u64, TableKind)> {
    if let Some(stem) = name.strip_suffix(".sst") {
        if !stem.is_empty() && stem.bytes().all(|b| b.is_ascii_digit()) {
            return Some((stem.parse().ok()?, TableKind::Block));
        }
    }
    if let Some(stem) = name.strip_suffix(".clidx") {
        if !stem.is_empty() && stem.bytes().all(|b| b.is_ascii_digit()) {
            return Some((stem.parse().ok()?, TableKind::CommitLogIndex));
        }
    }
    None
}

/// A provider of decoded blocks for table readers — in practice the
/// engine's shared block cache. `reader.rs` and `cl_table.rs` stay
/// cache-agnostic: a table opened with a [`FetchContext`] routes its scans'
/// data-block reads, a CL-SSTable its scans' resolved blocks and its gets'
/// index blocks, through [`FetchContext::get_or_load`], which
/// [probes](Self::probe) and on a miss reads the block around the cache and
/// [inserts](Self::insert) it.
///
/// Point gets cache *rows* instead, one-entry blocks holding what a get
/// found (see `row.rs`). A regular table's get probes for its row, then for
/// a resident data block, and on a double miss reads the block around the
/// cache and inserts only the row. A CL-SSTable's get inserts its row only
/// while the cache [has room](Self::has_room) for it.
pub trait BlockFetch: Send + Sync {
    /// The block resident at `(table_id, offset)`, if any. Never loads and
    /// counts nothing: the caller records the read's one cache outcome.
    fn probe(&self, table_id: u64, offset: u64) -> Option<Arc<Block>>;

    /// Whether inserting `block` at `(table_id, offset)` would evict
    /// nothing.
    fn has_room(&self, table_id: u64, offset: u64, block: &Block) -> bool;

    /// Caches `block` at `(table_id, offset)`, replacing a resident one, and
    /// returns it, also when the provider declines to keep it. `block` is a
    /// [`VerifiedBlock`], so whatever a provider keeps passed its loader's
    /// checks: a data block its CRC32C, a CL-SSTable's resolved block the
    /// CRC and index→log key check of every record it holds, a row those of
    /// the read that found it. `stats`, when present, receives the inserted
    /// bytes and evictions.
    fn insert(
        &self,
        table_id: u64,
        offset: u64,
        block: VerifiedBlock,
        stats: Option<&Stats>,
    ) -> Arc<Block>;
}

/// Everything a table reader needs to serve block reads through a shared
/// cache: its identity in the cache keyspace and the cache itself.
#[derive(Clone)]
pub struct FetchContext {
    /// The table's globally unique id in the cache keyspace. Engine file ids
    /// are a per-keyspace-shard namespace, so the cache allocates its own.
    pub table_id: u64,
    /// The shared block cache.
    pub fetch: Arc<dyn BlockFetch>,
}

impl FetchContext {
    /// The table's block at `offset`: the resident one, else the one `load`
    /// reads around the cache, inserted. Counts one block-cache hit or miss
    /// into `stats`. Concurrent misses of one block are not coalesced: each
    /// loads, and the last insert stays.
    pub fn get_or_load(
        &self,
        offset: u64,
        stats: Option<&Stats>,
        load: impl FnOnce() -> Result<VerifiedBlock>,
    ) -> Result<Arc<Block>> {
        if let Some(block) = self.fetch.probe(self.table_id, offset) {
            if let Some(stats) = stats {
                stats.add_block_cache_hits(1);
            }
            return Ok(block);
        }
        if let Some(stats) = stats {
            stats.add_block_cache_misses(1);
        }
        Ok(self.fetch.insert(self.table_id, offset, load()?, stats))
    }
}

/// The uniform interface that the engine's read path and compaction use for any
/// on-disk table, regardless of whether it is a regular SSTable or a CL-SSTable.
pub trait SortedTable: Send + Sync {
    /// Returns the freshest entry for `user_key` visible at `snapshot`, if the table
    /// contains one. The returned entry may be a tombstone.
    fn get(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Entry>>;

    /// A cursor over every entry in internal-key order, for compaction: it
    /// lends each entry instead of allocating one, and never goes through the
    /// shared block cache. A regular [`Table`] reads each data block once,
    /// CRC-verified; a [`ClTable`] walks its index the same way and reads
    /// every put's value when the cursor opens, in ranged reads of its
    /// backing log sorted by offset.
    fn cursor(self: Arc<Self>) -> Result<BoxedCursor>;

    /// A cursor for scans, on the first entry whose internal key is
    /// `>= (start, MAX_SEQNO)` — the newest version of the first user key at or
    /// after `start`; an empty `start` lands on the first entry. It streams
    /// from there, one data block at a time through the block cache, and both
    /// kinds of table use the same cursor: a regular [`Table`] reads its data
    /// blocks, a [`ClTable`] its *resolved blocks* — each index block with
    /// every put's value read from the backing log, CRC- and key-checked once
    /// when the block is built.
    fn scan_cursor(self: Arc<Self>, start: &[u8]) -> Result<BoxedCursor>;

    /// The table's metadata.
    fn properties(&self) -> &TableProperties;

    /// The on-disk size of the table in bytes (index + data it owns).
    fn size_bytes(&self) -> u64;
}

/// A reference-counted trait object over any sorted table.
pub type TableRef = Arc<dyn SortedTable>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_round_trip() {
        assert_eq!(sst_file_name(7), "000007.sst");
        assert_eq!(parse_table_file_name("000007.sst"), Some((7, TableKind::Block)));
        assert_eq!(cl_index_file_name(12), "000012.clidx");
        assert_eq!(parse_table_file_name("000012.clidx"), Some((12, TableKind::CommitLogIndex)));
    }

    #[test]
    fn parse_rejects_other_names() {
        assert_eq!(parse_table_file_name("000001.log"), None);
        assert_eq!(parse_table_file_name("x.sst"), None);
        assert_eq!(parse_table_file_name(".clidx"), None);
        assert_eq!(parse_table_file_name("MANIFEST"), None);
    }

    #[test]
    fn paths_are_inside_dir() {
        let dir = Path::new("/data/db");
        assert_eq!(sst_file_path(dir, 3), PathBuf::from("/data/db/000003.sst"));
        assert_eq!(cl_index_file_path(dir, 3), PathBuf::from("/data/db/000003.clidx"));
    }
}
