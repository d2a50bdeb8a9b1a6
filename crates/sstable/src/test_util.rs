//! A minimal in-memory [`BlockFetch`] for the crate's unit tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use triad_common::Stats;

use crate::block::Block;
use crate::{row, BlockFetch, VerifiedBlock};

/// Caches every block forever and counts loads: inserts of anything but a
/// row, which only a miss of the block makes. It reports room for a
/// block only when made [`with_room`](MapCache::with_room): a CL-SSTable's
/// get through [`new`](MapCache::new)'s caches no row, as in a full cache.
#[derive(Default)]
pub(crate) struct MapCache {
    blocks: Mutex<HashMap<(u64, u64), Arc<Block>>>,
    loads: AtomicU64,
    room: bool,
}

impl MapCache {
    pub(crate) fn new() -> Arc<MapCache> {
        Arc::default()
    }

    /// A cache that always has room for a block.
    pub(crate) fn with_room() -> Arc<MapCache> {
        Arc::new(MapCache { room: true, ..MapCache::default() })
    }

    /// Loads so far.
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Number of cached blocks.
    pub(crate) fn block_count(&self) -> usize {
        self.blocks.lock().len()
    }
}

impl BlockFetch for MapCache {
    fn probe(&self, table_id: u64, offset: u64) -> Option<Arc<Block>> {
        self.blocks.lock().get(&(table_id, offset)).cloned()
    }

    fn has_room(&self, _table_id: u64, _offset: u64, _block: &Block) -> bool {
        self.room
    }

    fn insert(
        &self,
        table_id: u64,
        offset: u64,
        block: VerifiedBlock,
        _stats: Option<&Stats>,
    ) -> Arc<Block> {
        if offset & row::ROW_TAG == 0 {
            self.loads.fetch_add(1, Ordering::Relaxed);
        }
        let block = Arc::new(block.into_block());
        self.blocks.lock().insert((table_id, offset), Arc::clone(&block));
        block
    }
}
