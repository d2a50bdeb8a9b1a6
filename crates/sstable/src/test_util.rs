//! A minimal in-memory [`BlockFetch`] for the crate's unit tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use triad_common::{Result, Stats};

use crate::block::Block;
use crate::{BlockFetch, VerifiedBlock};

/// Caches every block forever and counts loads.
#[derive(Default)]
pub(crate) struct MapCache {
    blocks: Mutex<HashMap<(u64, u64), Arc<Block>>>,
    loads: AtomicU64,
}

impl MapCache {
    pub(crate) fn new() -> Arc<MapCache> {
        Arc::default()
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
    fn get_or_load(
        &self,
        table_id: u64,
        offset: u64,
        _stats: Option<&Stats>,
        load: &dyn Fn() -> Result<VerifiedBlock>,
    ) -> Result<Arc<Block>> {
        if let Some(block) = self.blocks.lock().get(&(table_id, offset)) {
            return Ok(Arc::clone(block));
        }
        self.loads.fetch_add(1, Ordering::Relaxed);
        let block = Arc::new(load()?.into_block());
        self.blocks.lock().insert((table_id, offset), Arc::clone(&block));
        Ok(block)
    }
}
