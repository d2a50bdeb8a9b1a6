//! A minimal in-memory [`BlockFetch`] for the crate's unit tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use triad_common::{Result, Stats};
use triad_wal::LogChunk;

use crate::block::Block;
use crate::{BlockFetch, VerifiedBlock};

/// Caches every block and log chunk forever and counts loads.
#[derive(Default)]
pub(crate) struct MapCache {
    blocks: Mutex<HashMap<(u64, u64), Arc<Block>>>,
    chunks: Mutex<HashMap<(u64, u64), Arc<LogChunk>>>,
    loads: AtomicU64,
}

impl MapCache {
    pub(crate) fn new() -> Arc<MapCache> {
        Arc::default()
    }

    /// Loads so far, blocks and chunks alike.
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Number of cached log chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.lock().len()
    }

    /// Replaces every cached chunk with what `load` returns for its start
    /// offset, as if the cached bytes had changed after they were loaded.
    pub(crate) fn replace_chunks(&self, load: impl Fn(u64) -> Result<LogChunk>) {
        for ((_, start), chunk) in self.chunks.lock().iter_mut() {
            *chunk = Arc::new(load(*start).unwrap());
        }
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

    fn get_or_load_chunk(
        &self,
        table_id: u64,
        offset: u64,
        _stats: Option<&Stats>,
        load: &dyn Fn() -> Result<LogChunk>,
    ) -> Result<Arc<LogChunk>> {
        if let Some(chunk) = self.chunks.lock().get(&(table_id, offset)) {
            return Ok(Arc::clone(chunk));
        }
        self.loads.fetch_add(1, Ordering::Relaxed);
        let chunk = Arc::new(load()?);
        self.chunks.lock().insert((table_id, offset), Arc::clone(&chunk));
        Ok(chunk)
    }
}
