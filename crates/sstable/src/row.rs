//! Rows: what a point get keeps in the shared block cache.
//!
//! A regular table's get that misses the cache caches the one entry it
//! found, not the data block around it: a hot key of a skewed workload then
//! costs the cache the bytes of its own entry instead of a whole block of
//! mostly cold keys. A CL-SSTable's get caches its dense index block as
//! before, and its row only while the cache has room for it: a CL row saves
//! a small positioned read of the log, a regular row a 4 KiB block read and
//! its CRC, so under pressure the cache keeps the second kind. A row is a
//! one-entry [`Block`] — the internal key and the value the get found —
//! built only from a verified read ([`VerifiedBlock::row`]), and keyed under
//! the table's cache id at [`offset`]`(hash64(user_key))`.
//!
//! Only unbounded gets insert rows, so a row holds the table's newest version
//! of its key. A seqno-bounded get uses one only when that version is visible
//! at its bound, and every hit re-checks the user key, since two keys can
//! share a row offset.
//!
//! [`VerifiedBlock::row`]: crate::VerifiedBlock

use triad_common::types::{parse_encoded_internal_key, Entry, InternalKey, SeqNo, MAX_SEQNO};
use triad_common::{Error, Result, Stats};

use crate::block::Block;
use crate::FetchContext;

/// Set on the cache offset of a row. Table offsets are far below it, and a
/// CL-SSTable's resolved blocks set bit 63 ([`crate::cl_table`]), which a
/// row offset never does.
pub(crate) const ROW_TAG: u64 = 1 << 62;

/// The cache offset of the row of the user key whose `hash64` is `hash`.
pub(crate) fn offset(hash: u64) -> u64 {
    ROW_TAG | (hash >> 2)
}

/// Whether a get at `snapshot` may insert the row it found: only an
/// unbounded get finds the table's newest version of its key.
pub(crate) fn cacheable(snapshot: SeqNo) -> bool {
    snapshot >= MAX_SEQNO
}

/// The entry of `user_key`'s cached row, when the cache holds one for the
/// key at a seqno visible at `snapshot`. A served row counts as a block-cache
/// hit and a row hit; anything else counts nothing, and the caller records
/// the outcome of the read it falls back to.
pub(crate) fn probe(
    ctx: &FetchContext,
    hash: u64,
    user_key: &[u8],
    snapshot: SeqNo,
    stats: Option<&Stats>,
) -> Result<Option<Entry>> {
    let Some(row) = ctx.fetch.probe(ctx.table_id, offset(hash)) else { return Ok(None) };
    let Some(entry) = entry_for(&row, user_key, snapshot)? else { return Ok(None) };
    if let Some(stats) = stats {
        stats.add_block_cache_hits(1);
        stats.add_block_cache_row_hits(1);
    }
    Ok(Some(entry))
}

/// The entry `row` holds, if it is `user_key`'s at a seqno visible at
/// `snapshot`.
fn entry_for(row: &Block, user_key: &[u8], snapshot: SeqNo) -> Result<Option<Entry>> {
    let (key, value) = row.entry(0)?;
    let undecodable = || Error::corruption("undecodable internal key in a cached row");
    let (row_user_key, _) = parse_encoded_internal_key(key).ok_or_else(undecodable)?;
    if row_user_key != user_key {
        return Ok(None);
    }
    let key = InternalKey::decode(key).ok_or_else(undecodable)?;
    if key.seqno > snapshot {
        return Ok(None);
    }
    Ok(Some(Entry::new(key, value)))
}
