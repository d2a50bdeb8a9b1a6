//! The sorted key/value block format.
//!
//! Blocks are the unit of I/O inside an SSTable. Both data blocks (internal key →
//! value) and index blocks (last internal key of a data block → encoded block
//! handle) share this format:
//!
//! ```text
//! entry*   := varint(key_len) varint(value_len) key value
//! trailer  := u32-LE entry_offset * num_entries, u32-LE num_entries
//! ```
//!
//! The offset array in the trailer enables binary search by internal key without
//! decoding the whole block.

use std::cmp::Ordering;
use std::ops::Range;

use triad_common::types::{compare_encoded_internal_keys, compare_encoded_to_lookup, SeqNo};
use triad_common::varint;
use triad_common::{Error, Result};

/// Builds a block by appending keys in sorted order.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    offsets: Vec<u32>,
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Keys must be added in non-decreasing encoded-internal-key order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.offsets.is_empty()
                || compare_encoded_internal_keys(&self.last_key, key) != Ordering::Greater,
            "block entries must be added in sorted order"
        );
        self.offsets.push(self.buf.len() as u32);
        varint::encode_u64(&mut self.buf, key.len() as u64);
        varint::encode_u64(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> usize {
        self.offsets.len()
    }

    /// Returns `true` when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Estimated size of the finished block in bytes.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.offsets.len() * 4 + 4
    }

    /// The last key added, if any.
    pub fn last_key(&self) -> Option<&[u8]> {
        if self.offsets.is_empty() {
            None
        } else {
            Some(&self.last_key)
        }
    }

    /// Finishes the block and returns its serialized bytes, resetting the builder.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for offset in &self.offsets {
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        self.offsets.clear();
        self.last_key.clear();
        out
    }
}

/// A decoded, immutable block supporting binary search and iteration.
/// The default block holds no entries.
#[derive(Debug, Clone, Default)]
pub struct Block {
    data: Vec<u8>,
    offsets: Vec<u32>,
}

impl Block {
    /// Parses a block produced by [`BlockBuilder::finish`].
    pub fn new(bytes: Vec<u8>) -> Result<Block> {
        if bytes.len() < 4 {
            return Err(Error::corruption("block shorter than its trailer"));
        }
        let count_pos = bytes.len() - 4;
        let count = u32::from_le_bytes(bytes[count_pos..].try_into().expect("4 bytes")) as usize;
        let offsets_len =
            count.checked_mul(4).ok_or_else(|| Error::corruption("block entry count overflows"))?;
        if count_pos < offsets_len {
            return Err(Error::corruption("block trailer larger than block"));
        }
        let offsets_start = count_pos - offsets_len;
        let mut offsets = Vec::with_capacity(count);
        for i in 0..count {
            let at = offsets_start + i * 4;
            let offset = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            if offset as usize >= offsets_start && !(offset == 0 && offsets_start == 0) {
                return Err(Error::corruption("block entry offset out of range"));
            }
            offsets.push(offset);
        }
        let mut data = bytes;
        data.truncate(offsets_start);
        Ok(Block { data, offsets })
    }

    /// Number of entries in the block.
    pub fn num_entries(&self) -> usize {
        self.offsets.len()
    }

    /// Resident size of the decoded block in bytes — what a block cache
    /// charges against its byte budget.
    pub fn size_bytes(&self) -> usize {
        self.data.len() + self.offsets.len() * 4
    }

    /// Returns `true` when the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Returns the `(key, value)` pair at `index`.
    pub fn entry(&self, index: usize) -> Result<(&[u8], &[u8])> {
        let (key, value) = self.entry_ranges(index)?;
        Ok((&self.data[key], &self.data[value]))
    }

    /// Like [`entry`](Self::entry), but returns the key and value as byte
    /// ranges of [`data`](Self::data), so a cursor can lend them later
    /// without holding a borrow of the block.
    pub fn entry_ranges(&self, index: usize) -> Result<(Range<usize>, Range<usize>)> {
        let start =
            *self.offsets.get(index).ok_or_else(|| {
                Error::corruption(format!("block entry index {index} out of range"))
            })? as usize;
        let slice = &self.data[start..];
        let (key_len, read1) = varint::decode_u64(slice)?;
        let (value_len, read2) = varint::decode_u64(&slice[read1..])?;
        let key_start = start + read1 + read2;
        let key_end = usize::try_from(key_len).ok().and_then(|len| key_start.checked_add(len));
        let value_end = key_end
            .zip(usize::try_from(value_len).ok())
            .and_then(|(end, len)| end.checked_add(len))
            .filter(|&end| end <= self.data.len());
        match (key_end, value_end) {
            (Some(key_end), Some(value_end)) => Ok((key_start..key_end, key_end..value_end)),
            _ => Err(Error::corruption("block entry extends past block data")),
        }
    }

    /// The block's entry bytes, which [`entry_ranges`](Self::entry_ranges) index.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Returns the index of the first entry whose key is `>= target` (encoded internal
    /// key comparison), or `num_entries()` if every key is smaller.
    pub fn seek(&self, target: &[u8]) -> Result<usize> {
        self.seek_by(|key| compare_encoded_internal_keys(key, target))
    }

    /// [`seek`](Self::seek) to the lookup key of `user_key` at `snapshot`
    /// ([`InternalKey::for_lookup`](triad_common::InternalKey::for_lookup)):
    /// the newest version of `user_key` visible at `snapshot`, found without
    /// encoding the lookup key.
    pub fn seek_lookup(&self, user_key: &[u8], snapshot: SeqNo) -> Result<usize> {
        self.seek_by(|key| compare_encoded_to_lookup(key, user_key, snapshot))
    }

    /// The index of the first entry whose key `compare` does not order before
    /// the target.
    fn seek_by(&self, compare: impl Fn(&[u8]) -> Ordering) -> Result<usize> {
        let mut lo = 0usize;
        let mut hi = self.offsets.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (key, _) = self.entry(mid)?;
            match compare(key) {
                Ordering::Less => lo = mid + 1,
                _ => hi = mid,
            }
        }
        Ok(lo)
    }

    /// Iterates over every `(key, value)` pair in order.
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter { block: self, index: 0 }
    }
}

/// Iterator over the entries of a [`Block`].
#[derive(Debug)]
pub struct BlockIter<'a> {
    block: &'a Block,
    index: usize,
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = Result<(&'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.block.num_entries() {
            return None;
        }
        let item = self.block.entry(self.index);
        self.index += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_common::types::{InternalKey, ValueKind};

    fn encoded(user_key: &str, seqno: u64) -> Vec<u8> {
        InternalKey::new(user_key.as_bytes().to_vec(), seqno, ValueKind::Put).encode()
    }

    #[test]
    fn build_and_read_back() {
        let mut builder = BlockBuilder::new();
        assert!(builder.is_empty());
        let keys: Vec<Vec<u8>> = (0..100).map(|i| encoded(&format!("key-{i:03}"), 1)).collect();
        for (i, key) in keys.iter().enumerate() {
            builder.add(key, format!("value-{i}").as_bytes());
        }
        assert_eq!(builder.num_entries(), 100);
        assert!(builder.size_estimate() > 0);
        let block = Block::new(builder.finish()).unwrap();
        assert_eq!(block.num_entries(), 100);
        for (i, key) in keys.iter().enumerate() {
            let (k, v) = block.entry(i).unwrap();
            assert_eq!(k, key.as_slice());
            assert_eq!(v, format!("value-{i}").as_bytes());
        }
    }

    #[test]
    fn empty_block_round_trip() {
        let mut builder = BlockBuilder::new();
        let block = Block::new(builder.finish()).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.seek(&encoded("anything", 1)).unwrap(), 0);
        assert!(block.iter().next().is_none());
    }

    #[test]
    fn seek_finds_first_not_less_entry() {
        let mut builder = BlockBuilder::new();
        for i in (0..50).map(|i| i * 2) {
            builder.add(&encoded(&format!("key-{i:03}"), 5), b"v");
        }
        let block = Block::new(builder.finish()).unwrap();
        // Exact hit.
        let idx = block.seek(&encoded("key-010", 5)).unwrap();
        let (key, _) = block.entry(idx).unwrap();
        assert_eq!(InternalKey::decode(key).unwrap().user_key, b"key-010");
        // Between two keys: lands on the next larger one.
        let idx = block.seek(&encoded("key-011", 5)).unwrap();
        let (key, _) = block.entry(idx).unwrap();
        assert_eq!(InternalKey::decode(key).unwrap().user_key, b"key-012");
        // Before the first key.
        assert_eq!(block.seek(&encoded("key-", 5)).unwrap(), 0);
        // Past the last key.
        assert_eq!(block.seek(&encoded("zzz", 5)).unwrap(), block.num_entries());
    }

    #[test]
    fn seek_respects_seqno_ordering_within_a_user_key() {
        let mut builder = BlockBuilder::new();
        // Newest (seqno 9) sorts before older (seqno 3) for the same user key.
        builder.add(&encoded("dup", 9), b"new");
        builder.add(&encoded("dup", 3), b"old");
        let block = Block::new(builder.finish()).unwrap();
        // A lookup at snapshot 100 must find the newest version first.
        let idx = block.seek(&InternalKey::for_lookup(b"dup".to_vec(), 100).encode()).unwrap();
        let (_, value) = block.entry(idx).unwrap();
        assert_eq!(value, b"new");
        // A lookup at snapshot 5 must skip the version with seqno 9.
        let idx = block.seek(&InternalKey::for_lookup(b"dup".to_vec(), 5).encode()).unwrap();
        let (_, value) = block.entry(idx).unwrap();
        assert_eq!(value, b"old");
    }

    #[test]
    fn iterator_yields_everything_in_order() {
        let mut builder = BlockBuilder::new();
        let keys: Vec<Vec<u8>> = (0..20).map(|i| encoded(&format!("{i:02}"), 1)).collect();
        for key in &keys {
            builder.add(key, b"x");
        }
        let block = Block::new(builder.finish()).unwrap();
        let collected: Vec<Vec<u8>> = block.iter().map(|r| r.unwrap().0.to_vec()).collect();
        assert_eq!(collected, keys);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        assert!(Block::new(vec![1, 2]).is_err(), "shorter than trailer");
        // Claim more entries than could possibly fit.
        let mut bytes = vec![0u8; 8];
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        assert!(Block::new(bytes).is_err());
        // Entry offset pointing into the trailer.
        let mut builder = BlockBuilder::new();
        builder.add(&encoded("a", 1), b"v");
        let mut good = builder.finish();
        let len = good.len();
        // Overwrite the single offset (4 bytes before the count) with a huge value.
        good[len - 8..len - 4].copy_from_slice(&0xffff_0000u32.to_le_bytes());
        assert!(Block::new(good).is_err());
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut builder = BlockBuilder::new();
        builder.add(&encoded("a", 1), b"1");
        let first = builder.finish();
        assert!(builder.is_empty());
        builder.add(&encoded("b", 1), b"2");
        let second = builder.finish();
        let first_block = Block::new(first).unwrap();
        let second_block = Block::new(second).unwrap();
        assert_eq!(first_block.num_entries(), 1);
        assert_eq!(second_block.num_entries(), 1);
        let (key, _) = second_block.entry(0).unwrap();
        assert_eq!(InternalKey::decode(key).unwrap().user_key, b"b");
    }
}
