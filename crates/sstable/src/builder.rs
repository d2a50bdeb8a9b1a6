//! Building regular block-based SSTables.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};

use triad_common::types::{compare_encoded_internal_keys, parse_encoded_internal_key};
use triad_common::types::{Entry, InternalKey, ValueKind};
use triad_common::{Error, Result};
use triad_hll::hash64;

use crate::block::BlockBuilder;
use crate::bloom::BloomFilter;
use crate::format::{BlockFileWriter, Footer};
use crate::properties::{TableKind, TableProperties};

/// Tuning knobs for table construction.
#[derive(Debug, Clone, Copy)]
pub struct TableBuilderOptions {
    /// Target uncompressed size of a data block.
    pub block_size: usize,
    /// Bloom filter budget in bits per key.
    pub bloom_bits_per_key: usize,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions { block_size: 4 * 1024, bloom_bits_per_key: 10 }
    }
}

/// Writes a sorted stream of entries into an SSTable file.
///
/// Entries must be added in strictly increasing internal-key order; the builder
/// enforces this and fails fast otherwise, because an out-of-order table would
/// silently break binary search at read time.
#[derive(Debug)]
pub struct TableBuilder {
    writer: BlockFileWriter,
    options: TableBuilderOptions,
    path: PathBuf,
    block: BlockBuilder,
    index_entries: Vec<(Vec<u8>, crate::format::BlockHandle)>,
    key_hashes: Vec<u64>,
    props: TableProperties,
    /// The last encoded key added; meaningful once an entry was added.
    last_key: Vec<u8>,
    /// Reused buffer [`add`](Self::add) encodes its key into.
    key_buf: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `path`.
    pub fn create(path: impl AsRef<Path>, options: TableBuilderOptions) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let writer = BlockFileWriter::create(&path)?;
        Ok(TableBuilder {
            writer,
            options,
            path,
            block: BlockBuilder::new(),
            index_entries: Vec::new(),
            key_hashes: Vec::new(),
            props: TableProperties::new(TableKind::Block),
            last_key: Vec::new(),
            key_buf: Vec::new(),
        })
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.props.num_entries
    }

    /// Approximate size of the table written so far, including the pending block.
    pub fn estimated_size(&self) -> u64 {
        self.writer.offset() + self.block.size_estimate() as u64
    }

    /// Adds an entry. Keys must arrive in strictly increasing internal-key order.
    pub fn add(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        let mut encoded = std::mem::take(&mut self.key_buf);
        key.encode_into(&mut encoded);
        let added = self.add_encoded(&encoded, value);
        self.key_buf = encoded;
        added
    }

    /// Adds an entry whose internal key is already
    /// [encoded](InternalKey::encode), as a merge cursor lends it. Keys must
    /// arrive in strictly increasing internal-key order.
    pub fn add_encoded(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let Some((user_key, kind)) = parse_encoded_internal_key(key) else {
            return Err(Error::InvalidArgument(format!("not an encoded internal key: {key:?}")));
        };
        if self.props.num_entries > 0
            && compare_encoded_internal_keys(&self.last_key, key) != Ordering::Less
        {
            return Err(Error::InvalidArgument(format!(
                "table entries must be added in increasing order: {:?} then {:?}",
                InternalKey::decode(&self.last_key),
                InternalKey::decode(key)
            )));
        }
        self.block.add(key, value);
        // One hash per user key feeds both the bloom filter and the sketch.
        let hash = hash64(user_key);
        self.key_hashes.push(hash);
        self.props.hll.add_hash(hash);
        self.props.num_entries += 1;
        if kind == ValueKind::Delete {
            self.props.num_tombstones += 1;
        }
        self.props.raw_key_bytes += user_key.len() as u64;
        self.props.raw_value_bytes += value.len() as u64;
        if self.props.smallest.is_none() {
            self.props.smallest = InternalKey::decode(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);

        if self.block.size_estimate() >= self.options.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Adds a complete [`Entry`].
    pub fn add_entry(&mut self, entry: &Entry) -> Result<()> {
        self.add(&entry.key, &entry.value)
    }

    /// Overrides the table kind recorded in the properties block (used by CL-SSTables).
    pub fn set_kind(&mut self, kind: TableKind) {
        self.props.kind = kind;
    }

    /// Records the id of the commit log backing a CL-SSTable.
    pub fn set_backing_log_id(&mut self, id: u64) {
        self.props.backing_log_id = Some(id);
    }

    /// Overrides the raw value byte count (CL-SSTables report the referenced bytes in
    /// the backing log rather than the tiny offsets stored in the index blocks).
    pub fn set_raw_value_bytes(&mut self, bytes: u64) {
        self.props.raw_value_bytes = bytes;
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let last_key = self.block.last_key().expect("non-empty block has a last key").to_vec();
        let payload = self.block.finish();
        let handle = self.writer.write_block(&payload)?;
        self.index_entries.push((last_key, handle));
        Ok(())
    }

    /// Finishes the table: writes the index, bloom and properties blocks plus the
    /// footer, syncs the file and returns the final properties and file size.
    pub fn finish(mut self) -> Result<(TableProperties, u64)> {
        self.flush_data_block()?;
        if self.props.num_entries > 0 {
            self.props.largest = InternalKey::decode(&self.last_key);
        }
        let mut index_builder = BlockBuilder::new();
        for (key, handle) in &self.index_entries {
            index_builder.add(key, &handle.encode());
        }
        let index_handle = self.writer.write_block(&index_builder.finish())?;
        let bloom =
            BloomFilter::build_from_hashes(&self.key_hashes, self.options.bloom_bits_per_key);
        let bloom_handle = self.writer.write_block(&bloom.to_bytes())?;
        let props_handle = self.writer.write_block(&self.props.encode())?;
        let footer = Footer { index: index_handle, bloom: bloom_handle, properties: props_handle };
        let size = self.writer.finish(&footer)?;
        Ok((self.props, size))
    }

    /// Abandons the table, removing the partially written file.
    // A partially written table was never installed in any version, so GC
    // cannot know about it; the builder owns the file until `finish`.
    #[allow(clippy::disallowed_methods)]
    pub fn abandon(self) -> Result<()> {
        std::fs::remove_file(&self.path)
            .map_err(|e| Error::io(format!("removing abandoned table {}", self.path.display()), e))
    }

    /// The path of the table being built.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Builds a table at `path` from an already-sorted entry iterator.
///
/// Convenience wrapper used by flush and compaction; returns `None` if the iterator
/// yields no entries (in which case no file is created on disk).
pub fn build_table_from_iter<I>(
    path: impl AsRef<Path>,
    options: TableBuilderOptions,
    entries: I,
) -> Result<Option<(TableProperties, u64)>>
where
    I: IntoIterator<Item = Result<Entry>>,
{
    let mut builder: Option<TableBuilder> = None;
    for entry in entries {
        let entry = entry?;
        if builder.is_none() {
            builder = Some(TableBuilder::create(path.as_ref(), options)?);
        }
        builder.as_mut().expect("just created").add_entry(&entry)?;
    }
    match builder {
        Some(builder) => Ok(Some(builder.finish()?)),
        None => Ok(None),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests remove their own scratch files
mod tests {
    use super::*;
    use crate::reader::Table;
    use crate::SortedTable;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-sstable-builder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn put_key(i: u64, seqno: u64) -> InternalKey {
        InternalKey::new(format!("key-{i:06}").into_bytes(), seqno, ValueKind::Put)
    }

    #[test]
    fn build_and_reopen_small_table() {
        let path = temp_path("small.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        for i in 0..100 {
            builder.add(&put_key(i, i + 1), format!("value-{i}").as_bytes()).unwrap();
        }
        assert_eq!(builder.num_entries(), 100);
        let (props, size) = builder.finish().unwrap();
        assert_eq!(props.num_entries, 100);
        assert_eq!(props.num_tombstones, 0);
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        assert_eq!(props.smallest.as_ref().unwrap().user_key, b"key-000000");
        assert_eq!(props.largest.as_ref().unwrap().user_key, b"key-000099");

        let table = Table::open(&path, None).unwrap();
        for i in 0..100u64 {
            let entry = table.get(format!("key-{i:06}").as_bytes(), u64::MAX).unwrap().unwrap();
            assert_eq!(entry.value, format!("value-{i}").as_bytes());
        }
        assert!(table.get(b"key-000100", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn multi_block_table_spans_blocks() {
        let path = temp_path("multiblock.sst");
        let options = TableBuilderOptions { block_size: 256, bloom_bits_per_key: 10 };
        let mut builder = TableBuilder::create(&path, options).unwrap();
        for i in 0..1_000 {
            builder.add(&put_key(i, i + 1), vec![b'v'; 64].as_slice()).unwrap();
        }
        let (props, _) = builder.finish().unwrap();
        assert_eq!(props.num_entries, 1_000);
        let table = Table::open(&path, None).unwrap();
        // Spot-check keys across the whole range, plus absent keys.
        for i in (0..1_000u64).step_by(37) {
            assert!(table.get(format!("key-{i:06}").as_bytes(), u64::MAX).unwrap().is_some());
        }
        assert!(table.get(b"absent", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn out_of_order_insertion_is_rejected() {
        let path = temp_path("order.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        builder.add(&put_key(5, 1), b"v").unwrap();
        assert!(builder.add(&put_key(4, 1), b"v").is_err());
        // Re-adding the same internal key is also rejected.
        assert!(builder.add(&put_key(5, 1), b"v").is_err());
        builder.abandon().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn tombstones_are_counted() {
        let path = temp_path("tombstones.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        builder.add(&InternalKey::new(b"a".to_vec(), 1, ValueKind::Put), b"v").unwrap();
        builder.add(&InternalKey::new(b"b".to_vec(), 2, ValueKind::Delete), b"").unwrap();
        let (props, _) = builder.finish().unwrap();
        assert_eq!(props.num_entries, 2);
        assert_eq!(props.num_tombstones, 1);
    }

    #[test]
    fn build_from_iter_skips_empty_input() {
        let path = temp_path("empty-iter.sst");
        let result =
            build_table_from_iter(&path, TableBuilderOptions::default(), std::iter::empty())
                .unwrap();
        assert!(result.is_none());
        assert!(!path.exists());
    }

    #[test]
    fn build_from_iter_builds_table() {
        let path = temp_path("from-iter.sst");
        let entries: Vec<Result<Entry>> = (0..50)
            .map(|i| Ok(Entry::put(format!("k{i:04}").into_bytes(), b"v".to_vec(), i + 1)))
            .collect();
        let (props, _) = build_table_from_iter(&path, TableBuilderOptions::default(), entries)
            .unwrap()
            .expect("table built");
        assert_eq!(props.num_entries, 50);
        assert!(path.exists());
    }

    /// The fixed 1 000-entry table of the golden test: 500 user keys, each a
    /// newer version (a tombstone for every fifth key) over an older put.
    fn golden_entries() -> Vec<(InternalKey, Vec<u8>)> {
        let mut entries = Vec::new();
        for i in 0..500u64 {
            let user_key = format!("golden-{i:05}").into_bytes();
            let newer = if i % 5 == 0 {
                (InternalKey::new(user_key.clone(), 1_000 + i, ValueKind::Delete), Vec::new())
            } else {
                let value = format!("new-{i}-{}", "n".repeat((i % 40) as usize));
                (InternalKey::new(user_key.clone(), 1_000 + i, ValueKind::Put), value.into_bytes())
            };
            entries.push(newer);
            let older = InternalKey::new(user_key, i + 1, ValueKind::Put);
            entries.push((older, format!("old-{i}").into_bytes()));
        }
        entries
    }

    #[test]
    fn golden_table_bytes_are_the_same_through_add_and_add_encoded() {
        let build = |name: &str, encoded: bool| {
            let path = temp_path(name);
            let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
            for (key, value) in golden_entries() {
                if encoded {
                    builder.add_encoded(&key.encode(), &value).unwrap();
                } else {
                    builder.add(&key, &value).unwrap();
                }
            }
            let (props, size) = builder.finish().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(size, bytes.len() as u64);
            (props, bytes)
        };
        let (props, bytes) = build("golden-add.sst", false);
        let (encoded_props, encoded_bytes) = build("golden-add-encoded.sst", true);
        assert!(bytes == encoded_bytes, "add and add_encoded must write the same bytes");
        assert_eq!(props, encoded_props, "smallest, largest, counts and HLL registers");
        // The table format is on-disk state: these bytes must never change.
        assert_eq!(bytes.len(), 46_331);
        assert_eq!(triad_common::checksum::crc32c(&bytes), 0x4ab3_b802);
        assert_eq!((props.num_entries, props.num_tombstones), (1_000, 100));
        assert_eq!(
            props.smallest,
            Some(InternalKey::new(b"golden-00000".to_vec(), 1_000, ValueKind::Delete))
        );
        assert_eq!(
            props.largest,
            Some(InternalKey::new(b"golden-00499".to_vec(), 500, ValueKind::Put))
        );
    }

    #[test]
    fn add_encoded_rejects_malformed_and_out_of_order_keys() {
        let path = temp_path("encoded-order.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        assert!(builder.add_encoded(b"short", b"v").is_err(), "no 8-byte trailer");
        let mut bad_kind = put_key(1, 1).encode();
        *bad_kind.last_mut().unwrap() = 9;
        assert!(builder.add_encoded(&bad_kind, b"v").is_err(), "unknown kind tag");
        builder.add_encoded(&put_key(5, 2).encode(), b"v").unwrap();
        assert!(builder.add_encoded(&put_key(5, 2).encode(), b"v").is_err(), "same key twice");
        assert!(builder.add_encoded(&put_key(5, 3).encode(), b"v").is_err(), "newer after older");
        assert!(builder.add_encoded(&put_key(4, 9).encode(), b"v").is_err(), "smaller user key");
        builder.add_encoded(&put_key(5, 1).encode(), b"v").unwrap();
        assert_eq!(builder.num_entries(), 2);
        builder.abandon().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn hll_sketch_tracks_distinct_user_keys() {
        let path = temp_path("hll.sst");
        let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
        for i in 0..2_000u64 {
            builder.add(&put_key(i, i + 1), b"v").unwrap();
        }
        let (props, _) = builder.finish().unwrap();
        let estimate = props.hll.estimate();
        assert!((estimate - 2_000.0).abs() / 2_000.0 < 0.05, "estimate {estimate}");
    }
}
