//! Building regular block-based SSTables.

use std::path::{Path, PathBuf};

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
    last_key: Option<InternalKey>,
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
            last_key: None,
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
        if let Some(last) = &self.last_key {
            if last >= key {
                return Err(Error::InvalidArgument(format!(
                    "table entries must be added in increasing order: {last:?} then {key:?}"
                )));
            }
        }
        let encoded = key.encode();
        self.block.add(&encoded, value);
        self.key_hashes.push(hash64(&key.user_key));
        self.props.hll.add(&key.user_key);
        self.props.num_entries += 1;
        if key.kind == ValueKind::Delete {
            self.props.num_tombstones += 1;
        }
        self.props.raw_key_bytes += key.user_key.len() as u64;
        self.props.raw_value_bytes += value.len() as u64;
        if self.props.smallest.is_none() {
            self.props.smallest = Some(key.clone());
        }
        self.props.largest = Some(key.clone());
        self.last_key = Some(key.clone());

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
