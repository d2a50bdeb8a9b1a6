//! Low-level file format pieces: block handles, checksummed block I/O and the footer.
//!
//! Every block (data, index, bloom, properties) is written as `payload ++ masked
//! CRC32C(payload)`. The footer is a fixed-size trailer at the end of the file that
//! locates the index, bloom and properties blocks and carries a magic number.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use triad_common::checksum;
use triad_common::{Error, Result};

use crate::block::Block;

/// Magic number identifying TRIAD table files ("TRIADSST" interpreted as bytes).
pub const TABLE_MAGIC: u64 = 0x5452_4941_4453_5354;

/// Number of bytes appended to every block for its checksum.
pub const BLOCK_TRAILER_LEN: usize = 4;

/// Serialized size of the [`Footer`].
pub const FOOTER_LEN: usize = 7 * 8;

/// The location of a block within a table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block payload.
    pub offset: u64,
    /// Length of the block payload, excluding the checksum trailer.
    pub size: u64,
}

impl BlockHandle {
    /// Creates a handle.
    pub fn new(offset: u64, size: u64) -> Self {
        BlockHandle { offset, size }
    }

    /// Serializes the handle as two little-endian `u64`s.
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..].copy_from_slice(&self.size.to_le_bytes());
        out
    }

    /// Parses a handle from its 16-byte encoding.
    pub fn decode(bytes: &[u8]) -> Result<BlockHandle> {
        if bytes.len() < 16 {
            return Err(Error::corruption("block handle shorter than 16 bytes"));
        }
        Ok(BlockHandle {
            offset: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            size: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        })
    }
}

/// The fixed-size footer stored at the end of every table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the index block.
    pub index: BlockHandle,
    /// Handle of the bloom filter block.
    pub bloom: BlockHandle,
    /// Handle of the properties block.
    pub properties: BlockHandle,
}

impl Footer {
    /// Serializes the footer to its fixed-length representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_LEN);
        out.extend_from_slice(&self.index.encode());
        out.extend_from_slice(&self.bloom.encode());
        out.extend_from_slice(&self.properties.encode());
        out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        out
    }

    /// Parses a footer from the last [`FOOTER_LEN`] bytes of a table file.
    pub fn decode(bytes: &[u8]) -> Result<Footer> {
        if bytes.len() != FOOTER_LEN {
            return Err(Error::corruption(format!(
                "footer must be {FOOTER_LEN} bytes, got {}",
                bytes.len()
            )));
        }
        let magic = u64::from_le_bytes(bytes[48..56].try_into().expect("8 bytes"));
        if magic != TABLE_MAGIC {
            return Err(Error::corruption(format!("bad table magic {magic:#x}")));
        }
        Ok(Footer {
            index: BlockHandle::decode(&bytes[0..16])?,
            bloom: BlockHandle::decode(&bytes[16..32])?,
            properties: BlockHandle::decode(&bytes[32..48])?,
        })
    }
}

/// Size of the buffer a [`BlockFileWriter`] writes through: one `write(2)`
/// per this many bytes instead of two per block (payload, then checksum).
pub const WRITE_BUFFER_LEN: usize = 256 * 1024;

/// A file being written block by block, through one [`WRITE_BUFFER_LEN`] buffer.
#[derive(Debug)]
pub struct BlockFileWriter {
    file: BufWriter<File>,
    offset: u64,
    path: std::path::PathBuf,
}

impl BlockFileWriter {
    /// Creates the file at `path`, failing if it already exists.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating table file {}", path.display()), e))?;
        Ok(BlockFileWriter {
            file: BufWriter::with_capacity(WRITE_BUFFER_LEN, file),
            offset: 0,
            path,
        })
    }

    /// Total bytes written so far, buffered bytes included.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Writes `payload` as a checksummed block and returns its handle.
    pub fn write_block(&mut self, payload: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle::new(self.offset, payload.len() as u64);
        let crc = checksum::mask(checksum::crc32c(payload));
        self.file
            .write_all(payload)
            .and_then(|_| self.file.write_all(&crc.to_le_bytes()))
            .map_err(|e| Error::io(format!("writing block to {}", self.path.display()), e))?;
        self.offset += payload.len() as u64 + BLOCK_TRAILER_LEN as u64;
        Ok(handle)
    }

    /// Writes the footer, flushes the buffer, syncs the file and returns its
    /// final size.
    pub fn finish(mut self, footer: &Footer) -> Result<u64> {
        let encoded = footer.encode();
        self.file
            .write_all(&encoded)
            .and_then(|_| self.file.flush())
            .map_err(|e| Error::io(format!("writing footer to {}", self.path.display()), e))?;
        self.offset += encoded.len() as u64;
        self.file
            .get_ref()
            .sync_all()
            .map_err(|e| Error::io(format!("syncing table file {}", self.path.display()), e))?;
        Ok(self.offset)
    }
}

/// A block whose every byte passed a check before it was decoded, the only
/// kind the shared block cache ([`BlockFetch`](crate::BlockFetch)) accepts:
/// a cached block is served to every reader without re-verification, so an
/// unverified insert would spread corruption. Two paths construct one:
///
/// * [`BlockFileReader::read_verified_block`], a data block whose bytes
///   passed [`BlockFileReader::read_block`]'s CRC32C check;
/// * `ClTable::resolved_block`'s loader, a CL-SSTable index block (itself
///   read verified) with each put's value filled in from a commit-log record
///   that passed its CRC and the index→log key check.
#[derive(Debug)]
pub struct VerifiedBlock(Block);

impl VerifiedBlock {
    /// The decoded block.
    pub fn into_block(self) -> Block {
        self.0
    }

    /// Wraps a CL-SSTable's resolved block. Only `cl_table.rs` calls this,
    /// after checking every record the block's values came from.
    pub(crate) fn resolved(block: Block) -> VerifiedBlock {
        VerifiedBlock(block)
    }
}

/// A random-access reader over a block file.
#[derive(Debug)]
pub struct BlockFileReader {
    file: File,
    len: u64,
    path: std::path::PathBuf,
}

impl BlockFileReader {
    /// Opens `path` for reading.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)
            .map_err(|e| Error::io(format!("opening table file {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| Error::io(format!("reading metadata of {}", path.display()), e))?
            .len();
        Ok(BlockFileReader { file, len, path })
    }

    /// The total length of the file in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The path of the file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads and checksum-verifies the block at `handle`.
    ///
    /// The payload is verified in the read buffer, which is then truncated to
    /// the payload and returned, so a block costs one allocation and no copy.
    pub fn read_block(&self, handle: BlockHandle) -> Result<Vec<u8>> {
        // `handle` comes from disk: a corrupt size must not wrap the arithmetic.
        let end = handle
            .size
            .checked_add(BLOCK_TRAILER_LEN as u64)
            .and_then(|total| handle.offset.checked_add(total));
        let size = usize::try_from(handle.size).ok().filter(|_| end.is_some_and(|e| e <= self.len));
        let Some(size) = size else {
            return Err(Error::corruption_at(
                format!("block handle {handle:?} extends past end of file"),
                &self.path,
            ));
        };
        let mut buf = vec![0u8; size + BLOCK_TRAILER_LEN];
        self.file.read_exact_at(&mut buf, handle.offset).map_err(|e| {
            Error::io(format!("reading block at {} in {}", handle.offset, self.path.display()), e)
        })?;
        let stored = checksum::unmask(u32::from_le_bytes(buf[size..].try_into().expect("4 bytes")));
        if checksum::crc32c(&buf[..size]) != stored {
            return Err(Error::corruption_at(
                format!("checksum mismatch for block at offset {}", handle.offset),
                &self.path,
            ));
        }
        buf.truncate(size);
        Ok(buf)
    }

    /// Reads, checksum-verifies and decodes the data block at `handle`: the
    /// one way to make a [`VerifiedBlock`] from a table file's bytes.
    pub fn read_verified_block(&self, handle: BlockHandle) -> Result<VerifiedBlock> {
        Ok(VerifiedBlock(Block::new(self.read_block(handle)?)?))
    }

    /// Reads and validates the footer.
    pub fn read_footer(&self) -> Result<Footer> {
        if self.len < FOOTER_LEN as u64 {
            return Err(Error::corruption_at("file too small to contain a footer", &self.path));
        }
        let mut buf = vec![0u8; FOOTER_LEN];
        self.file
            .read_exact_at(&mut buf, self.len - FOOTER_LEN as u64)
            .map_err(|e| Error::io(format!("reading footer of {}", self.path.display()), e))?;
        Footer::decode(&buf)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests remove their own scratch files
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("triad-sstable-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn block_handle_round_trip() {
        let handle = BlockHandle::new(12345, 678);
        assert_eq!(BlockHandle::decode(&handle.encode()).unwrap(), handle);
        assert!(BlockHandle::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn footer_round_trip_and_magic_check() {
        let footer = Footer {
            index: BlockHandle::new(1, 2),
            bloom: BlockHandle::new(3, 4),
            properties: BlockHandle::new(5, 6),
        };
        let encoded = footer.encode();
        assert_eq!(encoded.len(), FOOTER_LEN);
        assert_eq!(Footer::decode(&encoded).unwrap(), footer);

        let mut bad_magic = encoded.clone();
        bad_magic[50] ^= 0xff;
        assert!(Footer::decode(&bad_magic).is_err());
        assert!(Footer::decode(&encoded[..40]).is_err());
    }

    #[test]
    fn write_and_read_blocks() {
        let path = temp_file("blocks.sst");
        let mut writer = BlockFileWriter::create(&path).unwrap();
        let h1 = writer.write_block(b"first block payload").unwrap();
        let h2 = writer.write_block(b"second").unwrap();
        let footer = Footer { index: h1, bloom: h2, properties: h2 };
        let size = writer.finish(&footer).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());

        let reader = BlockFileReader::open(&path).unwrap();
        assert!(!reader.is_empty());
        assert_eq!(reader.read_block(h1).unwrap(), b"first block payload");
        assert_eq!(reader.read_block(h2).unwrap(), b"second");
        let recovered_footer = reader.read_footer().unwrap();
        assert_eq!(recovered_footer, footer);
    }

    #[test]
    fn blocks_spanning_many_write_buffers_round_trip() {
        let path = temp_file("buffered.sst");
        let mut writer = BlockFileWriter::create(&path).unwrap();
        // Small blocks fill and flush the buffer many times over; one block is
        // larger than the whole buffer.
        let payloads: Vec<Vec<u8>> = (0..200u32)
            .map(|i| vec![i as u8; if i == 100 { WRITE_BUFFER_LEN + 17 } else { 4093 }])
            .collect();
        let handles: Vec<BlockHandle> =
            payloads.iter().map(|payload| writer.write_block(payload).unwrap()).collect();
        let footer = Footer { index: handles[0], bloom: handles[1], properties: handles[2] };
        let size = writer.finish(&footer).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());

        let reader = BlockFileReader::open(&path).unwrap();
        assert_eq!(reader.read_footer().unwrap(), footer);
        for (handle, payload) in handles.iter().zip(&payloads) {
            assert_eq!(&reader.read_block(*handle).unwrap(), payload);
        }
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = temp_file("no-overwrite.sst");
        let _writer = BlockFileWriter::create(&path).unwrap();
        assert!(BlockFileWriter::create(&path).is_err());
    }

    #[test]
    fn corrupt_block_is_detected() {
        let path = temp_file("corrupt.sst");
        let mut writer = BlockFileWriter::create(&path).unwrap();
        let handle = writer.write_block(b"sensitive payload").unwrap();
        let footer = Footer { index: handle, bloom: handle, properties: handle };
        writer.finish(&footer).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reader = BlockFileReader::open(&path).unwrap();
        assert!(reader.read_block(handle).unwrap_err().is_corruption());
    }

    #[test]
    fn out_of_bounds_handle_is_rejected() {
        let path = temp_file("oob.sst");
        let mut writer = BlockFileWriter::create(&path).unwrap();
        let handle = writer.write_block(b"x").unwrap();
        writer.finish(&Footer { index: handle, bloom: handle, properties: handle }).unwrap();
        let reader = BlockFileReader::open(&path).unwrap();
        assert!(reader.read_block(BlockHandle::new(10_000, 100)).is_err());
        // A corrupt size near u64::MAX must not wrap `size + trailer`.
        for size in [u64::MAX, u64::MAX - BLOCK_TRAILER_LEN as u64 + 1] {
            assert!(reader.read_block(BlockHandle::new(0, size)).unwrap_err().is_corruption());
        }
        assert!(reader.read_block(BlockHandle::new(u64::MAX, 1)).unwrap_err().is_corruption());
    }

    #[test]
    fn footer_of_tiny_file_is_rejected() {
        let path = temp_file("tiny.sst");
        std::fs::write(&path, b"tiny").unwrap();
        let reader = BlockFileReader::open(&path).unwrap();
        assert!(reader.read_footer().is_err());
    }
}
