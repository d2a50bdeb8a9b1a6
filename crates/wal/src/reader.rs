//! Reading commit logs: sequential recovery scans and random access by offset.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use triad_common::checksum;
use triad_common::{Error, Result};

use crate::record::{LogRecord, RecordRef};
use crate::RECORD_HEADER_LEN;

/// A record recovered from a sequential scan, together with its offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// Byte offset of the record within the log file.
    pub offset: u64,
    /// The decoded record.
    pub record: LogRecord,
}

/// Outcome of scanning to the end of a log file. Both unclean outcomes carry
/// the offset of the first unreadable record, where the recovered records end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The file ended exactly at a record boundary.
    Clean,
    /// The file ends in an unreadable record with no intact record after it:
    /// what a crash in the middle of an append leaves behind.
    Torn(u64),
    /// An unreadable record with an intact record after it: damage inside
    /// the log, which no torn append can cause. The records after it were
    /// not recovered.
    Corrupt(u64),
}

/// The (unmasked) CRC and the payload length a record header holds.
fn split_header(header: &[u8]) -> (u32, u32) {
    let stored_crc =
        checksum::unmask(u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")));
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    (stored_crc, len)
}

/// Whether `payload` matches the CRC its `header` stores; the CRC covers the
/// length field and the payload.
fn crc_matches(header: &[u8], payload: &[u8]) -> bool {
    let (stored_crc, _) = split_header(header);
    checksum::extend(checksum::crc32c(&header[4..8]), payload) == stored_crc
}

/// Decodes the record framed at `offset` of `buffer`, with its CRC checked;
/// the key and value borrow `buffer`.
///
/// `offset` and the length field come from disk: checked arithmetic keeps a
/// corrupt value from wrapping past the bounds checks, and a record that does
/// not fit in `buffer` is corruption.
fn decode_record_in_buffer(buffer: &[u8], offset: u64) -> Result<RecordRef<'_>> {
    let offset =
        usize::try_from(offset).map_err(|_| Error::corruption("record offset overflows usize"))?;
    let payload_start = offset
        .checked_add(RECORD_HEADER_LEN)
        .filter(|&start| start <= buffer.len())
        .ok_or_else(|| Error::corruption("record header extends past end of log buffer"))?;
    let header = &buffer[offset..payload_start];
    let (_, len) = split_header(header);
    let payload = payload_start
        .checked_add(len as usize)
        .and_then(|end| buffer.get(payload_start..end))
        .ok_or_else(|| Error::corruption("record payload extends past end of log buffer"))?;
    if !crc_matches(header, payload) {
        return Err(Error::corruption(format!("checksum mismatch for record at offset {offset}")));
    }
    RecordRef::parse(payload)
}

/// A span of a sealed commit log, read by [`LogReader::read_range`].
///
/// A log is checksummed per record, not per span, so a chunk's bytes are
/// kept as read, unverified, and can be read only through
/// [`record_at`](Self::record_at), which CRC-checks the record it returns:
/// every reader checks each record it decodes.
#[derive(Debug)]
pub struct LogChunk {
    /// Log offset of the chunk's first byte.
    start: u64,
    /// Length of the whole log, which bounds the end of every record.
    log_len: u64,
    bytes: Vec<u8>,
}

impl LogChunk {
    /// Log offset of the chunk's first byte.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Log offset just past the chunk's last byte.
    pub fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }

    /// Number of bytes the chunk holds.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` when the chunk holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes the record at log offset `offset`, which must lie in this
    /// chunk, with its CRC checked.
    ///
    /// A record that runs past the chunk's end is stitched: its bytes here
    /// and the rest of it, from the chunks `next` returns for the start
    /// offset of each following chunk, are copied into `stitch` and decoded
    /// there. A record that would end past the end of the log is corruption,
    /// as it is for [`LogReader::read_at`].
    pub fn record_at<'a>(
        &'a self,
        offset: u64,
        stitch: &'a mut Vec<u8>,
        next: &mut dyn FnMut(u64) -> Result<Arc<LogChunk>>,
    ) -> Result<RecordRef<'a>> {
        let past_end = || {
            Error::corruption(format!(
                "record at offset {offset} extends past end of log ({} bytes)",
                self.log_len
            ))
        };
        let header_end = offset
            .checked_add(RECORD_HEADER_LEN as u64)
            .filter(|&end| end <= self.log_len)
            .ok_or_else(past_end)?;
        if offset < self.start || offset >= self.end() {
            return Err(Error::corruption(format!(
                "record offset {offset} lies outside the log chunk [{}, {})",
                self.start,
                self.end()
            )));
        }
        let rel = (offset - self.start) as usize;
        let record_end = |header: &[u8]| {
            let (_, len) = split_header(header);
            header_end.checked_add(u64::from(len)).filter(|&end| end <= self.log_len)
        };
        if header_end <= self.end() {
            let end = record_end(&self.bytes[rel..rel + RECORD_HEADER_LEN]).ok_or_else(past_end)?;
            if end <= self.end() {
                return decode_record_in_buffer(&self.bytes, rel as u64);
            }
        }
        stitch.clear();
        stitch.extend_from_slice(&self.bytes[rel..]);
        // The chunk the stitch last copied from, which may hold the header's
        // tail and the payload's head both.
        let mut last: Option<Arc<LogChunk>> = None;
        let mut fill_to = |want: u64, stitch: &mut Vec<u8>| -> Result<()> {
            loop {
                let at = offset + stitch.len() as u64;
                if at >= want {
                    return Ok(());
                }
                let chunk = match last.take().filter(|chunk| at < chunk.end()) {
                    Some(chunk) => chunk,
                    None => next(at)?,
                };
                if at < chunk.start || at >= chunk.end() {
                    return Err(Error::corruption(format!(
                        "log chunk at {} does not continue the record at {offset}",
                        chunk.start
                    )));
                }
                let from = (at - chunk.start) as usize;
                let take = (want - at).min(chunk.end() - at) as usize;
                stitch.extend_from_slice(&chunk.bytes[from..from + take]);
                last = Some(chunk);
            }
        };
        fill_to(header_end, stitch)?;
        let end = record_end(&stitch[..RECORD_HEADER_LEN]).ok_or_else(past_end)?;
        fill_to(end, stitch)?;
        decode_record_in_buffer(stitch, 0)
    }
}

/// A reader over a single commit log file.
#[derive(Debug)]
pub struct LogReader {
    path: PathBuf,
    file: File,
    len: u64,
}

impl LogReader {
    /// Opens a log file for reading.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)
            .map_err(|e| Error::io(format!("opening commit log {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| Error::io(format!("reading metadata of {}", path.display()), e))?
            .len();
        Ok(LogReader { path, file, len })
    }

    /// The length of the log file in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the log file contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the single record that starts at `offset`, with its CRC checked.
    ///
    /// This is the random-access path used by CL-SSTable lookups: the index maps a
    /// key to the offset of its most recent update and the value is read from the
    /// log directly. An offset whose record would end past the end of the log
    /// is corruption, checked before any read.
    pub fn read_at(&self, offset: u64) -> Result<LogRecord> {
        let past_end = || {
            Error::corruption_at(
                format!("record at offset {offset} extends past end of log"),
                &self.path,
            )
        };
        let header_end = offset
            .checked_add(RECORD_HEADER_LEN as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(past_end)?;
        let mut header = [0u8; RECORD_HEADER_LEN];
        self.file.read_exact_at(&mut header, offset).map_err(|e| {
            Error::io(format!("reading record header at {offset} in {}", self.path.display()), e)
        })?;
        let (_, len) = split_header(&header);
        header_end
            .checked_add(u64::from(len))
            .filter(|&end| end <= self.len)
            .ok_or_else(past_end)?;
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact_at(&mut payload, header_end).map_err(|e| {
            Error::io(format!("reading record payload at {offset} in {}", self.path.display()), e)
        })?;
        if !crc_matches(&header, &payload) {
            return Err(Error::corruption_at(
                format!("checksum mismatch for record at offset {offset}"),
                &self.path,
            ));
        }
        LogRecord::decode(&payload)
    }

    /// Reads up to `len` bytes of the log from `offset`, fewer at its end, as
    /// a [`LogChunk`]. An `offset` past the end of the log is corruption.
    pub fn read_range(&self, offset: u64, len: usize) -> Result<LogChunk> {
        let available = self.len.checked_sub(offset).ok_or_else(|| {
            Error::corruption_at(
                format!("log range at offset {offset} starts past end of log"),
                &self.path,
            )
        })?;
        let mut bytes = vec![0u8; available.min(len as u64) as usize];
        self.file.read_exact_at(&mut bytes, offset).map_err(|e| {
            Error::io(format!("reading log range at {offset} in {}", self.path.display()), e)
        })?;
        Ok(LogChunk { start: offset, log_len: self.len, bytes })
    }

    /// Reads the whole log and returns every intact record in write order,
    /// with how the log ends. At the first unreadable record it resyncs: if
    /// an intact record starts anywhere after it the log is corrupt,
    /// otherwise the tail is torn.
    pub fn recover(&self) -> Result<(Vec<RecoveredRecord>, TailStatus)> {
        let len = usize::try_from(self.len)
            .map_err(|_| Error::corruption_at("log larger than memory", &self.path))?;
        let mut bytes = vec![0u8; len];
        self.file
            .read_exact_at(&mut bytes, 0)
            .map_err(|e| Error::io(format!("reading commit log {}", self.path.display()), e))?;
        let mut records = Vec::new();
        let mut offset = 0;
        while offset < len {
            let Ok(record) = decode_record_in_buffer(&bytes, offset as u64) else {
                let resynced =
                    (offset + 1..len).any(|at| decode_record_in_buffer(&bytes, at as u64).is_ok());
                let at = offset as u64;
                let tail = if resynced { TailStatus::Corrupt(at) } else { TailStatus::Torn(at) };
                return Ok((records, tail));
            };
            records.push(RecoveredRecord { offset: offset as u64, record: record.to_record() });
            offset += RECORD_HEADER_LEN + split_header(&bytes[offset..]).1 as usize;
        }
        Ok((records, TailStatus::Clean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogWriter;
    use crate::{log_file_path, RECORD_HEADER_LEN};
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-wal-reader-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_records(path: &Path, count: u64) -> Vec<u64> {
        let mut writer = LogWriter::create(path, 0).unwrap();
        let mut offsets = Vec::new();
        for i in 0..count {
            let record = LogRecord::put(
                i,
                format!("key-{i:04}").into_bytes(),
                format!("value-{i}").into_bytes(),
            );
            offsets.push(writer.append(&record).unwrap());
        }
        writer.seal().unwrap();
        offsets
    }

    #[test]
    fn sequential_scan_recovers_everything_in_order() {
        let dir = temp_dir("scan");
        let path = log_file_path(&dir, 0);
        write_records(&path, 500);
        let reader = LogReader::open(&path).unwrap();
        let (records, tail) = reader.recover().unwrap();
        assert_eq!(records.len(), 500);
        assert_eq!(tail, TailStatus::Clean);
        for (i, recovered) in records.iter().enumerate() {
            assert_eq!(recovered.record.seqno, i as u64);
        }
        assert!(!reader.is_empty());
    }

    #[test]
    fn empty_log_is_clean() {
        let dir = temp_dir("empty");
        let path = log_file_path(&dir, 0);
        LogWriter::create(&path, 0).unwrap().seal().unwrap();
        let reader = LogReader::open(&path).unwrap();
        let (records, tail) = reader.recover().unwrap();
        assert!(records.is_empty());
        assert_eq!(tail, TailStatus::Clean);
        assert!(reader.is_empty());
    }

    #[test]
    fn torn_tail_is_detected_and_ignored() {
        let dir = temp_dir("torn");
        let path = log_file_path(&dir, 0);
        write_records(&path, 10);
        let full_len = std::fs::metadata(&path).unwrap().len();
        // Truncate in the middle of the last record.
        let truncated_len = full_len - 3;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(truncated_len).unwrap();
        drop(file);

        let reader = LogReader::open(&path).unwrap();
        let (records, tail) = reader.recover().unwrap();
        assert_eq!(records.len(), 9, "the torn record must be dropped");
        assert!(matches!(tail, TailStatus::Torn(_)));
    }

    #[test]
    fn a_bad_last_record_is_a_torn_tail() {
        let dir = temp_dir("bad-last");
        let path = log_file_path(&dir, 0);
        let offsets = write_records(&path, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offsets[9] as usize + RECORD_HEADER_LEN + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (records, tail) = LogReader::open(&path).unwrap().recover().unwrap();
        assert_eq!(records.len(), 9);
        assert_eq!(tail, TailStatus::Torn(offsets[9]));
    }

    #[test]
    fn corrupt_record_stops_recovery() {
        let dir = temp_dir("corrupt");
        let path = log_file_path(&dir, 0);
        let offsets = write_records(&path, 10);
        // Flip a byte inside the payload of the 6th record.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = offsets[5] as usize + RECORD_HEADER_LEN + 2;
        bytes[target] ^= 0xff;
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().write_all(&bytes).unwrap();

        // Intact records follow the bad one: corruption, not a torn tail.
        let reader = LogReader::open(&path).unwrap();
        let (records, tail) = reader.recover().unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(tail, TailStatus::Corrupt(offsets[5]));
    }

    #[test]
    fn read_at_detects_corruption() {
        let dir = temp_dir("read-at");
        let path = log_file_path(&dir, 0);
        let offsets = write_records(&path, 3);
        let reader = LogReader::open(&path).unwrap();
        assert_eq!(reader.read_at(offsets[2]).unwrap().seqno, 2);

        let mut bytes = std::fs::read(&path).unwrap();
        let target = offsets[1] as usize + RECORD_HEADER_LEN + 1;
        bytes[target] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let reader = LogReader::open(&path).unwrap();
        let err = reader.read_at(offsets[1]).unwrap_err();
        assert!(err.is_corruption());
        // Other records remain readable.
        assert_eq!(reader.read_at(offsets[0]).unwrap().seqno, 0);
    }

    #[test]
    fn buffered_decode_matches_positioned_reads() {
        let dir = temp_dir("buffered");
        let path = log_file_path(&dir, 0);
        let offsets = write_records(&path, 20);
        let reader = LogReader::open(&path).unwrap();
        let buffer = std::fs::read(&path).unwrap();
        assert_eq!(buffer.len() as u64, reader.len());
        for &offset in &offsets {
            let from_buffer = super::decode_record_in_buffer(&buffer, offset).unwrap();
            let from_file = reader.read_at(offset).unwrap();
            assert_eq!(from_buffer.to_record(), from_file);
        }
        // Out-of-bounds and corrupt offsets are rejected.
        assert!(super::decode_record_in_buffer(&buffer, buffer.len() as u64).is_err());
        assert!(super::decode_record_in_buffer(&buffer, offsets[1] + 1).is_err());
        // A corrupt offset near u64::MAX must not wrap `offset + header`.
        for offset in [u64::MAX, u64::MAX - RECORD_HEADER_LEN as u64 + 1] {
            let err = super::decode_record_in_buffer(&buffer, offset).unwrap_err();
            assert!(err.is_corruption(), "offset {offset}");
        }
    }

    #[test]
    fn read_at_rejects_out_of_bounds_record() {
        let dir = temp_dir("oob");
        let path = log_file_path(&dir, 0);
        let offsets = write_records(&path, 2);
        // Truncate so the second record extends past EOF.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(offsets[1] + 9).unwrap();
        drop(file);
        let reader = LogReader::open(&path).unwrap();
        assert!(reader.read_at(offsets[1]).unwrap_err().is_corruption());
        // An offset at or past the end of the log is corruption too, never an
        // I/O error from a short read, and must not wrap `offset + header`.
        let len = reader.len();
        for offset in [len, len + 100, u64::MAX - 3, u64::MAX] {
            let err = reader.read_at(offset).unwrap_err();
            assert!(err.is_corruption(), "offset {offset}: {err}");
        }
    }

    /// Writes `count` records with values of 100 to 600 bytes; returns their
    /// offsets.
    fn write_varied_records(path: &Path, count: u64) -> Vec<u64> {
        let mut writer = LogWriter::create(path, 0).unwrap();
        let offsets = (0..count)
            .map(|i| {
                let value = vec![b'a' + (i % 26) as u8; 100 + (i as usize * 37) % 501];
                writer
                    .append(&LogRecord::put(i, format!("key-{i:04}").into_bytes(), value))
                    .unwrap()
            })
            .collect();
        writer.seal().unwrap();
        offsets
    }

    /// Decodes the record at `offset` from `chunk_len`-byte chunks of `reader`.
    fn record_from_chunks(reader: &LogReader, chunk_len: u64, offset: u64) -> Result<LogRecord> {
        let chunk = |start: u64| reader.read_range(start, chunk_len as usize).map(Arc::new);
        let first = chunk(offset / chunk_len * chunk_len)?;
        let mut stitch = Vec::new();
        let mut next = |start| chunk(start);
        first.record_at(offset, &mut stitch, &mut next).map(|record| record.to_record())
    }

    #[test]
    fn chunked_decode_stitches_records_across_chunk_boundaries() {
        let dir = temp_dir("chunks");
        let path = log_file_path(&dir, 0);
        let offsets = write_varied_records(&path, 60);
        let reader = LogReader::open(&path).unwrap();
        // Chunks smaller than a header, than a record, and larger than both.
        for chunk_len in [5, 64, 300, 4096] {
            let mut stitched = 0;
            for &offset in &offsets {
                let expected = reader.read_at(offset).unwrap();
                assert_eq!(record_from_chunks(&reader, chunk_len, offset).unwrap(), expected);
                let end = offset + (RECORD_HEADER_LEN + expected.encoded_len()) as u64;
                stitched += usize::from(offset / chunk_len != (end - 1) / chunk_len);
            }
            assert!(stitched > 0, "chunk length {chunk_len}: some record straddles a boundary");
        }
    }

    #[test]
    fn chunked_decode_checks_the_crc_and_the_log_bounds() {
        let dir = temp_dir("chunks-corrupt");
        let path = log_file_path(&dir, 0);
        let offsets = write_varied_records(&path, 20);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte near the end of record 7's payload, past a 64-byte
        // chunk boundary from its start.
        bytes[offsets[8] as usize - 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let reader = LogReader::open(&path).unwrap();
        for chunk_len in [64, 4096] {
            assert!(record_from_chunks(&reader, chunk_len, offsets[7])
                .unwrap_err()
                .is_corruption());
            assert!(record_from_chunks(&reader, chunk_len, offsets[6]).is_ok());
            // Offsets at or past the end of the log: the same class as `read_at`.
            let len = reader.len();
            for offset in [len - 3, len, len + 100, u64::MAX - 3, u64::MAX] {
                let err = record_from_chunks(&reader, chunk_len, offset).unwrap_err();
                assert!(err.is_corruption(), "chunk {chunk_len}, offset {offset}: {err}");
            }
        }
        // A range past the end of the log is corruption; one at its end is empty.
        assert!(reader.read_range(reader.len() + 1, 10).unwrap_err().is_corruption());
        assert!(reader.read_range(reader.len(), 10).unwrap().is_empty());
    }
}
