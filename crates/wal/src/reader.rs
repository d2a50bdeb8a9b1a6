//! Reading commit logs: sequential recovery scans and random access by offset.

use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use triad_common::checksum;
use triad_common::{Error, Result};

use crate::record::LogRecord;
use crate::RECORD_HEADER_LEN;

/// A record recovered from a sequential scan, together with its offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// Byte offset of the record within the log file.
    pub offset: u64,
    /// The decoded record.
    pub record: LogRecord,
}

/// Outcome of scanning to the end of a log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The file ended exactly at a record boundary.
    Clean,
    /// The file ended with a torn or corrupt record that was ignored.
    ///
    /// The payload is the offset at which valid data ends.
    Truncated(u64),
}

/// Decodes the record starting at `offset` inside an in-memory copy of a log file.
///
/// Used by bulk consumers (CL-SSTable iteration during compaction) that read the
/// whole sealed log once instead of issuing one positioned read per record.
pub fn decode_record_in_buffer(buffer: &[u8], offset: u64) -> Result<LogRecord> {
    // `offset` and the length field come from disk: checked arithmetic keeps a
    // corrupt value from wrapping past the bounds checks.
    let offset =
        usize::try_from(offset).map_err(|_| Error::corruption("record offset overflows usize"))?;
    let payload_start = offset
        .checked_add(RECORD_HEADER_LEN)
        .filter(|&start| start <= buffer.len())
        .ok_or_else(|| Error::corruption("record header extends past end of log buffer"))?;
    let header = &buffer[offset..payload_start];
    let stored_crc =
        checksum::unmask(u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")));
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    let payload = payload_start
        .checked_add(len)
        .and_then(|end| buffer.get(payload_start..end))
        .ok_or_else(|| Error::corruption("record payload extends past end of log buffer"))?;
    let mut crc = checksum::crc32c(&header[4..8]);
    crc = checksum::extend(crc, payload);
    if crc != stored_crc {
        return Err(Error::corruption(format!("checksum mismatch for record at offset {offset}")));
    }
    LogRecord::decode(payload)
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

    /// Reads the single record that starts at `offset`.
    ///
    /// This is the random-access path used by CL-SSTable lookups: the index maps a
    /// key to the offset of its most recent update and the value is read from the
    /// log directly.
    pub fn read_at(&self, offset: u64) -> Result<LogRecord> {
        let mut header = [0u8; RECORD_HEADER_LEN];
        self.file.read_exact_at(&mut header, offset).map_err(|e| {
            Error::io(format!("reading record header at {offset} in {}", self.path.display()), e)
        })?;
        let stored_crc =
            checksum::unmask(u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        if offset + (RECORD_HEADER_LEN + len) as u64 > self.len {
            return Err(Error::corruption_at(
                format!("record at offset {offset} extends past end of log"),
                &self.path,
            ));
        }
        let mut payload = vec![0u8; len];
        self.file.read_exact_at(&mut payload, offset + RECORD_HEADER_LEN as u64).map_err(|e| {
            Error::io(format!("reading record payload at {offset} in {}", self.path.display()), e)
        })?;
        let mut crc = checksum::crc32c(&header[4..8]);
        crc = checksum::extend(crc, &payload);
        if crc != stored_crc {
            return Err(Error::corruption_at(
                format!("checksum mismatch for record at offset {offset}"),
                &self.path,
            ));
        }
        LogRecord::decode(&payload)
    }

    /// Reads the entire log file into memory; pair with [`decode_record_in_buffer`]
    /// for bulk offset-based access.
    pub fn read_to_buffer(&self) -> Result<Vec<u8>> {
        std::fs::read(&self.path)
            .map_err(|e| Error::io(format!("reading commit log {}", self.path.display()), e))
    }

    /// Iterates over every intact record in the log in write order.
    ///
    /// The iterator stops silently at the first torn/corrupt record, mirroring how
    /// LSM stores recover from a crash mid-append; use [`LogReader::recover`] to also
    /// learn whether the tail was clean.
    pub fn iter(&self) -> Result<LogIterator> {
        let file = File::open(&self.path)
            .map_err(|e| Error::io(format!("opening commit log {}", self.path.display()), e))?;
        Ok(LogIterator {
            reader: std::io::BufReader::new(file),
            path: self.path.clone(),
            offset: 0,
            len: self.len,
            done: false,
            tail: TailStatus::Clean,
        })
    }

    /// Scans the whole log, returning every intact record and the tail status.
    pub fn recover(&self) -> Result<(Vec<RecoveredRecord>, TailStatus)> {
        let mut iter = self.iter()?;
        let mut records = Vec::new();
        for item in &mut iter {
            records.push(item?);
        }
        Ok((records, iter.tail_status()))
    }
}

/// Sequential iterator over the records of a log file.
#[derive(Debug)]
pub struct LogIterator {
    reader: std::io::BufReader<File>,
    path: PathBuf,
    offset: u64,
    len: u64,
    done: bool,
    tail: TailStatus,
}

impl LogIterator {
    /// The tail status observed so far; meaningful once iteration has finished.
    pub fn tail_status(&self) -> TailStatus {
        self.tail
    }

    fn read_next(&mut self) -> Result<Option<RecoveredRecord>> {
        if self.done || self.offset >= self.len {
            self.done = true;
            return Ok(None);
        }
        let start = self.offset;
        if self.len - start < RECORD_HEADER_LEN as u64 {
            self.tail = TailStatus::Truncated(start);
            self.done = true;
            return Ok(None);
        }
        let mut header = [0u8; RECORD_HEADER_LEN];
        self.reader.read_exact(&mut header).map_err(|e| {
            Error::io(format!("reading header at {start} in {}", self.path.display()), e)
        })?;
        let stored_crc =
            checksum::unmask(u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as u64;
        if start + RECORD_HEADER_LEN as u64 + payload_len > self.len {
            // Torn append: the process crashed while writing this record.
            self.tail = TailStatus::Truncated(start);
            self.done = true;
            return Ok(None);
        }
        let mut payload = vec![0u8; payload_len as usize];
        self.reader.read_exact(&mut payload).map_err(|e| {
            Error::io(format!("reading payload at {start} in {}", self.path.display()), e)
        })?;
        let mut crc = checksum::crc32c(&header[4..8]);
        crc = checksum::extend(crc, &payload);
        if crc != stored_crc {
            self.tail = TailStatus::Truncated(start);
            self.done = true;
            return Ok(None);
        }
        let record = match LogRecord::decode(&payload) {
            Ok(record) => record,
            Err(_) => {
                self.tail = TailStatus::Truncated(start);
                self.done = true;
                return Ok(None);
            }
        };
        self.offset = start + RECORD_HEADER_LEN as u64 + payload_len;
        Ok(Some(RecoveredRecord { offset: start, record }))
    }
}

impl Iterator for LogIterator {
    type Item = Result<RecoveredRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.read_next() {
            Ok(Some(item)) => Some(Ok(item)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
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
        assert!(matches!(tail, TailStatus::Truncated(_)));
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

        let reader = LogReader::open(&path).unwrap();
        let (records, tail) = reader.recover().unwrap();
        assert_eq!(records.len(), 5);
        assert!(matches!(tail, TailStatus::Truncated(offset) if offset == offsets[5]));
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
        let buffer = reader.read_to_buffer().unwrap();
        assert_eq!(buffer.len() as u64, reader.len());
        for &offset in &offsets {
            let from_buffer = super::decode_record_in_buffer(&buffer, offset).unwrap();
            let from_file = reader.read_at(offset).unwrap();
            assert_eq!(from_buffer, from_file);
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
        assert!(reader.read_at(offsets[1]).is_err());
    }
}
