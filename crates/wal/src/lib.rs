//! The commit log (write-ahead log) of the TRIAD engine.
//!
//! Every update is appended to the current commit log before being inserted into the
//! memory component, so that acknowledged writes survive a crash. TRIAD-LOG gives
//! the commit log a second life: when the memory component is flushed, the sealed
//! log file itself becomes the backing store of an L0 "CL-SSTable" and only a small
//! sorted index of `(key → offset)` pairs is written, avoiding the duplicate write
//! of every value.
//!
//! To support that, the log is *offset addressable*: [`LogWriter::append`] returns
//! the byte offset of the record it wrote, and [`LogReader::read_at`] fetches a
//! single record back by offset. Readers of many records read a sealed log
//! in [`LogChunk`]s instead ([`LogReader::read_range`]): a chunk's bytes are
//! read only through [`LogChunk::record_at`], which CRC-checks each record it
//! decodes.
//!
//! ## On-disk format
//!
//! A log file is a sequence of records:
//!
//! ```text
//! +----------------+------------------+---------------------+
//! | masked CRC32C  | payload length   | payload             |
//! | (4 bytes, LE)  | (4 bytes, LE)    | (length bytes)      |
//! +----------------+------------------+---------------------+
//! ```
//!
//! The CRC covers the length field and the payload, so a torn write at the tail of
//! the file is detected and recovery stops cleanly at the last intact record.
//! A bad record with an intact record after it is reported as corruption
//! instead ([`TailStatus::Corrupt`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reader;
mod record;
mod writer;

pub use reader::{LogChunk, LogReader, RecoveredRecord, TailStatus};
pub use record::{
    encode_record_parts, encode_record_parts_stamped, BatchStamp, LogRecord, RecordRef,
};
pub use writer::{BatchEncoder, LogAppender, LogSyncHandle, LogWriter};

use std::path::{Path, PathBuf};

/// Size of the fixed record header (CRC + length).
pub const RECORD_HEADER_LEN: usize = 8;

/// Returns the canonical file name for commit log `id`, e.g. `000042.log`.
pub fn log_file_name(id: u64) -> String {
    format!("{id:06}.log")
}

/// Returns the full path of commit log `id` inside `dir`.
pub fn log_file_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(log_file_name(id))
}

/// Parses a commit log id back out of a file name produced by [`log_file_name`].
pub fn parse_log_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".log")?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_round_trip() {
        for id in [0u64, 1, 42, 999_999, 1_000_000, u64::from(u32::MAX)] {
            let name = log_file_name(id);
            assert!(name.ends_with(".log"));
            assert_eq!(parse_log_file_name(&name), Some(id));
        }
    }

    #[test]
    fn parse_rejects_non_log_names() {
        assert_eq!(parse_log_file_name("000001.sst"), None);
        assert_eq!(parse_log_file_name("abc.log"), None);
        assert_eq!(parse_log_file_name(".log"), None);
        assert_eq!(parse_log_file_name("12x4.log"), None);
    }

    #[test]
    fn path_is_inside_dir() {
        let path = log_file_path(Path::new("/data/triad"), 7);
        assert_eq!(path, PathBuf::from("/data/triad/000007.log"));
    }
}
