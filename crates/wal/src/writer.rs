//! Appending records to a commit log file.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use triad_common::checksum;
use triad_common::{Error, Result};

use crate::record::LogRecord;
use crate::RECORD_HEADER_LEN;

/// Computes the framing header for a record payload: `(masked CRC, length)`,
/// both little-endian. The CRC covers the length field and the payload. This is
/// the single definition of the on-disk frame; the per-record and batched
/// append paths must stay byte-identical, so both go through here.
fn frame_header(payload: &[u8]) -> Result<([u8; 4], [u8; 4])> {
    let len = u32::try_from(payload.len())
        .map_err(|_| Error::InvalidArgument("commit log record exceeds 4 GiB".to_string()))?;
    let len_bytes = len.to_le_bytes();
    let crc = checksum::extend(checksum::crc32c(&len_bytes), payload);
    Ok((checksum::mask(crc).to_le_bytes(), len_bytes))
}

/// A reusable buffer that frames many [`LogRecord`]s for one batched append.
///
/// The commit write path encodes every record of a write batch into a single
/// `BatchEncoder` and hands it to [`LogWriter::append_batch`], turning N small
/// framed writes into one `write_all`. The internal buffers are retained
/// across [`clear`](BatchEncoder::clear) calls, so a long-lived encoder stops
/// allocating once it has seen its largest batch.
#[derive(Debug, Default)]
pub struct BatchEncoder {
    /// Fully framed bytes (CRC + length + payload per record), ready to write.
    framed: Vec<u8>,
    /// Offset of each record's frame relative to the start of the buffer.
    offsets: Vec<u64>,
}

impl BatchEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all encoded records but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.framed.clear();
        self.offsets.clear();
    }

    /// Frames `record` — its cross-shard [`BatchStamp`](crate::BatchStamp)
    /// included, if any — and returns its offset relative to the batch start.
    ///
    /// The absolute file offset is this value plus the start offset returned by
    /// [`LogWriter::append_batch`].
    pub fn add(&mut self, record: &LogRecord) -> Result<u64> {
        self.add_parts_stamped(record.seqno, record.kind, &record.key, &record.value, record.stamp)
    }

    /// Frames a record given as borrowed parts — the clone-free variant of
    /// [`add`](Self::add) used when the key and value live in a caller's batch.
    pub fn add_parts(
        &mut self,
        seqno: triad_common::types::SeqNo,
        kind: triad_common::types::ValueKind,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64> {
        self.add_parts_stamped(seqno, kind, key, value, None)
    }

    /// [`add_parts`](Self::add_parts) with an optional cross-shard
    /// [`BatchStamp`](crate::BatchStamp) appended to the record payload.
    pub fn add_parts_stamped(
        &mut self,
        seqno: triad_common::types::SeqNo,
        kind: triad_common::types::ValueKind,
        key: &[u8],
        value: &[u8],
        stamp: Option<crate::BatchStamp>,
    ) -> Result<u64> {
        // The payload is encoded in place behind a placeholder header, which
        // is filled in once the payload's length and CRC are known.
        let start = self.framed.len();
        self.framed.extend_from_slice(&[0; RECORD_HEADER_LEN]);
        crate::record::encode_record_parts_stamped(
            &mut self.framed,
            seqno,
            kind,
            key,
            value,
            stamp,
        );
        let (crc_bytes, len_bytes) = match frame_header(&self.framed[start + RECORD_HEADER_LEN..]) {
            Ok(header) => header,
            Err(error) => {
                self.framed.truncate(start);
                return Err(error);
            }
        };
        self.framed[start..start + 4].copy_from_slice(&crc_bytes);
        self.framed[start + 4..start + RECORD_HEADER_LEN].copy_from_slice(&len_bytes);
        self.offsets.push(start as u64);
        Ok(start as u64)
    }

    /// Number of records framed so far.
    pub fn record_count(&self) -> usize {
        self.offsets.len()
    }

    /// Returns `true` when no records are framed.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total framed bytes (headers included) — exactly what the append will write.
    pub fn encoded_bytes(&self) -> u64 {
        self.framed.len() as u64
    }

    /// Offsets of every framed record relative to the batch start, in add order.
    pub fn relative_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The framed bytes.
    pub fn framed_bytes(&self) -> &[u8] {
        &self.framed
    }
}

/// A shared reference to a log file that only ever writes through it.
///
/// [`LogWriter`] buffers appends in a `BufWriter` over this wrapper while keeping a
/// second [`Arc`] to the same [`File`] for [`LogSyncHandle`]: `write`/`flush` go
/// through `&File` (which implements [`Write`]), and `sync_data` takes `&self`, so a
/// sync handle can fsync the file concurrently with buffered appends without any
/// lock on the writer itself.
#[derive(Debug)]
struct SharedFile(Arc<File>);

impl Write for SharedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self.0).flush()
    }
}

/// A clonable handle that can fsync a commit log without exclusive access to its
/// [`LogWriter`].
///
/// This is what makes a *pipelined* commit possible: the writer's append lock is
/// released after the buffered append + OS flush, and the durability stage issues
/// the fsync through this handle while the next group is already appending. The
/// fsync covers every byte written to the file before the `sync_data` call, i.e.
/// everything a preceding [`LogWriter::flush`] pushed to the OS.
#[derive(Debug, Clone)]
pub struct LogSyncHandle {
    path: PathBuf,
    file: Arc<File>,
}

impl LogSyncHandle {
    /// Fsyncs the log file (data only; the engine never relies on metadata sync
    /// for commit-log durability — file length is recovered by scanning frames).
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| Error::io(format!("syncing commit log {}", self.path.display()), e))
    }
}

/// An append-only writer for a single commit log file.
///
/// The writer buffers records in user space; [`LogWriter::flush`] pushes them to the
/// OS and [`LogWriter::sync`] additionally issues an `fsync`. The engine decides how
/// often to call each based on its durability configuration. For pipelined commits,
/// [`LogWriter::sync_handle`] hands out a shared handle that fsyncs the same file
/// without holding the writer.
#[derive(Debug)]
pub struct LogWriter {
    id: u64,
    path: PathBuf,
    file: BufWriter<SharedFile>,
    shared: Arc<File>,
    /// Offset at which the next record will start.
    offset: u64,
    /// Number of records appended.
    records: u64,
    /// Set when a write failed partway: the file's tail (and therefore `offset`)
    /// is no longer trustworthy, so every further append is refused.
    poisoned: bool,
}

impl LogWriter {
    /// Creates a new, empty log file with the given id at `path`.
    ///
    /// Fails if the file already exists, to avoid silently clobbering a log that may
    /// still be needed for recovery.
    pub fn create(path: impl AsRef<Path>, id: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| Error::io(format!("creating commit log {}", path.display()), e))?;
        let shared = Arc::new(file);
        Ok(LogWriter {
            id,
            path,
            file: BufWriter::new(SharedFile(Arc::clone(&shared))),
            shared,
            offset: 0,
            records: 0,
            poisoned: false,
        })
    }

    /// Borrows the writer's append half: buffered appends and OS flushes, with
    /// no way to fsync.
    pub fn appender(&mut self) -> LogAppender<'_> {
        LogAppender { writer: self }
    }

    /// Returns a handle that can fsync this log without exclusive access to the
    /// writer. Only bytes already [`flush`](LogWriter::flush)ed to the OS are
    /// guaranteed to be covered by a sync issued through the handle.
    pub fn sync_handle(&self) -> LogSyncHandle {
        LogSyncHandle { path: self.path.clone(), file: Arc::clone(&self.shared) }
    }

    /// The id of this log file.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The path of this log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written so far (i.e. the current size of the log).
    pub fn size(&self) -> u64 {
        self.offset
    }

    /// Number of records appended so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Appends a record and returns the offset at which it was written.
    ///
    /// The returned offset is the handle TRIAD-LOG stores in the memtable entry so
    /// the value can later be served straight from the log file.
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        let payload = record.encode();
        self.append_payload(&payload)
    }

    /// Appends a pre-encoded payload; used when replaying entries verbatim.
    pub fn append_payload(&mut self, payload: &[u8]) -> Result<u64> {
        self.check_usable()?;
        let start = self.offset;
        let (crc_bytes, len_bytes) = frame_header(payload)?;

        self.file
            .write_all(&crc_bytes)
            .and_then(|_| self.file.write_all(&len_bytes))
            .and_then(|_| self.file.write_all(payload))
            .map_err(|e| {
                self.poisoned = true;
                Error::io(format!("appending to commit log {}", self.path.display()), e)
            })?;

        self.offset += (RECORD_HEADER_LEN + payload.len()) as u64;
        self.records += 1;
        Ok(start)
    }

    /// Appends every record framed in `batch` with a single buffered write.
    ///
    /// Returns the file offset at which the batch starts; record `i` of the batch
    /// lives at `start + batch.relative_offsets()[i]`. This is the commit
    /// fast path: one `write_all` for the whole batch instead of one per record.
    pub fn append_batch(&mut self, batch: &BatchEncoder) -> Result<u64> {
        self.check_usable()?;
        let start = self.offset;
        if batch.is_empty() {
            return Ok(start);
        }
        self.file.write_all(batch.framed_bytes()).map_err(|e| {
            self.poisoned = true;
            Error::io(format!("appending batch to commit log {}", self.path.display()), e)
        })?;
        self.offset += batch.encoded_bytes();
        self.records += batch.record_count() as u64;
        Ok(start)
    }

    /// Refuses further appends after a failed write. A partial `write_all`
    /// leaves an unknown number of bytes in the file, so `offset` can no longer
    /// be trusted: appending more records would hand out log positions shifted
    /// from where the bytes actually land, silently corrupting offset-addressed
    /// reads of *later, acknowledged* writes. An explicit error until the log is
    /// rotated is strictly safer.
    fn check_usable(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::io(
                format!(
                    "appending to commit log {} after an earlier failed write",
                    self.path.display()
                ),
                std::io::Error::other("commit log writer poisoned"),
            ));
        }
        Ok(())
    }

    /// Flushes buffered records to the operating system.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| Error::io(format!("flushing commit log {}", self.path.display()), e))
    }

    /// Flushes and fsyncs the log file, guaranteeing durability of all appended records.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.shared
            .sync_data()
            .map_err(|e| Error::io(format!("syncing commit log {}", self.path.display()), e))
    }

    /// Flushes buffers and returns the final size of the log file.
    ///
    /// The file remains on disk; TRIAD-LOG keeps sealed logs around as the backing
    /// store of CL-SSTables.
    pub fn seal(mut self) -> Result<u64> {
        self.flush()?;
        self.shared
            .sync_data()
            .map_err(|e| Error::io(format!("sealing commit log {}", self.path.display()), e))?;
        Ok(self.offset)
    }
}

/// The append half of a [`LogWriter`], from [`LogWriter::appender`]: it
/// appends and flushes to the OS, and has no sync, seal or sync-handle
/// method. The engine's commit append stage runs under the append lock and
/// gets only this, so an fsync there — which would re-serialize every writer
/// behind the disk — does not compile.
#[derive(Debug)]
pub struct LogAppender<'a> {
    writer: &'a mut LogWriter,
}

impl LogAppender<'_> {
    /// [`LogWriter::append_batch`].
    pub fn append_batch(&mut self, batch: &BatchEncoder) -> Result<u64> {
        self.writer.append_batch(batch)
    }

    /// [`LogWriter::flush`].
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()
    }

    /// [`LogWriter::size`].
    pub fn size(&self) -> u64 {
        self.writer.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::LogReader;
    use crate::{log_file_path, RECORD_HEADER_LEN};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-wal-writer-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let dir = temp_dir("no-overwrite");
        let path = log_file_path(&dir, 1);
        let _writer = LogWriter::create(&path, 1).unwrap();
        assert!(LogWriter::create(&path, 1).is_err());
    }

    #[test]
    fn offsets_are_monotonic_and_addressable() {
        let dir = temp_dir("offsets");
        let path = log_file_path(&dir, 2);
        let mut writer = LogWriter::create(&path, 2).unwrap();
        let mut offsets = Vec::new();
        for i in 0..100u64 {
            let record =
                LogRecord::put(i, format!("key-{i}").into_bytes(), vec![b'v'; i as usize % 32]);
            let offset = writer.append(&record).unwrap();
            if let Some(&last) = offsets.last() {
                assert!(offset > last);
            }
            offsets.push(offset);
        }
        assert_eq!(writer.record_count(), 100);
        writer.sync().unwrap();

        let reader = LogReader::open(&path).unwrap();
        for (i, &offset) in offsets.iter().enumerate() {
            let record = reader.read_at(offset).unwrap();
            assert_eq!(record.seqno, i as u64);
            assert_eq!(record.key, format!("key-{i}").into_bytes());
        }
    }

    #[test]
    fn size_accounts_for_headers() {
        let dir = temp_dir("size");
        let path = log_file_path(&dir, 3);
        let mut writer = LogWriter::create(&path, 3).unwrap();
        let record = LogRecord::put(1, b"k".to_vec(), b"v".to_vec());
        let payload_len = record.encode().len();
        writer.append(&record).unwrap();
        assert_eq!(writer.size(), (RECORD_HEADER_LEN + payload_len) as u64);
        let sealed_size = writer.seal().unwrap();
        assert_eq!(sealed_size, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn append_batch_matches_record_by_record_appends() {
        let dir = temp_dir("batch");
        let records: Vec<LogRecord> = (0..50u64)
            .map(|i| {
                if i % 7 == 0 {
                    LogRecord::delete(i, format!("key-{i}").into_bytes())
                } else {
                    LogRecord::put(i, format!("key-{i}").into_bytes(), vec![b'v'; i as usize % 64])
                }
            })
            .collect();

        // Reference: one append per record.
        let serial_path = log_file_path(&dir, 10);
        let mut serial = LogWriter::create(&serial_path, 10).unwrap();
        let mut serial_offsets = Vec::new();
        for record in &records {
            serial_offsets.push(serial.append(record).unwrap());
        }
        serial.sync().unwrap();

        // One batched append, in two groups to exercise a non-zero start offset.
        let batch_path = log_file_path(&dir, 11);
        let mut batched = LogWriter::create(&batch_path, 11).unwrap();
        let mut encoder = BatchEncoder::new();
        let mut batch_offsets = Vec::new();
        for group in records.chunks(17) {
            encoder.clear();
            for record in group {
                encoder.add(record).unwrap();
            }
            let start = batched.append_batch(&encoder).unwrap();
            batch_offsets.extend(encoder.relative_offsets().iter().map(|rel| start + rel));
        }
        batched.sync().unwrap();

        assert_eq!(batched.record_count(), records.len() as u64);
        assert_eq!(batched.size(), serial.size());
        assert_eq!(batch_offsets, serial_offsets, "batched offsets must match serial appends");
        assert_eq!(
            std::fs::read(&batch_path).unwrap(),
            std::fs::read(&serial_path).unwrap(),
            "batched framing must be byte-identical to serial framing"
        );

        // Every record is offset-addressable and the log recovers in full.
        let reader = LogReader::open(&batch_path).unwrap();
        for (record, offset) in records.iter().zip(&batch_offsets) {
            assert_eq!(&reader.read_at(*offset).unwrap(), record);
        }
        let (recovered, _) = reader.recover().unwrap();
        assert_eq!(recovered.len(), records.len());
    }

    #[test]
    fn empty_batch_append_is_a_no_op() {
        let dir = temp_dir("empty-batch");
        let mut writer = LogWriter::create(log_file_path(&dir, 12), 12).unwrap();
        let encoder = BatchEncoder::new();
        assert_eq!(writer.append_batch(&encoder).unwrap(), 0);
        assert_eq!(writer.size(), 0);
        assert_eq!(writer.record_count(), 0);
    }

    #[test]
    fn batch_encoder_clear_retains_capacity() {
        let mut encoder = BatchEncoder::new();
        encoder.add(&LogRecord::put(1, b"k".to_vec(), vec![0u8; 512])).unwrap();
        assert_eq!(encoder.record_count(), 1);
        assert!(encoder.encoded_bytes() > 512);
        encoder.clear();
        assert!(encoder.is_empty());
        assert_eq!(encoder.encoded_bytes(), 0);
        assert!(encoder.framed_bytes().is_empty());
    }

    #[test]
    fn sync_handle_syncs_flushed_bytes_without_the_writer() {
        let dir = temp_dir("sync-handle");
        let path = log_file_path(&dir, 20);
        let mut writer = LogWriter::create(&path, 20).unwrap();
        let handle = writer.sync_handle();
        let record = LogRecord::put(1, b"pipelined".to_vec(), b"commit".to_vec());
        writer.append(&record).unwrap();
        writer.flush().unwrap();
        // The handle needs no access to the writer; a concurrent thread could be
        // appending the next group while this fsync is in flight.
        handle.sync().unwrap();
        let reader = LogReader::open(&path).unwrap();
        let (recovered, _) = reader.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].record, record);
        // The handle stays valid (and harmless) after the writer is gone.
        drop(writer);
        handle.sync().unwrap();
    }

    #[test]
    fn append_payload_matches_append() {
        let dir = temp_dir("payload");
        let path = log_file_path(&dir, 4);
        let mut writer = LogWriter::create(&path, 4).unwrap();
        let record = LogRecord::put(9, b"alpha".to_vec(), b"beta".to_vec());
        writer.append_payload(&record.encode()).unwrap();
        writer.sync().unwrap();
        let reader = LogReader::open(&path).unwrap();
        let (recovered, _) = reader.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].record, record);
    }
}
