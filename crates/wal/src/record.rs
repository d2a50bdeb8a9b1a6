//! The logical payload stored in each commit-log record.

use triad_common::types::{SeqNo, ValueKind};
use triad_common::varint;
use triad_common::{Error, Result};

/// Provenance of a record that belongs to a cross-shard write batch.
///
/// A multi-key batch that straddles keyspace shards commits per shard, so a
/// crash can persist some shards' slices and not others. The *first* record of
/// each per-shard slice carries this stamp (three trailing varints on the
/// record payload); recovery groups the slices by `batch_id`, counts how many
/// of the `fanout` shards made their slice durable, and drops the slices of
/// any batch that is only partially present — restoring cross-shard atomicity
/// for unacknowledged batches. Unstamped records (single-shard writes, and
/// every log written before stamps existed) decode exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStamp {
    /// Identifier of the cross-shard batch, unique across the primary's
    /// open-to-open epochs: retained stamp-evidence logs can carry one
    /// epoch's stamps into the next open's detection pass, so ids are seeded
    /// per epoch from the manifest's strictly-growing file-number space
    /// (`(epoch << 32) | 1`).
    pub batch_id: u64,
    /// How many shards received a slice of the batch.
    pub fanout: u32,
    /// Number of records in *this shard's* slice (the stamped record and its
    /// `len - 1` successors, consecutive seqnos).
    pub len: u32,
}

impl BatchStamp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        varint::encode_u64(out, self.batch_id);
        varint::encode_u64(out, u64::from(self.fanout));
        varint::encode_u64(out, u64::from(self.len));
    }

    fn encoded_len(&self) -> usize {
        varint::encoded_len_u64(self.batch_id)
            + varint::encoded_len_u64(u64::from(self.fanout))
            + varint::encoded_len_u64(u64::from(self.len))
    }

    fn decode(payload: &[u8]) -> Result<(BatchStamp, usize)> {
        let (batch_id, mut pos) = varint::decode_u64(payload)?;
        let (fanout, consumed) = varint::decode_u64(&payload[pos..])?;
        pos += consumed;
        let (len, consumed) = varint::decode_u64(&payload[pos..])?;
        pos += consumed;
        let fanout = u32::try_from(fanout)
            .map_err(|_| Error::corruption("batch stamp fanout overflows u32"))?;
        let len =
            u32::try_from(len).map_err(|_| Error::corruption("batch stamp len overflows u32"))?;
        Ok((BatchStamp { batch_id, fanout, len }, pos))
    }
}

/// A single logical update recorded in the commit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The sequence number assigned to the update.
    pub seqno: SeqNo,
    /// Whether the update is a put or a delete.
    pub kind: ValueKind,
    /// The user key.
    pub key: Vec<u8>,
    /// The value; empty for deletes.
    pub value: Vec<u8>,
    /// Cross-shard batch provenance, carried by the first record of each
    /// per-shard slice of a shard-straddling batch. `None` for everything
    /// else.
    pub stamp: Option<BatchStamp>,
}

impl LogRecord {
    /// Creates a put record.
    pub fn put(seqno: SeqNo, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        LogRecord { seqno, kind: ValueKind::Put, key: key.into(), value: value.into(), stamp: None }
    }

    /// Creates a delete record.
    pub fn delete(seqno: SeqNo, key: impl Into<Vec<u8>>) -> Self {
        LogRecord {
            seqno,
            kind: ValueKind::Delete,
            key: key.into(),
            value: Vec::new(),
            stamp: None,
        }
    }

    /// Serializes the record payload (excluding the CRC/length framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Serializes the record payload into `out`, appending to its current contents.
    ///
    /// The commit path encodes many records back to back into one reusable
    /// buffer; this is the allocation-free building block it uses.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record_parts_stamped(out, self.seqno, self.kind, &self.key, &self.value, self.stamp);
    }

    /// Upper bound on the encoded payload length.
    pub fn encoded_len(&self) -> usize {
        varint::encoded_len_u64(self.seqno)
            + 1
            + varint::encoded_len_u64(self.key.len() as u64)
            + self.key.len()
            + varint::encoded_len_u64(self.value.len() as u64)
            + self.value.len()
            + self.stamp.map_or(0, |stamp| stamp.encoded_len())
    }

    /// Parses a record payload produced by [`encode`](Self::encode): the
    /// parse of [`RecordRef`], with the key and value copied out.
    pub fn decode(payload: &[u8]) -> Result<LogRecord> {
        RecordRef::parse(payload).map(|record| record.to_record())
    }

    /// Logical size of the update as seen by the application (key + value bytes).
    pub fn user_bytes(&self) -> u64 {
        (self.key.len() + self.value.len()) as u64
    }
}

/// A record decoded in place: the key and value borrow the bytes it was
/// decoded from. The commit log's CRC-checked chunk decoder,
/// [`LogChunk::record_at`](crate::LogChunk::record_at), returns one, so a
/// reader that only needs the value copies nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The sequence number assigned to the update.
    pub seqno: SeqNo,
    /// Whether the update is a put or a delete.
    pub kind: ValueKind,
    /// The user key.
    pub key: &'a [u8],
    /// The value; empty for deletes.
    pub value: &'a [u8],
    /// Cross-shard batch provenance; see [`LogRecord::stamp`].
    pub stamp: Option<BatchStamp>,
}

impl<'a> RecordRef<'a> {
    /// Parses a record payload (the bytes after the CRC/length framing). The
    /// one payload parser: [`LogRecord::decode`] calls it too.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<RecordRef<'a>> {
        let (seqno, mut pos) = varint::decode_u64(payload)?;
        let kind_byte = *payload
            .get(pos)
            .ok_or_else(|| Error::corruption("log record truncated before kind byte"))?;
        let kind = ValueKind::from_u8(kind_byte)
            .ok_or_else(|| Error::corruption(format!("invalid log record kind {kind_byte}")))?;
        pos += 1;
        let (key, consumed) = varint::decode_length_prefixed(&payload[pos..])?;
        pos += consumed;
        let (value, consumed) = varint::decode_length_prefixed(&payload[pos..])?;
        pos += consumed;
        // Remaining bytes, if any, must be exactly one batch stamp; anything
        // else (a truncated varint, leftovers past the stamp) is corruption.
        let stamp = if pos == payload.len() {
            None
        } else {
            let (stamp, consumed) = BatchStamp::decode(&payload[pos..])?;
            pos += consumed;
            if pos != payload.len() {
                return Err(Error::corruption("log record has trailing bytes"));
            }
            Some(stamp)
        };
        Ok(RecordRef { seqno, kind, key, value, stamp })
    }

    /// The record with its key and value copied out.
    pub fn to_record(&self) -> LogRecord {
        LogRecord {
            seqno: self.seqno,
            kind: self.kind,
            key: self.key.to_vec(),
            value: self.value.to_vec(),
            stamp: self.stamp,
        }
    }
}

/// Serializes a record payload from borrowed parts, appending to `out`.
///
/// Byte-identical to [`LogRecord::encode`] for the same fields; lets the
/// commit path frame a writer's batch without first cloning every key
/// and value into an owned [`LogRecord`].
pub fn encode_record_parts(
    out: &mut Vec<u8>,
    seqno: SeqNo,
    kind: ValueKind,
    key: &[u8],
    value: &[u8],
) {
    encode_record_parts_stamped(out, seqno, kind, key, value, None);
}

/// [`encode_record_parts`] with an optional cross-shard [`BatchStamp`]
/// appended as trailing varints. Byte-identical to the unstamped form when
/// `stamp` is `None`.
pub fn encode_record_parts_stamped(
    out: &mut Vec<u8>,
    seqno: SeqNo,
    kind: ValueKind,
    key: &[u8],
    value: &[u8],
    stamp: Option<BatchStamp>,
) {
    varint::encode_u64(out, seqno);
    out.push(kind.as_u8());
    varint::encode_length_prefixed(out, key);
    varint::encode_length_prefixed(out, value);
    if let Some(stamp) = stamp {
        stamp.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_round_trip() {
        let record = LogRecord::put(42, b"key".to_vec(), b"value".to_vec());
        let payload = record.encode();
        assert!(payload.len() <= record.encoded_len());
        let decoded = LogRecord::decode(&payload).expect("decodes");
        assert_eq!(decoded, record);
        assert_eq!(decoded.user_bytes(), 8);
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let a = LogRecord::put(3, b"first".to_vec(), b"one".to_vec());
        let b = LogRecord::delete(4, b"second".to_vec());
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        let split = buf.len();
        b.encode_into(&mut buf);
        assert_eq!(&buf[..split], a.encode().as_slice());
        assert_eq!(&buf[split..], b.encode().as_slice());
    }

    #[test]
    fn delete_round_trip() {
        let record = LogRecord::delete(7, b"gone".to_vec());
        let decoded = LogRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(decoded.kind, ValueKind::Delete);
        assert!(decoded.value.is_empty());
        assert_eq!(decoded, record);
    }

    #[test]
    fn empty_key_and_value_round_trip() {
        let record = LogRecord::put(0, Vec::new(), Vec::new());
        let decoded = LogRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn large_values_round_trip() {
        let record = LogRecord::put(u64::from(u32::MAX), vec![7u8; 300], vec![9u8; 70_000]);
        let decoded = LogRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn decode_rejects_truncation_at_every_point() {
        let record = LogRecord::put(123_456, b"some-key".to_vec(), b"some-value".to_vec());
        let payload = record.encode();
        for cut in 0..payload.len() {
            assert!(LogRecord::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut payload = LogRecord::put(1, b"k".to_vec(), b"v".to_vec()).encode();
        payload.push(0xff);
        assert!(LogRecord::decode(&payload).is_err());
    }

    #[test]
    fn stamped_record_round_trips() {
        let mut record = LogRecord::put(99, b"key".to_vec(), b"value".to_vec());
        record.stamp = Some(BatchStamp { batch_id: 1234, fanout: 4, len: 7 });
        let payload = record.encode();
        assert!(payload.len() <= record.encoded_len());
        let decoded = LogRecord::decode(&payload).expect("decodes");
        assert_eq!(decoded, record);
        assert_eq!(decoded.stamp, Some(BatchStamp { batch_id: 1234, fanout: 4, len: 7 }));
    }

    #[test]
    fn stamp_is_optional_and_unstamped_encoding_is_unchanged() {
        // An unstamped record's bytes are identical to the pre-stamp format,
        // so logs written before stamps existed decode exactly as before.
        let record = LogRecord::put(7, b"k".to_vec(), b"v".to_vec());
        let mut legacy = Vec::new();
        encode_record_parts(&mut legacy, 7, ValueKind::Put, b"k", b"v");
        assert_eq!(record.encode(), legacy);
        assert_eq!(LogRecord::decode(&legacy).unwrap().stamp, None);
    }

    #[test]
    fn stamped_payload_rejects_bytes_past_the_stamp() {
        let mut record = LogRecord::put(5, b"k".to_vec(), b"v".to_vec());
        record.stamp = Some(BatchStamp { batch_id: 8, fanout: 2, len: 1 });
        let mut payload = record.encode();
        payload.push(0x01);
        assert!(LogRecord::decode(&payload).is_err(), "leftovers past the stamp are corruption");
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let record = LogRecord::put(1, b"k".to_vec(), b"v".to_vec());
        let mut payload = record.encode();
        // The kind byte follows the 1-byte varint seqno.
        payload[1] = 9;
        assert!(LogRecord::decode(&payload).is_err());
    }
}
