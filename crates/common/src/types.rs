//! Core value types: sequence numbers, value kinds and the internal key encoding.
//!
//! The LSM engine distinguishes *user keys* (arbitrary byte strings supplied by the
//! application) from *internal keys*, which append an 8-byte trailer holding the
//! sequence number and the kind of the entry (put or delete). Internal keys order
//! first by user key ascending and then by sequence number *descending*, so that a
//! forward scan over a sorted run sees the newest version of each user key first —
//! the same convention LevelDB and RocksDB use.

use std::cmp::Ordering;
use std::fmt;

/// Monotonically increasing sequence number assigned to every write.
pub type SeqNo = u64;

/// The largest sequence number; used as an upper bound when searching.
pub const MAX_SEQNO: SeqNo = (1 << 56) - 1;

/// The kind of a record stored in the memtable, commit log or an SSTable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// A live key/value pair.
    Put,
    /// A tombstone marking the key as deleted.
    Delete,
}

impl ValueKind {
    /// Encodes the kind as a single byte tag.
    pub fn as_u8(self) -> u8 {
        match self {
            ValueKind::Delete => 0,
            ValueKind::Put => 1,
        }
    }

    /// Decodes the kind from its byte tag.
    pub fn from_u8(tag: u8) -> Option<ValueKind> {
        match tag {
            0 => Some(ValueKind::Delete),
            1 => Some(ValueKind::Put),
            _ => None,
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Put => write!(f, "put"),
            ValueKind::Delete => write!(f, "delete"),
        }
    }
}

/// An internal key: a user key plus its sequence number and kind.
///
/// Internal keys are the unit of ordering inside SSTables and merge iterators.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    /// The application-visible key bytes.
    pub user_key: Vec<u8>,
    /// The sequence number of the write that produced this entry.
    pub seqno: SeqNo,
    /// Whether the entry is a put or a delete.
    pub kind: ValueKind,
}

impl InternalKey {
    /// Creates a new internal key.
    pub fn new(user_key: impl Into<Vec<u8>>, seqno: SeqNo, kind: ValueKind) -> Self {
        InternalKey { user_key: user_key.into(), seqno, kind }
    }

    /// Builds the internal key that sorts *before or at* every entry for `user_key`,
    /// i.e. the key to seek to when looking up the freshest visible version.
    pub fn for_lookup(user_key: impl Into<Vec<u8>>, snapshot: SeqNo) -> Self {
        InternalKey { user_key: user_key.into(), seqno: snapshot, kind: ValueKind::Put }
    }

    /// Serializes the internal key: `user_key ++ (seqno << 8 | kind)` big-endian.
    ///
    /// The fixed-width 8-byte trailer keeps the encoding order-preserving for the
    /// trailer portion while the user key is compared as raw bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Replaces the contents of `out` with the [`encode`](Self::encode)d key,
    /// so a caller encoding one key after another reuses one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.user_key);
        let trailer = (self.seqno << 8) | u64::from(self.kind.as_u8());
        out.extend_from_slice(&trailer.to_be_bytes());
    }

    /// Parses an internal key from its [`encode`](Self::encode)d form.
    pub fn decode(bytes: &[u8]) -> Option<InternalKey> {
        if bytes.len() < 8 {
            return None;
        }
        let (user, trailer_bytes) = bytes.split_at(bytes.len() - 8);
        let trailer = u64::from_be_bytes(trailer_bytes.try_into().ok()?);
        let kind = ValueKind::from_u8((trailer & 0xff) as u8)?;
        let seqno = trailer >> 8;
        Some(InternalKey { user_key: user.to_vec(), seqno, kind })
    }

    /// Total encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        self.user_key.len() + 8
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // User keys ascending, then sequence numbers descending so the newest
        // version of a key is encountered first during forward iteration.
        self.user_key
            .cmp(&other.user_key)
            .then_with(|| other.seqno.cmp(&self.seqno))
            .then_with(|| other.kind.as_u8().cmp(&self.kind.as_u8()))
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compares two internal keys given in *encoded* form without allocating.
pub fn compare_encoded_internal_keys(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert!(a.len() >= 8 && b.len() >= 8, "encoded internal keys carry an 8-byte trailer");
    let (ua, ta) = a.split_at(a.len() - 8);
    let (ub, tb) = b.split_at(b.len() - 8);
    ua.cmp(ub).then_with(|| {
        let ta = u64::from_be_bytes(ta.try_into().expect("8-byte trailer"));
        let tb = u64::from_be_bytes(tb.try_into().expect("8-byte trailer"));
        // Higher trailer (newer seqno) sorts first.
        tb.cmp(&ta)
    })
}

/// Compares an *encoded* internal key with the lookup key
/// [`InternalKey::for_lookup`]`(user_key, snapshot)` would encode, without
/// building it: a point lookup seeks with this and allocates nothing.
pub fn compare_encoded_to_lookup(encoded: &[u8], user_key: &[u8], snapshot: SeqNo) -> Ordering {
    debug_assert!(encoded.len() >= 8, "encoded internal keys carry an 8-byte trailer");
    let (user, trailer) = encoded.split_at(encoded.len() - 8);
    user.cmp(user_key).then_with(|| {
        let trailer = u64::from_be_bytes(trailer.try_into().expect("8-byte trailer"));
        let lookup = (snapshot << 8) | u64::from(ValueKind::Put.as_u8());
        // Higher trailer (newer seqno) sorts first.
        lookup.cmp(&trailer)
    })
}

/// Borrows the user key and kind of an [`encode`](InternalKey::encode)d
/// internal key; `None` if the bytes are not one.
pub fn parse_encoded_internal_key(encoded: &[u8]) -> Option<(&[u8], ValueKind)> {
    let (&tag, _) = encoded.split_last()?;
    let user_key_len = encoded.len().checked_sub(8)?;
    Some((&encoded[..user_key_len], ValueKind::from_u8(tag)?))
}

/// A key/value pair together with its versioning metadata, as produced by iterators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The internal key (user key + seqno + kind).
    pub key: InternalKey,
    /// The value bytes. Empty for tombstones.
    pub value: Vec<u8>,
}

impl Entry {
    /// Creates a new entry.
    pub fn new(key: InternalKey, value: impl Into<Vec<u8>>) -> Self {
        Entry { key, value: value.into() }
    }

    /// Convenience constructor for a live key/value pair.
    pub fn put(user_key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>, seqno: SeqNo) -> Self {
        Entry { key: InternalKey::new(user_key, seqno, ValueKind::Put), value: value.into() }
    }

    /// Convenience constructor for a tombstone.
    pub fn delete(user_key: impl Into<Vec<u8>>, seqno: SeqNo) -> Self {
        Entry { key: InternalKey::new(user_key, seqno, ValueKind::Delete), value: Vec::new() }
    }

    /// Approximate in-memory footprint of the entry, used for size accounting.
    pub fn approximate_size(&self) -> usize {
        self.key.user_key.len() + self.value.len() + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_kind_round_trip() {
        for kind in [ValueKind::Put, ValueKind::Delete] {
            assert_eq!(ValueKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(ValueKind::from_u8(42), None);
    }

    #[test]
    fn internal_key_round_trip() {
        let key = InternalKey::new(b"hello".to_vec(), 77, ValueKind::Put);
        let encoded = key.encode();
        assert_eq!(encoded.len(), key.encoded_len());
        let decoded = InternalKey::decode(&encoded).expect("decodes");
        assert_eq!(decoded, key);
    }

    #[test]
    fn internal_key_decode_rejects_short_input() {
        assert!(InternalKey::decode(b"short").is_none());
    }

    #[test]
    fn parse_encoded_internal_key_borrows_user_key_and_kind() {
        let key = InternalKey::new(b"hello".to_vec(), 77, ValueKind::Delete);
        let mut buf = b"stale bytes".to_vec();
        key.encode_into(&mut buf);
        assert_eq!(buf, key.encode(), "encode_into replaces the buffer's contents");
        assert_eq!(parse_encoded_internal_key(&buf), Some((&b"hello"[..], ValueKind::Delete)));
        assert_eq!(parse_encoded_internal_key(b"short"), None);
        let mut bad_kind = buf.clone();
        *bad_kind.last_mut().unwrap() = 7;
        assert_eq!(parse_encoded_internal_key(&bad_kind), None);
    }

    #[test]
    fn ordering_is_by_user_key_then_seqno_desc() {
        let a = InternalKey::new(b"a".to_vec(), 5, ValueKind::Put);
        let a_newer = InternalKey::new(b"a".to_vec(), 9, ValueKind::Put);
        let b = InternalKey::new(b"b".to_vec(), 1, ValueKind::Put);
        assert!(a_newer < a, "newer version of the same key sorts first");
        assert!(a < b);
        assert!(a_newer < b);
    }

    #[test]
    fn encoded_comparison_matches_decoded_comparison() {
        let keys = [
            InternalKey::new(b"aa".to_vec(), 3, ValueKind::Put),
            InternalKey::new(b"aa".to_vec(), 9, ValueKind::Delete),
            InternalKey::new(b"ab".to_vec(), 1, ValueKind::Put),
            InternalKey::new(b"b".to_vec(), 100, ValueKind::Put),
        ];
        for x in &keys {
            for y in &keys {
                let logical = x.cmp(y);
                let encoded = compare_encoded_internal_keys(&x.encode(), &y.encode());
                assert_eq!(logical, encoded, "mismatch comparing {x:?} and {y:?}");
            }
        }
    }

    #[test]
    fn lookup_comparison_matches_the_encoded_lookup_key() {
        let keys = [
            InternalKey::new(b"a".to_vec(), 7, ValueKind::Put),
            InternalKey::new(b"k".to_vec(), 11, ValueKind::Put),
            InternalKey::new(b"k".to_vec(), 10, ValueKind::Delete),
            InternalKey::new(b"k".to_vec(), 10, ValueKind::Put),
            InternalKey::new(b"k".to_vec(), 9, ValueKind::Put),
            InternalKey::new(b"ka".to_vec(), 1, ValueKind::Put),
        ];
        for snapshot in [0, 9, 10, 11, MAX_SEQNO, u64::MAX] {
            let lookup = InternalKey::for_lookup(b"k".to_vec(), snapshot).encode();
            for key in &keys {
                assert_eq!(
                    compare_encoded_to_lookup(&key.encode(), b"k", snapshot),
                    compare_encoded_internal_keys(&key.encode(), &lookup),
                    "{key:?} against the lookup key at {snapshot}"
                );
            }
        }
    }

    #[test]
    fn lookup_key_sees_versions_at_or_below_snapshot() {
        let lookup = InternalKey::for_lookup(b"k".to_vec(), 10);
        let version_at_10 = InternalKey::new(b"k".to_vec(), 10, ValueKind::Put);
        let version_at_11 = InternalKey::new(b"k".to_vec(), 11, ValueKind::Put);
        // The lookup key must not sort after the version it is allowed to see.
        assert!(lookup <= version_at_10);
        assert!(version_at_11 < lookup);
    }

    #[test]
    fn entry_constructors() {
        let put = Entry::put(b"k".to_vec(), b"v".to_vec(), 1);
        assert_eq!(put.key.kind, ValueKind::Put);
        assert_eq!(put.value, b"v");
        let del = Entry::delete(b"k".to_vec(), 2);
        assert_eq!(del.key.kind, ValueKind::Delete);
        assert!(del.value.is_empty());
        assert!(put.approximate_size() > put.key.user_key.len() + put.value.len());
    }
}
