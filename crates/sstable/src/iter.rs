//! Cursors over sorted entry streams.
//!
//! Compaction and full scans consume multiple sorted sources (memtables, regular
//! SSTables, CL-SSTables) and need a single stream in internal-key order. An
//! [`EntryCursor`] *lends* its current entry — the encoded internal key and the
//! value, borrowed from the source — so moving an entry through the merge costs
//! no allocation. The [`MergingCursor`] performs the k-way merge; the
//! [`DedupCursor`] collapses the stream down to the newest visible version of each
//! user key and optionally drops tombstones when compacting into the bottom level.
//! [`BoundedCursor`] hides the versions newer than a snapshot. [`IterCursor`]
//! lends the entries of an owned [`EntryIter`], which is how a CL-SSTable
//! joins a compaction.

use std::cmp::Ordering;

use triad_common::types::{compare_encoded_internal_keys, parse_encoded_internal_key};
use triad_common::types::{Entry, InternalKey, SeqNo, ValueKind};
use triad_common::{Error, Result};

/// A boxed stream of entries in internal-key order.
pub type EntryIter = Box<dyn Iterator<Item = Result<Entry>> + Send>;

/// A position in a stream of entries sorted by internal key.
///
/// A new cursor sits on its first entry, if it has one. [`key`](Self::key) and
/// [`value`](Self::value) borrow the current entry from the source and are only
/// meaningful while [`valid`](Self::valid); the key is always a well-formed
/// encoded internal key. An error from [`advance`](Self::advance) ends the
/// stream: the caller stops there.
pub trait EntryCursor: Send {
    /// Returns `true` while the cursor is on an entry.
    fn valid(&self) -> bool;

    /// The current entry's [encoded](triad_common::types::InternalKey::encode)
    /// internal key.
    fn key(&self) -> &[u8];

    /// The current entry's value. Empty for tombstones.
    fn value(&self) -> &[u8];

    /// Moves to the next entry; past the last one the cursor is no longer valid.
    fn advance(&mut self) -> Result<()>;
}

/// A boxed cursor, as the sources of a [`MergingCursor`].
pub type BoxedCursor = Box<dyn EntryCursor>;

/// Lends the entries of an owned [`EntryIter`], encoding each key into one
/// reused buffer.
pub struct IterCursor {
    inner: EntryIter,
    entry: Option<Entry>,
    key: Vec<u8>,
}

impl IterCursor {
    /// Wraps `inner`, which must be sorted by internal key, and moves to its
    /// first entry.
    pub fn new(inner: EntryIter) -> Result<Self> {
        let mut cursor = IterCursor { inner, entry: None, key: Vec::new() };
        cursor.advance()?;
        Ok(cursor)
    }
}

impl EntryCursor for IterCursor {
    fn valid(&self) -> bool {
        self.entry.is_some()
    }

    fn key(&self) -> &[u8] {
        &self.key
    }

    fn value(&self) -> &[u8] {
        self.entry.as_ref().map_or(&[], |entry| &entry.value)
    }

    fn advance(&mut self) -> Result<()> {
        self.entry = None;
        self.entry = self.inner.next().transpose()?;
        if let Some(entry) = &self.entry {
            entry.key.encode_into(&mut self.key);
        }
        Ok(())
    }
}

/// K-way merge of sorted cursors.
///
/// Sources must individually be sorted by internal key. By convention callers list
/// newer sources first (memtable before L0, L0 before L1, newest L0 file first); the
/// merge is stable with respect to that order for identical internal keys.
pub struct MergingCursor {
    sources: Vec<BoxedCursor>,
    /// Indices of the valid sources, as a binary min-heap ordered by
    /// `(current key, source index)`.
    heap: Vec<usize>,
}

impl MergingCursor {
    /// Creates a merge over `sources`, each already on its first entry.
    pub fn new(sources: Vec<BoxedCursor>) -> Self {
        let heap = (0..sources.len()).filter(|&i| sources[i].valid()).collect();
        let mut merge = MergingCursor { sources, heap };
        for pos in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(pos);
        }
        merge
    }

    /// Whether source `a`'s entry comes before source `b`'s. Identical internal
    /// keys go to the source listed first.
    fn before(&self, a: usize, b: usize) -> bool {
        match compare_encoded_internal_keys(self.sources[a].key(), self.sources[b].key()) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !self.before(self.heap[child], self.heap[pos]) {
                return;
            }
            self.heap.swap(pos, child);
            pos = child;
        }
    }
}

impl EntryCursor for MergingCursor {
    fn valid(&self) -> bool {
        !self.heap.is_empty()
    }

    fn key(&self) -> &[u8] {
        self.heap.first().map_or(&[], |&top| self.sources[top].key())
    }

    fn value(&self) -> &[u8] {
        self.heap.first().map_or(&[], |&top| self.sources[top].value())
    }

    fn advance(&mut self) -> Result<()> {
        let Some(&top) = self.heap.first() else {
            return Ok(());
        };
        if let Err(e) = self.sources[top].advance() {
            self.heap.clear();
            return Err(e);
        }
        if !self.sources[top].valid() {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
        Ok(())
    }
}

/// Collapses a cursor sorted by internal key down to one entry per user key.
///
/// The input convention (newest version of a user key first) means the first entry
/// seen for each user key is the survivor; its user key is kept in one reused
/// buffer, and older versions are counted as dropped. When `drop_tombstones` is
/// set, surviving delete markers are removed as well — only safe when compacting
/// into the lowest populated level.
pub struct DedupCursor<C> {
    inner: C,
    /// User key of the last survivor (or dropped tombstone); empty before the first.
    user_key: Vec<u8>,
    drop_tombstones: bool,
    dropped: u64,
}

impl<C: EntryCursor> DedupCursor<C> {
    /// Wraps `inner`, which must be sorted by internal key, and moves to the
    /// first survivor.
    pub fn new(inner: C, drop_tombstones: bool) -> Result<Self> {
        let mut dedup = DedupCursor { inner, user_key: Vec::new(), drop_tombstones, dropped: 0 };
        dedup.skip_to_survivor(false)?;
        Ok(dedup)
    }

    /// Number of entries dropped so far (older versions and, if enabled, tombstones).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Advances `inner` until it sits on a survivor or runs out. `seen` says
    /// whether `user_key` holds a key whose older versions must be dropped.
    fn skip_to_survivor(&mut self, mut seen: bool) -> Result<()> {
        while self.inner.valid() {
            let (user_key, kind) = parse_encoded_internal_key(self.inner.key())
                .ok_or_else(|| Error::corruption("undecodable internal key in merge"))?;
            if seen && user_key == self.user_key.as_slice() {
                // An older version of a key we already emitted (or suppressed).
                self.dropped += 1;
            } else {
                self.user_key.clear();
                self.user_key.extend_from_slice(user_key);
                seen = true;
                if !(self.drop_tombstones && kind == ValueKind::Delete) {
                    return Ok(());
                }
                self.dropped += 1;
            }
            self.inner.advance()?;
        }
        Ok(())
    }
}

impl<C: EntryCursor> EntryCursor for DedupCursor<C> {
    fn valid(&self) -> bool {
        self.inner.valid()
    }

    fn key(&self) -> &[u8] {
        self.inner.key()
    }

    fn value(&self) -> &[u8] {
        self.inner.value()
    }

    fn advance(&mut self) -> Result<()> {
        if !self.inner.valid() {
            return Ok(());
        }
        self.inner.advance()?;
        self.skip_to_survivor(true)
    }
}

/// Convenience helper that turns a vector of entries into an [`EntryIter`].
pub fn entries_to_iter(entries: Vec<Entry>) -> EntryIter {
    Box::new(entries.into_iter().map(Ok))
}

/// Lends only the entries of `inner` whose sequence number is `<= max_seqno`.
///
/// This is the table-side half of the snapshot read path: sources are bounded
/// *before* the [`DedupCursor`] picks survivors, so the survivor for each
/// user key is the newest version visible at the snapshot, not the newest
/// version outright. The hot (non-snapshot) read path never uses this — it
/// reads newest, unbounded.
pub struct BoundedCursor<C> {
    inner: C,
    max_seqno: SeqNo,
}

impl<C: EntryCursor> BoundedCursor<C> {
    /// Wraps `inner` and moves to its first entry at or below `max_seqno`.
    pub fn new(inner: C, max_seqno: SeqNo) -> Result<Self> {
        let mut bounded = BoundedCursor { inner, max_seqno };
        bounded.skip_invisible()?;
        Ok(bounded)
    }

    fn skip_invisible(&mut self) -> Result<()> {
        while self.inner.valid() && encoded_seqno(self.inner.key()) > self.max_seqno {
            self.inner.advance()?;
        }
        Ok(())
    }
}

impl<C: EntryCursor> EntryCursor for BoundedCursor<C> {
    fn valid(&self) -> bool {
        self.inner.valid()
    }

    fn key(&self) -> &[u8] {
        self.inner.key()
    }

    fn value(&self) -> &[u8] {
        self.inner.value()
    }

    fn advance(&mut self) -> Result<()> {
        if !self.inner.valid() {
            return Ok(());
        }
        self.inner.advance()?;
        self.skip_invisible()
    }
}

/// The sequence number in the trailer of an encoded internal key, which a
/// cursor always lends well-formed.
fn encoded_seqno(key: &[u8]) -> SeqNo {
    let trailer = &key[key.len() - 8..];
    u64::from_be_bytes(trailer.try_into().expect("8-byte trailer")) >> 8
}

/// The entries `cursor` lends, copied out one by one; the stream ends after
/// the first error.
pub(crate) fn cursor_entries(cursor: BoxedCursor) -> EntryIter {
    let mut cursor = Some(cursor);
    let mut started = false;
    Box::new(std::iter::from_fn(move || {
        let current = cursor.as_mut()?;
        if std::mem::replace(&mut started, true) {
            if let Err(e) = current.advance() {
                cursor = None;
                return Some(Err(e));
            }
        }
        if !current.valid() {
            return None;
        }
        Some(
            InternalKey::decode(current.key())
                .map(|key| Entry::new(key, current.value()))
                .ok_or_else(|| Error::corruption("undecodable internal key in cursor")),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: &str, seqno: u64, value: &str) -> Entry {
        Entry::put(key.as_bytes().to_vec(), value.as_bytes().to_vec(), seqno)
    }

    fn del(key: &str, seqno: u64) -> Entry {
        Entry::delete(key.as_bytes().to_vec(), seqno)
    }

    fn sorted(mut entries: Vec<Entry>) -> Vec<Entry> {
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    fn source(entries: Vec<Entry>) -> BoxedCursor {
        Box::new(IterCursor::new(entries_to_iter(entries)).unwrap())
    }

    fn merge(sources: Vec<Vec<Entry>>) -> MergingCursor {
        MergingCursor::new(sources.into_iter().map(source).collect())
    }

    /// Materializes every entry the cursor lends, stopping at the first error.
    fn drain(cursor: &mut impl EntryCursor) -> Result<Vec<Entry>> {
        let mut entries = Vec::new();
        while cursor.valid() {
            let key = InternalKey::decode(cursor.key()).expect("cursors lend encoded keys");
            entries.push(Entry::new(key, cursor.value()));
            cursor.advance()?;
        }
        Ok(entries)
    }

    #[test]
    fn merge_of_disjoint_sources() {
        let a = sorted(vec![put("a", 1, "1"), put("c", 2, "3")]);
        let b = sorted(vec![put("b", 3, "2"), put("d", 4, "4")]);
        let merged = drain(&mut merge(vec![a, b])).unwrap();
        let keys: Vec<&[u8]> = merged.iter().map(|e| e.key.user_key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c", b"d"]);
    }

    #[test]
    fn merge_orders_versions_of_same_key_newest_first() {
        let newer = sorted(vec![put("k", 10, "new"), put("z", 11, "zz")]);
        let older = sorted(vec![put("k", 5, "old"), put("a", 6, "aa")]);
        let merged = drain(&mut merge(vec![newer, older])).unwrap();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].key.user_key, b"a");
        assert_eq!(merged[1].value, b"new", "seqno 10 sorts before seqno 5");
        assert_eq!(merged[2].value, b"old");
        assert_eq!(merged[3].key.user_key, b"z");
    }

    #[test]
    fn merge_of_empty_sources() {
        let mut empty = merge(vec![vec![], vec![]]);
        assert!(!empty.valid());
        assert!(drain(&mut empty).unwrap().is_empty());
        assert!(drain(&mut MergingCursor::new(Vec::new())).unwrap().is_empty());
    }

    #[test]
    fn merge_propagates_errors() {
        let erroring: EntryIter = Box::new(
            vec![Ok(put("a", 1, "1")), Err(Error::corruption("broken source"))].into_iter(),
        );
        let good = source(sorted(vec![put("b", 2, "2")]));
        let mut merged =
            MergingCursor::new(vec![Box::new(IterCursor::new(erroring).unwrap()), good]);
        // The merge lends "a"; advancing the erroring source surfaces the error.
        assert_eq!(merged.key(), put("a", 1, "1").key.encode());
        assert!(merged.advance().unwrap_err().is_corruption());
        assert!(!merged.valid(), "an error ends the merged stream");
    }

    #[test]
    fn dedup_keeps_newest_version_only() {
        let stream = sorted(vec![
            put("k", 10, "new"),
            put("k", 5, "old"),
            put("k", 1, "ancient"),
            put("x", 2, "xx"),
        ]);
        let mut dedup = DedupCursor::new(merge(vec![stream]), false).unwrap();
        let kept = drain(&mut dedup).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].value, b"new");
        assert_eq!(kept[1].key.user_key, b"x");
        assert_eq!(dedup.dropped(), 2);
    }

    #[test]
    fn dedup_keeps_tombstones_on_intermediate_levels() {
        let stream = sorted(vec![del("k", 10), put("k", 5, "old")]);
        let kept = drain(&mut DedupCursor::new(merge(vec![stream]), false).unwrap()).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].key.kind, ValueKind::Delete);
    }

    #[test]
    fn dedup_drops_tombstones_on_bottom_level() {
        let stream = sorted(vec![del("gone", 10), put("gone", 5, "old"), put("kept", 3, "v")]);
        let mut dedup = DedupCursor::new(merge(vec![stream]), true).unwrap();
        let kept = drain(&mut dedup).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].key.user_key, b"kept");
        assert_eq!(dedup.dropped(), 2);
    }

    #[test]
    fn dedup_of_empty_stream() {
        let mut dedup = DedupCursor::new(merge(vec![vec![]]), true).unwrap();
        assert!(drain(&mut dedup).unwrap().is_empty());
        assert_eq!(dedup.dropped(), 0);
    }

    #[test]
    fn merge_then_dedup_models_compaction() {
        // Newer source (e.g. an L0 file) shadows the older one (an L1 file).
        let l0 = sorted(vec![put("a", 20, "a-new"), del("b", 21), put("c", 22, "c-new")]);
        let l1 = sorted(vec![put("a", 3, "a-old"), put("b", 4, "b-old"), put("d", 5, "d-old")]);
        let compacted = drain(&mut DedupCursor::new(merge(vec![l0, l1]), true).unwrap()).unwrap();
        let keys: Vec<&[u8]> = compacted.iter().map(|e| e.key.user_key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c", b"d"]);
        assert_eq!(compacted[0].value, b"a-new");
        assert_eq!(compacted[2].value, b"d-old");
    }

    #[test]
    fn bounded_cursor_hides_versions_above_the_bound() {
        let stream = sorted(vec![
            put("a", 9, "a9"),
            put("b", 3, "b3"),
            put("b", 8, "b8"),
            del("c", 7),
            put("c", 2, "c2"),
            put("d", 12, "d12"),
        ]);
        let bounded = BoundedCursor::new(IterCursor::new(entries_to_iter(stream)).unwrap(), 7);
        let bounded = bounded.unwrap();
        let mut dedup = DedupCursor::new(bounded, false).unwrap();
        let kept = drain(&mut dedup).unwrap();
        let seen: Vec<(&[u8], u64)> =
            kept.iter().map(|e| (e.key.user_key.as_slice(), e.key.seqno)).collect();
        assert_eq!(seen, vec![(b"b".as_slice(), 3), (b"c", 7)], "the bound runs before dedup");
        let newer = IterCursor::new(entries_to_iter(vec![put("x", 5, "x")])).unwrap();
        assert!(!BoundedCursor::new(newer, 4).unwrap().valid());
    }

    #[test]
    fn heap_tie_break_prefers_earlier_source() {
        // Sources containing the exact same internal key (can only happen if a
        // caller replays the same log twice); the earliest source must win the tie.
        let sources = (0..5).map(|i| vec![put("k", 7, &format!("from-source-{i}"))]).collect();
        let merged = drain(&mut merge(sources)).unwrap();
        let values: Vec<&[u8]> = merged.iter().map(|e| e.value.as_slice()).collect();
        assert_eq!(
            values,
            vec![
                b"from-source-0".as_slice(),
                b"from-source-1",
                b"from-source-2",
                b"from-source-3",
                b"from-source-4"
            ]
        );
        let key = InternalKey::new(b"k".to_vec(), 7, ValueKind::Put);
        assert_eq!(merged[0].key, key);
    }
}
