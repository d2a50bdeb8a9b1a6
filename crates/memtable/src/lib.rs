//! The memory component (`Cm`) of the TRIAD LSM tree.
//!
//! The memtable absorbs updates in place: a key overwritten ten times occupies one
//! slot whose value is the latest version, whose `updates` counter is 10, and whose
//! commit-log position points at the newest record for that key (TRIAD's Algorithm 1
//! `CLUpdateOffset`). That per-entry metadata is exactly what the three TRIAD
//! techniques consume:
//!
//! * TRIAD-MEM ranks entries by `updates` to split hot from cold keys at flush time
//!   (see [`hotcold`]).
//! * TRIAD-LOG uses the `(log id, offset)` pair to build CL-SSTable indexes without
//!   rewriting values.
//!
//! In-place absorption is at odds with MVCC snapshots — a snapshot must read the
//! version a key had when the snapshot was taken, even after ten overwrites. The
//! memtable reconciles the two through a [`SnapshotRetention`] registry: when an
//! overwrite would shadow a version some open snapshot can still see, the shadowed
//! version moves to the slot's *prior list* instead of being discarded, and
//! seqno-bounded reads ([`Memtable::get`], [`Memtable::range_at`]) consult it. With no snapshot open (the common case) the prior list stays empty
//! and the write path pays a single relaxed atomic load.
//!
//! The table is one ordered map behind one lock: point operations hold it for a
//! single probe or update, a flush's copy comes out sorted without a merge, and
//! a scan seeks into it and copies one short chunk per lock hold. Write contention is spread by the engine's keyspace
//! shards, each with its own memtable, not inside the memtable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hotcold;

pub use hotcold::{separate_keys, HotColdPolicy, HotColdSplit};

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use triad_common::lockrank::RankedRwLock;
use triad_common::types::{Entry, InternalKey, SeqNo, ValueKind};
use triad_common::SnapshotRetention;

/// Where the newest update of a key lives in the commit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogPosition {
    /// The id of the commit log file.
    pub log_id: u64,
    /// Byte offset of the record within that file.
    pub offset: u64,
}

/// The in-memory state kept for one user key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// The latest value; empty for tombstones.
    pub value: Vec<u8>,
    /// Sequence number of the latest update.
    pub seqno: SeqNo,
    /// Whether the latest update was a put or a delete.
    pub kind: ValueKind,
    /// Number of updates absorbed by this entry since it entered the memtable
    /// (TRIAD-MEM's hotness signal).
    pub updates: u32,
    /// Commit-log position of the latest update (TRIAD-LOG's flush-avoidance handle).
    pub log_position: LogPosition,
}

impl MemEntry {
    /// Converts the entry into the engine-wide [`Entry`] representation.
    pub fn to_entry(&self, user_key: &[u8]) -> Entry {
        Entry::new(InternalKey::new(user_key.to_vec(), self.seqno, self.kind), self.value.clone())
    }

    /// Approximate heap footprint of this entry (key accounted separately).
    fn approximate_size(&self, key_len: usize) -> usize {
        key_len + self.value.len() + std::mem::size_of::<MemEntry>()
    }
}

/// One key's slot: the live (newest) version plus any superseded versions an
/// open snapshot can still see, ascending by seqno. The prior list is empty
/// unless a snapshot was open when the key was overwritten, and it is pruned on
/// every subsequent overwrite against the current snapshot registry.
#[derive(Debug, Clone)]
struct Slot {
    live: MemEntry,
    prior: Vec<MemEntry>,
}

impl Slot {
    /// The newest version visible at `snapshot`: the live one, else the newest
    /// retained prior at or below it.
    fn visible_at(&self, snapshot: SeqNo) -> Option<&MemEntry> {
        if self.live.seqno <= snapshot {
            return Some(&self.live);
        }
        self.prior.iter().rev().find(|entry| entry.seqno <= snapshot)
    }
}

/// The key → slot map, and the keys whose slot holds a prior version, kept
/// under one lock so the two always agree.
#[derive(Debug, Default)]
struct SlotMap {
    by_key: BTreeMap<Vec<u8>, Slot>,
    /// Keys whose prior list is non-empty. Empty unless a snapshot was open
    /// during an overwrite; a sweep visits only these.
    with_priors: BTreeSet<Vec<u8>>,
}

/// Where [`Memtable::encode_live`] framed each live entry: its seqno and its
/// offset within the batch, in key order. Consumed by [`Memtable::relocate`].
#[derive(Debug)]
#[must_use = "a relocation does nothing until Memtable::relocate applies it"]
pub struct Relocation {
    moves: Vec<(SeqNo, u64)>,
}

/// Rank of the memtable's map lock in the engine-wide lock order (see
/// `triad_common::lockrank` and docs/ARCHITECTURE.md): above all engine locks,
/// because the map lock is a leaf — nothing else is ever acquired while it is
/// held. Every memtable's lock shares the rank, so holding two memtables'
/// locks at once panics in debug builds.
pub const LOCK_RANK: u32 = 70;

/// The memory component: a sorted map from user key to its version slot.
#[derive(Debug)]
pub struct Memtable {
    slots: RankedRwLock<SlotMap>,
    approximate_size: AtomicUsize,
    /// Which superseded versions open MVCC snapshots can still see. Shared with
    /// the engine's snapshot registry; a memtable created with [`Memtable::new`]
    /// gets a private, always-empty registry and never retains anything.
    retention: Arc<SnapshotRetention>,
}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memtable {
    /// Creates an empty memtable with no snapshot retention (no registry is
    /// shared, so overwrites always discard the shadowed version).
    pub fn new() -> Self {
        Self::with_retention(Arc::new(SnapshotRetention::new()))
    }

    /// Creates an empty memtable wired to the engine's snapshot registry:
    /// overwrites preserve versions that registered snapshots can still see.
    pub fn with_retention(retention: Arc<SnapshotRetention>) -> Self {
        Memtable {
            slots: RankedRwLock::new(LOCK_RANK, "memtable.map", SlotMap::default()),
            approximate_size: AtomicUsize::new(0),
            retention,
        }
    }

    /// Called with the map lock held, immediately before `slot.live` is
    /// overwritten by a strictly newer version: preserves the live version on
    /// the prior list when an open snapshot can still see it.
    fn retain_shadowed(&self, key_len: usize, slot: &mut Slot) {
        let max_open = self.retention.max_open();
        if max_open > 0 && slot.live.seqno <= max_open {
            let retained = slot.live.clone();
            self.approximate_size.fetch_add(retained.approximate_size(key_len), Ordering::Relaxed);
            slot.prior.push(retained);
        }
    }

    /// Called with the map lock held, after `slot.live` was updated: drops
    /// prior versions no open snapshot can read any more. A prior version `p`
    /// is readable iff some open snapshot `S` satisfies
    /// `p.seqno <= S < successor(p).seqno`; the check below is the conservative
    /// relaxation using the registry's min/max bounds (it may keep a version a
    /// precise check would drop, never the reverse).
    fn prune_priors(&self, key_len: usize, slot: &mut Slot) {
        if slot.prior.is_empty() {
            return;
        }
        let max_open = self.retention.max_open();
        let oldest_open = self.retention.oldest_open();
        let mut idx = 0;
        while idx < slot.prior.len() {
            let successor = slot.prior.get(idx + 1).map_or(slot.live.seqno, |next| next.seqno);
            let p = &slot.prior[idx];
            let needed = p.seqno <= max_open && successor > oldest_open;
            if needed {
                idx += 1;
            } else {
                let dropped = slot.prior.remove(idx);
                self.approximate_size
                    .fetch_sub(dropped.approximate_size(key_len), Ordering::Relaxed);
            }
        }
    }

    /// Overwrites `slot.live` in place, keeping the size accounting straight.
    fn overwrite_live(&self, key_len: usize, slot: &mut Slot, new: MemEntry) {
        let old_size = slot.live.approximate_size(key_len);
        let new_size = new.approximate_size(key_len);
        slot.live = new;
        if new_size >= old_size {
            self.approximate_size.fetch_add(new_size - old_size, Ordering::Relaxed);
        } else {
            self.approximate_size.fetch_sub(old_size - new_size, Ordering::Relaxed);
        }
    }

    fn insert_new_slot(&self, map: &mut SlotMap, key: &[u8], entry: MemEntry) {
        let size = entry.approximate_size(key.len());
        map.by_key.insert(key.to_vec(), Slot { live: entry, prior: Vec::new() });
        self.approximate_size.fetch_add(size, Ordering::Relaxed);
    }

    /// Called with the map lock held: replaces `slot.live` with `entry`,
    /// retaining the shadowed version for open snapshots when `entry` is
    /// strictly newer, then pruning priors no snapshot can read, and keeps
    /// `key`'s place in `with_priors` in step. The single implementation of
    /// the retention protocol; every overwrite path above the slot level goes
    /// through here.
    fn absorb_into_slot(
        &self,
        key: &[u8],
        slot: &mut Slot,
        entry: MemEntry,
        with_priors: &mut BTreeSet<Vec<u8>>,
    ) {
        let had_priors = !slot.prior.is_empty();
        if entry.seqno > slot.live.seqno {
            self.retain_shadowed(key.len(), slot);
        }
        self.overwrite_live(key.len(), slot, entry);
        self.prune_priors(key.len(), slot);
        match (had_priors, slot.prior.is_empty()) {
            (false, false) => {
                with_priors.insert(key.to_vec());
            }
            (true, true) => {
                with_priors.remove(key);
            }
            _ => {}
        }
    }

    /// Inserts or overwrites `key`, absorbing the update in place (superseded
    /// versions visible to an open snapshot are preserved on the prior list),
    /// unless the memtable already holds a *newer* version of it.
    ///
    /// The write path applies concurrent commit groups from several threads
    /// at once, so two updates of the same key can reach the memtable out of
    /// sequence-number order; the older one must not clobber the newer. A
    /// skipped update still bumps the per-key update counter — the write
    /// happened, and TRIAD-MEM's hotness signal counts writes, not winners. A
    /// skipped update is never a snapshot-visible version either: snapshot
    /// capture drains the commit pipeline first, so a snapshot seqno never
    /// falls between two groups that were still in flight.
    ///
    /// Returns the new approximate size of the memtable in bytes.
    pub fn insert(
        &self,
        key: &[u8],
        value: &[u8],
        seqno: SeqNo,
        kind: ValueKind,
        log_position: LogPosition,
    ) -> usize {
        // Copy the value before taking the lock every reader and writer shares.
        let mut entry = MemEntry { value: value.to_vec(), seqno, kind, updates: 1, log_position };
        let mut guard = self.slots.write();
        let map = &mut *guard;
        match map.by_key.get_mut(key) {
            Some(slot) if slot.live.seqno > seqno => {
                slot.live.updates = slot.live.updates.saturating_add(1);
            }
            Some(slot) => {
                entry.updates = slot.live.updates.saturating_add(1);
                self.absorb_into_slot(key, slot, entry, &mut map.with_priors);
            }
            None => self.insert_new_slot(map, key, entry),
        }
        self.approximate_size.load(Ordering::Relaxed)
    }

    /// Inserts `entry` only if the memtable holds no newer version of `key`.
    ///
    /// This is the write-back path of TRIAD-MEM: hot entries from the memtable being
    /// flushed are re-inserted into the new active memtable, but they must never
    /// overwrite an update the application performed in the meantime. Returns `true`
    /// if the entry was installed.
    pub fn insert_entry_if_older(&self, key: &[u8], entry: MemEntry) -> bool {
        let mut guard = self.slots.write();
        let map = &mut *guard;
        match map.by_key.get_mut(key) {
            Some(slot) if slot.live.seqno >= entry.seqno => false,
            Some(slot) => {
                // Preserve the update counter the newer writes accumulated plus the
                // hotness the entry carried over.
                let mut entry = entry;
                entry.updates = slot.live.updates.saturating_add(entry.updates);
                self.absorb_into_slot(key, slot, entry, &mut map.with_priors);
                true
            }
            None => {
                self.insert_new_slot(map, key, entry);
                true
            }
        }
    }

    /// Hands every live entry, in key order, to `encode` under one read lock
    /// and without copying it; `encode` frames the entry into a batch and
    /// returns the record's offset relative to the batch start. The returned
    /// [`Relocation`] is what [`relocate`](Memtable::relocate) applies once
    /// the batch sits in a log (TRIAD's `CLUpdateOffset` for a small-flush
    /// rewrite).
    pub fn encode_live<E>(
        &self,
        mut encode: impl FnMut(&[u8], &MemEntry) -> Result<u64, E>,
    ) -> Result<Relocation, E> {
        let map = self.slots.read();
        let mut moves = Vec::with_capacity(map.by_key.len());
        for (key, slot) in &map.by_key {
            moves.push((slot.live.seqno, encode(key, &slot.live)?));
        }
        Ok(Relocation { moves })
    }

    /// Points every entry [`encode_live`](Memtable::encode_live) visited at
    /// its record in log `log_id`, whose batch starts at byte `start`, in one
    /// write-locked pass. A slot whose live version changed in between keeps
    /// its own, newer position.
    ///
    /// # Panics
    ///
    /// If a key was added in between: the caller must hold off every insert
    /// from the encode to the relocation (the engine holds its WAL lock, which
    /// every insert path takes or waits behind).
    pub fn relocate(&self, relocation: Relocation, log_id: u64, start: u64) {
        let mut map = self.slots.write();
        assert_eq!(
            map.by_key.len(),
            relocation.moves.len(),
            "the memtable's key set changed between encode_live and relocate"
        );
        for (slot, (seqno, offset)) in map.by_key.values_mut().zip(relocation.moves) {
            if slot.live.seqno == seqno {
                slot.live.log_position = LogPosition { log_id, offset: start + offset };
            }
        }
    }

    /// Returns the newest version of `key` visible at `snapshot`, consulting
    /// the retained prior versions when the live one is too new; `u64::MAX`
    /// reads the live version. With a snapshot registered in the shared
    /// [`SnapshotRetention`] before `snapshot` was chosen, every version it can
    /// see is either the live one or preserved on the prior list, so a bounded
    /// probe can never miss a key that existed at the snapshot point.
    ///
    /// The version is returned without its key, which the caller already
    /// holds: a hit copies the value and nothing else.
    pub fn get(&self, key: &[u8], snapshot: SeqNo) -> Option<MemEntry> {
        let map = self.slots.read();
        map.by_key.get(key)?.visible_at(snapshot).cloned()
    }

    /// Number of distinct keys currently held.
    pub fn len(&self) -> usize {
        self.slots.read().by_key.len()
    }

    /// Returns `true` when no keys are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes (snapshot-retained prior versions
    /// included).
    pub fn approximate_size(&self) -> usize {
        self.approximate_size.load(Ordering::Relaxed)
    }

    /// Takes a sorted snapshot of every `(key, live entry)` pair.
    ///
    /// Used by flushes; the memtable keeps serving reads while the snapshot is
    /// processed because the caller holds the snapshot by value. Prior versions
    /// are deliberately absent: a flush persists the newest version of each key,
    /// and open snapshots keep reading the retained versions through their own
    /// `Arc` of this memtable.
    pub fn snapshot_entries(&self) -> Vec<(Vec<u8>, MemEntry)> {
        let map = self.slots.read();
        map.by_key.iter().map(|(key, slot)| (key.clone(), slot.live.clone())).collect()
    }

    /// Up to `limit` keys from `lower` on, each at its newest version visible
    /// at `snapshot` (consulting retained prior versions), as the engine-wide
    /// [`Entry`] type sorted by internal key: one chunk of the source a scan
    /// merges. Keys whose oldest retained version is still newer than
    /// `snapshot` are skipped and do not count towards `limit` (they did not
    /// exist at the snapshot point). Tombstones are included — the merge
    /// layers above decide what a delete shadows. A scan reads the next chunk
    /// from `Excluded(last key)`; fewer than `limit` entries means it has
    /// reached the end.
    pub fn range_at(&self, lower: Bound<&[u8]>, snapshot: SeqNo, limit: usize) -> Vec<Entry> {
        let map = self.slots.read();
        map.by_key
            .range::<[u8], _>((lower, Bound::Unbounded))
            .filter_map(|(key, slot)| slot.visible_at(snapshot).map(|entry| entry.to_entry(key)))
            .take(limit)
            .collect()
    }

    /// Sweeps every prior list against the current retention bounds,
    /// dropping versions no open snapshot can read any more.
    ///
    /// Overwrites prune their own slot lazily, but an *idle* key's stale prior
    /// would otherwise be held until the slot's next overwrite or the flush.
    /// The engine calls this when a snapshot's deregistration moves the
    /// registry bounds, so release is prompt for idle keys too. Only the
    /// slots that hold a prior are visited; with none (the overwhelmingly
    /// common case) the sweep takes no write lock.
    pub fn prune_retained(&self) {
        if self.slots.read().with_priors.is_empty() {
            return;
        }
        let mut map = self.slots.write();
        let SlotMap { by_key, with_priors } = &mut *map;
        with_priors.retain(|key| {
            by_key.get_mut(key).is_some_and(|slot| {
                self.prune_priors(key.len(), slot);
                !slot.prior.is_empty()
            })
        });
    }

    /// Total number of snapshot-retained prior versions currently held
    /// (diagnostics and tests).
    pub fn retained_versions(&self) -> usize {
        self.slots.read().by_key.values().map(|slot| slot.prior.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn pos(log_id: u64, offset: u64) -> LogPosition {
        LogPosition { log_id, offset }
    }

    #[test]
    fn insert_and_get() {
        let memtable = Memtable::new();
        assert!(memtable.is_empty());
        memtable.insert(b"k1", b"v1", 1, ValueKind::Put, pos(1, 0));
        memtable.insert(b"k2", b"v2", 2, ValueKind::Put, pos(1, 32));
        assert_eq!(memtable.len(), 2);
        assert!(!memtable.is_empty());
        let entry = memtable.get(b"k1", u64::MAX).unwrap();
        assert_eq!(entry.value, b"v1");
        assert_eq!(entry.seqno, 1);
        assert!(memtable.get(b"missing", u64::MAX).is_none());
    }

    #[test]
    fn updates_are_absorbed_in_place() {
        let memtable = Memtable::new();
        for i in 0..10u64 {
            memtable.insert(
                b"hot",
                format!("v{i}").as_bytes(),
                i + 1,
                ValueKind::Put,
                pos(1, i * 40),
            );
        }
        assert_eq!(memtable.len(), 1, "in-place absorption keeps one slot per key");
        let raw = memtable.get(b"hot", u64::MAX).unwrap();
        assert_eq!(raw.updates, 10);
        assert_eq!(raw.value, b"v9");
        assert_eq!(raw.seqno, 10);
        assert_eq!(raw.log_position, pos(1, 9 * 40), "log position tracks the newest record");
        assert_eq!(memtable.retained_versions(), 0, "no snapshot open: nothing retained");
    }

    #[test]
    fn insert_never_lets_an_older_update_win() {
        let memtable = Memtable::new();
        memtable.insert(b"k", b"newer", 9, ValueKind::Put, pos(1, 80));
        // The straggler of a concurrent commit group arrives late: value
        // ignored, hotness still counted.
        memtable.insert(b"k", b"older", 5, ValueKind::Put, pos(1, 0));
        let raw = memtable.get(b"k", u64::MAX).unwrap();
        assert_eq!(raw.value, b"newer");
        assert_eq!(raw.seqno, 9);
        assert_eq!(raw.log_position, pos(1, 80));
        assert_eq!(raw.updates, 2, "the losing update still counts as a write");
        // In order the update is absorbed as usual.
        memtable.insert(b"k", b"newest", 12, ValueKind::Delete, pos(2, 0));
        let raw = memtable.get(b"k", u64::MAX).unwrap();
        assert_eq!(raw.seqno, 12);
        assert_eq!(raw.kind, ValueKind::Delete);
        assert_eq!(raw.updates, 3);
    }

    #[test]
    fn snapshot_visibility_respects_seqno() {
        let memtable = Memtable::new();
        memtable.insert(b"k", b"v", 10, ValueKind::Put, pos(1, 0));
        assert!(memtable.get(b"k", 9).is_none());
        assert!(memtable.get(b"k", 10).is_some());
        assert!(memtable.get(b"k", 11).is_some());
    }

    #[test]
    fn deletes_are_recorded_as_tombstones() {
        let memtable = Memtable::new();
        memtable.insert(b"k", b"v", 1, ValueKind::Put, pos(1, 0));
        memtable.insert(b"k", b"", 2, ValueKind::Delete, pos(1, 40));
        let entry = memtable.get(b"k", u64::MAX).unwrap();
        assert_eq!(entry.kind, ValueKind::Delete);
        assert!(entry.value.is_empty());
        assert_eq!(memtable.len(), 1);
    }

    #[test]
    fn approximate_size_grows_and_tracks_value_sizes() {
        let memtable = Memtable::new();
        let initial = memtable.approximate_size();
        memtable.insert(b"key", &[0u8; 1000], 1, ValueKind::Put, pos(1, 0));
        let after_large = memtable.approximate_size();
        assert!(after_large > initial + 1000);
        // Overwriting with a smaller value shrinks the accounted size.
        memtable.insert(b"key", &[0u8; 10], 2, ValueKind::Put, pos(1, 40));
        let after_small = memtable.approximate_size();
        assert!(after_small < after_large);
        assert!(after_small > 0);
    }

    #[test]
    fn snapshot_entries_are_sorted_and_complete() {
        let memtable = Memtable::new();
        let mut keys: Vec<String> =
            (0..500).map(|i| format!("key-{:04}", (i * 7919) % 1000)).collect();
        for (i, key) in keys.iter().enumerate() {
            memtable.insert(key.as_bytes(), b"v", i as u64 + 1, ValueKind::Put, pos(1, 0));
        }
        keys.sort();
        keys.dedup();
        let snapshot = memtable.snapshot_entries();
        assert_eq!(snapshot.len(), keys.len());
        for (got, want) in snapshot.iter().zip(keys.iter()) {
            assert_eq!(got.0, want.as_bytes());
        }
        for window in snapshot.windows(2) {
            assert!(window[0].0 < window[1].0);
        }
        let as_entries = memtable.range_at(Bound::Unbounded, u64::MAX, usize::MAX);
        assert_eq!(as_entries.len(), keys.len());
        for window in as_entries.windows(2) {
            assert!(window[0].key < window[1].key);
        }
    }

    #[test]
    fn insert_if_older_respects_newer_writes() {
        let memtable = Memtable::new();
        memtable.insert(b"k", b"newer", 10, ValueKind::Put, pos(2, 0));
        let stale = MemEntry {
            value: b"stale".to_vec(),
            seqno: 5,
            kind: ValueKind::Put,
            updates: 30,
            log_position: pos(1, 0),
        };
        assert!(!memtable.insert_entry_if_older(b"k", stale), "older entry must not overwrite");
        assert_eq!(memtable.get(b"k", u64::MAX).unwrap().value, b"newer");

        let fresher = MemEntry {
            value: b"fresher".to_vec(),
            seqno: 20,
            kind: ValueKind::Put,
            updates: 3,
            log_position: pos(2, 80),
        };
        assert!(memtable.insert_entry_if_older(b"k", fresher));
        let raw = memtable.get(b"k", u64::MAX).unwrap();
        assert_eq!(raw.value, b"fresher");
        assert_eq!(raw.updates, 4, "hotness carried over is combined with newer activity");

        // Inserting into an empty slot works too.
        let new_key = MemEntry {
            value: b"x".to_vec(),
            seqno: 1,
            kind: ValueKind::Put,
            updates: 7,
            log_position: pos(2, 120),
        };
        assert!(memtable.insert_entry_if_older(b"other", new_key));
        assert_eq!(memtable.len(), 2);
    }

    #[test]
    fn relocate_points_live_entries_at_the_new_log_unless_they_moved_on() {
        let (memtable, retention) = retained_memtable();
        for (i, key) in [b"a", b"b", b"c"].iter().enumerate() {
            memtable.insert(*key, b"v1", i as u64 + 1, ValueKind::Put, pos(1, i as u64 * 40));
        }
        retention.register(3);
        memtable.insert(b"b", b"v2", 4, ValueKind::Put, pos(1, 120));
        let mut visited = Vec::new();
        let relocation = memtable
            .encode_live(|key, entry| {
                visited.push((key.to_vec(), entry.seqno));
                Ok::<u64, ()>(visited.len() as u64 * 100)
            })
            .unwrap();
        assert_eq!(
            visited,
            vec![(b"a".to_vec(), 1), (b"b".to_vec(), 4), (b"c".to_vec(), 3)],
            "live versions only, in key order"
        );
        // "c" moves on between the encode and the relocation.
        memtable.insert(b"c", b"v2", 5, ValueKind::Put, pos(1, 160));
        memtable.relocate(relocation, 2, 1000);
        assert_eq!(memtable.get(b"a", u64::MAX).unwrap().log_position, pos(2, 1100));
        assert_eq!(memtable.get(b"b", u64::MAX).unwrap().log_position, pos(2, 1200));
        assert_eq!(memtable.get(b"c", u64::MAX).unwrap().log_position, pos(1, 160));
        // The priors the open snapshot retained are untouched.
        assert_eq!(memtable.get(b"b", 3).unwrap().value, b"v1");
        assert_eq!(memtable.get(b"c", 3).unwrap().value, b"v1");
        assert_eq!(memtable.retained_versions(), 2);
    }

    #[test]
    #[should_panic(expected = "key set changed")]
    fn relocate_refuses_a_key_set_that_changed() {
        let memtable = Memtable::new();
        memtable.insert(b"a", b"v", 1, ValueKind::Put, pos(1, 0));
        let relocation = memtable.encode_live(|_, _| Ok::<u64, ()>(0)).unwrap();
        memtable.insert(b"b", b"v", 2, ValueKind::Put, pos(1, 40));
        memtable.relocate(relocation, 2, 0);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let memtable = Arc::new(Memtable::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let memtable = Arc::clone(&memtable);
            handles.push(thread::spawn(move || {
                for i in 0..1_000u64 {
                    let key = format!("key-{:03}", i % 100);
                    memtable.insert(
                        key.as_bytes(),
                        b"value",
                        t * 1_000 + i + 1,
                        ValueKind::Put,
                        pos(1, i),
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(memtable.len(), 100);
        let snapshot = memtable.snapshot_entries();
        let updates: u64 = snapshot.iter().map(|(_, e)| u64::from(e.updates)).sum();
        assert_eq!(updates, 8_000, "every insert bumps exactly one entry's counter");
    }

    // ---- Snapshot retention ----

    fn retained_memtable() -> (Memtable, Arc<SnapshotRetention>) {
        let retention = Arc::new(SnapshotRetention::new());
        (Memtable::with_retention(Arc::clone(&retention)), retention)
    }

    #[test]
    fn overwrite_with_open_snapshot_preserves_the_shadowed_version() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 5, ValueKind::Put, pos(1, 0));
        retention.register(5);
        memtable.insert(b"k", b"v2", 9, ValueKind::Put, pos(1, 40));
        assert_eq!(memtable.retained_versions(), 1);
        // The live probe sees the newest version; the bounded probe the old one.
        assert_eq!(memtable.get(b"k", u64::MAX).unwrap().value, b"v2");
        let at = memtable.get(b"k", 5).unwrap();
        assert_eq!(at.value, b"v1");
        assert_eq!(at.seqno, 5);
        assert!(memtable.get(b"k", 4).is_none(), "nothing visible before seqno 5");
        assert_eq!(memtable.get(b"k", 9).unwrap().value, b"v2");
    }

    #[test]
    fn unbounded_get_reads_the_live_version_while_a_prior_is_retained() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 5, ValueKind::Put, pos(1, 0));
        retention.register(5);
        memtable.insert(b"k", b"v2", 9, ValueKind::Put, pos(1, 40));
        assert_eq!(memtable.retained_versions(), 1);
        let live = memtable.get(b"k", u64::MAX).unwrap();
        assert_eq!(live.value, b"v2");
        assert_eq!(live.seqno, 9);
    }

    #[test]
    fn no_open_snapshot_means_no_retention() {
        let (memtable, _retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 5, ValueKind::Put, pos(1, 0));
        memtable.insert(b"k", b"v2", 9, ValueKind::Put, pos(1, 40));
        assert_eq!(memtable.retained_versions(), 0);
        assert!(memtable.get(b"k", 5).is_none(), "the shadowed version was discarded");
    }

    #[test]
    fn closing_the_snapshot_lets_the_next_overwrite_prune() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 5, ValueKind::Put, pos(1, 0));
        retention.register(5);
        memtable.insert(b"k", b"v2", 9, ValueKind::Put, pos(1, 40));
        assert_eq!(memtable.retained_versions(), 1);
        let with_prior = memtable.approximate_size();
        retention.deregister(5);
        // Nothing prunes eagerly on close…
        assert_eq!(memtable.retained_versions(), 1);
        // …but the next overwrite of the slot sweeps the dead version.
        memtable.insert(b"k", b"v3", 12, ValueKind::Put, pos(1, 80));
        assert_eq!(memtable.retained_versions(), 0);
        assert!(memtable.approximate_size() <= with_prior);
    }

    #[test]
    fn multiple_snapshots_keep_their_own_versions() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 2, ValueKind::Put, pos(1, 0));
        retention.register(2);
        memtable.insert(b"k", b"v2", 6, ValueKind::Put, pos(1, 40));
        retention.register(6);
        memtable.insert(b"k", b"v3", 9, ValueKind::Put, pos(1, 80));
        assert_eq!(memtable.get(b"k", 2).unwrap().value, b"v1");
        assert_eq!(memtable.get(b"k", 6).unwrap().value, b"v2");
        assert_eq!(memtable.get(b"k", u64::MAX).unwrap().value, b"v3");
        // Dropping the older snapshot lets v1 go on the next overwrite; v2 stays.
        retention.deregister(2);
        memtable.insert(b"k", b"v4", 12, ValueKind::Put, pos(1, 120));
        assert!(memtable.get(b"k", 2).is_none());
        assert_eq!(memtable.get(b"k", 6).unwrap().value, b"v2");
        assert_eq!(memtable.retained_versions(), 1);
    }

    #[test]
    fn snapshot_sees_tombstones_and_pre_delete_values() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 3, ValueKind::Put, pos(1, 0));
        retention.register(3);
        memtable.insert(b"k", b"", 7, ValueKind::Delete, pos(1, 40));
        retention.register(7);
        memtable.insert(b"k", b"v2", 11, ValueKind::Put, pos(1, 80));
        assert_eq!(memtable.get(b"k", 3).unwrap().kind, ValueKind::Put);
        assert_eq!(memtable.get(b"k", 7).unwrap().kind, ValueKind::Delete);
        assert_eq!(memtable.get(b"k", 11).unwrap().value, b"v2");
    }

    #[test]
    fn range_at_returns_the_bounded_view() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"a", b"a1", 1, ValueKind::Put, pos(1, 0));
        memtable.insert(b"b", b"b1", 2, ValueKind::Put, pos(1, 40));
        retention.register(2);
        memtable.insert(b"a", b"a2", 5, ValueKind::Put, pos(1, 80));
        memtable.insert(b"c", b"c1", 6, ValueKind::Put, pos(1, 120));
        let at2 = memtable.range_at(Bound::Unbounded, 2, usize::MAX);
        let keys: Vec<&[u8]> = at2.iter().map(|e| e.key.user_key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b"]);
        assert_eq!(at2[0].value, b"a1", "snapshot view has the pre-overwrite value");
        // A later bound sees everything at its newest version.
        let now = memtable.range_at(Bound::Unbounded, u64::MAX, usize::MAX);
        assert_eq!(now.len(), 3);
        assert_eq!(now[0].value, b"a2");
        // The lower bound seeks: inclusive on a key, exclusive past it.
        let from_b = memtable.range_at(Bound::Included(b"b"), u64::MAX, usize::MAX);
        assert_eq!(from_b.len(), 2);
        assert_eq!(from_b[0].key.user_key, b"b");
        let after_b = memtable.range_at(Bound::Excluded(b"b"), u64::MAX, usize::MAX);
        assert_eq!(after_b.len(), 1);
        assert_eq!(after_b[0].key.user_key, b"c");
        // The unbounded flush snapshot still carries only live versions.
        assert_eq!(memtable.snapshot_entries().len(), 3);
    }

    /// Reads every key visible at `snapshot` the way a scan does: chunks of
    /// `limit`, each resuming after the last key of the one before.
    fn read_in_chunks(memtable: &Memtable, snapshot: SeqNo, limit: usize) -> Vec<Vec<Entry>> {
        let mut chunks: Vec<Vec<Entry>> = Vec::new();
        loop {
            let chunk = match chunks.last().and_then(|chunk| chunk.last()) {
                None => memtable.range_at(Bound::Unbounded, snapshot, limit),
                Some(last) => {
                    memtable.range_at(Bound::Excluded(&last.key.user_key), snapshot, limit)
                }
            };
            let done = chunk.len() < limit;
            chunks.push(chunk);
            if done {
                return chunks;
            }
        }
    }

    #[test]
    fn range_at_resumes_across_chunk_boundaries() {
        for keys in [63usize, 64, 65, 128, 129] {
            let memtable = Memtable::new();
            for i in 0..keys {
                let key = format!("key-{i:04}");
                memtable.insert(key.as_bytes(), b"v", i as u64 + 1, ValueKind::Put, pos(1, 0));
            }
            let chunks = read_in_chunks(&memtable, u64::MAX, 64);
            let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
            let mut expected = vec![64; keys / 64];
            expected.push(keys % 64);
            assert_eq!(sizes, expected, "{keys} keys");
            let read: Vec<Entry> = chunks.into_iter().flatten().collect();
            assert_eq!(read.len(), keys);
            for (i, entry) in read.iter().enumerate() {
                assert_eq!(entry.key.user_key, format!("key-{i:04}").as_bytes());
            }
        }
    }

    #[test]
    fn range_at_chunks_read_retained_priors_and_skip_invisible_keys() {
        let (memtable, retention) = retained_memtable();
        for i in 0..128u64 {
            let key = format!("key-{i:04}");
            memtable.insert(key.as_bytes(), b"old", i + 1, ValueKind::Put, pos(1, 0));
        }
        retention.register(128);
        // Overwrite every key and add keys the snapshot cannot see, one
        // between each pair of old keys.
        for i in 0..128u64 {
            let key = format!("key-{i:04}");
            memtable.insert(key.as_bytes(), b"new", 200 + i, ValueKind::Put, pos(1, 0));
            let later = format!("key-{i:04}-later");
            memtable.insert(later.as_bytes(), b"new", 400 + i, ValueKind::Put, pos(1, 0));
        }
        let chunks = read_in_chunks(&memtable, 128, 64);
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![64, 64, 0], "invisible keys do not count towards a chunk");
        for (i, entry) in chunks.iter().flatten().enumerate() {
            assert_eq!(entry.key.user_key, format!("key-{i:04}").as_bytes());
            assert_eq!(entry.value, b"old", "the retained prior is read");
            assert_eq!(entry.key.seqno, i as u64 + 1);
        }
        // The live view sees every key at its newest version.
        let live: Vec<Entry> =
            read_in_chunks(&memtable, u64::MAX, 64).into_iter().flatten().collect();
        assert_eq!(live.len(), 256);
        assert!(live.iter().all(|entry| entry.value == b"new"));
    }

    #[test]
    fn prune_retained_sweeps_idle_keys_after_the_bounds_move() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"idle", b"v1", 5, ValueKind::Put, pos(1, 0));
        retention.register(5);
        memtable.insert(b"idle", b"v2", 9, ValueKind::Put, pos(1, 40));
        assert_eq!(memtable.retained_versions(), 1);
        let with_prior = memtable.approximate_size();
        assert!(retention.deregister(5), "the registry emptied: bounds moved");
        // The key is never touched again; the sweep alone must free the prior.
        memtable.prune_retained();
        assert_eq!(memtable.retained_versions(), 0);
        assert!(memtable.approximate_size() < with_prior);
        assert_eq!(memtable.get(b"idle", u64::MAX).unwrap().value, b"v2");
    }

    #[test]
    fn prune_retained_keeps_versions_live_snapshots_can_see() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", b"v1", 2, ValueKind::Put, pos(1, 0));
        retention.register(2);
        memtable.insert(b"k", b"v2", 6, ValueKind::Put, pos(1, 40));
        retention.register(6);
        memtable.insert(b"k", b"v3", 9, ValueKind::Put, pos(1, 80));
        assert_eq!(memtable.retained_versions(), 2);
        retention.deregister(2);
        memtable.prune_retained();
        assert_eq!(memtable.retained_versions(), 1, "snapshot 6 still needs v2");
        assert_eq!(memtable.get(b"k", 6).unwrap().value, b"v2");
        retention.deregister(6);
        memtable.prune_retained();
        assert_eq!(memtable.retained_versions(), 0);
    }

    /// The keys a full walk finds holding a prior version.
    fn keys_with_priors(memtable: &Memtable) -> BTreeSet<Vec<u8>> {
        let map = memtable.slots.read();
        map.by_key
            .iter()
            .filter(|(_, slot)| !slot.prior.is_empty())
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn tracked_prior_keys_match_a_full_walk_under_random_overwrites() {
        let (memtable, retention) = retained_memtable();
        let mut open: Vec<SeqNo> = Vec::new();
        let mut seqno: SeqNo = 0;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..20_000 {
            match next(10) {
                0 => {
                    retention.register(seqno);
                    open.push(seqno);
                }
                1 if !open.is_empty() => {
                    // Half the time the sweep is left out, so overwrites
                    // also prune a slot's last prior on their own.
                    let closed = open.swap_remove(next(open.len() as u64) as usize);
                    if retention.deregister(closed) && next(2) == 0 {
                        memtable.prune_retained();
                    }
                }
                2 => {
                    // A TRIAD-MEM write-back of an older or newer version.
                    let key = format!("k{:03}", next(64)).into_bytes();
                    let entry = MemEntry {
                        value: b"back".to_vec(),
                        seqno: seqno.saturating_sub(next(4)),
                        kind: ValueKind::Put,
                        updates: 1,
                        log_position: pos(1, 0),
                    };
                    memtable.insert_entry_if_older(&key, entry);
                }
                _ => {
                    seqno += 1;
                    let key = format!("k{:03}", next(64)).into_bytes();
                    memtable.insert(&key, b"v", seqno, ValueKind::Put, pos(1, seqno));
                }
            }
            let tracked = memtable.slots.read().with_priors.clone();
            assert_eq!(
                tracked,
                keys_with_priors(&memtable),
                "step {step}: the tracked keys diverge from a full walk"
            );
        }
        assert!(memtable.retained_versions() > 0, "some overwrite must have retained a prior");
        // With every snapshot closed, one sweep of the tracked keys empties
        // every prior list, as a sweep of every slot would.
        for closed in open.drain(..) {
            retention.deregister(closed);
        }
        memtable.prune_retained();
        assert_eq!(memtable.retained_versions(), 0);
        assert!(memtable.slots.read().with_priors.is_empty());
    }

    #[test]
    fn retained_versions_are_counted_in_the_approximate_size() {
        let (memtable, retention) = retained_memtable();
        memtable.insert(b"k", &[0u8; 512], 1, ValueKind::Put, pos(1, 0));
        let before = memtable.approximate_size();
        retention.register(1);
        memtable.insert(b"k", &[0u8; 512], 2, ValueKind::Put, pos(1, 40));
        assert!(
            memtable.approximate_size() >= before + 512,
            "the retained 512-byte version must be accounted"
        );
    }
}
