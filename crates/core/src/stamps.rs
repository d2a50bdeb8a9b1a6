//! Cross-shard batch-stamp retention.
//!
//! A shard-spanning batch commits per shard, and recovery decides whether the
//! batch was complete by counting durable stamped slices (see
//! [`torn_batch_drops`](crate::db::torn_batch_drops)). That count is only
//! sound while every slice's stamped WAL record is still *on disk*: once a
//! shard flushes a slice into an SSTable, the stamp survives only in the
//! retired commit log — and if garbage collection deletes that log, a fully
//! acknowledged batch becomes indistinguishable from a torn one, and recovery
//! would drop the other shards' acknowledged slices.
//!
//! [`StampRetention`] closes that hole. Every shard of one database (primary
//! or replica) shares a single registry:
//!
//! * the commit paths call [`note_slice`](StampRetention::note_slice) when a
//!   stamped record is appended, recording which log holds the slice's
//!   evidence;
//! * flush calls [`note_graduated`](StampRetention::note_graduated) when it
//!   advances a shard's recovery horizon, marking every slice below the
//!   horizon as captured by the version chain;
//! * a failed cross-shard fan-out calls [`abandon`](StampRetention::abandon)
//!   so a batch that can never complete does not pin its logs forever;
//! * garbage collection asks [`retained_logs`](StampRetention::retained_logs)
//!   which logs still hold the last evidence of an unsettled batch and keeps
//!   them on disk (checkpoints capture them for the same reason).
//!
//! Outside the startup sweep, every commit log leaves the disk through garbage
//! collection, so every retirement honours the registry: a flushed memtable's sealed log, and also
//! the log a TRIAD-MEM small-flush skip leaves behind. The skip rewrites the
//! memtable's live entries into a new log without their stamps, so until the
//! batch settles the old log is its only evidence on that shard. The skip
//! hands it to the collector once the rewrite is fsynced, and the collector
//! keeps it while the registry names it.
//!
//! A batch **settles** — and its logs are released — once every noted slice
//! has graduated and either all `fanout` slices were noted (the batch
//! committed everywhere) or the fan-out was abandoned (it never will). The
//! registry is in-memory only: recovery reconstructs the same information by
//! reading the retained sub-horizon logs as evidence (see `Db::open`), after
//! which the startup sweep deletes them — every prior-epoch batch is resolved
//! by then, one way or the other.

use std::collections::{HashMap, HashSet};

use triad_common::lockrank::RankedMutex;
use triad_wal::BatchStamp;

use crate::db::lock_rank;

/// One noted slice: which shard committed it and which commit log holds its
/// stamped records.
struct SliceNote {
    shard: usize,
    log_id: u64,
    graduated: bool,
}

/// Everything known about one in-flight cross-shard batch.
struct BatchNote {
    fanout: u32,
    abandoned: bool,
    slices: Vec<SliceNote>,
}

impl BatchNote {
    /// A batch settles once nothing about it can change *and* no log is its
    /// last evidence: every noted slice graduated into the version chain, and
    /// either all `fanout` slices arrived or none ever will.
    fn settled(&self) -> bool {
        self.slices.iter().all(|slice| slice.graduated)
            && (self.slices.len() as u32 >= self.fanout || self.abandoned)
    }
}

/// Shared registry of in-flight cross-shard batches; see the module docs.
pub(crate) struct StampRetention {
    stamps: RankedMutex<HashMap<u64, BatchNote>>,
}

impl StampRetention {
    pub(crate) fn new() -> StampRetention {
        StampRetention { stamps: RankedMutex::new(lock_rank::STAMPS, "db.stamps", HashMap::new()) }
    }

    /// Records that `shard` appended `stamp`'s slice to commit log `log_id`.
    /// Idempotent per `(batch, shard)`: the first note wins, because the log
    /// it names is where the stamped record actually lives (later re-appends
    /// of the same entries — hot write-back, replica re-ships — carry no
    /// stamp).
    pub(crate) fn note_slice(&self, shard: usize, log_id: u64, stamp: &BatchStamp) {
        let mut stamps = self.stamps.lock();
        let note = stamps.entry(stamp.batch_id).or_insert_with(|| BatchNote {
            fanout: stamp.fanout,
            abandoned: false,
            slices: Vec::with_capacity(stamp.fanout as usize),
        });
        if note.slices.iter().any(|slice| slice.shard == shard) {
            return;
        }
        note.slices.push(SliceNote { shard, log_id, graduated: false });
    }

    /// Marks every slice `shard` committed to a log below `horizon` as
    /// graduated (a flush advanced the shard's recovery `log_number` to
    /// `horizon`, so the version chain now owns those records), and drops
    /// batches that settled as a result.
    pub(crate) fn note_graduated(&self, shard: usize, horizon: u64) {
        let mut stamps = self.stamps.lock();
        for note in stamps.values_mut() {
            for slice in &mut note.slices {
                if slice.shard == shard && slice.log_id < horizon {
                    slice.graduated = true;
                }
            }
        }
        stamps.retain(|_, note| !note.settled());
    }

    /// Marks `batch_id` as never-completing (its fan-out failed partway); the
    /// slices that did commit stop holding logs once they graduate. Recovery
    /// still sees the tear — a torn batch's drop decision never depended on
    /// retention, only a complete batch's survival does.
    pub(crate) fn abandon(&self, batch_id: u64) {
        let mut stamps = self.stamps.lock();
        let Some(note) = stamps.get_mut(&batch_id) else { return };
        note.abandoned = true;
        if note.settled() {
            stamps.remove(&batch_id);
        }
    }

    /// The commit logs on `shard` still holding the last evidence of an
    /// unsettled batch. Garbage collection must not delete these, and a
    /// checkpoint must capture them: without the stamped records a reopen
    /// cannot tell the batch committed everywhere.
    pub(crate) fn retained_logs(&self, shard: usize) -> HashSet<u64> {
        let stamps = self.stamps.lock();
        stamps
            .values()
            .flat_map(|note| note.slices.iter())
            .filter(|slice| slice.shard == shard)
            .map(|slice| slice.log_id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(batch_id: u64, fanout: u32) -> BatchStamp {
        BatchStamp { batch_id, fanout, len: 1 }
    }

    #[test]
    fn logs_are_retained_until_every_slice_graduates() {
        let retention = StampRetention::new();
        retention.note_slice(0, 7, &stamp(1, 2));
        retention.note_slice(1, 9, &stamp(1, 2));
        assert!(retention.retained_logs(0).contains(&7));
        assert!(retention.retained_logs(1).contains(&9));

        // Shard 0 flushes: its log is still evidence (shard 1 hasn't graduated).
        retention.note_graduated(0, 8);
        assert!(retention.retained_logs(0).contains(&7));

        // Shard 1 flushes too: the batch settles, both logs release.
        retention.note_graduated(1, 10);
        assert!(retention.retained_logs(0).is_empty());
        assert!(retention.retained_logs(1).is_empty());
    }

    #[test]
    fn incomplete_batches_hold_until_abandoned() {
        let retention = StampRetention::new();
        retention.note_slice(0, 4, &stamp(3, 3));
        retention.note_graduated(0, 5);
        // One of three slices, graduated — without an abandon the batch could
        // still complete, so the evidence stays.
        assert!(retention.retained_logs(0).contains(&4));
        retention.abandon(3);
        assert!(retention.retained_logs(0).is_empty());
    }

    #[test]
    fn duplicate_notes_keep_the_first_log() {
        let retention = StampRetention::new();
        retention.note_slice(0, 4, &stamp(5, 2));
        retention.note_slice(0, 6, &stamp(5, 2));
        let logs = retention.retained_logs(0);
        assert!(logs.contains(&4));
        assert!(!logs.contains(&6));
    }
}
