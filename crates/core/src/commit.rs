//! The write path: how a batch commits.
//!
//! There is exactly one way, and every writer takes it on its own thread:
//! [`DbInner::write_batch`] makes the batch its own *commit group*. A short
//! **append stage** under the WAL lock pre-assigns the seqno range, encodes,
//! appends with one buffered write and flushes to the OS; concurrent writers
//! serialize there. The batch then **inserts** into the memtable outside that
//! lock — with the commit-log position of each record, the contract TRIAD-MEM
//! and TRIAD-LOG build on — and, if it owes an fsync, waits on the durability
//! watermark ([`durability`](crate::durability)), where one fsync covers every
//! batch appended before it runs. Finally the group **publishes** its seqno
//! range in append order through the [`PublicationSequencer`]. Groups hold the
//! commit gate shared from append to publication; rotation and snapshot capture
//! take it exclusively to drain the pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use triad_common::failpoint::Failpoint;
use triad_common::lockrank::RankedRwLockReadGuard;
use triad_common::types::{SeqNo, ValueKind};
use triad_common::{Error, Result};
use triad_memtable::{LogPosition, Memtable};
use triad_wal::{BatchEncoder, LogAppender, LogSyncHandle};

use crate::batch::{BatchOp, WriteBatch, WriteOptions};
use crate::db::{DbInner, WalState};
use crate::durability::SyncOutcome;
use crate::options::SyncMode;

/// What the append stage may touch under the append lock: the active log's
/// append half and the [`WalState`] bookkeeping the stage advances. The
/// `LogWriter` itself is out of reach, so nothing in the stage can fsync.
struct AppendStage<'a> {
    log: LogAppender<'a>,
    log_id: u64,
    encoder: &'a mut BatchEncoder,
    next_seqno: &'a mut SeqNo,
    writes_since_sync: &'a mut u64,
    next_group_index: &'a mut u64,
}

impl<'a> AppendStage<'a> {
    fn of(wal: &'a mut WalState) -> Self {
        let WalState { writer, id, writes_since_sync, next_seqno, encoder, next_group_index } = wal;
        AppendStage {
            log: writer.appender(),
            log_id: *id,
            encoder,
            next_seqno,
            writes_since_sync,
            next_group_index,
        }
    }
}

/// The outcome of a commit group's append stage. The group is *not yet* as
/// durable as the sync policy demands when this is handed out — durability is
/// the sync stage's job, tracked by the watermark.
struct AppendPhase<'a> {
    /// The memory component that was active while the group was appended.
    mem: Arc<Memtable>,
    /// Id of the commit log the group went into.
    log_id: u64,
    /// Sequence number of the batch's first operation.
    first_seqno: SeqNo,
    /// Sequence number of the batch's last operation — published once the
    /// group retires.
    group_end: SeqNo,
    /// Commit-log position of every record, in op order: record `i` carries
    /// seqno `first_seqno + i`.
    positions: Vec<LogPosition>,
    /// Present exactly when the group must be fsynced before it is
    /// acknowledged: fsyncs the appended-to log without the append lock. Set
    /// by `write_batch` after the append stage, never inside it.
    sync: Option<LogSyncHandle>,
    /// The group's durability target: the cumulative appended watermark right
    /// after its append.
    sync_target: u64,
    /// Total framed bytes appended for the group.
    wal_bytes: u64,
    /// Publication ticket; groups retire strictly in this order.
    group_index: u64,
    /// Shared pipeline membership: held from the append until publication, so
    /// an exclusive gate acquisition means "the pipeline is drained".
    gate: RankedRwLockReadGuard<'a, ()>,
}

impl DbInner {
    /// Applies a batch: append to the commit log, insert into the active
    /// memtable, wait for the durability the sync policy demands, publish, then
    /// decide whether a rotation is needed. Returns the sequence number of the
    /// batch's last operation. Runs without an engine-wide lock outside the
    /// short append stage.
    pub(crate) fn write_batch(&self, batch: WriteBatch, opts: WriteOptions) -> Result<SeqNo> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Error::ShuttingDown);
        }
        if batch.is_empty() {
            return Ok(self.last_seqno.load(Ordering::Acquire));
        }
        self.failpoints.check(Failpoint::WriteBeforeWalAppend)?;

        let timed = self.stats.sample_timing();
        let append_started = timed.then(Instant::now);
        let mut wal = self.wal.lock();
        let (mut phase, need_sync) =
            self.append_phase(AppendStage::of(&mut wal), &batch, opts.sync)?;
        // The fsync itself runs behind the released append lock, through a
        // handle shared with the writer.
        if need_sync {
            phase.sync = Some(wal.writer.sync_handle());
        }
        drop(wal);
        if let Some(started) = append_started {
            self.stats.add_wal_append_us(started.elapsed().as_micros() as u64);
        }

        // The crash windows the recovery tests probe. First: the group is
        // appended (and OS-flushed) but nothing has reached the memtable.
        if let Err(e) = self.failpoints.check(Failpoint::CommitAfterGroupWalAppend) {
            return self.abandon_group(phase, e);
        }
        // Second, for durable groups only: appended but not yet fsynced — the
        // window a machine crash may lose, which must never cover an acked write.
        if phase.sync.is_some() {
            if let Err(e) = self.failpoints.check(Failpoint::CommitBeforeGroupWalSync) {
                return self.abandon_group(phase, e);
            }
        }

        // Insert phase, outside the WAL lock. `Memtable::insert` keeps a
        // straggling older update of a key from clobbering a newer one that a
        // faster writer, appended later, applied first. Each insert returns
        // the memtable's size after it; the last one feeds the rotation check.
        let mut mem_size = 0;
        for (seqno, (op, &position)) in
            (phase.first_seqno..).zip(batch.ops.iter().zip(&phase.positions))
        {
            mem_size = phase.mem.insert(&op.key, &op.value, seqno, op.kind, position);
        }

        // Durability stage, overlapping the next group's append. Either the
        // watermark already passed our end offset (an in-flight neighbour's
        // fsync covered us: the overlapped case) or we queue for the fsync lock
        // and issue one fsync that retires every group appended so far. A
        // sync-required write is never acknowledged before this returns.
        if let Some(handle) = &phase.sync {
            let sync_started = timed.then(Instant::now);
            let synced = self.watermark.ensure_durable(phase.log_id, phase.sync_target, handle);
            if let Some(started) = sync_started {
                self.stats.add_wal_sync_wait_us(started.elapsed().as_micros() as u64);
            }
            match synced {
                Ok(SyncOutcome::Synced) => self.stats.add_wal_syncs(1),
                Ok(SyncOutcome::AlreadyDurable) => self.stats.add_wal_syncs_overlapped(1),
                // The inserts are in the memtable but nothing was acknowledged
                // or published — the standard contract that an unacknowledged
                // write may or may not survive.
                Err(e) => return self.abandon_group(phase, e),
            }
        }

        // Stats are recorded only for groups that made it past every failure
        // window: an abandoned group acknowledged nothing, so counting it would
        // inflate throughput counters and unbalance the
        // `wal_syncs + wal_syncs_overlapped == batches` books.
        self.record_group_stats(&batch, phase.wal_bytes);
        let end = phase.group_end;
        self.retire(phase, true);

        // `rotate_locked` drains the pipeline (exclusive gate) before sealing,
        // so in-flight groups always finish into the memtable they appended
        // against.
        self.maybe_rotate(mem_size)?;
        Ok(end)
    }

    /// The append stage of a commit group — the only part under the
    /// append (WAL) lock, and deliberately free of durable I/O: pre-assign the
    /// seqno range, encode, append with one buffered write, flush to the OS,
    /// record the durability target and take a pipeline membership on the
    /// gate. The moment the caller drops the lock, the next writer can append
    /// — this group's fsync (if any) happens behind it. Returns the phase and
    /// whether the group owes an fsync.
    ///
    /// The stage sees the log only through its [`LogAppender`], which cannot
    /// sync: holding the append lock across an fsync would re-serialize the
    /// commit path, and here it does not compile.
    fn append_phase<'a>(
        &'a self,
        mut stage: AppendStage<'_>,
        batch: &WriteBatch,
        force_sync: bool,
    ) -> Result<(AppendPhase<'a>, bool)> {
        let log_id = stage.log_id;
        let mem = self.mem.read().clone();
        let first_seqno = *stage.next_seqno;

        if let Some(stamp) = &batch.stamp {
            // The stamped record below is this shard's durable evidence of a
            // cross-shard batch: keep its log on disk until every shard's
            // slice graduates (see `stamps.rs`).
            self.stamps.note_slice(self.shard_index, log_id, stamp);
        }
        stage.encoder.clear();
        let mut positions = Vec::with_capacity(batch.ops.len());
        for (op_index, BatchOp { kind, key, value }) in batch.ops.iter().enumerate() {
            // A cross-shard slice's stamp rides on its first record only.
            let stamp = if op_index == 0 { batch.stamp } else { None };
            let seqno = first_seqno + op_index as u64;
            let offset = stage.encoder.add_parts_stamped(seqno, *kind, key, value, stamp)?;
            positions.push(LogPosition { log_id, offset });
        }
        let group_end = first_seqno + positions.len() as u64 - 1;
        let wal_bytes = stage.encoder.encoded_bytes();
        // Consume the range *before* attempting the append: a failed
        // `write_all` can still leave complete frames durable in the file, and
        // re-issuing those seqnos to different data would let recovery (which
        // keeps the first record it sees at a given (key, seqno)) prefer the
        // dead group's values over later acknowledged writes. A gap in the
        // seqno space on failure is harmless. The writer additionally poisons
        // itself after a failed write, because its offset accounting is no
        // longer trustworthy.
        *stage.next_seqno = group_end + 1;
        let start = stage.log.append_batch(stage.encoder)?;
        for position in &mut positions {
            position.offset += start;
        }
        // Push the frames to the OS now: a concurrent group's fsync covers every
        // byte the OS has, so ours can retire on another group's watermark
        // advance without any further I/O from this thread.
        stage.log.flush()?;

        *stage.writes_since_sync += positions.len() as u64;
        let need_sync = match self.options.sync_mode {
            SyncMode::SyncEveryWrite => true,
            SyncMode::SyncEvery(n) => force_sync || *stage.writes_since_sync >= n,
            SyncMode::NoSync => force_sync,
        };
        if need_sync {
            *stage.writes_since_sync = 0;
        }
        let sync_target = self.watermark.record_append(log_id, wal_bytes);
        self.wal_size_hint.store(stage.log.size(), Ordering::Relaxed);
        let group_index = *stage.next_group_index;
        *stage.next_group_index += 1;
        let depth = self.pipeline_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.record_pipeline_depth(depth);
        // Pipeline membership before the append lock goes: an exclusive gate
        // acquisition (scan capture, rotation) means every in-flight group has
        // published. Never blocks here — every exclusive acquirer holds the WAL
        // lock first, and the caller holds it.
        let gate = self.commit_gate.read();
        let phase = AppendPhase {
            mem,
            log_id,
            first_seqno,
            group_end,
            positions,
            sync: None,
            sync_target,
            wal_bytes,
            group_index,
            gate,
        };
        Ok((phase, need_sync))
    }

    /// Abandons a group after its append stage: the seqno range and the
    /// publication ticket are consumed (the appended records may be replayed
    /// by recovery, so neither may ever be re-issued), nothing is published,
    /// and the writer gets `error`.
    fn abandon_group(&self, phase: AppendPhase<'_>, error: Error) -> Result<SeqNo> {
        let need_sync = phase.sync.is_some();
        self.retire(phase, false);
        // The append stage reset `writes_since_sync` on the promise that this
        // group's sync stage would run; it never did. Re-arm the SyncEvery(n)
        // deadline so the next group syncs immediately — otherwise a transient
        // fsync failure would silently stretch the durability interval to up to
        // 2n-1 writes. (Taken after the gate is released: WAL-then-gate is the
        // global order, so the WAL lock must never be acquired while holding a
        // gate membership.)
        if need_sync {
            if let SyncMode::SyncEvery(n) = self.options.sync_mode {
                let mut wal = self.wal.lock();
                wal.writes_since_sync = wal.writes_since_sync.max(n);
            }
        }
        Err(error)
    }

    /// Publication, strictly in append order, then the end of the group's
    /// pipeline membership. `last_seqno` moves through contiguous group ranges
    /// only, so a published seqno never outruns the WAL-and-memtable prefix
    /// that backs it; a group that completes before a predecessor just leaves
    /// its end for that predecessor to apply, so nobody parks here. An
    /// abandoned group (`published == false`) still retires its ticket, or
    /// every later group would wait forever on the gap. Dropping the gate
    /// membership lets a draining rotation or scan capture proceed — by then
    /// every membered group has completed, so the ready set is fully applied.
    fn retire(&self, phase: AppendPhase<'_>, published: bool) {
        let group_end = published.then_some(phase.group_end);
        self.publisher.complete(phase.group_index, group_end, |end| {
            self.last_seqno.store(end, Ordering::Release);
        });
        // Depth counts *physically* in-flight groups, so it decrements on
        // completion, not on in-order retirement (which can lag behind a slow
        // head-of-line group).
        self.pipeline_depth.fetch_sub(1, Ordering::Relaxed);
        drop(phase.gate);
    }

    /// Writer-side rotation check: a lock-free pre-check against
    /// `inserted_size`, the size the group's last insert left its memtable
    /// at, and the `wal_size_hint` (maintained by the append stage), then —
    /// only when a trigger fires — re-verification against the active
    /// memtable and rotation under the WAL lock (another writer may have
    /// rotated first, so the group's memtable may already be sealed). Keeping
    /// the common no-rotation case off every lock matters because the next
    /// writer is appending under the WAL lock right now. A small-flush skip's
    /// fsync and retirement run after the lock is released.
    fn maybe_rotate(&self, inserted_size: usize) -> Result<()> {
        if inserted_size < self.options.memtable_size
            && (self.wal_size_hint.load(Ordering::Relaxed) as usize) < self.options.max_log_size
        {
            return Ok(());
        }
        let mut wal = self.wal.lock();
        let mem = self.mem.read().clone();
        let mem_size = mem.approximate_size();
        if mem_size < self.options.memtable_size
            && (wal.writer.size() as usize) < self.options.max_log_size
        {
            return Ok(());
        }
        let skipped = self.rotate_locked(&mut wal, &mem, mem_size)?;
        drop(wal);
        if let Some(skipped) = skipped {
            self.finish_skip(skipped)?;
        }
        Ok(())
    }

    /// Per-group statistics: one add per counter, after the WAL lock is gone.
    fn record_group_stats(&self, batch: &WriteBatch, wal_bytes: u64) {
        let mut user_bytes = 0u64;
        let mut puts = 0u64;
        let mut deletes = 0u64;
        for BatchOp { kind, key, value } in &batch.ops {
            user_bytes += (key.len() + value.len()) as u64;
            match kind {
                ValueKind::Put => puts += 1,
                ValueKind::Delete => deletes += 1,
            }
        }
        self.stats.add_wal_appends(batch.ops.len() as u64);
        self.stats.add_wal_bytes_written(wal_bytes);
        self.stats.add_user_bytes_written(user_bytes);
        self.stats.add_user_writes(puts);
        self.stats.add_user_deletes(deletes);
        self.stats.add_write_groups(1);
        self.stats.add_write_group_batches(1);
    }
}

/// Retires commit groups in append order — without ever parking.
///
/// Appending is decoupled from publication: group N+1 may finish its memtable
/// inserts (and even its fsync) while group N is still in flight. `last_seqno`
/// must nevertheless move monotonically through contiguous group ranges, so
/// every group takes a ticket (its *group index*, assigned under the append
/// lock) and *completes* it when done. The group that is next in order
/// publishes in place and then applies every successor that completed ahead
/// of it; a group whose predecessors are still in flight leaves its entry
/// behind and moves on, and the predecessor that arrives last applies it. A
/// group that failed after its append completes with `None`, so a
/// consumed-but-unpublished seqno range never wedges the pipeline.
#[derive(Debug, Default)]
pub(crate) struct PublicationSequencer {
    state: Mutex<PublishState>,
}

#[derive(Debug, Default)]
struct PublishState {
    /// The next group index to retire.
    next: u64,
    /// Completed groups waiting for a predecessor: index → published seqno
    /// (`None` for failed groups, which retire silently).
    ready: BTreeMap<u64, Option<SeqNo>>,
}

impl PublicationSequencer {
    /// Registers group `index` as complete (`seqno` = its group end, or `None`
    /// if it failed) and, if it is next in order, retires it and every ready
    /// successor, invoking `publish` with each successively larger published
    /// seqno. Returns how many groups retired in this call (0 when a
    /// predecessor is still in flight).
    pub(crate) fn complete(
        &self,
        index: u64,
        seqno: Option<SeqNo>,
        mut publish: impl FnMut(SeqNo),
    ) -> u64 {
        let mut state = self.state.lock();
        if index != state.next {
            state.ready.insert(index, seqno);
            return 0;
        }
        let mut retired = 0;
        let mut entry = Some(seqno);
        while let Some(seqno) = entry {
            if let Some(group_end) = seqno {
                publish(group_end);
            }
            state.next += 1;
            retired += 1;
            let next = state.next;
            entry = state.ready.remove(&next);
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_sequencer_applies_completions_in_index_order() {
        let sequencer = PublicationSequencer::default();
        let mut published = Vec::new();
        // Indices 1 and 2 complete first: nothing may publish while index 0 is
        // still in flight — the entries wait in the ready set.
        assert_eq!(sequencer.complete(1, Some(20), |s| published.push(s)), 0);
        assert_eq!(sequencer.complete(2, Some(30), |s| published.push(s)), 0);
        assert!(published.is_empty(), "nothing may publish before index 0");
        // Index 0 arrives last and drains the whole backlog, in order.
        assert_eq!(sequencer.complete(0, Some(10), |s| published.push(s)), 3);
        assert_eq!(published, vec![10, 20, 30]);
    }

    #[test]
    fn publication_sequencer_retires_failed_groups_silently() {
        let sequencer = PublicationSequencer::default();
        let mut published = Vec::new();
        assert_eq!(sequencer.complete(0, Some(5), |s| published.push(s)), 1);
        // A failed group completes with None: it retires without publishing…
        assert_eq!(sequencer.complete(1, None, |s| published.push(s)), 1);
        // …and the next group drains immediately — no wedged gap.
        assert_eq!(sequencer.complete(2, Some(9), |s| published.push(s)), 1);
        assert_eq!(published, vec![5, 9]);
    }
}
