//! The write path: how a batch commits.
//!
//! There is exactly one way: [`DbInner::write_batch`] joins the commit queue
//! ([`committer`](crate::committer)); one writer leads a *commit group* through
//! a short **append stage** under the WAL lock (drain, pre-assign seqnos,
//! encode, one buffered append, OS flush) and hands leadership on the moment
//! that lock is released; every member then **inserts** its own batch into the
//! memtable — with the commit-log position of each record, the contract
//! TRIAD-MEM and TRIAD-LOG build on — while the leader runs the **sync stage**
//! against the durability watermark ([`durability`](crate::durability)); and
//! the group **publishes** its seqno range in append order. Groups hold the
//! commit gate shared from append to publication; rotation and snapshot
//! capture take it exclusively to drain the pipeline.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use triad_common::lockrank::RankedRwLockReadGuard;
use triad_common::types::{SeqNo, ValueKind};
use triad_common::{Error, Result};
use triad_memtable::{LogPosition, Memtable};
use triad_wal::LogSyncHandle;

use crate::batch::{BatchOp, WriteBatch, WriteOptions};
use crate::committer::{Direction, InsertBarrier, InsertTicket, WriterSlot};
use crate::db::{DbInner, WalState};
use crate::durability::SyncOutcome;
use crate::options::SyncMode;

/// The outcome of a commit group's append stage. The group is *not yet* as
/// durable as the sync policy demands when this is handed out — durability is
/// the sync stage's job, tracked by the watermark.
struct AppendPhase<'a> {
    /// The memory component that was active while the group was appended.
    mem: Arc<Memtable>,
    /// Id of the commit log the group went into.
    log_id: u64,
    /// First sequence number of the group (slot 0's first operation).
    first_seqno: SeqNo,
    /// Last sequence number of the group — published once the group retires.
    group_end: SeqNo,
    /// Per-slot absolute record offsets, parallel to the group vector.
    slot_offsets: Vec<Vec<u64>>,
    /// Whether this group must be fsynced before anyone acknowledges it.
    need_sync: bool,
    /// The group's durability target: the cumulative appended watermark right
    /// after its append.
    sync_target: u64,
    /// Fsyncs the appended-to log without the append lock.
    sync_handle: LogSyncHandle,
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
    /// memtable, then decide whether a rotation is needed. Returns the sequence
    /// number of the batch's last operation.
    ///
    /// Concurrent callers are combined into commit groups: one writer becomes
    /// the leader and appends the whole group's records with a single buffered
    /// WAL write, and every member then inserts its own batch into the sharded
    /// memtable in parallel, outside the WAL lock (see the
    /// [`committer`](crate::committer) module).
    pub(crate) fn write_batch(&self, batch: WriteBatch, opts: WriteOptions) -> Result<SeqNo> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Error::ShuttingDown);
        }
        if batch.is_empty() {
            return Ok(self.last_seqno.load(Ordering::Acquire));
        }
        self.failpoints.check("write.before_wal_append")?;

        let (slot, is_leader) = self.committer.join(batch, opts);
        if is_leader {
            return self.lead_group(slot);
        }
        match slot.wait_for_direction() {
            Direction::Lead => self.lead_group(slot),
            Direction::Insert(ticket) => {
                Self::apply_group_inserts(&slot, &ticket);
                let end = ticket.first_seqno + slot.batch.ops.len() as u64 - 1;
                let acked_on_insert = ticket.acked_on_insert;
                ticket.barrier.arrive();
                if acked_on_insert {
                    // No second park: the group owes no fsync, so a follower
                    // can only complete successfully from here (group-wide
                    // failures arrive as `Done` *instead of* a ticket). The
                    // leader publishes `last_seqno` and releases the commit
                    // gate once the whole group has arrived; until then the
                    // batch is readable by this thread (its inserts are done)
                    // but a scan capture still waits on the gate, preserving
                    // batch atomicity.
                    Ok(end)
                } else {
                    // Durable group: the fsync is still in flight, and a
                    // sync-required write must never acknowledge before the
                    // durability watermark passes its end offset. Park again
                    // for the leader's verdict.
                    match slot.wait_for_direction() {
                        Direction::Done(result) => result,
                        _ => unreachable!("a second direction can only be Done"),
                    }
                }
            }
            Direction::Done(result) => result,
        }
    }

    /// The append stage of a commit group — the only part under the
    /// append (WAL) lock, and deliberately free of durable I/O: drain the queue,
    /// pre-assign the seqno range, encode, append with one buffered write, flush
    /// to the OS, record the durability target and take a pipeline membership on
    /// the gate. The moment this returns, the next group's leader can append —
    /// this group's fsync (if any) happens behind the released lock.
    ///
    /// The markers below delimit the region `triad-lint` guards against fsync
    /// calls (`append-stage-no-fsync`): holding the append lock across one
    /// would re-serialize the commit path.
    fn append_phase<'a>(&'a self, group: &mut Vec<Arc<WriterSlot>>) -> Result<AppendPhase<'a>> {
        let config = &self.options.group_commit;
        // PIPELINE-APPEND-STAGE-BEGIN (no durable-sync calls in this region)
        let mut wal = self.wal.lock();
        self.committer.drain(group, config.max_group_batches, config.max_group_bytes);
        let mem = self.mem.read().clone();
        let first_seqno = wal.next_seqno;

        wal.encoder.clear();
        let mut seqno = first_seqno;
        let mut slot_offsets: Vec<Vec<u64>> = Vec::with_capacity(group.len());
        for slot in group.iter() {
            if let Some(stamp) = &slot.batch.stamp {
                // The stamped record below is this shard's durable evidence of
                // a cross-shard batch: keep its log on disk until every
                // shard's slice graduates (see `stamps.rs`).
                self.stamps.note_slice(self.shard_index, wal.id, stamp);
            }
            let mut rel = Vec::with_capacity(slot.batch.ops.len());
            for (op_index, BatchOp { kind, key, value }) in slot.batch.ops.iter().enumerate() {
                // A cross-shard slice's stamp rides on its first record only.
                let stamp = if op_index == 0 { slot.batch.stamp } else { None };
                rel.push(wal.encoder.add_parts_stamped(seqno, *kind, key, value, stamp)?);
                seqno += 1;
            }
            slot_offsets.push(rel);
        }
        let group_end = seqno - 1;
        let wal_bytes = wal.encoder.encoded_bytes();
        // Consume the range *before* attempting the append: a failed
        // `write_all` can still leave complete frames durable in the file, and
        // re-issuing those seqnos to different data would let recovery (which
        // keeps the first record it sees at a given (key, seqno)) prefer the
        // dead group's values over later acknowledged writes. A gap in the
        // seqno space on failure is harmless. The writer additionally poisons
        // itself after a failed write, because its offset accounting is no
        // longer trustworthy.
        wal.next_seqno = group_end + 1;
        let WalState { writer, encoder, .. } = &mut *wal;
        let start = writer.append_batch(encoder)?;
        for rel in &mut slot_offsets {
            for offset in rel.iter_mut() {
                *offset += start;
            }
        }
        // Push the frames to the OS now: a concurrent group's fsync covers every
        // byte the OS has, so ours can retire on another group's watermark
        // advance without any further I/O from this thread.
        wal.writer.flush()?;

        wal.writes_since_sync += group_end + 1 - first_seqno;
        let force_sync = group.iter().any(|slot| slot.opts.sync);
        let need_sync = match self.options.sync_mode {
            SyncMode::SyncEveryWrite => true,
            SyncMode::SyncEvery(n) => force_sync || wal.writes_since_sync >= n,
            SyncMode::NoSync => force_sync,
        };
        if need_sync {
            wal.writes_since_sync = 0;
        }
        let sync_target = self.watermark.record_append(wal.id, wal_bytes);
        self.wal_size_hint.store(wal.writer.size(), Ordering::Relaxed);
        let group_index = wal.next_group_index;
        wal.next_group_index += 1;
        let depth = self.pipeline_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.record_pipeline_depth(depth);
        let log_id = wal.id;
        let sync_handle = wal.writer.sync_handle();
        // Pipeline membership before the append lock goes: an exclusive gate
        // acquisition (scan capture, rotation) means every in-flight group has
        // published. Never blocks here — every exclusive acquirer holds the WAL
        // lock first, and we hold it.
        let gate = self.commit_gate.read();
        drop(wal);
        // PIPELINE-APPEND-STAGE-END
        Ok(AppendPhase {
            mem,
            log_id,
            first_seqno,
            group_end,
            slot_offsets,
            need_sync,
            sync_target,
            sync_handle,
            wal_bytes,
            group_index,
            gate,
        })
    }

    /// Drives one commit group as its leader: short append stage, immediate
    /// leadership hand-off, then parallel inserts, the durability watermark and
    /// in-order publication — all without an engine-wide lock.
    fn lead_group(&self, own: Arc<WriterSlot>) -> Result<SeqNo> {
        let mut group: Vec<Arc<WriterSlot>> = vec![own];
        let timed = self.stats.sample_timing();
        let append_started = timed.then(Instant::now);
        let mut phase = match self.append_phase(&mut group) {
            Ok(phase) => phase,
            Err(e) => {
                // Leadership must transfer even when the append failed, or
                // every queued writer would park forever.
                self.committer.handoff();
                return self.fail_group(&group, e);
            }
        };
        if let Some(started) = append_started {
            self.stats.add_wal_append_us(started.elapsed().as_micros() as u64);
        }
        // The append lock is free: hand leadership over *now*, so the next
        // group's leader appends behind us while this group is still syncing,
        // inserting and publishing. This is the overlap the pipeline exists for.
        self.committer.handoff();

        // The crash windows the recovery tests probe. First: the group is
        // appended (and OS-flushed) but nothing has reached the memtable.
        if let Err(e) = self.failpoints.check("commit.after_group_wal_append") {
            return self.abandon_group(phase, &group, e);
        }
        // Second, for durable groups only: appended but not yet fsynced — the
        // window a machine crash may lose, which must never cover an acked write.
        if phase.need_sync {
            if let Err(e) = self.failpoints.check("commit.before_group_wal_sync") {
                return self.abandon_group(phase, &group, e);
            }
        }

        // Insert phase: every member applies its own batch concurrently. NoSync
        // members acknowledge themselves the moment their inserts land; members
        // of a durable group park again for the post-fsync verdict.
        let barrier = InsertBarrier::new(group.len());
        let mut own_end = phase.group_end;
        let mut next_first = phase.first_seqno;
        let mut offsets = std::mem::take(&mut phase.slot_offsets).into_iter();
        for (index, slot) in group.iter().enumerate() {
            let first = next_first;
            next_first += slot.batch.ops.len() as u64;
            let ticket = InsertTicket {
                log_id: phase.log_id,
                first_seqno: first,
                offsets: offsets.next().expect("one offset vector per slot"),
                mem: Arc::clone(&phase.mem),
                barrier: Arc::clone(&barrier),
                acked_on_insert: !phase.need_sync,
            };
            if index == 0 {
                // The leader's own batch, applied on this thread.
                own_end = next_first - 1;
                Self::apply_group_inserts(slot, &ticket);
                ticket.barrier.arrive();
            } else {
                slot.begin_insert(ticket);
            }
        }

        // Durability stage, overlapping the followers' inserts — and, crucially,
        // the *next* group's append. Either the watermark already passed our end
        // offset (an in-flight neighbour's fsync covered us: the overlapped
        // case) or we queue for the fsync lock and issue one fsync that retires
        // every group appended so far.
        let mut sync_failure: Option<Error> = None;
        if phase.need_sync {
            let sync_started = timed.then(Instant::now);
            match self.watermark.ensure_durable(
                phase.log_id,
                phase.sync_target,
                &phase.sync_handle,
                &self.committer,
            ) {
                Ok(SyncOutcome::Synced) => {
                    self.stats.add_wal_syncs(1);
                    self.stats.add_wal_syncs_amortized(group.len() as u64 - 1);
                }
                Ok(SyncOutcome::AlreadyDurable) => {
                    self.stats.add_wal_syncs_overlapped(1);
                    self.stats.add_wal_syncs_amortized(group.len() as u64);
                }
                Err(e) => sync_failure = Some(e),
            }
            if let Some(started) = sync_started {
                self.stats.add_wal_sync_wait_us(started.elapsed().as_micros() as u64);
            }
        }
        barrier.wait_drained();

        if let Some(e) = sync_failure {
            // The inserts are in the memtable but nothing was acknowledged or
            // published — the standard contract that an unacknowledged write may
            // or may not survive. The parked followers get the failure verdict.
            return self.abandon_group(phase, &group, e);
        }

        // Stats are recorded only for groups that made it past every failure
        // window: an abandoned group acknowledged nothing, so counting its
        // batches would inflate throughput counters and unbalance the
        // `wal_syncs + wal_syncs_amortized == batches` books.
        self.record_group_stats(&group, phase.wal_bytes);

        // Durable-group followers parked after inserting; release them now that
        // the watermark has passed the whole group. A sync-required write is
        // never acknowledged before this point.
        if phase.need_sync {
            let mut first = phase.first_seqno;
            for (index, slot) in group.iter().enumerate() {
                let end = first + slot.batch.ops.len() as u64 - 1;
                first = end + 1;
                if index > 0 {
                    slot.finish(Ok(end));
                }
            }
        }

        // Publication: strictly in append order, even when this group finished
        // before an earlier one — `last_seqno` moves through contiguous group
        // ranges only, so a published seqno never outruns the WAL-and-memtable
        // prefix that backs it. Completion-based: if a predecessor is still in
        // flight this just registers our group end and moves on (the
        // predecessor applies it when it retires); nobody parks here. The gate
        // membership is released afterwards, letting a draining rotation or
        // scan capture proceed — by the time such a drain wins the gate, every
        // membered group has completed, so the ready set is fully applied.
        self.publisher.complete(phase.group_index, Some(phase.group_end), |group_end| {
            self.last_seqno.store(group_end, Ordering::Release);
        });
        // Depth counts *physically* in-flight groups (appended, not yet done),
        // so it decrements on completion — not on in-order retirement, which
        // can lag arbitrarily behind a slow head-of-line group and would turn
        // the metric into a publication-backlog gauge.
        self.pipeline_depth.fetch_sub(1, Ordering::Relaxed);
        drop(phase.gate);

        // Rotation check, leader-side only. `rotate_locked` drains the pipeline
        // (exclusive gate) before sealing, so in-flight groups always finish
        // into the memtable they appended against.
        self.maybe_rotate()?;
        Ok(own_end)
    }

    /// Abandons a group after its append stage: the seqno range and
    /// the publication ticket are consumed (the appended records may be replayed
    /// by recovery, so neither may ever be re-issued), nothing is published, and
    /// every follower is failed.
    fn abandon_group(
        &self,
        phase: AppendPhase<'_>,
        group: &[Arc<WriterSlot>],
        error: Error,
    ) -> Result<SeqNo> {
        // Retire our publication ticket without publishing, or every later
        // group's seqno would wait forever on the gap. Draining may still apply
        // *successors'* pending publications, so the closure publishes those.
        self.publisher.complete(phase.group_index, None, |group_end| {
            self.last_seqno.store(group_end, Ordering::Release);
        });
        self.pipeline_depth.fetch_sub(1, Ordering::Relaxed);
        let need_sync = phase.need_sync;
        drop(phase.gate);
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
        self.fail_group(group, error)
    }

    /// Applies one group member's batch to the memtable. Runs on the member's own
    /// thread, without the WAL lock; `insert_versioned` keeps a straggling older
    /// update of a key from clobbering a newer one applied by a faster member.
    fn apply_group_inserts(slot: &WriterSlot, ticket: &InsertTicket) {
        let ops_with_offsets = slot.batch.ops.iter().zip(&ticket.offsets);
        for (seqno, (op, offset)) in (ticket.first_seqno..).zip(ops_with_offsets) {
            ticket.mem.insert_versioned(
                &op.key,
                &op.value,
                seqno,
                op.kind,
                LogPosition { log_id: ticket.log_id, offset: *offset },
            );
        }
    }

    /// Leader-side rotation check: a lock-free pre-check against the memtable's
    /// size and the `wal_size_hint` (maintained by the append stage), then —
    /// only when a trigger fires — re-verification and rotation under the WAL
    /// lock (another leader may have rotated first). Keeping the common
    /// no-rotation case off the WAL lock matters because the next group's
    /// leader is appending under it right now.
    fn maybe_rotate(&self) -> Result<()> {
        if self.mem.read().approximate_size() < self.options.memtable_size
            && (self.wal_size_hint.load(Ordering::Relaxed) as usize) < self.options.max_log_size
        {
            return Ok(());
        }
        let mut wal = self.wal.lock();
        let mem = self.mem.read().clone();
        let mem_size = mem.approximate_size();
        if mem_size >= self.options.memtable_size
            || wal.writer.size() as usize >= self.options.max_log_size
        {
            self.rotate_locked(&mut wal, &mem, mem_size)?;
        }
        Ok(())
    }

    /// Delivers a group-wide failure: followers get a wrapped copy, the leader
    /// (the caller) propagates the original.
    fn fail_group(&self, group: &[Arc<WriterSlot>], error: Error) -> Result<SeqNo> {
        for slot in group.iter().skip(1) {
            slot.finish(Err(Error::Background(format!("group commit failed: {error}"))));
        }
        Err(error)
    }

    /// Batched per-group statistics: one add per counter for the whole group,
    /// after the WAL lock is gone.
    fn record_group_stats(&self, group: &[Arc<WriterSlot>], wal_bytes: u64) {
        let mut user_bytes = 0u64;
        let mut puts = 0u64;
        let mut deletes = 0u64;
        let mut records = 0u64;
        for slot in group {
            records += slot.batch.ops.len() as u64;
            for BatchOp { kind, key, value } in &slot.batch.ops {
                user_bytes += (key.len() + value.len()) as u64;
                match kind {
                    ValueKind::Put => puts += 1,
                    ValueKind::Delete => deletes += 1,
                }
            }
        }
        self.stats.add_wal_appends(records);
        self.stats.add_wal_bytes_written(wal_bytes);
        self.stats.add_user_bytes_written(user_bytes);
        self.stats.add_user_writes(puts);
        self.stats.add_user_deletes(deletes);
        self.stats.add_write_groups(1);
        self.stats.add_write_group_batches(group.len() as u64);
        self.stats.record_write_group_size(group.len() as u64);
    }
}
