//! The write path: how a batch commits.
//!
//! There is exactly one way: [`DbInner::write_batch`] joins the commit queue
//! ([`committer`](crate::committer)), which hands the batch straight back to
//! lead its own *commit group* unless an fsync is in flight. A leader runs a
//! short **append stage** under the WAL lock (drain any queued followers,
//! pre-assign seqnos, encode, one buffered append, OS flush); every member then
//! **inserts** its own batch into the memtable — with the commit-log position
//! of each record, the contract TRIAD-MEM and TRIAD-LOG build on — while the
//! leader runs the **sync stage** against the durability watermark
//! ([`durability`](crate::durability)); and the group **publishes** its seqno
//! range in append order. Groups hold the commit gate shared from append to
//! publication; rotation and snapshot capture take it exclusively to drain the
//! pipeline.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use triad_common::lockrank::RankedRwLockReadGuard;
use triad_common::types::{SeqNo, ValueKind};
use triad_common::{Error, Result};
use triad_memtable::{LogPosition, Memtable};
use triad_wal::LogSyncHandle;

use crate::batch::{BatchOp, WriteBatch, WriteOptions};
use crate::committer::{Direction, InsertBarrier, InsertTicket, Joined, WriterSlot};
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
    /// First sequence number of the group (the leader's first operation).
    first_seqno: SeqNo,
    /// Last sequence number of the group — published once the group retires.
    group_end: SeqNo,
    /// Commit-log position of every record, in group order: the leader's
    /// records, then each follower's. Record `i` carries seqno `first_seqno + i`.
    positions: Vec<LogPosition>,
    /// Present exactly when the group must be fsynced before anyone
    /// acknowledges it: fsyncs the appended-to log without the append lock.
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

/// Every batch of a group, the leader's first: the order the append stage
/// encodes them in.
fn members<'g>(
    own: &'g WriteBatch,
    followers: &'g [Arc<WriterSlot>],
) -> impl Iterator<Item = &'g WriteBatch> {
    std::iter::once(own).chain(followers.iter().map(|slot| &slot.batch))
}

/// Applies one group member's batch (seqnos from `first` on, at `positions`)
/// to the memtable. Runs on the member's own thread, without the WAL lock;
/// `insert_versioned` keeps a straggling older update of a key from
/// clobbering a newer one applied by a faster member.
fn insert_batch(mem: &Memtable, batch: &WriteBatch, first: SeqNo, positions: &[LogPosition]) {
    for (seqno, (op, &position)) in (first..).zip(batch.ops.iter().zip(positions)) {
        mem.insert_versioned(&op.key, &op.value, seqno, op.kind, position);
    }
}

impl DbInner {
    /// Applies a batch: append to the commit log, insert into the active
    /// memtable, then decide whether a rotation is needed. Returns the sequence
    /// number of the batch's last operation.
    ///
    /// A caller leads its own commit group unless an fsync is in flight; then
    /// it queues, and one promoted writer appends everyone queued with a single
    /// buffered WAL write, after which every member inserts its own batch into
    /// the sharded memtable in parallel, outside the WAL lock (see the
    /// [`committer`](crate::committer) module).
    pub(crate) fn write_batch(&self, batch: WriteBatch, opts: WriteOptions) -> Result<SeqNo> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Error::ShuttingDown);
        }
        if batch.is_empty() {
            return Ok(self.last_seqno.load(Ordering::Acquire));
        }
        self.failpoints.check("write.before_wal_append")?;

        let slot = match self.committer.join(batch, opts) {
            Joined::Lead(batch, opts) => return self.lead_group(&batch, opts),
            Joined::Queued(slot) => slot,
        };
        match slot.wait_for_direction() {
            Direction::Lead => self.lead_group(&slot.batch, slot.opts),
            Direction::Insert(ticket) => {
                insert_batch(&ticket.mem, &slot.batch, ticket.first_seqno, &ticket.positions);
                let end = ticket.first_seqno + slot.batch.ops.len() as u64 - 1;
                ticket.barrier.arrive();
                if ticket.acked_on_insert {
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
    /// append (WAL) lock, and deliberately free of durable I/O: drain the queue
    /// into `followers`, pre-assign the seqno range, encode, append with one
    /// buffered write, flush to the OS, record the durability target and take
    /// a pipeline membership on the gate. The moment this returns, the next
    /// group's leader can append — this group's fsync (if any) happens behind
    /// the released lock.
    ///
    /// The markers below delimit the region `triad-lint` guards against fsync
    /// calls (`append-stage-no-fsync`): holding the append lock across one
    /// would re-serialize the commit path.
    fn append_phase<'a>(
        &'a self,
        own: &WriteBatch,
        own_sync: bool,
        followers: &mut Vec<Arc<WriterSlot>>,
    ) -> Result<AppendPhase<'a>> {
        // PIPELINE-APPEND-STAGE-BEGIN (no durable-sync calls in this region)
        let mut wal = self.wal.lock();
        *followers = self.committer.drain(own.approximate_size(), &self.options.group_commit);
        let mem = self.mem.read().clone();
        let first_seqno = wal.next_seqno;

        wal.encoder.clear();
        let mut positions = Vec::with_capacity(own.ops.len());
        for batch in members(own, followers) {
            if let Some(stamp) = &batch.stamp {
                // The stamped record below is this shard's durable evidence of
                // a cross-shard batch: keep its log on disk until every
                // shard's slice graduates (see `stamps.rs`).
                self.stamps.note_slice(self.shard_index, wal.id, stamp);
            }
            for (op_index, BatchOp { kind, key, value }) in batch.ops.iter().enumerate() {
                // A cross-shard slice's stamp rides on its first record only.
                let stamp = if op_index == 0 { batch.stamp } else { None };
                let seqno = first_seqno + positions.len() as u64;
                let offset = wal.encoder.add_parts_stamped(seqno, *kind, key, value, stamp)?;
                positions.push(LogPosition { log_id: wal.id, offset });
            }
        }
        let group_end = first_seqno + positions.len() as u64 - 1;
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
        for position in &mut positions {
            position.offset += start;
        }
        // Push the frames to the OS now: a concurrent group's fsync covers every
        // byte the OS has, so ours can retire on another group's watermark
        // advance without any further I/O from this thread.
        wal.writer.flush()?;

        wal.writes_since_sync += positions.len() as u64;
        let force_sync = own_sync || followers.iter().any(|slot| slot.opts.sync);
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
        let sync = need_sync.then(|| wal.writer.sync_handle());
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
            positions,
            sync,
            sync_target,
            wal_bytes,
            group_index,
            gate,
        })
    }

    /// Drives one commit group as its leader: short append stage, then
    /// parallel inserts, the durability watermark and in-order publication —
    /// all without an engine-wide lock. A group of one (no followers) touches
    /// no hand-off machinery: no tickets, no barrier.
    fn lead_group(&self, own: &WriteBatch, own_opts: WriteOptions) -> Result<SeqNo> {
        let mut followers = Vec::new();
        let timed = self.stats.sample_timing();
        let append_started = timed.then(Instant::now);
        let appended = self.append_phase(own, own_opts.sync, &mut followers);
        // The append lock is free: if the drain caps left writers queued (and
        // no fsync will promote one), promote the next leader *now*, so it
        // appends behind us while this group is still syncing, inserting and
        // publishing — even when our append failed.
        self.committer.handoff();
        let phase = match appended {
            Ok(phase) => phase,
            Err(e) => return self.fail_group(&followers, e),
        };
        if let Some(started) = append_started {
            self.stats.add_wal_append_us(started.elapsed().as_micros() as u64);
        }

        // The crash windows the recovery tests probe. First: the group is
        // appended (and OS-flushed) but nothing has reached the memtable.
        if let Err(e) = self.failpoints.check("commit.after_group_wal_append") {
            return self.abandon_group(phase, &followers, e);
        }
        // Second, for durable groups only: appended but not yet fsynced — the
        // window a machine crash may lose, which must never cover an acked write.
        if phase.sync.is_some() {
            if let Err(e) = self.failpoints.check("commit.before_group_wal_sync") {
                return self.abandon_group(phase, &followers, e);
            }
        }

        // Insert phase: the followers apply their batches concurrently with
        // the leader's. NoSync followers acknowledge themselves the moment
        // their inserts land; followers of a durable group park again for the
        // post-fsync verdict.
        let own_len = own.ops.len();
        let barrier = (!followers.is_empty()).then(|| InsertBarrier::new(followers.len()));
        if let Some(barrier) = &barrier {
            let mut next = own_len;
            for slot in &followers {
                let records = next..next + slot.batch.ops.len();
                next = records.end;
                slot.deliver(Direction::Insert(InsertTicket {
                    first_seqno: phase.first_seqno + records.start as u64,
                    positions: phase.positions[records].to_vec(),
                    mem: Arc::clone(&phase.mem),
                    barrier: Arc::clone(barrier),
                    acked_on_insert: phase.sync.is_none(),
                }));
            }
        }
        let own_end = phase.first_seqno + own_len as u64 - 1;
        insert_batch(&phase.mem, own, phase.first_seqno, &phase.positions[..own_len]);

        // Durability stage, overlapping the followers' inserts — and, crucially,
        // the *next* group's append. Either the watermark already passed our end
        // offset (an in-flight neighbour's fsync covered us: the overlapped
        // case) or we queue for the fsync lock and issue one fsync that retires
        // every group appended so far.
        let mut sync_failure: Option<Error> = None;
        if let Some(handle) = &phase.sync {
            let sync_started = timed.then(Instant::now);
            let target = phase.sync_target;
            match self.watermark.ensure_durable(phase.log_id, target, handle, &self.committer) {
                Ok(SyncOutcome::Synced) => {
                    self.stats.add_wal_syncs(1);
                    self.stats.add_wal_syncs_amortized(followers.len() as u64);
                }
                Ok(SyncOutcome::AlreadyDurable) => {
                    self.stats.add_wal_syncs_overlapped(1);
                    self.stats.add_wal_syncs_amortized(followers.len() as u64 + 1);
                }
                Err(e) => sync_failure = Some(e),
            }
            if let Some(started) = sync_started {
                self.stats.add_wal_sync_wait_us(started.elapsed().as_micros() as u64);
            }
        }
        if let Some(barrier) = &barrier {
            barrier.wait_drained();
        }

        if let Some(e) = sync_failure {
            // The inserts are in the memtable but nothing was acknowledged or
            // published — the standard contract that an unacknowledged write may
            // or may not survive. The parked followers get the failure verdict.
            return self.abandon_group(phase, &followers, e);
        }

        // Stats are recorded only for groups that made it past every failure
        // window: an abandoned group acknowledged nothing, so counting its
        // batches would inflate throughput counters and unbalance the
        // `wal_syncs + wal_syncs_amortized == batches` books.
        self.record_group_stats(own, &followers, phase.wal_bytes);

        // Durable-group followers parked after inserting; release them now that
        // the watermark has passed the whole group. A sync-required write is
        // never acknowledged before this point.
        if phase.sync.is_some() {
            let mut end = own_end;
            for slot in &followers {
                end += slot.batch.ops.len() as u64;
                slot.deliver(Direction::Done(Ok(end)));
            }
        }

        self.retire(phase, true);

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
        followers: &[Arc<WriterSlot>],
        error: Error,
    ) -> Result<SeqNo> {
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
        self.fail_group(followers, error)
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
    fn fail_group(&self, followers: &[Arc<WriterSlot>], error: Error) -> Result<SeqNo> {
        for slot in followers {
            let wrapped = Error::Background(format!("group commit failed: {error}"));
            slot.deliver(Direction::Done(Err(wrapped)));
        }
        Err(error)
    }

    /// Batched per-group statistics: one add per counter for the whole group,
    /// after the WAL lock is gone.
    fn record_group_stats(&self, own: &WriteBatch, followers: &[Arc<WriterSlot>], wal_bytes: u64) {
        let mut user_bytes = 0u64;
        let mut puts = 0u64;
        let mut deletes = 0u64;
        let mut records = 0u64;
        for batch in members(own, followers) {
            records += batch.ops.len() as u64;
            for BatchOp { kind, key, value } in &batch.ops {
                user_bytes += (key.len() + value.len()) as u64;
                match kind {
                    ValueKind::Put => puts += 1,
                    ValueKind::Delete => deletes += 1,
                }
            }
        }
        let batches = followers.len() as u64 + 1;
        self.stats.add_wal_appends(records);
        self.stats.add_wal_bytes_written(wal_bytes);
        self.stats.add_user_bytes_written(user_bytes);
        self.stats.add_user_writes(puts);
        self.stats.add_user_deletes(deletes);
        self.stats.add_write_groups(1);
        self.stats.add_write_group_batches(batches);
        self.stats.record_write_group_size(batches);
    }
}
