//! Leader/follower coordination for the group-commit write pipeline.
//!
//! Concurrent [`write`](crate::Db::write) callers enqueue a [`WriterSlot`] here.
//! The first writer to arrive while no leader is active becomes the **leader**:
//! it drains the queue (up to the configured caps) into one *commit group*,
//! performs a single batched WAL append for everyone and hands leadership to
//! the next waiting writer the moment the append lock is released. Every group
//! member — leader and followers alike — then applies its own batch to the
//! sharded memtable in parallel, outside the WAL lock. A follower of a group
//! that owes no fsync acknowledges itself the moment its inserts land (only
//! group-wide failures, which arrive *instead of* a ticket, need the leader to
//! deliver a result); a follower of a durable group parks a second time for
//! the leader's post-fsync verdict. The leader publishes the group's seqno
//! range once the group is appended, durable per the sync policy and inserted.
//!
//! This module owns the queueing, hand-off and wake-up protocol; the actual WAL
//! and memtable work lives in `commit.rs` (`DbInner::write_batch`). It also
//! hosts the [`PublicationSequencer`] that retires in-flight groups in append
//! order.
//!
//! Lock ordering (deadlock freedom): the WAL mutex may be held while taking the
//! commit queue or the commit gate; the queue lock may be held while taking a
//! slot's state lock. Nothing ever waits on the WAL mutex while holding the
//! gate, the queue or a slot lock.
//!
//! Wake-ups are *adaptive spin-then-park*: a parked writer first polls a cheap
//! atomic readiness flag for a bounded number of spin iterations before falling
//! back to a `Condvar` wait. Under a multi-core NoSync workload the direction
//! usually arrives within the spin window, skipping the scheduler round-trip the
//! `BENCH_write_scaling.json` sweep charged the pipeline for; on a
//! single core the spin burns a few hundred nanoseconds and then parks exactly
//! as before.

// Every std Mutex here pairs with a Condvar (writer hand-off, insert barrier,
// publication wake-ups), which the vendored parking_lot stand-in does not
// provide; these locks are module-internal and their ordering is documented
// above.
#![allow(clippy::disallowed_types)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use triad_common::types::SeqNo;
use triad_common::Result;
use triad_memtable::Memtable;

use crate::batch::{WriteBatch, WriteOptions};

/// Iterations a parked writer polls its readiness flag before `Condvar::wait`.
/// Sized for "the leader is finishing up on another core right now"; anything
/// longer just burns cycles that the producer may need.
const DIRECTION_SPIN_ITERS: u32 = 128;

/// Iterations the leader polls the insert barrier before parking.
const BARRIER_SPIN_ITERS: u32 = 256;

/// What a parked writer is told to do next.
pub(crate) enum Direction {
    /// Leadership was handed over: drive the next commit group.
    Lead,
    /// The group's WAL write is done: apply your own batch to the memtable,
    /// signal the barrier and return success (a ticket is only ever issued for
    /// a group whose WAL phase succeeded).
    Insert(InsertTicket),
    /// The write is fully committed (or failed); this is its result.
    Done(Result<SeqNo>),
}

/// Everything a group member needs to apply its batch to the memtable.
pub(crate) struct InsertTicket {
    /// Id of the commit log the group was appended to.
    pub(crate) log_id: u64,
    /// Sequence number of this member's first operation.
    pub(crate) first_seqno: SeqNo,
    /// Absolute commit-log offset of each of this member's records, in op order.
    pub(crate) offsets: Vec<u64>,
    /// The memory component that was active when the group committed.
    pub(crate) mem: Arc<Memtable>,
    /// Completion barrier the member must signal after inserting.
    pub(crate) barrier: Arc<InsertBarrier>,
    /// Whether the member may acknowledge its write the moment its inserts land.
    ///
    /// `true` exactly when the group owes no fsync. Otherwise the member must
    /// park again for the leader's `Done` — a sync-required write never
    /// acknowledges before the durability watermark passes its end offset.
    pub(crate) acked_on_insert: bool,
}

/// Counts down the group members still applying their memtable inserts.
///
/// The count lives in an atomic so the leader can spin on it briefly (the
/// common case: followers finish within a microsecond of the leader) before
/// parking on the condvar.
pub(crate) struct InsertBarrier {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    drained: Condvar,
}

impl InsertBarrier {
    pub(crate) fn new(members: usize) -> Arc<Self> {
        Arc::new(InsertBarrier {
            remaining: AtomicUsize::new(members),
            lock: Mutex::new(()),
            drained: Condvar::new(),
        })
    }

    /// Marks one member's inserts complete.
    pub(crate) fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock before notifying closes the gap where the waiter
            // checked the count, found it non-zero, and has not yet parked.
            let _guard = self.lock.lock().expect("barrier lock poisoned");
            self.drained.notify_all();
        }
    }

    /// Blocks until every member has arrived, spinning briefly first.
    pub(crate) fn wait_drained(&self) {
        for _ in 0..BARRIER_SPIN_ITERS {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("barrier lock poisoned");
        while self.remaining.load(Ordering::Acquire) > 0 {
            guard = self.drained.wait(guard).expect("barrier lock poisoned");
        }
    }
}

/// Per-slot progress through the commit protocol.
enum SlotState {
    /// Parked in the queue, waiting for a leader (or for promotion).
    Waiting,
    /// Promoted: this writer must become the next leader.
    Lead,
    /// WAL phase done; the ticket describes the member's memtable work.
    Insert(InsertTicket),
    /// The ticket has been taken; inserts are in flight.
    Inserting,
    /// Final result delivered by the leader.
    Done(Result<SeqNo>),
    /// The result has been consumed; terminal.
    Finished,
}

/// One queued writer: its batch, its options and its progress.
pub(crate) struct WriterSlot {
    pub(crate) batch: WriteBatch,
    pub(crate) opts: WriteOptions,
    state: Mutex<SlotState>,
    wake: Condvar,
    /// Set (under the state lock) whenever a consumable direction is stored;
    /// cleared when one is taken. Lets [`wait_for_direction`] poll without
    /// touching the mutex during its spin phase.
    ready: AtomicBool,
}

impl WriterSlot {
    fn new(batch: WriteBatch, opts: WriteOptions) -> Arc<Self> {
        Arc::new(WriterSlot {
            batch,
            opts,
            state: Mutex::new(SlotState::Waiting),
            wake: Condvar::new(),
            ready: AtomicBool::new(false),
        })
    }

    /// Consumes a pending direction, if any. Must run under the state lock.
    fn take_direction(&self, state: &mut SlotState) -> Option<Direction> {
        let direction = match state {
            SlotState::Waiting | SlotState::Inserting => return None,
            SlotState::Lead => Direction::Lead,
            SlotState::Insert(_) => {
                let SlotState::Insert(ticket) = std::mem::replace(state, SlotState::Inserting)
                else {
                    unreachable!("matched Insert above");
                };
                Direction::Insert(ticket)
            }
            SlotState::Done(_) => {
                let SlotState::Done(result) = std::mem::replace(state, SlotState::Finished) else {
                    unreachable!("matched Done above");
                };
                Direction::Done(result)
            }
            SlotState::Finished => {
                unreachable!("a slot's result is consumed exactly once")
            }
        };
        self.ready.store(false, Ordering::Relaxed);
        Some(direction)
    }

    /// Waits until the leader (or a hand-off) tells this writer what to do:
    /// bounded spin on the readiness flag first, then park on the condvar.
    pub(crate) fn wait_for_direction(&self) -> Direction {
        for _ in 0..DIRECTION_SPIN_ITERS {
            if self.ready.load(Ordering::Acquire) {
                let mut state = self.state.lock().expect("slot lock poisoned");
                if let Some(direction) = self.take_direction(&mut state) {
                    return direction;
                }
            }
            std::hint::spin_loop();
        }
        let mut state = self.state.lock().expect("slot lock poisoned");
        loop {
            if let Some(direction) = self.take_direction(&mut state) {
                return direction;
            }
            state = self.wake.wait(state).expect("slot lock poisoned");
        }
    }

    /// Stores a direction and wakes the (possibly parked) owner.
    fn deliver(&self, new_state: SlotState) {
        let mut state = self.state.lock().expect("slot lock poisoned");
        *state = new_state;
        self.ready.store(true, Ordering::Release);
        drop(state);
        self.wake.notify_one();
    }

    /// Leader→follower: the WAL phase succeeded, apply your inserts.
    pub(crate) fn begin_insert(&self, ticket: InsertTicket) {
        self.deliver(SlotState::Insert(ticket));
    }

    /// Leader→follower: final result (after `last_seqno` is published, on
    /// success; immediately, on a group-wide failure).
    pub(crate) fn finish(&self, result: Result<SeqNo>) {
        self.deliver(SlotState::Done(result));
    }

    fn promote(&self) {
        self.deliver(SlotState::Lead);
    }
}

#[derive(Default)]
struct CommitQueue {
    pending: VecDeque<Arc<WriterSlot>>,
    /// `true` while some writer holds leadership (it may not be in `pending`).
    leader_active: bool,
    /// `true` while a commit group's fsync is in flight. Writers that
    /// arrive in that window queue up instead of leading: their bytes could not
    /// become durable before the *next* fsync anyway, so leading a tiny group
    /// each would only multiply per-group overhead. When the fsync completes,
    /// [`Committer::end_sync`] promotes one of them to lead a single large
    /// group — restoring grouped-commit batching while the pipeline still
    /// overlaps that group's append with the previous group's fsync.
    sync_in_flight: bool,
}

/// The pending-writers queue and leadership token.
#[derive(Default)]
pub(crate) struct Committer {
    queue: Mutex<CommitQueue>,
}

impl Committer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a writer. Returns its slot and whether it is the leader: a
    /// leader must call `lead` logic and then [`handoff`](Self::handoff); a
    /// follower parks on [`WriterSlot::wait_for_direction`]. A writer arriving
    /// while an fsync is in flight queues even without an active leader; the
    /// fsync's completion promotes it (see [`end_sync`](Self::end_sync)).
    pub(crate) fn join(&self, batch: WriteBatch, opts: WriteOptions) -> (Arc<WriterSlot>, bool) {
        let slot = WriterSlot::new(batch, opts);
        let mut queue = self.queue.lock().expect("commit queue poisoned");
        if queue.leader_active || queue.sync_in_flight {
            queue.pending.push_back(Arc::clone(&slot));
            (slot, false)
        } else {
            queue.leader_active = true;
            (slot, true)
        }
    }

    /// Marks an fsync as in flight: writers arriving from now on
    /// accumulate in the queue instead of leading their own groups.
    pub(crate) fn begin_sync(&self) {
        self.queue.lock().expect("commit queue poisoned").sync_in_flight = true;
    }

    /// Marks the fsync complete and, if the accumulation left queued
    /// writers without a leader, promotes the oldest to lead them as one group.
    pub(crate) fn end_sync(&self) {
        let mut queue = self.queue.lock().expect("commit queue poisoned");
        queue.sync_in_flight = false;
        if !queue.leader_active {
            if let Some(next) = queue.pending.pop_front() {
                queue.leader_active = true;
                next.promote();
            }
        }
    }

    /// Moves queued writers into `group` until it reaches `max_batches` batches
    /// or adding the next batch would push the summed key+value bytes past
    /// `max_bytes`. The leader's own batch (already in `group`) always counts.
    pub(crate) fn drain(
        &self,
        group: &mut Vec<Arc<WriterSlot>>,
        max_batches: usize,
        max_bytes: usize,
    ) {
        let mut queue = self.queue.lock().expect("commit queue poisoned");
        let mut bytes: usize = group.iter().map(|slot| slot.batch.approximate_size()).sum();
        while group.len() < max_batches {
            let Some(front) = queue.pending.front() else { break };
            let front_bytes = front.batch.approximate_size();
            if bytes.saturating_add(front_bytes) > max_bytes {
                break;
            }
            bytes += front_bytes;
            let slot = queue.pending.pop_front().expect("front observed above");
            group.push(slot);
        }
    }

    /// Releases leadership: promotes the oldest waiting writer to leader, or
    /// clears the leadership token if the queue is empty.
    pub(crate) fn handoff(&self) {
        let mut queue = self.queue.lock().expect("commit queue poisoned");
        if let Some(next) = queue.pending.pop_front() {
            // Leadership transfers directly; `leader_active` stays set. The
            // promoted writer re-drains the queue itself (including any writers
            // that arrived since this drain).
            next.promote();
        } else {
            queue.leader_active = false;
        }
    }
}

/// Retires commit groups in append order — without ever parking.
///
/// The commit pipeline decouples appending from publication: group N+1 may finish
/// its memtable inserts (and even its fsync) while group N is still in flight.
/// `last_seqno` must nevertheless move monotonically through contiguous group
/// ranges, so every group takes a ticket (its *group index*, assigned under the
/// append lock) and *completes* it when done: the completion is registered, and
/// whichever thread is inside the sequencer drains every ready-in-order entry —
/// applying each group's published seqno via the caller's closure. A completing
/// group whose predecessors are still in flight just leaves its entry behind
/// and moves on; the predecessor that arrives last applies it. A group that
/// failed after its append completes with `None`, so a consumed-but-unpublished
/// seqno range never wedges the pipeline.
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
    ready: std::collections::BTreeMap<u64, Option<SeqNo>>,
}

impl PublicationSequencer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers group `index` as complete (`seqno` = its group end, or `None`
    /// if it failed) and drains every in-order ready entry, invoking `publish`
    /// with each successively larger published seqno. Returns how many groups
    /// retired in this call (0 when a predecessor is still in flight).
    pub(crate) fn complete(
        &self,
        index: u64,
        seqno: Option<SeqNo>,
        mut publish: impl FnMut(SeqNo),
    ) -> u64 {
        let mut state = self.state.lock().expect("publication sequencer poisoned");
        state.ready.insert(index, seqno);
        let mut retired = 0;
        loop {
            let next = state.next;
            let Some(entry) = state.ready.remove(&next) else { break };
            if let Some(group_end) = entry {
                publish(group_end);
            }
            state.next += 1;
            retired += 1;
        }
        retired
    }
}

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queue = self.queue.lock().expect("commit queue poisoned");
        f.debug_struct("Committer")
            .field("pending", &queue.pending.len())
            .field("leader_active", &queue.leader_active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(bytes: usize) -> WriteBatch {
        let mut batch = WriteBatch::new();
        batch.put(b"k".to_vec(), vec![0u8; bytes.saturating_sub(1)]);
        batch
    }

    #[test]
    fn first_joiner_leads_followers_queue() {
        let committer = Committer::new();
        let (_leader, is_leader) = committer.join(batch_of(8), WriteOptions::default());
        assert!(is_leader);
        let (_follower, follows) = committer.join(batch_of(8), WriteOptions::default());
        assert!(!follows);
    }

    #[test]
    fn drain_respects_batch_and_byte_caps() {
        let committer = Committer::new();
        let (leader, _) = committer.join(batch_of(10), WriteOptions::default());
        for _ in 0..5 {
            committer.join(batch_of(10), WriteOptions::default());
        }
        let mut group = vec![leader];
        committer.drain(&mut group, 3, usize::MAX);
        assert_eq!(group.len(), 3, "batch cap limits the group");
        let mut rest = vec![group.pop().unwrap()];
        committer.drain(&mut rest, usize::MAX, 25);
        // 10 bytes already in the group; only one more 10-byte batch fits under 25.
        assert_eq!(rest.len(), 2, "byte cap limits the group");
    }

    #[test]
    fn handoff_promotes_in_fifo_order_and_clears_when_idle() {
        let committer = Committer::new();
        let (_leader, _) = committer.join(batch_of(4), WriteOptions::default());
        let (second, _) = committer.join(batch_of(4), WriteOptions::default());
        committer.handoff();
        // The second writer was promoted; its thread would observe Lead.
        match second.wait_for_direction() {
            Direction::Lead => {}
            _ => panic!("expected promotion to leader"),
        }
        // Queue now empty: hand-off clears the token so the next joiner leads.
        committer.handoff();
        let (_third, leads) = committer.join(batch_of(4), WriteOptions::default());
        assert!(leads, "leadership token must clear when the queue drains");
    }

    #[test]
    fn barrier_waits_for_every_member() {
        let barrier = InsertBarrier::new(3);
        let waiter = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.wait_drained())
        };
        for _ in 0..3 {
            barrier.arrive();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn spin_phase_picks_up_a_direction_delivered_before_the_wait() {
        // The direction arrives before wait_for_direction runs: the spin path
        // must consume it without ever parking (and without losing it).
        let (slot, _) = Committer::new().join(batch_of(4), WriteOptions::default());
        slot.finish(Ok(7));
        match slot.wait_for_direction() {
            Direction::Done(Ok(seqno)) => assert_eq!(seqno, 7),
            _ => panic!("expected the pre-delivered result"),
        }
    }

    #[test]
    fn a_slot_can_park_twice_for_insert_then_done() {
        // The durable-group path: an insert ticket first, the final result
        // second. The readiness flag must re-arm between the two directions.
        let committer = Committer::new();
        let (_leader, _) = committer.join(batch_of(4), WriteOptions::default());
        let (slot, _) = committer.join(batch_of(4), WriteOptions::default());
        let barrier = InsertBarrier::new(1);
        slot.begin_insert(InsertTicket {
            log_id: 1,
            first_seqno: 1,
            offsets: vec![0],
            mem: Arc::new(Memtable::new()),
            barrier: Arc::clone(&barrier),
            acked_on_insert: false,
        });
        match slot.wait_for_direction() {
            Direction::Insert(ticket) => {
                assert!(!ticket.acked_on_insert);
                ticket.barrier.arrive();
            }
            _ => panic!("expected the insert ticket"),
        }
        barrier.wait_drained();
        slot.finish(Ok(9));
        match slot.wait_for_direction() {
            Direction::Done(Ok(seqno)) => assert_eq!(seqno, 9),
            _ => panic!("expected the final result"),
        }
    }

    #[test]
    fn publication_sequencer_applies_completions_in_index_order() {
        let sequencer = PublicationSequencer::new();
        let published = Mutex::new(Vec::new());
        // Indices 1 and 2 complete first: nothing may publish while index 0 is
        // still in flight — the entries wait in the ready set.
        assert_eq!(sequencer.complete(1, Some(20), |s| published.lock().unwrap().push(s)), 0);
        assert_eq!(sequencer.complete(2, Some(30), |s| published.lock().unwrap().push(s)), 0);
        assert!(published.lock().unwrap().is_empty(), "nothing may publish before index 0");
        // Index 0 arrives last and drains the whole backlog, in order.
        assert_eq!(sequencer.complete(0, Some(10), |s| published.lock().unwrap().push(s)), 3);
        assert_eq!(*published.lock().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn publication_sequencer_retires_failed_groups_silently() {
        let sequencer = PublicationSequencer::new();
        let published = Mutex::new(Vec::new());
        assert_eq!(sequencer.complete(0, Some(5), |s| published.lock().unwrap().push(s)), 1);
        // A failed group completes with None: it retires without publishing…
        assert_eq!(sequencer.complete(1, None, |s| published.lock().unwrap().push(s)), 1);
        // …and the next group drains immediately — no wedged gap.
        assert_eq!(sequencer.complete(2, Some(9), |s| published.lock().unwrap().push(s)), 1);
        assert_eq!(*published.lock().unwrap(), vec![5, 9]);
    }
}
