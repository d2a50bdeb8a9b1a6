//! Queueing and hand-off for the group-commit write pipeline.
//!
//! A [`write`](crate::Db::write) caller leads its own *commit group* unless an
//! fsync is in flight: concurrent leaders serialize on the WAL (append) lock,
//! where seqnos, publication tickets and durability targets are assigned, so
//! queueing behind an appending leader would add a park, a wake-up and a
//! hand-off and batch nothing. A writer arriving during an fsync could not ride
//! it, so it queues a [`WriterSlot`]; the fsync's completion
//! ([`Committer::end_sync`]) promotes the oldest, and the next leader to take
//! the append lock drains the queue (up to the caps) as its followers. Every
//! member then inserts its own batch into the memtable in parallel, outside the
//! WAL lock. A follower of a group that owes no fsync acknowledges itself once
//! its inserts land (group-wide failures arrive *instead of* a ticket); a
//! follower of a durable group parks again for the leader's post-fsync verdict.
//!
//! This module owns the queueing, hand-off and wake-up protocol; the WAL and
//! memtable work lives in `commit.rs` (`DbInner::write_batch`). It also hosts
//! the [`PublicationSequencer`] that retires in-flight groups in append order.
//!
//! Lock ordering (deadlock freedom): the WAL mutex may be held while taking the
//! commit queue or the commit gate; the queue lock may be held while taking a
//! slot's state lock. Nothing ever waits on the WAL mutex while holding the
//! gate, the queue or a slot lock.
//!
//! Wake-ups are *adaptive spin-then-park*: a parked writer polls an atomic
//! readiness flag for a bounded number of iterations before it waits on a
//! `Condvar`, skipping the scheduler round-trip when another core delivers its
//! direction within the spin window.

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
use triad_memtable::{LogPosition, Memtable};

use crate::batch::{WriteBatch, WriteOptions};
use crate::options::GroupCommitConfig;

/// Iterations a parked writer polls its readiness flag before `Condvar::wait`.
/// Sized for "the leader is finishing up on another core right now"; anything
/// longer just burns cycles that the producer may need.
const DIRECTION_SPIN_ITERS: u32 = 128;

/// Iterations the leader polls the insert barrier before parking.
const BARRIER_SPIN_ITERS: u32 = 256;

/// What a parked writer is told to do next.
pub(crate) enum Direction {
    /// Promoted: lead the next commit group.
    Lead,
    /// The group's WAL write is done: apply your own batch to the memtable,
    /// signal the barrier and return success (a ticket is only ever issued for
    /// a group whose WAL phase succeeded).
    Insert(InsertTicket),
    /// The write is fully committed (or failed); this is its result.
    Done(Result<SeqNo>),
}

/// Everything a follower needs to apply its batch to the memtable.
pub(crate) struct InsertTicket {
    /// Sequence number of this member's first operation.
    pub(crate) first_seqno: SeqNo,
    /// Commit-log position of each of this member's records, in op order.
    pub(crate) positions: Vec<LogPosition>,
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

/// Counts down the followers still applying their memtable inserts.
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

/// One queued writer: its batch, its options and the direction it waits for.
pub(crate) struct WriterSlot {
    pub(crate) batch: WriteBatch,
    pub(crate) opts: WriteOptions,
    /// The delivered, not yet consumed direction.
    state: Mutex<Option<Direction>>,
    wake: Condvar,
    /// Set (under the state lock) whenever a direction is stored; cleared when
    /// one is taken. Lets [`wait_for_direction`] poll without touching the
    /// mutex during its spin phase.
    ready: AtomicBool,
}

impl WriterSlot {
    fn new(batch: WriteBatch, opts: WriteOptions) -> Arc<Self> {
        Arc::new(WriterSlot {
            batch,
            opts,
            state: Mutex::new(None),
            wake: Condvar::new(),
            ready: AtomicBool::new(false),
        })
    }

    /// Consumes a pending direction, if any. Must run under the state lock.
    fn take_direction(&self, state: &mut Option<Direction>) -> Option<Direction> {
        let direction = state.take()?;
        self.ready.store(false, Ordering::Relaxed);
        Some(direction)
    }

    /// Waits until a leader (or a promotion) tells this writer what to do:
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
    pub(crate) fn deliver(&self, direction: Direction) {
        let mut state = self.state.lock().expect("slot lock poisoned");
        *state = Some(direction);
        self.ready.store(true, Ordering::Release);
        drop(state);
        self.wake.notify_one();
    }
}

/// How [`Committer::join`] placed a writer.
pub(crate) enum Joined {
    /// No fsync in flight: the caller leads a group with its own batch.
    Lead(WriteBatch, WriteOptions),
    /// Queued behind the in-flight fsync: wait on the slot for a direction.
    Queued(Arc<WriterSlot>),
}

#[derive(Default)]
struct CommitQueue {
    pending: VecDeque<Arc<WriterSlot>>,
    /// `true` while a commit group's fsync is in flight — the only time a
    /// writer queues (see the module docs). Set and cleared by
    /// [`Committer::begin_sync`] / [`Committer::end_sync`].
    sync_in_flight: bool,
}

impl CommitQueue {
    fn promote_front(&mut self) {
        if let Some(next) = self.pending.pop_front() {
            next.deliver(Direction::Lead);
        }
    }
}

/// The pending-writers queue.
#[derive(Default)]
pub(crate) struct Committer {
    queue: Mutex<CommitQueue>,
    /// `false` exactly when no fsync is in flight and nobody is queued.
    /// Written (Release) only under the queue lock, so an idle queue — the
    /// common case — costs `join`, `drain` and `handoff` one Acquire load and
    /// no lock. A stale `false` is harmless: a writer queues only under the
    /// lock while an fsync is in flight, and that fsync's completion promotes.
    busy: AtomicBool,
}

impl Committer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs `f` under the queue lock, then republishes the `busy` flag.
    fn with_queue<R>(&self, f: impl FnOnce(&mut CommitQueue) -> R) -> R {
        let mut queue = self.queue.lock().expect("commit queue poisoned");
        let result = f(&mut queue);
        self.busy.store(queue.sync_in_flight || !queue.pending.is_empty(), Ordering::Release);
        result
    }

    /// Registers a writer: queued while an fsync is in flight (its completion
    /// promotes a queued writer, see [`end_sync`](Self::end_sync)), otherwise
    /// handed back to lead its own group. A leader must call
    /// [`handoff`](Self::handoff) once its append stage is over; a queued
    /// writer parks on [`WriterSlot::wait_for_direction`].
    pub(crate) fn join(&self, batch: WriteBatch, opts: WriteOptions) -> Joined {
        if self.busy.load(Ordering::Acquire) {
            let mut queue = self.queue.lock().expect("commit queue poisoned");
            if queue.sync_in_flight {
                // `busy` stays set: the fsync in flight already set it.
                let slot = WriterSlot::new(batch, opts);
                queue.pending.push_back(Arc::clone(&slot));
                return Joined::Queued(slot);
            }
        }
        Joined::Lead(batch, opts)
    }

    /// Marks an fsync as in flight: writers arriving from now on
    /// accumulate in the queue instead of leading their own groups.
    pub(crate) fn begin_sync(&self) {
        self.with_queue(|queue| queue.sync_in_flight = true);
    }

    /// Marks the fsync complete and promotes the oldest queued writer, if any,
    /// to lead the writers that accumulated behind it as one group.
    pub(crate) fn end_sync(&self) {
        self.with_queue(|queue| {
            queue.sync_in_flight = false;
            queue.promote_front();
        });
    }

    /// Takes queued writers, oldest first, as the followers of a leader whose
    /// own batch carries `own_bytes` key+value bytes: the group stops at
    /// `caps.max_group_batches` batches (the leader's included) or before the
    /// summed bytes would pass `caps.max_group_bytes`.
    pub(crate) fn drain(&self, own_bytes: usize, caps: &GroupCommitConfig) -> Vec<Arc<WriterSlot>> {
        let mut followers = Vec::new();
        if !self.busy.load(Ordering::Acquire) {
            return followers;
        }
        self.with_queue(|queue| {
            let mut bytes = own_bytes;
            while followers.len() + 1 < caps.max_group_batches {
                let Some(front) = queue.pending.front() else { break };
                bytes = bytes.saturating_add(front.batch.approximate_size());
                if bytes > caps.max_group_bytes {
                    break;
                }
                followers.push(queue.pending.pop_front().expect("front observed above"));
            }
        });
        followers
    }

    /// Ends a leader's append stage: if the drain caps left writers queued and
    /// no fsync is in flight (whose completion would promote one), promotes
    /// the oldest to lead the rest.
    pub(crate) fn handoff(&self) {
        if self.busy.load(Ordering::Acquire) {
            self.with_queue(|queue| {
                if !queue.sync_in_flight {
                    queue.promote_front();
                }
            });
        }
    }
}

/// Retires commit groups in append order — without ever parking.
///
/// The commit pipeline decouples appending from publication: group N+1 may finish
/// its memtable inserts (and even its fsync) while group N is still in flight.
/// `last_seqno` must nevertheless move monotonically through contiguous group
/// ranges, so every group takes a ticket (its *group index*, assigned under the
/// append lock) and *completes* it when done. The group that is next in order
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
    ready: std::collections::BTreeMap<u64, Option<SeqNo>>,
}

impl PublicationSequencer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

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
        let mut state = self.state.lock().expect("publication sequencer poisoned");
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

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queue = self.queue.lock().expect("commit queue poisoned");
        f.debug_struct("Committer")
            .field("pending", &queue.pending.len())
            .field("sync_in_flight", &queue.sync_in_flight)
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

    fn queued(committer: &Committer, bytes: usize) -> Arc<WriterSlot> {
        match committer.join(batch_of(bytes), WriteOptions::default()) {
            Joined::Queued(slot) => slot,
            Joined::Lead(..) => panic!("a writer arriving during an fsync must queue"),
        }
    }

    fn leads(committer: &Committer) -> bool {
        matches!(committer.join(batch_of(8), WriteOptions::default()), Joined::Lead(..))
    }

    fn caps(max_group_batches: usize, max_group_bytes: usize) -> GroupCommitConfig {
        GroupCommitConfig { max_group_batches, max_group_bytes }
    }

    fn promoted(slot: &WriterSlot) -> bool {
        slot.ready.load(Ordering::Acquire) && matches!(slot.wait_for_direction(), Direction::Lead)
    }

    #[test]
    fn a_writer_arriving_while_another_leads_leads_too() {
        // No fsync in flight: queueing could buy no batching, so every writer
        // leads its own group and the leaders serialize on the append lock.
        let committer = Committer::new();
        assert!(leads(&committer));
        assert!(leads(&committer), "a second writer must not queue behind a leader");
        assert!(committer.drain(8, &caps(usize::MAX, usize::MAX)).is_empty());
    }

    #[test]
    fn writers_arriving_during_an_fsync_queue_and_one_promotion_drains_them_all() {
        let committer = Committer::new();
        committer.begin_sync();
        let slots: Vec<_> = (0..5).map(|_| queued(&committer, 10)).collect();
        assert!(!slots.iter().any(|slot| slot.ready.load(Ordering::Acquire)));
        committer.end_sync();
        // The fsync's completion promotes the oldest, which drains the other
        // four within the default caps.
        assert!(promoted(&slots[0]));
        let followers = committer.drain(10, &GroupCommitConfig::default());
        assert_eq!(followers.len(), 4);
        assert!(followers.iter().zip(&slots[1..]).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(!committer.busy.load(Ordering::Acquire), "the drained queue is idle again");
    }

    #[test]
    fn drain_respects_batch_and_byte_caps() {
        let committer = Committer::new();
        committer.begin_sync();
        for _ in 0..5 {
            queued(&committer, 10);
        }
        assert_eq!(
            committer.drain(10, &caps(3, usize::MAX)).len(),
            2,
            "batch cap counts the leader"
        );
        // 10 bytes of the leader's own; only one more 10-byte batch fits under 25.
        assert_eq!(
            committer.drain(10, &caps(usize::MAX, 25)).len(),
            1,
            "byte cap limits the group"
        );
    }

    #[test]
    fn handoff_promotes_in_fifo_order_and_clears_when_idle() {
        let committer = Committer::new();
        committer.begin_sync();
        let (first, second) = (queued(&committer, 4), queued(&committer, 4));
        // A leader ending its append stage during the fsync promotes nobody:
        // the queued writers wait to form one group when it completes.
        committer.handoff();
        assert!(!first.ready.load(Ordering::Acquire));
        committer.end_sync();
        assert!(promoted(&first));
        // The promoted leader's cap of one left the second queued with no
        // fsync in flight: its hand-off promotes the next in line.
        assert!(committer.drain(4, &caps(1, usize::MAX)).is_empty());
        committer.handoff();
        assert!(promoted(&second));
        assert!(!committer.busy.load(Ordering::Acquire), "the idle queue clears its flag");
        assert!(leads(&committer));
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
        let slot = WriterSlot::new(batch_of(4), WriteOptions::default());
        slot.deliver(Direction::Done(Ok(7)));
        match slot.wait_for_direction() {
            Direction::Done(Ok(seqno)) => assert_eq!(seqno, 7),
            _ => panic!("expected the pre-delivered result"),
        }
    }

    #[test]
    fn a_slot_can_park_twice_for_insert_then_done() {
        // The durable-group path: an insert ticket first, the final result
        // second. The readiness flag must re-arm between the two directions.
        let slot = WriterSlot::new(batch_of(4), WriteOptions::default());
        let barrier = InsertBarrier::new(1);
        slot.deliver(Direction::Insert(InsertTicket {
            first_seqno: 1,
            positions: vec![LogPosition::default()],
            mem: Arc::new(Memtable::new()),
            barrier: Arc::clone(&barrier),
            acked_on_insert: false,
        }));
        match slot.wait_for_direction() {
            Direction::Insert(ticket) => {
                assert!(!ticket.acked_on_insert);
                ticket.barrier.arrive();
            }
            _ => panic!("expected the insert ticket"),
        }
        barrier.wait_drained();
        slot.deliver(Direction::Done(Ok(9)));
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
