//! Atomic statistics registry.
//!
//! The TRIAD evaluation is framed in terms of a handful of I/O efficiency metrics:
//! bytes flushed, bytes compacted, bytes appended to the commit log, write
//! amplification, read amplification and the share of wall-clock time spent in
//! background work. Every component of the engine increments counters in a shared
//! [`Stats`] instance; the benchmark harness snapshots it before and after a run and
//! derives the figures reported in the paper.
//!
//! # Stripes
//!
//! Client threads and the background worker all record into the same
//! registry, one or more counters per operation. A single copy of the
//! counters would move its cache lines between cores on every one of those
//! writes. So a registry keeps [`STRIPES`] cache-line-aligned copies of every
//! counter, and each thread records into the stripe of a thread-local slot,
//! assigned round-robin on the thread's first record. Reading a counter
//! combines its stripes by the counter's kind; a read is therefore exact
//! however many threads recorded, and after they have exited. The count is a
//! constant, not an option: two threads share a stripe only when more than
//! [`STRIPES`] recording threads exist, and sharing costs speed, never counts.
//!
//! # Adding a counter
//!
//! Every counter is declared once, as one row of the `counters!` table below:
//! its doc comment, its name, its kind and the name of its recorder. A `Sum`
//! counter accumulates (`fetch_add`, and its stripes add); a `Max` counter is a
//! high-water mark (`fetch_max`, and the largest stripe wins). The table
//! generates the atomic field, the recorder, the getter, the [`StatSnapshot`]
//! field, the counter's part of [`Stats::snapshot`], [`Stats::absorb`],
//! [`StatSnapshot::delta_since`] and [`StatSnapshot::merge`], and the row the
//! table-driven test walks. Adding a counter is one row plus its increment
//! sites.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// One in this many commit groups is wall-clock timed for the sampled
/// `wal_append_us` / `wal_sync_wait_us` counters (see [`Stats::sample_timing`]).
pub const TIMING_SAMPLE_EVERY: u64 = 16;

/// How many copies of the counters a [`Stats`] registry keeps (see the module
/// docs). Sixteen covers the client threads of the benches and the background
/// worker with room to spare, at 8 KiB per registry.
pub const STRIPES: usize = 16;

/// Hands out stripe slots round-robin, one per recording thread.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, the same in every registry.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
    /// This thread's [`Stats::sample_timing`] tick.
    static TIMING_TICK: Cell<u64> = const { Cell::new(0) };
}

/// The per-kind semantics of one counter: how a recorded value folds into the
/// atomic, how a later snapshot relates to an earlier one, and how the
/// snapshots of two engines combine.
macro_rules! by_kind {
    (Sum, record, $cell:expr, $value:expr) => {
        $cell.fetch_add($value, Ordering::Relaxed)
    };
    (Max, record, $cell:expr, $value:expr) => {
        $cell.fetch_max($value, Ordering::Relaxed)
    };
    (Sum, delta, $later:expr, $earlier:expr) => {
        $later.saturating_sub($earlier)
    };
    (Max, delta, $later:expr, $earlier:expr) => {
        $later
    };
    (Sum, merge, $a:expr, $b:expr) => {
        $a.saturating_add($b)
    };
    (Max, merge, $a:expr, $b:expr) => {
        $a.max($b)
    };
}

/// Generates everything per-counter from the one table of rows
/// `/// doc` `name: Kind => recorder;` (see the module docs).
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $kind:ident => $record:ident;)*) => {
        /// One relaxed atomic per counter: one stripe's copy.
        #[derive(Debug, Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl Stats {
            $(
                $(#[$doc])*
                pub fn $record(&self, value: u64) {
                    by_kind!($kind, record, self.local().$name, value);
                }

                #[doc = concat!("Returns the current value of `", stringify!($name), "`.")]
                pub fn $name(&self) -> u64 {
                    self.stripes.iter().fold(0, |total, stripe| {
                        by_kind!($kind, merge, total, stripe.0.$name.load(Ordering::Relaxed))
                    })
                }
            )*

            /// Takes a point-in-time copy of every counter.
            pub fn snapshot(&self) -> StatSnapshot {
                StatSnapshot { $($name: self.$name(),)* }
            }

            /// Records every counter of `snap` here, each by its kind.
            fn record_snapshot(&self, snap: &StatSnapshot) {
                $(self.$record(snap.$name);)*
            }
        }

        /// A point-in-time copy of the [`Stats`] counters, with derived-metric helpers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatSnapshot {
            /// Computes the delta between this snapshot and an earlier one: `Sum`
            /// counters subtract (saturating at zero), while `Max` counters are
            /// high-water marks and carry this snapshot's value verbatim.
            pub fn delta_since(&self, earlier: &StatSnapshot) -> StatSnapshot {
                StatSnapshot { $($name: by_kind!($kind, delta, self.$name, earlier.$name),)* }
            }

            /// Combines two snapshots taken from different engine instances (one
            /// per shard): `Sum` counters add (saturating), while `Max` counters
            /// take the larger value — the deepest pipeline of any shard, not a
            /// meaningless sum of maxima.
            pub fn merge(&self, other: &StatSnapshot) -> StatSnapshot {
                StatSnapshot { $($name: by_kind!($kind, merge, self.$name, other.$name),)* }
            }
        }

        /// Every row of the table, for the table-driven test.
        #[cfg(test)]
        const COUNTER_ROWS: &[tests::CounterRow] = &[$(tests::CounterRow {
            name: stringify!($name),
            kind: tests::Kind::$kind,
            record: Stats::$record,
            get: Stats::$name,
            field: |snap| &mut snap.$name,
        },)*];
    };
}

/// Shared, thread-safe statistics registry.
///
/// Every counter is monotonic; derive rates or deltas by snapshotting with
/// [`Stats::snapshot`] and calling [`StatSnapshot::delta_since`].
#[derive(Debug, Default)]
pub struct Stats {
    /// One copy of every counter per stripe; a thread records into its own.
    stripes: [Stripe; STRIPES],
}

/// One stripe's counters, alone on their cache lines: 128-byte alignment
/// also keeps adjacent-line prefetching from pairing two stripes.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe(Counters);

counters! {
    // Logical (user-issued) traffic.
    /// User-issued put operations.
    user_writes: Sum => add_user_writes;
    /// User-issued delete operations.
    user_deletes: Sum => add_user_deletes;
    /// User-issued read operations.
    user_reads: Sum => add_user_reads;
    /// Reads that found a live value.
    user_read_hits: Sum => add_user_read_hits;
    /// Logical bytes written by the application (key + value sizes).
    user_bytes_written: Sum => add_user_bytes_written;

    // Commit log traffic.
    /// Bytes appended to the commit log.
    wal_bytes_written: Sum => add_wal_bytes_written;
    /// Commit log append operations.
    wal_appends: Sum => add_wal_appends;
    /// Commit log fsync operations.
    wal_syncs: Sum => add_wal_syncs;
    /// Commit log rotations (new log installed).
    wal_rotations: Sum => add_wal_rotations;
    /// Microseconds rotations held the commit gate exclusively — the time
    /// every writer of the shard waits. Recorded by the small-flush skip, the
    /// regular seal and `Db::flush`'s forced rotation.
    rotation_gate_micros: Sum => add_rotation_gate_micros;

    // Commit groups.
    /// Commit groups committed by the write path (one WAL append + flush per
    /// group). Every group is one batch, so this equals `write_group_batches`.
    write_groups: Sum => add_write_groups;
    /// Write batches carried by a commit group (every acknowledged non-empty
    /// batch rides in exactly one, per shard). Equals `write_groups`.
    write_group_batches: Sum => add_write_group_batches;

    // Pipelined commit (append / sync stage decoupling).
    /// Commit groups that required durability but found the watermark already
    /// past their end offset — another in-flight group's fsync covered them
    /// while they were appending or inserting. Strictly positive only when the
    /// pipelined commit actually overlapped an fsync with later work.
    wal_syncs_overlapped: Sum => add_wal_syncs_overlapped;
    /// Deepest commit pipeline observed, in groups simultaneously in flight
    /// (appended but not yet complete) — a high-water mark. Depth > 1 is the
    /// direct evidence that group N+1 appended while group N was in flight.
    wal_pipeline_max_depth: Max => record_pipeline_depth;
    /// *Sampled* microseconds spent inside the append stage of the pipelined
    /// commit (encode + buffered append, under the append lock). One in
    /// [`TIMING_SAMPLE_EVERY`] groups is timed, so this is an observability
    /// signal, not a total.
    wal_append_us: Sum => add_wal_append_us;
    /// *Sampled* microseconds a commit group spent waiting for (or issuing) the
    /// fsync that made it durable — the log-induced stall the pipeline hides
    /// behind the next group's append. Same sampling as `wal_append_us`.
    wal_sync_wait_us: Sum => add_wal_sync_wait_us;

    // Flushing.
    /// Completed flushes of the memory component.
    flush_count: Sum => add_flush_count;
    /// Flushes avoided by the TRIAD-MEM small-memtable rule.
    small_flush_skips: Sum => add_small_flush_skips;
    /// Bytes physically written to L0 by flushes (for CL-SSTables this is only
    /// the index, which is the point of TRIAD-LOG).
    bytes_flushed: Sum => add_bytes_flushed;
    /// Logical bytes installed at L0 by flushes. For regular flushes this equals
    /// `bytes_flushed`; for CL-SSTables it also counts the key/value data the
    /// index references in the sealed commit log. Write amplification is computed
    /// against this counter, matching how the paper reports WA for TRIAD.
    logical_bytes_flushed: Sum => add_logical_bytes_flushed;
    /// Entries written to L0 by flushes.
    entries_flushed: Sum => add_entries_flushed;
    /// Hot entries retained in memory by TRIAD-MEM instead of being flushed.
    hot_entries_retained: Sum => add_hot_entries_retained;
    /// Microseconds spent inside flush operations.
    flush_micros: Sum => add_flush_micros;

    // Compaction.
    /// Completed compactions that rewrote their inputs. Moves are counted
    /// apart, in `compaction_moves`, and add nothing to the byte, entry and
    /// time counters below.
    compaction_count: Sum => add_compaction_count;
    /// Compactions that moved their one input a level down with a manifest
    /// edit, reading and writing no table bytes.
    compaction_moves: Sum => add_compaction_moves;
    /// Compactions deferred by TRIAD-DISK.
    compactions_deferred: Sum => add_compactions_deferred;
    /// Bytes read by compactions.
    bytes_compacted_read: Sum => add_bytes_compacted_read;
    /// Bytes written by compactions.
    bytes_compacted_written: Sum => add_bytes_compacted_written;
    /// Entries processed by compactions.
    entries_compacted: Sum => add_entries_compacted;
    /// Obsolete entries discarded by compactions.
    entries_dropped: Sum => add_entries_dropped;
    /// Microseconds spent inside compaction operations.
    compaction_micros: Sum => add_compaction_micros;
    /// Background flush or compaction attempts that failed. The worker retries
    /// them; a blocking flush or compaction wait gives up with the last error
    /// after a few failures in a row.
    background_errors: Sum => add_background_errors;

    // Read path.
    /// Memtable probes performed by reads.
    memtable_probes: Sum => add_memtable_probes;
    /// SSTable probes performed by reads (the unit of read amplification).
    table_probes: Sum => add_table_probes;
    /// Data-block reads performed by table probes.
    block_reads: Sum => add_block_reads;
    /// Table probes skipped thanks to a bloom-filter negative.
    bloom_negatives: Sum => add_bloom_negatives;
    /// MVCC snapshots opened via `Db::snapshot`.
    snapshots_created: Sum => add_snapshots_created;
    /// Table-cache probes that found the table handle already open.
    table_cache_hits: Sum => add_table_cache_hits;
    /// Table-cache probes that had to open the table from disk.
    table_cache_misses: Sum => add_table_cache_misses;

    // The shared block cache (one cache across all keyspace shards; each probe
    // charges the stats registry of the shard that issued it, so the per-shard
    // counters still sum to the cache-wide totals under `merge`).
    /// Block-cache probes served from a cached decoded block or row. A get
    /// counts one hit or one miss, however many slots it probed.
    block_cache_hits: Sum => add_block_cache_hits;
    /// Block-cache probes that had to read the block from disk.
    block_cache_misses: Sum => add_block_cache_misses;
    /// The block-cache hits that a point get's cached row served: the entry
    /// the table's last unbounded get of that key found, with no index seek
    /// or block read.
    block_cache_row_hits: Sum => add_block_cache_row_hits;
    /// Blocks evicted from the cache to stay under the byte budget.
    block_cache_evictions: Sum => add_block_cache_evictions;
    /// Bytes the block cache's inserts were charged: each block's decoded
    /// bytes plus the cache's fixed per-slot overhead.
    block_cache_inserted_bytes: Sum => add_block_cache_inserted_bytes;

    // Garbage collection of obsolete files.
    /// Obsolete table files (SSTables and CL indexes) physically deleted.
    gc_files_deleted: Sum => add_gc_files_deleted;
    /// Obsolete commit logs physically deleted.
    gc_logs_deleted: Sum => add_gc_logs_deleted;
    /// Failed deletions of obsolete files (e.g. permission errors); the file
    /// stays queued and the next GC pass retries, so a non-zero value means disk
    /// space is leaking observably rather than silently.
    gc_delete_failures: Sum => add_gc_delete_failures;

    // Crash recovery.
    /// Cross-shard batches crash recovery found partially durable and dropped
    /// wholesale (torn-batch detection over the shards' stray logs).
    recovery_torn_batches: Sum => add_recovery_torn_batches;
    /// Replayed commit logs whose torn tail, a record a crash cut off
    /// mid-append, the open dropped. Such a record was never acknowledged
    /// as durable.
    recovery_torn_tails: Sum => add_recovery_torn_tails;

    // Checkpoints and replication.
    /// Crash-consistent checkpoints completed via `Db::checkpoint`.
    checkpoints_created: Sum => add_checkpoints_created;
    /// Checkpoint files captured by hard link (shared storage with the primary's
    /// immutable files).
    checkpoint_files_linked: Sum => add_checkpoint_files_linked;
    /// Checkpoint files captured by byte copy — log prefixes, manifests, and any
    /// file whose hard link failed (e.g. a cross-filesystem target).
    checkpoint_files_copied: Sum => add_checkpoint_files_copied;
    /// Shipped WAL records a replica applied through its local engine.
    replica_records_applied: Sum => add_replica_records_applied;
}

impl Stats {
    /// Creates a zeroed statistics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe.
    fn local(&self) -> &Counters {
        &self.stripes[STRIPE.with(|index| *index)].0
    }

    /// Returns `true` for one in [`TIMING_SAMPLE_EVERY`] calls on the calling
    /// thread; the write path uses this to decide whether to time a commit
    /// group, keeping clock reads off the common path. The tick is the
    /// thread's own, so sampling writes no shared memory.
    pub fn sample_timing(&self) -> bool {
        TIMING_TICK.with(|tick| {
            let now = tick.get();
            tick.set(now.wrapping_add(1));
            now % TIMING_SAMPLE_EVERY == 0
        })
    }

    /// Convenience helper to record time spent flushing.
    pub fn add_flush_duration(&self, elapsed: Duration) {
        self.add_flush_micros(elapsed.as_micros() as u64);
    }

    /// Convenience helper to record time spent compacting.
    pub fn add_compaction_duration(&self, elapsed: Duration) {
        self.add_compaction_micros(elapsed.as_micros() as u64);
    }

    /// Folds another registry into this one: every counter records the other's
    /// value by its kind (`Sum` adds, `Max` keeps the maximum). The sharded
    /// `Db` façade uses this to aggregate per-shard engine stats into one
    /// database-wide view; `other` keeps recording independently and is not
    /// modified.
    pub fn absorb(&self, other: &Stats) {
        self.record_snapshot(&other.snapshot());
    }
}

impl StatSnapshot {
    /// System-wide write amplification as defined in the paper:
    /// `(bytes_flushed + bytes_compacted) / bytes_flushed`.
    ///
    /// The flushed term uses the *logical* flush volume (which, for TRIAD-LOG
    /// CL-SSTables, includes the commit-log data the flushed index references), so
    /// the metric stays comparable between the baseline and TRIAD — the same
    /// convention the paper uses when reporting TRIAD's WA. Returns 1.0 when nothing
    /// has been flushed yet (no amplification observed).
    pub fn write_amplification(&self) -> f64 {
        let flushed = if self.logical_bytes_flushed > 0 {
            self.logical_bytes_flushed
        } else {
            self.bytes_flushed
        };
        if flushed == 0 {
            return 1.0;
        }
        (flushed + self.bytes_compacted_written) as f64 / flushed as f64
    }

    /// Write amplification measured against the logical bytes the user wrote:
    /// `(wal + flushed + compacted) / user_bytes`. Useful as a secondary view.
    pub fn device_write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            return 0.0;
        }
        (self.wal_bytes_written + self.bytes_flushed + self.bytes_compacted_written) as f64
            / self.user_bytes_written as f64
    }

    /// Fsyncs issued per acknowledged write batch. Under a concurrent synced
    /// workload the durability watermark drives this strictly below 1 — one
    /// fsync covers every batch appended before it runs.
    pub fn fsyncs_per_grouped_batch(&self) -> f64 {
        if self.write_group_batches == 0 {
            return 0.0;
        }
        self.wal_syncs as f64 / self.write_group_batches as f64
    }

    /// Average number of on-disk table probes per read — the paper's read amplification.
    pub fn read_amplification(&self) -> f64 {
        if self.user_reads == 0 {
            return 0.0;
        }
        self.table_probes as f64 / self.user_reads as f64
    }

    /// Fraction of block-cache probes served from memory,
    /// `hits / (hits + misses)`. Returns 0.0 when the cache saw no probes
    /// (disabled, or no table read ever reached a data block).
    pub fn block_cache_hit_rate(&self) -> f64 {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.block_cache_hits as f64 / total as f64
    }

    /// Total bytes written to disk by background work (flush + compaction).
    pub fn background_bytes_written(&self) -> u64 {
        self.bytes_flushed + self.bytes_compacted_written
    }

    /// Total time spent in background work.
    pub fn background_time(&self) -> Duration {
        Duration::from_micros(self.flush_micros + self.compaction_micros)
    }

    /// Fraction of `wall_clock` spent in background work (may exceed 1.0 when several
    /// background threads run in parallel).
    pub fn background_time_fraction(&self, wall_clock: Duration) -> f64 {
        if wall_clock.is_zero() {
            return 0.0;
        }
        self.background_time().as_secs_f64() / wall_clock.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// How a counter aggregates, as its table row declares it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Kind {
        Sum,
        Max,
    }

    /// One row of the counter table, as the `counters!` macro emits it.
    pub(super) struct CounterRow {
        pub(super) name: &'static str,
        pub(super) kind: Kind,
        pub(super) record: fn(&Stats, u64),
        pub(super) get: fn(&Stats) -> u64,
        pub(super) field: fn(&mut StatSnapshot) -> &mut u64,
    }

    /// `row`'s counter in `snap`.
    fn field_of(row: &CounterRow, mut snap: StatSnapshot) -> u64 {
        *(row.field)(&mut snap)
    }

    /// A snapshot in which only `row`'s counter is non-zero.
    fn only(row: &CounterRow, value: u64) -> StatSnapshot {
        let mut snap = StatSnapshot::default();
        *(row.field)(&mut snap) = value;
        snap
    }

    /// Walks every table row and checks the generated recorder, getter,
    /// `snapshot`, `delta_since`, `merge` and `absorb` against the row's kind,
    /// so a new counter is covered without editing this test.
    #[test]
    fn every_counter_row_follows_its_kind() {
        let mut names: Vec<&str> = COUNTER_ROWS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_ROWS.len(), "counter names are unique");

        for row in COUNTER_ROWS {
            // `pick(sum, max)`: the value this row's kind must produce.
            let pick = |sum: u64, max: u64| if row.kind == Kind::Sum { sum } else { max };
            let name = row.name;

            let stats = Stats::new();
            (row.record)(&stats, 7);
            (row.record)(&stats, 3);
            assert_eq!((row.get)(&stats), pick(10, 7), "{name}: recorder and getter");
            let earlier = stats.snapshot();
            assert_eq!(earlier, only(row, pick(10, 7)), "{name}: snapshot sets only its field");

            (row.record)(&stats, 2);
            let later = stats.snapshot();
            assert_eq!(later.delta_since(&earlier), only(row, pick(2, 7)), "{name}: delta");
            assert_eq!(only(row, 0).delta_since(&earlier), only(row, 0), "{name}: delta floor");

            assert_eq!(only(row, 4).merge(&only(row, 6)), only(row, pick(10, 6)), "{name}: merge");
            let top = only(row, u64::MAX);
            assert_eq!(top.merge(&only(row, 1)), top, "{name}: merge saturates");

            let total = Stats::new();
            (row.record)(&total, 5);
            total.absorb(&stats);
            assert_eq!(total.snapshot(), only(row, pick(17, 7)), "{name}: absorb");
            assert_eq!((row.get)(&stats), pick(12, 7), "{name}: absorb leaves the source");
        }
    }

    #[test]
    fn counters_accumulate() {
        let stats = Stats::new();
        stats.add_user_writes(3);
        stats.add_user_writes(2);
        stats.add_bytes_flushed(1024);
        assert_eq!(stats.user_writes(), 5);
        assert_eq!(stats.bytes_flushed(), 1024);
    }

    #[test]
    fn snapshot_and_delta() {
        let stats = Stats::new();
        stats.add_bytes_flushed(100);
        let before = stats.snapshot();
        stats.add_bytes_flushed(50);
        stats.add_bytes_compacted_written(200);
        let after = stats.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.bytes_flushed, 50);
        assert_eq!(delta.bytes_compacted_written, 200);
        assert_eq!(delta.user_writes, 0);
    }

    #[test]
    fn write_amplification_matches_paper_definition() {
        let snap =
            StatSnapshot { bytes_flushed: 10, bytes_compacted_written: 30, ..Default::default() };
        assert!((snap.write_amplification() - 4.0).abs() < 1e-9);
        let empty = StatSnapshot::default();
        assert_eq!(empty.write_amplification(), 1.0);
        // With TRIAD-LOG the logical flush volume (index + referenced log data) is the
        // denominator, not the tiny index alone.
        let cl = StatSnapshot {
            bytes_flushed: 10,
            logical_bytes_flushed: 100,
            bytes_compacted_written: 100,
            ..Default::default()
        };
        assert!((cl.write_amplification() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn read_amplification_is_probes_per_read() {
        let snap = StatSnapshot { user_reads: 4, table_probes: 14, ..Default::default() };
        assert!((snap.read_amplification() - 3.5).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().read_amplification(), 0.0);
    }

    #[test]
    fn group_commit_counters_and_derived_metrics() {
        let stats = Stats::new();
        stats.add_write_groups(10);
        stats.add_write_group_batches(10);
        stats.add_wal_syncs(2);

        let snap = stats.snapshot();
        assert_eq!(snap.write_groups, 10);
        assert_eq!(snap.write_group_batches, 10);
        assert!((snap.fsyncs_per_grouped_batch() - 0.2).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().fsyncs_per_grouped_batch(), 0.0);

        stats.add_write_groups(1);
        stats.add_write_group_batches(1);
        let delta = stats.snapshot().delta_since(&snap);
        assert_eq!(delta.write_groups, 1);
        assert_eq!(delta.write_group_batches, 1);
    }

    #[test]
    fn pipelined_commit_counters() {
        let stats = Stats::new();
        stats.add_wal_syncs_overlapped(3);
        stats.add_wal_append_us(120);
        stats.add_wal_sync_wait_us(900);
        stats.record_pipeline_depth(2);
        stats.record_pipeline_depth(5);
        stats.record_pipeline_depth(1);
        assert_eq!(stats.wal_pipeline_max_depth(), 5, "depth is a high-water mark");

        let snap = stats.snapshot();
        assert_eq!(snap.wal_syncs_overlapped, 3);
        assert_eq!(snap.wal_append_us, 120);
        assert_eq!(snap.wal_sync_wait_us, 900);
        assert_eq!(snap.wal_pipeline_max_depth, 5);

        // Deltas subtract the additive counters but carry the depth mark verbatim.
        stats.add_wal_syncs_overlapped(1);
        let delta = stats.snapshot().delta_since(&snap);
        assert_eq!(delta.wal_syncs_overlapped, 1);
        assert_eq!(delta.wal_append_us, 0);
        assert_eq!(delta.wal_pipeline_max_depth, 5);

        // The sampling tick fires exactly once per TIMING_SAMPLE_EVERY calls.
        let fresh = Stats::new();
        let sampled = (0..TIMING_SAMPLE_EVERY * 4).filter(|_| fresh.sample_timing()).count();
        assert_eq!(sampled, 4);
    }

    #[test]
    fn background_time_fraction() {
        let snap = StatSnapshot {
            flush_micros: 500_000,
            compaction_micros: 500_000,
            ..Default::default()
        };
        let frac = snap.background_time_fraction(Duration::from_secs(2));
        assert!((frac - 0.5).abs() < 1e-9);
        assert_eq!(snap.background_time(), Duration::from_secs(1));
        assert_eq!(snap.background_time_fraction(Duration::ZERO), 0.0);
    }

    /// Records `round` into every counter, `times` times: each `Sum`
    /// counter gains `round * times`, and each `Max` counter's mark reaches
    /// `round`.
    fn record_every_counter(stats: &Stats, round: u64, times: u64) {
        for _ in 0..times {
            for row in COUNTER_ROWS {
                (row.record)(stats, round);
            }
        }
    }

    /// The snapshot of a registry that `threads` threads, thread `t` recording
    /// `t + 1` into every counter `times` times, must read.
    fn expected_after(threads: u64, times: u64) -> StatSnapshot {
        let mut snap = StatSnapshot::default();
        for row in COUNTER_ROWS {
            *(row.field)(&mut snap) = match row.kind {
                Kind::Sum => times * threads * (threads + 1) / 2,
                Kind::Max => threads,
            };
        }
        snap
    }

    /// More recording threads than stripes, so every stripe takes records
    /// and some take several threads' records at once.
    const THREADS: u64 = 2 * STRIPES as u64 + 1;

    /// Runs [`THREADS`] recording threads against `stats` and joins them.
    fn record_from_threads(stats: &Arc<Stats>, times: u64) {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stats = Arc::clone(stats);
                thread::spawn(move || record_every_counter(&stats, t + 1, times))
            })
            .collect();
        for handle in handles {
            handle.join().expect("thread completes");
        }
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let stats = Arc::new(Stats::new());
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let stats = Arc::clone(&stats);
                thread::spawn(move || record_every_counter(&stats, t + 1, 500))
            })
            .collect();
        // Reads racing the writers see every counter grow, never shrink.
        let mut last = StatSnapshot::default();
        while writers.iter().any(|writer| !writer.is_finished()) {
            let now = stats.snapshot();
            for row in COUNTER_ROWS {
                let (before, after) = (field_of(row, last), field_of(row, now));
                assert!(after >= before, "{}: {before} then {after}", row.name);
            }
            last = now;
        }
        for writer in writers {
            writer.join().expect("thread completes");
        }
        assert_eq!(stats.snapshot(), expected_after(THREADS, 500));
    }

    #[test]
    fn counts_stay_exact_after_the_recording_threads_exit() {
        let stats = Arc::new(Stats::new());
        record_from_threads(&stats, 100);
        // Every recording thread is gone; its records live on in the stripes.
        let expected = expected_after(THREADS, 100);
        assert_eq!(stats.snapshot(), expected);
        for row in COUNTER_ROWS {
            assert_eq!((row.get)(&stats), field_of(row, expected), "{}", row.name);
        }
    }

    #[test]
    fn a_max_counter_reads_the_largest_mark_of_any_stripe() {
        let stats = Stats::new();
        stats.stripes[3].0.wal_pipeline_max_depth.store(9, Ordering::Relaxed);
        stats.stripes[STRIPES - 1].0.wal_pipeline_max_depth.store(4, Ordering::Relaxed);
        stats.stripes[5].0.user_writes.store(9, Ordering::Relaxed);
        stats.stripes[STRIPES - 1].0.user_writes.store(4, Ordering::Relaxed);
        assert_eq!(stats.wal_pipeline_max_depth(), 9, "a mark is the largest stripe's");
        assert_eq!(stats.user_writes(), 13, "a sum adds its stripes");
        // A smaller mark recorded on this thread's stripe moves nothing.
        stats.record_pipeline_depth(2);
        assert_eq!(stats.snapshot().wal_pipeline_max_depth, 9);
    }

    #[test]
    fn absorb_and_merge_of_striped_registries_are_exact() {
        let (a, b) = (Arc::new(Stats::new()), Arc::new(Stats::new()));
        record_from_threads(&a, 20);
        record_from_threads(&b, 30);
        let merged = a.snapshot().merge(&b.snapshot());
        let mut expected = expected_after(THREADS, 50);
        assert_eq!(merged, expected);

        let total = Stats::new();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.snapshot(), expected);
        // The sources keep their own counts, and a later absorb adds on top.
        assert_eq!(a.snapshot(), expected_after(THREADS, 20));
        total.absorb(&a);
        for row in COUNTER_ROWS {
            if row.kind == Kind::Sum {
                *(row.field)(&mut expected) += field_of(row, expected_after(THREADS, 20));
            }
        }
        assert_eq!(total.snapshot(), expected);
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water_marks() {
        let a = StatSnapshot {
            user_writes: 10,
            wal_syncs: 3,
            wal_pipeline_max_depth: 2,
            ..Default::default()
        };
        let b = StatSnapshot {
            user_writes: 5,
            wal_syncs: 4,
            wal_pipeline_max_depth: 6,
            ..Default::default()
        };
        let merged = a.merge(&b);
        assert_eq!(merged.user_writes, 15);
        assert_eq!(merged.wal_syncs, 7);
        assert_eq!(merged.wal_pipeline_max_depth, 6, "HWMs take the max, not the sum");
        // Merge with the identity element is the identity.
        assert_eq!(a.merge(&StatSnapshot::default()), a);
    }

    #[test]
    fn absorb_folds_counters_and_marks() {
        let total = Stats::new();
        total.add_user_writes(1);
        total.record_pipeline_depth(2);

        let shard = Stats::new();
        shard.add_user_writes(41);
        shard.add_wal_syncs(9);
        shard.record_pipeline_depth(3);

        total.absorb(&shard);
        assert_eq!(total.user_writes(), 42);
        assert_eq!(total.wal_syncs(), 9);
        assert_eq!(total.wal_pipeline_max_depth(), 3, "absorb keeps the larger mark");
        // The source registry is untouched and keeps recording.
        assert_eq!(shard.user_writes(), 41);
    }

    #[test]
    fn device_write_amplification() {
        let snap = StatSnapshot {
            user_bytes_written: 100,
            wal_bytes_written: 100,
            bytes_flushed: 100,
            bytes_compacted_written: 300,
            ..Default::default()
        };
        assert!((snap.device_write_amplification() - 5.0).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().device_write_amplification(), 0.0);
    }
}
