//! Write-scaling: the front-door write path under 1→16 concurrent writers.
//!
//! This is not a figure from the paper — it is the repository's own perf
//! trajectory for the commit pipeline. The sweep runs a put-only workload at
//! 1→16 writer threads under `SyncMode::NoSync` and `SyncMode::SyncEveryWrite`,
//! at one and four shards. Every writer appends its own batch as its own
//! commit group; writers serialize only on the short append stage, which
//! releases the WAL lock before the sync stage runs. So group N+1 appends (and
//! inserts) while group N's fsync is in flight, and one fsync retires every
//! group appended before it ran (`overlapped` counts groups that needed no
//! fsync of their own).
//!
//! The gate is baseline-free, evaluated at one shard and 8 writers under
//! `SyncEveryWrite`: < 1 fsync per acknowledged batch, demonstrable overlap
//! (`overlapped > 0`), and every acknowledged batch accounted for by a commit
//! group. [`validate`] turns a violated gate, a hole in the sweep grid or a
//! missing JSON section into errors the binary exits non-zero on.
//!
//! Every point also records a per-commit latency histogram (p50/p99/p999, in
//! microseconds, via `triad_common::LatencyHistogram`): under SyncEveryWrite
//! a writer whose bytes missed the fsync in flight parks on the durability
//! watermark until the next one, and the histogram is where that wait shows
//! up. Under NoSync there is no fsync to wait on, so NoSync kops measure the
//! append stage and the memtable insert.

use std::sync::Arc;
use std::time::Instant;

use triad_common::LatencyHistogram;
use triad_core::{Db, Options, ShardConfig, StatSnapshot, SyncMode};

use crate::report::{print_table, Table};
use crate::runner::Scale;

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct WriteScalingPoint {
    /// `"NoSync"` or `"SyncEveryWrite"`.
    pub sync_mode: &'static str,
    /// Number of concurrent writer threads.
    pub threads: usize,
    /// Number of keyspace shards the database ran with.
    pub shards: usize,
    /// Thousands of acknowledged single-put batches per second.
    pub kops: f64,
    /// Acknowledged write batches (every one a single put here).
    pub acked_batches: u64,
    /// Engine counters over the timed phase (the delta of `Db::stats`).
    pub stats: StatSnapshot,
    /// Median acknowledged-commit latency, in microseconds.
    pub p50_us: f64,
    /// 99th-percentile commit latency, in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, in microseconds.
    pub p999_us: f64,
    /// Worst observed commit latency, in microseconds.
    pub max_us: f64,
}

/// Writer threads the gate is evaluated at (single shard, `SyncEveryWrite`).
pub const GATE_THREADS: usize = 8;

impl WriteScalingPoint {
    /// WAL fsyncs per acknowledged batch — the durability watermark drives
    /// this below 1.
    pub fn fsyncs_per_batch(&self) -> f64 {
        self.stats.wal_syncs as f64 / self.acked_batches as f64
    }

    /// The baseline-free gate: fsyncs amortize below one per acknowledged
    /// batch, at least one group retired on a neighbour's fsync, and every
    /// acknowledged batch rode in exactly one commit group.
    pub fn meets_gate(&self) -> bool {
        self.fsyncs_per_batch() < 1.0
            && self.stats.wal_syncs_overlapped > 0
            && self.stats.write_group_batches == self.acked_batches
    }
}

/// The shard-count comparison at the sharded gate point (4+ writers, NoSync).
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Writer threads the comparison is evaluated at.
    pub threads: usize,
    /// Sharded configuration compared against one shard.
    pub shards: usize,
    /// Pipelined NoSync throughput at one shard (kops).
    pub single_shard_kops: f64,
    /// Pipelined NoSync throughput at `shards` shards (kops).
    pub sharded_kops: f64,
    /// `sharded_kops / single_shard_kops`.
    pub speedup: f64,
}

impl ShardScaling {
    /// Whether the scaling expectation applies on this host: sharding removes
    /// commit-path contention, which needs real cores to show up. On a host
    /// with fewer cores than the gate's writer count the sweep is recorded
    /// for the trajectory but not asserted.
    pub fn gate_applies(&self) -> bool {
        self.host_parallelism >= 4
    }

    /// Whether the shard gate holds: sharded throughput at least matches the
    /// single-shard configuration at the gate point (vacuously true where
    /// the gate does not apply).
    pub fn holds(&self) -> bool {
        !self.gate_applies() || self.speedup >= 1.0
    }
}

fn sync_label(mode: SyncMode) -> &'static str {
    match mode {
        SyncMode::NoSync => "NoSync",
        SyncMode::SyncEveryWrite => "SyncEveryWrite",
        SyncMode::SyncEvery(_) => "SyncEvery(n)",
    }
}

/// Writer-thread counts the sweep covers.
pub fn thread_sweep() -> [usize; 5] {
    [1, 2, 4, 8, 16]
}

/// Shard counts the sweep covers; the whole threads × sync grid runs at
/// every count.
pub fn shard_sweep() -> [usize; 2] {
    [1, 4]
}

fn bench_db_options(sync_mode: SyncMode, shards: usize) -> Options {
    // The sweep measures the write *path*, not flush/compaction: keep the
    // memory component large enough that no rotation fires during a point.
    Options {
        memtable_size: 256 * 1024 * 1024,
        max_log_size: 512 * 1024 * 1024,
        sync_mode,
        shards: ShardConfig::with_count(shards),
        ..Options::default()
    }
}

fn run_point(
    scale: Scale,
    sync_mode: SyncMode,
    threads: usize,
    shards: usize,
) -> triad_common::Result<WriteScalingPoint> {
    let ops_per_thread = match sync_mode {
        // An fsync costs ~100 µs on commodity SSD-backed filesystems; keep the
        // synced points short so the full sweep stays CI-friendly.
        SyncMode::SyncEveryWrite => scale.ops(400, 5_000),
        _ => scale.ops(10_000, 200_000),
    };
    let label = format!("write-scaling-{}-{threads}t-{shards}s", sync_label(sync_mode));
    let dir = std::env::temp_dir().join(format!("triad-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Db::open(&dir, bench_db_options(sync_mode, shards))?);

    let before = db.stats();
    // Per-acknowledged-commit latency, recorded in nanoseconds by every writer
    // into one shared HDR-style histogram (recording is a relaxed fetch_add, so
    // sharing does not serialize the writers). A synced writer whose bytes
    // missed the fsync in flight waits for the next one, which shows up here
    // as tail latency.
    let latency = Arc::new(LatencyHistogram::new());
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        let latency = Arc::clone(&latency);
        handles.push(std::thread::spawn(move || -> triad_common::Result<()> {
            let value = vec![0x5au8; 200];
            for i in 0..ops_per_thread {
                // Disjoint per-thread key slices, revisited round-robin: pure
                // write traffic with realistic overwrite pressure.
                let key = format!("key-{t:02}-{:06}", i % 4_096);
                let commit_started = Instant::now();
                db.put(key.as_bytes(), &value)?;
                latency.record(commit_started.elapsed().as_nanos() as u64);
            }
            Ok(())
        }));
    }
    for handle in handles {
        handle.join().expect("writer thread panicked")?;
    }
    let elapsed = started.elapsed();
    let stats = db.stats().delta_since(&before);
    db.close()?;
    let _ = std::fs::remove_dir_all(&dir);

    let acked_batches = ops_per_thread * threads as u64;
    Ok(WriteScalingPoint {
        sync_mode: sync_label(sync_mode),
        threads,
        shards,
        kops: acked_batches as f64 / elapsed.as_secs_f64() / 1_000.0,
        acked_batches,
        stats,
        p50_us: latency.percentile(50.0) as f64 / 1_000.0,
        p99_us: latency.percentile(99.0) as f64 / 1_000.0,
        p999_us: latency.percentile(99.9) as f64 / 1_000.0,
        max_us: latency.max() as f64 / 1_000.0,
    })
}

/// Runs the full sweep and returns (table, points, the gate point, shard
/// scaling at 4 writers NoSync).
pub fn run(
    scale: Scale,
) -> triad_common::Result<(Table, Vec<WriteScalingPoint>, WriteScalingPoint, ShardScaling)> {
    let mut points = Vec::new();
    for shards in shard_sweep() {
        for sync_mode in [SyncMode::NoSync, SyncMode::SyncEveryWrite] {
            for threads in thread_sweep() {
                points.push(run_point(scale, sync_mode, threads, shards)?);
            }
        }
    }

    let mut table = Table::new(&[
        "sync mode",
        "threads",
        "shards",
        "kops",
        "p50 us",
        "p99 us",
        "p999 us",
        "fsyncs/batch",
        "groups",
        "overlapped",
        "depth",
    ]);
    for point in &points {
        table.add_row(vec![
            point.sync_mode.to_string(),
            point.threads.to_string(),
            point.shards.to_string(),
            format!("{:.1}", point.kops),
            format!("{:.1}", point.p50_us),
            format!("{:.1}", point.p99_us),
            format!("{:.1}", point.p999_us),
            format!("{:.3}", point.fsyncs_per_batch()),
            point.stats.write_groups.to_string(),
            point.stats.wal_syncs_overlapped.to_string(),
            point.stats.wal_pipeline_max_depth.to_string(),
        ]);
    }

    let find = |sync_mode: &str, threads: usize, shards: usize| {
        points
            .iter()
            .find(|p| p.sync_mode == sync_mode && p.threads == threads && p.shards == shards)
            .expect("the sweep always covers its gate points")
            .clone()
    };
    let gate = find("SyncEveryWrite", GATE_THREADS, 1);

    // Shard scaling: the NoSync comparison at 4 writers, one shard vs the
    // largest sharded count. Asserted only on hosts with the cores to show
    // it; recorded everywhere.
    let shard_gate_threads = 4;
    let sharded_count = *shard_sweep().last().expect("sweep is non-empty");
    let single = find("NoSync", shard_gate_threads, 1);
    let sharded = find("NoSync", shard_gate_threads, sharded_count);
    let shard_scaling = ShardScaling {
        host_parallelism: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        threads: shard_gate_threads,
        shards: sharded_count,
        single_shard_kops: single.kops,
        sharded_kops: sharded.kops,
        speedup: sharded.kops / single.kops.max(1e-9),
    };

    print_table(
        "Write scaling: the commit pipeline under concurrent writers (put-only)",
        &table,
        &format!(
            "gate at {GATE_THREADS} writers, SyncEveryWrite: {:.3} fsyncs/batch (need < 1), \
             {} overlapped syncs (need > 0), {} of {} acked batches in commit groups \
             (need all); shard gate at {} writers, NoSync: {} shards at {:.2}x vs one \
             shard ({})",
            gate.fsyncs_per_batch(),
            gate.stats.wal_syncs_overlapped,
            gate.stats.write_group_batches,
            gate.acked_batches,
            shard_scaling.threads,
            shard_scaling.shards,
            shard_scaling.speedup,
            if shard_scaling.gate_applies() {
                "asserted on this host"
            } else {
                "recorded only: too few cores to assert"
            }
        ),
    );
    Ok((table, points, gate, shard_scaling))
}

/// Sections every emitted trajectory file must carry.
const REQUIRED_JSON_KEYS: [&str; 6] = [
    "\"meta\"",
    "\"available_parallelism\"",
    "\"results\"",
    "\"latency_us\"",
    "\"acceptance\"",
    "\"shard_scaling\"",
];

/// Checks the sweep and its rendered JSON: every row has a fed latency
/// histogram, the sweep carries its sharded rows, the gate holds and no JSON
/// section is missing. Returns one message per violation; the binary exits
/// non-zero when any come back.
pub fn validate(points: &[WriteScalingPoint], gate: &WriteScalingPoint, json: &str) -> Vec<String> {
    let mut errors = Vec::new();
    for p in points.iter().filter(|p| p.max_us <= 0.0) {
        errors.push(format!(
            "{}/{} writers/{} shards: latency histogram is empty",
            p.sync_mode, p.threads, p.shards
        ));
    }
    if !points.iter().any(|p| p.shards > 1) {
        errors.push("the sweep has no sharded row".to_string());
    }
    if !gate.meets_gate() {
        errors.push(format!(
            "gate violated at {GATE_THREADS} writers, SyncEveryWrite: {:.3} fsyncs/batch \
             (need < 1), {} overlapped syncs (need > 0), {} of {} acked batches in commit groups",
            gate.fsyncs_per_batch(),
            gate.stats.wal_syncs_overlapped,
            gate.stats.write_group_batches,
            gate.acked_batches
        ));
    }
    for key in REQUIRED_JSON_KEYS {
        if !json.contains(key) {
            errors.push(format!("JSON section {key} is missing"));
        }
    }
    errors
}

/// Renders the sweep as the JSON trajectory file (`BENCH_write_scaling.json`).
pub fn to_json(
    scale: Scale,
    points: &[WriteScalingPoint],
    gate: &WriteScalingPoint,
    shard_scaling: &ShardScaling,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"write_scaling\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full { "full" } else { "quick" }
    ));
    out.push_str(&format!("  \"meta\": {},\n", crate::report::host_meta_json()));
    out.push_str("  \"unit\": \"kops = 1000 acknowledged single-put batches per second\",\n");
    out.push_str(
        "  \"latency_unit\": \"latency_us = per-commit acknowledgement latency percentiles, \
         microseconds (HDR-style fixed-bucket histogram)\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sync_mode\": \"{}\", \"threads\": {}, \"shards\": {}, \
             \"kops\": {:.2}, \"acked_batches\": {}, \"wal_syncs\": {}, \
             \"fsyncs_per_batch\": {:.4}, \"write_groups\": {}, \
             \"overlapped_syncs\": {}, \"pipeline_max_depth\": {}, \
             \"latency_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \
             \"max\": {:.1}}}}}{}\n",
            p.sync_mode,
            p.threads,
            p.shards,
            p.kops,
            p.acked_batches,
            p.stats.wal_syncs,
            p.fsyncs_per_batch(),
            p.stats.write_groups,
            p.stats.wal_syncs_overlapped,
            p.stats.wal_pipeline_max_depth,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            p.max_us,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!("    \"threads\": {},\n", gate.threads));
    out.push_str("    \"sync_mode\": \"SyncEveryWrite\",\n");
    out.push_str(&format!("    \"pipelined_kops\": {:.2},\n", gate.kops));
    out.push_str(&format!("    \"pipelined_fsyncs_per_batch\": {:.4},\n", gate.fsyncs_per_batch()));
    out.push_str(&format!("    \"overlapped_syncs\": {},\n", gate.stats.wal_syncs_overlapped));
    out.push_str(&format!("    \"acked_batches\": {},\n", gate.acked_batches));
    out.push_str(&format!("    \"grouped_batches\": {},\n", gate.stats.write_group_batches));
    out.push_str(&format!("    \"meets_gate\": {}\n", gate.meets_gate()));
    out.push_str("  },\n");
    out.push_str("  \"shard_scaling\": {\n");
    out.push_str("    \"sync_mode\": \"NoSync\",\n");
    out.push_str(&format!("    \"threads\": {},\n", shard_scaling.threads));
    out.push_str(&format!("    \"shards\": {},\n", shard_scaling.shards));
    out.push_str(&format!("    \"host_parallelism\": {},\n", shard_scaling.host_parallelism));
    out.push_str(&format!("    \"single_shard_kops\": {:.2},\n", shard_scaling.single_shard_kops));
    out.push_str(&format!("    \"sharded_kops\": {:.2},\n", shard_scaling.sharded_kops));
    out.push_str(&format!("    \"speedup\": {:.3},\n", shard_scaling.speedup));
    out.push_str(&format!("    \"gate_applies\": {},\n", shard_scaling.gate_applies()));
    out.push_str(&format!("    \"meets_gate\": {}\n", shard_scaling.holds()));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
