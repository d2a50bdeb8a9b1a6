//! Figure 2: the throughput cost of background I/O.
//!
//! The paper compares stock RocksDB against a modified build in which background
//! flushing and compaction are disabled, showing up to a 3× throughput gap. We get
//! the "No BG I/O" column from the baseline engine itself: its memtable and commit
//! log are sized to hold every put of the timed phase, so nothing flushes, compacts
//! or rotates while the clock runs, and no acknowledged write is discarded.

use triad_common::Error;
use triad_core::{Options, TriadConfig};
use triad_workload::{OperationMix, WorkloadSpec};

use crate::experiments::{bench_options, ops_per_thread, synthetic_workload, SkewProfile};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, Scale};

/// Client threads of every Figure 2 run.
const THREADS: usize = 8;

/// Budget per timed operation beyond its key and value: covers the commit log's
/// record framing and the memtable's per-entry bookkeeping, with room to spare.
const RECORD_HEADROOM: usize = 128;

/// The baseline options with a memtable and a commit log that hold the whole timed
/// phase (every operation of every thread counted as a put), so the run does no
/// background I/O. The block cache keeps the baseline's budget, which was sized
/// for the baseline's memtable.
pub fn no_background_io_options(scale: Scale, workload: &WorkloadSpec) -> Options {
    let record = workload.bytes_per_write() as usize + RECORD_HEADROOM;
    let budget = THREADS * ops_per_thread(scale) as usize * record;
    Options {
        memtable_size: budget,
        max_log_size: budget,
        ..bench_options(scale, TriadConfig::baseline())
    }
}

/// Runs the four workload points of Figure 2 and prints the comparison. Fails if a
/// "No BG I/O" run flushed, compacted or rotated its log inside the timed window.
pub fn run(scale: Scale) -> triad_common::Result<Table> {
    let mut table = Table::new(&["workload", "RocksDB KOPS", "No BG I/O KOPS", "no-BG / baseline"]);
    let points = [
        (SkewProfile::None, OperationMix::balanced(), "Uniform 50r-50w"),
        (SkewProfile::None, OperationMix::write_intensive(), "Uniform 10r-90w"),
        (SkewProfile::High, OperationMix::balanced(), "Skewed 50r-50w"),
        (SkewProfile::High, OperationMix::write_intensive(), "Skewed 10r-90w"),
    ];
    let ops = ops_per_thread(scale);
    for (skew, mix, label) in points {
        let workload = synthetic_workload(scale, skew, mix);

        let baseline = ExperimentConfig::new(
            format!("fig2-baseline-{label}"),
            bench_options(scale, TriadConfig::baseline()),
            workload.clone(),
        )
        .with_threads(THREADS)
        .with_ops_per_thread(ops);
        let baseline_result = run_experiment(&baseline)?;

        let no_bg_options = no_background_io_options(scale, &workload);
        let mut no_bg =
            ExperimentConfig::new(format!("fig2-nobg-{label}"), no_bg_options, workload)
                .with_threads(THREADS)
                .with_ops_per_thread(ops);
        // The counters must cover the timed window alone.
        no_bg.drain_background = false;
        let no_bg_result = run_experiment(&no_bg)?;
        let window = &no_bg_result.stats;
        if window.flush_count + window.compaction_count + window.wal_rotations > 0 {
            return Err(Error::Background(format!(
                "{label}: the No BG I/O window ran {} flushes, {} compactions and {} log \
                 rotations; it must run none",
                window.flush_count, window.compaction_count, window.wal_rotations
            )));
        }

        let ratio = no_bg_result.kops / baseline_result.kops.max(1e-9);
        table.add_row(vec![
            label.to_string(),
            format!("{:.1}", baseline_result.kops),
            format!("{:.1}", no_bg_result.kops),
            format!("{ratio:.2}x"),
        ]);
    }
    print_table(
        "Figure 2: background I/O impact on throughput",
        &table,
        "disabling background I/O yields up to ~3x higher throughput than stock RocksDB",
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_background_io_options_hold_the_timed_phase() {
        let scale = Scale::Quick;
        let ops = ops_per_thread(scale);
        let baseline = bench_options(scale, TriadConfig::baseline());
        for mix in [OperationMix::balanced(), OperationMix::write_intensive()] {
            let workload = synthetic_workload(scale, SkewProfile::None, mix);
            let options = no_background_io_options(scale, &workload);
            let put_bytes = THREADS as u64 * ops * workload.bytes_per_write();
            assert!(options.memtable_size as u64 >= put_bytes, "the memtable holds every put");
            assert!(options.max_log_size as u64 >= put_bytes, "the log holds every put");
            assert_eq!(options.block_cache, baseline.block_cache, "cache pinned to the baseline");
            assert_eq!(options.triad.label(), "RocksDB");
            options.validate().unwrap();
        }
    }
}
