//! Figure 9D: compacted gigabytes and time spent in compaction.

use triad_core::TriadConfig;
use triad_workload::OperationMix;

use crate::experiments::{bench_options, ops_per_thread, synthetic_workload, SkewProfile};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, Scale};

/// Runs the three skew profiles with the write-intensive mix at 8 threads and prints
/// compacted bytes (left plot) and the share of time spent in background I/O (right
/// plot).
pub fn run(scale: Scale) -> triad_common::Result<Table> {
    let mut table = Table::new(&[
        "skew",
        "RocksDB compacted GB",
        "TRIAD compacted GB",
        "reduction",
        "RocksDB %time bg",
        "TRIAD %time bg",
    ]);
    for skew in SkewProfile::all() {
        let workload = synthetic_workload(scale, skew, OperationMix::write_intensive());
        let run_one = |label: &str, triad: TriadConfig| -> triad_common::Result<_> {
            let config = ExperimentConfig::new(
                format!("fig9d-{label}-{}", skew.label()),
                bench_options(scale, triad),
                workload.clone(),
            )
            .with_threads(8)
            .with_ops_per_thread(ops_per_thread(scale));
            run_experiment(&config)
        };
        let baseline = run_one("rocksdb", TriadConfig::baseline())?;
        let triad = run_one("triad", TriadConfig::all_enabled())?;
        let reduction = if triad.compacted_gb() > 0.0 {
            format!("{:.1}x", baseline.compacted_gb() / triad.compacted_gb())
        } else {
            "inf".to_string()
        };
        table.add_row(vec![
            skew.label().to_string(),
            format!("{:.4}", baseline.compacted_gb()),
            format!("{:.4}", triad.compacted_gb()),
            reduction,
            format!("{:.0}%", baseline.background_time_fraction() * 100.0),
            format!("{:.0}%", triad.background_time_fraction() * 100.0),
        ]);
    }
    print_table(
        "Figure 9D: compacted GB (log scale in the paper) and % time in compaction, 8 threads, 10r-90w",
        &table,
        "TRIAD compacts an order of magnitude fewer bytes for the highly-skewed workload and \
         spends 48-77% less time in compaction for the moderately-skewed and uniform workloads",
    );
    Ok(table)
}
