//! The shared skew × mix × thread-count grid behind Figures 9B and 9C.

use triad_core::TriadConfig;
use triad_workload::OperationMix;

use crate::experiments::{bench_options, ops_per_thread, synthetic_workload, SkewProfile};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, ExperimentResult, Scale};

/// One cell of the grid: a skew, a mix, a thread count, and the two systems' results.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Skew profile of this point.
    pub skew: SkewProfile,
    /// Read/write mix of this point.
    pub mix: OperationMix,
    /// Number of client threads.
    pub threads: usize,
    /// Result for the baseline configuration.
    pub baseline: ExperimentResult,
    /// Result for the full TRIAD configuration.
    pub triad: ExperimentResult,
}

/// The thread counts swept at each scale (the paper uses 1–16).
pub fn thread_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 12, 16],
    }
}

/// Runs the full grid of Figure 9B/9C.
pub fn run_grid(scale: Scale) -> triad_common::Result<Vec<GridPoint>> {
    let mixes = [OperationMix::write_intensive(), OperationMix::balanced()];
    let mut points = Vec::new();
    for skew in SkewProfile::all() {
        for mix in mixes {
            for &threads in &thread_counts(scale) {
                let workload = synthetic_workload(scale, skew, mix);
                // Keep total work roughly constant across thread counts so every cell
                // finishes in comparable time.
                let ops = (ops_per_thread(scale) * 8 / threads as u64).max(1_000);
                let run_one = |label: &str, triad: TriadConfig| -> triad_common::Result<_> {
                    let config = ExperimentConfig::new(
                        format!("grid-{label}-{}-{}-{threads}", skew.label(), mix.label()),
                        bench_options(scale, triad),
                        workload.clone(),
                    )
                    .with_threads(threads)
                    .with_ops_per_thread(ops);
                    run_experiment(&config)
                };
                let baseline = run_one("rocksdb", TriadConfig::baseline())?;
                let triad = run_one("triad", TriadConfig::all_enabled())?;
                points.push(GridPoint { skew, mix, threads, baseline, triad });
            }
        }
    }
    Ok(points)
}

/// Prints the throughput view of the grid (Figure 9B).
pub fn print_throughput(points: &[GridPoint]) -> Table {
    let mut table =
        Table::new(&["skew", "mix", "threads", "RocksDB KOPS", "TRIAD KOPS", "speedup"]);
    for point in points {
        table.add_row(vec![
            point.skew.label().to_string(),
            point.mix.label(),
            point.threads.to_string(),
            format!("{:.1}", point.baseline.kops),
            format!("{:.1}", point.triad.kops),
            format!("{:.2}x", point.triad.kops / point.baseline.kops.max(1e-9)),
        ]);
    }
    print_table(
        "Figure 9B: throughput vs thread count (higher is better)",
        &table,
        "TRIAD is up to 2.5x faster on skewed and up to 2.2x faster on uniform workloads; \
         gains of ~50% for WS1, ~25-51% for WS2 at 8+ threads",
    );
    table
}

/// Prints the write-amplification view of the grid (Figure 9C).
pub fn print_write_amplification(points: &[GridPoint]) -> Table {
    let mut table = Table::new(&["skew", "mix", "threads", "RocksDB WA", "TRIAD WA", "reduction"]);
    for point in points {
        table.add_row(vec![
            point.skew.label().to_string(),
            point.mix.label(),
            point.threads.to_string(),
            format!("{:.2}", point.baseline.stats.write_amplification()),
            format!("{:.2}", point.triad.stats.write_amplification()),
            format!(
                "{:.2}x",
                point.baseline.stats.write_amplification()
                    / point.triad.stats.write_amplification().max(1e-9)
            ),
        ]);
    }
    print_table(
        "Figure 9C: write amplification (lower is better)",
        &table,
        "WA decreases by up to 4x for moderately-skewed and uniform workloads; for the \
         highly-skewed workload WA is similar but absolute bytes written drop by ~10x",
    );
    table
}
