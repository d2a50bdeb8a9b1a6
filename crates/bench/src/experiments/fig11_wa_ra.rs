//! Figure 11: write-amplification breakdown per technique and read-amplification
//! breakdown.

use triad_core::TriadConfig;
use triad_workload::{KeyDistribution, OperationMix, WorkloadSpec};

use crate::experiments::{bench_options, ops_per_thread, synthetic_keys};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, Scale};

/// The four skew points of the WA breakdown (the paper adds a 10%-90% point to the
/// three profiles used elsewhere).
fn skew_points(scale: Scale) -> Vec<(String, KeyDistribution)> {
    let keys = synthetic_keys(scale);
    vec![
        ("1% data - 99% time".to_string(), KeyDistribution::hot_cold(keys, 0.01, 0.99)),
        ("10% data - 90% time".to_string(), KeyDistribution::hot_cold(keys, 0.10, 0.90)),
        ("20% data - 80% time".to_string(), KeyDistribution::hot_cold(keys, 0.20, 0.80)),
        ("no skew".to_string(), KeyDistribution::uniform(keys)),
    ]
}

/// Runs the normalized-WA breakdown (top three plots of Figure 11).
pub fn run_write_amplification(scale: Scale) -> triad_common::Result<Table> {
    let configs = [
        TriadConfig::mem_only(),
        TriadConfig::disk_only(),
        TriadConfig::log_only(),
        TriadConfig::all_enabled(),
    ];
    let mut table = Table::new(&[
        "skew",
        "RocksDB WA",
        "TRIAD-MEM (norm)",
        "TRIAD-DISK (norm)",
        "TRIAD-LOG (norm)",
        "TRIAD (norm)",
    ]);
    for (label, distribution) in skew_points(scale) {
        let workload = WorkloadSpec::synthetic(distribution, OperationMix::write_intensive());
        let run_one = |triad: TriadConfig| -> triad_common::Result<_> {
            let config = ExperimentConfig::new(
                format!("fig11-wa-{}-{label}", triad.label()),
                bench_options(scale, triad),
                workload.clone(),
            )
            .with_threads(8)
            .with_ops_per_thread(ops_per_thread(scale));
            run_experiment(&config)
        };
        let baseline = run_one(TriadConfig::baseline())?;
        let mut row = vec![label.clone(), format!("{:.2}", baseline.stats.write_amplification())];
        for triad in configs.clone() {
            let result = run_one(triad)?;
            row.push(format!(
                "{:.2}",
                result.stats.write_amplification() / baseline.stats.write_amplification().max(1e-9)
            ));
        }
        table.add_row(row);
    }
    print_table(
        "Figure 11 (top): write amplification normalized to RocksDB (lower is better)",
        &table,
        "TRIAD-MEM cuts WA most under high skew and has little effect without skew; \
         TRIAD-DISK and TRIAD-LOG cut WA by up to 60% / 40% for uniform workloads",
    );
    Ok(table)
}

/// Runs the read-amplification breakdown (bottom-right plot of Figure 11): uniform
/// workload, 10% reads.
pub fn run_read_amplification(scale: Scale) -> triad_common::Result<Table> {
    let keys = synthetic_keys(scale);
    let workload =
        WorkloadSpec::synthetic(KeyDistribution::uniform(keys), OperationMix::write_intensive());
    let configs = [
        TriadConfig::mem_only(),
        TriadConfig::disk_only(),
        TriadConfig::log_only(),
        TriadConfig::all_enabled(),
        TriadConfig::baseline(),
    ];
    let mut table = Table::new(&["config", "read amplification"]);
    let mut baseline_ra = None;
    let mut triad_ra = None;
    for triad in configs {
        let label = triad.label();
        let config = ExperimentConfig::new(
            format!("fig11-ra-{label}"),
            bench_options(scale, triad),
            workload.clone(),
        )
        .with_threads(8)
        .with_ops_per_thread(ops_per_thread(scale));
        let result = run_experiment(&config)?;
        if label == "RocksDB" {
            baseline_ra = Some(result.stats.read_amplification());
        }
        if label == "TRIAD" {
            triad_ra = Some(result.stats.read_amplification());
        }
        table.add_row(vec![label, format!("{:.2}", result.stats.read_amplification())]);
    }
    if let (Some(baseline), Some(triad)) = (baseline_ra, triad_ra) {
        table.add_row(vec![
            "TRIAD overhead vs RocksDB".to_string(),
            format!("{:+.1}%", (triad / baseline.max(1e-9) - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Figure 11 (bottom right): read amplification breakdown (uniform, 10% reads)",
        &table,
        "TRIAD-MEM lowers RA, TRIAD-DISK raises it (more L0 files), TRIAD-LOG is neutral; \
         overall TRIAD increases RA by at most ~5%",
    );
    Ok(table)
}
