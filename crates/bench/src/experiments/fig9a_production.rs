//! Figure 9A: throughput and write amplification on the production workloads.
//!
//! Each production profile runs write-only through the closed-loop
//! [`run_experiment`] runner with 8 client threads, once on the RocksDB-like
//! baseline and once with every TRIAD technique enabled.

use triad_core::TriadConfig;
use triad_workload::{OperationMix, ProductionProfile, ProductionWorkload};

use crate::experiments::{bench_options, fig7_profiles::scale_down_factor, ops_per_thread};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, Scale};

/// Runs RocksDB-baseline and TRIAD on each production-like workload profile.
pub fn run(scale: Scale) -> triad_common::Result<Table> {
    let factor = scale_down_factor(scale);
    let threads = 8;
    let mut table = Table::new(&[
        "workload",
        "RocksDB KOPS",
        "TRIAD KOPS",
        "speedup",
        "RocksDB WA",
        "TRIAD WA",
        "WA reduction",
    ]);
    for workload in ProductionWorkload::all() {
        let profile = ProductionProfile::new(workload, factor);
        // The production workloads are metadata update streams; drive them write-only
        // as the paper's throughput numbers are for applying the workload.
        let spec = profile.to_spec(OperationMix::new(0.0, 1.0, 0.0));
        let ops = ops_per_thread(scale).min(profile.num_updates / 8 + 1);

        let run_one = |label: &str, triad: TriadConfig| {
            let config = ExperimentConfig::new(label, bench_options(scale, triad), spec.clone())
                .with_threads(threads)
                .with_ops_per_thread(ops);
            run_experiment(&config)
        };
        let baseline = run_one("RocksDB", TriadConfig::baseline())?;
        let triad = run_one("TRIAD", TriadConfig::all_enabled())?;
        let (baseline_wa, triad_wa) =
            (baseline.stats.write_amplification(), triad.stats.write_amplification());
        table.add_row(vec![
            profile.workload.label().to_string(),
            format!("{:.1}", baseline.kops),
            format!("{:.1}", triad.kops),
            format!("{:.0}%", (triad.kops / baseline.kops.max(1e-9) - 1.0) * 100.0),
            format!("{baseline_wa:.2}"),
            format!("{triad_wa:.2}"),
            format!("{:.2}x", baseline_wa / triad_wa.max(1e-9)),
        ]);
    }
    print_table(
        "Figure 9A: production workloads, throughput and write amplification (8 threads)",
        &table,
        "TRIAD improves throughput by up to 193% and reduces WA by up to 4x; its WA is \
         uniform across workloads while RocksDB's WA is higher for the less-skewed W1/W3",
    );
    Ok(table)
}
