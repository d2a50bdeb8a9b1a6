//! The headline numbers of the evaluation (§5.2/§5.3), gathered into one table.

use triad_core::TriadConfig;
use triad_workload::OperationMix;

use crate::experiments::{bench_options, ops_per_thread, synthetic_workload, SkewProfile};
use crate::report::{print_table, Table};
use crate::runner::{run_experiment, ExperimentConfig, ExperimentResult, Scale};

/// A TRIAD-vs-baseline comparison on one workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload label.
    pub workload: String,
    /// Baseline result.
    pub baseline: ExperimentResult,
    /// TRIAD result.
    pub triad: ExperimentResult,
}

impl Comparison {
    /// Throughput improvement in percent.
    pub fn throughput_gain_pct(&self) -> f64 {
        (self.triad.kops / self.baseline.kops.max(1e-9) - 1.0) * 100.0
    }

    /// WA reduction factor.
    pub fn wa_reduction(&self) -> f64 {
        self.baseline.write_amplification / self.triad.write_amplification.max(1e-9)
    }

    /// Background-bytes reduction factor (flush + compaction).
    pub fn io_reduction(&self) -> f64 {
        let baseline = (self.baseline.flushed_bytes + self.baseline.compacted_bytes) as f64;
        let triad = (self.triad.flushed_bytes + self.triad.compacted_bytes) as f64;
        baseline / triad.max(1.0)
    }

    /// Relative reduction in time spent on background work, in percent.
    pub fn background_time_reduction_pct(&self) -> f64 {
        let baseline = self.baseline.background_time_fraction;
        let triad = self.triad.background_time_fraction;
        if baseline <= 0.0 {
            0.0
        } else {
            (1.0 - triad / baseline) * 100.0
        }
    }
}

/// Runs TRIAD vs baseline on the three synthetic skews and prints the headline table.
pub fn run(scale: Scale) -> triad_common::Result<(Table, Vec<Comparison>)> {
    let mut comparisons = Vec::new();
    for skew in SkewProfile::all() {
        let workload = synthetic_workload(scale, skew, OperationMix::write_intensive());
        let run_one = |label: &str, triad: TriadConfig| -> triad_common::Result<_> {
            let config = ExperimentConfig::new(
                format!("summary-{label}-{}", skew.label()),
                bench_options(scale, triad),
                workload.clone(),
            )
            .with_threads(8)
            .with_ops_per_thread(ops_per_thread(scale));
            run_experiment(&config)
        };
        comparisons.push(Comparison {
            workload: skew.label().to_string(),
            baseline: run_one("rocksdb", TriadConfig::baseline())?,
            triad: run_one("triad", TriadConfig::all_enabled())?,
        });
    }
    let mut table = Table::new(&[
        "workload",
        "throughput gain",
        "WA reduction",
        "background I/O reduction",
        "bg time reduction",
    ]);
    for comparison in &comparisons {
        table.add_row(vec![
            comparison.workload.clone(),
            format!("{:+.0}%", comparison.throughput_gain_pct()),
            format!("{:.2}x", comparison.wa_reduction()),
            format!("{:.1}x", comparison.io_reduction()),
            format!("{:.0}%", comparison.background_time_reduction_pct()),
        ]);
    }
    print_table(
        "Headline summary: TRIAD vs baseline (8 threads, 10r-90w)",
        &table,
        "up to 193% higher throughput, up to 4x lower WA, up to an order of magnitude \
         less I/O, 77% less time in flushing and compaction on average",
    );

    // The front-door write pipeline behind those numbers: how much the
    // group-commit path amortized and overlapped per workload (TRIAD runs).
    let mut pipeline = Table::new(&[
        "workload",
        "commit groups",
        "avg batches/group",
        "max group",
        "depth",
        "fsyncs",
        "amortized",
        "overlapped",
        "append µs*",
        "sync wait µs*",
    ]);
    for comparison in &comparisons {
        let r = &comparison.triad;
        let avg = if r.write_groups == 0 {
            0.0
        } else {
            r.write_group_batches as f64 / r.write_groups as f64
        };
        pipeline.add_row(vec![
            comparison.workload.clone(),
            r.write_groups.to_string(),
            format!("{avg:.2}"),
            r.write_group_max_size.to_string(),
            r.wal_pipeline_max_depth.to_string(),
            r.wal_syncs.to_string(),
            r.wal_syncs_amortized.to_string(),
            r.wal_syncs_overlapped.to_string(),
            r.wal_append_us.to_string(),
            r.wal_sync_wait_us.to_string(),
        ]);
    }
    print_table(
        "Group-commit pipeline during the TRIAD runs",
        &pipeline,
        "not a paper figure: repository-side instrumentation of the pipelined \
         leader/follower write path (*sampled sums, 1 in 16 groups timed; see \
         fig_write_scaling for the dedicated writer-scaling sweep)",
    );
    Ok((table, comparisons))
}
