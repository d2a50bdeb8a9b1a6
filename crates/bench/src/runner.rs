//! The closed-loop experiment runner.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use triad_core::{Db, Options, StatSnapshot};
use triad_workload::{Operation, WorkloadGenerator, WorkloadSpec};

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per data point; suitable for CI and quick sanity checks.
    Quick,
    /// Larger datasets and op counts; minutes per figure.
    Full,
}

impl Scale {
    /// Parses the scale from command-line arguments (`--full` selects [`Scale::Full`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Scales an operation count.
    pub fn ops(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Scales a key count.
    pub fn keys(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One experiment: a database configuration driven by a workload.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Label printed in result tables (e.g. `"TRIAD"`, `"RocksDB"`).
    pub label: String,
    /// Engine configuration.
    pub options: Options,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Number of client threads.
    pub threads: usize,
    /// Operations issued per thread.
    pub ops_per_thread: u64,
    /// Fraction of the key space inserted before the timed run (the paper
    /// pre-populates roughly half the key range).
    pub prepopulate_fraction: f64,
    /// Wait for pending compactions before capturing the final statistics, so write
    /// amplification includes queued background work.
    pub drain_background: bool,
}

impl ExperimentConfig {
    /// Creates a config with the defaults used by most figures.
    pub fn new(label: impl Into<String>, options: Options, workload: WorkloadSpec) -> Self {
        ExperimentConfig {
            label: label.into(),
            options,
            workload,
            threads: 8,
            ops_per_thread: 50_000,
            prepopulate_fraction: 0.5,
            drain_background: true,
        }
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-thread operation count.
    pub fn with_ops_per_thread(mut self, ops: u64) -> Self {
        self.ops_per_thread = ops;
        self
    }
}

/// Metrics captured from one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration label.
    pub label: String,
    /// Total operations executed across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the timed phase.
    pub elapsed: Duration,
    /// Throughput in thousands of operations per second.
    pub kops: f64,
    /// Engine counters over the run: the delta of [`Db::stats`] across the
    /// timed phase and, when enabled, the background drain.
    pub stats: StatSnapshot,
    /// Engine counters over the setup phase (pre-population, its flush and
    /// the compaction wait). TRIAD-DISK may defer setup's L0→L1 compaction
    /// into the timed phase; this and `stats` together cover all the work.
    pub setup_stats: StatSnapshot,
    /// Files per level after the run.
    pub files_per_level: Vec<usize>,
}

impl ExperimentResult {
    /// Share of the timed phase's wall clock spent in flush + compaction (may
    /// exceed 1.0 with several background threads).
    pub fn background_time_fraction(&self) -> f64 {
        self.stats.background_time_fraction(self.elapsed)
    }

    /// Total background gigabytes written (flush + compaction).
    pub fn background_gb(&self) -> f64 {
        self.stats.background_bytes_written() as f64 / 1e9
    }

    /// Compacted gigabytes (the metric of Figure 9D, left).
    pub fn compacted_gb(&self) -> f64 {
        self.stats.bytes_compacted_written as f64 / 1e9
    }
}

fn unique_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let sanitized: String =
        label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
    std::env::temp_dir().join(format!(
        "triad-bench-{sanitized}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs one experiment and returns its metrics.
///
/// The database lives in a fresh temporary directory that is removed afterwards.
pub fn run_experiment(config: &ExperimentConfig) -> triad_common::Result<ExperimentResult> {
    let dir = unique_dir(&config.label);
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Db::open(&dir, config.options.clone())?);

    // Pre-populate so that reads can always be served, as in the paper's setup.
    let seed_generator = WorkloadGenerator::new(config.workload.clone(), 0xfeed);
    for (key, value) in seed_generator.prepopulation(config.prepopulate_fraction) {
        db.put(&key, &value)?;
    }
    db.flush()?;
    db.wait_for_compactions()?;

    let before = db.stats();
    let started = Instant::now();
    let mut handles = Vec::new();
    for thread_id in 0..config.threads {
        let db = Arc::clone(&db);
        let spec = config.workload.clone();
        let ops = config.ops_per_thread;
        handles.push(std::thread::spawn(move || -> triad_common::Result<u64> {
            let mut generator = WorkloadGenerator::new(spec, 1000 + thread_id as u64);
            let mut executed = 0u64;
            for _ in 0..ops {
                match generator.next_op() {
                    Operation::Get { key } => {
                        db.get(&key)?;
                    }
                    Operation::Put { key, value } => {
                        db.put(&key, &value)?;
                    }
                    Operation::Delete { key } => {
                        db.delete(&key)?;
                    }
                }
                executed += 1;
            }
            Ok(executed)
        }));
    }
    let mut total_ops = 0u64;
    for handle in handles {
        total_ops += handle.join().expect("worker thread panicked")?;
    }
    let elapsed = started.elapsed();

    if config.drain_background {
        db.flush()?;
        db.wait_for_compactions()?;
    }
    let stats = db.stats().delta_since(&before);
    let files_per_level = db.files_per_level();
    db.close()?;
    let _ = std::fs::remove_dir_all(&dir);

    let kops = total_ops as f64 / elapsed.as_secs_f64() / 1_000.0;
    Ok(ExperimentResult {
        label: config.label.clone(),
        total_ops,
        elapsed,
        kops,
        stats,
        setup_stats: before,
        files_per_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_core::TriadConfig;
    use triad_workload::{KeyDistribution, OperationMix};

    fn tiny_config(label: &str, options: Options) -> ExperimentConfig {
        let workload = WorkloadSpec::synthetic(
            KeyDistribution::ws1_high_skew(2_000),
            OperationMix::write_intensive(),
        );
        ExperimentConfig::new(label, options, workload).with_threads(2).with_ops_per_thread(2_000)
    }

    #[test]
    fn runner_produces_sane_metrics() {
        let mut options = Options::small_for_tests();
        options.l0_compaction_trigger = 2;
        let result = run_experiment(&tiny_config("runner-sanity", options)).unwrap();
        assert_eq!(result.total_ops, 4_000);
        assert!(result.kops > 0.0);
        assert!(result.stats.write_amplification() >= 1.0);
        assert!(result.elapsed > Duration::ZERO);
        assert!(!result.files_per_level.is_empty());
        assert!(result.background_gb() >= 0.0);
    }

    #[test]
    fn triad_and_baseline_runs_both_complete() {
        let mut baseline = Options::small_for_tests();
        baseline.l0_compaction_trigger = 2;
        let triad = Options {
            l0_compaction_trigger: 2,
            triad: TriadConfig::all_enabled(),
            ..Options::small_for_tests()
        };
        let baseline_result = run_experiment(&tiny_config("runner-baseline", baseline)).unwrap();
        let triad_result = run_experiment(&tiny_config("runner-triad", triad)).unwrap();
        assert!(baseline_result.kops > 0.0);
        assert!(triad_result.kops > 0.0);
        // Under heavy skew TRIAD must not write more background bytes than the
        // baseline over the whole run: TRIAD-DISK can defer setup's L0→L1
        // compaction into the timed phase, after the baseline paid for its own.
        let total = |r: &ExperimentResult| {
            r.setup_stats.background_bytes_written() + r.stats.background_bytes_written()
        };
        assert!(total(&triad_result) <= total(&baseline_result));
    }

    #[test]
    fn scale_helpers() {
        assert_eq!(Scale::Quick.ops(10, 100), 10);
        assert_eq!(Scale::Full.ops(10, 100), 100);
        assert_eq!(Scale::Quick.keys(1, 2), 1);
        assert_eq!(Scale::Full.keys(1, 2), 2);
    }
}
