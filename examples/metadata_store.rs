//! A cluster-metadata store under a skewed update stream.
//!
//! This mirrors the scenario that motivates TRIAD: a metadata map (as in the
//! Nutanix production workloads of §5.2) where a small set of hot objects is
//! rewritten constantly while most objects change rarely. The example drives both
//! the baseline configuration and full TRIAD with the same workload and prints the
//! background-I/O metrics the paper reports.
//!
//! Run with:
//! ```text
//! cargo run --release --example metadata_store
//! ```

use triad::workload::{KeyDistribution, Operation, OperationMix, WorkloadGenerator, WorkloadSpec};
use triad::{Db, Options, TriadConfig};

const NUM_OBJECTS: u64 = 50_000;
const NUM_OPERATIONS: u64 = 200_000;

fn run(label: &str, triad: TriadConfig) -> triad::Result<()> {
    let dir = std::env::temp_dir().join(format!("triad-metadata-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = Options {
        memtable_size: 1024 * 1024,
        max_log_size: 2 * 1024 * 1024,
        triad,
        ..Options::default()
    };
    let db = Db::open(&dir, options)?;

    // 1% of the metadata objects receive 99% of the updates (the paper's WS1 profile),
    // with a 10%-read / 90%-write mix typical of metadata bookkeeping.
    let spec = WorkloadSpec::synthetic(
        KeyDistribution::ws1_high_skew(NUM_OBJECTS),
        OperationMix::write_intensive(),
    );
    let mut generator = WorkloadGenerator::new(spec, 7);

    let started = std::time::Instant::now();
    for _ in 0..NUM_OPERATIONS {
        match generator.next_op() {
            Operation::Put { key, value } => db.put(&key, &value)?,
            Operation::Get { key } => {
                db.get(&key)?;
            }
            Operation::Delete { key } => db.delete(&key)?,
        }
    }
    let elapsed = started.elapsed();
    db.flush()?;
    db.wait_for_compactions()?;

    let stats = db.stats();
    println!("--- {label} ---");
    println!(
        "  throughput          : {:.1} KOPS",
        NUM_OPERATIONS as f64 / elapsed.as_secs_f64() / 1e3
    );
    println!("  bytes flushed       : {:>12}", stats.bytes_flushed);
    println!("  bytes compacted     : {:>12}", stats.bytes_compacted_written);
    println!("  write amplification : {:.2}", stats.write_amplification());
    println!("  flushes / skipped   : {} / {}", stats.flush_count, stats.small_flush_skips);
    println!("  compactions / defer : {} / {}", stats.compaction_count, stats.compactions_deferred);
    println!("  hot entries kept    : {}", stats.hot_entries_retained);
    println!("  files per level     : {:?}", db.files_per_level());

    db.close()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> triad::Result<()> {
    println!(
        "Skewed metadata workload: {NUM_OBJECTS} objects, {NUM_OPERATIONS} operations, 1%/99% skew\n"
    );
    run("RocksDB-like baseline", TriadConfig::baseline())?;
    run("TRIAD (all techniques)", TriadConfig::all_enabled())?;
    println!("\nTRIAD should flush and compact far fewer bytes for the same logical work.");
    Ok(())
}
