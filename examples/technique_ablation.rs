//! Ablation of the three TRIAD techniques on one workload.
//!
//! Runs the same skewed, write-heavy workload against five configurations —
//! baseline, each technique alone, and full TRIAD — and prints a side-by-side table
//! of the I/O metrics each configuration produces. This is a miniature, single-run
//! version of Figures 10 and 11; the full sweeps live in `crates/bench`.
//!
//! Run with:
//! ```text
//! cargo run --release --example technique_ablation
//! ```

use triad::workload::{KeyDistribution, Operation, OperationMix, WorkloadGenerator, WorkloadSpec};
use triad::{Db, Options, StatSnapshot, TriadConfig};

const NUM_KEYS: u64 = 20_000;
const NUM_OPS: u64 = 120_000;

fn run_one(triad: TriadConfig) -> triad::Result<(String, StatSnapshot, f64)> {
    let label = triad.label();
    let dir = std::env::temp_dir().join(format!("triad-ablation-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = Options {
        memtable_size: 512 * 1024,
        max_log_size: 1024 * 1024,
        l1_target_size: 4 * 1024 * 1024,
        target_file_size: 1024 * 1024,
        triad,
        ..Options::default()
    };
    let db = Db::open(&dir, options)?;

    let spec = WorkloadSpec::synthetic(
        KeyDistribution::ws2_medium_skew(NUM_KEYS),
        OperationMix::write_intensive(),
    );
    let mut generator = WorkloadGenerator::new(spec, 11);
    let started = std::time::Instant::now();
    for _ in 0..NUM_OPS {
        match generator.next_op() {
            Operation::Put { key, value } => db.put(&key, &value)?,
            Operation::Get { key } => {
                db.get(&key)?;
            }
            Operation::Delete { key } => db.delete(&key)?,
        }
    }
    let kops = NUM_OPS as f64 / started.elapsed().as_secs_f64() / 1e3;
    db.flush()?;
    db.wait_for_compactions()?;
    let stats = db.stats();
    db.close()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok((label, stats, kops))
}

fn main() -> triad::Result<()> {
    println!(
        "Ablation on a 20%/80% skewed, 90%-write workload ({NUM_OPS} ops over {NUM_KEYS} keys)\n"
    );
    println!(
        "{:<12} {:>10} {:>14} {:>16} {:>8} {:>12} {:>12}",
        "config", "KOPS", "flushed bytes", "compacted bytes", "WA", "flushes", "compactions"
    );
    let mut background = Vec::new();
    for triad in [
        TriadConfig::baseline(),
        TriadConfig::mem_only(),
        TriadConfig::disk_only(),
        TriadConfig::log_only(),
        TriadConfig::all_enabled(),
    ] {
        let (label, stats, kops) = run_one(triad)?;
        println!(
            "{:<12} {:>10.1} {:>14} {:>16} {:>8.2} {:>12} {:>12}",
            label,
            kops,
            stats.bytes_flushed,
            stats.bytes_compacted_written,
            stats.write_amplification(),
            stats.flush_count,
            stats.compaction_count
        );
        background.push((label, stats.background_bytes_written()));
    }
    // Computed from this run, so the summary cannot drift from the table.
    let baseline = background[0].1.max(1) as f64;
    let relative: Vec<String> = background[1..]
        .iter()
        .map(|(label, bytes)| format!("{label} {:.2}x", *bytes as f64 / baseline))
        .collect();
    println!("\nBackground bytes (flushed + compacted) vs the baseline: {}", relative.join(", "));
    Ok(())
}
