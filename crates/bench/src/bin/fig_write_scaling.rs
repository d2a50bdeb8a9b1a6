//! Sweeps writer threads 1→16 under NoSync and SyncEveryWrite through the commit
//! pipeline — at one and four shards, plus an `ungrouped` (`max_group_batches =
//! 1`) in-run baseline row at one shard — and emits the perf-trajectory file
//! `BENCH_write_scaling.json` with the baseline-free acceptance gate.
//!
//! Flags: `--full` for paper-scale op counts (default is a quick CI-scale run;
//! `--quick` is accepted and is the default), `--out PATH` to redirect the JSON.
//!
//! The binary validates its own output — sweep rows present and fed, the gate
//! (< 1 fsync per acknowledged batch, overlapped syncs observed, every batch
//! acknowledged through a commit group at 8 synced writers) and every JSON
//! section — and exits non-zero on violations, which is what CI relies on.

use std::path::PathBuf;

use triad_bench::experiments::write_scaling;
use triad_bench::runner::Scale;

fn out_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--out" {
            return PathBuf::from(&pair[1]);
        }
    }
    PathBuf::from("BENCH_write_scaling.json")
}

fn main() {
    let scale = Scale::from_args();
    let (_table, points, gate, shard_scaling) =
        write_scaling::run(scale).expect("write-scaling sweep failed");
    let path = out_path();
    let json = write_scaling::to_json(scale, &points, &gate, &shard_scaling);
    std::fs::write(&path, &json).expect("writing BENCH_write_scaling.json failed");
    println!("\nwrote {}", path.display());
    if !shard_scaling.holds() {
        // A throughput ratio against an in-run baseline: too noisy at quick
        // scale to fail on, so it is recorded in the JSON and only warned about.
        eprintln!(
            "warning: shard-scaling gate not met ({} shards at {} writers: {:.2}x vs 1 shard)",
            shard_scaling.shards, shard_scaling.threads, shard_scaling.speedup
        );
    }

    let errors = write_scaling::validate(&points, &gate, &json);
    if !errors.is_empty() {
        for error in &errors {
            eprintln!("write-scaling validation failed: {error}");
        }
        std::process::exit(1);
    }
}
