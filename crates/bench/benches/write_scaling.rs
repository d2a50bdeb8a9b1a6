//! Criterion micro-benchmarks for the front-door write path: the commit
//! pipeline at its default group caps vs ungrouped (`max_group_batches = 1`),
//! single-threaded and under a small concurrent burst. The full sweep with
//! fsyncs lives in the `fig_write_scaling` binary; these benches track
//! per-write overhead.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use triad_core::{Db, Options};

/// `(label, group_commit.max_group_batches override)`: the default caps and the
/// in-run baseline where every batch is its own commit group.
const MODES: [(&str, Option<usize>); 2] = [("pipelined", None), ("ungrouped", Some(1))];

fn bench_db(name: &str, max_group_batches: Option<usize>) -> (Arc<Db>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("triad-bench-ws-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = Options {
        memtable_size: 256 * 1024 * 1024,
        max_log_size: 512 * 1024 * 1024,
        ..Options::default()
    };
    if let Some(cap) = max_group_batches {
        options.group_commit.max_group_batches = cap;
    }
    (Arc::new(Db::open(&dir, options).unwrap()), dir)
}

fn bench_single_thread(c: &mut Criterion) {
    for (label, max_group_batches) in MODES {
        let (db, dir) = bench_db(&format!("single-{label}"), max_group_batches);
        let value = vec![0x5au8; 200];
        let mut i = 0u64;
        c.bench_function(&format!("write/{label}_1_thread_put"), |b| {
            b.iter(|| {
                i += 1;
                let key = format!("key-{:06}", i % 4_096);
                db.put(black_box(key.as_bytes()), &value).unwrap()
            })
        });
        db.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn bench_concurrent_burst(c: &mut Criterion) {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: u64 = 64;
    for (label, max_group_batches) in MODES {
        let (db, dir) = bench_db(&format!("burst-{label}"), max_group_batches);
        let mut round = 0u64;
        c.bench_function(&format!("write/{label}_4_thread_burst_256_puts"), |b| {
            b.iter(|| {
                round += 1;
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let db = Arc::clone(&db);
                        let base = round;
                        std::thread::spawn(move || {
                            let value = vec![0x5au8; 200];
                            for i in 0..OPS_PER_THREAD {
                                let key = format!("key-{t}-{:06}", (base + i) % 4_096);
                                db.put(key.as_bytes(), &value).unwrap();
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().unwrap();
                }
            })
        });
        db.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(write_scaling, bench_single_thread, bench_concurrent_burst);
criterion_main!(write_scaling);
