//! Criterion micro-benchmarks for the hot paths of the engine's substrates.

// The benches delete their own scratch files, which no database owns.
#![allow(clippy::disallowed_methods)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use triad_common::checksum;
use triad_common::types::{InternalKey, ValueKind};
use triad_hll::{hash64, overlap_ratio, HyperLogLog};
use triad_memtable::{LogPosition, Memtable};
use triad_sstable::{BloomFilter, Table, TableBuilder, TableBuilderOptions};
use triad_wal::{LogRecord, LogWriter};

fn bench_checksum(c: &mut Criterion) {
    // One data block verified on a block-cache miss, and one WAL record framed
    // per put (the sizes the engine checksums most often).
    let block: Vec<u8> = (0..4096usize).map(|i| (i * 31) as u8).collect();
    c.bench_function("checksum/crc32c_4KiB", |b| {
        b.iter(|| black_box(checksum::crc32c(black_box(&block))))
    });
    c.bench_function("checksum/crc32c_263B", |b| {
        b.iter(|| black_box(checksum::crc32c(black_box(&block[..263]))))
    });
}

fn bench_hash_and_hll(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..10_000u64).map(|i| format!("key-{i:08}").into_bytes()).collect();
    c.bench_function("hll/hash64", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(hash64(&keys[i]))
        })
    });
    c.bench_function("hll/add", |b| {
        let mut hll = HyperLogLog::new();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            hll.add(&keys[i]);
        })
    });
    c.bench_function("hll/estimate_4096_registers", |b| {
        let mut hll = HyperLogLog::new();
        for key in &keys {
            hll.add(key);
        }
        b.iter(|| black_box(hll.estimate()))
    });
    c.bench_function("hll/overlap_ratio_6_files", |b| {
        // Six L0 files, the TRIAD-DISK limit, each with 5k keys and 50% overlap.
        let sketches: Vec<(HyperLogLog, u64)> = (0..6u64)
            .map(|f| {
                let mut hll = HyperLogLog::new();
                for i in 0..5_000u64 {
                    hll.add(&(f * 2_500 + i).to_le_bytes());
                }
                (hll, 5_000)
            })
            .collect();
        b.iter(|| {
            let refs: Vec<(&HyperLogLog, u64)> = sketches.iter().map(|(h, n)| (h, *n)).collect();
            black_box(overlap_ratio(refs).unwrap().ratio)
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..20_000u64).map(|i| format!("key-{i:08}").into_bytes()).collect();
    let filter = BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10);
    c.bench_function("bloom/build_20k_keys", |b| {
        b.iter(|| black_box(BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10)))
    });
    c.bench_function("bloom/may_contain", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(filter.may_contain(&keys[i]))
        })
    });
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable/insert_255B_values", |b| {
        let memtable = Memtable::new();
        let value = vec![7u8; 255];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("key-{:08}", i % 100_000);
            memtable.insert(key.as_bytes(), &value, i, ValueKind::Put, LogPosition::default());
        })
    });
    c.bench_function("memtable/get_hit", |b| {
        let memtable = Memtable::new();
        let value = vec![7u8; 255];
        for i in 0..50_000u64 {
            let key = format!("key-{i:08}");
            memtable.insert(key.as_bytes(), &value, i + 1, ValueKind::Put, LogPosition::default());
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("key-{:08}", i % 50_000);
            black_box(memtable.get(key.as_bytes(), u64::MAX))
        })
    });
}

fn bench_wal(c: &mut Criterion) {
    c.bench_function("wal/append_263B_records", |b| {
        let dir = std::env::temp_dir().join(format!("triad-bench-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.log");
        let _ = std::fs::remove_file(&path);
        let mut writer = LogWriter::create(&path, 1).unwrap();
        let value = vec![9u8; 255];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let record =
                LogRecord::put(i, format!("key-{:08}", i % 10_000).into_bytes(), value.clone());
            black_box(writer.append(&record).unwrap())
        });
        let _ = std::fs::remove_file(&path);
    });
}

fn bench_sstable(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("triad-bench-sst-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.sst");
    let _ = std::fs::remove_file(&path);
    let mut builder = TableBuilder::create(&path, TableBuilderOptions::default()).unwrap();
    for i in 0..50_000u64 {
        let key = InternalKey::new(format!("key-{i:08}").into_bytes(), i + 1, ValueKind::Put);
        builder.add(&key, &vec![5u8; 255]).unwrap();
    }
    builder.finish().unwrap();
    let table = Table::open(&path, None).unwrap();
    c.bench_function("sstable/point_get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("key-{:08}", (i * 7919) % 50_000);
            black_box(table.get_entry(key.as_bytes(), u64::MAX).unwrap())
        })
    });
    c.bench_function("sstable/point_get_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("absent-{i:08}");
            black_box(table.get_entry(key.as_bytes(), u64::MAX).unwrap())
        })
    });
}

/// Shared Criterion configuration: small samples so `cargo bench` stays quick.
fn configure() -> Criterion {
    Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_checksum, bench_hash_and_hll, bench_bloom, bench_memtable, bench_wal, bench_sstable
}
criterion_main!(benches);
