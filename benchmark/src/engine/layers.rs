//! Layer replays: the workload's put stream fed to one layer at a time
//! (`wal`, `memtable`, `sstable`, `hll`, `common`), outside the engine, so a
//! change to one layer shows in that layer's numbers before it shows end to
//! end. Traced runs only.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use triad_common::types::{InternalKey, ValueKind};
use triad_common::{checksum, LatencyHistogram, Stats};
use triad_hll::{overlap_ratio, HyperLogLog};
use triad_memtable::{separate_keys, HotColdPolicy, LogPosition, Memtable};
use triad_sstable::{ClTableBuilder, Table, TableBuilder, TableBuilderOptions};
use triad_wal::{BatchEncoder, LogReader, LogWriter};

use super::{text, Result};
use crate::gen::{encode_key, fill_value, KEY_LEN, RECORD_LEN, VALUE_LEN};
use crate::summary::median;

/// Per-layer metrics as `(name, value)`; names are listed in `metrics.rs`.
pub type Metrics = Vec<(&'static str, f64)>;

fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Replays `puts` (key indexes, in stream order) through every layer, using
/// `dir` for the files the replays write.
pub fn replay(puts: &[u64], dir: &Path) -> Result<Metrics> {
    std::fs::create_dir_all(dir).map_err(text)?;
    let mut metrics = Metrics::new();
    let records: Vec<([u8; KEY_LEN], [u8; VALUE_LEN])> = puts
        .iter()
        .enumerate()
        .map(|(version, &key)| {
            let mut value = [0u8; VALUE_LEN];
            fill_value(&mut value, key, version as u64);
            (encode_key(key), value)
        })
        .collect();
    let memtable = wal_and_memtable(&records, dir, &mut metrics)?;
    sstable(&memtable, dir, &mut metrics)?;
    hll(&records, &mut metrics)?;
    common(&mut metrics);
    Ok(metrics)
}

/// Appends every record to a commit log the way the committer does (one
/// framed batch, flushed to the OS, per write), reads the log back, and
/// inserts the records into a memtable at their log positions.
fn wal_and_memtable(
    records: &[([u8; KEY_LEN], [u8; VALUE_LEN])],
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<Memtable> {
    const LOG_ID: u64 = 1;
    const SYNCS: usize = 16;
    let count = records.len() as f64;
    let user_bytes = records.len() as u64 * RECORD_LEN;

    let path = triad_wal::log_file_path(dir, LOG_ID);
    let mut writer = LogWriter::create(&path, LOG_ID).map_err(text)?;
    let mut encoder = BatchEncoder::new();
    let mut offsets = Vec::with_capacity(records.len());
    let mut syncs = Vec::with_capacity(SYNCS);
    let mut append_seconds = 0.0;
    for chunk in records.chunks(records.len().div_ceil(SYNCS)) {
        let started = Instant::now();
        for (key, value) in chunk {
            encoder.clear();
            let seqno = offsets.len() as u64 + 1;
            encoder.add_parts(seqno, ValueKind::Put, key, value).map_err(text)?;
            offsets.push(writer.append_batch(&encoder).map_err(text)?);
            writer.flush().map_err(text)?;
        }
        append_seconds += started.elapsed().as_secs_f64();
        let started = Instant::now();
        writer.sync().map_err(text)?;
        syncs.push(started.elapsed());
    }
    let log_bytes = writer.seal().map_err(text)?;
    metrics.push(("wal.append_ns_per_op", append_seconds * 1e9 / count));
    metrics.push(("wal.bytes_per_user_byte", log_bytes as f64 / user_bytes as f64));
    metrics.push(("wal.sync_us_p50", median(syncs).as_secs_f64() * 1e6));

    let started = Instant::now();
    let (recovered, _tail) =
        LogReader::open(&path).and_then(|reader| reader.recover()).map_err(text)?;
    let recover_seconds = started.elapsed().as_secs_f64();
    if recovered.len() != records.len() {
        return Err(format!("wal replay recovered {} of {}", recovered.len(), records.len()));
    }
    metrics.push(("wal.recover_mb_s", mb_per_s(log_bytes, recover_seconds)));

    let memtable = Memtable::new();
    let started = Instant::now();
    for (((key, value), &offset), seqno) in records.iter().zip(&offsets).zip(1u64..) {
        let position = LogPosition { log_id: LOG_ID, offset };
        memtable.insert(key, value, seqno, ValueKind::Put, position);
    }
    metrics.push(("memtable.insert_ns_per_op", started.elapsed().as_secs_f64() * 1e9 / count));
    let started = Instant::now();
    let found = records.iter().filter(|(key, _)| memtable.get(key, u64::MAX).is_some()).count();
    metrics.push(("memtable.get_ns_per_op", started.elapsed().as_secs_f64() * 1e9 / count));
    if found != records.len() {
        return Err(format!("memtable replay found {found} of {}", records.len()));
    }

    let entries = memtable.snapshot_entries();
    let updates: u64 = entries.iter().map(|(_, e)| u64::from(e.updates)).sum();
    let started = Instant::now();
    let split = separate_keys(entries, HotColdPolicy::default());
    metrics.push(("memtable.hotcold_split_ms", started.elapsed().as_secs_f64() * 1e3));
    let cold_updates: u64 = split.cold.iter().map(|(_, e)| u64::from(e.updates)).sum();
    // Share of the replayed puts that landed on keys TRIAD-MEM would keep.
    metrics.push(("memtable.hot_share", 1.0 - cold_updates as f64 / updates as f64));
    Ok(memtable)
}

/// Flushes the memtable both ways (a block table, and a CL index over the
/// log), then reads the block table back.
fn sstable(memtable: &Memtable, dir: &Path, metrics: &mut Metrics) -> Result<()> {
    let entries = memtable.snapshot_entries();
    let user_bytes = entries.len() as u64 * RECORD_LEN;
    let options = TableBuilderOptions::default();

    let path = triad_sstable::sst_file_path(dir, 1);
    let started = Instant::now();
    let mut builder = TableBuilder::create(&path, options).map_err(text)?;
    for (key, entry) in &entries {
        let key = InternalKey::new(key.clone(), entry.seqno, entry.kind);
        builder.add(&key, &entry.value).map_err(text)?;
    }
    let (_, file_bytes) = builder.finish().map_err(text)?;
    metrics.push(("sstable.build_mb_s", mb_per_s(user_bytes, started.elapsed().as_secs_f64())));
    metrics.push(("sstable.bytes_per_user_byte", file_bytes as f64 / user_bytes as f64));

    let started = Instant::now();
    let mut builder = ClTableBuilder::create(triad_sstable::cl_index_file_path(dir, 2), options, 1)
        .map_err(text)?;
    for (key, entry) in &entries {
        let key = InternalKey::new(key.clone(), entry.seqno, entry.kind);
        builder.add(&key, entry.log_position.offset, entry.value.len() as u64).map_err(text)?;
    }
    builder.finish().map_err(text)?;
    metrics.push(("sstable.cl_build_ms", started.elapsed().as_secs_f64() * 1e3));

    let stats = Arc::new(Stats::new());
    let table = Arc::new(Table::open(&path, Some(Arc::clone(&stats))).map_err(text)?);
    let mut present = Vec::with_capacity(entries.len());
    for (key, _) in &entries {
        let started = Instant::now();
        let hit = table.get_entry(key, u64::MAX).map_err(text)?;
        present.push(started.elapsed());
        if hit.is_none() {
            return Err("sstable replay lost a key".into());
        }
    }
    metrics.push(("sstable.get_present_us_p50", median(present).as_secs_f64() * 1e6));

    // Keys inside the table's range that it does not hold: the ones a bloom
    // filter exists to turn away.
    let held: HashSet<&[u8]> = entries.iter().map(|(key, _)| key.as_slice()).collect();
    let index = |key: &[u8]| u64::from_be_bytes(key.try_into().expect("8-byte keys"));
    let (low, high) = (index(&entries[0].0), index(&entries[entries.len() - 1].0));
    let absent: Vec<[u8; KEY_LEN]> = (low..high)
        .map(encode_key)
        .filter(|key| !held.contains(key.as_slice()))
        .take(entries.len())
        .collect();
    if absent.is_empty() {
        metrics.push(("sstable.get_absent_ns_p50", 0.0));
        metrics.push(("sstable.bloom_fp_rate", 0.0));
    } else {
        let negatives_before = stats.snapshot().bloom_negatives;
        let mut times = Vec::with_capacity(absent.len());
        for key in &absent {
            let started = Instant::now();
            let hit = table.get_entry(key, u64::MAX).map_err(text)?;
            times.push(started.elapsed());
            if hit.is_some() {
                return Err("sstable replay found a key it never stored".into());
            }
        }
        let negatives = stats.snapshot().bloom_negatives - negatives_before;
        metrics.push(("sstable.get_absent_ns_p50", median(times).as_secs_f64() * 1e9));
        metrics.push(("sstable.bloom_fp_rate", 1.0 - negatives as f64 / absent.len() as f64));
    }

    let started = Instant::now();
    let mut read = 0;
    for entry in table.iter_entries() {
        let entry = entry.map_err(text)?;
        read += (entry.key.user_key.len() + entry.value.len()) as u64;
    }
    metrics.push(("sstable.iter_mb_s", mb_per_s(read, started.elapsed().as_secs_f64())));
    if read != user_bytes {
        return Err(format!("sstable replay iterated {read} of {user_bytes} bytes"));
    }
    Ok(())
}

/// One sketch per quarter of the stream, as flushes would build them, then
/// the overlap estimate compaction gating asks for.
fn hll(records: &[([u8; KEY_LEN], [u8; VALUE_LEN])], metrics: &mut Metrics) -> Result<()> {
    let distinct = |part: &[([u8; KEY_LEN], [u8; VALUE_LEN])]| {
        part.iter().map(|(key, _)| key).collect::<HashSet<_>>().len()
    };
    let quarters: Vec<_> = records.chunks(records.len().div_ceil(4)).collect();
    let started = Instant::now();
    let sketches: Vec<HyperLogLog> = quarters
        .iter()
        .map(|quarter| {
            let mut sketch = HyperLogLog::new();
            quarter.iter().for_each(|(key, _)| sketch.add(key));
            sketch
        })
        .collect();
    let add_seconds = started.elapsed().as_secs_f64();
    metrics.push(("hll.add_ns_per_key", add_seconds * 1e9 / records.len() as f64));

    let key_counts: Vec<u64> = quarters.iter().map(|quarter| distinct(quarter) as u64).collect();
    let started = Instant::now();
    let estimate = overlap_ratio(sketches.iter().zip(key_counts.iter().copied())).map_err(text)?;
    metrics.push(("hll.overlap_us", started.elapsed().as_secs_f64() * 1e6));
    let truth = distinct(records) as f64;
    metrics.push(("hll.estimate_err", (estimate.estimated_unique - truth).abs() / truth));
    Ok(())
}

/// The two `common` primitives on every hot path: block checksums and
/// histogram recording.
fn common(metrics: &mut Metrics) {
    const BLOCK: usize = 4096;
    const BLOCKS: usize = 16_384;
    let block: Vec<u8> = (0..BLOCK).map(|i| (i * 31) as u8).collect();
    let started = Instant::now();
    let mut folded = 0u32;
    for round in 0..BLOCKS {
        folded ^= checksum::extend(round as u32, std::hint::black_box(&block));
    }
    std::hint::black_box(folded);
    metrics.push((
        "common.checksum_mb_s",
        mb_per_s((BLOCK * BLOCKS) as u64, started.elapsed().as_secs_f64()),
    ));

    const RECORDS: u64 = 1_000_000;
    let histogram = LatencyHistogram::new();
    let started = Instant::now();
    for value in 0..RECORDS {
        histogram.record(std::hint::black_box(value * 37 % 100_000));
    }
    std::hint::black_box(histogram.count());
    metrics.push(("common.hist_record_ns", started.elapsed().as_secs_f64() * 1e9 / RECORDS as f64));
}
