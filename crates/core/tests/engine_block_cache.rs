//! End-to-end behaviour of the shared block cache: correctness across flush,
//! compaction and GC, counter plumbing, and byte-identical reads with the
//! cache disabled.

mod common;

use common::{key_for, open_small, value_for};
use triad_core::{Db, TriadConfig};

/// Reads stay correct — and serve the newest version — while tables come and
/// go underneath the cache: flushes create them, compactions replace them and
/// GC purges their blocks. A stale cached block surviving its table would
/// surface here as an old value.
#[test]
fn read_your_writes_survives_flush_compaction_and_gc() {
    let (db, dir) = open_small("block-cache-ryw", |options| {
        common::single_shard(options);
        options.block_cache = 1 << 20;
        options.l0_compaction_trigger = 2;
    });
    for version in 1..=3u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
        db.flush().unwrap();
        // Read between rounds so the cache holds blocks of tables that the
        // next round's flush + compaction will retire.
        for i in (0..400u64).step_by(7) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, version)));
        }
    }
    db.wait_for_compactions().unwrap();
    db.collect_garbage();
    // Twice: the second pass reads what the first one cached.
    for _ in 0..2 {
        for i in 0..400u64 {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)), "key {i} after GC");
        }
    }
    common::assert_disk_matches_live_set(&db, &dir);
    let stats = db.stats();
    assert!(stats.block_cache_misses > 0, "table reads must have probed the cache");
    assert!(stats.block_cache_hits > 0, "repeated reads must have hit the cache");
    db.close().unwrap();
}

/// Compaction reads its inputs once, CRC-verified, around the shared block
/// cache: a compaction with no reads around it moves none of the cache's
/// counters, and reads afterwards are still correct. With TRIAD-LOG on, the
/// inputs are CL-SSTables, whose index and backing log stay out of the cache
/// too.
#[test]
fn compaction_does_not_fill_the_block_cache() {
    for (name, triad) in [("baseline", TriadConfig::baseline()), ("log", TriadConfig::log_only())] {
        let (db, _dir) = open_small("block-cache-compaction", |options| {
            common::single_shard(options);
            options.block_cache = 1 << 20;
            options.l0_compaction_trigger = 2;
            options.triad = triad;
        });
        for version in 1..=3u64 {
            for i in 0..400u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
            db.flush().unwrap();
        }
        let before = db.stats();
        db.wait_for_compactions().unwrap();
        let after = db.stats();
        assert!(
            after.compaction_count >= 1,
            "{name}: the flushes must have triggered a compaction"
        );
        // Compactions may have started before `before`, so check the counters
        // from open: flushes read no data block either.
        for (counter, at_wait, at_end) in [
            ("inserted bytes", before.block_cache_inserted_bytes, after.block_cache_inserted_bytes),
            ("hits", before.block_cache_hits, after.block_cache_hits),
            ("misses", before.block_cache_misses, after.block_cache_misses),
        ] {
            assert_eq!((at_wait, at_end), (0, 0), "{name}: compaction moved the cache's {counter}");
        }
        for i in 0..400u64 {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)), "{name}: key {i}");
        }
        assert!(db.stats().block_cache_misses > 0, "{name}: reads afterwards go through the cache");
        db.close().unwrap();
    }
}

/// A corrupt block in a compaction input is caught by compaction's own
/// CRC-checked read, even while a scan has that block cached: the compaction
/// fails, the version keeps its inputs, no output is left on disk, and every
/// other block still reads back.
#[test]
fn a_corrupt_compaction_input_is_caught_on_the_uncached_path() {
    let (db, dir) = open_small("block-cache-corrupt-input", |options| {
        common::single_shard(options);
        options.block_cache = 1 << 20;
        options.l0_compaction_trigger = 2;
    });
    for i in 0..150u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let live_tables = || -> Vec<String> {
        db.expected_live_files().into_iter().filter(|name| name.ends_with(".sst")).collect()
    };
    let first = live_tables();
    assert_eq!(first.len(), 1, "one flushed table: {first:?}");
    // Cache the block about to be corrupted, with a scan (a get would cache
    // only its row): only an uncached read sees the damage.
    let scanned: Vec<_> =
        db.scan_range(Some(&key_for(140)), None).unwrap().map(|entry| entry.unwrap()).collect();
    assert_eq!(scanned.last(), Some(&(key_for(149), value_for(149, 1))));
    // Flip a byte of the last data block, which ends where the index begins.
    let path = dir.join(&first[0]);
    let index =
        triad_sstable::format::BlockFileReader::open(&path).unwrap().read_footer().unwrap().index;
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[index.offset as usize - 10] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // A second table of other keys reaches the trigger; the merge reads the
    // first table's healthy blocks, writes outputs, then hits the corrupt one.
    for i in 1_000..1_150u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let inputs = live_tables();
    assert_eq!(inputs.len(), 2, "two flushed tables: {inputs:?}");
    let error = db.wait_for_compactions().unwrap_err();
    assert!(error.to_string().contains("checksum mismatch"), "{error}");
    let stats = db.stats();
    assert!(stats.background_errors >= 1);
    assert_eq!(stats.compaction_count, 0);
    assert_eq!(live_tables(), inputs, "the version keeps its inputs");
    // No output of the failed attempts is left on disk.
    common::assert_disk_matches_live_set(&db, &dir);
    for i in (0..100u64).chain(1_000..1_150) {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i}");
    }
    db.close().unwrap();
}

/// A hot key re-read from disk many times must be served almost entirely from
/// the cache: one miss per block, hits for everything after.
#[test]
fn repeated_point_reads_are_cache_hits() {
    let (db, _dir) = open_small("block-cache-hits", |options| {
        common::single_shard(options);
        options.block_cache = 1 << 20;
    });
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let before = db.stats();
    for _ in 0..50 {
        assert_eq!(db.get(key_for(123)).unwrap(), Some(value_for(123, 1)));
    }
    let delta = db.stats().delta_since(&before);
    assert!(delta.block_cache_hits >= 49, "hits: {}", delta.block_cache_hits);
    assert!(delta.block_cache_misses <= 1, "misses: {}", delta.block_cache_misses);
    assert!(delta.block_cache_hit_rate() > 0.9, "rate: {}", delta.block_cache_hit_rate());
    db.close().unwrap();
}

/// `block_cache: 0` disables the cache entirely; every read must still return
/// byte-identical values to a cache-enabled open of the same directory, and
/// the cache counters must stay at zero.
#[test]
fn disabled_cache_reads_are_byte_identical_to_enabled() {
    let (db, dir) = open_small("block-cache-disabled", |options| {
        common::single_shard(options);
        options.block_cache = 0;
    });
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let mut disabled_reads = Vec::new();
    for i in 0..300u64 {
        disabled_reads.push(db.get(key_for(i)).unwrap());
    }
    let stats = db.stats();
    assert_eq!(stats.block_cache_hits, 0, "disabled cache must never count a hit");
    assert_eq!(stats.block_cache_misses, 0, "disabled cache must never count a miss");
    db.close().unwrap();

    let mut options = triad_core::Options::small_for_tests();
    options.block_cache = 1 << 20;
    let db = triad_core::Db::open(&dir, options).unwrap();
    for (i, expected) in disabled_reads.iter().enumerate() {
        let got = db.get(key_for(i as u64)).unwrap();
        assert_eq!(&got, expected, "key {i}: cached read differs from uncached");
    }
    assert!(db.stats().block_cache_misses > 0, "enabled cache must have been probed");
    db.close().unwrap();
}

/// Scans stream through the cache-aware iterator path; a full scan after
/// flush returns every key in order regardless of cache size (including the
/// oversized-block / tiny-budget edge where nothing fits).
#[test]
fn scans_are_correct_with_tiny_and_disabled_caches() {
    for (name, budget) in [("tiny", 512usize), ("off", 0)] {
        let (db, _dir) = open_small(&format!("block-cache-scan-{name}"), |options| {
            common::single_shard(options);
            options.block_cache = budget;
        });
        for i in 0..250u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        let mut iter = db.scan_range(None, None).unwrap();
        let mut seen = 0u64;
        while let Some(entry) = iter.next().transpose().unwrap() {
            assert_eq!(entry.0, key_for(seen), "scan order with budget {budget}");
            seen += 1;
        }
        assert_eq!(seen, 250, "scan must visit every key with budget {budget}");
        db.close().unwrap();
    }
}

/// A scan of CL-SSTables reads resolved blocks, each index block with its
/// values filled in from the commit log, through the block cache: a repeated
/// scan is served from the cache, and scans return the same entries with a
/// cache that holds them all, one too small to hold a block, and none.
#[test]
fn cl_scans_are_served_from_resolved_blocks() {
    for (name, budget) in [("cached", 1 << 20), ("tiny", 512), ("off", 0)] {
        let (db, _dir) = open_small(&format!("block-cache-cl-scan-{name}"), |options| {
            options.triad = TriadConfig::log_only();
            options.block_cache = budget;
            options.l0_compaction_trigger = 100;
        });
        for i in 0..600u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        assert!(db.files_per_level()[0] > 0, "{name}: the flush wrote CL-SSTables");
        let scan = || -> Vec<(Vec<u8>, Vec<u8>)> {
            let iter = db.scan_range(Some(&key_for(150)), None).unwrap();
            iter.take(100).map(|entry| entry.unwrap()).collect()
        };
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            (150..250).map(|i| (key_for(i), value_for(i, 1))).collect();
        assert_eq!(scan(), expected, "{name}");
        let misses = db.stats().block_cache_misses;
        assert_eq!(scan(), expected, "{name}");
        if name == "cached" {
            assert!(misses > 0, "the first scan loaded resolved blocks");
            assert_eq!(db.stats().block_cache_misses, misses, "the second scan hit every block");
        }
        let all: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|entry| entry.unwrap()).collect();
        assert_eq!(all.len(), 600, "{name}");
        assert!(all.iter().enumerate().all(|(i, entry)| entry.0 == key_for(i as u64)));
        db.close().unwrap();
    }
}

/// Scanners that miss the same cold resolved blocks at once each build them
/// and insert them; every one still reads the model's entries and values.
#[test]
fn concurrent_scans_of_cold_resolved_blocks_see_the_model() {
    let (db, _dir) = open_small("block-cache-cold-cl-scans", |options| {
        options.triad = TriadConfig::log_only();
        options.block_cache = 1 << 20;
        options.l0_compaction_trigger = 100;
    });
    let mut model = std::collections::BTreeMap::new();
    for i in 0..600u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
        model.insert(key_for(i), value_for(i, 1));
    }
    for i in (0..600u64).step_by(3) {
        db.put(key_for(i), value_for(i, 2)).unwrap();
        model.insert(key_for(i), value_for(i, 2));
    }
    for i in (0..600u64).step_by(7) {
        db.delete(key_for(i)).unwrap();
        model.remove(&key_for(i));
    }
    db.flush().unwrap();
    assert!(db.files_per_level()[0] > 0, "the flush wrote CL-SSTables");
    let before = db.stats();
    assert_eq!(before.block_cache_hits + before.block_cache_misses, 0, "no block is cached yet");
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.range(key_for(100)..).map(|(key, value)| (key.clone(), value.clone())).collect();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                barrier.wait();
                let iter = db.scan_range(Some(&key_for(100)), None).unwrap();
                let seen: Vec<(Vec<u8>, Vec<u8>)> = iter.map(|entry| entry.unwrap()).collect();
                assert_eq!(seen, expected);
            });
        }
    });
    assert!(db.stats().block_cache_misses > 0, "the scans loaded resolved blocks");
    db.close().unwrap();
}

/// Reopens `db` so its table cache starts empty.
fn reopen(db: Db, dir: &std::path::Path) -> Db {
    let options = db.options().clone();
    db.close().unwrap();
    drop(db);
    Db::open(dir, options).unwrap()
}

/// How many table handles the scans since `before` asked the table cache for.
fn tables_touched(db: &Db, before: &triad_common::StatSnapshot) -> u64 {
    let after = db.stats();
    after.table_cache_hits + after.table_cache_misses
        - before.table_cache_hits
        - before.table_cache_misses
}

/// A scan never opens a file wholly outside its `[start, end)` range.
#[test]
fn a_scan_opens_only_the_files_its_range_overlaps() {
    let (db, dir) = open_small("block-cache-prune-l0", |options| {
        common::single_shard(options);
        options.l0_compaction_trigger = 100;
    });
    for range in [0..100u64, 100..200] {
        for i in range {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.files_per_level()[0], 2, "two disjoint L0 tables");
    let db = reopen(db, &dir);

    let before = db.stats();
    let scanned: Vec<Vec<u8>> =
        db.scan_range(Some(&key_for(150)), None).unwrap().map(|r| r.unwrap().0).collect();
    assert_eq!(scanned, (150..200).map(key_for).collect::<Vec<_>>());
    assert_eq!(db.stats().table_cache_misses - before.table_cache_misses, 1);
    assert_eq!(tables_touched(&db, &before), 1, "the table below the start is never opened");

    let before = db.stats();
    let scanned: Vec<Vec<u8>> = db
        .scan_range(Some(&key_for(10)), Some(&key_for(20)))
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(scanned, (10..20).map(key_for).collect::<Vec<_>>());
    assert_eq!(tables_touched(&db, &before), 1, "the table above the end is never opened");
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A level below L0 is one concatenating source: a short scan opens the file
/// holding its start key and at most the one after it, and every start —
/// on a key, between keys, on a file boundary — lands where it should.
#[test]
fn a_short_scan_opens_at_most_two_files_of_a_level() {
    const KEYS: u64 = 1_000;
    let (db, dir) = open_small("block-cache-prune-level", |options| {
        common::single_shard(options);
        options.l0_compaction_trigger = 1;
        options.target_file_size = 4 * 1024;
        // Keep every file on L1, so each file a scan touches is one of L1's.
        options.l1_target_size = 64 << 20;
    });
    // Scattered, so every flushed file overlaps what L1 already holds and is
    // rewritten into `target_file_size` tables. In key order each file
    // overlaps nothing below, and whether it moves to L1 whole would depend
    // on how many files L0 holds when the compaction is picked.
    for i in (0..KEYS).map(|i| i * 7 % KEYS) {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    let files = db.files_per_level();
    assert_eq!(files[0], 0, "everything was compacted out of L0: {files:?}");
    assert!(files[1] >= 10, "L1 holds many files: {files:?}");
    assert_eq!(files[1..].iter().sum::<usize>(), files[1], "nothing below L1: {files:?}");
    let db = reopen(db, &dir);

    for start in (0..KEYS).step_by(37) {
        let before = db.stats();
        let scanned: Vec<Vec<u8>> = db
            .scan_range(Some(&key_for(start)), None)
            .unwrap()
            .take(10)
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(scanned, (start..KEYS.min(start + 10)).map(key_for).collect::<Vec<_>>());
        let touched = tables_touched(&db, &before);
        assert!(touched <= 2, "a 10-entry scan from {start} touched {touched} files");
    }

    for start in 0..KEYS {
        let expected: Vec<Vec<u8>> = (start..KEYS.min(start + 3)).map(key_for).collect();
        let on_key: Vec<Vec<u8>> = db
            .scan_range(Some(&key_for(start)), None)
            .unwrap()
            .take(3)
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(on_key, expected, "scan from key {start}");
        let mut between = key_for(start);
        between.push(b'x');
        let bounded: Vec<Vec<u8>> = db
            .scan_range(Some(&between), Some(&key_for(start + 3)))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(bounded, expected[1..], "scan from between {start} and the next key");
    }
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Baseline tables (no CL-SSTables), `block_size`-byte data blocks, a
/// `budget`-byte cache, and everything flushed and compacted.
fn loaded_tables(
    name: &str,
    keys: u64,
    block_size: usize,
    budget: usize,
) -> (Db, std::path::PathBuf) {
    let (db, dir) = open_small(name, |options| {
        common::single_shard(options);
        options.triad = TriadConfig::baseline();
        options.block_size = block_size;
        options.block_cache = budget;
    });
    for i in 0..keys {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    (db, dir)
}

/// Gets cache the entry they read, not the block around it. On tables six
/// times the cache, a pass of gets, one per block, fills the cache with rows
/// that all fit where the blocks would not, so a second pass over the same
/// keys reads no block at all.
#[test]
fn a_second_pass_of_gets_reads_no_block_and_caches_no_block() {
    const KEYS: u64 = 6_000;
    let (db, dir) = loaded_tables("block-cache-rows", KEYS, 4096, 128 << 10);
    let table_bytes: u64 = db
        .expected_live_files()
        .iter()
        .filter(|name| name.ends_with(".sst"))
        .map(|name| std::fs::metadata(dir.join(name)).unwrap().len())
        .sum();
    assert!(table_bytes > 6 * (128 << 10), "the tables dwarf the cache: {table_bytes}");
    // One key per ~4 KiB block of ~140-byte entries.
    let keys: Vec<u64> = (0..KEYS).step_by(29).collect();
    let pass = || {
        let before = db.stats();
        for &i in &keys {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i}");
        }
        db.stats().delta_since(&before)
    };
    let first = pass();
    assert_eq!(first.block_reads, first.block_cache_misses);
    assert!(first.block_reads >= keys.len() as u64, "every key was read from disk once");
    let per_insert = first.block_cache_inserted_bytes / first.block_cache_misses;
    assert!(per_insert < 1024, "gets cached {per_insert}-byte entries: blocks, not rows");
    let second = pass();
    assert_eq!(second.block_reads, 0, "the second pass reads every key from its row");
    assert_eq!(second.block_cache_row_hits, second.table_probes);
    assert_eq!(second.block_cache_inserted_bytes, 0);
    db.close().unwrap();
}

/// A data block a scan brought into the cache serves a later get of a key
/// in it, with no block read and no row inserted.
#[test]
fn a_block_a_scan_cached_serves_a_later_get() {
    let (db, _dir) = loaded_tables("block-cache-scan-then-get", 2_000, 4096, 1 << 20);
    let scanned = db.scan_range(Some(&key_for(1_000)), Some(&key_for(1_100))).unwrap().count();
    assert_eq!(scanned, 100);
    let before = db.stats();
    assert_eq!(db.get(key_for(1_050)).unwrap(), Some(value_for(1_050, 1)));
    let delta = db.stats().delta_since(&before);
    assert_eq!(delta.block_reads, 0, "the scan's block served the get");
    assert_eq!((delta.block_cache_hits, delta.block_cache_misses), (1, 0));
    assert_eq!(delta.block_cache_row_hits, 0);
    assert_eq!(delta.block_cache_inserted_bytes, 0, "a block hit caches no row");
    db.close().unwrap();
}

/// A get whose data block fails its CRC fails with a corruption error and
/// caches nothing, so the next get of the key fails the same way.
#[test]
fn a_corrupt_data_block_fails_the_get_and_caches_no_row() {
    let (db, dir) = open_small("block-cache-corrupt-get", |options| {
        common::single_shard(options);
        options.triad = TriadConfig::baseline();
        options.block_cache = 1 << 20;
    });
    for i in 0..150u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let tables: Vec<String> =
        db.expected_live_files().into_iter().filter(|name| name.ends_with(".sst")).collect();
    assert_eq!(tables.len(), 1, "one flushed table: {tables:?}");
    // Flip a byte of the last data block, which ends where the index begins.
    let path = dir.join(&tables[0]);
    let index =
        triad_sstable::format::BlockFileReader::open(&path).unwrap().read_footer().unwrap().index;
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[index.offset as usize - 10] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let before = db.stats();
    for _ in 0..2 {
        let error = db.get(key_for(149)).unwrap_err();
        assert!(error.is_corruption(), "{error}");
    }
    let delta = db.stats().delta_since(&before);
    assert_eq!(delta.block_cache_inserted_bytes, 0, "nothing of the corrupt block is cached");
    assert_eq!(delta.block_cache_row_hits, 0);
    assert_eq!(db.get(key_for(0)).unwrap(), Some(value_for(0, 1)), "other blocks still read");
    db.close().unwrap();
}

/// A CL-SSTable get whose commit-log record fails its CRC fails with a
/// corruption error and caches no row, so the next get fails the same way.
#[test]
fn a_corrupt_cl_record_fails_the_get_and_caches_no_row() {
    let (db, dir) = open_small("block-cache-corrupt-cl-get", |options| {
        common::single_shard(options);
        options.triad = TriadConfig::log_only();
        options.block_cache = 1 << 20;
    });
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.files_per_level()[0], 1, "the flush wrote one CL-SSTable");
    // Flip a byte inside key 37's value, in the log that backs the table.
    let needle = b"value-37-1-";
    let mut flipped = 0;
    for name in common::disk_files(&dir).iter().filter(|name| name.ends_with(".log")) {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        if let Some(at) = bytes.windows(needle.len()).position(|window| window == needle) {
            bytes[at + needle.len() + 20] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert_eq!(flipped, 1, "one log holds key 37's record");

    let before = db.stats();
    for _ in 0..2 {
        let error = db.get(key_for(37)).unwrap_err();
        assert!(error.is_corruption(), "{error}");
    }
    assert_eq!(db.stats().delta_since(&before).block_cache_row_hits, 0, "no row was cached");
    assert_eq!(db.get(key_for(36)).unwrap(), Some(value_for(36, 1)), "other records still read");
    db.close().unwrap();
}
