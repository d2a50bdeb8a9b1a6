//! The only module that names engine API. Everything else in the benchmark
//! talks to the store through [`Store`], so an engine refactor that keeps
//! `Db::{open, put, get, scan_range, flush, wait_for_compactions, close}`
//! cannot change or break an end-to-end number. [`Store::counters`] and the
//! `layers` submodule (traced runs only) are the parts that reach further in.

pub mod layers;

use std::path::Path;
use std::time::{Duration, Instant};

use triad_core::{Db, DbIterator, Options, ShardConfig, StatSnapshot, SyncMode};

/// Bytes of the shared block cache. `read_zipf`'s data is ~6x this and
/// `scan_churn`'s is a third of it, so one run set covers "larger than the
/// cache" and "fits in it".
pub const BLOCK_CACHE_BYTES: usize = 16 << 20;

/// The system under study with every host-dependent default pinned: all three
/// TRIAD techniques on, the paper's 4 MiB memtable and 8 MiB log, two shards,
/// and the WAL flushed to the OS on every write but never fsynced.
fn pinned_options() -> Options {
    Options {
        memtable_size: 4 << 20,
        max_log_size: 8 << 20,
        shards: ShardConfig::with_count(2),
        block_cache: BLOCK_CACHE_BYTES,
        io_threads: 2,
        compaction_threads: 1,
        sync_mode: SyncMode::NoSync,
        ..Options::triad()
    }
}

/// `Options` fall back to these variables; a stray one would unpin the run.
pub fn clear_env_overrides() {
    std::env::remove_var("TRIAD_SHARDS");
    std::env::remove_var("TRIAD_BLOCK_CACHE");
}

pub type Result<T> = std::result::Result<T, String>;

fn text<E: std::fmt::Display>(error: E) -> String {
    error.to_string()
}

/// An open database.
pub struct Store {
    db: Db,
}

impl Store {
    pub fn open(dir: &Path) -> Result<Store> {
        Ok(Store { db: Db::open(dir, pinned_options()).map_err(text)? })
    }

    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.db.put(key, value).map_err(text)
    }

    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.get(key).map_err(text)
    }

    /// Opens a scan of every key `>= start`, in key order.
    pub fn scan_from(&self, start: &[u8]) -> Result<Scan> {
        Ok(Scan { inner: self.db.scan_range(Some(start), None).map_err(text)? })
    }

    pub fn flush(&self) -> Result<()> {
        self.db.flush().map_err(text)
    }

    pub fn wait_for_compactions(&self) -> Result<()> {
        self.db.wait_for_compactions().map_err(text)
    }

    pub fn close(self) -> Result<()> {
        self.db.close().map_err(text)
    }

    /// The engine's own counters. Traced runs only: no end-to-end metric may
    /// depend on them.
    pub fn counters(&self) -> Counters {
        Counters {
            stats: self.db.stats(),
            l0_files: self.db.files_per_level().first().copied().unwrap_or(0),
        }
    }

    /// Times one MVCC snapshot (create and drop) and one checkpoint of the
    /// live database into `checkpoint_dir`.
    pub fn snapshot_and_checkpoint_metrics(
        &self,
        checkpoint_dir: &Path,
    ) -> Result<layers::Metrics> {
        let started = Instant::now();
        drop(self.db.snapshot());
        let snapshot = started.elapsed();
        let started = Instant::now();
        drop(self.db.checkpoint(checkpoint_dir).map_err(text)?);
        let checkpoint = started.elapsed();
        Ok(vec![
            ("core.snapshot.create_us", snapshot.as_secs_f64() * 1e6),
            ("core.checkpoint.ms", checkpoint.as_secs_f64() * 1e3),
        ])
    }
}

/// A scan in progress; yields `(key, value)` pairs.
pub struct Scan {
    inner: DbIterator,
}

impl Iterator for Scan {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|item| item.map_err(text))
    }
}

/// The engine's own counters at one moment.
pub struct Counters {
    stats: StatSnapshot,
    l0_files: usize,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Counters {
    /// The `core.<module>.*` counts and ratios of the interval from `earlier`
    /// to `self`, which lasted `wall`.
    pub fn layer_metrics(&self, earlier: &Counters, wall: Duration) -> layers::Metrics {
        let d = self.stats.delta_since(&earlier.stats);
        let background_micros = d.flush_micros + d.compaction_micros;
        let device_bytes = d.wal_bytes_written + d.bytes_flushed + d.bytes_compacted_written;
        vec![
            ("core.committer.group_mean_batches", ratio(d.write_group_batches, d.write_groups)),
            (
                "core.committer.wal_bytes_per_user_byte",
                ratio(d.wal_bytes_written, d.user_bytes_written),
            ),
            ("core.flush.count", d.flush_count as f64),
            ("core.flush.bytes_per_user_byte", ratio(d.bytes_flushed, d.user_bytes_written)),
            (
                "core.flush.hot_retained_share",
                ratio(d.hot_entries_retained, d.hot_entries_retained + d.entries_flushed),
            ),
            ("core.flush.small_skips", d.small_flush_skips as f64),
            ("core.compaction.count", d.compaction_count as f64),
            ("core.compaction.deferred", d.compactions_deferred as f64),
            (
                "core.compaction.bytes_per_user_byte",
                ratio(d.bytes_compacted_written, d.user_bytes_written),
            ),
            (
                "core.compaction.background_time_share",
                background_micros as f64 / 1e6 / wall.as_secs_f64(),
            ),
            ("core.version.files_l0_end", self.l0_files as f64),
            (
                "core.table_cache.hit_rate",
                ratio(d.table_cache_hits, d.table_cache_hits + d.table_cache_misses),
            ),
            (
                "core.block_cache.hit_rate",
                ratio(d.block_cache_hits, d.block_cache_hits + d.block_cache_misses),
            ),
            (
                "core.block_cache.evictions_per_kop",
                1e3 * ratio(d.block_cache_evictions, d.user_reads + d.user_writes),
            ),
            ("core.read.memtable_probes_per_get", ratio(d.memtable_probes, d.user_reads)),
            ("core.read.table_probes_per_get", ratio(d.table_probes, d.user_reads)),
            ("core.read.block_reads_per_get", ratio(d.block_reads, d.user_reads)),
            ("core.read.bloom_negative_share", ratio(d.bloom_negatives, d.table_probes)),
            ("core.stats.device_write_amp", ratio(device_bytes, d.user_bytes_written)),
        ]
    }
}
