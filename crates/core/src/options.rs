//! Engine configuration.
//!
//! [`Options`] mirrors the knobs the paper's evaluation varies: the memtable size
//! (4 MB in the synthetic experiments), the L0 file limits, and — through
//! [`TriadConfig`] — which of the three TRIAD techniques are active. The baseline
//! "RocksDB" configuration of the paper corresponds to [`TriadConfig::baseline`];
//! the full system is [`TriadConfig::all_enabled`]. Each technique can be toggled
//! individually to reproduce the per-technique breakdown of Figures 10 and 11.

use triad_memtable::HotColdPolicy;

/// Durability mode of the commit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Buffer appends in user space and flush to the OS on every write, but never
    /// `fsync`. Fastest; a crash of the machine (not just the process) may lose the
    /// most recent writes. This mirrors RocksDB's default (`sync = false`).
    NoSync,
    /// Flush and `fsync` the commit log on every write. Durable but slow.
    SyncEveryWrite,
    /// `fsync` the commit log every `n` writes.
    SyncEvery(u64),
}

/// Keyspace sharding: how many fully independent LSM shards live behind one
/// `Db` façade.
///
/// Each shard owns its own commit log, commit pipeline, memtable,
/// version set, GC queue and background worker, in its own subdirectory. A
/// hash router sends every point op to exactly one shard, so the hot write
/// path has no cross-shard coordination; scans k-way-merge per-shard
/// iterators and snapshots span all shards under a brief global gate.
///
/// Multi-key batches that straddle shards commit atomically *per shard*: a
/// crash can persist the batch's effects on some shards and not others (a
/// snapshot taken through the live façade still observes whole batches —
/// see docs/ARCHITECTURE.md, "Sharding").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards. `1` is the pre-sharding engine: identical behavior
    /// and byte-identical directory layout (no `SHARDS` marker, no
    /// subdirectories). The count is persisted on first open and must match
    /// on reopen.
    pub count: usize,
}

impl ShardConfig {
    /// An explicit shard count.
    pub fn with_count(count: usize) -> Self {
        ShardConfig { count }
    }
}

impl Default for ShardConfig {
    /// The host's available parallelism: one shard per core, which is 1 on a
    /// single-core host.
    fn default() -> Self {
        let count = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        ShardConfig { count }
    }
}

/// Configuration of the three TRIAD techniques.
#[derive(Debug, Clone)]
pub struct TriadConfig {
    /// TRIAD-MEM: keep hot keys in memory on flush (paper §4.1).
    pub mem_enabled: bool,
    /// TRIAD-DISK: defer L0→L1 compaction until the overlap ratio is large enough
    /// (paper §4.2).
    pub disk_enabled: bool,
    /// TRIAD-LOG: turn sealed commit logs into CL-SSTables instead of rewriting
    /// values at flush time (paper §4.3).
    pub log_enabled: bool,
    /// Hot-key selection policy for TRIAD-MEM. The paper's default treats the top 1%
    /// of keys by update frequency as hot.
    pub hot_key_policy: HotColdPolicy,
    /// TRIAD-DISK's overlap-ratio threshold below which L0→L1 compaction is deferred.
    /// The paper uses 0.4.
    pub overlap_ratio_threshold: f64,
    /// TRIAD-DISK's hard cap on the number of L0 files; once reached, compaction
    /// proceeds regardless of the overlap ratio. The paper uses 6.
    pub max_l0_files: usize,
}

impl TriadConfig {
    /// The baseline configuration: all three techniques off (plain leveled LSM,
    /// playing the role of RocksDB in the evaluation).
    pub fn baseline() -> Self {
        TriadConfig {
            mem_enabled: false,
            disk_enabled: false,
            log_enabled: false,
            hot_key_policy: HotColdPolicy::default(),
            overlap_ratio_threshold: 0.4,
            max_l0_files: 6,
        }
    }

    /// The full TRIAD configuration with the paper's defaults.
    pub fn all_enabled() -> Self {
        TriadConfig { mem_enabled: true, disk_enabled: true, log_enabled: true, ..Self::baseline() }
    }

    /// Only TRIAD-MEM ("Skew Awareness Only" in Figure 10).
    pub fn mem_only() -> Self {
        TriadConfig { mem_enabled: true, ..Self::baseline() }
    }

    /// Only TRIAD-DISK ("Deferred Compaction Only" in Figure 10).
    pub fn disk_only() -> Self {
        TriadConfig { disk_enabled: true, ..Self::baseline() }
    }

    /// Only TRIAD-LOG ("Commit Log Indexing Only" in Figure 10).
    pub fn log_only() -> Self {
        TriadConfig { log_enabled: true, ..Self::baseline() }
    }

    /// A short label such as `"TRIAD"`, `"RocksDB"` or `"TRIAD-MEM"`, used by the
    /// benchmark harness when printing tables.
    pub fn label(&self) -> String {
        match (self.mem_enabled, self.disk_enabled, self.log_enabled) {
            (false, false, false) => "RocksDB".to_string(),
            (true, true, true) => "TRIAD".to_string(),
            (true, false, false) => "TRIAD-MEM".to_string(),
            (false, true, false) => "TRIAD-DISK".to_string(),
            (false, false, true) => "TRIAD-LOG".to_string(),
            (mem, disk, log) => {
                let mut parts = Vec::new();
                if mem {
                    parts.push("MEM");
                }
                if disk {
                    parts.push("DISK");
                }
                if log {
                    parts.push("LOG");
                }
                format!("TRIAD-{}", parts.join("+"))
            }
        }
    }
}

impl Default for TriadConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Top-level engine options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum size of the active memory component before a flush is triggered.
    /// The paper's synthetic experiments use 4 MB. Half of it is TRIAD-MEM's
    /// `FLUSH_TH`: a rotation that finds the memtable smaller skips the flush.
    pub memtable_size: usize,
    /// Maximum size of the commit log before a flush (or, with TRIAD-MEM, a log
    /// rotation) is triggered even if the memtable still has room.
    pub max_log_size: usize,
    /// Number of L0 files that triggers an L0→L1 compaction in the baseline.
    pub l0_compaction_trigger: usize,
    /// Target size of L1; level `i` targets `l1_target_size * level_size_multiplier^(i-1)`.
    pub l1_target_size: u64,
    /// Ratio between the target sizes of consecutive levels.
    pub level_size_multiplier: u64,
    /// Number of levels in the disk component (including L0).
    pub num_levels: usize,
    /// Target size of an individual SSTable produced by compaction.
    pub target_file_size: u64,
    /// Data-block size inside SSTables.
    pub block_size: usize,
    /// Bloom filter bits per key.
    pub bloom_bits_per_key: usize,
    /// Commit-log durability mode.
    pub sync_mode: SyncMode,
    /// Currently ignored: nothing reads it. Each shard runs exactly one
    /// background worker, which does all of that shard's flushes and
    /// compactions. It stays only because the repo benchmark's pinned options
    /// set it.
    pub compaction_threads: usize,
    /// TRIAD technique configuration.
    pub triad: TriadConfig,
    /// Keyspace sharding configuration.
    pub shards: ShardConfig,
    /// Byte budget of the shared block cache (decoded data blocks, one cache
    /// across all keyspace shards). `0` disables the cache entirely; the
    /// default is `memtable_size.div_ceil(10) * 3` — roughly 30% of the
    /// memory component, the lfkv-style buffer-pool sizing rule.
    pub block_cache: usize,
    /// Currently ignored: nothing reads it. Scans read their blocks on the
    /// calling thread; no I/O helper threads run. It stays only because the
    /// repo benchmark's pinned options set it.
    pub io_threads: usize,
}

/// The default block-cache budget for a given memtable size:
/// `memtable_size.div_ceil(10) * 3` (≈ 30% of the memory component).
pub(crate) fn default_block_cache(memtable_size: usize) -> usize {
    memtable_size.div_ceil(10) * 3
}

impl Default for Options {
    fn default() -> Self {
        let memtable_size = 4 * 1024 * 1024;
        Options {
            memtable_size,
            max_log_size: 8 * 1024 * 1024,
            l0_compaction_trigger: 4,
            l1_target_size: 16 * 1024 * 1024,
            level_size_multiplier: 10,
            num_levels: 7,
            target_file_size: 4 * 1024 * 1024,
            block_size: 4 * 1024,
            bloom_bits_per_key: 10,
            sync_mode: SyncMode::NoSync,
            compaction_threads: 1,
            triad: TriadConfig::baseline(),
            shards: ShardConfig::default(),
            block_cache: default_block_cache(memtable_size),
            io_threads: 2,
        }
    }
}

impl Options {
    /// The paper's full TRIAD configuration.
    pub fn triad() -> Self {
        Options { triad: TriadConfig::all_enabled(), ..Options::default() }
    }

    /// Small-footprint options for unit and integration tests: tiny memtable and log
    /// so flushes and compactions happen after a handful of writes.
    pub fn small_for_tests() -> Self {
        let memtable_size = 64 * 1024;
        Options {
            memtable_size,
            max_log_size: 128 * 1024,
            l1_target_size: 256 * 1024,
            target_file_size: 64 * 1024,
            block_size: 1024,
            // Most tests assert exact file layouts or seqno/fsync arithmetic
            // that only holds for a single engine instance, so the test
            // options pin one shard regardless of host core count.
            shards: ShardConfig::with_count(1),
            // `..Options::default()` would size the cache for the 4 MiB
            // default memtable; recompute for the tiny one.
            block_cache: default_block_cache(memtable_size),
            ..Options::default()
        }
    }

    /// The target size of level `level` (1-based levels; L0 is governed by file count).
    pub fn level_target_size(&self, level: usize) -> u64 {
        if level == 0 {
            return u64::MAX;
        }
        let mut size = self.l1_target_size;
        for _ in 1..level {
            size = size.saturating_mul(self.level_size_multiplier);
        }
        size
    }

    /// Validates internal consistency of the options.
    pub fn validate(&self) -> triad_common::Result<()> {
        use triad_common::Error;
        if self.memtable_size == 0 {
            return Err(Error::InvalidArgument("memtable_size must be non-zero".into()));
        }
        if self.num_levels < 2 {
            return Err(Error::InvalidArgument("num_levels must be at least 2".into()));
        }
        if self.triad.max_l0_files == 0 {
            return Err(Error::InvalidArgument("max_l0_files must be non-zero".into()));
        }
        if !(0.0..=1.0).contains(&self.triad.overlap_ratio_threshold) {
            return Err(Error::InvalidArgument("overlap_ratio_threshold must be in [0, 1]".into()));
        }
        if self.l0_compaction_trigger == 0 {
            return Err(Error::InvalidArgument("l0_compaction_trigger must be non-zero".into()));
        }
        if self.shards.count == 0 {
            return Err(Error::InvalidArgument("shards.count must be non-zero".into()));
        }
        if self.shards.count > 256 {
            return Err(Error::InvalidArgument("shards.count must be at most 256".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let options = Options::default();
        assert_eq!(options.memtable_size, 4 * 1024 * 1024, "paper's synthetic memtable is 4MB");
        assert_eq!(options.triad.max_l0_files, 6, "paper uses at most 6 L0 files for TRIAD-DISK");
        assert!((options.triad.overlap_ratio_threshold - 0.4).abs() < 1e-9, "paper uses 0.4");
        assert_eq!(options.triad.label(), "RocksDB", "default is the RocksDB baseline");
        options.validate().unwrap();
    }

    #[test]
    fn block_cache_defaults_scale_with_the_memtable() {
        // div_ceil(10) * 3 ≈ 30% of the memory component.
        assert_eq!(default_block_cache(4 * 1024 * 1024), 1_258_293, "4MiB/10 rounded up, x3");
        assert_eq!(default_block_cache(100), 30);
        assert_eq!(default_block_cache(101), 33);
        let default = Options::default();
        assert_eq!(default.block_cache, default_block_cache(default.memtable_size));
        let small = Options::small_for_tests();
        assert_eq!(small.block_cache, default_block_cache(small.memtable_size));
        assert!(small.block_cache < default.block_cache);
    }

    #[test]
    fn labels_for_breakdown_configs() {
        assert_eq!(TriadConfig::baseline().label(), "RocksDB");
        assert_eq!(TriadConfig::all_enabled().label(), "TRIAD");
        assert_eq!(TriadConfig::mem_only().label(), "TRIAD-MEM");
        assert_eq!(TriadConfig::disk_only().label(), "TRIAD-DISK");
        assert_eq!(TriadConfig::log_only().label(), "TRIAD-LOG");
        let mut two = TriadConfig::baseline();
        two.mem_enabled = true;
        two.log_enabled = true;
        assert_eq!(two.label(), "TRIAD-MEM+LOG");
    }

    #[test]
    fn level_target_sizes_grow_geometrically() {
        let options =
            Options { l1_target_size: 100, level_size_multiplier: 10, ..Options::default() };
        assert_eq!(options.level_target_size(1), 100);
        assert_eq!(options.level_target_size(2), 1_000);
        assert_eq!(options.level_target_size(3), 10_000);
        assert_eq!(options.level_target_size(0), u64::MAX);
    }

    #[test]
    fn validation_catches_bad_options() {
        let options = Options { memtable_size: 0, ..Options::default() };
        assert!(options.validate().is_err());

        let options = Options { num_levels: 1, ..Options::default() };
        assert!(options.validate().is_err());

        let mut options = Options::default();
        options.triad.overlap_ratio_threshold = 1.5;
        assert!(options.validate().is_err());

        let mut options = Options::default();
        options.triad.max_l0_files = 0;
        assert!(options.validate().is_err());

        let options = Options { l0_compaction_trigger: 0, ..Options::default() };
        assert!(options.validate().is_err());
    }

    #[test]
    fn test_options_are_small() {
        let options = Options::small_for_tests();
        assert!(options.memtable_size <= 64 * 1024);
        options.validate().unwrap();
    }

    #[test]
    fn shard_defaults_track_the_host() {
        let config = ShardConfig::default();
        assert!(config.count >= 1, "the default shard count is never zero");
        assert_eq!(Options::small_for_tests().shards.count, 1, "test options pin one shard");
        assert_eq!(ShardConfig::with_count(4).count, 4);
    }

    #[test]
    fn validation_bounds_the_shard_count() {
        let options = Options { shards: ShardConfig { count: 0 }, ..Options::default() };
        assert!(options.validate().is_err());
        let options = Options { shards: ShardConfig { count: 257 }, ..Options::default() };
        assert!(options.validate().is_err());
        let options = Options { shards: ShardConfig { count: 256 }, ..Options::default() };
        options.validate().unwrap();
    }
}
