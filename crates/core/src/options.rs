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

/// Configuration of the group-commit write pipeline.
///
/// Every write commits through one pipeline. Concurrent writers hand their
/// batches to a *leader* that appends the whole group to the commit log with
/// one buffered write in a short *append stage*, then all group members insert
/// into the sharded memtable in parallel, outside the WAL lock. Durability is a
/// decoupled *sync stage* tracked by a watermark: group N+1's leader appends
/// the moment group N releases the append lock — while group N's fsync is still
/// in flight — and one fsync retires every group it covered.
///
/// The caps bound how much one leader may absorb before it commits, keeping
/// tail latency in check under extreme fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Maximum number of write batches one commit group may carry. `1` makes
    /// every batch its own group (no fsync amortization inside a group).
    pub max_group_batches: usize,
    /// Maximum total key+value bytes one commit group may carry. The leader's own
    /// batch always joins regardless, so oversized single batches still commit.
    pub max_group_bytes: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { max_group_batches: 64, max_group_bytes: 1024 * 1024 }
    }
}

/// Keyspace sharding: how many fully independent LSM shards live behind one
/// `Db` façade.
///
/// Each shard owns its own commit log, leader/follower pipeline, memtable,
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
    /// One shard: today's single-instance engine.
    pub fn single() -> Self {
        ShardConfig { count: 1 }
    }

    /// An explicit shard count.
    pub fn with_count(count: usize) -> Self {
        ShardConfig { count }
    }

    /// The `TRIAD_SHARDS` override, if set and parseable.
    fn from_env() -> Option<usize> {
        std::env::var("TRIAD_SHARDS").ok()?.trim().parse().ok()
    }
}

impl Default for ShardConfig {
    /// `TRIAD_SHARDS` when set (how CI pins its shards=4 suite runs),
    /// otherwise the host's available parallelism: one shard per core, which
    /// is 1 — today's behavior — on a single-core host.
    fn default() -> Self {
        let count = Self::from_env()
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        ShardConfig { count: count.max(1) }
    }
}

/// Whether background flushing and compaction run at all.
///
/// `Disabled` reproduces the paper's Figure 2 experiment ("RocksDB No BG I/O"): when
/// the memory component fills up it is discarded instead of flushed, and compaction
/// never runs, so the measured throughput is an upper bound unburdened by background
/// I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundIoMode {
    /// Normal operation: flushes and compactions run in background threads.
    Enabled,
    /// Figure 2 mode: full memtables are discarded, compaction never runs.
    Disabled,
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
    /// TRIAD-MEM's `FLUSH_TH`: if a flush is triggered (typically by the commit log
    /// filling up) while the memtable holds fewer than this many bytes, skip the
    /// flush, rotate the log and keep everything in memory.
    pub flush_skip_threshold_bytes: usize,
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
            flush_skip_threshold_bytes: 2 * 1024 * 1024,
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

    /// Enables all three techniques in place.
    pub fn enable_all(&mut self) {
        self.mem_enabled = true;
        self.disk_enabled = true;
        self.log_enabled = true;
    }

    /// Returns `true` if any technique is enabled.
    pub fn any_enabled(&self) -> bool {
        self.mem_enabled || self.disk_enabled || self.log_enabled
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
    /// The paper's synthetic experiments use 4 MB.
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
    /// Group-commit write pipeline configuration.
    pub group_commit: GroupCommitConfig,
    /// Whether background I/O runs (Figure 2 uses `Disabled`).
    pub background_io: BackgroundIoMode,
    /// Number of background compaction threads.
    pub compaction_threads: usize,
    /// TRIAD technique configuration.
    pub triad: TriadConfig,
    /// Keyspace sharding configuration.
    pub shards: ShardConfig,
    /// Byte budget of the shared block cache (decoded data blocks, one cache
    /// across all keyspace shards). `0` disables the cache entirely; the
    /// default is `memtable_size.div_ceil(10) * 3` — roughly 30% of the
    /// memory component, the lfkv-style buffer-pool sizing rule. The
    /// `TRIAD_BLOCK_CACHE` environment variable (plain bytes or a
    /// `KiB`/`MiB`/`GiB` suffix) overrides it, which is how CI sweeps cache
    /// sizes without rebuilding.
    pub block_cache: usize,
    /// Worker threads in the readahead I/O pool scan and compaction iterators
    /// use to prefetch the next data block. `0` disables readahead; the pool
    /// only exists when the block cache is enabled (prefetched blocks land
    /// *in* the cache).
    pub io_threads: usize,
}

/// The default block-cache budget for a given memtable size:
/// `memtable_size.div_ceil(10) * 3` (≈ 30% of the memory component).
pub(crate) fn default_block_cache(memtable_size: usize) -> usize {
    memtable_size.div_ceil(10) * 3
}

/// The `TRIAD_BLOCK_CACHE` override, if set and parseable: plain bytes
/// (`"1048576"`) or a binary-suffixed size (`"16MiB"`).
fn block_cache_from_env() -> Option<usize> {
    parse_byte_size(std::env::var("TRIAD_BLOCK_CACHE").ok()?.trim())
}

fn parse_byte_size(raw: &str) -> Option<usize> {
    for (suffix, shift) in [("GiB", 30u32), ("MiB", 20), ("KiB", 10)] {
        if let Some(number) = raw.strip_suffix(suffix) {
            let number: usize = number.trim().parse().ok()?;
            return number.checked_mul(1usize << shift);
        }
    }
    raw.parse().ok()
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
            group_commit: GroupCommitConfig::default(),
            background_io: BackgroundIoMode::Enabled,
            compaction_threads: 1,
            triad: TriadConfig::baseline(),
            shards: ShardConfig::default(),
            block_cache: block_cache_from_env()
                .unwrap_or_else(|| default_block_cache(memtable_size)),
            io_threads: 2,
        }
    }
}

impl Options {
    /// The paper's baseline ("RocksDB") configuration.
    pub fn baseline() -> Self {
        Options::default()
    }

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
            // options pin one shard regardless of host core count. CI's
            // sharded suite runs override this via `TRIAD_SHARDS`.
            shards: ShardConfig { count: ShardConfig::from_env().unwrap_or(1) },
            // `..Options::default()` would size the cache for the 4 MiB
            // default memtable; recompute for the tiny one. The
            // TRIAD_BLOCK_CACHE override still wins.
            block_cache: block_cache_from_env()
                .unwrap_or_else(|| default_block_cache(memtable_size)),
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
        if self.group_commit.max_group_batches == 0 {
            return Err(Error::InvalidArgument("max_group_batches must be non-zero".into()));
        }
        if self.group_commit.max_group_bytes == 0 {
            return Err(Error::InvalidArgument("max_group_bytes must be non-zero".into()));
        }
        if self.shards.count == 0 {
            return Err(Error::InvalidArgument("shards.count must be non-zero".into()));
        }
        if self.shards.count > 256 {
            return Err(Error::InvalidArgument("shards.count must be at most 256".into()));
        }
        if self.io_threads > 64 {
            return Err(Error::InvalidArgument("io_threads must be at most 64".into()));
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
        assert!(!options.triad.any_enabled(), "default is the RocksDB baseline");
        options.validate().unwrap();
    }

    #[test]
    fn block_cache_defaults_scale_with_the_memtable() {
        // div_ceil(10) * 3 ≈ 30% of the memory component.
        assert_eq!(default_block_cache(4 * 1024 * 1024), 1_258_293, "4MiB/10 rounded up, x3");
        assert_eq!(default_block_cache(100), 30);
        assert_eq!(default_block_cache(101), 33);
        if std::env::var("TRIAD_BLOCK_CACHE").is_err() {
            let default = Options::default();
            assert_eq!(default.block_cache, default_block_cache(default.memtable_size));
            let small = Options::small_for_tests();
            assert_eq!(small.block_cache, default_block_cache(small.memtable_size));
            assert!(small.block_cache < default.block_cache);
        }
    }

    #[test]
    fn byte_sizes_parse_with_and_without_suffixes() {
        assert_eq!(parse_byte_size("1048576"), Some(1 << 20));
        assert_eq!(parse_byte_size("16MiB"), Some(16 << 20));
        assert_eq!(parse_byte_size("2 GiB"), Some(2 << 30));
        assert_eq!(parse_byte_size("512KiB"), Some(512 << 10));
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size("12MB"), None, "only binary suffixes are accepted");
    }

    #[test]
    fn io_thread_bounds_are_validated() {
        // 0 just disables readahead.
        let mut options = Options { io_threads: 0, ..Options::default() };
        options.validate().unwrap();
        options.io_threads = 65;
        assert!(options.validate().is_err());
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
    fn enable_all_flips_every_flag() {
        let mut config = TriadConfig::baseline();
        assert!(!config.any_enabled());
        config.enable_all();
        assert!(config.mem_enabled && config.disk_enabled && config.log_enabled);
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

        let mut options = Options::default();
        options.group_commit.max_group_batches = 0;
        assert!(options.validate().is_err());

        let mut options = Options::default();
        options.group_commit.max_group_bytes = 0;
        assert!(options.validate().is_err());
    }

    #[test]
    fn group_commit_defaults_are_bounded() {
        let config = GroupCommitConfig::default();
        assert!(config.max_group_batches >= 2, "a group must be able to amortize");
        assert!(config.max_group_bytes >= 64 * 1024);
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
        assert_eq!(ShardConfig::single().count, 1);
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
