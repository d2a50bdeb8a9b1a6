//! The four workloads. Names are final: `BENCHMARK.json` lists them and later
//! changes are gated on them.

use crate::gen::{KeyDist, StreamSpec};

/// Closed loop: each client issues its next op when the previous one returned,
/// as callers of an embedded library do. Two clients for the two vCPUs of the
/// reference host.
pub const CLIENTS: u64 = 2;

/// Entries one scan op reads.
pub const SCAN_LEN: usize = 100;

/// Share of the op stream that runs untimed first, to fill the block and
/// table caches.
pub const WARMUP_PERCENT: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Get,
    Scan,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; one line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// Keys loaded at set-up. None is ever deleted, so the keyspace stays dense.
    pub keys: u64,
    pub read_percent: usize,
    /// The read class is one op kind only, so a percentile never mixes
    /// distributions; the write class is always put.
    pub read_kind: ReadKind,
    pub read_dist: KeyDist,
    pub write_dist: KeyDist,
    /// Timed ops per second of `--seconds`, all clients together. Fixed op
    /// count, not fixed time, so two commits execute the same op stream and
    /// write the same user bytes; calibrated so the timed phase takes about
    /// `--seconds` at the seed commit on the reference host.
    pub ops_per_second: u64,
}

const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "write_skew",
        why: "90% put/10% get, 1% of keys take 99% of ops: WAL, memtable, group commit and TRIAD-MEM/-LOG do the work, flush and compaction little",
        keys: 200_000,
        read_percent: 10,
        read_kind: ReadKind::Get,
        read_dist: KeyDist::HotCold,
        write_dist: KeyDist::HotCold,
        ops_per_second: 230_000,
    },
    Workload {
        name: "write_uniform",
        why: "same mix, uniform keys: nothing for TRIAD-MEM to keep, so flush, compaction, HLL overlap gating and the table builder dominate",
        keys: 200_000,
        read_percent: 10,
        read_kind: ReadKind::Get,
        read_dist: KeyDist::Uniform,
        write_dist: KeyDist::Uniform,
        ops_per_second: 160_000,
    },
    Workload {
        name: "read_zipf",
        why: "95% get/5% put, scrambled zipfian over data 6x the block cache: table cache, bloom, index and block-cache hit and miss paths",
        keys: 400_000,
        read_percent: 95,
        read_kind: ReadKind::Get,
        read_dist: ZIPF,
        write_dist: ZIPF,
        ops_per_second: 300_000,
    },
    Workload {
        name: "scan_churn",
        why: "50% 100-entry scans from zipfian starts/50% uniform puts on data that fits the cache: merging iterators, shard merge, readahead",
        keys: 20_000,
        read_percent: 50,
        read_kind: ReadKind::Scan,
        read_dist: ZIPF,
        write_dist: KeyDist::Uniform,
        ops_per_second: 190,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The op stream of a run of `seconds`, at `1 / divisor` of full length.
    pub fn stream_spec(&self, seconds: u64, divisor: u64) -> StreamSpec {
        let timed = self.ops_per_second * seconds / divisor / CLIENTS;
        StreamSpec {
            keys: self.keys,
            read_percent: self.read_percent,
            read_dist: self.read_dist,
            write_dist: self.write_dist,
            // The first WARMUP_PERCENT of the stream are warm-up, the rest timed.
            ops_per_client: timed as usize * 100 / (100 - WARMUP_PERCENT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::OpStream;

    /// The streams of `--seed 1 --seconds 10`, as pinned in README.md. If this
    /// fails the generator or a workload changed, and every recorded number
    /// with it: re-measure the baseline and update both tables.
    #[test]
    fn default_seed_fingerprints_are_pinned() {
        let pinned = [
            ("write_skew", 0x5cb0_15fd_7bdb_5172_u64, 0x1217_40ce_31b8_c399_u64),
            ("write_uniform", 0xae11_b8ce_450b_c3b4, 0x95df_f459_1a36_af8f),
            ("read_zipf", 0xeb54_9bc7_2a37_916d, 0x8e98_f120_8545_08dd),
            ("scan_churn", 0xf345_b022_a1c3_5055, 0x94dd_fb6a_e1bb_7184),
        ];
        for (name, full, quarter) in pinned {
            let workload = Workload::by_name(name).unwrap();
            let fingerprint = |divisor| {
                OpStream::generate(&workload.stream_spec(10, divisor), CLIENTS, 1).fingerprint()
            };
            assert_eq!(fingerprint(1), full, "{name}, full length");
            assert_eq!(fingerprint(4), quarter, "{name}, quarter length");
        }
    }
}
