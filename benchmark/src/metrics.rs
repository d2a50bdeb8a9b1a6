//! Every metric the benchmark emits, by name, and the manifest built from
//! the same tables: `BENCHMARK.json` is exactly [`manifest_json`], so the
//! names the runner prints and the names the driver expects cannot drift
//! (`--check-manifest` compares the file byte for byte).

use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the store would see. `bound` is the share of the
/// parent commit's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.20),
    e2e("read_p50_us", "us", Lower, 0.20),
    e2e("write_p50_us", "us", Lower, 0.20),
    e2e("write_amp", "ratio", Lower, 0.05),
    e2e("space_amp", "ratio", Lower, 0.10),
    e2e("cpu_us_per_op", "us", Lower, 0.20),
];

/// Prefix = the module (crate, or `core.<module>`) the number belongs to;
/// `client.` and `bench.` are the harness's own.
pub const PER_LAYER: [PerLayer; 66] = [
    // Spans around each facade call, from the traced run.
    layer("core.db.put_us_p50", "us", Lower),
    layer("core.db.put_us_p99", "us", Lower),
    layer("core.db.put_us_p999", "us", Lower),
    layer("core.db.put_us_max", "us", Lower),
    layer("core.db.get_us_p50", "us", Lower),
    layer("core.db.get_us_p99", "us", Lower),
    layer("core.db.get_us_p999", "us", Lower),
    layer("core.db.get_us_max", "us", Lower),
    layer("core.db.scan_open_us_p50", "us", Lower),
    layer("core.iterator.next_ns_per_entry", "ns", Lower),
    layer("core.db.open_ms", "ms", Lower),
    layer("core.db.reopen_ms", "ms", Lower),
    layer("core.db.close_ms", "ms", Lower),
    layer("core.db.flush_ms", "ms", Lower),
    layer("core.db.compaction_drain_ms", "ms", Lower),
    layer("client.stall_ops_over_10ms", "count", Lower),
    layer("client.stall_time_share", "ratio", Lower),
    // Client-side numbers too noisy on a shared 2-vCPU host to carry a bound
    // (see README, "Repeatability"); from the untraced pass of the traced run.
    layer("client.read_p99_us", "us", Lower),
    layer("client.write_p99_us", "us", Lower),
    layer("client.peak_rss_mb", "MB", Lower),
    layer("client.reopen_ms", "ms", Lower),
    // Layer replays of the workload's put stream.
    layer("wal.append_ns_per_op", "ns", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.sync_us_p50", "us", Lower),
    layer("wal.recover_mb_s", "MB/s", Higher),
    layer("memtable.insert_ns_per_op", "ns", Lower),
    layer("memtable.get_ns_per_op", "ns", Lower),
    layer("memtable.hotcold_split_ms", "ms", Lower),
    layer("memtable.hot_share", "ratio", Higher),
    layer("sstable.build_mb_s", "MB/s", Higher),
    layer("sstable.bytes_per_user_byte", "ratio", Lower),
    layer("sstable.cl_build_ms", "ms", Lower),
    layer("sstable.get_present_us_p50", "us", Lower),
    layer("sstable.get_absent_ns_p50", "ns", Lower),
    layer("sstable.bloom_fp_rate", "ratio", Lower),
    layer("sstable.iter_mb_s", "MB/s", Higher),
    layer("hll.add_ns_per_key", "ns", Lower),
    layer("hll.overlap_us", "us", Lower),
    layer("hll.estimate_err", "ratio", Lower),
    layer("common.checksum_mb_s", "MB/s", Higher),
    layer("common.hist_record_ns", "ns", Lower),
    // One delta of the engine's own counters over the traced timed phase.
    layer("core.committer.group_mean_batches", "count", Higher),
    layer("core.committer.wal_bytes_per_user_byte", "ratio", Lower),
    layer("core.flush.count", "count", Lower),
    layer("core.flush.bytes_per_user_byte", "ratio", Lower),
    layer("core.flush.hot_retained_share", "ratio", Higher),
    layer("core.flush.small_skips", "count", Higher),
    layer("core.compaction.count", "count", Lower),
    layer("core.compaction.deferred", "count", Higher),
    layer("core.compaction.bytes_per_user_byte", "ratio", Lower),
    layer("core.compaction.background_time_share", "ratio", Lower),
    layer("core.version.files_l0_end", "count", Lower),
    layer("core.table_cache.hit_rate", "ratio", Higher),
    layer("core.block_cache.hit_rate", "ratio", Higher),
    layer("core.block_cache.evictions_per_kop", "count", Lower),
    layer("core.read.memtable_probes_per_get", "count", Lower),
    layer("core.read.table_probes_per_get", "count", Lower),
    layer("core.read.block_reads_per_get", "count", Lower),
    layer("core.read.bloom_negative_share", "ratio", Higher),
    layer("core.stats.device_write_amp", "ratio", Lower),
    layer("core.snapshot.create_us", "us", Lower),
    layer("core.checkpoint.ms", "ms", Lower),
    // How much of any client number is the harness itself.
    layer("bench.harness_self_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.span_coverage", "ratio", Higher),
    layer("bench.op_stream_fnv32", "count", Higher),
];

/// The one directory that holds the benchmark.
pub const PATH: &str = "benchmark";

/// What the driver runs, from the repo root; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures; the op budget of a run scales with it.
pub const RUN_SECONDS: u64 = 10;

fn quoted(text: &str) -> String {
    assert!(
        text.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
        "manifest strings need no escaping: {text:?}"
    );
    format!("\"{text}\"")
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|part| quoted(part)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        quoted(PATH),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Checks the tables above against the limits the driver puts on a manifest.
pub fn check_tables() -> Result<(), String> {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        if !name_ok(name) {
            return Err(format!("bad name {name:?}"));
        }
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != count {
        return Err("a name is used twice".into());
    }
    for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
        if !unit_ok(unit) {
            return Err(format!("bad unit {unit:?}"));
        }
    }
    if let Some(w) = WORKLOADS.iter().find(|w| w.why.len() > 200 || w.why.contains('\n')) {
        return Err(format!("why of {} is not one line of at most 200 characters", w.name));
    }
    if let Some(m) = END_TO_END.iter().find(|m| !(m.bound > 0.0 && m.bound <= 0.25)) {
        return Err(format!("bound of {} is outside (0, 0.25]", m.name));
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !matches!(setup, Some(m) if m.unit == "s" && m.better == Lower) {
        return Err("setup_s must be an end-to-end metric in s, lower is better".into());
    }
    if COMMAND.len() > 32 || COMMAND.iter().any(|part| part.len() > 200) {
        return Err("command is too long".into());
    }
    if manifest_json().len() > 64 * 1024 {
        return Err("manifest is over 64 KiB".into());
    }
    Ok(())
}

/// Fails unless `emitted` holds exactly the names of `expected`, each once.
pub fn check_emitted<'a>(
    emitted: &[(&'static str, f64)],
    expected: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let mut want: Vec<&str> = expected.collect();
    let mut have: Vec<&str> = emitted.iter().map(|(name, _)| *name).collect();
    want.sort_unstable();
    have.sort_unstable();
    if want != have {
        let missing: Vec<_> = want.iter().filter(|n| !have.contains(n)).collect();
        let extra: Vec<_> = have.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "emitted metrics differ from the manifest: missing {missing:?}, extra or repeated {extra:?}"
        ));
    }
    match emitted.iter().find(|(_, value)| !value.is_finite()) {
        Some((name, value)) => Err(format!("{name} is {value}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_fit_the_manifest_limits() {
        check_tables().unwrap();
        assert_eq!(WORKLOADS.len(), 4);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn emitted_names_must_match_exactly() {
        let names = ["a", "b"];
        assert!(check_emitted(&[("a", 1.0), ("b", 2.0)], names.into_iter()).is_ok());
        assert!(check_emitted(&[("a", 1.0)], names.into_iter()).is_err());
        assert!(check_emitted(&[("a", 1.0), ("b", 2.0), ("b", 3.0)], names.into_iter()).is_err());
        assert!(check_emitted(&[("a", 1.0), ("b", f64::NAN)], names.into_iter()).is_err());
    }
}
