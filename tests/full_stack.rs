//! Cross-crate integration tests: the workload generators driving the full engine
//! through the public `triad` façade.

use std::collections::BTreeMap;

use triad::workload::{KeyDistribution, Operation, OperationMix, WorkloadGenerator, WorkloadSpec};
use triad::{Db, Options, TriadConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("triad-fullstack-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small options at the shard count `TRIAD_SHARDS` names (CI runs this suite
/// at 1, 2 and 4 shards), else at the engine's default.
fn small_options(triad: TriadConfig) -> Options {
    let mut options = Options {
        memtable_size: 64 * 1024,
        max_log_size: 128 * 1024,
        l1_target_size: 256 * 1024,
        target_file_size: 64 * 1024,
        block_size: 1024,
        l0_compaction_trigger: 2,
        triad,
        ..Options::default()
    };
    if let Some(count) = std::env::var("TRIAD_SHARDS").ok().and_then(|n| n.trim().parse().ok()) {
        options.shards.count = count;
    }
    options
}

/// Drives `db` with a generated workload, mirroring every write into a model map.
fn drive(db: &Db, spec: WorkloadSpec, ops: u64, seed: u64, model: &mut BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut generator = WorkloadGenerator::new(spec, seed);
    for _ in 0..ops {
        match generator.next_op() {
            Operation::Put { key, value } => {
                db.put(&key, &value).unwrap();
                model.insert(key, value);
            }
            Operation::Delete { key } => {
                db.delete(&key).unwrap();
                model.remove(&key);
            }
            Operation::Get { key } => {
                let got = db.get(&key).unwrap();
                assert_eq!(
                    got.as_ref(),
                    model.get(&key),
                    "read diverged from model during the run"
                );
            }
        }
    }
}

fn check_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Every model key reads back exactly; the scan matches the model verbatim.
    for (key, value) in model {
        assert_eq!(
            db.get(key).unwrap().as_ref(),
            Some(value),
            "key {:?}",
            String::from_utf8_lossy(key)
        );
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(scanned.len(), model.len());
    for ((got_key, got_value), (want_key, want_value)) in scanned.iter().zip(model.iter()) {
        assert_eq!(got_key, want_key);
        assert_eq!(got_value, want_value);
    }
}

#[test]
fn skewed_workload_through_the_facade_matches_a_model() {
    let dir = temp_dir("facade-skew");
    let db = Db::open(&dir, small_options(TriadConfig::all_enabled())).unwrap();
    let spec = WorkloadSpec::synthetic(
        KeyDistribution::ws1_high_skew(2_000),
        OperationMix::with_deletes(),
    );
    let mut model = BTreeMap::new();
    drive(&db, spec, 20_000, 1, &mut model);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    check_model(&db, &model);
    db.close().unwrap();
}

#[test]
fn uniform_workload_with_baseline_matches_a_model() {
    let dir = temp_dir("facade-uniform");
    let db = Db::open(&dir, small_options(TriadConfig::baseline())).unwrap();
    let spec =
        WorkloadSpec::synthetic(KeyDistribution::ws3_uniform(3_000), OperationMix::balanced());
    let mut model = BTreeMap::new();
    drive(&db, spec, 15_000, 2, &mut model);
    check_model(&db, &model);
    db.close().unwrap();
}

#[test]
fn model_equivalence_survives_restart_for_every_configuration() {
    for (name, triad) in [
        ("baseline", TriadConfig::baseline()),
        ("mem", TriadConfig::mem_only()),
        ("disk", TriadConfig::disk_only()),
        ("log", TriadConfig::log_only()),
        ("all", TriadConfig::all_enabled()),
    ] {
        let dir = temp_dir(&format!("restart-{name}"));
        let options = small_options(triad);
        let mut model = BTreeMap::new();
        {
            let db = Db::open(&dir, options.clone()).unwrap();
            let spec = WorkloadSpec::synthetic(
                KeyDistribution::ws2_medium_skew(1_500),
                OperationMix::with_deletes(),
            );
            drive(&db, spec, 12_000, 3, &mut model);
            db.close().unwrap();
        }
        let db = Db::open(&dir, options).unwrap();
        check_model(&db, &model);
        db.close().unwrap();
    }
}

#[test]
fn production_profile_runs_end_to_end() {
    use triad::workload::{ProductionProfile, ProductionWorkload};
    let dir = temp_dir("production");
    let db = Db::open(&dir, small_options(TriadConfig::all_enabled())).unwrap();
    let profile = ProductionProfile::new(ProductionWorkload::W2, 10_000);
    let spec = profile.to_spec(OperationMix::new(0.1, 0.9, 0.0));
    let mut model = BTreeMap::new();
    drive(&db, spec, 20_000, 4, &mut model);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    check_model(&db, &model);
    let stats = db.stats();
    assert!(stats.user_writes > 0);
    assert!(stats.bytes_flushed > 0 || stats.small_flush_skips > 0);
    db.close().unwrap();
}

#[test]
fn triad_writes_less_background_io_than_baseline_under_skew() {
    let run = |triad: TriadConfig, name: &str| -> (u64, BTreeMap<Vec<u8>, Vec<u8>>) {
        let dir = temp_dir(name);
        let db = Db::open(&dir, small_options(triad)).unwrap();
        let spec = WorkloadSpec::synthetic(
            KeyDistribution::ws1_high_skew(2_000),
            OperationMix::write_intensive(),
        );
        let mut model = BTreeMap::new();
        drive(&db, spec, 30_000, 5, &mut model);
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        let stats = db.stats();
        check_model(&db, &model);
        db.close().unwrap();
        (stats.bytes_flushed + stats.bytes_compacted_written, model)
    };
    let (baseline_bytes, baseline_model) = run(TriadConfig::baseline(), "io-baseline");
    let (triad_bytes, triad_model) = run(TriadConfig::all_enabled(), "io-triad");
    assert_eq!(
        baseline_model, triad_model,
        "identical op streams must give identical logical state"
    );
    assert!(
        triad_bytes < baseline_bytes,
        "TRIAD background I/O ({triad_bytes}) should be below the baseline ({baseline_bytes})"
    );
}
