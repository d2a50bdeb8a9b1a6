//! The measured run (`--trace 0`): tracing off, every end-to-end metric.

use std::time::Duration;

use crate::engine::Result;
use crate::gen::{OpStream, RECORD_LEN};
use crate::run::{self, merged};
use crate::summary::{median, quantile};
use crate::trace::NoSpans;
use crate::workload::CLIENTS;
use crate::{Outcome, Plan};

/// Set-up runs several times per run and `setup_s` is the median: at least
/// `MIN_SETUPS` times, and a set-up too short to time well once is repeated
/// until `SETUP_BUDGET` is spent or `MAX_SETUPS` is reached.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

pub fn measure(plan: &Plan) -> Result<Outcome> {
    let workload = plan.workload;
    let stream = OpStream::generate(&workload.stream_spec(plan.seconds, 1), CLIENTS, plan.seed);
    let mut notes = vec![format!("op stream fnv-1a {:016x}", stream.fingerprint())];

    let dir = plan.db_dir();
    let mut setups: Vec<Duration> = Vec::new();
    let mut session: Option<run::Session> = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<Duration>() < SETUP_BUDGET)
    {
        if let Some(previous) = session.take() {
            previous.store.close()?;
        }
        let (fresh, elapsed) = run::setup(&dir, workload, &mut NoSpans)?;
        setups.push(elapsed);
        session = Some(fresh);
    }
    let mut session = session.expect("MIN_SETUPS is at least 1");

    session.warm_up(&stream.clients, plan.seconds);
    let mut spans: Vec<NoSpans> = stream.clients.iter().map(|_| NoSpans).collect();
    let timed = session.timed(&stream.clients, &mut spans, plan.seconds)?;
    let drained = session.drain(&timed, &mut NoSpans)?;
    let (_, clients) = session.reopen_and_verify(plan.seed)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let reads = merged(&clients, |c| &c.read_ns);
    let writes = merged(&clients, |c| &c.write_ns);
    notes.push(format!("set-up ran {} times", setups.len()));
    notes.push(format!("timed phase {:.3} s, {} ops", timed.wall.as_secs_f64(), timed.ops));
    notes.push(format!(
        "samples: {} reads, {} writes, {} of the database directory",
        reads.len(),
        writes.len(),
        timed.disk_samples.len()
    ));
    for (class, sorted) in [("read", &reads), ("write", &writes)] {
        let at = |q| quantile(sorted, q) / 1e3;
        notes.push(format!(
            "{class} latency us: p50 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} p99.9 {:.2} max {:.2}",
            at(0.50),
            at(0.90),
            at(0.95),
            at(0.99),
            at(0.999),
            at(1.0)
        ));
    }
    let cut: u64 = clients.iter().map(|c| c.cut_ops).sum();
    if cut > 0 {
        notes.push(format!("DEADLINE: {cut} ops were not executed"));
    }
    let logical_bytes = (workload.keys * RECORD_LEN) as f64;
    let mean_disk_bytes =
        timed.disk_samples.iter().sum::<u64>() as f64 / timed.disk_samples.len() as f64;
    notes.push(format!(
        "space after drain {:.4} x logical",
        drained.disk_bytes as f64 / logical_bytes
    ));
    let metrics = vec![
        ("setup_s", median(setups).as_secs_f64()),
        ("throughput_ops_s", timed.ops as f64 / timed.wall.as_secs_f64()),
        ("read_p50_us", quantile(&reads, 0.50) / 1e3),
        ("write_p50_us", quantile(&writes, 0.50) / 1e3),
        ("write_amp", drained.written as f64 / timed.user_bytes as f64),
        ("space_amp", mean_disk_bytes / logical_bytes),
        ("cpu_us_per_op", drained.cpu.as_secs_f64() * 1e6 / timed.ops as f64),
    ];
    Ok(Outcome {
        attempted: clients.iter().map(|c| c.attempted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        metrics,
        notes,
    })
}
