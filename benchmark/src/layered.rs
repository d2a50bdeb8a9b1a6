//! The traced run (`--trace 1`): the workload at a quarter of its length with
//! a span around every call into a layer, one delta of the engine's own
//! counters over the timed phase, and the layer replays. Produces every
//! per-layer metric and `out/<workload>.trace.jsonl`; no end-to-end metric
//! comes from here.

use std::time::Instant;

use crate::engine::{layers, Result};
use crate::gen::{OpStream, StreamSpec};
use crate::run::{self, merged};
use crate::summary::{median, quantile};
use crate::trace::{self, Coverage, NoSpans, Recorder, SpanName};
use crate::workload::{ReadKind, CLIENTS};
use crate::{Outcome, Plan};

/// The traced run executes `1 / TRACE_DIVISOR` of the measured run's ops.
const TRACE_DIVISOR: u64 = 4;

/// Puts the layer replays are fed, drawn like the workload's own puts.
const REPLAY_PUTS: usize = 40_000;

/// An op slower than this is a stall.
const STALL_NS: u32 = 10_000_000;

fn micros(nanos: f64) -> f64 {
    nanos / 1e3
}

/// `<prefix>_p50`, `_p99`, `_p999` and `_max` of one engine call, in µs.
fn call_latencies(
    recorders: &[Recorder],
    name: SpanName,
    names: [&'static str; 4],
) -> layers::Metrics {
    let nanos = Recorder::durations(recorders, name);
    names
        .into_iter()
        .zip([0.50, 0.99, 0.999, 1.0])
        .map(|(metric, q)| (metric, micros(quantile(&nanos, q))))
        .collect()
}

pub fn measure(plan: &Plan) -> Result<Outcome> {
    let workload = plan.workload;
    let spec = workload.stream_spec(plan.seconds, TRACE_DIVISOR);
    let stream = OpStream::generate(&spec, CLIENTS, plan.seed);
    let fingerprint = stream.fingerprint();
    let dir = plan.db_dir();
    std::fs::create_dir_all(&plan.out).map_err(|e| format!("creating out/: {e}"))?;

    // The same ops untraced, for the tracing overhead.
    let (mut session, _) = run::setup(&dir, workload, &mut NoSpans)?;
    session.warm_up(&stream.clients, plan.seconds);
    let mut no_spans: Vec<NoSpans> = stream.clients.iter().map(|_| NoSpans).collect();
    let untraced = session.timed(&stream.clients, &mut no_spans, plan.seconds)?;
    let untraced_reads = merged(&session.clients, |c| &c.read_ns);
    let untraced_writes = merged(&session.clients, |c| &c.write_ns);
    let peak_rss = crate::os::peak_rss_bytes().map_err(|e| format!("/proc/self/status: {e}"))?;
    session.store.close()?;

    let epoch = Instant::now();
    let mut phases = Recorder::new(epoch, 16);
    let (mut session, _) = run::setup(&dir, workload, &mut phases)?;
    session.warm_up(&stream.clients, plan.seconds);
    let mut recorders: Vec<Recorder> =
        stream.clients.iter().map(|ops| Recorder::new(epoch, ops.len() * 4)).collect();
    let before = session.store.counters();
    let timed = session.timed(&stream.clients, &mut recorders, plan.seconds)?;
    let after = session.store.counters();
    session.drain(&timed, &mut phases)?;

    let mut metrics = after.layer_metrics(&before, timed.wall);
    let checkpoint_dir = plan.out.join(format!("checkpoint-{}", std::process::id()));
    metrics.extend(session.store.snapshot_and_checkpoint_metrics(&checkpoint_dir)?);
    let (reopens, clients) = session.reopen_and_verify(plan.seed)?;
    metrics.push(("client.read_p99_us", micros(quantile(&untraced_reads, 0.99))));
    metrics.push(("client.write_p99_us", micros(quantile(&untraced_writes, 0.99))));
    metrics.push(("client.peak_rss_mb", peak_rss as f64 / 1e6));
    metrics.push(("client.reopen_ms", median(reopens).as_secs_f64() * 1e3));

    let trace_path = plan.out.join(format!("{}.trace.jsonl", workload.name));
    trace::write_jsonl(&trace_path, recorders.iter().chain([&phases]))
        .map_err(|e| format!("writing the trace: {e}"))?;

    metrics.extend(call_latencies(
        &recorders,
        SpanName::DbPut,
        ["core.db.put_us_p50", "core.db.put_us_p99", "core.db.put_us_p999", "core.db.put_us_max"],
    ));
    metrics.extend(call_latencies(
        &recorders,
        SpanName::DbGet,
        ["core.db.get_us_p50", "core.db.get_us_p99", "core.db.get_us_p999", "core.db.get_us_max"],
    ));
    let scan_opens = Recorder::durations(&recorders, SpanName::DbScanOpen);
    metrics.push(("core.db.scan_open_us_p50", micros(quantile(&scan_opens, 0.5))));
    let drained: u64 = Recorder::durations(&recorders, SpanName::IteratorDrain).iter().sum();
    let entries: u64 = clients.iter().map(|c| c.scanned_entries).sum();
    metrics.push((
        "core.iterator.next_ns_per_entry",
        if entries == 0 { 0.0 } else { drained as f64 / entries as f64 },
    ));
    // Of set-up and drain, in the order they ran: open, flush, compaction
    // drain, close, reopen, then the drain's flush and compaction drain.
    let phase_ms = |name: SpanName, nth: usize| {
        let span = phases.spans.iter().filter(|s| s.name == name).nth(nth);
        span.map_or(0.0, |s| s.nanos() as f64 / 1e6)
    };
    metrics.push(("core.db.open_ms", phase_ms(SpanName::DbOpen, 0)));
    metrics.push(("core.db.reopen_ms", phase_ms(SpanName::DbReopen, 0)));
    metrics.push(("core.db.close_ms", phase_ms(SpanName::DbClose, 0)));
    metrics.push(("core.db.flush_ms", phase_ms(SpanName::DbFlush, 1)));
    metrics.push(("core.db.compaction_drain_ms", phase_ms(SpanName::DbCompactionDrain, 1)));

    let mut latencies = merged(&clients, |c| &c.read_ns);
    latencies.extend(merged(&clients, |c| &c.write_ns));
    let stalls = latencies.iter().filter(|&&ns| ns > STALL_NS);
    let stalled_ns: u64 = stalls.clone().map(|&ns| u64::from(ns)).sum();
    let client_ns = timed.wall.as_nanos() as f64 * CLIENTS as f64;
    metrics.push(("client.stall_ops_over_10ms", stalls.count() as f64));
    metrics.push(("client.stall_time_share", stalled_ns as f64 / client_ns));

    let coverage = Coverage::of(&recorders);
    // Op time outside engine calls: value generation, verification, timers.
    metrics.push((
        "bench.harness_self_share",
        1.0 - coverage.engine_ns as f64 / coverage.root_ns as f64,
    ));
    // Share of the clients' time inside some op's root span; the rest is the
    // loop between ops and the wait for the slower client at the end.
    metrics.push(("bench.span_coverage", coverage.root_ns as f64 / client_ns));
    let rate = |t: &run::Timed| t.ops as f64 / t.wall.as_secs_f64();
    metrics.push(("bench.trace_overhead_share", 1.0 - rate(&timed) / rate(&untraced)));
    metrics.push(("bench.op_stream_fnv32", f64::from((fingerprint ^ (fingerprint >> 32)) as u32)));

    let replay_spec = StreamSpec { read_percent: 0, ops_per_client: REPLAY_PUTS, ..spec };
    let replay_stream = OpStream::generate(&replay_spec, 1, plan.seed);
    let puts: Vec<u64> = replay_stream.clients[0].iter().map(|op| op.key()).collect();
    let replay_dir = plan.out.join(format!("replay-{}", std::process::id()));
    metrics.extend(layers::replay(&puts, &replay_dir)?);

    for scratch in [&dir, &checkpoint_dir, &replay_dir] {
        std::fs::remove_dir_all(scratch)
            .map_err(|e| format!("removing {}: {e}", scratch.display()))?;
    }
    let reads = match workload.read_kind {
        ReadKind::Get => "gets",
        ReadKind::Scan => "scans",
    };
    let notes = vec![
        format!("op stream fnv-1a {fingerprint:016x} (1/{TRACE_DIVISOR} length)"),
        format!("traced timed phase {:.3} s, {} ops; reads are {reads}", timed.wall.as_secs_f64(), timed.ops),
        format!(
            "root spans cover {:.1}% of client time: {:.1}% engine calls, {:.1}% verify, {:.1}% root self time",
            100.0 * coverage.root_ns as f64 / client_ns,
            100.0 * coverage.engine_ns as f64 / client_ns,
            100.0 * coverage.other_child_ns as f64 / client_ns,
            100.0 * (coverage.root_ns - coverage.engine_ns - coverage.other_child_ns) as f64
                / client_ns,
        ),
        format!("spans written to {}", trace_path.display()),
    ];
    Ok(Outcome {
        attempted: clients.iter().map(|c| c.attempted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        metrics,
        notes,
    })
}
