// lint-fixture: crates/core/src/commit.rs
// An fsync crept under the append lock: both the raw handle sync and the
// watermark's ensure_durable are named inside the region.

// PIPELINE-APPEND-STAGE-BEGIN
fn append_stage(&self) {
    let start = wal.writer.append_batch(encoder);
    handle.sync();
    self.watermark.ensure_durable(log_id, target, &handle);
}
// PIPELINE-APPEND-STAGE-END
