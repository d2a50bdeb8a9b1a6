// lint-fixture: crates/core/src/commit.rs
// The append stage only encodes, appends and OS-flushes; durability happens
// elsewhere, so nothing here names a durable-sync call.

// PIPELINE-APPEND-STAGE-BEGIN
fn append_stage(&self) {
    let rel = encoder.add_parts(seqno, kind, key, value);
    let start = wal.writer.append_batch(encoder);
    wal.writer.flush();
}
// PIPELINE-APPEND-STAGE-END
