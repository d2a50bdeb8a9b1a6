// lint-fixture: crates/core/src/commit.rs
// The mandatory commit.rs region present exactly once, begin before end.

// PIPELINE-APPEND-STAGE-BEGIN
fn append_stage(&self) {
    let written = wal.writer.append_batch(encoder);
}
// PIPELINE-APPEND-STAGE-END
