// lint-fixture: crates/core/src/commit.rs
// The append-stage markers vanished entirely, and the generic region below is
// opened but never closed.

fn append_stage(&self) {
    let written = wal.writer.append_batch(encoder);
}

// LINT-REGION: dangling-invariant
fn custom(&self) {}
