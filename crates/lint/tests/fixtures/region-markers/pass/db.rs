// lint-fixture: crates/core/src/db.rs
// The mandatory db.rs region present exactly once, begin before end, plus a
// balanced generic region.

// HOT-READ-NEWEST-BEGIN
fn hot_read(&self, key: &[u8]) {
    let hit = memtable.get(key, u64::MAX);
}
// HOT-READ-NEWEST-END

// LINT-REGION: custom-invariant
fn custom(&self) {}
// LINT-REGION-END: custom-invariant
