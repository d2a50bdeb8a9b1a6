// lint-fixture: crates/core/src/db.rs
// The hot read path probes with the unbounded u64::MAX ceiling.

// HOT-READ-NEWEST-BEGIN
fn hot_read(&self, key: &[u8]) {
    let hit = memtable.get(key, u64::MAX);
    let table_hit = table.get(key, u64::MAX);
}
// HOT-READ-NEWEST-END
