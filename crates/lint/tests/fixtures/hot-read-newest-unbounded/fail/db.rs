// lint-fixture: crates/core/src/db.rs
// The hot read path was rewritten to bound by a just-loaded seqno: the
// unbounded probe is gone and a snapshot-style bounded call appeared.

// HOT-READ-NEWEST-BEGIN
fn hot_read(&self, key: &[u8]) {
    let ceiling = self.last_seqno.load(Ordering::Acquire);
    let hit = memtable.get_at(key, ceiling);
}
// HOT-READ-NEWEST-END
