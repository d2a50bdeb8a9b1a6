//! Smoke test for the `triad` façade: the `examples/quickstart.rs` lifecycle —
//! open, put, get, batch, flush, scan, close, reopen — exercised end-to-end
//! through the re-exported API only, never through `triad_core` directly.

use triad::{Db, Options, WriteBatch, WriteOptions};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("triad-smoke-{tag}-{}", std::process::id()))
}

#[test]
fn quickstart_lifecycle_through_the_facade() {
    let dir = unique_dir("quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // Open with all three TRIAD techniques enabled, as the quickstart does.
    let options = Options::triad();
    let db = Db::open(&dir, options.clone()).unwrap();

    // Point writes, overwrites and deletes.
    db.put(b"user:1:name", b"Ada Lovelace").unwrap();
    db.put(b"user:1:email", b"ada@example.com").unwrap();
    db.put(b"user:2:name", b"Alan Turing").unwrap();
    db.put(b"user:1:email", b"lovelace@example.com").unwrap();
    db.delete(b"user:2:name").unwrap();

    assert_eq!(db.get(b"user:1:name").unwrap().as_deref(), Some(&b"Ada Lovelace"[..]));
    assert_eq!(db.get(b"user:1:email").unwrap().as_deref(), Some(&b"lovelace@example.com"[..]));
    assert!(db.get(b"user:2:name").unwrap().is_none());

    // An MVCC snapshot freezes the view: later writes, overwrites and deletes
    // are invisible through it, while the live handle moves on.
    let snapshot = db.snapshot();
    db.put(b"user:1:email", b"countess@example.com").unwrap();
    db.put(b"user:3:name", b"Grace Hopper").unwrap();
    db.delete(b"user:1:name").unwrap();
    assert_eq!(
        snapshot.get(b"user:1:email").unwrap().as_deref(),
        Some(&b"lovelace@example.com"[..]),
        "the snapshot keeps the pre-overwrite value"
    );
    assert_eq!(snapshot.get(b"user:3:name").unwrap(), None, "post-snapshot keys are invisible");
    assert_eq!(
        snapshot.get(b"user:1:name").unwrap().as_deref(),
        Some(&b"Ada Lovelace"[..]),
        "a post-snapshot delete does not reach the snapshot"
    );
    let frozen: Vec<(Vec<u8>, Vec<u8>)> = snapshot.scan().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(frozen.len(), 2, "snapshot scan sees exactly the two keys live at its seqno");
    assert_eq!(db.get(b"user:1:email").unwrap().as_deref(), Some(&b"countess@example.com"[..]));
    assert!(db.get(b"user:1:name").unwrap().is_none());
    assert!(db.stats().snapshots_created >= 1);
    drop(snapshot);

    // A batched write lands atomically.
    let mut batch = WriteBatch::new();
    for i in 0..1_000u32 {
        batch.put(format!("metric:{i:05}").into_bytes(), format!("{}", i * 7).into_bytes());
    }
    db.write(batch, WriteOptions::default()).unwrap();

    // Flush, then scan everything back: 2 user keys + 1000 metrics.
    db.flush().unwrap();
    let live = db.scan().unwrap().collect::<triad::Result<Vec<_>>>().unwrap();
    assert_eq!(live.len(), 1_002);

    // The stats registry observed the writes (puts only; deletes count separately).
    let stats = db.stats();
    assert!(stats.user_writes >= 1_004);
    assert!(stats.wal_bytes_written > 0);
    db.close().unwrap();

    // Reopen: every write (including the tombstones) survives the restart.
    let db = Db::open(&dir, options).unwrap();
    assert_eq!(db.get(b"user:1:email").unwrap().as_deref(), Some(&b"countess@example.com"[..]));
    assert!(db.get(b"user:1:name").unwrap().is_none());
    assert!(db.get(b"user:2:name").unwrap().is_none());
    assert_eq!(db.get(b"metric:00999").unwrap().as_deref(), Some(&b"6993"[..]));
    let live = db.scan().unwrap().collect::<triad::Result<Vec<_>>>().unwrap();
    assert_eq!(live.len(), 1_002);
    db.close().unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_constant_matches_the_workspace() {
    assert_eq!(triad::VERSION, "0.1.0");
}
