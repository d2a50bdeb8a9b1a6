//! Quickstart: open a TRIAD store, write, read, scan and inspect statistics.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use triad::{Db, Options};

fn main() -> triad::Result<()> {
    let dir = std::env::temp_dir().join(format!("triad-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Enable all three TRIAD techniques; `Options::default()` would instead give the
    // RocksDB-like baseline the paper compares against.
    let db = Db::open(&dir, Options::triad())?;

    // Point writes and reads.
    db.put(b"user:1:name", b"Ada Lovelace")?;
    db.put(b"user:1:email", b"ada@example.com")?;
    db.put(b"user:2:name", b"Alan Turing")?;
    println!("user:1:name = {:?}", String::from_utf8_lossy(&db.get(b"user:1:name")?.unwrap()));

    // Overwrites are absorbed in memory; deletes write tombstones.
    db.put(b"user:1:email", b"lovelace@example.com")?;
    db.delete(b"user:2:name")?;
    assert!(db.get(b"user:2:name")?.is_none());

    // MVCC snapshots freeze a consistent view at a commit-group boundary: later
    // writes never reach it, and everything it sees stays readable (and its
    // files un-collected) until the handle drops.
    let snapshot = db.snapshot();
    db.put(b"user:1:email", b"countess@example.com")?;
    assert_eq!(
        snapshot.get(b"user:1:email")?.as_deref(),
        Some(&b"lovelace@example.com"[..]),
        "the snapshot keeps the value from its point in time"
    );
    assert_eq!(db.get(b"user:1:email")?.as_deref(), Some(&b"countess@example.com"[..]));
    println!(
        "snapshot@{} still reads user:1:email = {:?}",
        snapshot.seqno(),
        String::from_utf8_lossy(&snapshot.get(b"user:1:email")?.unwrap())
    );
    drop(snapshot);

    // Batched writes receive consecutive sequence numbers and hit the commit log once.
    let mut batch = triad::WriteBatch::new();
    for i in 0..1_000u32 {
        batch.put(format!("metric:{i:05}").into_bytes(), format!("{}", i * 7).into_bytes());
    }
    db.write(batch, triad::WriteOptions::default())?;

    // Force the memory component to disk and scan everything back in key order.
    db.flush()?;
    let visible = db.scan()?.count();
    println!(
        "store now holds {visible} live keys across {:?} files per level",
        db.files_per_level()
    );

    // The statistics registry exposes the metrics the TRIAD paper is built around.
    let stats = db.stats();
    println!(
        "user writes: {}, WAL bytes: {}, flushed bytes: {}, write amplification: {:.2}",
        stats.user_writes,
        stats.wal_bytes_written,
        stats.bytes_flushed,
        stats.write_amplification()
    );

    db.close()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
