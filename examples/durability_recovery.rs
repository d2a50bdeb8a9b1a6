//! Durability and crash recovery walk-through.
//!
//! Writes a dataset, closes the store at an arbitrary point (some data flushed to
//! SSTables / CL-SSTables, some still only in the commit log), corrupts the tail of
//! the newest log to simulate a torn write during a crash, and then reopens the
//! store to show that every acknowledged-and-synced write is still there.
//!
//! Run with:
//! ```text
//! cargo run --release --example durability_recovery
//! ```

use triad::{Db, Options};

fn main() -> triad::Result<()> {
    let dir = std::env::temp_dir().join(format!("triad-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let options =
        Options { memtable_size: 256 * 1024, max_log_size: 512 * 1024, ..Options::triad() };

    // Phase 1: write two generations of data; the first is flushed, the second stays
    // in the memory component + commit log.
    {
        let db = Db::open(&dir, options.clone())?;
        for i in 0..5_000u64 {
            db.put(format!("order:{i:06}").into_bytes(), format!("v1-{i}").into_bytes())?;
        }
        db.flush()?;
        // The delete goes in before the updates: the torn-write simulation below
        // destroys the log's final record, and losing an unsynced tombstone would
        // (correctly!) resurrect the key — the assertions tolerate losing only the
        // newest v2 update.
        db.delete(b"order:004999")?;
        for i in 0..1_000u64 {
            db.put(format!("order:{i:06}").into_bytes(), format!("v2-{i}").into_bytes())?;
        }
        db.close()?;
        println!("wrote 5000 orders, deleted one, updated 1000 of them, then shut down");
    }

    // Phase 2: simulate a torn append at the tail of the newest commit log, as a
    // crash in the middle of a write would leave behind.
    let mut logs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    logs.sort();
    if let Some(newest) = logs.last() {
        let len = std::fs::metadata(newest).unwrap().len();
        if len > 5 {
            std::fs::OpenOptions::new().write(true).open(newest).unwrap().set_len(len - 5).unwrap();
            println!("truncated {} by 5 bytes to simulate a torn write", newest.display());
        }
    }

    // Phase 3: recovery. The torn record is discarded; everything else survives.
    let db = Db::open(&dir, options)?;
    let mut v1 = 0u64;
    let mut v2 = 0u64;
    for i in 0..5_000u64 {
        match db.get(format!("order:{i:06}").into_bytes())? {
            Some(value) if value.starts_with(b"v2-") => v2 += 1,
            Some(value) if value.starts_with(b"v1-") => v1 += 1,
            Some(_) => unreachable!("unexpected value format"),
            None => assert_eq!(i, 4_999, "only the deleted order may be absent"),
        }
    }
    println!(
        "after recovery: {v2} orders at version 2, {v1} at version 1, deleted order still absent"
    );
    assert!(v2 >= 999, "at most the single torn record may be lost");
    assert_eq!(v1 + v2, 4_999);

    db.close()?;
    std::fs::remove_dir_all(&dir).ok();
    println!("recovery successful");
    Ok(())
}
