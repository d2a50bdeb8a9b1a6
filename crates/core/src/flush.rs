//! Flushing sealed memory components to level 0.
//!
//! The flush path is where two of the three TRIAD techniques live:
//!
//! * **TRIAD-MEM** (paper §4.1): before writing anything, the sealed memtable is
//!   split into hot and cold entries. Hot entries are written back into the *new*
//!   commit log and re-inserted into the active memtable (unless the application
//!   already overwrote them); only cold entries reach disk.
//! * **TRIAD-LOG** (paper §4.3): the cold entries are not rewritten into an SSTable.
//!   Their values already sit in the sealed commit log, so the flush writes only a
//!   small sorted index of `(key → log offset)` pairs — a CL-SSTable — and the
//!   sealed log is retained as the table's backing store.
//!
//! With both techniques disabled the flush degenerates to the classic LSM behaviour:
//! write every entry into a fresh L0 SSTable and delete the log.

use std::sync::Arc;
use std::time::Instant;

use crate::db::{DbInner, ImmutableMemtable, WalState};
use crate::options::SyncMode;
use crate::version::{FileMetadata, VersionEdit};
use triad_common::failpoint::Failpoint;
use triad_common::types::InternalKey;
use triad_common::Result;
use triad_memtable::{separate_keys, HotColdSplit, LogPosition, MemEntry};
use triad_sstable::{
    cl_index_file_path, sst_file_path, ClTableBuilder, TableBuilder, TableBuilderOptions, TableKind,
};

impl DbInner {
    /// Flushes one sealed memtable and takes it off the pending queue. The
    /// caller collects its retired commit log.
    pub(crate) fn flush_memtable(&self, imm: &Arc<ImmutableMemtable>) -> Result<()> {
        self.flush_one(imm)?;
        self.imm.write().retain(|m| !Arc::ptr_eq(m, imm));
        Ok(())
    }

    fn table_builder_options(&self) -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: self.options.block_size,
            bloom_bits_per_key: self.options.bloom_bits_per_key,
        }
    }

    /// Flushes a single sealed memtable.
    fn flush_one(&self, imm: &Arc<ImmutableMemtable>) -> Result<()> {
        let started = Instant::now();
        self.failpoints.check(Failpoint::FlushStart)?;
        let triad = &self.options.triad;
        let entries = imm.memtable.snapshot_entries();
        if entries.is_empty() {
            // Nothing to persist, but the recovery horizon must still advance in
            // the manifest *before* the sealed log goes away — otherwise recovery
            // would depend on tolerating a missing log, and a crash between seal
            // and deletion would replay a log whose (empty) contents the version
            // chain already claims to cover.
            let edit = VersionEdit { log_number: Some(imm.wal_id + 1), ..Default::default() };
            {
                let mut versions = self.versions.lock();
                let new_version = versions.log_and_apply(edit)?;
                *self.current_version.write() = new_version;
            }
            self.stamps.note_graduated(self.shard_index, imm.wal_id + 1);
            self.retire_log(imm.wal_id);
            return Ok(());
        }
        let max_seqno = entries.iter().map(|(_, e)| e.seqno).max().unwrap_or(0);

        // TRIAD-MEM: split hot from cold.
        let HotColdSplit { hot, mut cold } = if triad.mem_enabled {
            separate_keys(entries, triad.hot_key_policy)
        } else {
            HotColdSplit { hot: Vec::new(), cold: entries }
        };

        // Hot write-back: durability first (append to the current log), then
        // visibility (re-insert into the active memtable unless overwritten).
        //
        // Holding the WAL lock freezes the memory component: no writer can append,
        // rotate the log or seal the memtable while hot entries are re-installed.
        // A hot entry cannot be re-installed when any *newer* memory component —
        // the active memtable or an immutable memtable sealed after the one being
        // flushed — already holds a newer version of the key (the memtable keeps
        // one slot per key, and re-inserting would shadow the newer version).
        // Such entries are *demoted to the cold set* rather than dropped: a reader
        // whose snapshot predates the newer version must still be able to reach
        // them, through the table this flush installs; the next compaction's dedup
        // discards them.
        if !hot.is_empty() {
            self.failpoints.check(Failpoint::FlushHotWriteBack)?;
            let mut demoted: Vec<(Vec<u8>, MemEntry)> = Vec::new();
            let mut wal = self.wal.lock();
            let active_mem = self.mem.read().clone();
            let newer_imms: Vec<Arc<ImmutableMemtable>> =
                self.imm.read().iter().filter(|other| !Arc::ptr_eq(other, imm)).cloned().collect();
            // Frame every retained entry into the shared batch buffer first, then
            // append the lot with one buffered write — the same single-write
            // discipline as the commit path, so a big hot set does not turn
            // into thousands of small writes under the WAL lock.
            let mut retained: Vec<(Vec<u8>, MemEntry, u64)> = Vec::new();
            wal.encoder.clear();
            for (key, entry) in hot {
                let shadowed_by_newer_imm = newer_imms.iter().any(|other| {
                    other
                        .memtable
                        .get(&key, u64::MAX)
                        .map(|newer| newer.seqno >= entry.seqno)
                        .unwrap_or(false)
                });
                let shadowed_by_active = active_mem
                    .get(&key, u64::MAX)
                    .map(|newer| newer.seqno >= entry.seqno)
                    .unwrap_or(false);
                if shadowed_by_newer_imm || shadowed_by_active {
                    demoted.push((key, entry));
                    continue;
                }
                let rel = wal.encoder.add_parts(entry.seqno, entry.kind, &key, &entry.value)?;
                retained.push((key, entry, rel));
            }
            let WalState { writer, encoder, id, .. } = &mut *wal;
            let start = writer.append_batch(encoder)?;
            self.stats.add_wal_appends(retained.len() as u64);
            self.stats.add_wal_bytes_written(encoder.encoded_bytes());
            self.stats.add_hot_entries_retained(retained.len() as u64);
            let log_id = *id;
            let sync_write_back =
                !retained.is_empty() && self.options.sync_mode != SyncMode::NoSync;
            for (key, mut entry, rel) in retained {
                entry.log_position = LogPosition { log_id, offset: start + rel };
                active_mem.insert_entry_if_older(&key, entry);
            }
            wal.writer.flush()?;
            // Sync, not just flush, when writes are acknowledged durable: the
            // sealed log retired below may hold the only durable copy of a
            // sync-acknowledged hot key, and the write-back must be on disk
            // before its predecessor goes (the small-flush skip fsyncs its
            // rewrite before it retires the old log for the same reason).
            if sync_write_back {
                wal.writer.sync()?;
                self.stats.add_wal_syncs(1);
            }
            drop(wal);
            if !demoted.is_empty() {
                // Table builders require ascending keys; demoted entries keep their
                // original log positions, so CL-table eligibility is unaffected.
                cold.extend(demoted);
                cold.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }

        // Persist the cold entries (if any).
        let mut added_file = None;
        if !cold.is_empty() {
            self.failpoints.check(Failpoint::FlushBeforeTableWrite)?;
            let use_cl_table = triad.log_enabled
                && cold.iter().all(|(_, entry)| entry.log_position.log_id == imm.wal_id);
            added_file = Some(if use_cl_table {
                self.build_cl_table(imm.wal_id, &cold)?
            } else {
                self.build_flush_sstable(&cold)?
            });
            self.stats.add_entries_flushed(cold.len() as u64);
        }

        // Record the new file (and counters) in the manifest. The sealed log is
        // only needed past this point if a CL-SSTable references it; otherwise it
        // is retired *before* the edit installs, so by the time the new version is
        // visible the GC queue already covers it (it is deleted once this memtable
        // leaves the pending queue).
        self.failpoints.check(Failpoint::FlushBeforeManifest)?;
        let keeps_log =
            added_file.as_ref().map(|f| f.backing_log_id == Some(imm.wal_id)).unwrap_or(false);
        if !keeps_log {
            self.retire_log(imm.wal_id);
        }
        let mut edit = VersionEdit {
            last_seqno: Some(max_seqno),
            log_number: Some(imm.wal_id + 1),
            ..Default::default()
        };
        if let Some(file) = added_file.clone() {
            edit.added.push(file);
        }
        {
            let mut versions = self.versions.lock();
            versions.set_last_seqno(max_seqno);
            let new_version = versions.log_and_apply(edit)?;
            *self.current_version.write() = new_version;
        }

        // The recovery horizon just moved past this memtable's log: every
        // cross-shard slice at or below it is now owned by the version chain,
        // which may settle batches and release their evidence logs.
        self.stamps.note_graduated(self.shard_index, imm.wal_id + 1);

        // Warm the table cache so the first readers of the new version skip the
        // open cost. Done after the install (a failure between table write and
        // manifest commit must not leave a handle for an orphaned file behind)
        // and best-effort: the flush has already committed, so a transient open
        // failure here must not make it "fail" and re-run — readers will open the
        // table on demand and surface any real corruption then.
        if let Some(file) = &added_file {
            let _ = self.table_cache.get_or_open(file);
        }

        self.stats.add_flush_count(1);
        self.stats.add_flush_duration(started.elapsed());
        Ok(())
    }

    /// Writes the cold entries into a regular L0 SSTable.
    fn build_flush_sstable(&self, cold: &[(Vec<u8>, MemEntry)]) -> Result<FileMetadata> {
        let file_id = self.versions.lock().allocate_file_number();
        let path = sst_file_path(&self.path, file_id);
        let mut builder = TableBuilder::create(&path, self.table_builder_options())?;
        for (key, entry) in cold {
            let ikey = InternalKey::new(key.clone(), entry.seqno, entry.kind);
            builder.add(&ikey, &entry.value)?;
        }
        let (props, size) = builder.finish()?;
        self.stats.add_bytes_flushed(size);
        self.stats.add_logical_bytes_flushed(size);
        Ok(FileMetadata {
            id: file_id,
            level: 0,
            kind: TableKind::Block,
            size,
            num_entries: props.num_entries,
            smallest: props.smallest.clone().expect("non-empty flush"),
            largest: props.largest.clone().expect("non-empty flush"),
            hll: props.hll.clone(),
            backing_log_id: None,
        })
    }

    /// Writes only the `(key → offset)` index over the sealed commit log (TRIAD-LOG).
    fn build_cl_table(&self, wal_id: u64, cold: &[(Vec<u8>, MemEntry)]) -> Result<FileMetadata> {
        let file_id = self.versions.lock().allocate_file_number();
        let index_path = cl_index_file_path(&self.path, file_id);
        let mut builder =
            ClTableBuilder::create(&index_path, self.table_builder_options(), wal_id)?;
        for (key, entry) in cold {
            let ikey = InternalKey::new(key.clone(), entry.seqno, entry.kind);
            builder.add(&ikey, entry.log_position.offset, entry.value.len() as u64)?;
        }
        let (props, size) = builder.finish()?;
        // The whole point of TRIAD-LOG: only the index counts as flush I/O, because
        // the values were already written once by the commit log. For the
        // write-amplification metric, however, the data that logically entered L0 is
        // the index plus the key/value bytes it references (same convention as the
        // paper, which keeps TRIAD's WA comparable with the baseline's).
        self.stats.add_bytes_flushed(size);
        self.stats.add_logical_bytes_flushed(size + props.raw_key_bytes + props.raw_value_bytes);
        Ok(FileMetadata {
            id: file_id,
            level: 0,
            kind: TableKind::CommitLogIndex,
            size,
            num_entries: props.num_entries,
            smallest: props.smallest.clone().expect("non-empty flush"),
            largest: props.largest.clone().expect("non-empty flush"),
            hll: props.hll.clone(),
            backing_log_id: Some(wal_id),
        })
    }
}
