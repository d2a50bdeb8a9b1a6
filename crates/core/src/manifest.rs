//! The manifest: durable history of version edits.
//!
//! Every flush and compaction appends a [`VersionEdit`] to the manifest before the
//! new version becomes visible, so that the file layout of the LSM tree survives a
//! crash. On open, the manifest is replayed to rebuild the current [`Version`]; a
//! fresh manifest containing a single snapshot edit is then written (and the
//! `CURRENT` pointer updated atomically), which keeps manifests from growing without
//! bound and tolerates torn writes at the tail of the previous manifest.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use triad_common::{Error, Result};
use triad_wal::{LogReader, LogRecord, LogWriter};

use crate::version::{Version, VersionEdit};

/// Name of the pointer file identifying the live manifest.
const CURRENT_FILE: &str = "CURRENT";

/// Returns the file name of manifest number `id`.
fn manifest_file_name(id: u64) -> String {
    format!("MANIFEST-{id:06}")
}

/// Tracks the current [`Version`] plus the counters shared by the whole engine, and
/// persists every change to the manifest.
#[derive(Debug)]
pub struct VersionSet {
    dir: PathBuf,
    current: Arc<Version>,
    next_file_number: u64,
    last_seqno: u64,
    /// Oldest commit log whose contents are not yet captured by the tables of the
    /// current version (logs older than this are replayed only if a CL-SSTable
    /// references them).
    log_number: u64,
    manifest: LogWriter,
    manifest_id: u64,
    /// Weak handles to every installed version that may still be pinned by a reader
    /// (or by the engine itself for the current version). A version counts as live
    /// while any `Arc<Version>` clone of it survives; garbage collection consults
    /// this registry to decide which files are still reachable. Dead entries are
    /// pruned on every installation and on every [`live_versions`] call.
    ///
    /// [`live_versions`]: VersionSet::live_versions
    live: Vec<Weak<Version>>,
}

impl VersionSet {
    /// Recovers (or initialises) the version set stored in `dir`.
    pub fn recover(dir: impl AsRef<Path>, num_levels: usize) -> Result<VersionSet> {
        let dir = dir.as_ref().to_path_buf();
        let mut version = Version::empty(num_levels);
        let mut next_file_number = 1u64;
        let mut last_seqno = 0u64;
        let mut log_number = 0u64;

        let current_path = dir.join(CURRENT_FILE);
        if current_path.exists() {
            let manifest_name = std::fs::read_to_string(&current_path)
                .map_err(|e| Error::io(format!("reading {}", current_path.display()), e))?;
            let manifest_path = dir.join(manifest_name.trim());
            if manifest_path.exists() {
                let reader = LogReader::open(&manifest_path)?;
                let (records, _tail) = reader.recover()?;
                for record in records {
                    let edit = VersionEdit::decode(&record.record.value)?;
                    version = version.apply(&edit)?;
                    if let Some(n) = edit.next_file_number {
                        next_file_number = next_file_number.max(n);
                    }
                    if let Some(s) = edit.last_seqno {
                        last_seqno = last_seqno.max(s);
                    }
                    if let Some(l) = edit.log_number {
                        log_number = log_number.max(l);
                    }
                }
            }
        }

        // Start a fresh manifest holding a snapshot of the recovered state.
        let manifest_id = next_file_number;
        next_file_number += 1;
        let manifest_path = dir.join(manifest_file_name(manifest_id));
        if manifest_path.exists() {
            // A manifest is not a table or log, so no version references it.
            #[allow(clippy::disallowed_methods)]
            std::fs::remove_file(&manifest_path)
                .map_err(|e| Error::io(format!("removing stale {}", manifest_path.display()), e))?;
        }
        let mut manifest = LogWriter::create(&manifest_path, manifest_id)?;
        let snapshot = VersionEdit {
            added: version.levels.iter().flatten().map(|f| f.as_ref().clone()).collect(),
            deleted: Vec::new(),
            next_file_number: Some(next_file_number),
            last_seqno: Some(last_seqno),
            log_number: Some(log_number),
        };
        manifest.append(&LogRecord::put(0, b"edit".to_vec(), snapshot.encode()))?;
        manifest.sync()?;
        Self::set_current(&dir, manifest_id)?;
        Self::remove_stale_manifests(&dir, manifest_id)?;

        let current = Arc::new(version);
        let live = vec![Arc::downgrade(&current)];
        Ok(VersionSet {
            dir,
            current,
            next_file_number,
            last_seqno,
            log_number,
            manifest,
            manifest_id,
            live,
        })
    }

    /// Writes a fresh manifest into `dir` — a single snapshot edit describing
    /// `version` plus the counters — and installs the `CURRENT` pointer.
    ///
    /// This is checkpoint capture's building block: the checkpoint directory
    /// gets a manifest equivalent to what [`VersionSet::recover`] would write
    /// for the captured state, so opening the checkpoint recovers exactly the
    /// linked files and replays exactly the copied logs (those at or past
    /// `log_number`). `next_file_number` must exceed every file id the
    /// version references (the caller passes the primary's own counter).
    pub(crate) fn write_snapshot_manifest(
        dir: &Path,
        version: &Version,
        next_file_number: u64,
        last_seqno: u64,
        log_number: u64,
    ) -> Result<()> {
        let manifest_id = next_file_number;
        let mut manifest =
            LogWriter::create(dir.join(manifest_file_name(manifest_id)), manifest_id)?;
        let snapshot = VersionEdit {
            added: version.levels.iter().flatten().map(|f| f.as_ref().clone()).collect(),
            deleted: Vec::new(),
            next_file_number: Some(next_file_number + 1),
            last_seqno: Some(last_seqno),
            log_number: Some(log_number),
        };
        manifest.append(&LogRecord::put(0, b"edit".to_vec(), snapshot.encode()))?;
        manifest.sync()?;
        Self::set_current(dir, manifest_id)
    }

    fn set_current(dir: &Path, manifest_id: u64) -> Result<()> {
        let tmp = dir.join(format!("{CURRENT_FILE}.tmp"));
        std::fs::write(&tmp, manifest_file_name(manifest_id))
            .map_err(|e| Error::io(format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, dir.join(CURRENT_FILE))
            .map_err(|e| Error::io("installing CURRENT pointer".to_string(), e))?;
        Ok(())
    }

    fn remove_stale_manifests(dir: &Path, keep_id: u64) -> Result<()> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| Error::io("listing database directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("listing database directory", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(id_str) = name.strip_prefix("MANIFEST-") {
                if let Ok(id) = id_str.parse::<u64>() {
                    if id != keep_id {
                        // Superseded manifests are referenced by no version.
                        #[allow(clippy::disallowed_methods)]
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// The directory this version set lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// The id of the live manifest file (exposed for tests).
    pub fn manifest_id(&self) -> u64 {
        self.manifest_id
    }

    /// The file name of the live manifest.
    pub fn live_manifest_name(&self) -> String {
        manifest_file_name(self.manifest_id)
    }

    /// Every version that is still referenced somewhere — the current version plus
    /// any older version a reader still holds an `Arc` clone of. Prunes dead weak
    /// handles as a side effect.
    pub fn live_versions(&mut self) -> Vec<Arc<Version>> {
        let mut live = Vec::with_capacity(self.live.len());
        self.live.retain(|weak| match weak.upgrade() {
            Some(version) => {
                live.push(version);
                true
            }
            None => false,
        });
        live
    }

    /// Number of versions currently live (exposed for tests and diagnostics).
    pub fn live_version_count(&mut self) -> usize {
        self.live_versions().len()
    }

    /// Allocates a new file number (used for tables, commit logs and manifests).
    pub fn allocate_file_number(&mut self) -> u64 {
        let id = self.next_file_number;
        self.next_file_number += 1;
        id
    }

    /// Makes every later allocation exceed `id`. Commit logs take their
    /// numbers without a manifest edit, so the recovered counter can trail
    /// the logs on disk; the open skips past them before creating its own.
    pub fn skip_file_numbers_through(&mut self, id: u64) {
        self.next_file_number = self.next_file_number.max(id + 1);
    }

    /// The next file number that would be allocated.
    pub fn next_file_number(&self) -> u64 {
        self.next_file_number
    }

    /// The largest sequence number known to be durable in tables or logs.
    pub fn last_seqno(&self) -> u64 {
        self.last_seqno
    }

    /// Advances the recorded last sequence number (kept in memory; persisted on the
    /// next `log_and_apply`).
    pub fn set_last_seqno(&mut self, seqno: u64) {
        self.last_seqno = self.last_seqno.max(seqno);
    }

    /// The oldest commit log that still needs replay on recovery.
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// Appends `edit` to the manifest, syncs it, and applies it to produce the new
    /// current version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        // Always persist the current counters so recovery can restore them.
        edit.next_file_number = Some(edit.next_file_number.unwrap_or(self.next_file_number));
        edit.last_seqno = Some(edit.last_seqno.unwrap_or(self.last_seqno).max(self.last_seqno));
        edit.log_number = Some(edit.log_number.unwrap_or(self.log_number).max(self.log_number));

        let new_version = self.current.apply(&edit)?;
        self.manifest.append(&LogRecord::put(0, b"edit".to_vec(), edit.encode()))?;
        self.manifest.sync()?;

        if let Some(n) = edit.next_file_number {
            self.next_file_number = self.next_file_number.max(n);
        }
        if let Some(s) = edit.last_seqno {
            self.last_seqno = self.last_seqno.max(s);
        }
        if let Some(l) = edit.log_number {
            self.log_number = self.log_number.max(l);
        }
        self.current = Arc::new(new_version);
        self.live.retain(|weak| weak.strong_count() > 0);
        self.live.push(Arc::downgrade(&self.current));
        Ok(Arc::clone(&self.current))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests remove their own scratch files
mod tests {
    use super::*;
    use crate::version::FileMetadata;
    use triad_common::types::{InternalKey, ValueKind};
    use triad_hll::HyperLogLog;
    use triad_sstable::TableKind;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("triad-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file(id: u64, level: u32) -> FileMetadata {
        FileMetadata {
            id,
            level,
            kind: TableKind::Block,
            size: 100,
            num_entries: 5,
            smallest: InternalKey::new(format!("a{id}").into_bytes(), 10, ValueKind::Put),
            largest: InternalKey::new(format!("z{id}").into_bytes(), 1, ValueKind::Put),
            hll: HyperLogLog::new(),
            backing_log_id: None,
        }
    }

    #[test]
    fn fresh_directory_starts_empty() {
        let dir = temp_dir("fresh");
        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.current().total_files(), 0);
        assert_eq!(versions.last_seqno(), 0);
        assert!(dir.join(CURRENT_FILE).exists());
    }

    #[test]
    fn edits_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut versions = VersionSet::recover(&dir, 7).unwrap();
            let id = versions.allocate_file_number();
            versions.set_last_seqno(123);
            versions
                .log_and_apply(VersionEdit { added: vec![file(id, 0)], ..Default::default() })
                .unwrap();
            let id2 = versions.allocate_file_number();
            versions
                .log_and_apply(VersionEdit {
                    added: vec![file(id2, 1)],
                    last_seqno: Some(456),
                    log_number: Some(9),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(versions.current().total_files(), 2);
        }
        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.current().total_files(), 2);
        assert_eq!(versions.current().num_files(0), 1);
        assert_eq!(versions.current().num_files(1), 1);
        assert_eq!(versions.last_seqno(), 456);
        assert_eq!(versions.log_number(), 9);
        assert!(versions.next_file_number() > 2);
    }

    #[test]
    fn deletions_survive_reopen() {
        let dir = temp_dir("delete");
        {
            let mut versions = VersionSet::recover(&dir, 7).unwrap();
            let a = versions.allocate_file_number();
            let b = versions.allocate_file_number();
            versions
                .log_and_apply(VersionEdit {
                    added: vec![file(a, 0), file(b, 0)],
                    ..Default::default()
                })
                .unwrap();
            versions
                .log_and_apply(VersionEdit { deleted: vec![(0, a)], ..Default::default() })
                .unwrap();
            assert_eq!(versions.current().num_files(0), 1);
        }
        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.current().num_files(0), 1);
    }

    #[test]
    fn reopen_rotates_the_manifest_and_cleans_old_ones() {
        let dir = temp_dir("rotate");
        let first_id = {
            let versions = VersionSet::recover(&dir, 7).unwrap();
            versions.manifest_id()
        };
        let second_id = {
            let versions = VersionSet::recover(&dir, 7).unwrap();
            versions.manifest_id()
        };
        assert_ne!(first_id, second_id);
        assert!(!dir.join(manifest_file_name(first_id)).exists(), "old manifest removed");
        assert!(dir.join(manifest_file_name(second_id)).exists());
        let current = std::fs::read_to_string(dir.join(CURRENT_FILE)).unwrap();
        assert_eq!(current.trim(), manifest_file_name(second_id));
    }

    #[test]
    fn file_numbers_are_unique_and_monotonic() {
        let dir = temp_dir("filenum");
        let mut versions = VersionSet::recover(&dir, 7).unwrap();
        let a = versions.allocate_file_number();
        let b = versions.allocate_file_number();
        assert!(b > a);
        // Counters persist across reopen (via log_and_apply of an empty-ish edit).
        versions.log_and_apply(VersionEdit::default()).unwrap();
        drop(versions);
        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert!(versions.next_file_number() > b);
    }

    #[test]
    fn torn_manifest_tail_is_tolerated() {
        let dir = temp_dir("torn");
        {
            let mut versions = VersionSet::recover(&dir, 7).unwrap();
            let id = versions.allocate_file_number();
            versions
                .log_and_apply(VersionEdit { added: vec![file(id, 0)], ..Default::default() })
                .unwrap();
        }
        // Corrupt the tail of the manifest: append garbage bytes.
        let current = std::fs::read_to_string(dir.join(CURRENT_FILE)).unwrap();
        let manifest_path = dir.join(current.trim());
        let mut bytes = std::fs::read(&manifest_path).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        std::fs::write(&manifest_path, bytes).unwrap();

        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.current().total_files(), 1, "intact prefix is recovered");
    }

    #[test]
    fn live_version_registry_tracks_pins() {
        let dir = temp_dir("live-registry");
        let mut versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.live_version_count(), 1, "the current version is always live");

        // A reader holds the pre-edit version across an installation.
        let pinned = versions.current();
        let id = versions.allocate_file_number();
        versions
            .log_and_apply(VersionEdit { added: vec![file(id, 0)], ..Default::default() })
            .unwrap();
        assert_eq!(versions.live_version_count(), 2, "pinned old version stays live");
        let live = versions.live_versions();
        assert!(live.iter().any(|v| Arc::ptr_eq(v, &pinned)));

        // Dropping the pin retires the old version.
        drop(live);
        drop(pinned);
        assert_eq!(versions.live_version_count(), 1);

        // Unpinned versions die immediately on the next installation.
        let id2 = versions.allocate_file_number();
        versions
            .log_and_apply(VersionEdit { added: vec![file(id2, 1)], ..Default::default() })
            .unwrap();
        assert_eq!(versions.live_version_count(), 1);
        assert_eq!(versions.live_versions()[0].total_files(), 2);
    }

    #[test]
    fn missing_current_file_is_treated_as_empty() {
        let dir = temp_dir("missing-current");
        {
            let mut versions = VersionSet::recover(&dir, 7).unwrap();
            let id = versions.allocate_file_number();
            versions
                .log_and_apply(VersionEdit { added: vec![file(id, 0)], ..Default::default() })
                .unwrap();
        }
        std::fs::remove_file(dir.join(CURRENT_FILE)).unwrap();
        let versions = VersionSet::recover(&dir, 7).unwrap();
        assert_eq!(versions.current().total_files(), 0, "without CURRENT the state is empty");
    }
}
