//! Leveled compaction, including TRIAD-DISK's deferred L0→L1 compaction.
//!
//! Compaction keeps the tree shaped: L0 is bounded by file count, deeper levels by
//! total size. The baseline triggers an L0→L1 compaction as soon as
//! `l0_compaction_trigger` files accumulate. TRIAD-DISK (paper §4.2) instead
//! estimates, from the per-file HyperLogLog sketches, how many duplicate keys the
//! candidate files share (the *overlap ratio*) and defers the compaction until the
//! ratio reaches a threshold — unless L0 has hit its hard file cap, or the files
//! share no keys. Files that share no keys, such as a bulk load's CL-SSTables,
//! must each be rewritten into a table once whenever they compact, so deferring
//! them saves nothing; waiting only lets a later flush that spans L1 pull all of
//! L1 into one bigger job. Such an L0 compacts at the baseline trigger
//! ([`CompactionJob::worth_deferring`]).

use std::sync::Arc;
use std::time::Instant;

use triad_common::failpoint::Failpoint;
use triad_common::{Error, Result};
use triad_hll::overlap_ratio;
use triad_sstable::{
    sst_file_path, BoxedCursor, DedupCursor, EntryCursor, MergingCursor, TableBuilder,
    TableBuilderOptions, TableKind,
};

use crate::db::DbInner;
use crate::options::Options;
use crate::version::{FileMetadata, Version, VersionEdit};

/// A picked compaction: the input files and the level they compact into.
#[derive(Debug)]
pub(crate) struct CompactionJob {
    /// Level the compaction starts from.
    pub source_level: usize,
    /// Files taken from `source_level`.
    pub inputs_lower: Vec<Arc<FileMetadata>>,
    /// Overlapping files taken from `source_level + 1`.
    pub inputs_upper: Vec<Arc<FileMetadata>>,
}

impl CompactionJob {
    /// The level the outputs are written to.
    pub fn target_level(&self) -> usize {
        self.source_level + 1
    }

    /// Every input file, lower level first.
    pub fn all_inputs(&self) -> impl Iterator<Item = &Arc<FileMetadata>> {
        self.inputs_lower.iter().chain(self.inputs_upper.iter())
    }

    /// TRIAD-DISK's bet on an L0 job: wait while the overlap ratio of its
    /// inputs is below `threshold`, so that a later merge drops more
    /// duplicates. The bet cannot pay when the L0 files share no keys (the
    /// ratio reads as zero) and the job rewrites no more L1 entries than L0
    /// brings: every L0 entry must be rewritten once anyway, and waiting only
    /// lets a later flush that spans L1 pull more of L1 into the job. When
    /// the L1 inputs outweigh L0, the bet stands: waiting spreads their
    /// rewrite over more L0 files, and a ratio diluted by L1's keys cannot
    /// tell keys L0 shares with L1 from none. Unusable sketches never defer.
    fn worth_deferring(&self, threshold: f64) -> bool {
        let Ok(estimate) = overlap_ratio(self.all_inputs().map(|f| (&f.hll, f.num_entries))) else {
            return false;
        };
        let entries =
            |files: &[Arc<FileMetadata>]| files.iter().map(|f| f.num_entries).sum::<u64>();
        let shares_no_keys =
            estimate.is_zero() && entries(&self.inputs_upper) <= entries(&self.inputs_lower);
        !shares_no_keys && estimate.ratio < threshold
    }

    /// The file to move instead of rewrite: the job's one input, when it is a
    /// regular table and nothing on the target level overlaps it. A rewrite
    /// would copy it byte for byte. CL-SSTables never move: their values
    /// live in the commit log until a rewrite puts them in a table.
    fn movable_file(&self) -> Option<&Arc<FileMetadata>> {
        match (self.inputs_lower.as_slice(), self.inputs_upper.is_empty()) {
            ([file], true) if file.kind == TableKind::Block => Some(file),
            _ => None,
        }
    }
}

impl DbInner {
    /// Picks the compaction `version` needs most: L0 first, then the first
    /// deeper level over its size target. The second value is `true` when
    /// TRIAD-DISK deferred an L0 compaction on the way. Pure: nothing is
    /// counted here (the background worker counts deferrals).
    pub(crate) fn pick_compaction(&self, version: &Version) -> (Option<CompactionJob>, bool) {
        let l0_count = version.num_files(0);
        if l0_count < self.options.l0_compaction_trigger {
            return (pick_size_compaction(version, &self.options), false);
        }
        // All of L0 plus the L1 files its combined key range overlaps: the
        // job, and the files whose overlap ratio TRIAD-DISK estimates (the
        // configuration shown in the paper's Figure 5).
        let inputs_lower: Vec<Arc<FileMetadata>> = version.levels[0].clone();
        let start =
            inputs_lower.iter().map(|f| f.smallest.user_key.clone()).min().unwrap_or_default();
        let end = inputs_lower.iter().map(|f| f.largest.user_key.clone()).max().unwrap_or_default();
        let inputs_upper = version.overlapping_files(1, &start, &end);
        let job = CompactionJob { source_level: 0, inputs_lower, inputs_upper };
        // TRIAD-DISK defers while the bet can pay, unless L0 has hit its hard cap.
        let triad = &self.options.triad;
        let defer = triad.disk_enabled
            && l0_count < triad.max_l0_files
            && job.worth_deferring(triad.overlap_ratio_threshold);
        if defer {
            (pick_size_compaction(version, &self.options), true)
        } else {
            (Some(job), false)
        }
    }

    /// Runs `job`, picked on `version`: merges the inputs, writes the outputs,
    /// applies the version edit and retires the inputs. `version` is dropped
    /// before the edit installs, so it never keeps the inputs from collection.
    /// A job with a [movable](CompactionJob::movable_file) input moves it
    /// instead.
    pub(crate) fn run_compaction(&self, version: Arc<Version>, job: CompactionJob) -> Result<()> {
        let started = Instant::now();
        self.failpoints.check(Failpoint::CompactionStart)?;
        let target_level = job.target_level();
        if target_level >= version.num_levels() {
            return Err(Error::InvalidArgument(format!(
                "compaction target level {target_level} exceeds configured levels"
            )));
        }
        if let Some(file) = job.movable_file() {
            drop(version);
            return self.move_file(file, target_level);
        }
        // Tombstones can be dropped only when nothing older can exist below the
        // output level.
        let drop_tombstones =
            ((target_level + 1)..version.num_levels()).all(|l| version.num_files(l) == 0);
        drop(version);

        // Sources must be ordered newest-first so the dedup keeps the latest version:
        // L0 files are already newest-first; upper-level files hold strictly older
        // data for any overlapping key.
        let mut sources: Vec<BoxedCursor> = Vec::new();
        let mut bytes_read = 0u64;
        let mut input_entries = 0u64;
        for file in job.all_inputs() {
            let table = self.table_cache.get_or_open(file)?;
            bytes_read += file.size;
            input_entries += file.num_entries;
            // A table input streams one block at a time, read once, CRC-checked
            // and uncached; a CL-SSTable input reads its index and then its
            // values from the backing log in coalesced ranges
            // (`ClTable::read_values`).
            sources.push(table.cursor()?);
        }
        let mut merged = DedupCursor::new(MergingCursor::new(sources), drop_tombstones)?;

        // Until the version edit is logged, nothing references the outputs: an
        // error before then deletes every one of them, finished or in progress,
        // so a failing compaction leaves no orphan behind for each retry.
        let mut outputs: Vec<FileMetadata> = Vec::new();
        let mut active: Option<(u64, TableBuilder)> = None;
        let written = self
            .write_compaction_outputs(&mut merged, target_level, &mut outputs, &mut active)
            .and_then(|bytes| {
                self.failpoints.check(Failpoint::CompactionBeforeManifest).map(|()| bytes)
            });
        let bytes_written = match written {
            Ok(bytes) => bytes,
            Err(e) => {
                if let Some((_, builder)) = active {
                    let _ = builder.abandon();
                }
                for output in &outputs {
                    self.remove_file_counted(&sst_file_path(&self.path, output.id), false);
                }
                return Err(e);
            }
        };

        // Retire the inputs *before* installing the edit: the GC pass never deletes
        // a file the current version references, and enqueueing first means the
        // queue already covers the retirement once the new version is visible.
        // Physical deletion happens when no live version — including any pinned by
        // in-flight readers — references them any more.
        self.retire_files(job.all_inputs().map(|f| f.as_ref()));
        let mut edit = VersionEdit::default();
        for file in job.all_inputs() {
            edit.deleted.push((file.level, file.id));
        }
        edit.added.extend(outputs.iter().cloned());
        {
            let mut versions = self.versions.lock();
            let new_version = versions.log_and_apply(edit)?;
            // Record the counters before the new version is visible: a waiter
            // that sees no compaction needed must also see this one counted.
            self.stats.add_compaction_count(1);
            self.stats.add_bytes_compacted_read(bytes_read);
            self.stats.add_bytes_compacted_written(bytes_written);
            self.stats.add_entries_compacted(input_entries);
            self.stats.add_entries_dropped(merged.dropped());
            self.stats.add_compaction_duration(started.elapsed());
            *self.current_version.write() = new_version;
        }

        // Warm the table cache so the first readers of the new version skip the
        // open cost. Done after the install (a failure between output write and
        // manifest commit must not leave handles for orphaned files behind) and
        // best-effort: the compaction has already committed, so a transient open
        // failure must not mark it failed — readers open tables on demand.
        for output in &outputs {
            let _ = self.table_cache.get_or_open(output);
        }

        Ok(())
    }

    /// Moves `file` to `target_level` with one version edit that deletes it
    /// and adds the same metadata one level down. Nothing is read, written or
    /// retired, and the file keeps its id, so its table-cache handle and
    /// cached blocks stay valid. Only `compaction_moves` counts it; the
    /// rewrite counters stay rewrite-only. Tombstones in the file stay until
    /// its next rewrite.
    fn move_file(&self, file: &FileMetadata, target_level: usize) -> Result<()> {
        self.failpoints.check(Failpoint::CompactionBeforeManifest)?;
        let edit = VersionEdit {
            deleted: vec![(file.level, file.id)],
            added: vec![FileMetadata { level: target_level as u32, ..file.clone() }],
            ..VersionEdit::default()
        };
        let mut versions = self.versions.lock();
        let new_version = versions.log_and_apply(edit)?;
        // Counted before the new version is visible, as for a rewrite.
        self.stats.add_compaction_moves(1);
        *self.current_version.write() = new_version;
        Ok(())
    }

    /// Writes the merged stream into new tables on `target_level`, splitting
    /// at the configured file size. Finished tables go to `outputs`, the one
    /// being written stays in `active`, so the caller can delete both if this
    /// fails. Returns the bytes written.
    fn write_compaction_outputs(
        &self,
        merged: &mut impl EntryCursor,
        target_level: usize,
        outputs: &mut Vec<FileMetadata>,
        active: &mut Option<(u64, TableBuilder)>,
    ) -> Result<u64> {
        let table_options = TableBuilderOptions {
            block_size: self.options.block_size,
            bloom_bits_per_key: self.options.bloom_bits_per_key,
        };
        let mut bytes_written = 0u64;
        while merged.valid() {
            if active.is_none() {
                let file_id = self.versions.lock().allocate_file_number();
                let path = sst_file_path(&self.path, file_id);
                *active = Some((file_id, TableBuilder::create(&path, table_options)?));
            }
            let (_, builder) = active.as_mut().expect("just created");
            builder.add_encoded(merged.key(), merged.value())?;
            if builder.estimated_size() >= self.options.target_file_size {
                let (file_id, finished) = active.take().expect("active builder");
                let (props, size) = finished.finish()?;
                bytes_written += size;
                outputs.push(Self::output_metadata(file_id, target_level as u32, props, size));
            }
            merged.advance()?;
        }
        if let Some((file_id, finished)) = active.take() {
            let (props, size) = finished.finish()?;
            bytes_written += size;
            outputs.push(Self::output_metadata(file_id, target_level as u32, props, size));
        }
        Ok(bytes_written)
    }

    fn output_metadata(
        file_id: u64,
        level: u32,
        props: triad_sstable::TableProperties,
        size: u64,
    ) -> FileMetadata {
        FileMetadata {
            id: file_id,
            level,
            kind: TableKind::Block,
            size,
            num_entries: props.num_entries,
            smallest: props.smallest.clone().expect("non-empty output"),
            largest: props.largest.clone().expect("non-empty output"),
            hll: props.hll.clone(),
            backing_log_id: None,
        }
    }
}

/// Picks a size compaction for the first level from L1 down that is over its
/// size target: that level's largest file, with the files it overlaps one
/// level down. Compaction cuts its outputs at `target_file_size`, so nearly
/// every file below L0 ties on "largest", and `max_by_key` returns the last
/// of the ties: the file with the highest keys. That is what moves a load's
/// top files down first. Picking moves first, or the file with the least
/// overlap below, cost `write_uniform` more space amplification than its
/// benchmark bound allows.
fn pick_size_compaction(version: &Version, options: &Options) -> Option<CompactionJob> {
    for level in 1..version.num_levels().saturating_sub(1) {
        if version.level_size(level) <= options.level_target_size(level) {
            continue;
        }
        let file = version.levels[level].iter().max_by_key(|f| f.size)?.clone();
        let inputs_upper =
            version.overlapping_files(level + 1, &file.smallest.user_key, &file.largest.user_key);
        return Some(CompactionJob { source_level: level, inputs_lower: vec![file], inputs_upper });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_common::types::{InternalKey, ValueKind};
    use triad_hll::HyperLogLog;

    /// A 4 KiB table on `level` holding `keys`, which must be sorted.
    fn file(id: u64, level: u32, keys: impl IntoIterator<Item = u64>) -> Arc<FileMetadata> {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut hll = HyperLogLog::new();
        for key in &keys {
            hll.add(&key.to_be_bytes());
        }
        let bound =
            |key: u64, seqno| InternalKey::new(key.to_be_bytes().to_vec(), seqno, ValueKind::Put);
        Arc::new(FileMetadata {
            id,
            level,
            kind: TableKind::Block,
            size: 4_096,
            num_entries: keys.len() as u64,
            smallest: bound(keys[0], 100),
            largest: bound(keys[keys.len() - 1], 1),
            hll,
            backing_log_id: None,
        })
    }

    fn l0_job(lower: Vec<Arc<FileMetadata>>, upper: Vec<Arc<FileMetadata>>) -> CompactionJob {
        CompactionJob { source_level: 0, inputs_lower: lower, inputs_upper: upper }
    }

    #[test]
    fn triad_disk_bets_only_where_waiting_can_pay() {
        let disjoint = || (0..4u64).map(|f| file(f, 0, f * 1_000..f * 1_000 + 1_000)).collect();
        // A load: L0 files that share no keys, over little or no L1.
        assert!(!l0_job(disjoint(), vec![]).worth_deferring(0.4));
        assert!(!l0_job(disjoint(), vec![file(9, 1, 4_000..6_000)]).worth_deferring(0.4));
        // Each file repeats a fifth of the one before it: low overlap.
        let overlapping = (0..4u64).map(|f| file(f, 0, f * 800..f * 800 + 1_000)).collect();
        assert!(l0_job(overlapping, vec![]).worth_deferring(0.4));
        // Updates to keys of a large L1: every L0 key is shared, but L1's
        // keys dilute the ratio to ~0.03, within the sketch's noise of zero.
        let updates = (0..4u64).map(|f| file(f, 0, (0..100u64).map(|k| k * 97 + f))).collect();
        let l1 = vec![file(8, 1, 0..5_000), file(9, 1, 5_000..10_000)];
        assert!(l0_job(updates, l1).worth_deferring(0.4));
        // High overlap compacts.
        let same = (0..4u64).map(|f| file(f, 0, 0..1_000)).collect();
        assert!(!l0_job(same, vec![]).worth_deferring(0.4));
    }

    /// Files of one size tie on "largest", and the tie goes to the last file
    /// of the level, which holds its highest keys.
    #[test]
    fn the_size_picker_takes_the_highest_key_file_among_equal_sizes() {
        let mut version = Version::empty(3);
        version.levels[1] = vec![file(1, 1, 0..10), file(2, 1, 10..20), file(3, 1, 20..30)];
        version.levels[2] = vec![file(4, 2, 0..15), file(5, 2, 15..25), file(6, 2, 25..99)];
        let options = Options { l1_target_size: 3 * 4_096 - 1, ..Options::default() };
        let job = pick_size_compaction(&version, &options).expect("L1 is over its target");
        assert_eq!(job.source_level, 1);
        let ids = |files: &[Arc<FileMetadata>]| files.iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(&job.inputs_lower), [3]);
        assert_eq!(ids(&job.inputs_upper), [5, 6]);

        let options = Options { l1_target_size: 3 * 4_096, ..Options::default() };
        assert!(pick_size_compaction(&version, &options).is_none(), "L1 is at its target");
    }
}
