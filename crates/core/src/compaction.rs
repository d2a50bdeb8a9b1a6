//! Leveled compaction, including TRIAD-DISK's deferred L0→L1 compaction.
//!
//! Compaction keeps the tree shaped: L0 is bounded by file count, deeper levels by
//! total size. The baseline triggers an L0→L1 compaction as soon as
//! `l0_compaction_trigger` files accumulate. TRIAD-DISK (paper §4.2) instead
//! estimates, from the per-file HyperLogLog sketches, how many duplicate keys the
//! candidate files share (the *overlap ratio*) and defers the compaction until the
//! ratio reaches a threshold — unless L0 has hit its hard file cap.

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
}

impl DbInner {
    /// Picks the compaction `version` needs most: L0 first, then the first
    /// deeper level over its size target. The second value is `true` when
    /// TRIAD-DISK deferred an L0 compaction on the way. Pure: nothing is
    /// counted here (the background worker counts deferrals).
    pub(crate) fn pick_compaction(&self, version: &Version) -> (Option<CompactionJob>, bool) {
        let l0_count = version.num_files(0);
        if l0_count < self.options.l0_compaction_trigger {
            return (self.pick_size_compaction(version), false);
        }
        let triad = &self.options.triad;
        // TRIAD-DISK defers while the overlap is low, unless L0 has hit its
        // hard cap. Unusable sketches fall back to the baseline trigger.
        let defer = triad.disk_enabled
            && l0_count < triad.max_l0_files
            && self
                .l0_overlap_ratio(version)
                .is_ok_and(|estimate| estimate.ratio < triad.overlap_ratio_threshold);
        if defer {
            (self.pick_size_compaction(version), true)
        } else {
            (Some(self.pick_l0_compaction(version)), false)
        }
    }

    /// Computes the overlap ratio over all L0 files plus the L1 files their combined
    /// key range overlaps (the configuration shown in the paper's Figure 5).
    pub(crate) fn l0_overlap_ratio(&self, version: &Version) -> Result<triad_hll::OverlapEstimate> {
        let l0 = &version.levels[0];
        if l0.is_empty() {
            return overlap_ratio(std::iter::empty());
        }
        let start = l0.iter().map(|f| f.smallest.user_key.clone()).min().unwrap_or_default();
        let end = l0.iter().map(|f| f.largest.user_key.clone()).max().unwrap_or_default();
        let l1 = version.overlapping_files(1, &start, &end);
        let files: Vec<(&triad_hll::HyperLogLog, u64)> = l0
            .iter()
            .map(|f| (&f.hll, f.num_entries))
            .chain(l1.iter().map(|f| (&f.hll, f.num_entries)))
            .collect();
        overlap_ratio(files)
    }

    fn pick_l0_compaction(&self, version: &Version) -> CompactionJob {
        let inputs_lower: Vec<Arc<FileMetadata>> = version.levels[0].clone();
        let start =
            inputs_lower.iter().map(|f| f.smallest.user_key.clone()).min().unwrap_or_default();
        let end = inputs_lower.iter().map(|f| f.largest.user_key.clone()).max().unwrap_or_default();
        let inputs_upper = version.overlapping_files(1, &start, &end);
        CompactionJob { source_level: 0, inputs_lower, inputs_upper }
    }

    fn pick_size_compaction(&self, version: &Version) -> Option<CompactionJob> {
        for level in 1..version.num_levels().saturating_sub(1) {
            if version.level_size(level) <= self.options.level_target_size(level) {
                continue;
            }
            // Pick the largest file on the level; a simple, deterministic heuristic.
            let file = version.levels[level].iter().max_by_key(|f| f.size)?.clone();
            let inputs_upper = version.overlapping_files(
                level + 1,
                &file.smallest.user_key,
                &file.largest.user_key,
            );
            return Some(CompactionJob {
                source_level: level,
                inputs_lower: vec![file],
                inputs_upper,
            });
        }
        None
    }

    /// Runs `job`, picked on `version`: merges the inputs, writes the outputs,
    /// applies the version edit and retires the inputs. `version` is dropped
    /// before the edit installs, so it never keeps the inputs from collection.
    pub(crate) fn run_compaction(&self, version: Arc<Version>, job: CompactionJob) -> Result<()> {
        let started = Instant::now();
        self.failpoints.check(Failpoint::CompactionStart)?;
        let target_level = job.target_level();
        if target_level >= version.num_levels() {
            return Err(Error::InvalidArgument(format!(
                "compaction target level {target_level} exceeds configured levels"
            )));
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
            // and uncached; a CL-SSTable input walks its index the same way and
            // reads its backing log once, whole.
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
