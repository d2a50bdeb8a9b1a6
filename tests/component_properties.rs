//! Property-based tests for the on-disk substrates: commit log, SSTables, bloom
//! filters, HyperLogLog and merge iterators.

use std::collections::BTreeMap;

use proptest::prelude::*;

use triad_common::types::{Entry, InternalKey, ValueKind};
use triad_hll::HyperLogLog;
use triad_sstable::{
    BloomFilter, BoxedCursor, DedupCursor, EntryCursor, IterCursor, MergingCursor, SortedTable,
    Table, TableBuilder, TableBuilderOptions,
};
use triad_wal::{LogReader, LogRecord, LogWriter};

fn unique_path(tag: &str, ext: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("triad-comp-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.{ext}", COUNTER.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Every record appended to a commit log is recovered verbatim, in order, and is
    /// addressable by the offset returned at append time.
    fn wal_round_trips_arbitrary_records(
        records in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..40), proptest::collection::vec(any::<u8>(), 0..200)),
            1..60,
        )
    ) {
        let path = unique_path("wal", "log");
        let mut writer = LogWriter::create(&path, 1).unwrap();
        let mut offsets = Vec::new();
        let mut expected = Vec::new();
        for (i, (is_put, key, value)) in records.iter().enumerate() {
            let seqno = i as u64 + 1;
            let record = if *is_put {
                LogRecord::put(seqno, key.clone(), value.clone())
            } else {
                LogRecord::delete(seqno, key.clone())
            };
            offsets.push(writer.append(&record).unwrap());
            expected.push(record);
        }
        writer.seal().unwrap();
        let reader = LogReader::open(&path).unwrap();
        let (recovered, tail) = reader.recover().unwrap();
        prop_assert_eq!(tail, triad_wal::TailStatus::Clean);
        prop_assert_eq!(recovered.len(), expected.len());
        for ((got, offset), want) in recovered.iter().zip(offsets.iter()).zip(expected.iter()) {
            prop_assert_eq!(&got.record, want);
            prop_assert_eq!(got.offset, *offset);
            let direct = reader.read_at(*offset).unwrap();
            prop_assert_eq!(&direct, want);
        }
        std::fs::remove_file(&path).ok();
    }

    /// An SSTable built from any sorted map returns exactly the stored entries, both
    /// through point lookups and through full iteration.
    fn sstable_round_trips_sorted_maps(
        map in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 1..24),
            proptest::collection::vec(any::<u8>(), 0..120),
            1..150,
        )
    ) {
        let path = unique_path("sst", "sst");
        let options = TableBuilderOptions { block_size: 512, bloom_bits_per_key: 10 };
        let mut builder = TableBuilder::create(&path, options).unwrap();
        for (i, (key, value)) in map.iter().enumerate() {
            let ikey = InternalKey::new(key.clone(), i as u64 + 1, ValueKind::Put);
            builder.add(&ikey, value).unwrap();
        }
        let (props, _) = builder.finish().unwrap();
        prop_assert_eq!(props.num_entries, map.len() as u64);

        let table = Table::open(&path, None).unwrap();
        for (key, value) in &map {
            let entry = table.get_entry(key, u64::MAX).unwrap().expect("present key");
            prop_assert_eq!(&entry.value, value);
        }
        // A key that is not in the map is never returned.
        let absent = b"\xff\xff\xff\xff\xff absent".to_vec();
        if !map.contains_key(&absent) {
            prop_assert!(table.get_entry(&absent, u64::MAX).unwrap().is_none());
        }
        let all: Vec<Entry> = SortedTable::entries(&table).unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(all.len(), map.len());
        for (entry, (key, value)) in all.iter().zip(map.iter()) {
            prop_assert_eq!(&entry.key.user_key, key);
            prop_assert_eq!(&entry.value, value);
        }
        // Compaction's cursor lends the same entries.
        let mut cursor = std::sync::Arc::new(table).cursor().unwrap();
        let mut lent = Vec::new();
        while cursor.valid() {
            lent.push(Entry::new(InternalKey::decode(cursor.key()).unwrap(), cursor.value()));
            cursor.advance().unwrap();
        }
        prop_assert_eq!(lent, all);
        std::fs::remove_file(&path).ok();
    }

    /// Bloom filters never produce false negatives.
    fn bloom_filters_have_no_false_negatives(
        keys in proptest::collection::hash_set(proptest::collection::vec(any::<u8>(), 0..32), 1..400),
        bits in 4usize..16,
    ) {
        let key_vec: Vec<Vec<u8>> = keys.into_iter().collect();
        let filter = BloomFilter::build(key_vec.iter().map(|k| k.as_slice()), bits);
        for key in &key_vec {
            prop_assert!(filter.may_contain(key));
        }
        let restored = BloomFilter::from_bytes(&filter.to_bytes()).unwrap();
        for key in &key_vec {
            prop_assert!(restored.may_contain(key));
        }
    }

    /// HyperLogLog estimates stay within a generous error bound and merging two
    /// sketches never under-counts either input.
    fn hll_estimates_are_bounded(
        a in proptest::collection::hash_set(any::<u64>(), 1..3_000),
        b in proptest::collection::hash_set(any::<u64>(), 1..3_000),
    ) {
        let mut sketch_a = HyperLogLog::new();
        for item in &a {
            sketch_a.add(&item.to_le_bytes());
        }
        let mut sketch_b = HyperLogLog::new();
        for item in &b {
            sketch_b.add(&item.to_le_bytes());
        }
        let err_a = (sketch_a.estimate() - a.len() as f64).abs() / a.len() as f64;
        prop_assert!(err_a < 0.15, "estimate error {err_a} too large for {} items", a.len());

        let mut merged = sketch_a.clone();
        merged.merge(&sketch_b).unwrap();
        let union: std::collections::HashSet<u64> = a.union(&b).copied().collect();
        let err_union = (merged.estimate() - union.len() as f64).abs() / union.len() as f64;
        prop_assert!(err_union < 0.15, "union estimate error {err_union} too large");
        // The union estimate is never dramatically below the larger input.
        let floor = (a.len().max(b.len()) as f64) * 0.8;
        prop_assert!(merged.estimate() >= floor);
    }

    /// Merging sorted runs and deduplicating yields the newest version of every key —
    /// the invariant compaction relies on — and, when tombstones are dropped,
    /// exactly the keys whose newest version is a put.
    fn merge_dedup_keeps_the_newest_version(
        runs in proptest::collection::vec(
            proptest::collection::btree_map(
                0u16..200,
                (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..16)),
                0..60,
            ),
            1..5,
        ),
        drop_tombstones in any::<bool>(),
    ) {
        // Assign seqnos so that later runs are newer, then build per-run sorted entry
        // lists. A `true` flag makes the entry a tombstone.
        let mut model: BTreeMap<u16, (u64, Option<Vec<u8>>)> = BTreeMap::new();
        let mut sources: Vec<Vec<Entry>> = Vec::new();
        let mut seqno = 0u64;
        for run in &runs {
            let mut entries = Vec::new();
            for (key, (is_delete, value)) in run {
                seqno += 1;
                let user_key = format!("k{key:05}").into_bytes();
                let (entry, version) = if *is_delete {
                    (Entry::delete(user_key, seqno), None)
                } else {
                    (Entry::put(user_key, value.clone(), seqno), Some(value.clone()))
                };
                entries.push(entry);
                model.insert(*key, (seqno, version));
            }
            entries.sort_by(|a, b| a.key.cmp(&b.key));
            sources.push(entries);
        }
        // Newest runs must be listed first for the dedup convention.
        sources.reverse();
        let cursors: Vec<BoxedCursor> = sources
            .into_iter()
            .map(|entries| {
                let iter: triad_sstable::EntryIter = Box::new(entries.into_iter().map(Ok));
                Box::new(IterCursor::new(iter).unwrap()) as BoxedCursor
            })
            .collect();
        let mut dedup = DedupCursor::new(MergingCursor::new(cursors), drop_tombstones).unwrap();
        let mut result = Vec::new();
        while dedup.valid() {
            result.push(Entry::new(InternalKey::decode(dedup.key()).unwrap(), dedup.value()));
            dedup.advance().unwrap();
        }
        let expected: Vec<_> = model
            .iter()
            .filter(|(_, (_, version))| !drop_tombstones || version.is_some())
            .collect();
        prop_assert_eq!(result.len(), expected.len());
        for (entry, (key, (seqno, version))) in result.iter().zip(expected) {
            prop_assert_eq!(&entry.key.user_key, &format!("k{key:05}").into_bytes());
            prop_assert_eq!(entry.key.seqno, *seqno);
            match version {
                Some(value) => {
                    prop_assert_eq!(entry.key.kind, ValueKind::Put);
                    prop_assert_eq!(&entry.value, value);
                }
                None => prop_assert_eq!(entry.key.kind, ValueKind::Delete),
            }
        }
        let total: usize = runs.iter().map(|run| run.len()).sum();
        prop_assert_eq!(dedup.dropped() as usize, total - result.len());
    }
}
