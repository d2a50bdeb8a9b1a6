//! TRIAD-MEM hot/cold key separation (paper §4.1, Algorithm 2 `separateKeys`).
//!
//! When the memory component is flushed, entries that are updated frequently ("hot")
//! are kept in the new memtable while only the rarely-updated ("cold") entries go to
//! disk. Hot entries are the top K by update counter, where K is either a fraction
//! of the memtable's entries (`PERC_HOT` in the paper's pseudocode, 1% by default in
//! the evaluation) or a fixed count.

use crate::MemEntry;

/// How hot keys are selected at flush time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotColdPolicy {
    /// Keep the `fraction` of entries (by count) with the highest update counters.
    /// The paper's default configuration corresponds to `TopFraction(0.01)`.
    TopFraction(f64),
    /// Keep at most `count` entries with the highest update counters.
    TopCount(usize),
}

impl Default for HotColdPolicy {
    fn default() -> Self {
        // "We configure TRIAD-MEM such that its definition of hot keys corresponds to
        // the top 1 percent of keys in terms of access frequency." (paper §5.1)
        HotColdPolicy::TopFraction(0.01)
    }
}

/// The result of splitting a memtable snapshot into hot and cold entries.
#[derive(Debug, Default)]
pub struct HotColdSplit {
    /// Entries to keep in the new memory component (and replay into the new log).
    pub hot: Vec<(Vec<u8>, MemEntry)>,
    /// Entries to flush to disk.
    pub cold: Vec<(Vec<u8>, MemEntry)>,
}

impl HotColdSplit {
    /// Total number of entries across both partitions.
    pub fn total(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

/// Splits a sorted memtable snapshot into hot and cold entries according to `policy`.
///
/// Both output partitions preserve the input's key order. Hot entries have their
/// update counters reset (the paper resets "hotness" after each separation so stale
/// popularity does not pin keys in memory forever).
pub fn separate_keys(entries: Vec<(Vec<u8>, MemEntry)>, policy: HotColdPolicy) -> HotColdSplit {
    if entries.is_empty() {
        return HotColdSplit::default();
    }
    let hot_count = match policy {
        HotColdPolicy::TopFraction(fraction) => {
            let fraction = fraction.clamp(0.0, 1.0);
            (entries.len() as f64 * fraction).round() as usize
        }
        HotColdPolicy::TopCount(count) => count.min(entries.len()),
    };
    split_top_k(entries, hot_count)
}

/// Splits off the `hot_count` entries with the highest update counters.
fn split_top_k(entries: Vec<(Vec<u8>, MemEntry)>, hot_count: usize) -> HotColdSplit {
    if hot_count == 0 {
        return HotColdSplit { hot: Vec::new(), cold: entries };
    }
    if hot_count >= entries.len() {
        let hot = entries
            .into_iter()
            .map(|(key, mut entry)| {
                entry.updates = 0;
                (key, entry)
            })
            .collect();
        return HotColdSplit { hot, cold: Vec::new() };
    }
    // Find the update-count threshold of the K-th hottest entry.
    let mut counters: Vec<u32> = entries.iter().map(|(_, e)| e.updates).collect();
    counters.sort_unstable_by(|a, b| b.cmp(a));
    let threshold = counters[hot_count - 1];
    // Entries strictly above the threshold are hot; entries equal to the threshold
    // fill the remaining budget in key order so the split is deterministic.
    let above = counters.iter().filter(|&&c| c > threshold).count();
    let mut at_threshold_budget = hot_count - above;

    let mut split = HotColdSplit::default();
    for (key, mut entry) in entries {
        let is_hot = if entry.updates > threshold {
            true
        } else if entry.updates == threshold && at_threshold_budget > 0 {
            at_threshold_budget -= 1;
            true
        } else {
            false
        };
        if is_hot {
            // Reset hotness, as in Algorithm 2.
            entry.updates = 0;
            split.hot.push((key, entry));
        } else {
            split.cold.push((key, entry));
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogPosition;
    use triad_common::types::ValueKind;

    fn entry(updates: u32) -> MemEntry {
        MemEntry {
            value: b"v".to_vec(),
            seqno: 1,
            kind: ValueKind::Put,
            updates,
            log_position: LogPosition::default(),
        }
    }

    /// 100 keys where keys 0..5 are updated far more often than the rest.
    fn skewed_entries() -> Vec<(Vec<u8>, MemEntry)> {
        (0..100u32)
            .map(|i| {
                let updates = if i < 5 { 1_000 + i } else { 1 + (i % 3) };
                (format!("key-{i:03}").into_bytes(), entry(updates))
            })
            .collect()
    }

    #[test]
    fn empty_input_produces_empty_split() {
        let split = separate_keys(Vec::new(), HotColdPolicy::default());
        assert!(split.hot.is_empty());
        assert!(split.cold.is_empty());
        assert_eq!(split.total(), 0);
    }

    #[test]
    fn top_fraction_keeps_the_hottest_keys() {
        let split = separate_keys(skewed_entries(), HotColdPolicy::TopFraction(0.05));
        assert_eq!(split.hot.len(), 5);
        assert_eq!(split.cold.len(), 95);
        for (key, _) in &split.hot {
            let idx: u32 = String::from_utf8_lossy(key).trim_start_matches("key-").parse().unwrap();
            assert!(idx < 5, "only the heavily-updated keys should be hot, got {idx}");
        }
    }

    #[test]
    fn top_count_caps_the_hot_set() {
        let split = separate_keys(skewed_entries(), HotColdPolicy::TopCount(3));
        assert_eq!(split.hot.len(), 3);
        assert_eq!(split.cold.len(), 97);
        let split_all = separate_keys(skewed_entries(), HotColdPolicy::TopCount(1_000));
        assert_eq!(split_all.hot.len(), 100);
        assert!(split_all.cold.is_empty());
    }

    #[test]
    fn hot_entries_have_their_counters_reset() {
        let split = separate_keys(skewed_entries(), HotColdPolicy::TopFraction(0.05));
        assert!(split.hot.iter().all(|(_, e)| e.updates == 0), "Algorithm 2 resets hotness");
        assert!(split.cold.iter().all(|(_, e)| e.updates > 0), "cold counters are untouched");
    }

    #[test]
    fn key_order_is_preserved_in_both_partitions() {
        let split = separate_keys(skewed_entries(), HotColdPolicy::TopFraction(0.05));
        for window in split.hot.windows(2) {
            assert!(window[0].0 < window[1].0);
        }
        for window in split.cold.windows(2) {
            assert!(window[0].0 < window[1].0);
        }
    }

    #[test]
    fn ties_at_the_threshold_are_resolved_deterministically() {
        // Every entry has the same counter; a 50% split must still pick exactly half,
        // and repeated runs must pick the same half.
        let entries: Vec<(Vec<u8>, MemEntry)> =
            (0..10u32).map(|i| (format!("k{i}").into_bytes(), entry(7))).collect();
        let split_a = separate_keys(entries.clone(), HotColdPolicy::TopFraction(0.5));
        let split_b = separate_keys(entries, HotColdPolicy::TopFraction(0.5));
        assert_eq!(split_a.hot.len(), 5);
        let keys_a: Vec<_> = split_a.hot.iter().map(|(k, _)| k.clone()).collect();
        let keys_b: Vec<_> = split_b.hot.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn zero_fraction_flushes_everything() {
        let split = separate_keys(skewed_entries(), HotColdPolicy::TopFraction(0.0));
        assert!(split.hot.is_empty());
        assert_eq!(split.cold.len(), 100);
    }
}
