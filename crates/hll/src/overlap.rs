//! The TRIAD-DISK overlap ratio.
//!
//! Given the HyperLogLog sketches of the files that would participate in an L0→L1
//! compaction, the overlap ratio is defined (paper §4.2) as
//!
//! ```text
//! overlap = 1 - UniqueKeys(f1, ..., fn) / Σ Keys(fi)
//! ```
//!
//! A ratio near 0 means the files share almost no keys, so compacting them now would
//! mostly rewrite bytes without discarding duplicates; a ratio near 1 means most keys
//! are duplicated and compaction will shrink the data substantially. A ratio within
//! the sketches' noise of 0 ([`OverlapEstimate::is_zero`]) cannot be told apart
//! from files that share no keys. Few keys shared among many read as zero too, as
//! when small files update a large one.

use crate::{HyperLogLog, DEFAULT_PRECISION};
use triad_common::Result;

/// The result of an overlap computation, retaining the intermediate estimates so
/// callers (and tests) can inspect how the decision was made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapEstimate {
    /// Estimated number of unique keys across all files.
    pub estimated_unique: f64,
    /// Sum of the per-file key counts (exact when `additions` is exact).
    pub total_keys: f64,
    /// The overlap ratio in `[0, 1]`.
    pub ratio: f64,
    /// Precision of the sketches the unique count was estimated from.
    pub precision: u8,
}

impl OverlapEstimate {
    /// Returns `true` when the ratio meets or exceeds `threshold`.
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.ratio >= threshold
    }

    /// Returns `true` when the ratio cannot be told apart from zero: it lies
    /// within three standard errors of the unique-key estimate, whose
    /// relative standard error is `1.04 / √m` for `m = 2^precision`
    /// registers (1.6 % at precision 12, so a bound of ~0.049). Near zero the
    /// ratio's error is that relative error, so files that share no keys
    /// read below the bound almost always.
    pub fn is_zero(&self) -> bool {
        let standard_error = 1.04 / f64::from(1u32 << self.precision).sqrt();
        self.ratio < 3.0 * standard_error
    }
}

/// Computes the overlap ratio of a set of files described by `(sketch, key_count)`
/// pairs. `key_count` should be the exact number of keys in the file (TRIAD keeps it
/// in the table properties); the merged unique count is estimated with HLL.
///
/// Returns an estimate with ratio 0 when the input is empty or contains no keys.
pub fn overlap_ratio<'a, I>(files: I) -> Result<OverlapEstimate>
where
    I: IntoIterator<Item = (&'a HyperLogLog, u64)>,
{
    let mut sketches = Vec::new();
    let mut total_keys = 0u64;
    for (sketch, keys) in files {
        total_keys += keys;
        sketches.push(sketch);
    }
    // Merging checks that every sketch shares the first one's precision.
    let precision = sketches.first().map_or(DEFAULT_PRECISION, |sketch| sketch.precision());
    if total_keys == 0 {
        return Ok(OverlapEstimate {
            estimated_unique: 0.0,
            total_keys: 0.0,
            ratio: 0.0,
            precision,
        });
    }
    let estimated_unique = HyperLogLog::merged_estimate(sketches.iter().copied())?;
    let total = total_keys as f64;
    // Estimation noise can push the unique estimate slightly above the true total;
    // clamp so the ratio stays within [0, 1].
    let ratio = (1.0 - estimated_unique / total).clamp(0.0, 1.0);
    Ok(OverlapEstimate { estimated_unique, total_keys: total, ratio, precision })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of_range(range: std::ops::Range<u64>) -> (HyperLogLog, u64) {
        let mut hll = HyperLogLog::new();
        let count = range.end - range.start;
        for i in range {
            hll.add(&i.to_le_bytes());
        }
        (hll, count)
    }

    #[test]
    fn empty_input_has_zero_ratio() {
        let estimate = overlap_ratio(std::iter::empty()).unwrap();
        assert_eq!(estimate.ratio, 0.0);
        assert!(!estimate.exceeds(0.1));
    }

    #[test]
    fn disjoint_files_have_low_overlap() {
        let (a, ca) = sketch_of_range(0..10_000);
        let (b, cb) = sketch_of_range(10_000..20_000);
        let estimate = overlap_ratio([(&a, ca), (&b, cb)]).unwrap();
        assert!(estimate.ratio < 0.05, "ratio {} should be near 0", estimate.ratio);
    }

    /// TRIAD-DISK does not defer files whose overlap reads as zero, so
    /// disjoint files must read as zero and a ~10 % share of keys must not.
    #[test]
    fn disjoint_sketches_read_as_zero_and_a_tenth_shared_does_not() {
        let files: Vec<(HyperLogLog, u64)> =
            (0..6u64).map(|f| sketch_of_range(f * 4_000..(f + 1) * 4_000)).collect();
        let disjoint = overlap_ratio(files.iter().map(|(hll, keys)| (hll, *keys))).unwrap();
        assert_eq!(disjoint.precision, crate::DEFAULT_PRECISION);
        assert!(disjoint.is_zero(), "disjoint files read ratio {}", disjoint.ratio);

        // 2 000 of 20 000 keys are duplicates: a ratio of 0.1.
        let (a, ca) = sketch_of_range(0..10_000);
        let (b, cb) = sketch_of_range(8_000..18_000);
        let shared = overlap_ratio([(&a, ca), (&b, cb)]).unwrap();
        assert!(!shared.is_zero(), "a tenth shared read ratio {}", shared.ratio);

        let (b, cb) = sketch_of_range(0..10_000);
        assert!(!overlap_ratio([(&a, ca), (&b, cb)]).unwrap().is_zero());
        assert!(overlap_ratio(std::iter::empty()).unwrap().is_zero());
    }

    #[test]
    fn identical_files_have_high_overlap() {
        let (a, ca) = sketch_of_range(0..10_000);
        let (b, cb) = sketch_of_range(0..10_000);
        let estimate = overlap_ratio([(&a, ca), (&b, cb)]).unwrap();
        assert!(estimate.ratio > 0.45, "ratio {} should be near 0.5", estimate.ratio);
        assert!(estimate.exceeds(0.4));
    }

    #[test]
    fn paper_example_small_overlap() {
        // Figure 5, upper half: L0 = {2,15,19}, L1 files = {1,2,5,10}, {11,12,19,20}.
        // Unique = 9 of 11 total keys -> ratio 0.18, below the 0.2 threshold.
        let mut l0 = HyperLogLog::new();
        for k in [2u64, 15, 19] {
            l0.add(&k.to_le_bytes());
        }
        let mut l1a = HyperLogLog::new();
        for k in [1u64, 2, 5, 10] {
            l1a.add(&k.to_le_bytes());
        }
        let mut l1b = HyperLogLog::new();
        for k in [11u64, 12, 19, 20] {
            l1b.add(&k.to_le_bytes());
        }
        let estimate = overlap_ratio([(&l0, 3), (&l1a, 4), (&l1b, 4)]).unwrap();
        // At these tiny cardinalities HLL with linear counting is essentially exact.
        assert!((estimate.ratio - (1.0 - 9.0 / 11.0)).abs() < 0.02, "ratio {}", estimate.ratio);
        assert!(!estimate.exceeds(0.2), "paper defers compaction in this scenario");
    }

    #[test]
    fn paper_example_larger_overlap() {
        // Figure 5, lower half: adding L0 file {1,10,13} raises the ratio to 0.28.
        let mut l0a = HyperLogLog::new();
        for k in [2u64, 15, 19] {
            l0a.add(&k.to_le_bytes());
        }
        let mut l0b = HyperLogLog::new();
        for k in [1u64, 10, 13] {
            l0b.add(&k.to_le_bytes());
        }
        let mut l1a = HyperLogLog::new();
        for k in [1u64, 2, 5, 10] {
            l1a.add(&k.to_le_bytes());
        }
        let mut l1b = HyperLogLog::new();
        for k in [11u64, 12, 19, 20] {
            l1b.add(&k.to_le_bytes());
        }
        let estimate = overlap_ratio([(&l0a, 3), (&l0b, 3), (&l1a, 4), (&l1b, 4)]).unwrap();
        assert!((estimate.ratio - (1.0 - 10.0 / 14.0)).abs() < 0.02, "ratio {}", estimate.ratio);
        assert!(estimate.exceeds(0.2), "paper proceeds with compaction in this scenario");
    }

    #[test]
    fn ratio_is_clamped_to_unit_interval() {
        // A single file can only have ratio 0 (all keys unique relative to itself),
        // even if HLL noise nudges the estimate above the true count.
        let (a, ca) = sketch_of_range(0..50_000);
        let estimate = overlap_ratio([(&a, ca)]).unwrap();
        assert!(estimate.ratio >= 0.0 && estimate.ratio <= 1.0);
        assert!(estimate.ratio < 0.05);
    }
}
