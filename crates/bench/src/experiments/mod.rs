//! One module per figure of the paper's evaluation.
//!
//! Every module exposes a `run(scale)` function that executes the experiment and
//! prints a table mirroring the corresponding figure, plus a short note stating what
//! the paper reports so the reader can compare shapes directly.

pub mod fig10_breakdown;
pub mod fig11_wa_ra;
pub mod fig2_background_io;
pub mod fig7_profiles;
pub mod fig9a_production;
pub mod fig9d_io_time;
pub mod grid;
pub mod summary;
pub mod write_scaling;

use triad_core::{Options, TriadConfig};
use triad_workload::{KeyDistribution, OperationMix, WorkloadSpec};

use crate::runner::Scale;

/// The three synthetic skew profiles of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewProfile {
    /// WS1: 1% of the keys receive 99% of the accesses.
    High,
    /// WS2: 20% of the keys receive 80% of the accesses.
    Medium,
    /// WS3: uniform popularity.
    None,
}

impl SkewProfile {
    /// All profiles in the order the paper plots them.
    pub fn all() -> [SkewProfile; 3] {
        [SkewProfile::High, SkewProfile::Medium, SkewProfile::None]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SkewProfile::High => "Skew 1%-99%",
            SkewProfile::Medium => "Skew 20%-80%",
            SkewProfile::None => "No Skew",
        }
    }

    /// Builds the key distribution over `num_keys` keys.
    pub fn distribution(&self, num_keys: u64) -> KeyDistribution {
        match self {
            SkewProfile::High => KeyDistribution::ws1_high_skew(num_keys),
            SkewProfile::Medium => KeyDistribution::ws2_medium_skew(num_keys),
            SkewProfile::None => KeyDistribution::ws3_uniform(num_keys),
        }
    }
}

/// Number of keys used by the synthetic experiments at each scale. The paper uses
/// 1 M keys with a 4 MB memtable; quick mode shrinks both proportionally.
pub fn synthetic_keys(scale: Scale) -> u64 {
    scale.keys(20_000, 1_000_000)
}

/// Engine options mirroring the paper's synthetic setup at the given scale.
pub fn bench_options(scale: Scale, triad: TriadConfig) -> Options {
    let mut options = Options::default();
    match scale {
        Scale::Quick => {
            options.memtable_size = 256 * 1024;
            options.max_log_size = 512 * 1024;
            options.l1_target_size = 2 * 1024 * 1024;
            options.target_file_size = 512 * 1024;
        }
        Scale::Full => {
            options.memtable_size = 4 * 1024 * 1024;
            options.max_log_size = 8 * 1024 * 1024;
        }
    }
    options.triad = triad;
    options
}

/// The paper's synthetic workload (8-byte keys, 255-byte values) for a skew profile
/// and read/write mix.
pub fn synthetic_workload(scale: Scale, skew: SkewProfile, mix: OperationMix) -> WorkloadSpec {
    let keys = synthetic_keys(scale);
    WorkloadSpec::synthetic(skew.distribution(keys), mix)
}

/// Per-thread operation counts for the timed phase.
pub fn ops_per_thread(scale: Scale) -> u64 {
    scale.ops(8_000, 250_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_profiles_cover_the_paper_grid() {
        assert_eq!(SkewProfile::all().len(), 3);
        assert_eq!(SkewProfile::High.label(), "Skew 1%-99%");
        let dist = SkewProfile::Medium.distribution(1_000);
        assert_eq!(dist.num_keys(), 1_000);
    }

    #[test]
    fn quick_options_are_smaller_than_full() {
        let quick = bench_options(Scale::Quick, TriadConfig::baseline());
        let full = bench_options(Scale::Full, TriadConfig::all_enabled());
        assert!(quick.memtable_size < full.memtable_size);
        assert_eq!(full.triad.label(), "TRIAD");
        assert_eq!(quick.triad.label(), "RocksDB");
        quick.validate().unwrap();
        full.validate().unwrap();
    }

    #[test]
    fn synthetic_workload_matches_paper_sizes() {
        let spec =
            synthetic_workload(Scale::Full, SkewProfile::High, OperationMix::write_intensive());
        assert_eq!(spec.num_keys, 1_000_000);
        assert_eq!(spec.key_size, 8);
        assert_eq!(spec.value_size, 255);
    }
}
