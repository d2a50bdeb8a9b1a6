//! Workload generation for the TRIAD evaluation.
//!
//! The paper evaluates TRIAD with two families of workloads:
//!
//! * **Synthetic** workloads (§5.3) parameterised by skew — WS1 (1% of the keys
//!   receive 99% of the accesses), WS2 (20%/80%) and WS3 (uniform) — and by
//!   read/write mix (10%/90% and 50%/50%), with 8-byte keys and 255-byte values.
//! * **Production** workloads (§5.2) — four Nutanix metadata workloads W1–W4 whose
//!   key-popularity distributions are published in Figure 7 and whose sizes appear in
//!   Figure 8. We do not have the traces, so [`production`] provides synthetic
//!   profiles fit to the published shapes (see `DESIGN.md` §4 for the substitution
//!   rationale).
//!
//! The crate is deliberately deterministic: every generator is seeded, so a given
//! `(spec, seed, thread)` triple always produces the same operation stream, which
//! keeps experiments reproducible and lets tests assert exact behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod generator;
pub mod mix;
pub mod production;
pub mod zipf;

pub use dist::KeyDistribution;
pub use generator::{Operation, WorkloadGenerator, WorkloadSpec};
pub use mix::OperationMix;
pub use production::{ProductionProfile, ProductionWorkload};
pub use zipf::Zipfian;

/// Encodes a logical key index as a fixed-width key of `key_size` bytes.
///
/// Keys are zero-padded decimal strings so that lexicographic order matches numeric
/// order, which makes range behaviour predictable in tests and keeps key size
/// constant as the paper's experiments assume (8-byte keys by default).
pub fn encode_key(index: u64, key_size: usize) -> Vec<u8> {
    let digits = format!("{index}");
    let mut key = Vec::with_capacity(key_size.max(digits.len()));
    if digits.len() >= key_size {
        key.extend_from_slice(digits.as_bytes());
    } else {
        key.resize(key_size - digits.len(), b'0');
        key.extend_from_slice(digits.as_bytes());
    }
    key
}

/// Decodes a key produced by [`encode_key`] back to its logical index.
pub fn decode_key(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key).ok()?.trim_start_matches('0').parse().ok().or_else(|| {
        // An all-zero key decodes to index 0.
        if key.iter().all(|&b| b == b'0') && !key.is_empty() {
            Some(0)
        } else {
            None
        }
    })
}

/// Generates a deterministic value of `value_size` bytes for `(key_index, version)`.
///
/// The value embeds the key index and version so correctness tests can verify that
/// reads observe the latest acknowledged write.
pub fn encode_value(key_index: u64, version: u64, value_size: usize) -> Vec<u8> {
    let header = format!("k{key_index}v{version}:");
    let mut value = Vec::with_capacity(value_size.max(header.len()));
    value.extend_from_slice(header.as_bytes());
    let mut filler = key_index.wrapping_mul(6364136223846793005).wrapping_add(version);
    while value.len() < value_size {
        filler = filler.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        value.push((filler >> 33) as u8);
    }
    value.truncate(value_size.max(header.len()));
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_is_fixed_width_and_ordered() {
        let a = encode_key(1, 8);
        let b = encode_key(2, 8);
        let c = encode_key(10, 8);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b"00000001");
        assert!(a < b && b < c, "lexicographic order must follow numeric order");
        assert_eq!(decode_key(&a), Some(1));
        assert_eq!(decode_key(&c), Some(10));
        assert_eq!(decode_key(&encode_key(0, 8)), Some(0));
    }

    #[test]
    fn key_encoding_handles_overflowing_width() {
        let key = encode_key(123_456_789_012, 8);
        assert_eq!(key.len(), 12, "wide indexes expand past the nominal key size");
        assert_eq!(decode_key(&key), Some(123_456_789_012));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_key(b"not-a-key"), None);
        assert_eq!(decode_key(b""), None);
    }

    #[test]
    fn values_have_requested_size_and_embed_identity() {
        let value = encode_value(42, 7, 255);
        assert_eq!(value.len(), 255);
        assert!(value.starts_with(b"k42v7:"));
        // Deterministic.
        assert_eq!(value, encode_value(42, 7, 255));
        // Different versions differ.
        assert_ne!(value, encode_value(42, 8, 255));
        // Tiny value sizes still embed the header.
        let tiny = encode_value(1, 1, 2);
        assert!(tiny.starts_with(b"k1v1:"));
    }
}
