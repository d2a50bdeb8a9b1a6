//! Order statistics shared by the measured run, the traced run and the layer
//! replays.

use std::time::Duration;

/// The value at quantile `q` of `sorted` (nearest rank), or 0 when empty.
pub fn quantile<T: Copy + Into<u64>>(sorted: &[T], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1].into() as f64,
    }
}

/// The median of `samples`, which must not be empty.
pub fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.50), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted[..1], 0.99), 1.0);
        assert_eq!(quantile::<u32>(&[], 0.5), 0.0);
        let millis = |ms| Duration::from_millis(ms);
        assert_eq!(median(vec![millis(9), millis(1), millis(5)]), millis(5));
    }
}
