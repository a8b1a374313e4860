//! Order statistics, the tail-percentile rule, and a content digest.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `values`, or `None` unless
/// at least [`MIN_BEYOND`] samples lie strictly after the reported rank.
///
/// With `n` samples the rank is `ceil(q·n)` (1-based), so the samples
/// beyond it number `n − ceil(q·n)`: a p90 needs `n >= 100`.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`tail_percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).max(1) >= MIN_BEYOND)
        .expect("some sample count satisfies the rule")
}

/// FNV-1a 64-bit digest, printed as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None, "only 9 beyond");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        let beyond = hundred.iter().filter(|&&v| v > 90.0).count();
        assert_eq!(beyond, MIN_BEYOND);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
    }

    #[test]
    fn p50_is_the_lower_median_rank() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
