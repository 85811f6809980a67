//! Order statistics and digests shared by every workload.

/// The smallest number of samples that must lie beyond a reported tail
/// percentile. A percentile with fewer samples past it is a guess about
/// the slowest handful of requests, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Index of the nearest-rank `p`-th percentile in a sorted sample of
/// `n`: the smallest rank whose share of the sample reaches `p`.
fn rank(n: usize, p: f64) -> usize {
    // The small offset keeps exact products such as 0.999 × 10000 from
    // rounding up past their rank.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many samples of a sorted sample of `n` lie strictly past its
/// nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The nearest-rank `p`-th percentile of an ascending `sorted` sample,
/// provided at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), p) < MIN_TAIL_SAMPLES {
        None
    } else {
        Some(sorted[rank(sorted.len(), p)])
    }
}

/// The highest of the conventional tail percentiles, no higher than
/// `cap`, that a sample of `n` supports under [`MIN_TAIL_SAMPLES`].
pub fn highest_supported(n: usize, cap: f64) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990 is the p99, samples 991..=1000 lie past it.
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(&sorted, 99.0), Some(990.0));
        // One sample fewer leaves only nine beyond: no p99.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(&sorted[..999], 99.0), None);
    }

    #[test]
    fn highest_supported_percentile_steps_down_with_sample_count() {
        assert_eq!(highest_supported(10_000, 100.0), Some(99.9));
        assert_eq!(highest_supported(10_000, 99.0), Some(99.0));
        assert_eq!(highest_supported(9_999, 100.0), Some(99.0));
        assert_eq!(highest_supported(1_000, 100.0), Some(99.0));
        assert_eq!(highest_supported(999, 100.0), Some(95.0));
        assert_eq!(highest_supported(200, 100.0), Some(95.0));
        assert_eq!(highest_supported(100, 100.0), Some(90.0));
        assert_eq!(highest_supported(21, 100.0), Some(50.0));
        assert_eq!(highest_supported(20, 100.0), Some(50.0));
        assert_eq!(highest_supported(19, 100.0), None);
    }

    #[test]
    fn median_percentile_is_the_middle_rank() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 50.0), Some(51.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
