//! Order statistics for the benchmark's timings.

/// A percentile is reported only when at least this many samples lie beyond
/// it; fewer make the tail a handful of outliers rather than a statistic.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Median of `values` (mean of the middle pair for an even count), or `None`
/// for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // the tolerance keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of `samples`, or `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// Number of samples strictly beyond the nearest rank of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest reportable tail of a timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 95.0).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile among 99.9, 99, 95 and 90 that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p90 has too few.
pub fn highest_tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    LADDER
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| Tail {
            p,
            value: percentile(samples, p).expect("a supported tail implies samples"),
            beyond: beyond(n, p),
            samples: n,
        })
}

/// Fewest samples for which percentile `p` has [`MIN_BEYOND`] beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("unbounded search")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_with_ten_beyond() {
        // 200 samples: p95 has exactly 10 beyond, p99 only 2
        let t = highest_tail(&ramp(200)).expect("p95 supported");
        assert_eq!(t.p, 95.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
        assert_eq!(t.value, 190.0);
        // 199 samples fall back to p90 (19 beyond)
        let t = highest_tail(&ramp(199)).expect("p90 supported");
        assert_eq!((t.p, t.beyond, t.samples), (90.0, 19, 199));
        // 1000 samples reach p99 (10 beyond)
        assert_eq!(highest_tail(&ramp(1000)).map(|t| t.p), Some(99.0));
        // 10000 samples reach p99.9
        assert_eq!(highest_tail(&ramp(10_000)).map(|t| t.p), Some(99.9));
        // too few for any tail
        assert_eq!(highest_tail(&ramp(99)), None);
        assert_eq!(highest_tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 0..2_500 {
            if let Some(t) = highest_tail(&ramp(n)) {
                assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
                assert_eq!(t.samples, n);
            }
        }
    }

    #[test]
    fn samples_needed_matches_the_tail_rule() {
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(
            highest_tail(&ramp(samples_needed(95.0))).map(|t| t.p),
            Some(95.0)
        );
    }
}
