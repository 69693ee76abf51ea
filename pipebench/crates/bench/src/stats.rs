//! Order statistics over raw samples: medians, nearest-rank percentiles,
//! and the tail rule every reported timing follows.

/// The median; the mean of the two middle samples for an even count.
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) over raw samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A timing's tail: the highest percentile (99 at most) that still has at
/// least ten samples beyond it, with the count those ten are drawn from.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Tail {
    /// The percentile reported; 50 means no percentile above the median
    /// had ten samples beyond it, so the tail falls back to the median.
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// p99 when at least ten samples lie beyond it; otherwise the highest
/// whole percentile that has ten beyond it; otherwise the median.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let beyond = |p: f64| n - rank(n, p);
    let pct = if n > 0 && beyond(99.0) >= TAIL_SUPPORT {
        99.0
    } else if n > TAIL_SUPPORT {
        ((n - TAIL_SUPPORT) * 100 / n) as f64
    } else {
        50.0
    };
    if pct <= 50.0 {
        return Tail {
            pct: 50.0,
            value: median(samples),
            samples: n,
        };
    }
    Tail {
        pct,
        value: percentile(samples, pct),
        samples: n,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 500 samples: p99 has 5 beyond it; p98 (rank 490) has exactly 10.
        let t = tail(&ramp(500));
        assert_eq!((t.pct, t.value), (98.0, 490.0));
        assert_eq!(500 - 490, TAIL_SUPPORT);
        // 40 samples: p75 (rank 30) is the highest with 10 beyond.
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value), (75.0, 30.0));
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        for n in [0, 1, 2, 10, 15, 20] {
            let v = ramp(n);
            let t = tail(&v);
            assert_eq!(t.pct, 50.0, "n={n}");
            assert_eq!(t.value, median(&v), "n={n}");
            assert_eq!(t.samples, n);
        }
    }
}
