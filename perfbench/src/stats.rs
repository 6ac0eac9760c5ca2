//! Summary statistics: medians, quartiles and the tail-percentile rule.

/// The percentiles a tail is reported at, highest first, in tenths of a
/// percent.
const TAIL_LADDER_PERMILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail percentile with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(xs, n=4)` (the default, exclusive method) gives
/// them.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative (or past n) at the ends: Python extrapolates there too.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] that has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it (nearest-rank), or `None` when even
/// the 75th percentile has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len() as u64;
    TAIL_LADDER_PERMILLE.iter().find_map(|&p| {
        // Nearest rank: the smallest rank k with k/n >= p/1000.
        let k = (p * n).div_ceil(1000);
        let beyond = n.checked_sub(k)?;
        (k >= 1 && beyond >= MIN_BEYOND_TAIL as u64).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: v[(k - 1) as usize],
            samples: v.len(),
        })
    })
}

/// The time of a pass with each of its segments at its median over
/// passes: `Σ_i median_p(segments[p][i])`.  Every pass must split into
/// the same segments (the same waves or rounds, in the same order).  A
/// burst of interference shorter than half the run then moves no segment's
/// median, where it would move whole-pass times.  `None` when the passes do
/// not split alike.
pub fn sum_of_medians(passes: &[Vec<f64>]) -> Option<f64> {
    Some(medians_by_index(passes)?.iter().sum())
}

/// Each position's median over passes: `median_p(samples[p][i])` for every
/// `i`.  `None` when the passes differ in length or there are none.
pub fn medians_by_index(passes: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = passes.first()?.len();
    if passes.iter().any(|p| p.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .collect(),
    )
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 samples: p95 is rank 190, with exactly 10 beyond; p99 has 2.
        assert_eq!(
            tail(&xs(200)),
            Some(Tail {
                percentile: 95.0,
                value: 190.0,
                samples: 200
            })
        );
        // 1000 samples: p99 is rank 990 with 10 beyond.
        assert_eq!(tail(&xs(1000)).map(|t| t.percentile), Some(99.0));
        // 199 samples: p95 would leave 9 beyond, so p90 (rank 180, 19 beyond).
        assert_eq!(
            tail(&xs(199)),
            Some(Tail {
                percentile: 90.0,
                value: 180.0,
                samples: 199
            })
        );
        // 40 samples: p75 is rank 30 with 10 beyond; 39 has none.
        assert_eq!(tail(&xs(40)).map(|t| t.value), Some(30.0));
        assert_eq!(tail(&xs(39)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).map(|t| t.value), Some(190.0));
    }

    #[test]
    fn sum_of_medians_ignores_a_burst_in_one_pass() {
        let passes = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.0, 9.0, 3.0],
            vec![1.2, 2.0, 2.8],
        ];
        // Segment medians 1.0, 2.0, 3.0; the 9.0 burst does not count.
        assert_eq!(sum_of_medians(&passes), Some(6.0));
        assert_eq!(sum_of_medians(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(sum_of_medians(&[]), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
