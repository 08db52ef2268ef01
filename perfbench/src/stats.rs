//! Exact order statistics over the benchmark's own samples.
//!
//! Every timing is reported as its median plus the highest percentile of a
//! fixed ladder that still has at least [`MIN_BEYOND`] samples beyond it,
//! with the sample count. Percentiles use the nearest-rank definition, so
//! each reported value is one of the measured samples.

/// Percentile ladder searched for the tail, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// offset keeps `p * n / 100` that is an integer in exact arithmetic from
/// rounding up a rank (99.9 % of 10 000 is rank 9990, not 9991).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// its rank, or `None` when even the median lacks that support
/// (fewer than 20 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median (nearest-rank p50) of unsorted samples; `0.0` for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, 50.0)
}

/// Median and supported tail of one set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// Highest supported ladder percentile; `None` below 20 samples.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct`; the median when no percentile is supported.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (which need not be sorted).
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let median = percentile_sorted(&s, 50.0);
        let tail_pct = supported_tail(s.len());
        let tail = tail_pct.map_or(median, |p| percentile_sorted(&s, p));
        Summary { n: s.len(), median, tail_pct, tail }
    }

    /// Tail label for reports, e.g. `p99` or `p50*` (unsupported).
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) if p.fract() == 0.0 => format!("p{p:.0}"),
            Some(p) => format!("p{p}"),
            None => "p50*".to_string(),
        }
    }
}

/// Least-squares slope of `ys` against `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 99.9), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Below 20 samples not even the median has 10 beyond it.
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        // p90 of 99 samples is rank 90: 9 beyond, so p50 is the tail.
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_supported_tail() {
        let s: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let sm = Summary::of(&s);
        assert_eq!(sm.n, 2000);
        assert_eq!(sm.tail_pct, Some(99.0));
        assert_eq!(sm.tail, 1979.0);
        assert_eq!(sm.tail_label(), "p99");
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.median, few.tail, few.tail_pct), (2.0, 2.0, None));
        assert_eq!(few.tail_label(), "p50*");
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
    }
}
