//! The benchmark's arithmetic: medians, quartiles, tail percentiles and
//! per-node-per-second normalisation.

/// Median of the samples (mean of the two middle values for an even count);
/// `0.0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance check computes.
/// `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let cut = |i: f64| {
        let position = i * m / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1.0), cut(3.0)))
}

/// Interquartile range as a share of the median: the run-to-run spread of a
/// metric. `None` for fewer than two samples or a zero median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let mid = median(samples);
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, with its value (nearest-rank). `None` with fewer than
/// twenty samples, where not even the median has ten beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER.into_iter().find_map(|pct| {
        // Nearest rank; the epsilon keeps 99.9% of 10,000 at rank 9,990.
        let rank = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (pct, sorted[rank - 1]))
    })
}

/// A quantity spread over the group and the simulated run: `total ÷ nodes ÷
/// simulated seconds`. Zero when either divisor is.
pub fn per_node_per_s(total: f64, nodes: usize, sim_ms: u64) -> f64 {
    if nodes == 0 || sim_ms == 0 {
        return 0.0;
    }
    total / nodes as f64 / (sim_ms as f64 / 1000.0)
}

/// Summary of one span: sample count, median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// Number of samples.
    pub count: usize,
    /// Median duration.
    pub median: f64,
    /// The highest percentile with at least ten samples beyond it, or `0`
    /// when there are too few samples for any.
    pub tail_pct: f64,
    /// The duration at `tail_pct` (`0` when there is none).
    pub tail: f64,
}

impl SpanSummary {
    /// Summarises a set of durations.
    pub fn of(samples: &[f64]) -> Self {
        let (tail_pct, tail) = tail(samples).unwrap_or((0.0, 0.0));
        Self {
            count: samples.len(),
            median: median(samples),
            tail_pct,
            tail,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean_handle_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(relative_spread(&[0.0, 0.0]), None, "zero median");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None, "not even the median qualifies");
        // 20 samples: the median leaves exactly ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 100 samples: p90 leaves ten, p99 only one.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves ten, p99.9 only one.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        // 10,000 samples: p99.9 leaves ten.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.9, 9990.0)));
    }

    #[test]
    fn span_summary_reports_count_median_and_tail() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let summary = SpanSummary::of(&hundred);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.median, 50.5);
        assert_eq!((summary.tail_pct, summary.tail), (90.0, 90.0));
        let empty = SpanSummary::of(&[]);
        assert_eq!((empty.count, empty.median, empty.tail), (0, 0.0, 0.0));
    }

    #[test]
    fn normalisation_is_per_node_per_simulated_second() {
        // 8 MB over 4 nodes and 2 simulated seconds: 1 MB per node-second.
        assert_eq!(per_node_per_s(8_000_000.0, 4, 2_000), 1_000_000.0);
        assert_eq!(per_node_per_s(10.0, 0, 1_000), 0.0);
        assert_eq!(per_node_per_s(10.0, 3, 0), 0.0);
    }
}
