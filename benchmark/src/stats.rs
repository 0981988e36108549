//! The benchmark's own statistics: percentiles, the tail rule, guarded
//! ratios and the throughput numerator.

/// Percentiles the tail rule may pick, lowest first. A fixed ladder
/// keeps the reported percentile the same across runs whose sample
/// counts differ by a batch or two.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` if empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).saturating_sub(1)])
}

/// One-based nearest rank of percentile `p` in `n` samples, in integer
/// tenths of a percent so `p99.9` of 10 000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle two for even
/// counts). `None` if empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// `num / den`, or 0 when the base is 0 (nothing attempted means
/// nothing wasted). Ratios are always reported with their base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated node-seconds of a job list: Σ(nodes × simulated seconds).
/// Fixed by the workload, not by how many events the model schedules.
pub fn node_seconds(jobs: impl IntoIterator<Item = (u32, f64)>) -> f64 {
    jobs.into_iter().map(|(n, s)| n as f64 * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // Below 20 samples even the median leaves fewer than ten.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(
                    beyond(n, next) < TAIL_MIN_BEYOND,
                    "n={n}: p{next} also qualifies"
                );
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn node_seconds_sums_nodes_times_duration() {
        assert_eq!(node_seconds([]), 0.0);
        // Six 80-node, 200 s paper jobs plus one 2000-node, 20 s job.
        let jobs = std::iter::repeat_n((80, 200.0), 6).chain([(2000, 20.0)]);
        assert_eq!(node_seconds(jobs), 6.0 * 80.0 * 200.0 + 40_000.0);
    }
}
