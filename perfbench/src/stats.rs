//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples,
//! so every reported latency is one that was actually observed. The
//! steadiness statistics (quartiles, spread) live with the comparator
//! in `steady.py`, which mirrors Python's `statistics.quantiles`.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by nearest rank:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the `p`-th percentile's rank:
/// the tail a percentile is resting on (the choosing-metrics rule
/// wants at least ten).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}
