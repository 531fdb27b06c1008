//! Order statistics of a sample: median, p90 and quartiles.

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending sample, interpolating
/// linearly between the two closest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Sorts a copy of `values` and reads off the order statistics.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Summary {
        count: sorted.len(),
        q1: quantile(&sorted, 0.25),
        p50: quantile(&sorted, 0.50),
        q3: quantile(&sorted, 0.75),
        p90: quantile(&sorted, 0.90),
        max: sorted[sorted.len() - 1],
    }
}

/// The `p`-quantile of each of up to eight consecutive chunks, of at least
/// ten values, of a sample in time order.  A sample under twenty values is
/// one chunk.
pub fn chunk_quantiles(in_time_order: &[f64], p: f64) -> Vec<f64> {
    let chunks = (in_time_order.len() / 10).clamp(1, 8);
    let size = in_time_order.len().div_ceil(chunks);
    in_time_order
        .chunks(size)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            quantile(&sorted, p)
        })
        .collect()
}

/// The `p`-quantile of a sample in time order, steady against a disturbance
/// that lasts part of the run: the median of [`chunk_quantiles`].
pub fn steady_quantile(in_time_order: &[f64], p: f64) -> f64 {
    median(&chunk_quantiles(in_time_order, p))
}

/// Prints a latency sample's plain order statistics and its quantiles by
/// eighth of the run; returns the steady median and p90 that are reported.
pub fn report_latency(label: &str, ms_in_time_order: &[f64]) -> (f64, f64) {
    let s = summarize(ms_in_time_order);
    println!(
        "{label}: n={} q1={:.4} p50={:.4} q3={:.4} p90={:.4} max={:.4}",
        s.count, s.q1, s.p50, s.q3, s.p90, s.max
    );
    let by_eighth = |p| chunk_quantiles(ms_in_time_order, p);
    println!("{label} p50 by eighth of the run: {:.4?}", by_eighth(0.5));
    println!("{label} p90 by eighth of the run: {:.4?}", by_eighth(0.9));
    (
        steady_quantile(ms_in_time_order, 0.5),
        steady_quantile(ms_in_time_order, 0.9),
    )
}

/// What tracing costs: how much the median of the operations that ran under
/// a span exceeds the median of those that did not, as a share of the latter
/// (0 when either group is empty).
pub fn trace_overhead_share(ms: &[f64], spanned: &[bool]) -> f64 {
    let group = |under_span: bool| -> Vec<f64> {
        let pairs = ms.iter().zip(spanned).filter(|(_, s)| **s == under_span);
        pairs.map(|(v, _)| *v).collect()
    };
    let (plain, traced) = (group(false), group(true));
    if plain.is_empty() || traced.is_empty() {
        return 0.0;
    }
    (median(&traced) - median(&plain)) / median(&plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!((s.q1, s.p50, s.q3, s.max), (2.0, 3.0, 4.0, 5.0));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn a_disturbed_stretch_does_not_move_the_steady_quantile() {
        // 80 values in time order; the third eighth of the run is disturbed.
        let mut ms: Vec<f64> = (0..80).map(|i| 10.0 + (i % 10) as f64 * 0.1).collect();
        let quiet = steady_quantile(&ms, 0.9);
        for v in &mut ms[20..30] {
            *v += 50.0;
        }
        assert_eq!(steady_quantile(&ms, 0.9), quiet);
        assert!(summarize(&ms).p90 > quiet + 1.0);
        // Too few values to cut: the plain quantile.
        assert_eq!(steady_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn trace_overhead_compares_the_two_groups_medians() {
        let ms = [10.0, 11.0, 10.0, 11.0, 10.0, 11.0];
        let spanned = [false, true, false, true, false, true];
        assert!((trace_overhead_share(&ms, &spanned) - 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead_share(&ms, &[false; 6]), 0.0);
    }

    #[test]
    fn a_single_value_is_every_quantile() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.p50, s.p90, s.max), (7.0, 7.0, 7.0, 7.0));
    }
}
