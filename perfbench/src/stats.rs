//! Order statistics over per-pass samples.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(data, n=4)`), so the benchmark's own spread
/// figures match how its runs are judged.
pub fn summarize(values: &[f64]) -> Summary {
    let mut data: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let median = match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    let (q1, q3) = if n < 2 {
        (median, median)
    } else {
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    };
    Summary { median, q1, q3, n }
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&data);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0, 20.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 10.0);
        assert_eq!(quantile_sorted(&sorted, 0.75), 15.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 20.0);
    }
}
