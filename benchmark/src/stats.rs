//! Order statistics. Nothing else: every figure the benchmark reports is a
//! median, a percentile or a quartile distance.

/// Nearest-rank percentile of unsorted `xs` (`q` in 0..=1). `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Interpolated median.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(xs, n=4)` gives them
/// (the default exclusive method), which is what the driver uses. Needs at
/// least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let (n, ld) = (4i64, v.len() as i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        out[(i - 1) as usize] =
            (v[(j - 1) as usize] * (n as f64 - delta) + v[j as usize] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the driver compares with a metric's bound.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.95), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
