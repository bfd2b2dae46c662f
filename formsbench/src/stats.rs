//! Order statistics shared by the run and `compare`.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts a sample in place (total order, NaN last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of a sorted sample (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q)]
}

/// The tail percentile `q` of a sorted sample, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let beyond = sorted.len() - 1 - rank(sorted.len(), q);
    (beyond >= TAIL_SAMPLES).then(|| sorted[rank(sorted.len(), q)])
}

/// Nearest rank (0-based) of quantile `q` among `n` samples; the epsilon
/// keeps products like `0.9 × 110` from rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank median of each slice (NaN for an empty slice).
pub fn slice_p50s(slices: &[&[f64]]) -> Vec<f64> {
    slices
        .iter()
        .map(|s| {
            let mut v = s.to_vec();
            sort(&mut v);
            if v.is_empty() {
                f64::NAN
            } else {
                percentile(&v, 0.5)
            }
        })
        .collect()
}

/// Mean of the best quarter (at least one) of `values`: the lowest when
/// `lower_is_better`, else the highest. Interference from the shared host
/// only ever slows the program down, so the best rounds are the steadiest
/// estimate of what the program itself costs.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn best_quarter(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best quarter of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    if !lower_is_better {
        // NaN sorts last; keep it last.
        let finite = v.iter().take_while(|x| !x.is_nan()).count();
        v[..finite].reverse();
    }
    let k = values.len().div_ceil(4);
    v[..k].iter().sum::<f64>() / k as f64
}

/// The tail percentile `q` over the calmest slices: the slices, ranked by
/// `calmness` (lower is calmer, such as each slice's median), are pooled
/// calmest first until at least a quarter of them are in and the pool
/// supports the tail (see [`tail`]). `None` when even all slices pooled
/// cannot support it.
pub fn calm_tail(slices: &[&[f64]], calmness: &[f64], q: f64) -> Option<f64> {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| calmness[a].total_cmp(&calmness[b]));
    let quarter = slices.len().div_ceil(4);
    let mut pooled = Vec::new();
    for (taken, &i) in order.iter().enumerate() {
        pooled.extend_from_slice(slices[i]);
        if taken + 1 >= quarter {
            sort(&mut pooled);
            if let Some(t) = tail(&pooled, q) {
                return Some(t);
            }
        }
    }
    None
}

/// Median of an unsorted sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the values between the first and third quartile (inclusive),
/// a location estimate that ignores outliers on either side but, unlike the
/// median of few integers, still varies continuously.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let inner: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| (q1..=q3).contains(v))
        .collect();
    if inner.is_empty() {
        median(values)
    } else {
        inner.iter().sum::<f64>() / inner.len() as f64
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(&mut out) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for two values, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_reported_only_with_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted, 0.99), Some(990.0));
        assert_eq!(tail(&sorted[..999], 0.99), None);
        assert_eq!(tail(&sorted[..100], 0.9), Some(90.0));
        assert_eq!(tail(&sorted[..99], 0.9), None);
        assert_eq!(tail(&sorted[..110], 0.9), Some(99.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn the_tail_pools_the_calmest_slices_until_it_is_supported() {
        let ramp: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = ramp.iter().map(|v| v * 10.0).collect();
        let p50s = |slices: &[&[f64]]| slice_p50s(slices);
        // Too few samples even pooled.
        let short: [&[f64]; 2] = [&ramp[..500], &ramp[..499]];
        assert_eq!(calm_tail(&short, &p50s(&short), 0.99), None);
        // Small slices pool until the tail is supported: all ten here.
        let small: Vec<&[f64]> = ramp.chunks(100).collect();
        assert_eq!(calm_tail(&small, &p50s(&small), 0.99), Some(990.0));
        // Large slices: the calmest quarter (here one slice) is enough, and
        // a slow slice is never taken.
        let mixed: [&[f64]; 4] = [&slow, &ramp, &slow, &slow];
        assert_eq!(calm_tail(&mixed, &p50s(&mixed), 0.99), Some(990.0));
        assert_eq!(calm_tail(&[], &[], 0.99), None);
        assert_eq!(p50s(&mixed), vec![5000.0, 500.0, 5000.0, 5000.0]);
        assert!(p50s(&[&[]])[0].is_nan());
    }

    #[test]
    fn the_best_quarter_is_averaged() {
        let v = [9.0, 1.0, 4.0, 2.0, 8.0, 7.0, 3.0, 6.0];
        assert_eq!(best_quarter(&v, true), 1.5);
        assert_eq!(best_quarter(&v, false), 8.5);
        assert_eq!(best_quarter(&[5.0], false), 5.0);
        // Five values: the best two.
        assert_eq!(best_quarter(&[5.0, 1.0, 3.0, 2.0, 4.0], true), 1.5);
        assert_eq!(best_quarter(&[f64::NAN, 1.0, 3.0, 2.0], false), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Quartiles 2.75 and 8.25 keep 3..=8.
        assert_eq!(interquartile_mean(&v), 5.5);
        assert_eq!(interquartile_mean(&[1.0, 1.0, 1.0, 100.0, 1.0]), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
