//! Scalar statistics kernels shared by the MVTS and TSFRESH extractors.
//!
//! All kernels tolerate short inputs (returning 0.0 where a statistic is
//! undefined) because trimmed production time series can be arbitrarily
//! short; feature extractors must never poison a whole sample with NaN.
//!
//! A kernel that reads the series mean (or variance) has a `*_with` twin
//! that takes it precomputed, so an extractor computing several such
//! features computes the moments once. The plain kernel calls its twin
//! with `mean(x)` (and `variance(x)`), so both return the same bits.

/// Arithmetic mean (0.0 for empty input).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (0.0 for fewer than 2 points).
pub fn variance(x: &[f64]) -> f64 {
    variance_with(x, mean(x))
}

/// [`variance`] about the precomputed mean `m`.
pub fn variance_with(x: &[f64], m: f64) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Minimum (0.0 for empty input).
pub fn min(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum (0.0 for empty input).
pub fn max(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolated quantile `q` in [0, 1] (0.0 for empty input).
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Quantile over an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_by(sorted.len(), q, |i| sorted[i])
}

/// The `q` quantile of `len` ascending values, where `at(i)` is the
/// `i`-th smallest: linear interpolation between the two order
/// statistics around `q · (len − 1)`. Reads at most two of them.
pub fn quantile_by(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let w = pos - lo as f64;
        at(lo) * (1.0 - w) + at(hi) * w
    }
}

/// Median.
pub fn median(x: &[f64]) -> f64 {
    quantile(x, 0.5)
}

/// Fisher skewness (0.0 when undefined or the series is constant).
pub fn skewness(x: &[f64]) -> f64 {
    skewness_with(x, mean(x), std_dev(x))
}

/// [`skewness`] from the precomputed mean `m` and standard deviation `s`.
pub fn skewness_with(x: &[f64], m: f64, s: f64) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    if s < 1e-12 {
        return 0.0;
    }
    let n = x.len() as f64;
    x.iter().map(|v| ((v - m) / s).powi(3)).sum::<f64>() / n
}

/// Excess kurtosis (0.0 when undefined or the series is constant).
pub fn kurtosis(x: &[f64]) -> f64 {
    kurtosis_with(x, mean(x), std_dev(x))
}

/// [`kurtosis`] from the precomputed mean `m` and standard deviation `s`.
pub fn kurtosis_with(x: &[f64], m: f64, s: f64) -> f64 {
    if x.len() < 4 {
        return 0.0;
    }
    if s < 1e-12 {
        return 0.0;
    }
    let n = x.len() as f64;
    x.iter().map(|v| ((v - m) / s).powi(4)).sum::<f64>() / n - 3.0
}

/// Root mean square.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Sum of absolute changes between consecutive points.
pub fn abs_energy_of_changes(x: &[f64]) -> f64 {
    x.windows(2).map(|w| (w[1] - w[0]).abs()).sum()
}

/// Mean absolute change.
pub fn mean_abs_change(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    abs_energy_of_changes(x) / (x.len() - 1) as f64
}

/// Mean (signed) change — equals `(last - first) / (n - 1)`.
pub fn mean_change(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    (x[x.len() - 1] - x[0]) / (x.len() - 1) as f64
}

/// Autocorrelation at the given lag (0.0 when undefined).
///
/// Uses the *biased* estimator (lagged covariance divided by `n`, not
/// `n - lag`), which Cauchy–Schwarz bounds to `[-1, 1]` for every input —
/// the unbiased variant explodes on short series, poisoning feature
/// vectors.
pub fn autocorrelation(x: &[f64], lag: usize) -> f64 {
    autocorrelation_with(x, lag, mean(x), variance(x))
}

/// [`autocorrelation`] from the precomputed mean `m` and variance `var`.
pub fn autocorrelation_with(x: &[f64], lag: usize, m: f64, var: f64) -> f64 {
    if x.len() <= lag || lag == 0 {
        return 0.0;
    }
    if var < 1e-12 {
        return 0.0;
    }
    let n = x.len();
    let cov: f64 = (0..n - lag).map(|i| (x[i] - m) * (x[i + lag] - m)).sum::<f64>() / n as f64;
    cov / var
}

/// Slope of the ordinary-least-squares line fit against time indices.
pub fn linear_trend_slope(x: &[f64]) -> f64 {
    linear_trend_slope_with(x, mean(x))
}

/// [`linear_trend_slope`] from the precomputed mean `xm`.
pub fn linear_trend_slope_with(x: &[f64], xm: f64) -> f64 {
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let tm = (n - 1) as f64 / 2.0;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &v) in x.iter().enumerate() {
        let dt = i as f64 - tm;
        num += dt * (v - xm);
        den += dt * dt;
    }
    if den < 1e-12 {
        0.0
    } else {
        num / den
    }
}

/// Intercept of the OLS line fit.
pub fn linear_trend_intercept(x: &[f64]) -> f64 {
    linear_trend_intercept_with(x, mean(x), linear_trend_slope(x))
}

/// [`linear_trend_intercept`] from the precomputed mean `m` and slope.
pub fn linear_trend_intercept_with(x: &[f64], m: f64, slope: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    m - slope * (x.len() - 1) as f64 / 2.0
}

/// Length of the longest strictly increasing run.
pub fn longest_monotonic_increase(x: &[f64]) -> usize {
    longest_run(x, |a, b| b > a)
}

/// Length of the longest strictly decreasing run.
pub fn longest_monotonic_decrease(x: &[f64]) -> usize {
    longest_run(x, |a, b| b < a)
}

fn longest_run(x: &[f64], keep: impl Fn(f64, f64) -> bool) -> usize {
    if x.is_empty() {
        return 0;
    }
    let mut best = 1usize;
    let mut cur = 1usize;
    for w in x.windows(2) {
        if keep(w[0], w[1]) {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 1;
        }
    }
    best
}

/// Longest run of values strictly above the series mean.
pub fn longest_strike_above_mean(x: &[f64]) -> usize {
    longest_strike_above_mean_with(x, mean(x))
}

/// [`longest_strike_above_mean`] about the precomputed mean `m`.
pub fn longest_strike_above_mean_with(x: &[f64], m: f64) -> usize {
    longest_condition_run(x, |v| v > m)
}

/// Longest run of values strictly below the series mean.
pub fn longest_strike_below_mean(x: &[f64]) -> usize {
    longest_strike_below_mean_with(x, mean(x))
}

/// [`longest_strike_below_mean`] about the precomputed mean `m`.
pub fn longest_strike_below_mean_with(x: &[f64], m: f64) -> usize {
    longest_condition_run(x, |v| v < m)
}

fn longest_condition_run(x: &[f64], cond: impl Fn(f64) -> bool) -> usize {
    let mut best = 0usize;
    let mut cur = 0usize;
    for &v in x {
        if cond(v) {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 0;
        }
    }
    best
}

/// Number of mean crossings.
pub fn mean_crossings(x: &[f64]) -> usize {
    mean_crossings_with(x, mean(x))
}

/// [`mean_crossings`] of the precomputed mean `m`.
pub fn mean_crossings_with(x: &[f64], m: f64) -> usize {
    x.windows(2).filter(|w| (w[0] > m) != (w[1] > m)).count()
}

/// Number of local maxima (strictly greater than both neighbours).
pub fn count_peaks(x: &[f64]) -> usize {
    if x.len() < 3 {
        return 0;
    }
    x.windows(3).filter(|w| w[1] > w[0] && w[1] > w[2]).count()
}

/// Fraction of values strictly above the mean.
pub fn fraction_above_mean(x: &[f64]) -> f64 {
    fraction_above_mean_with(x, mean(x))
}

/// [`fraction_above_mean`] of the precomputed mean `m`.
pub fn fraction_above_mean_with(x: &[f64], m: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().filter(|&&v| v > m).count() as f64 / x.len() as f64
}

/// Coefficient of variation (`std / |mean|`; 0.0 for near-zero mean).
pub fn variation_coefficient(x: &[f64]) -> f64 {
    variation_coefficient_with(mean(x), std_dev(x))
}

/// [`variation_coefficient`] from the precomputed mean `m` and standard
/// deviation `s`.
pub fn variation_coefficient_with(m: f64, s: f64) -> f64 {
    if m.abs() < 1e-12 {
        return 0.0;
    }
    s / m.abs()
}

/// Approximate entropy with embedding dimension `m` and tolerance
/// `r * std(x)` (Pincus 1991; the TSFRESH formulation).
///
/// Returns 0.0 for series shorter than `m + 2` points or constant series.
pub fn approximate_entropy(x: &[f64], m: usize, r: f64) -> f64 {
    let n = x.len();
    if n < m + 2 {
        return 0.0;
    }
    let tol = r * std_dev(x);
    if tol < 1e-12 {
        return 0.0;
    }
    let phi = |dim: usize| -> f64 {
        let count = n - dim + 1;
        let mut total = 0.0f64;
        for i in 0..count {
            let mut matches = 0usize;
            for j in 0..count {
                let mut dist = 0.0f64;
                for k in 0..dim {
                    dist = dist.max((x[i + k] - x[j + k]).abs());
                }
                if dist <= tol {
                    matches += 1;
                }
            }
            total += (matches as f64 / count as f64).ln();
        }
        total / count as f64
    };
    (phi(m) - phi(m + 1)).abs()
}

/// Binned (histogram) entropy with `bins` equal-width bins.
pub fn binned_entropy(x: &[f64], bins: usize) -> f64 {
    if x.is_empty() || bins == 0 {
        return 0.0;
    }
    let lo = x.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(hi - lo).is_finite() || hi - lo < 1e-12 {
        return 0.0;
    }
    let mut counts = vec![0usize; bins];
    for &v in x {
        let b = (((v - lo) / (hi - lo)) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let n = x.len() as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Complexity-invariant distance estimate (CID, as in TSFRESH's `cid_ce`
/// with normalisation).
pub fn cid_ce(x: &[f64]) -> f64 {
    cid_ce_with(x, mean(x), std_dev(x))
}

/// [`cid_ce`] from the precomputed mean `m` and standard deviation `s`.
/// Each point is normalised once per window it sits in, to the same bits
/// each time, so no normalised copy is allocated.
pub fn cid_ce_with(x: &[f64], m: f64, s: f64) -> f64 {
    if x.len() < 2 || s < 1e-12 {
        return 0.0;
    }
    x.windows(2)
        .map(|w| {
            let d = (w[1] - m) / s - (w[0] - m) / s;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Sum of squares (abs energy in TSFRESH terms).
pub fn abs_energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Index (fraction of series length) where the cumulative sum of squares
/// first reaches `q` of the total (TSFRESH `index_mass_quantile`).
pub fn index_mass_quantile(x: &[f64], q: f64) -> f64 {
    let total: f64 = x.iter().map(|v| v.abs()).sum();
    if x.is_empty() || total < 1e-12 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total;
    let mut acc = 0.0;
    for (i, v) in x.iter().enumerate() {
        acc += v.abs();
        if acc >= target {
            return (i + 1) as f64 / x.len() as f64;
        }
    }
    1.0
}

/// Ratio of values occurring more than once (TSFRESH
/// `percentage_of_reoccurring_datapoints`), with values bucketed to 1e-9.
pub fn ratio_value_recurrence(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut keys: Vec<i64> = x.iter().map(|v| (v / 1e-9).round() as i64).collect();
    keys.sort_unstable();
    let mut repeated = 0usize;
    let mut i = 0usize;
    while i < keys.len() {
        let mut j = i + 1;
        while j < keys.len() && keys[j] == keys[i] {
            j += 1;
        }
        if j - i > 1 {
            repeated += j - i;
        }
        i = j;
    }
    repeated as f64 / x.len() as f64
}

/// Time-reversal asymmetry statistic with the given lag.
pub fn time_reversal_asymmetry(x: &[f64], lag: usize) -> f64 {
    let n = x.len();
    if lag == 0 || n < 2 * lag + 1 {
        return 0.0;
    }
    let count = n - 2 * lag;
    (0..count)
        .map(|i| x[i + 2 * lag] * x[i + 2 * lag] * x[i + lag] - x[i + lag] * x[i] * x[i])
        .sum::<f64>()
        / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn descriptive_stats_on_known_series() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < EPS);
        assert!((std_dev(&x) - 2.0).abs() < EPS);
        assert!((min(&x) - 2.0).abs() < EPS);
        assert!((max(&x) - 9.0).abs() < EPS);
        assert!((median(&x) - 4.5).abs() < EPS);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let e: [f64; 0] = [];
        assert_eq!(mean(&e), 0.0);
        assert_eq!(std_dev(&e), 0.0);
        assert_eq!(min(&e), 0.0);
        assert_eq!(max(&e), 0.0);
        assert_eq!(median(&e), 0.0);
        assert_eq!(skewness(&e), 0.0);
        assert_eq!(approximate_entropy(&e, 2, 0.2), 0.0);
        assert_eq!(binned_entropy(&e, 10), 0.0);
        assert_eq!(linear_trend_slope(&e), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&x, 0.0) - 1.0).abs() < EPS);
        assert!((quantile(&x, 1.0) - 4.0).abs() < EPS);
        assert!((quantile(&x, 0.5) - 2.5).abs() < EPS);
    }

    #[test]
    fn skewness_sign_matches_asymmetry() {
        let right = [1.0, 1.0, 1.0, 1.0, 10.0];
        let left = [10.0, 10.0, 10.0, 10.0, 1.0];
        assert!(skewness(&right) > 0.5);
        assert!(skewness(&left) < -0.5);
        let sym = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&sym).abs() < EPS);
    }

    #[test]
    fn kurtosis_of_uniformlike_is_negative() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(kurtosis(&x) < 0.0, "flat distribution is platykurtic");
    }

    #[test]
    fn trend_slope_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| 3.0 + 0.5 * i as f64).collect();
        assert!((linear_trend_slope(&x) - 0.5).abs() < EPS);
        assert!((linear_trend_intercept(&x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn monotonic_runs() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0, 0.5, 4.0];
        assert_eq!(longest_monotonic_increase(&x), 3);
        assert_eq!(longest_monotonic_decrease(&x), 4);
    }

    #[test]
    fn strikes_and_crossings() {
        let x = [0.0, 0.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(longest_strike_above_mean(&x), 3);
        assert_eq!(longest_strike_below_mean(&x), 4);
        assert_eq!(mean_crossings(&x), 2);
    }

    #[test]
    fn peaks_counted() {
        let x = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        assert_eq!(count_peaks(&x), 3);
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let x: Vec<f64> =
            (0..200).map(|i| (std::f64::consts::TAU * i as f64 / 10.0).sin()).collect();
        assert!(autocorrelation(&x, 10) > 0.85, "full-period lag is correlated");
        assert!(autocorrelation(&x, 5) < -0.85, "half-period lag anticorrelated");
    }

    #[test]
    fn approximate_entropy_orders_regular_vs_random() {
        let regular: Vec<f64> = (0..120).map(|i| (i % 2) as f64).collect();
        // Deterministic pseudo-random series.
        let mut state = 12345u64;
        let noisy: Vec<f64> = (0..120)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            })
            .collect();
        let e_reg = approximate_entropy(&regular, 2, 0.2);
        let e_noise = approximate_entropy(&noisy, 2, 0.2);
        assert!(e_reg < e_noise, "regular {e_reg} should be below noisy {e_noise}");
    }

    #[test]
    fn binned_entropy_bounds() {
        let constant = [5.0; 50];
        assert_eq!(binned_entropy(&constant, 10), 0.0);
        let uniform: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let e = binned_entropy(&uniform, 10);
        assert!((e - (10.0f64).ln()).abs() < 0.02, "uniform entropy near ln(bins), got {e}");
    }

    #[test]
    fn cid_grows_with_complexity() {
        let smooth: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let jagged: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        assert!(cid_ce(&jagged) > cid_ce(&smooth));
    }

    #[test]
    fn index_mass_quantile_midpoint() {
        let x = [1.0, 1.0, 1.0, 1.0];
        assert!((index_mass_quantile(&x, 0.5) - 0.5).abs() < EPS);
    }

    #[test]
    fn recurrence_ratio() {
        let x = [1.0, 2.0, 2.0, 3.0];
        assert!((ratio_value_recurrence(&x) - 0.5).abs() < EPS);
        let unique = [1.0, 2.0, 3.0];
        assert_eq!(ratio_value_recurrence(&unique), 0.0);
    }

    #[test]
    fn time_reversal_asymmetry_zero_for_symmetric() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 / 7.0).sin()).collect();
        // Sine is time-reversible; statistic should be small relative to amplitude.
        assert!(time_reversal_asymmetry(&x, 1).abs() < 0.05);
    }
}
