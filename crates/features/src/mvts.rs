//! MVTS-style feature extraction: 48 statistical features per metric.
//!
//! Mirrors the MVTS-Data Toolkit used by the paper: descriptive statistics,
//! absolute differences between the descriptive statistics of the first and
//! second halves of the series, and long-run trend features such as the
//! longest monotonic increase (Sec. III-A).
//!
//! [`Mvts::extract`] computes all 48 features with the plain kernels; it
//! is the reference. [`FeatureExtractor::extract_select`] computes only
//! the wanted offsets and builds each intermediate they share once:
//!
//! * **Sorted halves.** The series is split at `len / 2`, as the
//!   half-vs-half features split it. Each half's `u64` total-order keys
//!   ([`alba_data::total_order_key`]) are sorted once; the half
//!   quantiles (`halves_abs_diff_{median,q25,q75}`) read their run.
//! * **Whole-series quantiles** (median, q25, q75, iqr, q10, q90) read
//!   the order statistics they interpolate as the `k`-th smallest key
//!   of the two runs' union, found by binary search, with no merged
//!   copy. Two values `total_cmp` calls equal have the same bits, so
//!   every order statistic is bit-identical to indexing the output of
//!   `sort_by(f64::total_cmp)`.
//! * **Moments.** `mean(x)` and `variance(x)` once per series, shared by
//!   mean, std, var, skewness, kurtosis, cid_ce, variation_coefficient,
//!   the mean crossings, fraction and strikes, the trend slope and
//!   intercept, and the autocorrelations. The halves' means and
//!   variances likewise serve their mean, std, skewness, kurtosis and
//!   slope differences. The kernels take them through the `*_with`
//!   twins in [`crate::stats`].
//! * **Trend slope**, shared by the slope and the intercept.
//!
//! The sort keys live in the caller's [`SelectScratch`].

use alba_data::{canonical_nan, from_total_order_key, total_order_key};

use crate::extract::{FeatureExtractor, SelectScratch};
use crate::stats::*;

/// The MVTS extractor (stateless).
#[derive(Clone, Copy, Debug, Default)]
pub struct Mvts;

/// Names of the 48 features, in output order.
pub const MVTS_FEATURE_NAMES: [&str; 48] = [
    // Descriptive statistics (12).
    "mean",
    "std",
    "var",
    "min",
    "max",
    "median",
    "q25",
    "q75",
    "iqr",
    "rms",
    "skewness",
    "kurtosis",
    // Change / complexity statistics (10).
    "mean_abs_change",
    "mean_change",
    "abs_energy",
    "cid_ce",
    "variation_coefficient",
    "mean_crossings",
    "count_peaks",
    "fraction_above_mean",
    "longest_strike_above_mean",
    "longest_strike_below_mean",
    // Long-run trends (4).
    "trend_slope",
    "trend_intercept",
    "longest_monotonic_increase",
    "longest_monotonic_decrease",
    // First-half vs second-half absolute differences (11).
    "halves_abs_diff_mean",
    "halves_abs_diff_std",
    "halves_abs_diff_min",
    "halves_abs_diff_max",
    "halves_abs_diff_median",
    "halves_abs_diff_q25",
    "halves_abs_diff_q75",
    "halves_abs_diff_skewness",
    "halves_abs_diff_kurtosis",
    "halves_abs_diff_slope",
    "halves_abs_diff_rms",
    // Positional / boundary statistics (11).
    "first_value",
    "last_value",
    "last_minus_first",
    "argmax_fraction",
    "argmin_fraction",
    "autocorr_lag1",
    "autocorr_lag2",
    "autocorr_lag5",
    "sum",
    "q10",
    "q90",
];

impl FeatureExtractor for Mvts {
    fn name(&self) -> &'static str {
        "mvts"
    }

    fn n_features_per_metric(&self) -> usize {
        MVTS_FEATURE_NAMES.len()
    }

    fn feature_names(&self, metric: &str) -> Vec<String> {
        MVTS_FEATURE_NAMES.iter().map(|f| format!("{metric}::{f}")).collect()
    }

    fn extract(&self, x: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        let mut sorted = x.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q25 = quantile_sorted(&sorted, 0.25);
        let q75 = quantile_sorted(&sorted, 0.75);

        // Descriptive statistics.
        out.push(mean(x));
        out.push(std_dev(x));
        out.push(variance(x));
        out.push(min(x));
        out.push(max(x));
        out.push(quantile_sorted(&sorted, 0.5));
        out.push(q25);
        out.push(q75);
        out.push(q75 - q25);
        out.push(rms(x));
        out.push(skewness(x));
        out.push(kurtosis(x));

        // Change / complexity.
        out.push(mean_abs_change(x));
        out.push(mean_change(x));
        out.push(abs_energy(x));
        out.push(cid_ce(x));
        out.push(variation_coefficient(x));
        out.push(mean_crossings(x) as f64);
        out.push(count_peaks(x) as f64);
        out.push(fraction_above_mean(x));
        out.push(longest_strike_above_mean(x) as f64);
        out.push(longest_strike_below_mean(x) as f64);

        // Long-run trends.
        out.push(linear_trend_slope(x));
        out.push(linear_trend_intercept(x));
        out.push(longest_monotonic_increase(x) as f64);
        out.push(longest_monotonic_decrease(x) as f64);

        // First half vs second half.
        let mid = x.len() / 2;
        let (a, b) = x.split_at(mid);
        out.push((mean(a) - mean(b)).abs());
        out.push((std_dev(a) - std_dev(b)).abs());
        out.push((min(a) - min(b)).abs());
        out.push((max(a) - max(b)).abs());
        out.push((median(a) - median(b)).abs());
        out.push((quantile(a, 0.25) - quantile(b, 0.25)).abs());
        out.push((quantile(a, 0.75) - quantile(b, 0.75)).abs());
        out.push((skewness(a) - skewness(b)).abs());
        out.push((kurtosis(a) - kurtosis(b)).abs());
        out.push((linear_trend_slope(a) - linear_trend_slope(b)).abs());
        out.push((rms(a) - rms(b)).abs());

        // Positional / boundary.
        out.push(x.first().copied().unwrap_or(0.0));
        out.push(x.last().copied().unwrap_or(0.0));
        out.push(match (x.first(), x.last()) {
            (Some(f), Some(l)) => l - f,
            _ => 0.0,
        });
        let arg_of = |cmp: fn(&f64, &f64) -> bool| -> f64 {
            if x.is_empty() {
                return 0.0;
            }
            let mut idx = 0usize;
            for (i, v) in x.iter().enumerate() {
                if cmp(v, &x[idx]) {
                    idx = i;
                }
            }
            idx as f64 / x.len() as f64
        };
        out.push(arg_of(|v, best| v > best));
        out.push(arg_of(|v, best| v < best));
        out.push(autocorrelation(x, 1));
        out.push(autocorrelation(x, 2));
        out.push(autocorrelation(x, 5));
        out.push(x.iter().sum());
        out.push(quantile_sorted(&sorted, 0.1));
        out.push(quantile_sorted(&sorted, 0.9));
        canonical_nan(&mut out[start..]);
    }

    /// Computes only the wanted offsets, sharing the intermediates listed
    /// in the module docs: each is built once, and only when a wanted
    /// offset reads it. Each arm is the expression [`Mvts::extract`]
    /// pushes, with a shared intermediate in place of the kernel call
    /// that recomputes it, so the subset is bit-identical to gathering
    /// from it (pinned by the tests below and in `tests/`).
    fn extract_select(
        &self,
        x: &[f64],
        wanted: &[usize],
        scratch: &mut SelectScratch,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        let needs = |reads: fn(usize) -> bool| wanted.iter().any(|&k| reads(k));
        let mid = x.len() / 2;
        let (a, b) = x.split_at(mid);

        // Sorted halves: the median, q25 and q75 of each half read their
        // key run; those of the whole series (and iqr, q10, q90) read
        // order statistics of the two runs' union.
        let keys = &mut scratch.keys;
        keys.clear();
        if needs(|k| matches!(k, 5..=8 | 30..=32 | 46 | 47)) {
            keys.extend(x.iter().map(|&v| total_order_key(v)));
            keys[..mid].sort_unstable();
            keys[mid..].sort_unstable();
        }
        let (keys_a, keys_b) = keys.split_at(keys.len().min(mid));
        let half_q =
            |run: &[u64], q: f64| quantile_by(run.len(), q, |i| from_total_order_key(run[i]));
        let full_q = |q: f64| {
            quantile_by(keys.len(), q, |i| from_total_order_key(kth_of_two(keys_a, keys_b, i)))
        };

        // Moments of the series and of its halves.
        let m = if needs(|k| matches!(k, 0..=2 | 10 | 11 | 15..=17 | 19..=23 | 42..=44)) {
            Moments::of(x)
        } else {
            Moments::default()
        };
        let slope =
            if needs(|k| matches!(k, 22 | 23)) { linear_trend_slope_with(x, m.mean) } else { 0.0 };
        let (ma, mb) = if needs(|k| matches!(k, 26 | 27 | 33..=35)) {
            (Moments::of(a), Moments::of(b))
        } else {
            (Moments::default(), Moments::default())
        };

        let arg_of = |cmp: fn(&f64, &f64) -> bool| -> f64 {
            if x.is_empty() {
                return 0.0;
            }
            let mut idx = 0usize;
            for (i, v) in x.iter().enumerate() {
                if cmp(v, &x[idx]) {
                    idx = i;
                }
            }
            idx as f64 / x.len() as f64
        };
        for &k in wanted {
            out.push(match k {
                0 => m.mean,
                1 => m.std(),
                2 => m.var,
                3 => min(x),
                4 => max(x),
                5 => full_q(0.5),
                6 => full_q(0.25),
                7 => full_q(0.75),
                8 => full_q(0.75) - full_q(0.25),
                9 => rms(x),
                10 => skewness_with(x, m.mean, m.std()),
                11 => kurtosis_with(x, m.mean, m.std()),
                12 => mean_abs_change(x),
                13 => mean_change(x),
                14 => abs_energy(x),
                15 => cid_ce_with(x, m.mean, m.std()),
                16 => variation_coefficient_with(m.mean, m.std()),
                17 => mean_crossings_with(x, m.mean) as f64,
                18 => count_peaks(x) as f64,
                19 => fraction_above_mean_with(x, m.mean),
                20 => longest_strike_above_mean_with(x, m.mean) as f64,
                21 => longest_strike_below_mean_with(x, m.mean) as f64,
                22 => slope,
                23 => linear_trend_intercept_with(x, m.mean, slope),
                24 => longest_monotonic_increase(x) as f64,
                25 => longest_monotonic_decrease(x) as f64,
                26 => (ma.mean - mb.mean).abs(),
                27 => (ma.std() - mb.std()).abs(),
                28 => (min(a) - min(b)).abs(),
                29 => (max(a) - max(b)).abs(),
                30 => (half_q(keys_a, 0.5) - half_q(keys_b, 0.5)).abs(),
                31 => (half_q(keys_a, 0.25) - half_q(keys_b, 0.25)).abs(),
                32 => (half_q(keys_a, 0.75) - half_q(keys_b, 0.75)).abs(),
                33 => (skewness_with(a, ma.mean, ma.std()) - skewness_with(b, mb.mean, mb.std()))
                    .abs(),
                34 => (kurtosis_with(a, ma.mean, ma.std()) - kurtosis_with(b, mb.mean, mb.std()))
                    .abs(),
                35 => (linear_trend_slope_with(a, ma.mean) - linear_trend_slope_with(b, mb.mean))
                    .abs(),
                36 => (rms(a) - rms(b)).abs(),
                37 => x.first().copied().unwrap_or(0.0),
                38 => x.last().copied().unwrap_or(0.0),
                39 => match (x.first(), x.last()) {
                    (Some(f), Some(l)) => l - f,
                    _ => 0.0,
                },
                40 => arg_of(|v, best| v > best),
                41 => arg_of(|v, best| v < best),
                42 => autocorrelation_with(x, 1, m.mean, m.var),
                43 => autocorrelation_with(x, 2, m.mean, m.var),
                44 => autocorrelation_with(x, 5, m.mean, m.var),
                45 => x.iter().sum(),
                46 => full_q(0.1),
                47 => full_q(0.9),
                _ => panic!("mvts feature offset {k} out of range (npm = 48)"),
            });
        }
        canonical_nan(&mut out[start..]);
    }
}

/// The mean and population variance of one series.
#[derive(Clone, Copy, Default)]
struct Moments {
    mean: f64,
    var: f64,
}

impl Moments {
    fn of(x: &[f64]) -> Self {
        let mean = mean(x);
        Self { mean, var: variance_with(x, mean) }
    }

    /// [`std_dev`]: the square root of the variance.
    fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// The `k`-th smallest (0-based) of the union of two ascending key
/// runs, the key a merge of `a` and `b` would put at index `k`. Binary
/// search for how many of the `k + 1` smallest come from `a`: O(log n).
fn kth_of_two(a: &[u64], b: &[u64], k: usize) -> u64 {
    let take = k + 1;
    // `i` keys from `a` and `take - i` from `b`; the smallest `i` whose
    // next `a` key is not below the last `b` key taken is the split.
    let (mut lo, mut hi) = (take.saturating_sub(b.len()), take.min(a.len()));
    while lo < hi {
        let i = (lo + hi) / 2;
        if a[i] < b[take - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let from_a = lo.checked_sub(1).map(|i| a[i]);
    let from_b = (take - lo).checked_sub(1).map(|j| b[j]);
    from_a.max(from_b).expect("k indexes the union of the two runs")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        Mvts.extract(x, &mut out);
        out
    }

    #[test]
    fn produces_exactly_48_features() {
        assert_eq!(MVTS_FEATURE_NAMES.len(), 48);
        assert_eq!(Mvts.n_features_per_metric(), 48);
        let out = extract(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(out.len(), 48);
    }

    #[test]
    fn handles_degenerate_inputs() {
        for input in [vec![], vec![1.0], vec![1.0, 1.0], vec![0.0; 10]] {
            let out = extract(&input);
            assert_eq!(out.len(), 48);
            assert!(out.iter().all(|v| v.is_finite()), "input {input:?}");
        }
    }

    #[test]
    fn feature_names_are_prefixed_and_unique() {
        let names = Mvts.feature_names("meminfo.MemFree.0");
        assert_eq!(names.len(), 48);
        assert!(names[0].starts_with("meminfo.MemFree.0::"));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 48);
    }

    #[test]
    fn known_values_on_simple_series() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let out = extract(&x);
        let idx = |n: &str| MVTS_FEATURE_NAMES.iter().position(|&f| f == n).unwrap();
        assert!((out[idx("mean")] - 2.5).abs() < 1e-12);
        assert!((out[idx("min")] - 1.0).abs() < 1e-12);
        assert!((out[idx("max")] - 4.0).abs() < 1e-12);
        assert!((out[idx("last_minus_first")] - 3.0).abs() < 1e-12);
        assert!((out[idx("trend_slope")] - 1.0).abs() < 1e-12);
        assert!((out[idx("sum")] - 10.0).abs() < 1e-12);
        assert_eq!(out[idx("longest_monotonic_increase")], 4.0);
        assert_eq!(out[idx("argmax_fraction")], 0.75);
        assert_eq!(out[idx("argmin_fraction")], 0.0);
    }

    #[test]
    fn extract_select_is_bit_identical_to_gathering_from_extract() {
        // Nasty series: NaN, ±inf survivors are upstream-preprocessed
        // away in production, but bit-identity must hold regardless.
        let series: Vec<Vec<f64>> = vec![
            (0..60).map(|t| (t as f64 * 0.31).sin() * 12.0 + 50.0).collect(),
            vec![],
            vec![4.2],
            vec![1.0; 17],
            (0..33).map(|t| if t % 7 == 2 { f64::NAN } else { t as f64 }).collect(),
        ];
        for x in &series {
            let full = extract(x);
            let mut scratch = SelectScratch::default();
            // Every feature individually…
            for k in 0..48 {
                let mut out = Vec::new();
                Mvts.extract_select(x, &[k], &mut scratch, &mut out);
                assert_eq!(
                    out[0].to_bits(),
                    full[k].to_bits(),
                    "feature {} diverged on {:?}",
                    MVTS_FEATURE_NAMES[k],
                    x
                );
            }
            // …and a production-shaped subset, in plan order.
            let wanted: Vec<usize> = (0..48).step_by(3).collect();
            let mut out = Vec::new();
            Mvts.extract_select(x, &wanted, &mut scratch, &mut out);
            let gathered: Vec<u64> = wanted.iter().map(|&k| full[k].to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, gathered);
        }
    }

    #[test]
    fn kth_of_two_reads_the_merged_order() {
        let keys = |v: &[f64]| {
            let mut k: Vec<u64> = v.iter().map(|&x| total_order_key(x)).collect();
            k.sort_unstable();
            k
        };
        let nan = f64::NAN;
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0001);
        let runs: [(&[f64], &[f64]); 7] = [
            (&[1.0, 1.0, 2.0], &[1.0, 2.0, 2.0, 3.0]),
            (&[-0.0, 0.0], &[0.0, -0.0, 0.0]),
            (&[nan, 1.0, neg_nan], &[nan, -1.0]),
            (&[5.0], &[1.0, 2.0, 3.0, 4.0, 6.0, 7.0]),
            (&[], &[3.0, -2.0, 9.0]),
            (&[3.0, -2.0, 9.0], &[]),
            (&[f64::INFINITY, -f64::INFINITY, 0.5], &[0.25, f64::MIN_POSITIVE, 0.5]),
        ];
        for (a, b) in runs {
            let (ka, kb) = (keys(a), keys(b));
            let mut merged = [ka.clone(), kb.clone()].concat();
            merged.sort_unstable();
            for (k, &want) in merged.iter().enumerate() {
                assert_eq!(kth_of_two(&ka, &kb, k), want, "k = {k} of {a:?} ∪ {b:?}");
            }
        }
    }

    #[test]
    fn half_diffs_detect_level_shift() {
        let mut x = vec![1.0; 50];
        x.extend(vec![10.0; 50]);
        let out = extract(&x);
        let idx = |n: &str| MVTS_FEATURE_NAMES.iter().position(|&f| f == n).unwrap();
        assert!((out[idx("halves_abs_diff_mean")] - 9.0).abs() < 1e-12);
    }
}
