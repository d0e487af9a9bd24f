//! TSFRESH-style feature extraction.
//!
//! The paper's second extractor is TSFRESH, which computes 794 features per
//! metric from 63 characterisation methods. This module reimplements the
//! most informative TSFRESH families from scratch — descriptive statistics,
//! quantiles (of values and of changes), autocorrelation structure, c3 and
//! time-reversal asymmetry, approximate/binned/Fourier entropy,
//! chunk aggregates, energy ratios, change-quantile corridors and Welch
//! power-spectral-density coefficients — yielding 176 features per metric.
//! The count difference against the published toolkit is documented in
//! `EXPERIMENTS.md` ("TSFRESH feature count"); what matters for the
//! reproduction is that this extractor is strictly richer than MVTS.

use alba_data::{canonical_nan, sort_total};

use crate::extract::{FeatureExtractor, SelectScratch};
use crate::fft::{real_fft_magnitudes, welch_psd};
use crate::stats::*;

/// Welch PSD segment length (power of two; 33 output coefficients).
const PSD_SEGMENT: usize = 64;
/// Maximum series length fed into the O(n^2) approximate-entropy kernel;
/// longer series are stride-subsampled (standard practice — ApEn is defined
/// on short windows).
const APEN_MAX_LEN: usize = 80;
/// Histogram bin counts of the binned-entropy features.
const ENTROPY_BINS: [usize; 3] = [5, 10, 20];
/// Fractions of the absolute mass behind the index-mass-quantile features.
const MASS_QUANTILES: [f64; 3] = [0.25, 0.5, 0.75];
/// Multiples of the standard deviation behind the ratio-beyond-r-sigma
/// features.
const SIGMA_RATIOS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
/// Quantile corridors `(lo, hi)` of the change-quantile features.
const CORRIDORS: [(f64, f64); 5] = [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0), (0.0, 0.7), (0.3, 1.0)];

/// The TSFRESH-style extractor (stateless).
#[derive(Clone, Copy, Debug, Default)]
pub struct TsFresh;

/// Returns the per-metric feature name suffixes, in extraction order.
pub fn tsfresh_feature_suffixes() -> Vec<String> {
    let mut n: Vec<String> = Vec::with_capacity(180);
    // 1. Basics (16).
    for s in [
        "mean",
        "std",
        "var",
        "skewness",
        "kurtosis",
        "median",
        "min",
        "max",
        "rms",
        "sum",
        "abs_energy",
        "range",
        "iqr",
        "variation_coefficient",
        "cid_ce",
        "mean_second_derivative",
    ] {
        n.push(s.into());
    }
    // 2. Quantiles (9).
    for q in 1..=9 {
        n.push(format!("quantile_q{}", q * 10));
    }
    // 3. Change quantiles + mean changes (11).
    for q in 1..=9 {
        n.push(format!("abs_change_quantile_q{}", q * 10));
    }
    n.push("mean_abs_change".into());
    n.push("mean_change".into());
    // 4. Autocorrelation (11).
    for lag in 1..=10 {
        n.push(format!("autocorr_lag{lag}"));
    }
    n.push("agg_autocorr_mean10".into());
    // 5. c3 (3).
    for lag in 1..=3 {
        n.push(format!("c3_lag{lag}"));
    }
    // 6. Time reversal asymmetry (3).
    for lag in 1..=3 {
        n.push(format!("time_reversal_asymmetry_lag{lag}"));
    }
    // 7. Entropies (6).
    for bins in [5, 10, 20] {
        n.push(format!("binned_entropy_b{bins}"));
    }
    for r in ["02", "05"] {
        n.push(format!("approximate_entropy_r{r}"));
    }
    n.push("fourier_entropy".into());
    // 8. Strikes / crossings / peaks (6).
    for s in [
        "longest_strike_above_mean",
        "longest_strike_below_mean",
        "mean_crossings",
        "count_peaks",
        "fraction_above_mean",
        "median_crossings",
    ] {
        n.push(s.into());
    }
    // 9. Positional (7).
    for s in [
        "first_value",
        "last_value",
        "last_minus_first",
        "first_location_of_max",
        "first_location_of_min",
        "last_location_of_max",
        "last_location_of_min",
    ] {
        n.push(s.into());
    }
    // 10. Index mass quantiles (3).
    for q in [25, 50, 75] {
        n.push(format!("index_mass_quantile_q{q}"));
    }
    // 11. Ratio beyond r sigma (6).
    for r in ["05", "10", "15", "20", "25", "30"] {
        n.push(format!("ratio_beyond_r{r}_sigma"));
    }
    // 12. Value recurrence (1).
    n.push("ratio_value_recurrence".into());
    // 13. Linear trend (2).
    n.push("trend_slope".into());
    n.push("trend_intercept".into());
    // 14. Chunk aggregates (40).
    for agg in ["mean", "std", "min", "max"] {
        for c in 0..10 {
            n.push(format!("chunk{c}_{agg}"));
        }
    }
    // 15. Energy ratio by chunks (10).
    for c in 0..10 {
        n.push(format!("energy_ratio_chunk{c}"));
    }
    // 16. Change-quantile corridors (5).
    for (lo, hi) in [(0, 30), (30, 70), (70, 100), (0, 70), (30, 100)] {
        n.push(format!("change_quantiles_{lo}_{hi}"));
    }
    // 17. Welch PSD coefficients (33).
    for k in 0..=PSD_SEGMENT / 2 {
        n.push(format!("welch_psd_{k}"));
    }
    // 18. Spectral aggregates (4).
    for s in ["spectral_centroid", "spectral_variance", "spectral_skewness", "spectral_kurtosis"] {
        n.push(s.into());
    }
    n
}

fn c3(x: &[f64], lag: usize) -> f64 {
    let n = x.len();
    if n < 2 * lag + 1 {
        return 0.0;
    }
    let count = n - 2 * lag;
    (0..count).map(|i| x[i + 2 * lag] * x[i + lag] * x[i]).sum::<f64>() / count as f64
}

fn mean_second_derivative_central(x: &[f64]) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    let n = x.len();
    (x[n - 1] - x[n - 2] - x[1] + x[0]) / (2.0 * (n - 2) as f64)
}

fn ratio_beyond_r_sigma(x: &[f64], r: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    let s = std_dev(x);
    if s < 1e-12 {
        return 0.0;
    }
    x.iter().filter(|&&v| (v - m).abs() > r * s).count() as f64 / x.len() as f64
}

fn crossings(x: &[f64], level: f64) -> usize {
    x.windows(2).filter(|w| (w[0] > level) != (w[1] > level)).count()
}

fn location_of(x: &[f64], pick_max: bool, first: bool) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut idx = 0usize;
    for (i, &v) in x.iter().enumerate() {
        let better = if pick_max { v > x[idx] } else { v < x[idx] };
        let tie = v == x[idx] && !first;
        if better || tie {
            idx = i;
        }
    }
    idx as f64 / x.len() as f64
}

/// Mean absolute change of the sub-series whose values lie within the
/// corridor `[quantile(lo), quantile(hi)]` (TSFRESH `change_quantiles` with
/// `isabs=True`, `f_agg="mean"`).
fn change_quantiles(x: &[f64], sorted: &[f64], lo: f64, hi: f64) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let ql = quantile_sorted(sorted, lo);
    let qh = quantile_sorted(sorted, hi);
    let inside: Vec<bool> = x.iter().map(|&v| v >= ql && v <= qh).collect();
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 1..x.len() {
        if inside[i] && inside[i - 1] {
            sum += (x[i] - x[i - 1]).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn subsample(x: &[f64], max_len: usize) -> Vec<f64> {
    if x.len() <= max_len {
        return x.to_vec();
    }
    let stride = x.len() as f64 / max_len as f64;
    (0..max_len).map(|i| x[(i as f64 * stride) as usize]).collect()
}

/// Shannon entropy of the normalised FFT magnitude distribution.
fn fourier_entropy(x: &[f64]) -> f64 {
    let mags = real_fft_magnitudes(x);
    let total: f64 = mags.iter().sum();
    if total < 1e-12 {
        return 0.0;
    }
    -mags
        .iter()
        .filter(|&&m| m > 1e-12)
        .map(|&m| {
            let p = m / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Autocorrelations at lags 1..=10 and their mean.
fn autocorrelations(x: &[f64]) -> ([f64; 10], f64) {
    let mut acf = [0.0; 10];
    let mut acf_sum = 0.0;
    for (lag, a) in (1..=10).zip(&mut acf) {
        *a = autocorrelation(x, lag);
        acf_sum += *a;
    }
    (acf, acf_sum / 10.0)
}

/// The 10 equal chunks (the last ones shorter or empty) behind the chunk
/// aggregates and the energy ratios.
fn ten_chunks(x: &[f64]) -> [&[f64]; 10] {
    let size = x.len().div_ceil(10);
    std::array::from_fn(|c| {
        let lo = (c * size).min(x.len());
        let hi = ((c + 1) * size).min(x.len());
        &x[lo..hi]
    })
}

/// Centroid, variance, skewness and kurtosis of the PSD read as a
/// distribution over its bin indices.
fn spectral_moments(psd: &[f64]) -> [f64; 4] {
    let total_psd: f64 = psd.iter().sum::<f64>().max(1e-12);
    let centroid: f64 = psd.iter().enumerate().map(|(k, &p)| k as f64 * p).sum::<f64>() / total_psd;
    let spec_var: f64 =
        psd.iter().enumerate().map(|(k, &p)| (k as f64 - centroid).powi(2) * p).sum::<f64>()
            / total_psd;
    let spec_std = spec_var.sqrt().max(1e-12);
    let spec_skew: f64 = psd
        .iter()
        .enumerate()
        .map(|(k, &p)| ((k as f64 - centroid) / spec_std).powi(3) * p)
        .sum::<f64>()
        / total_psd;
    let spec_kurt: f64 = psd
        .iter()
        .enumerate()
        .map(|(k, &p)| ((k as f64 - centroid) / spec_std).powi(4) * p)
        .sum::<f64>()
        / total_psd;
    [centroid, spec_var, spec_skew, spec_kurt]
}

impl FeatureExtractor for TsFresh {
    fn name(&self) -> &'static str {
        "tsfresh"
    }

    fn n_features_per_metric(&self) -> usize {
        tsfresh_feature_suffixes().len()
    }

    fn feature_names(&self, metric: &str) -> Vec<String> {
        tsfresh_feature_suffixes().iter().map(|f| format!("{metric}::{f}")).collect()
    }

    fn extract(&self, x: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        let mut sorted = x.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q25 = quantile_sorted(&sorted, 0.25);
        let q75 = quantile_sorted(&sorted, 0.75);
        let mn = min(x);
        let mx = max(x);

        // 1. Basics.
        out.push(mean(x));
        out.push(std_dev(x));
        out.push(variance(x));
        out.push(skewness(x));
        out.push(kurtosis(x));
        out.push(quantile_sorted(&sorted, 0.5));
        out.push(mn);
        out.push(mx);
        out.push(rms(x));
        out.push(x.iter().sum());
        out.push(abs_energy(x));
        out.push(mx - mn);
        out.push(q75 - q25);
        out.push(variation_coefficient(x));
        out.push(cid_ce(x));
        out.push(mean_second_derivative_central(x));

        // 2. Quantiles.
        for q in 1..=9 {
            out.push(quantile_sorted(&sorted, q as f64 / 10.0));
        }

        // 3. Quantiles of absolute changes + mean changes.
        let diffs: Vec<f64> = x.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
        let mut diffs_sorted = diffs.clone();
        diffs_sorted.sort_by(f64::total_cmp);
        for q in 1..=9 {
            out.push(quantile_sorted(&diffs_sorted, q as f64 / 10.0));
        }
        out.push(mean_abs_change(x));
        out.push(mean_change(x));

        // 4. Autocorrelation.
        let (acf, acf_mean) = autocorrelations(x);
        out.extend_from_slice(&acf);
        out.push(acf_mean);

        // 5. c3.
        for lag in 1..=3 {
            out.push(c3(x, lag));
        }

        // 6. Time reversal asymmetry.
        for lag in 1..=3 {
            out.push(time_reversal_asymmetry(x, lag));
        }

        // 7. Entropies.
        for bins in ENTROPY_BINS {
            out.push(binned_entropy(x, bins));
        }
        let short = subsample(x, APEN_MAX_LEN);
        out.push(approximate_entropy(&short, 2, 0.2));
        out.push(approximate_entropy(&short, 2, 0.5));
        out.push(fourier_entropy(x));

        // 8. Strikes / crossings / peaks.
        out.push(longest_strike_above_mean(x) as f64);
        out.push(longest_strike_below_mean(x) as f64);
        out.push(mean_crossings(x) as f64);
        out.push(count_peaks(x) as f64);
        out.push(fraction_above_mean(x));
        out.push(crossings(x, quantile_sorted(&sorted, 0.5)) as f64);

        // 9. Positional.
        out.push(x.first().copied().unwrap_or(0.0));
        out.push(x.last().copied().unwrap_or(0.0));
        out.push(match (x.first(), x.last()) {
            (Some(f), Some(l)) => l - f,
            _ => 0.0,
        });
        out.push(location_of(x, true, true));
        out.push(location_of(x, false, true));
        out.push(location_of(x, true, false));
        out.push(location_of(x, false, false));

        // 10. Index mass quantiles.
        for q in MASS_QUANTILES {
            out.push(index_mass_quantile(x, q));
        }

        // 11. Ratio beyond r sigma.
        for r in SIGMA_RATIOS {
            out.push(ratio_beyond_r_sigma(x, r));
        }

        // 12. Value recurrence.
        out.push(ratio_value_recurrence(x));

        // 13. Linear trend.
        out.push(linear_trend_slope(x));
        out.push(linear_trend_intercept(x));

        // 14. Chunk aggregates over 10 equal chunks.
        let chunks = ten_chunks(x);
        for agg in 0..4 {
            for chunk in &chunks {
                out.push(match agg {
                    0 => mean(chunk),
                    1 => std_dev(chunk),
                    2 => min(chunk),
                    _ => max(chunk),
                });
            }
        }

        // 15. Energy ratio by chunks.
        let total_energy = abs_energy(x).max(1e-12);
        for chunk in &chunks {
            out.push(abs_energy(chunk) / total_energy);
        }

        // 16. Change-quantile corridors.
        for (lo, hi) in CORRIDORS {
            out.push(change_quantiles(x, &sorted, lo, hi));
        }

        // 17+18. Welch PSD and spectral aggregates.
        let psd = welch_psd(x, PSD_SEGMENT);
        for &p in &psd {
            out.push(p);
        }
        let [centroid, spec_var, spec_skew, spec_kurt] = spectral_moments(&psd);
        out.push(centroid);
        out.push(spec_var);
        out.push(spec_skew);
        out.push(spec_kurt);
        canonical_nan(&mut out[start..]);
    }

    /// Computes only the wanted offsets. An intermediate several features
    /// share (the sorted copy, the sorted absolute changes, the
    /// autocorrelations, the ApEn subsample, the Welch PSD and its
    /// moments) is built once, and only when a wanted offset reads it;
    /// the two sorted copies live in `scratch`, sorted through their
    /// total-order keys ([`alba_data::sort_total`], the same bits as the
    /// `total_cmp` sort in [`TsFresh::extract`]). Each arm is the
    /// expression [`TsFresh::extract`] pushes, so the subset is
    /// bit-identical to gathering from it (pinned by the tests below).
    fn extract_select(
        &self,
        x: &[f64],
        wanted: &[usize],
        scratch: &mut SelectScratch,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        let needs = |reads: fn(usize) -> bool| wanted.iter().any(|&k| reads(k));
        let values = &mut scratch.values;
        values.clear();
        if needs(|k| matches!(k, 5 | 12 | 16..=24 | 64 | 134..=138)) {
            values.extend_from_slice(x);
            sort_total(values, &mut scratch.keys);
        }
        let n_sorted = values.len();
        if needs(|k| matches!(k, 25..=33)) {
            values.extend(x.windows(2).map(|w| (w[1] - w[0]).abs()));
            sort_total(&mut values[n_sorted..], &mut scratch.keys);
        }
        let (sorted, diffs_sorted) = values.split_at(n_sorted);
        let (acf, acf_mean) =
            if needs(|k| matches!(k, 36..=46)) { autocorrelations(x) } else { ([0.0; 10], 0.0) };
        let short =
            if needs(|k| matches!(k, 56 | 57)) { subsample(x, APEN_MAX_LEN) } else { Vec::new() };
        let chunks = ten_chunks(x);
        let total_energy =
            if needs(|k| matches!(k, 124..=133)) { abs_energy(x).max(1e-12) } else { 1.0 };
        let psd =
            if needs(|k| matches!(k, 139..=175)) { welch_psd(x, PSD_SEGMENT) } else { Vec::new() };
        let moments =
            if needs(|k| matches!(k, 172..=175)) { spectral_moments(&psd) } else { [0.0; 4] };
        for &k in wanted {
            out.push(match k {
                // 1. Basics.
                0 => mean(x),
                1 => std_dev(x),
                2 => variance(x),
                3 => skewness(x),
                4 => kurtosis(x),
                5 => quantile_sorted(sorted, 0.5),
                6 => min(x),
                7 => max(x),
                8 => rms(x),
                9 => x.iter().sum(),
                10 => abs_energy(x),
                11 => max(x) - min(x),
                12 => quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25),
                13 => variation_coefficient(x),
                14 => cid_ce(x),
                15 => mean_second_derivative_central(x),
                // 2–3. Quantiles of values and of absolute changes.
                16..=24 => quantile_sorted(sorted, (k - 15) as f64 / 10.0),
                25..=33 => quantile_sorted(diffs_sorted, (k - 24) as f64 / 10.0),
                34 => mean_abs_change(x),
                35 => mean_change(x),
                // 4–6. Autocorrelation, c3, time reversal asymmetry.
                36..=45 => acf[k - 36],
                46 => acf_mean,
                47..=49 => c3(x, k - 46),
                50..=52 => time_reversal_asymmetry(x, k - 49),
                // 7. Entropies.
                53..=55 => binned_entropy(x, ENTROPY_BINS[k - 53]),
                56 => approximate_entropy(&short, 2, 0.2),
                57 => approximate_entropy(&short, 2, 0.5),
                58 => fourier_entropy(x),
                // 8. Strikes / crossings / peaks.
                59 => longest_strike_above_mean(x) as f64,
                60 => longest_strike_below_mean(x) as f64,
                61 => mean_crossings(x) as f64,
                62 => count_peaks(x) as f64,
                63 => fraction_above_mean(x),
                64 => crossings(x, quantile_sorted(sorted, 0.5)) as f64,
                // 9. Positional.
                65 => x.first().copied().unwrap_or(0.0),
                66 => x.last().copied().unwrap_or(0.0),
                67 => match (x.first(), x.last()) {
                    (Some(f), Some(l)) => l - f,
                    _ => 0.0,
                },
                68 => location_of(x, true, true),
                69 => location_of(x, false, true),
                70 => location_of(x, true, false),
                71 => location_of(x, false, false),
                // 10–13. Index mass, r-sigma ratios, recurrence, trend.
                72..=74 => index_mass_quantile(x, MASS_QUANTILES[k - 72]),
                75..=80 => ratio_beyond_r_sigma(x, SIGMA_RATIOS[k - 75]),
                81 => ratio_value_recurrence(x),
                82 => linear_trend_slope(x),
                83 => linear_trend_intercept(x),
                // 14–15. Chunk aggregates and energy ratios.
                84..=123 => {
                    let chunk = chunks[(k - 84) % 10];
                    match (k - 84) / 10 {
                        0 => mean(chunk),
                        1 => std_dev(chunk),
                        2 => min(chunk),
                        _ => max(chunk),
                    }
                }
                124..=133 => abs_energy(chunks[k - 124]) / total_energy,
                // 16. Change-quantile corridors.
                134..=138 => {
                    let (lo, hi) = CORRIDORS[k - 134];
                    change_quantiles(x, sorted, lo, hi)
                }
                // 17–18. Welch PSD and spectral aggregates.
                139..=171 => psd[k - 139],
                172..=175 => moments[k - 172],
                _ => panic!("tsfresh feature offset {k} out of range (npm = 176)"),
            });
        }
        canonical_nan(&mut out[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        TsFresh.extract(x, &mut out);
        out
    }

    #[test]
    fn names_and_values_agree_in_count() {
        let names = tsfresh_feature_suffixes();
        assert_eq!(names.len(), 176, "expected 176 features, got {}", names.len());
        let out = extract(&(0..200).map(|i| (i as f64 / 9.0).sin()).collect::<Vec<_>>());
        assert_eq!(out.len(), names.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names = tsfresh_feature_suffixes();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 176);
    }

    #[test]
    fn handles_degenerate_inputs() {
        for input in [vec![], vec![1.0], vec![2.0, 2.0], vec![0.0; 20]] {
            let out = extract(&input);
            assert_eq!(out.len(), 176);
            assert!(out.iter().all(|v| v.is_finite()), "input {input:?}");
        }
    }

    /// Series that drive every branch `extract_select` can take: too short
    /// for most kernels, constant, the serve window length, longer than
    /// the ApEn cap with several Welch segments, and NaN-gapped.
    fn select_inputs() -> Vec<Vec<f64>> {
        vec![
            vec![],
            vec![4.2],
            vec![1.5, -0.5],
            (0..60).map(|t| (t as f64 * 0.31).sin() * 12.0 + 50.0).collect(),
            vec![3.0; 40],
            (0..200).map(|t| (t as f64 * 0.17).sin() * 5.0 + (t % 13) as f64).collect(),
            (0..90).map(|t| if t % 7 == 2 { f64::NAN } else { (t as f64).sqrt() }).collect(),
        ]
    }

    fn select(x: &[f64], wanted: &[usize], scratch: &mut SelectScratch) -> Vec<u64> {
        let mut out = Vec::new();
        TsFresh.extract_select(x, wanted, scratch, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn extract_select_is_bit_identical_to_gathering_from_extract() {
        use rand::prelude::*;
        let names = tsfresh_feature_suffixes();
        let npm = names.len();
        let mut rng = StdRng::seed_from_u64(0x75f5);
        // One scratch across every call, so a stale intermediate from an
        // earlier series or selection would show.
        let mut scratch = SelectScratch::default();
        for x in &select_inputs() {
            let full = extract(x);
            let gather = |wanted: &[usize]| -> Vec<u64> {
                wanted.iter().map(|&k| full[k].to_bits()).collect()
            };
            // Every feature on its own…
            for (k, name) in names.iter().enumerate() {
                assert_eq!(
                    select(x, &[k], &mut scratch),
                    gather(&[k]),
                    "feature {name} diverged on a series of length {}",
                    x.len()
                );
            }
            // …the empty and the full selection…
            assert!(select(x, &[], &mut scratch).is_empty());
            let all: Vec<usize> = (0..npm).collect();
            assert_eq!(select(x, &all, &mut scratch), gather(&all));
            // …and seeded random subsets in scrambled order.
            for _ in 0..20 {
                let mut wanted = all.clone();
                wanted.shuffle(&mut rng);
                wanted.truncate(rng.gen_range(1..=npm));
                assert_eq!(
                    select(x, &wanted, &mut scratch),
                    gather(&wanted),
                    "subset {wanted:?} diverged on a series of length {}",
                    x.len()
                );
            }
        }
    }

    #[test]
    fn richer_than_mvts() {
        assert!(TsFresh.n_features_per_metric() > crate::mvts::Mvts.n_features_per_metric());
    }

    #[test]
    fn c3_on_known_series() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        // lag 1: mean of x[i+2]*x[i+1]*x[i] for i in 0..3 = (6 + 24 + 60)/3.
        assert!((c3(&x, 1) - 30.0).abs() < 1e-12);
        assert_eq!(c3(&x, 3), 0.0, "series too short for lag 3");
    }

    #[test]
    fn ratio_beyond_sigma_detects_outliers() {
        let mut x = vec![0.0; 99];
        x.push(100.0);
        assert!(ratio_beyond_r_sigma(&x, 3.0) > 0.0);
        let flat: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        assert_eq!(ratio_beyond_r_sigma(&flat, 3.0), 0.0);
    }

    #[test]
    fn locations_of_extrema() {
        let x = [0.0, 5.0, 0.0, 5.0, 0.0];
        assert!((location_of(&x, true, true) - 0.2).abs() < 1e-12);
        assert!((location_of(&x, true, false) - 0.6).abs() < 1e-12);
        assert!((location_of(&x, false, true) - 0.0).abs() < 1e-12);
        assert!((location_of(&x, false, false) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn spectral_centroid_tracks_frequency() {
        let slow: Vec<f64> =
            (0..256).map(|i| (std::f64::consts::TAU * 0.03 * i as f64).sin()).collect();
        let fast: Vec<f64> =
            (0..256).map(|i| (std::f64::consts::TAU * 0.25 * i as f64).sin()).collect();
        let names = tsfresh_feature_suffixes();
        let ci = names.iter().position(|n| n == "spectral_centroid").unwrap();
        let c_slow = extract(&slow)[ci];
        let c_fast = extract(&fast)[ci];
        assert!(c_fast > c_slow, "fast {c_fast} vs slow {c_slow}");
    }

    #[test]
    fn change_quantiles_ignores_outlier_jumps() {
        // Values mostly in [0,1] with rare spikes to 100: the (0,0.3)
        // corridor only sees small changes.
        let x: Vec<f64> =
            (0..100).map(|i| if i % 10 == 0 { 100.0 } else { (i % 3) as f64 * 0.1 }).collect();
        let mut sorted = x.clone();
        sorted.sort_by(f64::total_cmp);
        let small = change_quantiles(&x, &sorted, 0.0, 0.3);
        assert!(small < 1.0, "corridor change {small} must exclude spikes");
    }
}
