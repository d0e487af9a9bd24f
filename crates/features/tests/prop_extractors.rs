//! Property tests on the feature extractors: for *any* finite input series
//! the extractors must emit exactly their advertised number of finite
//! values, independent of length, scale or degeneracy — a broken invariant
//! here poisons every downstream dataset. The selective paths must match
//! the full extraction bit for bit on any input, finite or not.

use alba_features::{FeatureExtractor, Mvts, SelectScratch, TsFresh};
use proptest::prelude::*;

fn any_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e7f64..1e7, 0..300)
}

/// One value from the corners of `f64::total_cmp`: both NaN signs (one
/// with a payload), both zeros, both infinities, subnormals, and a few
/// repeated levels for ties.
fn nasty_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_0000_0123)),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 8.0),
        Just(-f64::MIN_POSITIVE / 4.0),
        (0u8..3).prop_map(|v| f64::from(v) - 1.0),
        -1e6f64..1e6,
    ]
}

/// Series of length 0–130 (odd and even): all-corner values, or finite
/// values with heavy ties.
fn select_series() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(nasty_value(), 0..131),
        prop::collection::vec((0u8..4).prop_map(|v| f64::from(v) * 0.5), 0..131),
        prop::collection::vec(-1e3f64..1e3, 0..131),
    ]
}

/// `extract_select` against gathering from `extract`, bit for bit (NaN
/// and `-0.0` included), for two random wanted lists (any order, with
/// repeats) through one scratch, so a stale intermediate from the first
/// call would show in the second.
fn select_matches_extract(
    extractor: &dyn FeatureExtractor,
    series: &[f64],
    wanted: [&[usize]; 2],
) -> Result<(), TestCaseError> {
    let mut full = Vec::new();
    extractor.extract(series, &mut full);
    let mut scratch = SelectScratch::default();
    for wanted in wanted {
        let mut out = Vec::new();
        extractor.extract_select(series, wanted, &mut scratch, &mut out);
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = wanted.iter().map(|&k| full[k].to_bits()).collect();
        prop_assert_eq!(got, want, "wanted {:?}, series {:?}", wanted, series);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mvts_always_emits_48_finite_values(series in any_series()) {
        let mut out = Vec::new();
        Mvts.extract(&series, &mut out);
        prop_assert_eq!(out.len(), 48);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tsfresh_always_emits_176_finite_values(series in any_series()) {
        let mut out = Vec::new();
        TsFresh.extract(&series, &mut out);
        prop_assert_eq!(out.len(), 176);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn extractors_are_deterministic(series in any_series()) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        TsFresh.extract(&series, &mut a);
        TsFresh.extract(&series, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn constant_series_have_zero_dispersion_features(level in -1e5f64..1e5, len in 2usize..100) {
        let series = vec![level; len];
        let mut out = Vec::new();
        Mvts.extract(&series, &mut out);
        let names = alba_features::MVTS_FEATURE_NAMES;
        let idx = |n: &str| names.iter().position(|&f| f == n).unwrap();
        // Floating-point: the mean of n copies of `level` can differ from
        // `level` in the last ulp, leaving a tiny positive variance.
        let tol = 1e-6 * (1.0 + level.abs());
        prop_assert!(out[idx("std")].abs() < tol, "std {}", out[idx("std")]);
        prop_assert!(out[idx("mean_abs_change")].abs() < tol);
        prop_assert!((out[idx("mean")] - level).abs() < 1e-9);
    }

    #[test]
    fn mvts_mean_is_shift_equivariant(series in prop::collection::vec(-1e3f64..1e3, 2..80), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = series.iter().map(|v| v + shift).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        Mvts.extract(&series, &mut a);
        Mvts.extract(&shifted, &mut b);
        let mean_idx = alba_features::MVTS_FEATURE_NAMES.iter().position(|&f| f == "mean").unwrap();
        prop_assert!((a[mean_idx] + shift - b[mean_idx]).abs() < 1e-6);
        // Dispersion features unchanged by the shift.
        let std_idx = alba_features::MVTS_FEATURE_NAMES.iter().position(|&f| f == "std").unwrap();
        prop_assert!((a[std_idx] - b[std_idx]).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mvts_select_is_bit_identical_to_extract(
        series in select_series(),
        first in prop::collection::vec(0usize..48, 0..96),
        second in prop::collection::vec(0usize..48, 0..96),
    ) {
        select_matches_extract(&Mvts, &series, [&first, &second])?;
    }

    #[test]
    fn tsfresh_select_is_bit_identical_to_extract(
        series in select_series(),
        first in prop::collection::vec(0usize..176, 0..64),
        second in prop::collection::vec(0usize..176, 0..64),
    ) {
        select_matches_extract(&TsFresh, &series, [&first, &second])?;
    }
}
