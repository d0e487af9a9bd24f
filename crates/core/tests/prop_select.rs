//! Pins the row-major feature selection to the column-at-a-time
//! reference it replaced, bit for bit.
//!
//! The reference is the former pipeline: materialise the train and test
//! rows, walk the train matrix one column at a time to drop degenerate
//! columns and to score chi-square, copy the kept and then the top-k
//! columns, and fit the scaler on the copy. `prepare_split`,
//! `prepare_split_rows`, `drop_degenerate_features` and
//! `chi_square_scores` must agree with it on every shape below,
//! compared by `to_bits`.

use alba_data::{stratified_split, Dataset, LabelEncoder, Matrix, SampleMeta};
use alba_features::{chi_square_scores, drop_degenerate_features, ChiSquareScores, MinMaxScaler};
use albadross::{prepare_split, prepare_split_rows, PreparedSplit, SplitConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The former `drop_degenerate_features`: a column walk with
/// `f64::min`/`f64::max`.
fn drop_degenerate_reference(ds: &Dataset) -> (Dataset, Vec<usize>) {
    let (rows, cols) = ds.x.shape();
    let keep: Vec<usize> = (0..cols)
        .filter(|&c| {
            let mut minv = f64::INFINITY;
            let mut maxv = f64::NEG_INFINITY;
            for r in 0..rows {
                let v = ds.x.get(r, c);
                if !v.is_finite() {
                    return false;
                }
                minv = minv.min(v);
                maxv = maxv.max(v);
            }
            maxv - minv > 1e-12
        })
        .collect();
    (ds.select_features(&keep), keep)
}

/// The former `chi_square_scores`: one column at a time over a
/// materialised matrix.
fn chi_square_reference(x: &Matrix, y: &[usize], n_classes: usize) -> ChiSquareScores {
    let (rows, cols) = x.shape();
    if rows == 0 {
        return ChiSquareScores { scores: vec![0.0; cols] };
    }
    let mut class_freq = vec![0.0f64; n_classes];
    for &c in y {
        class_freq[c] += 1.0;
    }
    let total = rows as f64;
    let (mins, maxs) = x.column_min_max();
    let scores = (0..cols)
        .map(|c| {
            let range = maxs[c] - mins[c];
            if range < 1e-12 {
                return 0.0;
            }
            let mut observed = vec![0.0f64; n_classes];
            let mut feature_total = 0.0f64;
            for r in 0..rows {
                let v = (x.get(r, c) - mins[c]) / range;
                observed[y[r]] += v;
                feature_total += v;
            }
            if feature_total < 1e-12 {
                return 0.0;
            }
            let mut chi2 = 0.0;
            for k in 0..n_classes {
                let expected = feature_total * class_freq[k] / total;
                if expected > 1e-12 {
                    let d = observed[k] - expected;
                    chi2 += d * d / expected;
                }
            }
            chi2
        })
        .collect();
    ChiSquareScores { scores }
}

/// The former pipeline on a materialised train/test pair: gather → drop →
/// score → select → scale.
fn pre_split_reference(
    train_raw: &Dataset,
    test_raw: &Dataset,
    cfg: &SplitConfig,
) -> PreparedSplit {
    let (train_clean, kept) = drop_degenerate_reference(train_raw);
    let test_clean = test_raw.select_features(&kept);
    let top = chi_square_reference(&train_clean.x, &train_clean.y, train_clean.n_classes())
        .top_k(cfg.top_k_features.min(train_clean.x.cols()));
    let mut train_sel = train_clean.select_features(&top);
    let mut test_sel = test_clean.select_features(&top);
    let selected: Vec<usize> = top.iter().map(|&t| kept[t]).collect();
    let scaler = MinMaxScaler::fit(&train_sel.x);
    scaler.transform_inplace(&mut train_sel.x);
    scaler.transform_inplace(&mut test_sel.x);
    PreparedSplit { train: train_sel, test: test_sel, selected_features: selected, scaler }
}

/// The former `prepare_split`.
fn split_reference(full: &Dataset, cfg: &SplitConfig, seed: u64) -> PreparedSplit {
    let mut rng = StdRng::seed_from_u64(seed);
    let (train_idx, test_idx) = stratified_split(&full.y, cfg.train_fraction, &mut rng);
    pre_split_reference(&full.select(&train_idx), &full.select(&test_idx), cfg)
}

/// Column shapes the selection must treat exactly as the reference did.
const KINDS: u8 = 10;

/// One value of a column of `kind` (see the match arms).
fn cell(kind: u8, rng: &mut StdRng) -> f64 {
    match kind {
        // Spread values.
        0 => rng.gen_range(-5.0..5.0),
        // Heavy ties.
        1 => [-1.0, 0.0, 1.0, 2.0][rng.gen_range(0..4)],
        // Constant.
        2 => 3.5,
        // Occasional NaN.
        3 => {
            if rng.gen_range(0..4) == 0 {
                f64::NAN
            } else {
                rng.gen_range(0.0..1.0)
            }
        }
        // Occasional ±inf.
        4 => match rng.gen_range(0..6) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => rng.gen_range(-1.0..1.0),
        },
        // Minimum is a signed zero.
        5 => [0.0, -0.0, 0.25, 1.0][rng.gen_range(0..4)],
        // Maximum is a signed zero.
        6 => [0.0, -0.0, -0.5, -2.0][rng.gen_range(0..4)],
        // Only signed zeros.
        7 => [0.0, -0.0][rng.gen_range(0..2)],
        // A range below the 1e-12 cut.
        8 => 1.0 + rng.gen_range(0..3) as f64 * 1e-14,
        // Mostly zero with a few values (total mass near the cut).
        _ => {
            if rng.gen_range(0..8) == 0 {
                rng.gen_range(0.0..3.0)
            } else {
                0.0
            }
        }
    }
}

/// A dataset of `rows` samples over columns of the given kinds. Labels
/// use classes `0..n_classes - 1` at random, and the last class labels
/// exactly one row.
fn dataset(rows: usize, kinds: &[u8], n_classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(rows, kinds.len());
    for r in 0..rows {
        for (c, &k) in kinds.iter().enumerate() {
            x.set(r, c, cell(k, &mut rng));
        }
    }
    let mut y: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..n_classes - 1)).collect();
    y[rng.gen_range(0..rows)] = n_classes - 1;
    let names: Vec<String> = (0..n_classes).map(|k| format!("class{k}")).collect();
    let meta = (0..rows)
        .map(|i| SampleMeta {
            app: format!("app{}", i % 3),
            input_deck: i % 2,
            run_id: i,
            node: 0,
            node_count: 1,
            intensity_pct: 0,
        })
        .collect();
    let features = (0..kinds.len()).map(|c| format!("f{c}")).collect();
    Dataset::new(x, y, LabelEncoder::from_names(&names), meta, features)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_dataset(got: &Dataset, want: &Dataset, side: &str) {
    assert_eq!(got.x.shape(), want.x.shape(), "{side} shape");
    assert_eq!(bits(got.x.as_slice()), bits(want.x.as_slice()), "{side} x");
    assert_eq!(got.y, want.y, "{side} y");
    assert_eq!(got.meta, want.meta, "{side} meta");
    assert_eq!(got.feature_names, want.feature_names, "{side} names");
    assert_eq!(got.encoder, want.encoder, "{side} encoder");
}

fn assert_same_split(got: &PreparedSplit, want: &PreparedSplit) {
    assert_eq!(got.selected_features, want.selected_features, "selected features");
    assert_same_dataset(&got.train, &want.train, "train");
    assert_same_dataset(&got.test, &want.test, "test");
    assert_eq!(bits(got.scaler.mins()), bits(want.scaler.mins()), "scaler mins");
    assert_eq!(bits(got.scaler.ranges()), bits(want.scaler.ranges()), "scaler ranges");
}

/// Checks every function on one dataset.
fn check(full: &Dataset, top_k: usize, seed: u64) {
    let (clean, kept) = drop_degenerate_features(full);
    let (clean_ref, kept_ref) = drop_degenerate_reference(full);
    assert_eq!(kept, kept_ref, "kept columns");
    assert_same_dataset(&clean, &clean_ref, "clean");

    let n = full.n_classes();
    let scores = chi_square_scores(&full.x, &full.y, n);
    let scores_ref = chi_square_reference(&full.x, &full.y, n);
    assert_eq!(bits(&scores.scores), bits(&scores_ref.scores), "chi-square scores");

    let cfg = SplitConfig { train_fraction: 0.6, top_k_features: top_k };
    assert_same_split(&prepare_split(full, &cfg, seed), &split_reference(full, &cfg, seed));

    // An application split, as the robustness experiments make.
    let train_idx = full.indices_where(|m, _| m.app != "app2");
    let test_idx = full.indices_where(|m, _| m.app == "app2");
    let (train_raw, test_raw) = (full.select(&train_idx), full.select(&test_idx));
    assert_same_split(
        &prepare_split_rows(full, &train_idx, &test_idx, &cfg),
        &pre_split_reference(&train_raw, &test_raw, &cfg),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_major_selection_matches_the_column_walk(
        rows in 1usize..40,
        kinds in prop::collection::vec(0u8..KINDS, 0..14),
        n_classes in 2usize..5,
        top_k in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        check(&dataset(rows, &kinds, n_classes, seed), top_k, seed);
    }
}

#[test]
fn every_column_degenerate_keeps_none() {
    let full = dataset(30, &[2, 3, 4, 7, 8, 2], 3, 5);
    let (_, kept) = drop_degenerate_features(&full);
    assert!(kept.is_empty(), "{kept:?}");
    let split = prepare_split(&full, &SplitConfig { train_fraction: 0.5, top_k_features: 4 }, 5);
    assert_eq!(split.train.x.cols(), 0);
    check(&full, 4, 5);
}

#[test]
fn top_k_past_the_kept_columns_keeps_them_all() {
    let full = dataset(25, &[0, 1, 2, 5, 6, 9], 4, 11);
    let cfg = SplitConfig { train_fraction: 0.6, top_k_features: 100 };
    let split = prepare_split(&full, &cfg, 11);
    let kept = split_reference(&full, &cfg, 11).selected_features.len();
    assert_eq!(split.selected_features.len(), kept);
    check(&full, 100, 11);
}

#[test]
fn signed_zero_extremes_follow_the_row_order() {
    // Column 0's minimum is +0.0 or -0.0 by which comes first; the
    // scaled values and the scaler's minimum carry that sign.
    for first in [0.0, -0.0] {
        let mut full = dataset(12, &[5, 6, 0], 2, 3);
        full.x.set(0, 0, first);
        full.x.set(1, 0, -first);
        check(&full, 3, 3);
    }
}
