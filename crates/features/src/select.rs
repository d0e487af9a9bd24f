//! Chi-square feature selection (paper Sec. III-B).
//!
//! The chi-square test scores how dependent each (non-negative) feature is
//! on the class label: for every feature the observed per-class mass is
//! compared against the mass expected under independence, and features are
//! ranked by descending score. This mirrors `sklearn.feature_selection.chi2`
//! followed by `SelectKBest`.
//!
//! Chi-square requires non-negative inputs, so scores are computed on
//! min-max-rescaled values (the ranking is what matters; the model later
//! trains on separately scaled data). The matrix is read row by row
//! through a list of row indices, so a train split is scored in place.

use alba_data::Matrix;
use serde::{Deserialize, Serialize};

/// Result of scoring every feature.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChiSquareScores {
    /// One score per feature column (same order as the dataset).
    pub scores: Vec<f64>,
}

impl ChiSquareScores {
    /// Indices of the `k` highest-scoring features, best first.
    /// Ties break toward the lower column index for determinism.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        idx.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }
}

/// Per-column extremes and finiteness over a list of rows, gathered in
/// one row-major pass ([`column_ranges`]).
#[derive(Clone, Debug)]
pub(crate) struct ColumnRanges {
    /// Smallest finite value per column (0 when the column has none).
    pub(crate) mins: Vec<f64>,
    /// Largest finite value per column (0 when the column has none).
    pub(crate) maxs: Vec<f64>,
    /// Whether every value of the column is finite.
    pub(crate) finite: Vec<bool>,
}

impl ColumnRanges {
    /// The columns that survive the paper's cleanup (Sec. IV-E.1): every
    /// value finite and a range above `1e-12`, in column order.
    pub(crate) fn non_degenerate(&self) -> Vec<usize> {
        (0..self.mins.len())
            .filter(|&c| self.finite[c] && self.maxs[c] - self.mins[c] > 1e-12)
            .collect()
    }
}

/// Visits the rows `rows` of `x` in the given order and records each
/// column's finite extremes, exactly as [`Matrix::column_min_max`] does
/// on a matrix of those rows (a strict comparison keeps the first of
/// equal values, so the sign of a zero extreme follows the row order).
pub(crate) fn column_ranges(x: &Matrix, rows: &[usize]) -> ColumnRanges {
    let cols = x.cols();
    let mut mins = vec![f64::INFINITY; cols];
    let mut maxs = vec![f64::NEG_INFINITY; cols];
    let mut finite = vec![true; cols];
    for &r in rows {
        for (c, &v) in x.row(r).iter().enumerate() {
            if v.is_finite() {
                if v < mins[c] {
                    mins[c] = v;
                }
                if v > maxs[c] {
                    maxs[c] = v;
                }
            } else {
                finite[c] = false;
            }
        }
    }
    for c in 0..cols {
        if !mins[c].is_finite() {
            mins[c] = 0.0;
            maxs[c] = 0.0;
        }
    }
    ColumnRanges { mins, maxs, finite }
}

/// Chi-square scores of the columns `cols` of `x` against the labels,
/// fitted on the rows `rows` (`y` is indexed like the rows of `x`).
/// Each column is rescaled by its `ranges` extremes, which must come from
/// [`column_ranges`] over the same rows.
///
/// One row-major pass: the per-class mass of every column is summed in
/// the order of `rows`, which is the order a column-at-a-time walk over a
/// matrix of those rows sums in, so the scores are bit-identical to it.
fn chi_square_over(
    x: &Matrix,
    y: &[usize],
    rows: &[usize],
    cols: &[usize],
    ranges: &ColumnRanges,
    n_classes: usize,
) -> Vec<f64> {
    assert!(rows.iter().all(|&r| y[r] < n_classes), "label out of range");
    if rows.is_empty() {
        return vec![0.0; cols.len()];
    }
    let mut class_freq = vec![0.0f64; n_classes];
    for &r in rows {
        class_freq[y[r]] += 1.0;
    }
    let total = rows.len() as f64;
    let mins: Vec<f64> = cols.iter().map(|&c| ranges.mins[c]).collect();
    let spans: Vec<f64> = cols.iter().map(|&c| ranges.maxs[c] - ranges.mins[c]).collect();

    // Observed per-class mass of each rescaled column, class-major.
    let m = cols.len();
    let mut observed = vec![0.0f64; n_classes * m];
    let mut feature_total = vec![0.0f64; m];
    for &r in rows {
        let row = x.row(r);
        let class = &mut observed[y[r] * m..(y[r] + 1) * m];
        for (j, &c) in cols.iter().enumerate() {
            let v = (row[c] - mins[j]) / spans[j];
            class[j] += v;
            feature_total[j] += v;
        }
    }

    (0..m)
        .map(|j| {
            // Constant columns score 0 (their rescaled mass is junk).
            if spans[j] < 1e-12 || feature_total[j] < 1e-12 {
                return 0.0;
            }
            let mut chi2 = 0.0;
            for k in 0..n_classes {
                let expected = feature_total[j] * class_freq[k] / total;
                if expected > 1e-12 {
                    let d = observed[k * m + j] - expected;
                    chi2 += d * d / expected;
                }
            }
            chi2
        })
        .collect()
}

/// Computes chi-square scores of every feature against the labels.
///
/// `n_classes` must cover every label in `y`. Features are internally
/// rescaled to `[0, 1]`; constant features score 0.
pub fn chi_square_scores(x: &Matrix, y: &[usize], n_classes: usize) -> ChiSquareScores {
    assert_eq!(x.rows(), y.len(), "labels must match rows");
    let rows: Vec<usize> = (0..x.rows()).collect();
    let cols: Vec<usize> = (0..x.cols()).collect();
    let ranges = column_ranges(x, &rows);
    ChiSquareScores { scores: chi_square_over(x, y, &rows, &cols, &ranges, n_classes) }
}

/// The paper's train-side feature selection (Sec. IV-E), fitted on the
/// rows `rows` of `x` (labels `y` indexed like the rows of `x`): drop
/// the degenerate columns, then keep the `k` best of the rest by
/// chi-square. Returns column indices of `x`, best first.
///
/// Reads only the listed rows, in their order, and copies nothing: the
/// result equals [`drop_degenerate_features`](crate::drop_degenerate_features)
/// and then the top `k` of [`chi_square_scores`] on a dataset of those
/// rows.
pub fn select_clean_top_k(
    x: &Matrix,
    y: &[usize],
    rows: &[usize],
    n_classes: usize,
    k: usize,
) -> Vec<usize> {
    let ranges = column_ranges(x, rows);
    let kept = ranges.non_degenerate();
    let scores = ChiSquareScores { scores: chi_square_over(x, y, rows, &kept, &ranges, n_classes) };
    scores.top_k(k.min(kept.len())).into_iter().map(|t| kept[t]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_data::{Dataset, LabelEncoder, SampleMeta};

    fn meta() -> SampleMeta {
        SampleMeta {
            app: "a".into(),
            input_deck: 0,
            run_id: 0,
            node: 0,
            node_count: 1,
            intensity_pct: 0,
        }
    }

    /// Three columns: perfectly class-dependent, noise, constant.
    fn toy() -> Dataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let informative = class as f64; // exactly the label
            let noise = ((i * 7919 % 13) as f64) / 13.0; // label-independent
            rows.push(vec![informative, noise, 3.5]);
            y.push(class);
        }
        Dataset::new(
            Matrix::from_rows(&rows),
            y,
            LabelEncoder::from_names(&["healthy", "anom"]),
            vec![meta(); 40],
            vec!["informative".into(), "noise".into(), "constant".into()],
        )
    }

    #[test]
    fn informative_feature_wins() {
        let ds = toy();
        let scores = chi_square_scores(&ds.x, &ds.y, 2);
        assert!(scores.scores[0] > scores.scores[1] * 5.0, "{:?}", scores.scores);
        assert_eq!(scores.scores[2], 0.0, "constant feature scores zero");
        assert_eq!(scores.top_k(1), vec![0]);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let s = ChiSquareScores { scores: vec![1.0, 5.0, 3.0, 5.0] };
        assert_eq!(s.top_k(3), vec![1, 3, 2], "ties break toward lower index");
        assert_eq!(s.top_k(10).len(), 4);
    }

    #[test]
    fn selection_clamps_to_the_kept_columns() {
        let ds = toy();
        let rows: Vec<usize> = (0..ds.len()).collect();
        // The constant column is dropped before the top-k.
        assert_eq!(select_clean_top_k(&ds.x, &ds.y, &rows, 2, 100), vec![0, 1]);
    }

    #[test]
    fn negative_features_are_handled_by_rescaling() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let class = i % 2;
            rows.push(vec![if class == 0 { -5.0 } else { -1.0 }]);
            y.push(class);
        }
        let scores = chi_square_scores(&Matrix::from_rows(&rows), &y, 2);
        assert!(scores.scores[0] > 1.0, "negative but informative feature must score");
    }

    #[test]
    fn scores_scale_with_dependence() {
        // Feature A is fully determined by the class, feature B only partly.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let class = i % 2;
            let a = class as f64;
            let b = if i % 10 < 7 { class as f64 } else { 1.0 - class as f64 };
            rows.push(vec![a, b]);
            y.push(class);
        }
        let scores = chi_square_scores(&Matrix::from_rows(&rows), &y, 2);
        assert!(scores.scores[0] > scores.scores[1]);
        assert!(scores.scores[1] > 0.0);
    }
}
