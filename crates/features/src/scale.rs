//! Min-Max scaling (paper Sec. IV-E.2: "We apply the Min-Max scaler to
//! training and test datasets").

use alba_data::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted Min-Max scaler: maps each feature's training range to `[0, 1]`.
///
/// As in scikit-learn, the transform is fit on the training split only and
/// applied unchanged to the test split (test values may fall outside
/// `[0, 1]`; models must tolerate that).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler on a training matrix.
    pub fn fit(x: &Matrix) -> Self {
        let (mins, maxs) = x.column_min_max();
        let ranges = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi - lo > 1e-12 { hi - lo } else { 1.0 })
            .collect();
        Self { mins, ranges }
    }

    /// Number of features the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.mins.len()
    }

    /// Per-feature training minimum (the transform's offset).
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-feature training range (the transform's divisor; 1 where the
    /// range is below `1e-12`).
    pub fn ranges(&self) -> &[f64] {
        &self.ranges
    }

    /// Transforms a matrix in place.
    ///
    /// # Panics
    /// Panics when the column count differs from the fitted width.
    pub fn transform_inplace(&self, x: &mut Matrix) {
        assert_eq!(x.cols(), self.n_features(), "scaler width mismatch");
        let cols = x.cols();
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            let c = i % cols;
            *v = (*v - self.mins[c]) / self.ranges[c];
        }
    }

    /// Returns a transformed copy.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.transform_inplace(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_data_maps_to_unit_interval() {
        let x = Matrix::from_rows(&[vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]]);
        let s = MinMaxScaler::fit(&x);
        let t = s.transform(&x);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[0.5, 0.5]);
        assert_eq!(t.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn test_data_may_exceed_unit_interval() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let s = MinMaxScaler::fit(&train);
        let test = Matrix::from_rows(&[vec![20.0], vec![-10.0]]);
        let t = s.transform(&test);
        assert_eq!(t.get(0, 0), 2.0);
        assert_eq!(t.get(1, 0), -1.0);
    }

    #[test]
    fn constant_columns_do_not_divide_by_zero() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]);
        let s = MinMaxScaler::fit(&x);
        let t = s.transform(&x);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(t.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn transform_validates_width() {
        let s = MinMaxScaler::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        let mut wrong = Matrix::from_rows(&[vec![1.0]]);
        s.transform_inplace(&mut wrong);
    }
}
