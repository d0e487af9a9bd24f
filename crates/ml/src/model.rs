//! The classifier abstraction shared by every model and the active-learning
//! loop.

use alba_data::Matrix;

/// A multi-class probabilistic classifier.
///
/// Implementations are deterministic given their construction-time seed, so
/// experiments are exactly reproducible.
pub trait Classifier: Send + Sync {
    /// Fits the model on `x` (rows = samples) with labels `y` drawn from
    /// `0..n_classes`. Refitting replaces the previous state.
    ///
    /// `n_classes` is passed explicitly because active-learning training
    /// sets routinely miss classes early on, yet the model must still emit
    /// a probability column for every class.
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize);

    /// Returns an `n_samples x n_classes` matrix of class probabilities.
    /// Every row sums to 1.
    ///
    /// # Panics
    /// Panics if called before `fit`.
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Predicted class per sample (argmax of `predict_proba`, ties toward
    /// the lower class index).
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x).rows_iter().map(argmax).collect()
    }

    /// Number of classes the model was fitted for (0 before `fit`).
    fn n_classes(&self) -> usize;
}

/// The class a probability row predicts: the index of its largest entry,
/// ties toward the lower index; 0 for an empty row. The scan moves only on
/// a strictly greater entry, so a NaN never wins from a later position.
pub fn argmax(row: &[f64]) -> usize {
    (1..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
}

/// Normalises a probability row in place; falls back to uniform when the
/// mass is zero or non-finite.
pub fn normalize_row(row: &mut [f64]) {
    let sum: f64 = row.iter().sum();
    if sum > 1e-300 && sum.is_finite() {
        for v in row.iter_mut() {
            *v /= sum;
        }
    } else {
        let u = 1.0 / row.len().max(1) as f64;
        for v in row.iter_mut() {
            *v = u;
        }
    }
}

/// Numerically stable in-place softmax.
pub fn softmax_row(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant {
        proba: Vec<f64>,
    }

    impl Classifier for Constant {
        fn fit(&mut self, _x: &Matrix, _y: &[usize], _n: usize) {}
        fn predict_proba(&self, x: &Matrix) -> Matrix {
            let mut m = Matrix::zeros(x.rows(), self.proba.len());
            for r in 0..x.rows() {
                m.row_mut(r).copy_from_slice(&self.proba);
            }
            m
        }
        fn n_classes(&self) -> usize {
            self.proba.len()
        }
    }

    #[test]
    fn predict_takes_argmax_with_low_index_ties() {
        let c = Constant { proba: vec![0.4, 0.4, 0.2] };
        let x = Matrix::zeros(3, 1);
        assert_eq!(c.predict(&x), vec![0, 0, 0]);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[0.2, 0.5, 0.5, 0.3]), 1);
        assert_eq!(argmax(&[0.1, f64::NAN, 0.9]), 2);
        assert_eq!(argmax(&[f64::NAN, 0.9]), 0);
    }

    #[test]
    fn normalize_handles_zero_mass() {
        let mut row = vec![0.0, 0.0];
        normalize_row(&mut row);
        assert_eq!(row, vec![0.5, 0.5]);
        let mut row = vec![2.0, 6.0];
        normalize_row(&mut row);
        assert_eq!(row, vec![0.25, 0.75]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut row = vec![1000.0, 1001.0];
        softmax_row(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(row[1] > row[0]);
    }
}
