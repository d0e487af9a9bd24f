//! Multinomial logistic regression (Table IV's `LR`).
//!
//! Softmax regression trained by full-batch gradient descent with Nesterov
//! momentum. Supports scikit-learn's `penalty` (`l1` via proximal
//! soft-thresholding, `l2` via weight decay) and inverse regularisation
//! strength `C`.

use crate::model::{softmax_row, Classifier};
use alba_data::Matrix;
use serde::{Deserialize, Serialize};

/// Regularisation penalty.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Penalty {
    /// Lasso (sparsity-inducing), applied proximally.
    L1,
    /// Ridge.
    L2,
}

/// Logistic-regression hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LogRegParams {
    /// Penalty kind.
    pub penalty: Penalty,
    /// Inverse regularisation strength (larger = weaker regularisation).
    pub c: f64,
    /// Gradient-descent iterations.
    pub max_iter: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for LogRegParams {
    fn default() -> Self {
        Self { penalty: Penalty::L2, c: 1.0, max_iter: 300, lr: 0.5 }
    }
}

/// A fitted multinomial logistic-regression model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogisticRegression {
    params: LogRegParams,
    /// Weights, `n_features x n_classes`.
    w: Matrix,
    /// Intercepts, length `n_classes`.
    b: Vec<f64>,
    n_classes: usize,
}

impl LogisticRegression {
    /// Creates an unfitted model.
    pub fn new(params: LogRegParams) -> Self {
        Self { params, w: Matrix::zeros(0, 0), b: Vec::new(), n_classes: 0 }
    }

    /// Fitted weight matrix (`n_features x n_classes`).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Fraction of exactly-zero weights (L1 sparsity diagnostic).
    pub fn sparsity(&self) -> f64 {
        let total = self.w.as_slice().len();
        if total == 0 {
            return 0.0;
        }
        self.w.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / total as f64
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        let k = self.n_classes;
        for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
            *v += self.b[i % k];
        }
        z
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        self.n_classes = n_classes;
        let (n, d) = x.shape();
        self.w = Matrix::zeros(d, n_classes);
        self.b = vec![0.0; n_classes];
        let lam = 1.0 / (self.params.c * n as f64); // per-sample regularisation
        let lr = self.params.lr;
        let mut vel_w = Matrix::zeros(d, n_classes);
        let mut vel_b = vec![0.0; n_classes];
        let momentum = 0.9;
        let xt = x.transpose();

        for _ in 0..self.params.max_iter {
            // Probabilities under current parameters.
            let mut p = self.logits(x);
            for r in 0..n {
                softmax_row(p.row_mut(r));
            }
            // Gradient: X^T (p - onehot) / n.
            for (i, &c) in y.iter().enumerate() {
                let v = p.get(i, c);
                p.set(i, c, v - 1.0);
            }
            let mut gw = xt.matmul(&p);
            gw.map_inplace(|v| v / n as f64);
            let mut gb = vec![0.0; n_classes];
            for row in p.rows_iter() {
                for (j, &v) in row.iter().enumerate() {
                    gb[j] += v;
                }
            }
            for g in &mut gb {
                *g /= n as f64;
            }
            // Momentum update.
            for ((w, v), &g) in
                self.w.as_mut_slice().iter_mut().zip(vel_w.as_mut_slice()).zip(gw.as_slice())
            {
                *v = momentum * *v - lr * g;
                *w += *v;
            }
            for ((b, v), &g) in self.b.iter_mut().zip(&mut vel_b).zip(&gb) {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
            // Regularisation, applied decoupled from the data gradient so
            // that strong penalties (small C) stay numerically stable.
            match self.params.penalty {
                Penalty::L2 => {
                    // Clamped multiplicative weight decay.
                    let decay = (1.0 - lr * lam).max(0.0);
                    self.w.map_inplace(|w| w * decay);
                }
                Penalty::L1 => {
                    // Proximal soft-thresholding.
                    let thresh = lr * lam;
                    for w in self.w.as_mut_slice() {
                        *w = if *w > thresh {
                            *w - thresh
                        } else if *w < -thresh {
                            *w + thresh
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(self.n_classes > 0, "predict before fit");
        let mut p = self.logits(x);
        for r in 0..p.rows() {
            softmax_row(p.row_mut(r));
        }
        p
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..90 {
            let jitter = ((i * 13) % 17) as f64 * 0.02;
            match i % 3 {
                0 => {
                    rows.push(vec![0.0 + jitter, 0.0, jitter]);
                    y.push(0);
                }
                1 => {
                    rows.push(vec![1.5, 1.5 - jitter, 0.0]);
                    y.push(1);
                }
                _ => {
                    rows.push(vec![3.0 - jitter, 0.0, 1.0]);
                    y.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs();
        let mut m = LogisticRegression::new(LogRegParams::default());
        m.fit(&x, &y, 3);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn probabilities_are_normalised() {
        let (x, y) = blobs();
        let mut m = LogisticRegression::new(LogRegParams::default());
        m.fit(&x, &y, 3);
        let p = m.predict_proba(&x);
        for r in 0..p.rows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn l1_is_sparser_than_l2() {
        // Only feature 0 is informative; features 1-4 are noise.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let class = i % 2;
            let noise: Vec<f64> =
                (0..4).map(|k| (((i * 31 + k * 7) % 13) as f64 / 13.0) - 0.5).collect();
            let mut row = vec![class as f64];
            row.extend(noise);
            rows.push(row);
            y.push(class);
        }
        let x = Matrix::from_rows(&rows);
        let mut l1 = LogisticRegression::new(LogRegParams {
            penalty: Penalty::L1,
            c: 0.05,
            ..LogRegParams::default()
        });
        let mut l2 = LogisticRegression::new(LogRegParams {
            penalty: Penalty::L2,
            c: 0.05,
            ..LogRegParams::default()
        });
        l1.fit(&x, &y, 2);
        l2.fit(&x, &y, 2);
        assert!(l1.sparsity() > l2.sparsity(), "l1 {} vs l2 {}", l1.sparsity(), l2.sparsity());
        // Both still predict the informative structure.
        assert_eq!(l1.predict(&x), y);
    }

    #[test]
    fn stronger_regularisation_shrinks_weights() {
        let (x, y) = blobs();
        let mut strong =
            LogisticRegression::new(LogRegParams { c: 0.001, ..LogRegParams::default() });
        let mut weak = LogisticRegression::new(LogRegParams { c: 10.0, ..LogRegParams::default() });
        strong.fit(&x, &y, 3);
        weak.fit(&x, &y, 3);
        let norm = |m: &LogisticRegression| -> f64 {
            m.weights().as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
        };
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn deterministic() {
        let (x, y) = blobs();
        let mut a = LogisticRegression::new(LogRegParams::default());
        let mut b = LogisticRegression::new(LogRegParams::default());
        a.fit(&x, &y, 3);
        b.fit(&x, &y, 3);
        assert_eq!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn unseen_class_column_exists() {
        let (x, y) = blobs();
        let mut m = LogisticRegression::new(LogRegParams::default());
        m.fit(&x, &y, 5);
        let p = m.predict_proba(&x);
        assert_eq!(p.cols(), 5);
    }
}
