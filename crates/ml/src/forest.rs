//! Bagged random forest (Table IV's `RF`, the paper's chosen model).
//!
//! Trees are fitted on bootstrap resamples with `sqrt`-feature subsetting
//! and trained in parallel with `alba_par::map` (inline when the fit itself
//! runs on an `alba-par` worker, such as a grid lane); `predict_proba`
//! averages the leaf distributions of all trees (scikit-learn semantics).
//! Inference runs in the calling thread: each tree adds its leaf
//! distributions into one accumulator, in tree order, so no per-tree
//! matrix is allocated and no thread is spawned — the serve path
//! parallelises across `alba-par` shards instead, one level up.

use crate::model::Classifier;
use crate::tree::{Criterion, DecisionTree, MaxFeatures, TreeParams};
use alba_data::{bootstrap_indices, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Random-forest hyperparameters (Table IV search space).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees (`n_estimators`).
    pub n_estimators: usize,
    /// Maximum tree depth (`None` = unlimited).
    pub max_depth: Option<usize>,
    /// Split criterion.
    pub criterion: Criterion,
    /// Features per split (defaults to `Sqrt`, the scikit-learn default).
    pub max_features: MaxFeatures,
    /// Bootstrap resampling (true in scikit-learn by default).
    pub bootstrap: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            max_depth: None,
            criterion: Criterion::Gini,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: ForestParams) -> Self {
        Self { params, trees: Vec::new(), n_classes: 0 }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(self.params.n_estimators > 0, "need at least one tree");
        self.n_classes = n_classes;
        let mut seeder = StdRng::seed_from_u64(self.params.seed);
        let tree_seeds: Vec<u64> = (0..self.params.n_estimators).map(|_| seeder.gen()).collect();

        self.trees = alba_par::map(alba_par::available_cores(), tree_seeds, |seed| {
            let params = TreeParams {
                max_depth: self.params.max_depth,
                criterion: self.params.criterion,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: self.params.max_features,
                seed,
            };
            let mut tree = DecisionTree::new(params);
            if self.params.bootstrap {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xB007);
                let idx = bootstrap_indices(x.rows(), x.rows(), &mut rng);
                let xb = x.select_rows(&idx);
                let yb: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
                tree.fit(&xb, &yb, n_classes);
            } else {
                tree.fit(x, y, n_classes);
            }
            tree
        });
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.trees.split_first().expect("predict_proba called before fit");
        // Sum the leaf distributions in tree order, then average.
        let mut acc = first.predict_proba(x);
        for t in rest {
            t.add_proba_into(x, &mut acc);
        }
        let n = self.trees.len() as f64;
        acc.map_inplace(|v| v / n);
        acc
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let jitter = ((i * 13) % 17) as f64 * 0.02;
            match i % 3 {
                0 => {
                    rows.push(vec![0.0 + jitter, 0.0, jitter]);
                    y.push(0);
                }
                1 => {
                    rows.push(vec![2.0, 2.0 - jitter, jitter]);
                    y.push(1);
                }
                _ => {
                    rows.push(vec![4.0 - jitter, 0.0, 1.0 - jitter]);
                    y.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    fn small_forest(seed: u64) -> RandomForest {
        RandomForest::new(ForestParams { n_estimators: 15, seed, ..ForestParams::default() })
    }

    #[test]
    fn learns_three_blobs() {
        let (x, y) = blobs(60);
        let mut f = small_forest(1);
        f.fit(&x, &y, 3);
        assert_eq!(f.n_trees(), 15);
        assert_eq!(f.predict(&x), y);
    }

    #[test]
    fn probabilities_are_normalised() {
        let (x, y) = blobs(30);
        let mut f = small_forest(2);
        f.fit(&x, &y, 3);
        let p = f.predict_proba(&x);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(45);
        let mut a = small_forest(7);
        let mut b = small_forest(7);
        a.fit(&x, &y, 3);
        b.fit(&x, &y, 3);
        assert_eq!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn different_seeds_differ_on_overlapping_data() {
        // Overlapping classes: bootstrap resampling makes per-seed
        // probability estimates differ near the decision boundary.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let v = i as f64 / 80.0 + ((i * 37 % 11) as f64) * 0.03;
            rows.push(vec![v]);
            // Label noise keeps leaves impure so bootstrap resamples yield
            // different leaf distributions.
            y.push(usize::from(v > 0.5) ^ usize::from(i % 7 == 0));
        }
        let x = Matrix::from_rows(&rows);
        let mut a = RandomForest::new(ForestParams {
            n_estimators: 10,
            max_depth: Some(2),
            seed: 7,
            ..ForestParams::default()
        });
        let mut b = RandomForest::new(ForestParams {
            n_estimators: 10,
            max_depth: Some(2),
            seed: 8,
            ..ForestParams::default()
        });
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_ne!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn bagging_produces_soft_probabilities_near_boundary() {
        // Overlapping classes on one feature: forest probabilities should be
        // strictly between 0 and 1 near the overlap.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            rows.push(vec![v]);
            y.push(usize::from(v + ((i * 31 % 10) as f64) * 0.05 > 0.5));
        }
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 25,
            max_depth: Some(3),
            ..ForestParams::default()
        });
        f.fit(&x, &y, 2);
        let p = f.predict_proba(&Matrix::from_rows(&[vec![0.5]]));
        assert!(p.get(0, 0) > 0.02 && p.get(0, 0) < 0.98, "boundary proba {}", p.get(0, 0));
    }

    /// In-thread inference must equal the per-tree reference bit for
    /// bit: each tree's `predict_proba` matrix, summed in tree order,
    /// then divided by the tree count.
    #[test]
    fn predict_proba_matches_per_tree_reference_bitwise() {
        // Overlapping, label-noisy classes keep leaves impure, so the
        // per-tree distributions are non-trivial fractions whose sum
        // depends on the order they are added in.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let u = (i * 37 % 101) as f64 / 101.0;
            let v = (i * 53 % 89) as f64 / 89.0;
            rows.push(vec![u, v, u * v]);
            y.push((usize::from(u + 0.3 * v > 0.6) + usize::from(i % 5 == 0) * (i % 3)) % 3);
        }
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 23,
            max_depth: Some(4),
            seed: 11,
            ..ForestParams::default()
        });
        f.fit(&x, &y, 3);
        for n_rows in [1usize, 37] {
            let batch: Vec<Vec<f64>> =
                (0..n_rows).map(|r| rows[(r * 13 + 5) % rows.len()].clone()).collect();
            let batch = Matrix::from_rows(&batch);
            let mut want = Matrix::zeros(n_rows, 3);
            for tree in &f.trees {
                let p = tree.predict_proba(&batch);
                for (a, b) in want.as_mut_slice().iter_mut().zip(p.as_slice()) {
                    *a += b;
                }
            }
            let n = f.n_trees() as f64;
            want.map_inplace(|v| v / n);
            let got = f.predict_proba(&batch);
            assert_eq!((got.rows(), got.cols()), (n_rows, 3));
            for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "{n_rows} rows, cell {i}: {a} vs {b}");
            }
            assert!(
                got.as_slice().iter().any(|&p| p > 0.0 && p < 1.0),
                "reference must exercise fractional sums"
            );
        }
    }

    #[test]
    fn single_class_training_is_certain() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1];
        let mut f = small_forest(3);
        f.fit(&x, &y, 3);
        let p = f.predict_proba(&x);
        for r in 0..3 {
            assert_eq!(p.get(r, 1), 1.0);
        }
    }
}
