//! LightGBM-style gradient boosting (Table IV's `LGBM`).
//!
//! Multiclass (softmax) boosting over histogram-based regression trees with
//! *leaf-wise* (best-first) growth bounded by `num_leaves` — the structural
//! signature of LightGBM, as opposed to XGBoost's level-wise growth. The
//! hyperparameters mirror Table IV: `num_leaves`, `learning_rate`,
//! `max_depth` (-1 = unlimited, expressed as `None`), `colsample_bytree`.

use crate::model::{softmax_row, Classifier};
use alba_data::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Gradient-boosting hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GbmParams {
    /// Boosting rounds (trees per class).
    pub n_estimators: usize,
    /// Maximum leaves per tree (leaf-wise growth bound).
    pub num_leaves: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// Depth bound (`None` mirrors LightGBM's `-1`).
    pub max_depth: Option<usize>,
    /// Fraction of features sampled per tree.
    pub colsample_bytree: f64,
    /// Minimum samples per leaf (LightGBM's `min_data_in_leaf`; kept at 1
    /// by default because active-learning training sets start tiny).
    pub min_data_in_leaf: usize,
    /// L2 regularisation on leaf values.
    pub reg_lambda: f64,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Master seed (feature subsampling).
    pub seed: u64,
}

impl Default for GbmParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            num_leaves: 31,
            learning_rate: 0.1,
            max_depth: None,
            colsample_bytree: 1.0,
            min_data_in_leaf: 1,
            reg_lambda: 1e-3,
            max_bins: 64,
            seed: 0,
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: u32, right: u32 },
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct RegTree {
    nodes: Vec<Node>,
}

impl RegTree {
    fn predict_one(&self, row: &[f64]) -> f64 {
        let mut node = 0u32;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Per-feature histogram bin edges (quantile binning of the non-NaN
/// values). NaN gets a bin of its own after the last edge, which no split
/// threshold has on its left, so a NaN row trains right of every split,
/// where `predict_one` sends it (`NaN <= threshold` is false). The last
/// edge is a threshold candidate too: it splits the NaN rows from all
/// others, and on a NaN-free column it sends no row right, so
/// `min_data_in_leaf` (or the gain floor) rejects it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Binning {
    /// `edges[f]` holds ascending upper edges; bin b covers values
    /// `(edges[b-1], edges[b]]`.
    edges: Vec<Vec<f64>>,
}

impl Binning {
    fn fit(x: &Matrix, max_bins: usize) -> Self {
        let (rows, cols) = x.shape();
        let mut edges = Vec::with_capacity(cols);
        let mut col: Vec<f64> = Vec::with_capacity(rows);
        for c in 0..cols {
            col.clear();
            col.extend((0..rows).map(|r| x.get(r, c)).filter(|v| !v.is_nan()));
            col.sort_by(|a, b| a.total_cmp(b));
            col.dedup();
            let mut e: Vec<f64> = if col.len() <= max_bins {
                // One bin per distinct value: edge at each value.
                col.clone()
            } else {
                (1..=max_bins)
                    .map(|b| {
                        let pos = b * (col.len() - 1) / max_bins;
                        col[pos]
                    })
                    .collect()
            };
            e.dedup();
            edges.push(e);
        }
        Self { edges }
    }

    /// Bin index of a value (training-time; values beyond the last edge
    /// map to the last edge's bin, NaN to the bin after it).
    fn bin(&self, feature: usize, v: f64) -> usize {
        let e = &self.edges[feature];
        if v.is_nan() {
            return e.len();
        }
        e.partition_point(|&edge| edge < v).min(e.len().saturating_sub(1))
    }

    /// Bins of a feature, the NaN bin included.
    fn n_bins(&self, feature: usize) -> usize {
        self.edges[feature].len() + 1
    }
}

struct LeafState {
    node_slot: u32,
    indices: Vec<usize>,
    sum_g: f64,
    sum_h: f64,
    depth: usize,
    /// The leaf's best split `(gain, feature, threshold)`, `None` when
    /// it may not or cannot split. A pure function of the leaf, so it is
    /// found once, when the leaf is made.
    split: Option<(f64, usize, f64)>,
}

/// A fitted gradient-boosting classifier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GradientBoosting {
    params: GbmParams,
    /// `trees[round][class]`.
    trees: Vec<Vec<RegTree>>,
    n_classes: usize,
    base_score: Vec<f64>,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    pub fn new(params: GbmParams) -> Self {
        Self { params, trees: Vec::new(), n_classes: 0, base_score: Vec::new() }
    }

    /// Number of boosting rounds fitted.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    fn leaf_value(&self, sum_g: f64, sum_h: f64) -> f64 {
        -sum_g / (sum_h + self.params.reg_lambda)
    }

    fn gain(&self, g: f64, h: f64) -> f64 {
        g * g / (h + self.params.reg_lambda)
    }

    /// Best split of a leaf over the allowed features; returns
    /// `(gain, feature, threshold)`.
    fn best_split(
        &self,
        binned: &[Vec<u16>],
        binning: &Binning,
        grad: &[f64],
        hess: &[f64],
        leaf: &LeafState,
        features: &[usize],
    ) -> Option<(f64, usize, f64)> {
        let parent_gain = self.gain(leaf.sum_g, leaf.sum_h);
        let min_leaf = self.params.min_data_in_leaf;
        let mut best: Option<(f64, usize, f64)> = None;
        let mut hist_g = vec![0.0f64; self.params.max_bins + 1];
        let mut hist_h = vec![0.0f64; self.params.max_bins + 1];
        let mut hist_n = vec![0usize; self.params.max_bins + 1];
        for &f in features {
            let n_bins = binning.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            hist_g[..n_bins].iter_mut().for_each(|v| *v = 0.0);
            hist_h[..n_bins].iter_mut().for_each(|v| *v = 0.0);
            hist_n[..n_bins].iter_mut().for_each(|v| *v = 0);
            let fb = &binned[f];
            for &i in &leaf.indices {
                let b = fb[i] as usize;
                hist_g[b] += grad[i];
                hist_h[b] += hess[i];
                hist_n[b] += 1;
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut nl = 0usize;
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                nl += hist_n[b];
                let nr = leaf.indices.len() - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let gr = leaf.sum_g - gl;
                let hr = leaf.sum_h - hl;
                let gain = self.gain(gl, hl) + self.gain(gr, hr) - parent_gain;
                if gain > best.map_or(1e-9, |(g, _, _)| g) {
                    best = Some((gain, f, binning.edges[f][b]));
                }
            }
        }
        best
    }

    /// Fits one regression tree on the gradients/hessians of one class.
    fn fit_tree(
        &self,
        binned: &[Vec<u16>],
        binning: &Binning,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
    ) -> RegTree {
        // `grows`: whether the tree may still gain a leaf after this one
        // is made; when it may not, the leaf's split is never read.
        let mk = |indices: Vec<usize>, slot: u32, depth: usize, grows: bool| {
            let sum_g = indices.iter().map(|&i| grad[i]).sum();
            let sum_h = indices.iter().map(|&i| hess[i]).sum();
            let mut leaf = LeafState { node_slot: slot, indices, sum_g, sum_h, depth, split: None };
            let may_split = grows
                && self.params.max_depth.is_none_or(|max_d| depth < max_d)
                && leaf.indices.len() >= 2 * self.params.min_data_in_leaf;
            if may_split {
                leaf.split = self.best_split(binned, binning, grad, hess, &leaf, features);
            }
            leaf
        };
        let mut nodes = vec![Node::Leaf { value: 0.0 }];
        let mut leaves = vec![mk((0..grad.len()).collect(), 0, 0, self.params.num_leaves > 1)];
        let mut n_leaves = 1usize;

        while n_leaves < self.params.num_leaves {
            // Best split across all current leaves (leaf-wise growth).
            let mut best: Option<(usize, f64, usize, f64)> = None; // (leaf_pos, gain, feature, thr)
            for (pos, leaf) in leaves.iter().enumerate() {
                if let Some((gain, f, thr)) = leaf.split {
                    if gain > best.map_or(0.0, |(_, g, _, _)| g) {
                        best = Some((pos, gain, f, thr));
                    }
                }
            }
            let Some((pos, _gain, feature, threshold)) = best else { break };
            let leaf = leaves.swap_remove(pos);
            let thr_bin = binning.bin(feature, threshold);
            let (li, ri): (Vec<usize>, Vec<usize>) =
                leaf.indices.into_iter().partition(|&i| (binned[feature][i] as usize) <= thr_bin);
            let lslot = nodes.len() as u32;
            nodes.push(Node::Leaf { value: 0.0 });
            let rslot = nodes.len() as u32;
            nodes.push(Node::Leaf { value: 0.0 });
            nodes[leaf.node_slot as usize] =
                Node::Split { feature, threshold, left: lslot, right: rslot };
            n_leaves += 1;
            let grows = n_leaves < self.params.num_leaves;
            leaves.push(mk(li, lslot, leaf.depth + 1, grows));
            leaves.push(mk(ri, rslot, leaf.depth + 1, grows));
        }
        // Finalise leaf values with shrinkage.
        for leaf in leaves {
            nodes[leaf.node_slot as usize] = Node::Leaf {
                value: self.params.learning_rate * self.leaf_value(leaf.sum_g, leaf.sum_h),
            };
        }
        RegTree { nodes }
    }

    fn raw_scores(&self, x: &Matrix) -> Matrix {
        let mut scores = Matrix::zeros(x.rows(), self.n_classes);
        for r in 0..x.rows() {
            let row_in = x.row(r);
            let row = scores.row_mut(r);
            row.copy_from_slice(&self.base_score);
            for round in &self.trees {
                for (k, tree) in round.iter().enumerate() {
                    row[k] += tree.predict_one(row_in);
                }
            }
        }
        scores
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        self.n_classes = n_classes;
        self.trees.clear();
        let n = x.rows();
        let n_features = x.cols();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        // Base score: log class priors (stabilises early rounds).
        let mut prior = vec![1e-9f64; n_classes];
        for &c in y {
            prior[c] += 1.0;
        }
        self.base_score = prior.iter().map(|p| (p / n as f64).ln()).collect();

        let binning = Binning::fit(x, self.params.max_bins);
        // Column-major binned copy: binned[f][i].
        let binned: Vec<Vec<u16>> = (0..n_features)
            .map(|f| (0..n).map(|r| binning.bin(f, x.get(r, f)) as u16).collect())
            .collect();

        // Raw scores F[i][k], updated after every round.
        let mut f_scores = vec![self.base_score.clone(); n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let k_features = ((n_features as f64 * self.params.colsample_bytree).round() as usize)
            .clamp(1, n_features);
        let mut all_features: Vec<usize> = (0..n_features).collect();

        for _round in 0..self.params.n_estimators {
            // Class probabilities from current scores.
            let probs: Vec<Vec<f64>> = f_scores
                .iter()
                .map(|row| {
                    let mut p = row.clone();
                    softmax_row(&mut p);
                    p
                })
                .collect();
            let mut round_trees = Vec::with_capacity(n_classes);
            for k in 0..n_classes {
                for i in 0..n {
                    let p = probs[i][k];
                    let target = if y[i] == k { 1.0 } else { 0.0 };
                    grad[i] = p - target;
                    hess[i] = (p * (1.0 - p)).max(1e-9);
                }
                let features: &[usize] = if k_features == n_features {
                    &all_features
                } else {
                    all_features.shuffle(&mut rng);
                    &all_features[..k_features]
                };
                let tree = self.fit_tree(&binned, &binning, &grad, &hess, features);
                for (i, row) in f_scores.iter_mut().enumerate() {
                    row[k] += tree.predict_one(x.row(i));
                }
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty() || self.n_classes > 0, "predict before fit");
        let mut scores = self.raw_scores(x);
        for r in 0..scores.rows() {
            softmax_row(scores.row_mut(r));
        }
        scores
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> GbmParams {
        GbmParams { n_estimators: 20, num_leaves: 8, learning_rate: 0.3, ..GbmParams::default() }
    }

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let jitter = ((i * 13) % 17) as f64 * 0.02;
            match i % 3 {
                0 => {
                    rows.push(vec![0.0 + jitter, 0.0]);
                    y.push(0);
                }
                1 => {
                    rows.push(vec![1.0, 1.0 - jitter]);
                    y.push(1);
                }
                _ => {
                    rows.push(vec![2.0 - jitter, 0.0 + jitter]);
                    y.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_three_blobs() {
        let (x, y) = blobs();
        let mut g = GradientBoosting::new(quick_params());
        g.fit(&x, &y, 3);
        assert_eq!(g.predict(&x), y);
        assert_eq!(g.n_rounds(), 20);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = blobs();
        let mut g = GradientBoosting::new(quick_params());
        g.fit(&x, &y, 3);
        let p = g.predict_proba(&x);
        for r in 0..p.rows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs();
        let mut a = GradientBoosting::new(quick_params());
        let mut b = GradientBoosting::new(quick_params());
        a.fit(&x, &y, 3);
        b.fit(&x, &y, 3);
        assert_eq!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn num_leaves_bounds_tree_size() {
        let (x, y) = blobs();
        let mut g = GradientBoosting::new(GbmParams {
            n_estimators: 3,
            num_leaves: 2,
            ..GbmParams::default()
        });
        g.fit(&x, &y, 3);
        for round in &g.trees {
            for tree in round {
                // num_leaves=2 -> at most one split -> at most 3 nodes.
                assert!(tree.nodes.len() <= 3, "tree has {} nodes", tree.nodes.len());
            }
        }
    }

    #[test]
    fn max_depth_bounds_growth() {
        let (x, y) = blobs();
        let mut g = GradientBoosting::new(GbmParams {
            n_estimators: 2,
            num_leaves: 64,
            max_depth: Some(1),
            ..GbmParams::default()
        });
        g.fit(&x, &y, 3);
        for round in &g.trees {
            for tree in round {
                assert!(tree.nodes.len() <= 3, "depth-1 tree has {} nodes", tree.nodes.len());
            }
        }
    }

    #[test]
    fn more_rounds_increase_confidence() {
        let (x, y) = blobs();
        let mut short = GradientBoosting::new(GbmParams { n_estimators: 2, ..quick_params() });
        let mut long = GradientBoosting::new(GbmParams { n_estimators: 40, ..quick_params() });
        short.fit(&x, &y, 3);
        long.fit(&x, &y, 3);
        let ps = short.predict_proba(&x);
        let pl = long.predict_proba(&x);
        let conf = |p: &Matrix| -> f64 {
            (0..p.rows()).map(|r| p.row(r).iter().cloned().fold(0.0, f64::max)).sum::<f64>()
                / p.rows() as f64
        };
        assert!(conf(&pl) > conf(&ps));
    }

    #[test]
    fn colsample_still_learns() {
        let (x, y) = blobs();
        let mut g = GradientBoosting::new(GbmParams { colsample_bytree: 0.5, ..quick_params() });
        g.fit(&x, &y, 3);
        let correct =
            g.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(correct > 0.9, "accuracy {correct}");
    }

    #[test]
    fn binning_handles_few_distinct_values() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 0, 1, 1];
        let mut g = GradientBoosting::new(quick_params());
        g.fit(&x, &y, 2);
        assert_eq!(g.predict(&x), y);
    }

    /// NaN rows train in the leaf `predict_one` sends them to and predict
    /// their label; with a bin of their own, a split parts them from the
    /// column's largest value, which keeps its label too.
    #[test]
    fn nan_rows_train_where_predict_sends_them() {
        let x = Matrix::from_rows(&[f64::NAN, f64::NAN, 5.0, 6.0, 7.0, 8.0].map(|v| vec![v]));
        let y = vec![1, 1, 0, 0, 0, 0];
        let mut g = GradientBoosting::new(quick_params());
        g.fit(&x, &y, 2);
        assert_eq!(g.predict(&x), y);
    }

    #[test]
    fn binning_skips_nan_of_either_sign() {
        let x = Matrix::from_rows(&[-f64::NAN, 5.0, f64::NAN, 6.0, 5.0].map(|v| vec![v]));
        let binning = Binning::fit(&x, 64);
        assert_eq!(binning.edges[0], [5.0, 6.0]);
        assert_eq!(binning.bin(0, -f64::NAN), 2);
        assert_eq!(binning.bin(0, f64::NAN), 2);
    }

    #[test]
    fn single_class_predicts_it() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let y = vec![1, 1];
        let mut g = GradientBoosting::new(quick_params());
        g.fit(&x, &y, 3);
        assert_eq!(g.predict(&x), vec![1, 1]);
    }
}
