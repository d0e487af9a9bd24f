//! CART decision trees with Gini / entropy criteria.
//!
//! Foundation of the random forest (the paper's best model on both
//! datasets). Supports per-split random feature subsetting (for forests),
//! depth limits, and probabilistic leaf predictions (class frequencies),
//! matching scikit-learn's `DecisionTreeClassifier` semantics.

use crate::model::Classifier;
use alba_data::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Split-quality criterion (Table IV: `gini`, `entropy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Criterion {
    /// Gini impurity `1 - sum p^2`.
    Gini,
    /// Shannon entropy `-sum p log2 p`.
    Entropy,
}

impl Criterion {
    fn impurity(self, counts: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            Criterion::Gini => 1.0 - counts.iter().map(|&c| (c / total) * (c / total)).sum::<f64>(),
            Criterion::Entropy => -counts
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| {
                    let p = c / total;
                    p * p.log2()
                })
                .sum::<f64>(),
        }
    }
}

/// How many features to consider per split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// All features (plain CART).
    All,
    /// `sqrt(n_features)` (random-forest default).
    Sqrt,
    /// `log2(n_features)`.
    Log2,
    /// A fixed count (clamped to the feature count).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, n_features: usize) -> usize {
        let k = match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().round() as usize,
            MaxFeatures::Log2 => (n_features as f64).log2().round() as usize,
            MaxFeatures::Count(k) => k,
        };
        k.clamp(1, n_features.max(1))
    }
}

/// Decision-tree hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (`None` = unlimited; Table IV's `max_depth: None`).
    pub max_depth: Option<usize>,
    /// Split criterion.
    pub criterion: Criterion,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: None,
            criterion: Criterion::Gini,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: 0,
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf { dist: Vec<f64> },
    Split { feature: usize, threshold: f64, left: u32, right: u32 },
}

/// A fitted CART decision tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams) -> Self {
        Self { params, nodes: Vec::new(), n_classes: 0 }
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: u32) -> usize {
            match &nodes[i as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// The class distribution of the leaf `row` lands in.
    fn leaf_for(&self, row: &[f64]) -> &[f64] {
        let mut node = 0u32;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { dist } => return dist,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Adds this tree's leaf distribution for every row of `x` into the
    /// matching row of `acc` — the forest's allocation-free inference
    /// step.
    pub(crate) fn add_proba_into(&self, x: &Matrix, acc: &mut Matrix) {
        for r in 0..x.rows() {
            for (a, &p) in acc.row_mut(r).iter_mut().zip(self.leaf_for(x.row(r))) {
                *a += p;
            }
        }
    }

    fn leaf_dist(&self, counts: &[f64]) -> Node {
        let total: f64 = counts.iter().sum();
        let dist = if total > 0.0 {
            counts.iter().map(|&c| c / total).collect()
        } else {
            vec![1.0 / self.n_classes as f64; self.n_classes]
        };
        Node::Leaf { dist }
    }

    /// Finds the best `(feature, threshold, gain)` for the samples in `idx`.
    fn best_split(
        &self,
        x: &Matrix,
        y: &[usize],
        idx: &[usize],
        counts: &[f64],
        features: &[usize],
        scratch: &mut Vec<(f64, usize)>,
    ) -> Option<(usize, f64, f64)> {
        let total = idx.len() as f64;
        let parent_impurity = self.params.criterion.impurity(counts, total);
        if parent_impurity <= 1e-12 {
            return None;
        }
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut left_counts = vec![0.0f64; self.n_classes];
        for &f in features {
            scratch.clear();
            scratch.extend(idx.iter().map(|&i| (x.get(i, f), y[i])));
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            if scratch[0].0 == scratch[scratch.len() - 1].0 {
                continue; // constant within the node
            }
            left_counts.iter_mut().for_each(|c| *c = 0.0);
            let mut n_left = 0.0f64;
            for w in 0..scratch.len() - 1 {
                let (v, c) = scratch[w];
                left_counts[c] += 1.0;
                n_left += 1.0;
                let next_v = scratch[w + 1].0;
                if v == next_v {
                    continue; // can only split between distinct values
                }
                let n_right = total - n_left;
                if (n_left as usize) < min_leaf || (n_right as usize) < min_leaf {
                    continue;
                }
                let left_imp = self.params.criterion.impurity(&left_counts, n_left);
                let right_counts: Vec<f64> =
                    counts.iter().zip(&left_counts).map(|(&t, &l)| t - l).collect();
                let right_imp = self.params.criterion.impurity(&right_counts, n_right);
                let weighted = (n_left * left_imp + n_right * right_imp) / total;
                let gain = parent_impurity - weighted;
                // Zero-gain splits are still taken on impure nodes (as in
                // scikit-learn): greedy CART cannot learn XOR-like patterns
                // otherwise. Recursion terminates because both children are
                // strictly smaller.
                if gain > -1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, (v + next_v) / 2.0, gain));
                }
            }
        }
        best
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "labels must match rows");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        self.n_classes = n_classes;
        self.nodes.clear();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let n_features = x.cols();
        let k_features = self.params.max_features.resolve(n_features);
        let mut all_features: Vec<usize> = (0..n_features).collect();
        let mut scratch: Vec<(f64, usize)> = Vec::new();

        // Iterative build: (node slot, sample indices, depth).
        let root_idx: Vec<usize> = (0..x.rows()).collect();
        self.nodes.push(Node::Leaf { dist: vec![] }); // placeholder
        let mut stack: Vec<(u32, Vec<usize>, usize)> = vec![(0, root_idx, 0)];

        while let Some((slot, idx, depth)) = stack.pop() {
            let mut counts = vec![0.0f64; n_classes];
            for &i in &idx {
                counts[y[i]] += 1.0;
            }
            let depth_ok = self.params.max_depth.is_none_or(|d| depth < d);
            let size_ok = idx.len() >= self.params.min_samples_split;
            let split = if depth_ok && size_ok {
                let features: &[usize] = if k_features == n_features {
                    &all_features
                } else {
                    all_features.shuffle(&mut rng);
                    &all_features[..k_features]
                };
                self.best_split(x, y, &idx, &counts, features, &mut scratch)
            } else {
                None
            };
            match split {
                Some((feature, threshold, _gain)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                        idx.into_iter().partition(|&i| x.get(i, feature) <= threshold);
                    let left = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf { dist: vec![] });
                    let right = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf { dist: vec![] });
                    self.nodes[slot as usize] = Node::Split { feature, threshold, left, right };
                    stack.push((left, left_idx, depth + 1));
                    stack.push((right, right_idx, depth + 1));
                }
                None => {
                    self.nodes[slot as usize] = self.leaf_dist(&counts);
                }
            }
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.nodes.is_empty(), "predict_proba called before fit");
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(self.leaf_for(x.row(r)));
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 2-D blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let jitter = (i % 7) as f64 * 0.01;
            if i % 2 == 0 {
                rows.push(vec![0.0 + jitter, 0.0 - jitter]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - jitter, 1.0 + jitter]);
                y.push(1);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn separable_data_is_learned_perfectly() {
        let (x, y) = blobs();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y, 2);
        assert_eq!(t.predict(&x), y);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn probabilities_reflect_leaf_purity() {
        // One feature, classes overlap in the middle region.
        let x =
            Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![0.8], vec![0.9], vec![1.0]]);
        let y = vec![0, 0, 1, 1, 1, 1];
        let mut t = DecisionTree::new(TreeParams { max_depth: Some(1), ..TreeParams::default() });
        t.fit(&x, &y, 2);
        let proba = t.predict_proba(&x);
        for r in 0..x.rows() {
            let s: f64 = proba.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Depth-1 stump: best split at 0.15 (left pure 0, right 1/4 vs 3/4... )
        assert!(proba.get(0, 0) > proba.get(5, 0));
    }

    #[test]
    fn max_depth_limits_tree() {
        let (x, y) = blobs();
        let mut t = DecisionTree::new(TreeParams { max_depth: Some(0), ..TreeParams::default() });
        t.fit(&x, &y, 2);
        assert_eq!(t.n_nodes(), 1, "depth 0 is a single leaf");
        let proba = t.predict_proba(&x);
        assert!((proba.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn entropy_criterion_also_separates() {
        let (x, y) = blobs();
        let mut t = DecisionTree::new(TreeParams {
            criterion: Criterion::Entropy,
            ..TreeParams::default()
        });
        t.fit(&x, &y, 2);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 0, 1];
        let mut t = DecisionTree::new(TreeParams { min_samples_leaf: 2, ..TreeParams::default() });
        t.fit(&x, &y, 2);
        // The only legal splits leave >=2 per side; the pure separation
        // (3 vs 1) is forbidden, so the class-1 sample cannot be isolated.
        let pred = t.predict(&x);
        assert_eq!(pred[0], 0);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let y = vec![0, 1, 0];
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y, 2);
        assert_eq!(t.n_nodes(), 1);
        let p = t.predict_proba(&x);
        assert!((p.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_classes_get_zero_probability_columns() {
        let (x, y) = blobs();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y, 4); // classes 2 and 3 unseen
        let p = t.predict_proba(&x);
        assert_eq!(p.cols(), 4);
        for r in 0..x.rows() {
            assert_eq!(p.get(r, 2), 0.0);
            assert_eq!(p.get(r, 3), 0.0);
        }
    }

    #[test]
    fn feature_subsetting_is_deterministic_per_seed() {
        let (x, y) = blobs();
        let params =
            TreeParams { max_features: MaxFeatures::Count(1), seed: 3, ..TreeParams::default() };
        let mut a = DecisionTree::new(params);
        let mut b = DecisionTree::new(params);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn xor_needs_depth_two() {
        let x =
            Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let y = vec![0, 1, 1, 0];
        let mut shallow =
            DecisionTree::new(TreeParams { max_depth: Some(1), ..TreeParams::default() });
        shallow.fit(&x, &y, 2);
        assert_ne!(shallow.predict(&x), y, "a stump cannot learn XOR");
        let mut deep = DecisionTree::new(TreeParams::default());
        deep.fit(&x, &y, 2);
        assert_eq!(deep.predict(&x), y);
    }
}
