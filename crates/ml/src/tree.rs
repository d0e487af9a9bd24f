//! CART decision trees with Gini / entropy criteria.
//!
//! Foundation of the random forest (the paper's best model on both
//! datasets). Supports per-split random feature subsetting (for forests),
//! depth limits, and probabilistic leaf predictions (class frequencies),
//! matching scikit-learn's `DecisionTreeClassifier` semantics.
//!
//! # Fitting without per-node sorts
//!
//! A split search needs each candidate feature's node rows in value
//! order. Rather than gathering and sorting them at every node, a fit
//! sorts each column once: `Presorted` holds every column's values in
//! `f64::total_cmp` order, the row behind each, and each row's position
//! (a `u32`) in that order. A forest shares one table read-only across
//! its trees. A caller whose matrix grows only by appended rows (the
//! serve `Retrainer`) keeps the table and merges the new rows in, one
//! O(n) merge per column instead of a sort; it is never serialized.
//!
//! A tree's sample is a weight per row: a bootstrap draws rows with
//! repetition, and a row drawn three times weighs 3 instead of being
//! copied three times (a lone tree weighs every row 1). Each node holds
//! its distinct rows. For each candidate feature it reads them in value
//! order from one of two sources: a large node walks the presorted
//! column and keeps its members, a small one sorts its rows' positions
//! (the crossover is `WALK_SHARE`).
//!
//! # One rule for every value, NaN included
//!
//! A split is scored as exactly the partition `x <= threshold` makes,
//! in training as in predict. NaN is `<=` nothing, so a NaN row always
//! goes right: the scan keeps NaN cells out of the left counts, and
//! scores one boundary that sends every non-NaN value left and the
//! node's NaN rows right. Between each pair of non-NaN neighbours
//! `p < v` the candidate threshold is `(p + v) / 2`, or `p` where that
//! midpoint is not in `[p, v)` (it rounded onto `v`, or overflowed to
//! ±inf, or is NaN). Either way exactly the rows `<= p` go left, so
//! every split sends rows both ways and a fit ends without a depth
//! limit. Equal values are never split apart and NaN is never between
//! two values, so how ties are ordered cannot change which thresholds
//! are scored, nor the (integer, hence exact) counts on either side of
//! them. Both sources therefore choose every split exactly as gathering
//! and sorting each node's copies would; a gather-and-sort reference in
//! the tests, which scores every candidate, pins the trees bit for bit.
//!
//! # Scoring only boundary points
//!
//! A value group is a node's rows with one non-NaN value. The scan skips
//! the threshold between adjacent groups `A` and `B` (after Fayyad &
//! Irani) iff every row of `A` and `B` holds one class `c`, the boundary
//! before `A` sends at least `min_samples_leaf` copies left, and a
//! boundary after `B`, before a later non-NaN group, sends at least
//! `min_samples_leaf` right. Every other threshold, the NaN boundary
//! included, is scored with the same counts and expression as before.
//! Why nothing better is lost: `n · impurity` is concave in the class
//! counts for Gini and entropy, and strictly concave along a move of
//! class-`c` weight unless both sides are pure `c`, which only a pure
//! node (never scanned) can be. From the boundary before `A` through
//! `A | B` to the one after `B` only class-`c` weight moves left, so the
//! skipped threshold's gain is strictly below one of its two valid
//! neighbours'; along a run of such groups the best is at a scored end.
//! A boundary after a one-class group is deferred until the next group
//! ends, its left counts kept in `Scratch`, and scored before the next
//! one, so the first of equal gains still wins. In floats a skipped gain
//! could beat both neighbours only by rounding across a concavity gap of
//! ~1e-15; the differential tests and every pinned output show the
//! trees unchanged.

use crate::model::Classifier;
use alba_data::{from_total_order_key, total_order_key, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

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

    /// Grows the tree on the presorted `table`, row `r` weighing
    /// `weight[r]`: the one fit path, for a lone tree (unit weights) and
    /// for every forest tree (bootstrap multiplicities) alike.
    pub(crate) fn fit_presorted(
        &mut self,
        table: &Presorted,
        y: &[usize],
        n_classes: usize,
        weight: &[f64],
    ) {
        assert_eq!(table.n_rows, y.len(), "labels must match rows");
        assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        self.n_classes = n_classes;
        self.nodes.clear();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let n_features = table.n_features;
        let k_features = self.params.max_features.resolve(n_features);
        let mut all_features: Vec<usize> = (0..n_features).collect();
        let mut scratch = Scratch::new(table.n_rows, n_classes);

        // Every node owns a range of `rows`, its distinct in-bag rows;
        // a split partitions the range in place. Iterative build:
        // (node slot, range start, range end, depth).
        let mut rows: Vec<u32> =
            (0..table.n_rows as u32).filter(|&r| weight[r as usize] > 0.0).collect();
        self.nodes.push(Node::Leaf { dist: vec![] }); // placeholder
        let mut stack: Vec<(u32, usize, usize, usize)> = vec![(0, 0, rows.len(), 0)];

        while let Some((slot, start, end, depth)) = stack.pop() {
            let node_rows = &mut rows[start..end];
            let mut counts = vec![0.0f64; n_classes];
            let mut total = 0.0f64;
            for &r in node_rows.iter() {
                let w = weight[r as usize];
                counts[y[r as usize]] += w;
                total += w;
            }
            let depth_ok = self.params.max_depth.is_none_or(|d| depth < d);
            let size_ok = total as usize >= self.params.min_samples_split;
            let split = if depth_ok && size_ok {
                let features: &[usize] = if k_features == n_features {
                    &all_features
                } else {
                    all_features.shuffle(&mut rng);
                    &all_features[..k_features]
                };
                self.best_split(table, y, weight, node_rows, &counts, total, features, &mut scratch)
            } else {
                None
            };
            match split {
                Some((feature, threshold, _gain)) => {
                    let n_left = partition(node_rows, |r| table.value(feature, r) <= threshold);
                    let left = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf { dist: vec![] });
                    let right = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf { dist: vec![] });
                    self.nodes[slot as usize] = Node::Split { feature, threshold, left, right };
                    stack.push((left, start, start + n_left, depth + 1));
                    stack.push((right, start + n_left, end, depth + 1));
                }
                None => {
                    self.nodes[slot as usize] = self.leaf_dist(&counts);
                }
            }
        }
    }

    /// Finds the best `(feature, threshold, gain)` for the node holding
    /// `rows`, visiting each candidate feature's rows in value order.
    #[allow(clippy::too_many_arguments)]
    fn best_split(
        &self,
        table: &Presorted,
        y: &[usize],
        weight: &[f64],
        rows: &[u32],
        counts: &[f64],
        total: f64,
        features: &[usize],
        scratch: &mut Scratch,
    ) -> Option<(usize, f64, f64)> {
        let parent_impurity = self.params.criterion.impurity(counts, total);
        if parent_impurity <= 1e-12 {
            return None;
        }
        let Scratch { mark, stamp, positions, left, right, deferred } = scratch;
        *stamp += 1;
        let stamp = *stamp;
        for &r in rows {
            mark[r as usize] = stamp;
        }
        let n = table.n_rows;
        let walk = rows.len() * WALK_SHARE >= n;
        let mut scan =
            Scan { tree: self, counts, total, parent_impurity, left, right, deferred, best: None };
        for &f in features {
            let values = &table.values[f * n..(f + 1) * n];
            let order = &table.order[f * n..(f + 1) * n];
            let rank = &table.rank[f * n..(f + 1) * n];
            if walk {
                scan.feature(
                    f,
                    order
                        .iter()
                        .zip(values)
                        .filter(|&(&r, _)| mark[r as usize] == stamp)
                        .map(|(&r, &v)| (v, y[r as usize], weight[r as usize])),
                );
            } else {
                positions.clear();
                positions.extend(rows.iter().map(|&r| rank[r as usize]));
                positions.sort_unstable();
                scan.feature(
                    f,
                    positions.iter().map(|&k| {
                        let r = order[k as usize] as usize;
                        (values[k as usize], y[r], weight[r])
                    }),
                );
            }
        }
        scan.best
    }
}

/// A node at least `1 / WALK_SHARE` of the table's rows visits a feature
/// by walking the whole presorted column and skipping non-members; a
/// smaller node sorts its rows' positions in the column instead. Both
/// yield the same value order. A walk costs the column's length and a
/// sort the node's, so large nodes walk and small ones sort. On the
/// served Volta and Eclipse splits, sorting every node fits slower than
/// splitting the nodes between the two paths, and so does walking every
/// node on Eclipse; shares from 4 to 32 fit equally fast there.
const WALK_SHARE: usize = 16;

/// A training matrix presorted column by column: each column's values
/// in `f64::total_cmp` order, the row behind each, and each row's
/// position in that order. Every tree of a forest reads it. A caller
/// whose matrix only grows by appended rows can keep it and
/// [`Presorted::merge`] the new rows in rather than sorting again.
#[derive(Clone)]
pub struct Presorted {
    n_rows: usize,
    n_features: usize,
    /// `values[f * n_rows + k]`: the `k`-th smallest value of column `f`.
    values: Vec<f64>,
    /// `order[f * n_rows + k]`: the row that value comes from.
    order: Vec<u32>,
    /// `rank[f * n_rows + r]`: row `r`'s position in column `f`.
    rank: Vec<u32>,
}

impl Presorted {
    /// Sorts every column of `x` by (total-order key, row).
    ///
    /// # Panics
    /// Panics on a matrix without rows.
    pub fn new(x: &Matrix) -> Self {
        let (n, p) = x.shape();
        assert!(n > 0, "cannot fit on an empty dataset");
        Self::build(n, p, |f, keyed| {
            keyed.extend((0..n).map(|r| (total_order_key(x.get(r, f)), r as u32)));
            keyed.sort_unstable();
        })
    }

    /// Merges rows `self.n_rows()..x.rows()` of `x` into the table, whose
    /// first rows must be the matrix it was built from. Each column is
    /// one merge of the old order with the sorted new rows; a new row
    /// goes after the old rows it ties, as its index is larger. The
    /// result equals `Presorted::new(x)` bit for bit.
    ///
    /// # Panics
    /// Panics when `x` has fewer rows than the table or another width.
    pub fn merge(&mut self, x: &Matrix) {
        let (n, p) = x.shape();
        assert_eq!(p, self.n_features, "merged rows must match the table's width");
        assert!(n >= self.n_rows, "a merge cannot drop rows");
        let n_old = self.n_rows;
        if n == n_old {
            return;
        }
        let merged = Self::build(n, p, |f, keyed| {
            let mut fresh: Vec<(u64, u32)> =
                (n_old..n).map(|r| (total_order_key(x.get(r, f)), r as u32)).collect();
            fresh.sort_unstable();
            let mut fresh = fresh.into_iter().peekable();
            let column = f * n_old..(f + 1) * n_old;
            for (&v, &r) in self.values[column.clone()].iter().zip(&self.order[column]) {
                let key = total_order_key(v);
                while let Some(e) = fresh.next_if(|&(k, _)| k < key) {
                    keyed.push(e);
                }
                keyed.push((key, r));
            }
            keyed.extend(fresh);
        });
        *self = merged;
    }

    /// Rows in the table.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Fills an `n`-row, `p`-column table from `sorted_column(f, keyed)`,
    /// which pushes column `f`'s (total-order key, row) pairs in order
    /// onto an empty `keyed`. The columns are spread over the available
    /// cores.
    fn build(
        n: usize,
        p: usize,
        sorted_column: impl Fn(usize, &mut Vec<(u64, u32)>) + Sync,
    ) -> Self {
        assert!(u32::try_from(n).is_ok(), "too many rows for a presorted table");
        let mut values = vec![0.0; n * p];
        let mut order = vec![0u32; n * p];
        let mut rank = vec![0u32; n * p];
        let cores = alba_par::available_cores();
        let lane_cols = p.div_ceil(cores).max(1);
        let lanes = values
            .chunks_mut(lane_cols * n)
            .zip(order.chunks_mut(lane_cols * n))
            .zip(rank.chunks_mut(lane_cols * n))
            .enumerate()
            .map(|(lane, ((values, order), rank))| (lane * lane_cols, values, order, rank));
        alba_par::map(cores, lanes, |(first, values, order, rank)| {
            let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
            let columns = values.chunks_mut(n).zip(order.chunks_mut(n)).zip(rank.chunks_mut(n));
            for (f, ((values, order), rank)) in (first..).zip(columns) {
                keyed.clear();
                sorted_column(f, &mut keyed);
                for (k, &(key, r)) in keyed.iter().enumerate() {
                    values[k] = from_total_order_key(key);
                    order[k] = r;
                    rank[r as usize] = k as u32;
                }
            }
        });
        Self { n_rows: n, n_features: p, values, order, rank }
    }

    /// The value of row `r` in column `f`.
    fn value(&self, f: usize, r: u32) -> f64 {
        let base = f * self.n_rows;
        self.values[base + self.rank[base + r as usize] as usize]
    }
}

impl fmt::Debug for Presorted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Presorted")
            .field("n_rows", &self.n_rows)
            .field("n_features", &self.n_features)
            .finish_non_exhaustive()
    }
}

/// Per-fit buffers: node membership marks (a row belongs to the node
/// being split iff its mark equals `stamp`), a sort buffer, the
/// left/right class counts of the scan, and the left counts of its
/// deferred boundary.
struct Scratch {
    mark: Vec<u32>,
    stamp: u32,
    positions: Vec<u32>,
    left: Vec<f64>,
    right: Vec<f64>,
    deferred: Vec<f64>,
}

impl Scratch {
    fn new(n_rows: usize, n_classes: usize) -> Self {
        Self {
            mark: vec![0; n_rows],
            stamp: 0,
            positions: Vec::new(),
            left: vec![0.0; n_classes],
            right: vec![0.0; n_classes],
            deferred: vec![0.0; n_classes],
        }
    }
}

/// The threshold scan of one node (its class counts and copy count),
/// carrying the best split so far across its candidate features.
struct Scan<'a> {
    tree: &'a DecisionTree,
    counts: &'a [f64],
    total: f64,
    parent_impurity: f64,
    left: &'a mut [f64],
    right: &'a mut [f64],
    /// The left counts at the deferred boundary.
    deferred: &'a mut [f64],
    best: Option<(usize, f64, f64)>,
}

/// A boundary held back until the value group after it ends: the last
/// value left of it, the first value right of it, the copies left of
/// it, and the one class of the group before it.
struct Deferred {
    p: f64,
    v: f64,
    n_left: f64,
    class: usize,
}

/// A value group of the scan: its last value (±0.0 share a group, and
/// the last is the threshold's `p`), its class while all its rows share
/// one, and the copies left of the boundary before it (`None` for the
/// first group).
#[derive(Clone, Copy)]
struct Group {
    last: f64,
    class: Option<usize>,
    before: Option<f64>,
}

impl Scan<'_> {
    /// Scans feature `f` given the node's `(value, class, copies)` in
    /// `total_cmp` value order. A candidate threshold lies between each
    /// pair of non-NaN neighbours that compare unequal, and above the
    /// largest value when the node holds NaN rows, so how equal values
    /// are ordered among themselves cannot change which thresholds are
    /// evaluated, nor the counts on either side of them. A boundary
    /// inside a run of one-class value groups is skipped (see the
    /// module docs); every other one is scored in value order.
    fn feature(&mut self, f: usize, sorted: impl Iterator<Item = (f64, usize, f64)>) {
        self.left.iter_mut().for_each(|c| *c = 0.0);
        let mut n_left = 0.0f64;
        let mut group: Option<Group> = None;
        let mut deferred: Option<Deferred> = None;
        for (v, c, w) in sorted.filter(|&(v, _, _)| !v.is_nan()) {
            match &mut group {
                Some(g) if g.last == v => {
                    g.last = v;
                    if g.class != Some(c) {
                        g.class = None;
                    }
                }
                Some(g) => {
                    self.group_ends(f, *g, v, n_left, &mut deferred);
                    *g = Group { last: v, class: Some(c), before: Some(n_left) };
                }
                None => group = Some(Group { last: v, class: Some(c), before: None }),
            }
            self.left[c] += w;
            n_left += w;
        }
        if let Some(d) = deferred {
            self.boundary(f, d.p, d.v, d.n_left, true);
        }
        if let Some(g) = group.filter(|_| n_left < self.total) {
            self.boundary(f, g.last, f64::NAN, n_left, false);
        }
    }

    /// Handles the end of the value group `g`, followed by the non-NaN
    /// value `v`, with `n_left` copies up to and including `g`. First
    /// settles the boundary before the group if it was deferred: it is
    /// skipped iff the group holds only the deferred boundary's class
    /// and the boundary after the group sends at least
    /// `min_samples_leaf` copies right. Then scores the boundary after
    /// the group, or defers it when the group holds one class and the
    /// boundary before it is a valid split.
    fn group_ends(
        &mut self,
        f: usize,
        g: Group,
        v: f64,
        n_left: f64,
        deferred: &mut Option<Deferred>,
    ) {
        let min_leaf = self.tree.params.min_samples_leaf;
        if let Some(d) = deferred.take() {
            let run_goes_on =
                g.class == Some(d.class) && (self.total - n_left) as usize >= min_leaf;
            if !run_goes_on {
                self.boundary(f, d.p, d.v, d.n_left, true);
            }
        }
        match g.class {
            Some(class) if g.before.is_some_and(|b| b as usize >= min_leaf) => {
                self.deferred.copy_from_slice(self.left);
                *deferred = Some(Deferred { p: g.last, v, n_left, class });
            }
            _ => self.boundary(f, g.last, v, n_left, false),
        }
    }

    /// Scores the split that sends the `n_left` copies valued at most
    /// `p` left and the rest (`v` and up, and NaN) right, at threshold
    /// `(p + v) / 2`, or `p` where that is not in `[p, v)`. The left
    /// class counts are the deferred boundary's if `deferred` is set,
    /// else the scan's current ones.
    fn boundary(&mut self, f: usize, p: f64, v: f64, n_left: f64, deferred: bool) {
        let (counts, total) = (self.counts, self.total);
        let criterion = self.tree.params.criterion;
        let min_leaf = self.tree.params.min_samples_leaf;
        let n_right = total - n_left;
        if (n_left as usize) < min_leaf || (n_right as usize) < min_leaf {
            return;
        }
        let left: &[f64] = if deferred { self.deferred } else { self.left };
        let left_imp = criterion.impurity(left, n_left);
        for ((r, &t), &l) in self.right.iter_mut().zip(counts).zip(left) {
            *r = t - l;
        }
        let right_imp = criterion.impurity(self.right, n_right);
        let weighted = (n_left * left_imp + n_right * right_imp) / total;
        let gain = self.parent_impurity - weighted;
        // Zero-gain splits are still taken on impure nodes (as in
        // scikit-learn): greedy CART cannot learn XOR-like patterns
        // otherwise. Recursion terminates because both children are
        // strictly smaller.
        if gain > -1e-12 && self.best.is_none_or(|(_, _, g)| gain > g) {
            let mid = (p + v) / 2.0;
            self.best = Some((f, if p <= mid && mid < v { mid } else { p }, gain));
        }
    }
}

/// Moves the rows satisfying `goes_left` to the front of `rows` and
/// returns how many there are.
fn partition(rows: &mut [u32], goes_left: impl Fn(u32) -> bool) -> usize {
    let mut n_left = 0;
    for i in 0..rows.len() {
        if goes_left(rows[i]) {
            rows.swap(i, n_left);
            n_left += 1;
        }
    }
    n_left
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        self.fit_presorted(&Presorted::new(x), y, n_classes, &vec![1.0; x.rows()]);
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

/// The gather-and-sort CART that every fit ran before presorting, kept
/// as the reference the presorted path must reproduce bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{DecisionTree, Node, TreeParams};
    use alba_data::Matrix;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    impl DecisionTree {
        /// Fits by gathering `(value, class)` for every candidate feature
        /// at every node, one entry per row of `x` (a bootstrap sample is
        /// passed as its copied rows), and sorting them.
        pub(crate) fn fit_gather_sort(
            params: TreeParams,
            x: &Matrix,
            y: &[usize],
            n_classes: usize,
        ) -> Self {
            let mut tree = DecisionTree::new(params);
            tree.n_classes = n_classes;
            let mut rng = StdRng::seed_from_u64(tree.params.seed);
            let n_features = x.cols();
            let k_features = tree.params.max_features.resolve(n_features);
            let mut all_features: Vec<usize> = (0..n_features).collect();
            let mut scratch: Vec<(f64, usize)> = Vec::new();

            let root_idx: Vec<usize> = (0..x.rows()).collect();
            tree.nodes.push(Node::Leaf { dist: vec![] });
            let mut stack: Vec<(u32, Vec<usize>, usize)> = vec![(0, root_idx, 0)];
            while let Some((slot, idx, depth)) = stack.pop() {
                let mut counts = vec![0.0f64; n_classes];
                for &i in &idx {
                    counts[y[i]] += 1.0;
                }
                let depth_ok = tree.params.max_depth.is_none_or(|d| depth < d);
                let size_ok = idx.len() >= tree.params.min_samples_split;
                let split = if depth_ok && size_ok {
                    let features: &[usize] = if k_features == n_features {
                        &all_features
                    } else {
                        all_features.shuffle(&mut rng);
                        &all_features[..k_features]
                    };
                    tree.best_split_gather_sort(x, y, &idx, &counts, features, &mut scratch)
                } else {
                    None
                };
                match split {
                    Some((feature, threshold, _gain)) => {
                        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                            idx.into_iter().partition(|&i| x.get(i, feature) <= threshold);
                        let left = tree.nodes.len() as u32;
                        tree.nodes.push(Node::Leaf { dist: vec![] });
                        let right = tree.nodes.len() as u32;
                        tree.nodes.push(Node::Leaf { dist: vec![] });
                        tree.nodes[slot as usize] = Node::Split { feature, threshold, left, right };
                        stack.push((left, left_idx, depth + 1));
                        stack.push((right, right_idx, depth + 1));
                    }
                    None => {
                        tree.nodes[slot as usize] = tree.leaf_dist(&counts);
                    }
                }
            }
            tree
        }

        fn best_split_gather_sort(
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
                // NaN rows are never `<=` a threshold: they stay right.
                scratch.clear();
                scratch
                    .extend(idx.iter().map(|&i| (x.get(i, f), y[i])).filter(|&(v, _)| !v.is_nan()));
                scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
                left_counts.iter_mut().for_each(|c| *c = 0.0);
                let mut n_left = 0.0f64;
                for w in 0..scratch.len() {
                    let (v, c) = scratch[w];
                    left_counts[c] += 1.0;
                    n_left += 1.0;
                    // Past the largest value come the NaN rows, if any.
                    let next_v = scratch.get(w + 1).map_or(f64::NAN, |e| e.0);
                    if v == next_v || n_left == total {
                        continue; // only between distinct values, rows on both sides
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
                    if gain > -1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                        let mid = (v + next_v) / 2.0;
                        let threshold = if v <= mid && mid < next_v { mid } else { v };
                        best = Some((f, threshold, gain));
                    }
                }
            }
            best
        }
    }

    /// Panics unless `got` and `want` have the same nodes: the same
    /// features and children, and `to_bits`-equal thresholds and leaf
    /// distributions.
    pub(crate) fn assert_same_tree(got: &DecisionTree, want: &DecisionTree, case: &str) {
        assert_eq!(got.n_classes, want.n_classes, "{case}: class count");
        assert_eq!(got.nodes.len(), want.nodes.len(), "{case}: node count");
        for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            match (g, w) {
                (Node::Leaf { dist: a }, Node::Leaf { dist: b }) => {
                    let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{case}: leaf {i} distribution");
                }
                (
                    Node::Split { feature: fa, threshold: ta, left: la, right: ra },
                    Node::Split { feature: fb, threshold: tb, left: lb, right: rb },
                ) => {
                    assert_eq!((fa, la, ra), (fb, lb, rb), "{case}: split {i}");
                    assert_eq!(ta.to_bits(), tb.to_bits(), "{case}: split {i} threshold");
                }
                _ => panic!("{case}: node {i} is a leaf on one side only"),
            }
        }
    }

    /// Deterministic test data: `n` rows of `p` features over `k`
    /// classes, with the awkward cells `shape` asks for.
    pub(crate) fn awkward_data(n: usize, p: usize, k: usize, shape: Shape) -> (Matrix, Vec<usize>) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (n * 31 + p * 7 + k) as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut x = Matrix::zeros(n, p);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            // A class-runs row sits on one of 40 levels; each band of 4
            // adjacent levels holds one class, except for 1 row in 8.
            let level = shape.class_runs.then(|| next() % 40);
            let class = match level {
                Some(l) if next() % 8 != 0 => (l / 4 % k as u64) as usize,
                _ if shape.single_class => 0,
                _ => (next() % k as u64) as usize,
            };
            y.push(class);
            for f in 0..p {
                let noise = (next() % 1000) as f64 / 1000.0;
                let mut v = match level {
                    Some(l) if f % 2 == 0 => l as f64 / 40.0,
                    Some(l) => (l * 7 % 40) as f64 / 40.0,
                    None if f % 2 == 0 => class as f64 * 0.3 + noise,
                    None => noise,
                };
                if shape.ties {
                    v = (v * 4.0).round() / 4.0;
                }
                if shape.signed_zeros && next() % 4 == 0 {
                    v = if next() % 2 == 0 { 0.0 } else { -0.0 };
                }
                if shape.extremes && next() % 5 == 0 {
                    v = EXTREMES[(next() % EXTREMES.len() as u64) as usize];
                }
                if shape.nan && next() % 9 == 0 {
                    v = if next() % 2 == 0 { f64::NAN } else { -f64::NAN };
                }
                if shape.constant_columns && f % 3 == 2 {
                    v = 1.5;
                }
                x.set(r, f, v);
            }
        }
        if shape.duplicates {
            for r in (0..n).step_by(3).skip(1) {
                let row = x.row(r - 1).to_vec();
                x.row_mut(r).copy_from_slice(&row);
                y[r] = y[r - 1];
            }
        }
        (x, y)
    }

    /// Cells whose neighbours' midpoint is not between them: it
    /// overflows to ±inf, is NaN (`-inf + inf`), or rounds onto the
    /// larger of two adjacent floats.
    const EXTREMES: [f64; 9] = [
        f64::NEG_INFINITY,
        f64::INFINITY,
        -f64::MAX,
        -0.75 * f64::MAX,
        0.75 * f64::MAX,
        f64::MAX,
        1.0,
        1.0 + f64::EPSILON,
        1.0 + 2.0 * f64::EPSILON,
    ];

    /// Which awkward cells `awkward_data` plants.
    #[derive(Clone, Copy, Debug, Default)]
    pub(crate) struct Shape {
        pub ties: bool,
        pub duplicates: bool,
        pub signed_zeros: bool,
        pub extremes: bool,
        pub nan: bool,
        pub constant_columns: bool,
        pub single_class: bool,
        pub class_runs: bool,
    }

    /// The shapes every differential test runs over.
    pub(crate) fn shapes() -> Vec<(&'static str, Shape)> {
        let d = Shape::default();
        vec![
            ("continuous", d),
            ("ties", Shape { ties: true, ..d }),
            ("duplicates", Shape { duplicates: true, ties: true, ..d }),
            ("signed zeros", Shape { signed_zeros: true, ..d }),
            ("constant columns", Shape { constant_columns: true, ..d }),
            ("single class", Shape { single_class: true, ..d }),
            ("nan", Shape { nan: true, ..d }),
            ("nan with ties and zeros", Shape { nan: true, ties: true, signed_zeros: true, ..d }),
            ("extremes", Shape { extremes: true, ..d }),
            ("extremes with nan", Shape { extremes: true, nan: true, ..d }),
            ("class runs", Shape { class_runs: true, ..d }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{assert_same_tree, awkward_data, shapes, Shape};
    use super::*;

    /// How many rows of `x` reach each split node; panics unless every
    /// split sends some of them each way.
    fn split_sizes(tree: &DecisionTree, x: &Matrix, case: &str) -> Vec<usize> {
        let mut reached = vec![0usize; tree.nodes.len()];
        for row in x.rows_iter() {
            let mut node = 0u32;
            reached[0] += 1;
            while let Node::Split { feature, threshold, left, right } = &tree.nodes[node as usize] {
                node = if row[*feature] <= *threshold { *left } else { *right };
                reached[node as usize] += 1;
            }
        }
        let mut sizes = Vec::new();
        for (i, node) in tree.nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = node {
                let sides = (reached[*left as usize], reached[*right as usize]);
                assert!(sides.0 > 0 && sides.1 > 0, "{case}: split {i} sends {sides:?} rows");
                sizes.push(reached[i]);
            }
        }
        sizes
    }

    /// The presorted fit grows exactly the gather-and-sort reference's
    /// tree over every criterion, feature-subsetting rule, depth limit
    /// and leaf minimum, on data with ties, duplicate rows, ±0.0 mixes,
    /// NaN of both signs, ±inf, ±MAX, adjacent floats, constant columns
    /// and a single class; every split sends rows both ways.
    #[test]
    fn presorted_fit_matches_gather_sort_reference() {
        let mut crossed = (false, false);
        for (name, shape) in shapes() {
            for n in [3usize, 40, 400] {
                let (x, y) = awkward_data(n, 6, 3, shape);
                for criterion in [Criterion::Gini, Criterion::Entropy] {
                    for max_features in [MaxFeatures::All, MaxFeatures::Sqrt, MaxFeatures::Count(2)]
                    {
                        for min_samples_leaf in [1, 2] {
                            for max_depth in [None, Some(3)] {
                                for seed in [0, 5] {
                                    let params = TreeParams {
                                        max_depth,
                                        criterion,
                                        min_samples_leaf,
                                        max_features,
                                        seed,
                                        ..TreeParams::default()
                                    };
                                    let case = format!("{name}, {n} rows, {params:?}");
                                    let mut got = DecisionTree::new(params);
                                    got.fit(&x, &y, 3);
                                    let want = DecisionTree::fit_gather_sort(params, &x, &y, 3);
                                    assert_same_tree(&got, &want, &case);
                                    for m in split_sizes(&want, &x, &case) {
                                        if m * WALK_SHARE >= n {
                                            crossed.0 = true;
                                        } else {
                                            crossed.1 = true;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(crossed, (true, true), "splits must run on both sides of the crossover");
    }

    /// Panics unless two tables hold the same `to_bits` values, rows
    /// and positions.
    fn assert_same_table(got: &Presorted, want: &Presorted, case: &str) {
        assert_eq!((got.n_rows, got.n_features), (want.n_rows, want.n_features), "{case}: shape");
        let bits = |t: &Presorted| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{case}: values");
        assert_eq!(got.order, want.order, "{case}: order");
        assert_eq!(got.rank, want.rank, "{case}: rank");
    }

    /// Merging 0, 1, 6 or 200 appended rows (ties with old values, ±0.0
    /// and NaN of both signs among them) into a table, at once or one
    /// growth after another, gives exactly the table of the grown matrix.
    #[test]
    fn merged_table_matches_a_fresh_presort() {
        for (name, shape) in shapes() {
            for n in [3usize, 40] {
                let (x, _) = awkward_data(n, 6, 3, shape);
                let (extra, _) = awkward_data(200, 6, 3, Shape { nan: true, ..shape });
                let mut grown = x.clone();
                for i in 0..200 {
                    let row: Vec<f64> = (0..6)
                        .map(|f| match (i + f) % 6 {
                            0 => x.get(i * 7 % n, f),
                            1 => 0.0,
                            2 => -0.0,
                            3 => f64::NAN,
                            4 => -f64::NAN,
                            _ => extra.get(i, f),
                        })
                        .collect();
                    grown.push_row(&row);
                }
                let mut chained = Presorted::new(&x);
                for m in [0usize, 1, 6, 200] {
                    let case = format!("{name}, {n} rows + {m}");
                    let prefix = grown.select_rows(&(0..n + m).collect::<Vec<_>>());
                    let want = Presorted::new(&prefix);
                    let mut once = Presorted::new(&x);
                    once.merge(&prefix);
                    assert_same_table(&once, &want, &case);
                    chained.merge(&prefix);
                    assert_same_table(&chained, &want, &format!("{case}, chained"));
                }
            }
        }
    }

    /// Two splits of equal gain where the first was deferred (it ends a
    /// one-class group after a valid boundary): the scan still scores it
    /// first, so it wins as it does in the reference.
    #[test]
    fn deferred_boundary_keeps_the_first_maximum() {
        let x = Matrix::from_rows(&[1.0, 2.0, 3.0, 3.0, 4.0, 5.0].map(|v| vec![v]));
        let y = vec![0, 0, 0, 1, 1, 1];
        for criterion in [Criterion::Gini, Criterion::Entropy] {
            let params = TreeParams { criterion, max_depth: Some(1), ..TreeParams::default() };
            let mut got = DecisionTree::new(params);
            got.fit(&x, &y, 2);
            let want = DecisionTree::fit_gather_sort(params, &x, &y, 2);
            assert_same_tree(&got, &want, &format!("{criterion:?}"));
            assert!(
                matches!(got.nodes[0], Node::Split { threshold: 2.5, .. }),
                "{criterion:?}: the first of the tied splits wins"
            );
        }
    }

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

    /// Columns where a midpoint is not between its neighbours (NaN of
    /// either sign, +inf, sums that overflow to ±inf, adjacent floats)
    /// grow a tree that ends without a depth limit, sends rows both ways
    /// at every split, and predicts its training labels.
    #[test]
    fn every_split_separates_rows_on_awkward_columns() {
        let big = 0.75 * f64::MAX;
        let columns = [
            [0.0, 1.0, f64::NAN],
            [0.0, 1.0, -f64::NAN],
            [0.0, 1.0, f64::INFINITY],
            [0.0, big, f64::MAX],
            [0.0, -big, -f64::MAX],
            [0.0, 1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON],
        ];
        for column in columns {
            let x = Matrix::from_rows(&column.map(|v| vec![v]));
            let y = vec![0, 0, 1];
            let params = TreeParams {
                max_depth: None,
                max_features: MaxFeatures::All,
                ..TreeParams::default()
            };
            let mut t = DecisionTree::new(params);
            t.fit(&x, &y, 2);
            let case = format!("{column:?}");
            split_sizes(&t, &x, &case);
            assert_eq!(t.predict(&x), y, "{case}");
        }
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
