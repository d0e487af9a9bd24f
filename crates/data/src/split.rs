//! Stratified splitting and cross-validation folds.
//!
//! The paper repeats its train/test split five times with *stratified
//! sampling* so class proportions match the full dataset (Sec. IV-E.2), and
//! tunes hyperparameters with 5-fold *stratified* cross-validation on the
//! active-learning training dataset only.

use rand::seq::SliceRandom;
use rand::Rng;

/// Groups sample indices by class label.
fn by_class(y: &[usize]) -> Vec<Vec<usize>> {
    let n_classes = y.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups = vec![Vec::new(); n_classes];
    for (i, &c) in y.iter().enumerate() {
        groups[c].push(i);
    }
    groups
}

/// Stratified train/test split.
///
/// Returns `(train_idx, test_idx)` where each class contributes
/// `round(count * train_fraction)` samples to the training side, with at
/// least one sample per side whenever the class has two or more samples.
///
/// # Panics
/// Panics if `train_fraction` is outside `(0, 1)`.
pub fn stratified_split<R: Rng>(
    y: &[usize],
    train_fraction: f64,
    rng: &mut R,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train_fraction must be in (0,1), got {train_fraction}"
    );
    let mut train = Vec::new();
    let mut test = Vec::new();
    for mut members in by_class(y) {
        if members.is_empty() {
            continue;
        }
        members.shuffle(rng);
        let n = members.len();
        let mut n_train = (n as f64 * train_fraction).round() as usize;
        if n >= 2 {
            n_train = n_train.clamp(1, n - 1);
        } else {
            n_train = n_train.min(n);
        }
        train.extend_from_slice(&members[..n_train]);
        test.extend_from_slice(&members[n_train..]);
    }
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

/// Stratified k-fold assignment.
///
/// Returns `k` pairs of `(train_idx, validation_idx)` partitioning the
/// dataset so that each fold's class distribution approximates the global
/// one. Classes with fewer than `k` samples appear in fewer folds'
/// validation sides (mirroring scikit-learn's behaviour of spreading what is
/// available).
///
/// # Panics
/// Panics when `k < 2`.
pub fn stratified_k_fold<R: Rng>(
    y: &[usize],
    k: usize,
    rng: &mut R,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold requires k >= 2, got {k}");
    let mut fold_of = vec![0usize; y.len()];
    for mut members in by_class(y) {
        members.shuffle(rng);
        for (pos, &i) in members.iter().enumerate() {
            fold_of[i] = pos % k;
        }
    }
    (0..k)
        .map(|fold| {
            let mut train = Vec::new();
            let mut valid = Vec::new();
            for (i, &f) in fold_of.iter().enumerate() {
                if f == fold {
                    valid.push(i);
                } else {
                    train.push(i);
                }
            }
            (train, valid)
        })
        .collect()
}

/// Draws `n` indices uniformly at random *with replacement* from `0..len`
/// (bootstrap sampling for bagged ensembles).
pub fn bootstrap_indices<R: Rng>(len: usize, n: usize, rng: &mut R) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..len)).collect()
}

/// Selects, for every `(application, class)` pair present, exactly one
/// sample index — the paper's initial labeled dataset ("one sample for each
/// application and anomaly pair", Sec. III).
///
/// `apps` and `y` are parallel arrays; the chosen sample per pair is random.
pub fn one_per_app_class_pair<R: Rng>(apps: &[&str], y: &[usize], rng: &mut R) -> Vec<usize> {
    assert_eq!(apps.len(), y.len());
    let mut pairs: Vec<(&str, usize, Vec<usize>)> = Vec::new();
    for i in 0..y.len() {
        match pairs.iter_mut().find(|(a, c, _)| *a == apps[i] && *c == y[i]) {
            Some((_, _, v)) => v.push(i),
            None => pairs.push((apps[i], y[i], vec![i])),
        }
    }
    let mut out: Vec<usize> = pairs.iter().map(|(_, _, v)| v[rng.gen_range(0..v.len())]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn stratified_split_preserves_class_ratio() {
        // 60 of class 0, 30 of class 1, 10 of class 2.
        let mut y = vec![0usize; 60];
        y.extend(vec![1usize; 30]);
        y.extend(vec![2usize; 10]);
        let (train, test) = stratified_split(&y, 0.7, &mut rng());
        assert_eq!(train.len() + test.len(), 100);
        let count = |idx: &[usize], c: usize| idx.iter().filter(|&&i| y[i] == c).count();
        assert_eq!(count(&train, 0), 42);
        assert_eq!(count(&train, 1), 21);
        assert_eq!(count(&train, 2), 7);
        // No overlap.
        for i in &train {
            assert!(!test.contains(i));
        }
    }

    #[test]
    fn stratified_split_keeps_one_per_side_for_small_classes() {
        let y = vec![0, 0, 0, 0, 1, 1];
        let (train, test) = stratified_split(&y, 0.9, &mut rng());
        assert!(test.iter().any(|&i| y[i] == 1), "rare class must reach the test side");
        assert!(train.iter().any(|&i| y[i] == 1));
    }

    #[test]
    fn k_fold_partitions_everything_once() {
        let y: Vec<usize> = (0..50).map(|i| i % 3).collect();
        let folds = stratified_k_fold(&y, 5, &mut rng());
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0usize; y.len()];
        for (train, valid) in &folds {
            assert_eq!(train.len() + valid.len(), y.len());
            for &i in valid {
                seen[i] += 1;
            }
            for i in train {
                assert!(!valid.contains(i));
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "each sample validates exactly once");
    }

    #[test]
    fn k_fold_spreads_classes() {
        let y: Vec<usize> = (0..40).map(|i| i % 4).collect();
        for (_, valid) in stratified_k_fold(&y, 5, &mut rng()) {
            for c in 0..4 {
                assert_eq!(valid.iter().filter(|&&i| y[i] == c).count(), 2);
            }
        }
    }

    #[test]
    fn bootstrap_is_in_range_with_replacement() {
        let idx = bootstrap_indices(10, 1000, &mut rng());
        assert_eq!(idx.len(), 1000);
        assert!(idx.iter().all(|&i| i < 10));
        // With 1000 draws from 10 values duplicates are certain.
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() <= 10);
    }

    #[test]
    fn one_per_pair_covers_every_pair() {
        let apps = vec!["bt", "bt", "cg", "cg", "bt", "cg"];
        let y = vec![0, 1, 0, 1, 0, 1];
        let apps_ref: Vec<&str> = apps.clone();
        let chosen = one_per_app_class_pair(&apps_ref, &y, &mut rng());
        assert_eq!(chosen.len(), 4); // 2 apps x 2 classes
        let mut pairs: Vec<(&str, usize)> = chosen.iter().map(|&i| (apps[i], y[i])).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 4);
    }
}
