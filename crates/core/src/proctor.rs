//! The Proctor baseline (Aksar et al., ISC 2021; paper Sec. IV-D/IV-E.3).
//!
//! Proctor is an autoencoder-based semi-supervised diagnosis framework: a
//! deep autoencoder learns the structure of (mostly unlabeled) telemetry
//! features, and a supervised classifier — logistic regression in the
//! paper's configuration — is trained on the code-layer representation of
//! the labeled samples. As a baseline in the active-learning comparison,
//! Proctor receives *randomly* queried labels each iteration and re-trains
//! its supervised head ("the randomly selected labeled samples do not bring
//! extra information", which is why its curve stays flat).

use alba_active::{QueryRecord, SessionResult, Strategy};
use alba_data::{Dataset, Matrix};
use alba_ml::{
    Autoencoder, AutoencoderParams, Classifier, LogRegParams, LogisticRegression, Scores,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Proctor configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProctorConfig {
    /// Autoencoder topology/training (use [`AutoencoderParams::paper`] for
    /// the 2000-neuron code layer of the original).
    pub autoencoder: AutoencoderParams,
    /// Supervised head hyperparameters.
    pub head: LogRegParams,
    /// Query budget (random queries, to match the AL comparison).
    pub budget: usize,
    /// Seed.
    pub seed: u64,
}

impl ProctorConfig {
    /// Reduced-scale defaults.
    pub fn reduced(budget: usize, seed: u64) -> Self {
        Self {
            autoencoder: AutoencoderParams::reduced(),
            head: LogRegParams::default(),
            budget,
            seed,
        }
    }
}

/// A fitted Proctor model (autoencoder + supervised head).
pub struct Proctor {
    ae: Autoencoder,
    head: LogisticRegression,
}

impl Proctor {
    /// Trains the autoencoder on all available feature vectors (labeled +
    /// unlabeled: the semi-supervised step) and the head on the labeled
    /// codes.
    pub fn fit(
        unlabeled_x: &Matrix,
        labeled_x: &Matrix,
        labeled_y: &[usize],
        n_classes: usize,
        cfg: &ProctorConfig,
    ) -> Self {
        let mut ae_params = cfg.autoencoder.clone();
        ae_params.seed = cfg.seed;
        let mut ae = Autoencoder::new(ae_params);
        let all = unlabeled_x.vstack(labeled_x);
        ae.fit(&all);
        let mut head = LogisticRegression::new(cfg.head);
        let codes = ae.encode(labeled_x);
        head.fit(&codes, labeled_y, n_classes);
        Self { ae, head }
    }

    /// Class probabilities for raw feature vectors.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        self.head.predict_proba(&self.ae.encode(x))
    }

    /// Predicted classes for raw feature vectors.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let proba = self.predict_proba(x);
        (0..proba.rows())
            .map(|r| {
                let row = proba.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

/// Runs Proctor through the same query loop as the AL strategies (random
/// queries, head re-trained each iteration), producing a [`SessionResult`]
/// comparable with [`alba_active::run_session`] outputs.
pub fn run_proctor_session(
    seed_set: &Dataset,
    pool: &Dataset,
    test: &Dataset,
    cfg: &ProctorConfig,
) -> SessionResult {
    assert!(!seed_set.is_empty(), "empty seed set");
    let n_classes = seed_set.n_classes();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut labeled_y = seed_set.y.clone();
    let mut remaining: Vec<usize> = (0..pool.len()).collect();

    let model = Proctor::fit(&pool.x, &seed_set.x, &labeled_y, n_classes, cfg);
    // The autoencoder is frozen after the semi-supervised step, so the
    // code-layer representations of every dataset can be cached: only the
    // logistic-regression head is re-trained per query.
    let pool_codes = model.ae.encode(&pool.x);
    let test_codes = model.ae.encode(&test.x);
    let mut labeled_codes = model.ae.encode(&seed_set.x);
    let mut head = model.head;

    let evaluate = |head: &LogisticRegression| -> Scores {
        let proba = head.predict_proba(&test_codes);
        let pred: Vec<usize> = (0..proba.rows())
            .map(|r| {
                let row = proba.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect();
        Scores::compute(&test.y, &pred, n_classes)
    };
    let initial_scores = evaluate(&head);

    let mut records = Vec::with_capacity(cfg.budget);
    for _ in 0..cfg.budget {
        if remaining.is_empty() {
            break;
        }
        let pos = rng.gen_range(0..remaining.len());
        let pool_index = remaining.swap_remove(pos);
        labeled_codes.push_row(pool_codes.row(pool_index));
        labeled_y.push(pool.y[pool_index]);
        head.fit(&labeled_codes, &labeled_y, n_classes);
        records.push(QueryRecord {
            pool_index,
            true_label: pool.y[pool_index],
            app: pool.meta[pool_index].app.clone(),
            scores: evaluate(&head),
        });
    }

    SessionResult { strategy: Strategy::Random, initial_scores, records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_data::{LabelEncoder, SampleMeta};

    fn meta(app: &str) -> SampleMeta {
        SampleMeta {
            app: app.into(),
            input_deck: 0,
            run_id: 0,
            node: 0,
            node_count: 1,
            intensity_pct: 0,
        }
    }

    fn toy(n: usize, offset: usize) -> Dataset {
        let enc = LabelEncoder::from_names(&["healthy", "anom"]);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut metas = Vec::new();
        for i in 0..n {
            let j = i + offset;
            let jit = ((j * 29) % 23) as f64 * 0.01;
            if j.is_multiple_of(2) {
                rows.push(vec![jit, 0.1 + jit, 0.2, jit]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - jit, 0.9, 0.8 - jit, 1.0]);
                y.push(1);
            }
            metas.push(meta("bt"));
        }
        Dataset::new(
            Matrix::from_rows(&rows),
            y,
            enc,
            metas,
            (0..4).map(|i| format!("f{i}")).collect(),
        )
    }

    fn quick_cfg(budget: usize) -> ProctorConfig {
        ProctorConfig {
            autoencoder: AutoencoderParams {
                encoder_widths: vec![8, 4],
                epochs: 40,
                batch_size: 32,
                seed: 0,
            },
            head: LogRegParams::default(),
            budget,
            seed: 5,
        }
    }

    #[test]
    fn proctor_learns_separable_data() {
        let seed = toy(6, 0);
        let pool = toy(40, 100);
        let test = toy(30, 1000);
        let res = run_proctor_session(&seed, &pool, &test, &quick_cfg(5));
        assert_eq!(res.records.len(), 5);
        assert!(res.records.last().unwrap().scores.f1 > 0.9, "{:?}", res.records.last());
    }

    #[test]
    fn proctor_is_deterministic() {
        let seed = toy(6, 0);
        let pool = toy(30, 100);
        let test = toy(20, 1000);
        let a = run_proctor_session(&seed, &pool, &test, &quick_cfg(4));
        let b = run_proctor_session(&seed, &pool, &test, &quick_cfg(4));
        let ai: Vec<usize> = a.records.iter().map(|r| r.pool_index).collect();
        let bi: Vec<usize> = b.records.iter().map(|r| r.pool_index).collect();
        assert_eq!(ai, bi);
        assert_eq!(a.initial_scores, b.initial_scores);
    }

    #[test]
    fn predict_proba_shape() {
        let seed = toy(10, 0);
        let pool = toy(20, 50);
        let cfg = quick_cfg(0);
        let model = Proctor::fit(&pool.x, &seed.x, &seed.y, 2, &cfg);
        let p = model.predict_proba(&pool.x);
        assert_eq!(p.shape(), (20, 2));
        for r in 0..20 {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
