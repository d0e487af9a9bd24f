//! Model specifications and the Table IV hyperparameter search spaces.
//!
//! A [`ModelSpec`] is a cloneable, serialisable description of one model
//! configuration; [`ModelSpec::build`] instantiates a boxed classifier.
//! [`table4_grid`] enumerates exactly the search space of Table IV for each
//! model family.

use crate::forest::{ForestParams, RandomForest};
use crate::gbm::{GbmParams, GradientBoosting};
use crate::linear::{LogRegParams, LogisticRegression, Penalty};
use crate::mlp::{MlpClassifier, MlpParams};
use crate::model::Classifier;
use crate::timed::Timed;
use crate::tree::Criterion;
use serde::{Deserialize, Serialize};

/// The four model families evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Logistic regression.
    Lr,
    /// Random forest.
    Rf,
    /// Light gradient-boosting machine.
    Lgbm,
    /// Multi-layer perceptron.
    Mlp,
}

impl ModelFamily {
    /// Display name as used in Table IV.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Lr => "LR",
            ModelFamily::Rf => "RF",
            ModelFamily::Lgbm => "LGBM",
            ModelFamily::Mlp => "MLP",
        }
    }
}

/// A fully specified model configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Logistic regression.
    LogReg(LogRegParams),
    /// Random forest.
    Forest(ForestParams),
    /// Gradient boosting.
    Gbm(GbmParams),
    /// Multi-layer perceptron.
    Mlp(MlpParams),
}

impl ModelSpec {
    /// Instantiates an unfitted classifier.
    ///
    /// The classifier is wrapped in [`Timed`], so fit and predict times
    /// land in the global obs registry (when one is installed) under `model_fit_ns{model=...}` /
    /// `model_predict_ns{model=...}` with the Table IV family name.
    pub fn build(&self) -> Box<dyn Classifier> {
        let label = self.family().name();
        match self {
            ModelSpec::LogReg(p) => Box::new(Timed::new(LogisticRegression::new(*p), label)),
            ModelSpec::Forest(p) => Box::new(Timed::new(RandomForest::new(*p), label)),
            ModelSpec::Gbm(p) => Box::new(Timed::new(GradientBoosting::new(*p), label)),
            ModelSpec::Mlp(p) => Box::new(Timed::new(MlpClassifier::new(p.clone()), label)),
        }
    }

    /// The family this spec belongs to.
    pub fn family(&self) -> ModelFamily {
        match self {
            ModelSpec::LogReg(_) => ModelFamily::Lr,
            ModelSpec::Forest(_) => ModelFamily::Rf,
            ModelSpec::Gbm(_) => ModelFamily::Lgbm,
            ModelSpec::Mlp(_) => ModelFamily::Mlp,
        }
    }

    /// Returns a copy with the stochastic seed replaced (used to vary
    /// train-test repetitions without changing hyperparameters).
    pub fn with_seed(&self, seed: u64) -> ModelSpec {
        let mut s = self.clone();
        match &mut s {
            ModelSpec::LogReg(_) => {}
            ModelSpec::Forest(p) => p.seed = seed,
            ModelSpec::Gbm(p) => p.seed = seed,
            ModelSpec::Mlp(p) => p.seed = seed,
        }
        s
    }

    /// Human-readable hyperparameter summary (for Table IV style reports).
    pub fn describe(&self) -> String {
        match self {
            ModelSpec::LogReg(p) => format!(
                "LR(penalty={}, C={})",
                match p.penalty {
                    Penalty::L1 => "l1",
                    Penalty::L2 => "l2",
                },
                p.c
            ),
            ModelSpec::Forest(p) => format!(
                "RF(n_estimators={}, max_depth={}, criterion={})",
                p.n_estimators,
                p.max_depth.map_or("None".to_string(), |d| d.to_string()),
                match p.criterion {
                    Criterion::Gini => "gini",
                    Criterion::Entropy => "entropy",
                }
            ),
            ModelSpec::Gbm(p) => format!(
                "LGBM(num_leaves={}, learning_rate={}, max_depth={}, colsample_bytree={})",
                p.num_leaves,
                p.learning_rate,
                p.max_depth.map_or("-1".to_string(), |d| d.to_string()),
                p.colsample_bytree
            ),
            ModelSpec::Mlp(p) => format!(
                "MLP(max_iter={}, hidden_layer_sizes={:?}, alpha={})",
                p.max_iter, p.hidden_layer_sizes, p.alpha
            ),
        }
    }

    /// The paper's tuned configuration for a dataset (Table IV's starred /
    /// crossed entries). `volta = true` selects the `+` entries, otherwise
    /// the `*` (Eclipse) entries.
    pub fn tuned(family: ModelFamily, volta: bool) -> ModelSpec {
        match (family, volta) {
            (ModelFamily::Lr, true) => ModelSpec::LogReg(LogRegParams {
                penalty: Penalty::L1,
                c: 10.0,
                ..LogRegParams::default()
            }),
            (ModelFamily::Lr, false) => ModelSpec::LogReg(LogRegParams {
                penalty: Penalty::L1,
                c: 1.0,
                ..LogRegParams::default()
            }),
            (ModelFamily::Rf, true) => ModelSpec::Forest(ForestParams {
                n_estimators: 20,
                max_depth: Some(8),
                criterion: Criterion::Entropy,
                ..ForestParams::default()
            }),
            (ModelFamily::Rf, false) => ModelSpec::Forest(ForestParams {
                n_estimators: 200,
                max_depth: Some(8),
                criterion: Criterion::Entropy,
                ..ForestParams::default()
            }),
            (ModelFamily::Lgbm, true) => ModelSpec::Gbm(GbmParams {
                num_leaves: 128,
                learning_rate: 0.1,
                max_depth: Some(8),
                colsample_bytree: 1.0,
                ..GbmParams::default()
            }),
            (ModelFamily::Lgbm, false) => ModelSpec::Gbm(GbmParams {
                num_leaves: 31,
                learning_rate: 0.1,
                max_depth: None,
                colsample_bytree: 1.0,
                ..GbmParams::default()
            }),
            (ModelFamily::Mlp, true) => ModelSpec::Mlp(MlpParams {
                max_iter: 100,
                hidden_layer_sizes: vec![100],
                alpha: 0.01,
                ..MlpParams::default()
            }),
            (ModelFamily::Mlp, false) => ModelSpec::Mlp(MlpParams {
                max_iter: 100,
                hidden_layer_sizes: vec![50, 100, 50],
                alpha: 0.0001,
                ..MlpParams::default()
            }),
        }
    }
}

/// Enumerates the exact Table IV hyperparameter grid for one family.
pub fn table4_grid(family: ModelFamily) -> Vec<ModelSpec> {
    match family {
        ModelFamily::Lr => {
            let mut out = Vec::new();
            for penalty in [Penalty::L1, Penalty::L2] {
                for c in [0.001, 0.01, 0.1, 1.0, 10.0] {
                    out.push(ModelSpec::LogReg(LogRegParams {
                        penalty,
                        c,
                        ..LogRegParams::default()
                    }));
                }
            }
            out
        }
        ModelFamily::Rf => {
            let mut out = Vec::new();
            for n_estimators in [8, 10, 20, 100, 200] {
                for max_depth in [None, Some(4), Some(8), Some(10), Some(20)] {
                    for criterion in [Criterion::Gini, Criterion::Entropy] {
                        out.push(ModelSpec::Forest(ForestParams {
                            n_estimators,
                            max_depth,
                            criterion,
                            ..ForestParams::default()
                        }));
                    }
                }
            }
            out
        }
        ModelFamily::Lgbm => {
            let mut out = Vec::new();
            for num_leaves in [2, 8, 31, 128] {
                for learning_rate in [0.01, 0.1, 0.3] {
                    for max_depth in [None, Some(2), Some(8)] {
                        for colsample_bytree in [0.5, 1.0] {
                            out.push(ModelSpec::Gbm(GbmParams {
                                num_leaves,
                                learning_rate,
                                max_depth,
                                colsample_bytree,
                                ..GbmParams::default()
                            }));
                        }
                    }
                }
            }
            out
        }
        ModelFamily::Mlp => {
            let mut out = Vec::new();
            for max_iter in [100, 200, 500, 1000] {
                for hidden in [vec![10, 10, 10], vec![50, 100, 50], vec![100]] {
                    for alpha in [0.0001, 0.001, 0.01] {
                        out.push(ModelSpec::Mlp(MlpParams {
                            max_iter,
                            hidden_layer_sizes: hidden.clone(),
                            alpha,
                            ..MlpParams::default()
                        }));
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_data::Matrix;

    #[test]
    fn grid_sizes_match_table_iv() {
        assert_eq!(table4_grid(ModelFamily::Lr).len(), 2 * 5);
        assert_eq!(table4_grid(ModelFamily::Rf).len(), 5 * 5 * 2);
        assert_eq!(table4_grid(ModelFamily::Lgbm).len(), 4 * 3 * 3 * 2);
        assert_eq!(table4_grid(ModelFamily::Mlp).len(), 4 * 3 * 3);
    }

    #[test]
    fn specs_build_and_fit() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![1.0], vec![1.1]]);
        let y = vec![0, 0, 1, 1];
        for family in [ModelFamily::Lr, ModelFamily::Rf, ModelFamily::Lgbm, ModelFamily::Mlp] {
            let spec = ModelSpec::tuned(family, true);
            assert_eq!(spec.family(), family);
            let mut model = spec.build();
            model.fit(&x, &y, 2);
            let p = model.predict_proba(&x);
            assert_eq!(p.shape(), (4, 2));
        }
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let spec = ModelSpec::tuned(ModelFamily::Rf, true);
        let a = spec.with_seed(1);
        let b = spec.with_seed(2);
        assert_eq!(a.describe(), b.describe());
        if let (ModelSpec::Forest(pa), ModelSpec::Forest(pb)) = (&a, &b) {
            assert_ne!(pa.seed, pb.seed);
        } else {
            panic!("expected forests");
        }
    }

    #[test]
    fn describe_mentions_key_params() {
        let s = ModelSpec::tuned(ModelFamily::Lgbm, false).describe();
        assert!(s.contains("num_leaves=31"), "{s}");
        let s = ModelSpec::tuned(ModelFamily::Lr, true).describe();
        assert!(s.contains("l1") && s.contains("C=10"), "{s}");
    }
}
