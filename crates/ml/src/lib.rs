//! # alba-ml
//!
//! From-scratch ML substrate for the ALBADross reproduction: CART decision
//! trees, bagged random forests, LightGBM-style leaf-wise gradient boosting,
//! multinomial logistic regression, an MLP classifier, a deep autoencoder
//! (for the Proctor baseline), the paper's evaluation metrics, and
//! stratified cross-validation with Table IV grid search.
//!
//! No external ML dependency is used: the Rust ecosystem does not provide
//! the scikit-learn / LightGBM / modAL pipeline the paper builds on, so the
//! substrate is reimplemented here with deterministic seeding throughout.

#![warn(missing_docs)]

pub mod autoencoder;
pub mod cv;
pub mod forest;
pub mod gbm;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod nn;
pub mod persist;
pub mod spec;
pub mod timed;
pub mod tree;

pub use autoencoder::{Autoencoder, AutoencoderParams};
pub use cv::{cross_val_f1, GridResult, GridSearch};
pub use forest::{ForestParams, RandomForest};
pub use gbm::{GbmParams, GradientBoosting};
pub use linear::{LogRegParams, LogisticRegression, Penalty};
pub use metrics::{mean_and_ci95, ConfusionMatrix, Scores};
pub use mlp::{MlpClassifier, MlpParams};
pub use model::{argmax, softmax_row, Classifier};
pub use nn::{Activation, Dense, FeedForward, Optimizer};
pub use persist::{Diagnosis, DiagnosisModel, FittedModel};
pub use spec::{table4_grid, ModelFamily, ModelSpec};
pub use timed::Timed;
pub use tree::{Criterion, DecisionTree, MaxFeatures, Presorted, TreeParams};
