//! Model persistence (paper Sec. III-E: "The final model is stored as a
//! *pickle* object, and for a given sample, it returns the diagnosed
//! anomaly label and its confidence").
//!
//! The Rust equivalent: fitted models serialise to JSON through serde. A
//! [`DiagnosisModel`] bundles the fitted classifier with the class names so
//! a deployment can answer "which anomaly, how confident" for new samples.

use crate::forest::RandomForest;
use crate::gbm::GradientBoosting;
use crate::linear::LogisticRegression;
use crate::mlp::MlpClassifier;
use crate::model::{argmax, Classifier};
use alba_data::Matrix;
use serde::{Deserialize, Serialize};

/// A serialisable fitted classifier (one variant per model family).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum FittedModel {
    /// Random forest.
    Forest(RandomForest),
    /// Gradient boosting.
    Gbm(GradientBoosting),
    /// Logistic regression.
    LogReg(LogisticRegression),
    /// Multi-layer perceptron.
    Mlp(MlpClassifier),
}

impl FittedModel {
    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            FittedModel::Forest(m) => m,
            FittedModel::Gbm(m) => m,
            FittedModel::LogReg(m) => m,
            FittedModel::Mlp(m) => m,
        }
    }

    /// Short family name, used as the `model` label on obs metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            FittedModel::Forest(_) => "RF",
            FittedModel::Gbm(_) => "LGBM",
            FittedModel::LogReg(_) => "LR",
            FittedModel::Mlp(_) => "MLP",
        }
    }
}

/// One diagnosis: label plus the model's confidence in it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Predicted class name (e.g. `"healthy"`, `"memleak"`).
    pub label: String,
    /// Probability assigned to the predicted class.
    pub confidence: f64,
}

/// The deployable artifact: fitted model + class names.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiagnosisModel {
    /// The fitted classifier.
    pub model: FittedModel,
    /// Class names, index-aligned with the model's probability columns.
    pub class_names: Vec<String>,
}

impl DiagnosisModel {
    /// Bundles a fitted model with its class names.
    ///
    /// # Panics
    /// Panics when the class-name count does not match the model.
    pub fn new(model: FittedModel, class_names: Vec<String>) -> Self {
        assert_eq!(
            model.as_classifier().n_classes(),
            class_names.len(),
            "class names must match the fitted model"
        );
        Self { model, class_names }
    }

    /// Full class-probability matrix for every row of `x` (one column per
    /// entry of [`DiagnosisModel::class_names`]). Online consumers — the
    /// fleet service's uncertainty gate, the active-learning strategies —
    /// need the whole distribution, not just the argmax that
    /// [`DiagnosisModel::diagnose`] reports.
    pub fn probabilities(&self, x: &Matrix) -> Matrix {
        let _span = alba_obs::global().span("model_predict_ns", &[("model", self.model.kind())]);
        self.model.as_classifier().predict_proba(x)
    }

    /// Diagnoses every row of `x`: the predicted anomaly label and its
    /// confidence (Sec. III-E's deployment interface).
    pub fn diagnose(&self, x: &Matrix) -> Vec<Diagnosis> {
        let proba = self.probabilities(x);
        (0..proba.rows())
            .map(|r| {
                let row = proba.row(r);
                let best = argmax(row);
                Diagnosis { label: self.class_names[best].clone(), confidence: row[best] }
            })
            .collect()
    }

    /// Serialises to JSON (the `pickle` stand-in).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("models serialise")
    }

    /// Restores a model from [`DiagnosisModel::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Writes the serialised model to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a model previously written with [`DiagnosisModel::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;
    use crate::linear::LogRegParams;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let jit = ((i * 13) % 17) as f64 * 0.02;
            if i % 2 == 0 {
                rows.push(vec![jit, 0.0]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - jit, 1.0]);
                y.push(1);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn forest_roundtrips_through_json() {
        let (x, y) = blobs();
        let mut f = RandomForest::new(ForestParams { n_estimators: 8, ..ForestParams::default() });
        f.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::Forest(f), vec!["healthy".into(), "memleak".into()]);
        let before = model.diagnose(&x);
        let restored = DiagnosisModel::from_json(&model.to_json()).unwrap();
        let after = restored.diagnose(&x);
        assert_eq!(before, after, "serialisation must preserve behaviour");
    }

    #[test]
    fn gbm_roundtrips_through_json() {
        use crate::gbm::{GbmParams, GradientBoosting};
        let (x, y) = blobs();
        let mut m = GradientBoosting::new(GbmParams { n_estimators: 10, ..GbmParams::default() });
        m.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::Gbm(m), vec!["healthy".into(), "memleak".into()]);
        let before = model.diagnose(&x);
        let restored = DiagnosisModel::from_json(&model.to_json()).unwrap();
        assert_eq!(before, restored.diagnose(&x), "serialisation must preserve behaviour");
    }

    #[test]
    fn logreg_roundtrips_through_json() {
        let (x, y) = blobs();
        let mut m = LogisticRegression::new(LogRegParams::default());
        m.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::LogReg(m), vec!["healthy".into(), "memleak".into()]);
        let before = model.diagnose(&x);
        let restored = DiagnosisModel::from_json(&model.to_json()).unwrap();
        assert_eq!(before, restored.diagnose(&x), "serialisation must preserve behaviour");
    }

    #[test]
    fn mlp_roundtrips_through_json() {
        use crate::mlp::{MlpClassifier, MlpParams};
        let (x, y) = blobs();
        let mut m = MlpClassifier::new(MlpParams {
            hidden_layer_sizes: vec![8],
            max_iter: 60,
            ..MlpParams::default()
        });
        m.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::Mlp(m), vec!["healthy".into(), "memleak".into()]);
        let before = model.diagnose(&x);
        let restored = DiagnosisModel::from_json(&model.to_json()).unwrap();
        assert_eq!(before, restored.diagnose(&x), "serialisation must preserve behaviour");
    }

    #[test]
    fn probabilities_agree_with_diagnose() {
        let (x, y) = blobs();
        let mut f = RandomForest::new(ForestParams { n_estimators: 8, ..ForestParams::default() });
        f.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::Forest(f), vec!["healthy".into(), "memleak".into()]);
        let proba = model.probabilities(&x);
        let diag = model.diagnose(&x);
        assert_eq!(proba.rows(), x.rows());
        assert_eq!(proba.cols(), 2);
        for (r, d) in diag.iter().enumerate() {
            let row = proba.row(r);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(d.confidence, max, "row {r}: confidence is the max probability");
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "row {r} sums to 1");
        }
    }

    #[test]
    fn diagnosis_returns_label_and_confidence() {
        let (x, y) = blobs();
        let mut m = LogisticRegression::new(LogRegParams::default());
        m.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::LogReg(m), vec!["healthy".into(), "memleak".into()]);
        let d = model.diagnose(&x);
        assert_eq!(d.len(), x.rows());
        assert_eq!(d[0].label, "healthy");
        assert_eq!(d[1].label, "memleak");
        for diag in &d {
            assert!((0.0..=1.0).contains(&diag.confidence));
            assert!(diag.confidence >= 0.5, "argmax of 2 classes is >= 0.5");
        }
    }

    #[test]
    fn save_and_load_files() {
        let (x, y) = blobs();
        let mut f = RandomForest::new(ForestParams { n_estimators: 5, ..ForestParams::default() });
        f.fit(&x, &y, 2);
        let model =
            DiagnosisModel::new(FittedModel::Forest(f), vec!["healthy".into(), "dial".into()]);
        let dir = std::env::temp_dir().join("albadross_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let loaded = DiagnosisModel::load(&path).unwrap();
        assert_eq!(model.diagnose(&x), loaded.diagnose(&x));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "class names must match")]
    fn class_name_mismatch_panics() {
        let (x, y) = blobs();
        let mut f = RandomForest::new(ForestParams { n_estimators: 3, ..ForestParams::default() });
        f.fit(&x, &y, 2);
        let _ = DiagnosisModel::new(FittedModel::Forest(f), vec!["only-one".into()]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(DiagnosisModel::from_json("not json").is_err());
    }
}
