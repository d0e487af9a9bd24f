//! A transparent timing wrapper around any [`Classifier`].
//!
//! [`Timed`] forwards every call to the wrapped model while recording
//! fit and predict wall time into the process-wide
//! [`alba_obs::global()`] registry as `model_fit_ns{model=...}` /
//! `model_predict_ns{model=...}` histograms. When no global registry
//! is installed the spans are no-ops, so wrapping is free in
//! unobserved runs. [`ModelSpec::build`](crate::ModelSpec::build)
//! wraps every classifier it constructs, which is how experiment
//! harnesses get per-family timing without touching the model code.

use crate::model::Classifier;
use alba_data::Matrix;

/// Wraps a classifier, timing `fit` and `predict_proba` through the
/// global obs registry under the given model label.
#[derive(Clone, Debug)]
pub struct Timed<C> {
    inner: C,
    label: &'static str,
}

impl<C: Classifier> Timed<C> {
    /// Wraps `inner`, labelling its metrics with `label` (e.g. `"RF"`).
    pub fn new(inner: C, label: &'static str) -> Self {
        Self { inner, label }
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the classifier.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Classifier> Classifier for Timed<C> {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        let _span = alba_obs::global().span("model_fit_ns", &[("model", self.label)]);
        self.inner.fit(x, y, n_classes);
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let _span = alba_obs::global().span("model_predict_ns", &[("model", self.label)]);
        self.inner.predict_proba(x)
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestParams, RandomForest};

    #[test]
    fn timed_wrapper_is_transparent_and_records() {
        let obs = alba_obs::Obs::wall();
        alba_obs::set_global(obs.clone());

        let x =
            Matrix::from_rows(&[vec![0.0, 0.1], vec![0.1, 0.0], vec![1.0, 0.9], vec![0.9, 1.0]]);
        let y = vec![0, 0, 1, 1];
        let params = ForestParams { n_estimators: 3, ..ForestParams::default() };
        // A label no other (concurrently running) test uses, so the
        // global registry's counts are exactly this test's.
        let mut plain = RandomForest::new(params);
        let mut timed = Timed::new(RandomForest::new(params), "timed-test");
        plain.fit(&x, &y, 2);
        timed.fit(&x, &y, 2);

        // Identical results — the wrapper changes nothing but metrics.
        assert_eq!(timed.predict(&x), plain.predict(&x));
        assert_eq!(timed.n_classes(), 2);

        let fits = obs.histogram("model_fit_ns", &[("model", "timed-test")]).snapshot().unwrap();
        assert_eq!(fits.count, 1);
        let preds =
            obs.histogram("model_predict_ns", &[("model", "timed-test")]).snapshot().unwrap();
        assert!(preds.count >= 1);
        alba_obs::clear_global();
    }
}
