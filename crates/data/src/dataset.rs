//! Labeled feature datasets with per-sample provenance.
//!
//! A *sample* — exactly as in the paper — is the telemetry collected on one
//! compute node during one application run, reduced to a feature vector.
//! Besides the feature matrix and encoded class label, every sample carries
//! [`SampleMeta`] provenance (application, input deck, run, node) because the
//! robustness experiments (Figs. 6–8) slice datasets by application and by
//! input deck, and the drill-down analysis (Fig. 4) groups queried samples by
//! application and label.

use crate::labels::LabelEncoder;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Provenance of one sample (one node of one application run).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Application name, e.g. `"Kripke"` or `"LAMMPS"`.
    pub app: String,
    /// Input deck index (0-based; the paper uses three decks per app).
    pub input_deck: usize,
    /// Identifier of the job run this node participated in.
    pub run_id: usize,
    /// Node index within the allocation (anomalies are injected on node 0).
    pub node: usize,
    /// Total nodes in the allocation.
    pub node_count: usize,
    /// Injected anomaly intensity in percent (0 for healthy samples).
    pub intensity_pct: u32,
}

impl SampleMeta {
    /// Compact human-readable provenance string (used in reports).
    pub fn describe(&self) -> String {
        format!(
            "{} deck{} run{} node{}/{} int{}%",
            self.app, self.input_deck, self.run_id, self.node, self.node_count, self.intensity_pct
        )
    }
}

/// A labeled dataset: feature matrix, encoded labels, class names and
/// per-sample provenance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, one row per sample.
    pub x: Matrix,
    /// Encoded class label per sample (index into `encoder`).
    pub y: Vec<usize>,
    /// Label encoder mapping class indices to class names.
    pub encoder: LabelEncoder,
    /// Per-sample provenance, parallel to the rows of `x`.
    pub meta: Vec<SampleMeta>,
    /// Feature names, parallel to the columns of `x`.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Builds a dataset, validating that all parallel structures agree.
    ///
    /// # Panics
    /// Panics when lengths are inconsistent or a label index is out of range.
    pub fn new(
        x: Matrix,
        y: Vec<usize>,
        encoder: LabelEncoder,
        meta: Vec<SampleMeta>,
        feature_names: Vec<String>,
    ) -> Self {
        assert_eq!(x.rows(), y.len(), "labels do not match rows");
        assert_eq!(x.rows(), meta.len(), "meta does not match rows");
        assert_eq!(x.cols(), feature_names.len(), "feature names do not match cols");
        assert!(
            y.iter().all(|&c| c < encoder.len()),
            "label index out of range for encoder with {} classes",
            encoder.len()
        );
        Self { x, y, encoder, meta, feature_names }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of classes known to the encoder.
    pub fn n_classes(&self) -> usize {
        self.encoder.len()
    }

    /// Returns a new dataset restricted to the samples listed in `idx`
    /// (order preserved, duplicates allowed).
    pub fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            encoder: self.encoder.clone(),
            meta: idx.iter().map(|&i| self.meta[i].clone()).collect(),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Returns the indices of samples satisfying `pred`.
    pub fn indices_where(&self, pred: impl Fn(&SampleMeta, usize) -> bool) -> Vec<usize> {
        (0..self.len()).filter(|&i| pred(&self.meta[i], self.y[i])).collect()
    }

    /// Returns a new dataset with only the listed feature columns.
    pub fn select_features(&self, cols: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_cols(cols),
            y: self.y.clone(),
            encoder: self.encoder.clone(),
            meta: self.meta.clone(),
            feature_names: cols.iter().map(|&c| self.feature_names[c].clone()).collect(),
        }
    }

    /// Returns the samples listed in `rows` (order preserved) with only
    /// the feature columns `cols`: [`Dataset::select`] then
    /// [`Dataset::select_features`], without the full-width copy.
    pub fn gather(&self, rows: &[usize], cols: &[usize]) -> Dataset {
        Dataset {
            x: self.x.gather(rows, cols),
            y: rows.iter().map(|&i| self.y[i]).collect(),
            encoder: self.encoder.clone(),
            meta: rows.iter().map(|&i| self.meta[i].clone()).collect(),
            feature_names: cols.iter().map(|&c| self.feature_names[c].clone()).collect(),
        }
    }

    /// Concatenates two datasets with identical schema.
    ///
    /// # Panics
    /// Panics when feature names or encoders differ.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.feature_names, other.feature_names, "schema mismatch");
        assert_eq!(self.encoder, other.encoder, "encoder mismatch");
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        let mut meta = self.meta.clone();
        meta.extend_from_slice(&other.meta);
        Dataset {
            x: self.x.vstack(&other.x),
            y,
            encoder: self.encoder.clone(),
            meta,
            feature_names: self.feature_names.clone(),
        }
    }

    /// Per-class sample counts, indexed by class id.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &c in &self.y {
            counts[c] += 1;
        }
        counts
    }

    /// Sorted list of distinct application names present in the dataset.
    pub fn applications(&self) -> Vec<String> {
        let mut apps: Vec<String> = self.meta.iter().map(|m| m.app.clone()).collect();
        apps.sort();
        apps.dedup();
        apps
    }

    /// Fraction of samples whose label is not the given healthy class.
    pub fn anomaly_ratio(&self, healthy_class: usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let anomalous = self.y.iter().filter(|&&c| c != healthy_class).count();
        anomalous as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(app: &str, deck: usize) -> SampleMeta {
        SampleMeta {
            app: app.to_string(),
            input_deck: deck,
            run_id: 0,
            node: 0,
            node_count: 4,
            intensity_pct: 0,
        }
    }

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]]);
        let encoder = LabelEncoder::from_names(&["healthy", "memleak"]);
        Dataset::new(
            x,
            vec![0, 1, 0],
            encoder,
            vec![meta("bt", 0), meta("cg", 1), meta("bt", 2)],
            vec!["f0".into(), "f1".into()],
        )
    }

    #[test]
    fn select_preserves_parallel_structures() {
        let d = toy();
        let s = d.select(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.y, vec![0, 0]);
        assert_eq!(s.meta[0].input_deck, 2);
        assert_eq!(s.x.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn select_features_renames() {
        let d = toy();
        let s = d.select_features(&[1]);
        assert_eq!(s.feature_names, vec!["f1".to_string()]);
        assert_eq!(s.x.column(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn concat_appends() {
        let d = toy();
        let c = d.concat(&d);
        assert_eq!(c.len(), 6);
        assert_eq!(c.y[3..], d.y[..]);
    }

    #[test]
    fn class_counts_and_anomaly_ratio() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 1]);
        assert!((d.anomaly_ratio(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn applications_are_sorted_unique() {
        let d = toy();
        assert_eq!(d.applications(), vec!["bt".to_string(), "cg".to_string()]);
    }

    #[test]
    #[should_panic(expected = "labels do not match rows")]
    fn new_validates_lengths() {
        let x = Matrix::zeros(2, 1);
        let encoder = LabelEncoder::from_names(&["a"]);
        let _ = Dataset::new(x, vec![0], encoder, vec![], vec!["f".into()]);
    }

    #[test]
    fn indices_where_filters_by_meta_and_label() {
        let d = toy();
        let idx = d.indices_where(|m, y| m.app == "bt" && y == 0);
        assert_eq!(idx, vec![0, 2]);
    }
}
