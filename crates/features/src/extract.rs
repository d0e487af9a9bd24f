//! Dataset-level feature extraction: raw node telemetry in, feature
//! [`Dataset`] out.

use alba_data::{Dataset, LabelEncoder, Matrix};
use alba_telemetry::NodeTelemetry;

use crate::preprocess::{preprocess, PreprocessConfig};

/// A per-metric time-series feature extractor (MVTS, TSFRESH, ...).
///
/// Implementations must be deterministic, produce exactly
/// `n_features_per_metric()` values for *any* input (including empty and
/// constant series), and be safe to call from multiple threads. The
/// values are finite for finite input that does not overflow a kernel
/// (values far from `f64::MAX`). Non-finite input can give NaN or ±inf;
/// every NaN returned is `f64::NAN`, one bit pattern
/// ([`alba_data::canonical_nan`]).
pub trait FeatureExtractor: Sync {
    /// Short identifier (`"mvts"`, `"tsfresh"`).
    fn name(&self) -> &'static str;
    /// Number of features produced per metric.
    fn n_features_per_metric(&self) -> usize;
    /// Fully qualified feature names for one metric.
    fn feature_names(&self, metric: &str) -> Vec<String>;
    /// Appends the features of one metric's series to `out`.
    fn extract(&self, series: &[f64], out: &mut Vec<f64>);

    /// Appends only the features at offsets `wanted` (each `<`
    /// [`FeatureExtractor::n_features_per_metric`]), in the given
    /// order. The result must be **bit-identical** to gathering those
    /// offsets from [`FeatureExtractor::extract`]'s output. `scratch`
    /// holds extractor-private buffers the caller reuses across calls;
    /// their contents on entry are unspecified.
    fn extract_select(
        &self,
        series: &[f64],
        wanted: &[usize],
        scratch: &mut SelectScratch,
        out: &mut Vec<f64>,
    );
}

/// The reusable buffers of [`FeatureExtractor::extract_select`]: sorted
/// copies of the series (or of values derived from it), and the
/// total-order keys they are sorted through
/// ([`alba_data::sort_total`]).
#[derive(Clone, Debug, Default)]
pub struct SelectScratch {
    /// Sorted values.
    pub values: Vec<f64>,
    /// Sort keys.
    pub keys: Vec<u64>,
}

/// Preprocesses every sample and extracts per-metric features, producing a
/// labeled dataset (rows parallel to `samples`).
///
/// `class_names` fixes the label encoding (class 0 must be `healthy` for
/// the false-alarm / miss-rate metrics to be meaningful).
///
/// # Panics
/// Panics when `samples` is empty, when samples disagree on their metric
/// catalog, or when a sample's label is missing from `class_names`.
pub fn extract_features(
    samples: &[NodeTelemetry],
    extractor: &dyn FeatureExtractor,
    pre: &PreprocessConfig,
    class_names: &[String],
) -> Dataset {
    assert!(!samples.is_empty(), "cannot extract features from an empty campaign");
    let encoder = LabelEncoder::from_names(class_names);
    let metric_defs = &samples[0].series.metrics;
    let n_metrics = metric_defs.len();
    let per_metric = extractor.n_features_per_metric();
    let width = n_metrics * per_metric;

    let feature_names: Vec<String> =
        metric_defs.iter().flat_map(|d| extractor.feature_names(&d.name)).collect();

    let rows: Vec<Vec<f64>> = alba_par::map(alba_par::available_cores(), samples, |sample| {
        assert_eq!(
            sample.series.n_metrics(),
            n_metrics,
            "sample {} has a different metric catalog",
            sample.meta.describe()
        );
        let mut series = sample.series.clone();
        preprocess(&mut series, pre);
        let mut row = Vec::with_capacity(width);
        for m in 0..n_metrics {
            extractor.extract(series.metric(m), &mut row);
        }
        debug_assert_eq!(row.len(), width);
        row
    });

    let y: Vec<usize> = samples
        .iter()
        .map(|s| {
            encoder
                .encode(&s.label)
                // alba-lint: allow(reachable-panic) reason="labels come from the catalog the encoder was built from"
                .unwrap_or_else(|| panic!("label {:?} not in class names", s.label))
        })
        .collect();
    let meta = samples.iter().map(|s| s.meta.clone()).collect();

    let mut x = Matrix::zeros(0, width);
    for row in &rows {
        x.push_row(row);
    }
    Dataset::new(x, y, encoder, meta, feature_names)
}

/// Drops degenerate feature columns: any column containing a non-finite
/// value, or with (near-)zero variance across the dataset — the paper's
/// "drop features with NaN or zero values" cleanup (Sec. IV-E.1).
///
/// Returns the surviving dataset and the retained column indices.
pub fn drop_degenerate_features(ds: &Dataset) -> (Dataset, Vec<usize>) {
    let rows: Vec<usize> = (0..ds.len()).collect();
    let keep = crate::select::column_ranges(&ds.x, &rows).non_degenerate();
    (ds.select_features(&keep), keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvts::Mvts;
    use alba_data::SampleMeta;
    use alba_telemetry::{class_names, CampaignConfig, Scale};

    fn tiny_campaign() -> Vec<NodeTelemetry> {
        let mut cfg = CampaignConfig::volta(Scale::Smoke, 5);
        cfg.apps.truncate(2);
        cfg.shapes.truncate(1);
        cfg.generate()
    }

    #[test]
    fn all_nan_series_extracts_without_panicking() {
        // A node can drop off the aggregator entirely; the extractors
        // must not panic sorting a window of NaNs (total_cmp, not
        // partial_cmp().unwrap()).
        let series = vec![f64::NAN; 128];
        for extractor in [&Mvts as &dyn FeatureExtractor, &crate::tsfresh::TsFresh] {
            let mut out = Vec::new();
            extractor.extract(&series, &mut out);
            assert_eq!(out.len(), extractor.n_features_per_metric());
        }
    }

    #[test]
    fn extraction_shape_and_labels() {
        let samples = tiny_campaign();
        let ds = extract_features(&samples, &Mvts, &PreprocessConfig::default(), &class_names());
        assert_eq!(ds.len(), samples.len());
        let n_metrics = samples[0].series.n_metrics();
        assert_eq!(ds.x.cols(), n_metrics * 48);
        assert_eq!(ds.feature_names.len(), ds.x.cols());
        assert_eq!(ds.encoder.decode(0), Some("healthy"));
        // Labels survive encoding.
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(ds.encoder.decode(ds.y[i]), Some(s.label.as_str()));
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let samples = tiny_campaign();
        let a = extract_features(&samples, &Mvts, &PreprocessConfig::default(), &class_names());
        let b = extract_features(&samples, &Mvts, &PreprocessConfig::default(), &class_names());
        assert_eq!(a.x.as_slice(), b.x.as_slice());
    }

    #[test]
    fn degenerate_columns_are_dropped() {
        let samples = tiny_campaign();
        let ds = extract_features(&samples, &Mvts, &PreprocessConfig::default(), &class_names());
        let (clean, keep) = drop_degenerate_features(&ds);
        assert!(clean.x.cols() <= ds.x.cols());
        assert!(clean.x.cols() > 0, "some features must survive");
        assert_eq!(clean.x.cols(), keep.len());
        // All survivors have variance.
        for c in 0..clean.x.cols() {
            let col = clean.x.column(c);
            let first = col[0];
            assert!(col.iter().any(|&v| (v - first).abs() > 1e-12));
            assert!(col.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "label")]
    fn unknown_label_panics() {
        let samples = tiny_campaign();
        let _ = extract_features(
            &samples,
            &Mvts,
            &PreprocessConfig::default(),
            &["healthy".to_string()], // anomaly labels missing
        );
    }

    #[test]
    fn meta_is_preserved() {
        let samples = tiny_campaign();
        let ds = extract_features(&samples, &Mvts, &PreprocessConfig::default(), &class_names());
        let expect: Vec<SampleMeta> = samples.iter().map(|s| s.meta.clone()).collect();
        assert_eq!(ds.meta, expect);
    }
}
