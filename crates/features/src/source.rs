//! Zero-copy window sources and the per-view extraction plan.
//!
//! The materialised hot path used to clone an entire telemetry window
//! ([`MultiSeries`]), preprocess the clone, extract *every* metric's
//! features (48–176 per metric) and then project the handful of
//! selected columns the model actually consumes. At fleet scale that
//! is the dominant cost: the served Volta TsFresh view (top 300 of
//! 11 968 columns at default scale) touches 24 of the 68 metrics, so
//! most of the work was thrown away.
//!
//! This module supplies the slice-based replacement:
//!
//! * [`SeriesSource`] — anything that can lend per-metric `&[f64]`
//!   slices (a [`MultiSeries`], or `alba-store`'s `WindowView` without
//!   materialising). Preprocessing happens in a reusable scratch
//!   buffer, never on a cloned window.
//! * [`ExtractPlan`] — the selected feature columns grouped by metric:
//!   which metrics must be extracted at all, and where each kept
//!   feature lands in the model-input row. Built once per view, reused
//!   every window.
//! * [`ExtractScratch`] — the reusable buffers; one per shard/thread.
//!
//! The contract, pinned by golden tests against
//! [`FeatureView::unscaled_row`](crate::FeatureView::unscaled_row), the
//! one materialised reference: the planned path is **bit-identical** to
//! it, including NaN-gap interpolation, counter differencing and the
//! trim's middle-sample fallback.

use alba_data::{MetricKind, MultiSeries};

use crate::extract::SelectScratch;

/// A borrowed multivariate window: per-metric series slices plus the
/// metric kinds preprocessing needs. Implemented by [`MultiSeries`]
/// here and by `alba-store::WindowView` (zero-copy over a stored
/// segment) in the store crate.
pub trait SeriesSource {
    /// Number of metrics.
    fn n_metrics(&self) -> usize;
    /// Number of timestamps.
    fn series_len(&self) -> usize;
    /// Metric `m`'s series.
    fn metric(&self, m: usize) -> &[f64];
    /// Metric `m`'s kind (counters get differenced).
    fn metric_kind(&self, m: usize) -> MetricKind;
}

impl SeriesSource for MultiSeries {
    fn n_metrics(&self) -> usize {
        MultiSeries::n_metrics(self)
    }

    fn series_len(&self) -> usize {
        self.len()
    }

    fn metric(&self, m: usize) -> &[f64] {
        MultiSeries::metric(self, m)
    }

    fn metric_kind(&self, m: usize) -> MetricKind {
        self.metrics[m].kind
    }
}

/// One selected feature: its offset within the owning metric's feature
/// block, and its position in the model-input row.
type Slot = (usize, usize);

/// The selected feature columns of a
/// [`FeatureView`](crate::FeatureView), grouped by owning metric —
/// metrics with no selected feature are skipped entirely on the hot
/// path. Built once (per view × extractor) and reused every window.
#[derive(Clone, Debug)]
pub struct ExtractPlan {
    /// `(metric index, [(feature offset within metric, output position)])`,
    /// metrics ascending.
    per_metric: Vec<(usize, Vec<Slot>)>,
    n_out: usize,
    npm: usize,
}

impl ExtractPlan {
    /// Groups `selected` full-vector column indices by owning metric,
    /// given the extractor's `npm` features per metric.
    ///
    /// # Panics
    /// Panics when `npm == 0`.
    pub fn new(selected: &[usize], npm: usize) -> Self {
        assert!(npm >= 1, "an extractor must produce at least one feature per metric");
        let mut per_metric: Vec<(usize, Vec<Slot>)> = Vec::new();
        for (pos, &c) in selected.iter().enumerate() {
            let (m, k) = (c / npm, c % npm);
            match per_metric.binary_search_by_key(&m, |e| e.0) {
                Ok(i) => per_metric[i].1.push((k, pos)),
                Err(i) => per_metric.insert(i, (m, vec![(k, pos)])),
            }
        }
        Self { per_metric, n_out: selected.len(), npm }
    }

    /// Width of the model-input row this plan scatters into.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Features per metric the plan was built for.
    pub fn npm(&self) -> usize {
        self.npm
    }

    /// Metrics that must actually be extracted (the rest are skipped).
    pub fn n_metrics_used(&self) -> usize {
        self.per_metric.len()
    }

    /// The grouped slots, metrics ascending.
    pub(crate) fn per_metric(&self) -> &[(usize, Vec<Slot>)] {
        &self.per_metric
    }
}

/// Reusable buffers for planned extraction: the preprocessed copy of
/// one metric's series plus the extractor-side working buffers. One
/// per shard (or thread) amortises every allocation on the hot path.
#[derive(Clone, Debug, Default)]
pub struct ExtractScratch {
    /// Preprocessed series of the metric currently being extracted.
    pub(crate) series: Vec<f64>,
    /// The selected features the extractor produced for that metric.
    pub(crate) feats: Vec<f64>,
    /// Wanted per-metric feature offsets, in plan order.
    pub(crate) wanted: Vec<usize>,
    /// Extractor-private buffers for
    /// [`FeatureExtractor::extract_select`](crate::FeatureExtractor::extract_select).
    pub(crate) inner: SelectScratch,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_by_metric_ascending_and_keeps_positions() {
        // npm=4; columns 9,1,6,11,0 → metric 2:(1,0), 0:(1,1),(0,4), 1:(2,2), 2:(3,3)
        let plan = ExtractPlan::new(&[9, 1, 6, 11, 0], 4);
        assert_eq!(plan.n_out(), 5);
        assert_eq!(plan.n_metrics_used(), 3);
        let got = plan.per_metric();
        assert_eq!(got[0], (0, vec![(1, 1), (0, 4)]));
        assert_eq!(got[1], (1, vec![(2, 2)]));
        assert_eq!(got[2], (2, vec![(1, 0), (3, 3)]));
    }

    #[test]
    fn unselected_metrics_are_absent_from_the_plan() {
        let plan = ExtractPlan::new(&[0, 1, 2], 48);
        assert_eq!(plan.n_metrics_used(), 1, "all three columns live in metric 0");
    }

    #[test]
    fn empty_selection_is_an_empty_plan() {
        let plan = ExtractPlan::new(&[], 48);
        assert_eq!(plan.n_out(), 0);
        assert_eq!(plan.n_metrics_used(), 0);
    }
}
