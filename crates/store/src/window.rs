//! Zero-copy windowed readers over stored telemetry.
//!
//! Online diagnosis consumes telemetry as fixed-length sliding windows
//! (the service defaults to 60 s windows every 10 s). Decoded columns
//! already live contiguously in a [`MultiSeries`], so a window is just a
//! `(start, len)` view — [`WindowView::metric`] hands out sub-slices of
//! the decoded columns without copying a sample. A view is a
//! [`SeriesSource`], so planned extraction
//! ([`alba_features::FeatureView::unscaled_row_into`]) reads it directly;
//! [`WindowView::to_series`] copies a window out only for the
//! materialised reference ([`alba_features::FeatureView::unscaled_row`]).

use alba_data::{MetricDef, MetricKind, MultiSeries};
use alba_features::SeriesSource;
use serde::{Deserialize, Serialize};

/// A sliding-window shape: length and stride, in 1 Hz samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Window length in samples (= seconds at 1 Hz).
    pub window_s: usize,
    /// Hop between consecutive window starts.
    pub stride_s: usize,
}

impl WindowSpec {
    /// A `window_s`-sample window every `stride_s` samples.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(window_s: usize, stride_s: usize) -> Self {
        assert!(window_s > 0 && stride_s > 0, "window and stride must be positive");
        Self { window_s, stride_s }
    }

    /// How many full windows fit in a series of `n` samples.
    pub fn count(&self, n: usize) -> usize {
        if n < self.window_s {
            0
        } else {
            (n - self.window_s) / self.stride_s + 1
        }
    }
}

/// A borrowed, zero-copy view of one window of a [`MultiSeries`].
#[derive(Clone, Copy, Debug)]
pub struct WindowView<'a> {
    series: &'a MultiSeries,
    start: usize,
    len: usize,
}

impl<'a> WindowView<'a> {
    /// The metric catalog of the underlying series.
    pub fn metrics(&self) -> &'a [MetricDef] {
        &self.series.metrics
    }

    /// First sample index of the window within the full series.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Window length in samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length window (never produced by [`windows`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Metric `m`'s samples within this window — a sub-slice of the
    /// decoded column, no copy.
    pub fn metric(&self, m: usize) -> &'a [f64] {
        &self.series.metric(m)[self.start..self.start + self.len]
    }

    /// Materialises the window as an owned [`MultiSeries`] (the one copy,
    /// made only when an extractor needs to preprocess in place).
    pub fn to_series(&self) -> MultiSeries {
        MultiSeries {
            metrics: self.series.metrics.clone(),
            values: (0..self.series.n_metrics()).map(|m| self.metric(m).to_vec()).collect(),
        }
    }
}

/// A [`WindowView`] lends per-metric sub-slices directly, so planned
/// feature extraction ([`alba_features::FeatureView::unscaled_row_into`])
/// runs on stored windows without [`WindowView::to_series`]'s copy.
impl SeriesSource for WindowView<'_> {
    fn n_metrics(&self) -> usize {
        self.series.n_metrics()
    }

    fn series_len(&self) -> usize {
        self.len
    }

    fn metric(&self, m: usize) -> &[f64] {
        WindowView::metric(self, m)
    }

    fn metric_kind(&self, m: usize) -> MetricKind {
        self.series.metrics[m].kind
    }
}

/// Iterator over the full windows of a series, oldest first.
pub struct WindowIter<'a> {
    series: &'a MultiSeries,
    spec: WindowSpec,
    next_start: usize,
}

impl<'a> Iterator for WindowIter<'a> {
    type Item = WindowView<'a>;

    fn next(&mut self) -> Option<WindowView<'a>> {
        if self.next_start + self.spec.window_s > self.series.len() {
            return None;
        }
        let view =
            WindowView { series: self.series, start: self.next_start, len: self.spec.window_s };
        self.next_start += self.spec.stride_s;
        Some(view)
    }
}

/// All full `spec` windows of `series`, as zero-copy views.
pub fn windows(series: &MultiSeries, spec: WindowSpec) -> WindowIter<'_> {
    WindowIter { series, spec, next_start: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_data::{MetricDef, MetricKind};

    fn series(n: usize) -> MultiSeries {
        let metrics = vec![
            MetricDef { name: "cpu".into(), subsystem: "cpu".into(), kind: MetricKind::Gauge },
            MetricDef {
                name: "retired".into(),
                subsystem: "cpu".into(),
                kind: MetricKind::Counter,
            },
        ];
        let mut s = MultiSeries::new(metrics);
        for t in 0..n {
            s.push_sample(&[t as f64, (t * t) as f64]);
        }
        s
    }

    #[test]
    fn window_count_matches_formula() {
        let s = series(100);
        let spec = WindowSpec::new(60, 10);
        let got: Vec<_> = windows(&s, spec).collect();
        assert_eq!(got.len(), spec.count(100));
        assert_eq!(got.len(), 5); // starts 0,10,20,30,40
        assert_eq!(got[0].start(), 0);
        assert_eq!(got[4].start(), 40);
        assert!(got.iter().all(|w| w.len() == 60));
    }

    #[test]
    fn short_series_yields_no_window() {
        let s = series(30);
        assert_eq!(windows(&s, WindowSpec::new(60, 10)).count(), 0);
        assert_eq!(WindowSpec::new(60, 10).count(30), 0);
        // Exactly one window when lengths match.
        assert_eq!(WindowSpec::new(30, 7).count(30), 1);
    }

    #[test]
    fn views_borrow_the_decoded_column() {
        let s = series(80);
        let w = windows(&s, WindowSpec::new(20, 20)).nth(1).unwrap();
        // The view's slice points into the series' own buffer: zero copy.
        let col = s.metric(0);
        assert!(std::ptr::eq(&col[20], &w.metric(0)[0]));
        assert_eq!(w.metric(0)[0], 20.0);
        assert_eq!(w.metric(1)[19], (39 * 39) as f64);
    }

    #[test]
    fn to_series_copies_exactly_the_window() {
        let s = series(50);
        let w = windows(&s, WindowSpec::new(10, 5)).nth(2).unwrap();
        let owned = w.to_series();
        assert_eq!(owned.len(), 10);
        assert_eq!(owned.metrics, s.metrics);
        assert_eq!(owned.metric(0), w.metric(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_rejected() {
        let _ = WindowSpec::new(60, 0);
    }

    #[test]
    fn view_extraction_is_bit_identical_to_materialised_window() {
        use alba_data::Matrix;
        use alba_features::{
            ExtractScratch, FeatureExtractor, FeatureView, MinMaxScaler, Mvts, PreprocessConfig,
        };
        let mut s = series(90);
        // NaN gaps so interpolation actually runs on both paths.
        s.values[0][12] = f64::NAN;
        s.values[0][13] = f64::NAN;
        s.values[1][40] = f64::NAN;
        let w = windows(&s, WindowSpec::new(60, 10)).nth(1).unwrap();
        let ex = Mvts;
        let npm = ex.n_features_per_metric();
        let selected: Vec<usize> = (0..2 * npm).rev().step_by(3).collect();
        let k = selected.len();
        let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0; k], vec![1.0; k]]));
        let view = FeatureView::new(selected, scaler);
        let pre = PreprocessConfig { trim_frac: 0.08, diff_counters: true, interpolate: true };

        // Golden path: materialise the window, then the cloned-series row.
        let golden = view.unscaled_row(&ex, &w.to_series(), &pre);

        // Hot path: plan + scratch straight off the borrowed view.
        let plan = view.plan(&ex);
        let mut scratch = ExtractScratch::default();
        let mut got = vec![0.0; view.n_features()];
        view.unscaled_row_into(&ex, &w, &pre, &plan, &mut scratch, &mut got);

        assert_eq!(golden.len(), got.len());
        for (i, (a, b)) in golden.iter().zip(&got).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "column {i}: {a} vs {b}");
        }
    }
}
