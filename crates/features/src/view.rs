//! The deployed model's *feature view*: which columns of the full
//! extracted feature vector the model consumes, and how they are scaled.
//!
//! Offline, `prepare_split` selects the top-k chi-square features and
//! fits a Min-Max scaler on the training split; everything downstream of
//! the extractor — the offline evaluation, the online [`NodeMonitor`]
//! and the fleet service's batched extraction — must project and scale
//! windows identically or the model sees garbage. `FeatureView` is that
//! shared implementation.
//!
//! Monitors extract through [`FeatureView::unscaled_row_into`], which
//! reads only the planned metrics of a borrowed window.
//! [`FeatureView::unscaled_row`] is the one materialised reference it is
//! pinned against: it clones the window and extracts every metric.
//!
//! [`NodeMonitor`]: ../albadross/monitor/struct.NodeMonitor.html

use crate::extract::FeatureExtractor;
use crate::preprocess::{
    diff_counter, interpolate_gaps, preprocess, trim_bounds, PreprocessConfig,
};
use crate::scale::MinMaxScaler;
use crate::source::{ExtractPlan, ExtractScratch, SeriesSource};
use alba_data::{Matrix, MetricKind, MultiSeries};
use serde::{Deserialize, Serialize};

/// Projection of full extractor output into a model's input space,
/// plus the scaler fitted on that projected space.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureView {
    /// Indices into the full (all-metrics) feature vector, in model
    /// column order.
    selected: Vec<usize>,
    /// Scaler fitted on the projected training features.
    scaler: MinMaxScaler,
}

impl FeatureView {
    /// Builds a view from selected column indices and the scaler fitted
    /// on exactly those columns.
    ///
    /// # Panics
    /// Panics when the scaler width differs from the selection size.
    pub fn new(selected: Vec<usize>, scaler: MinMaxScaler) -> Self {
        assert_eq!(
            selected.len(),
            scaler.n_features(),
            "scaler fitted on {} features but {} selected",
            scaler.n_features(),
            selected.len()
        );
        Self { selected, scaler }
    }

    /// Number of features the model consumes.
    pub fn n_features(&self) -> usize {
        self.selected.len()
    }

    /// The selected column indices into the full feature vector.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Projects a full feature vector onto the selected columns
    /// (no scaling).
    ///
    /// # Panics
    /// Panics when `full` is shorter than the largest selected index.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        self.selected.iter().map(|&c| full[c]).collect()
    }

    /// Extracts one *unscaled* model-input row from a telemetry window:
    /// preprocesses a copy of the window, runs the extractor over every
    /// metric, and projects the concatenated output.
    ///
    /// The one materialised reference: [`FeatureView::unscaled_row_into`]
    /// must match it bit for bit. Callers collect rows into a matrix and
    /// call [`FeatureView::scale_inplace`] once.
    pub fn unscaled_row(
        &self,
        extractor: &dyn FeatureExtractor,
        window: &MultiSeries,
        pre: &PreprocessConfig,
    ) -> Vec<f64> {
        let mut window = window.clone();
        preprocess(&mut window, pre);
        let mut full = Vec::with_capacity(window.n_metrics() * extractor.n_features_per_metric());
        for m in 0..window.n_metrics() {
            extractor.extract(window.metric(m), &mut full);
        }
        self.project(&full)
    }

    /// Builds the extraction plan for this view: the selected columns
    /// grouped by owning metric, so the planned path extracts only the
    /// metrics the model consumes.
    pub fn plan(&self, extractor: &dyn FeatureExtractor) -> ExtractPlan {
        ExtractPlan::new(&self.selected, extractor.n_features_per_metric())
    }

    /// The zero-copy twin of [`FeatureView::unscaled_row`]: extracts
    /// one unscaled model-input row straight from a borrowed window
    /// ([`SeriesSource`]) into `out`, without cloning the window and
    /// without extracting metrics the plan skips. Per-metric
    /// preprocessing (trim by sub-slice, NaN interpolation, counter
    /// differencing) runs in `scratch`, bit-identically to the
    /// materialised pipeline — pinned by the golden tests below.
    ///
    /// # Panics
    /// Panics when `plan` does not match this view's selection width,
    /// `out` is not exactly `plan.n_out()` wide, or the plan references
    /// a metric outside the source.
    pub fn unscaled_row_into(
        &self,
        extractor: &dyn FeatureExtractor,
        src: &dyn SeriesSource,
        pre: &PreprocessConfig,
        plan: &ExtractPlan,
        scratch: &mut ExtractScratch,
        out: &mut [f64],
    ) {
        assert_eq!(plan.n_out(), self.selected.len(), "plan built for a different view");
        assert_eq!(out.len(), plan.n_out(), "output row width mismatch");
        let (start, end) = trim_bounds(src.series_len(), pre.trim_frac);
        for (m, slots) in plan.per_metric() {
            scratch.series.clear();
            scratch.series.extend_from_slice(&src.metric(*m)[start..end]);
            if pre.interpolate {
                interpolate_gaps(&mut scratch.series);
            }
            if pre.diff_counters && src.metric_kind(*m) == MetricKind::Counter {
                diff_counter(&mut scratch.series);
            }
            scratch.wanted.clear();
            scratch.wanted.extend(slots.iter().map(|&(k, _)| k));
            scratch.feats.clear();
            extractor.extract_select(
                &scratch.series,
                &scratch.wanted,
                &mut scratch.inner,
                &mut scratch.feats,
            );
            for (&(_, pos), &v) in slots.iter().zip(scratch.feats.iter()) {
                out[pos] = v;
            }
        }
    }

    /// Scales a matrix of projected rows in place.
    pub fn scale_inplace(&self, x: &mut Matrix) {
        self.scaler.transform_inplace(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvts::Mvts;
    use alba_data::{MetricDef, MetricKind};

    fn window() -> MultiSeries {
        let metrics = vec![
            MetricDef {
                name: "cpu_user".to_string(),
                subsystem: "cpu".to_string(),
                kind: MetricKind::Gauge,
            },
            MetricDef {
                name: "mem_used".to_string(),
                subsystem: "memory".to_string(),
                kind: MetricKind::Gauge,
            },
        ];
        let mut s = MultiSeries::new(metrics);
        for t in 0..32 {
            let t = t as f64;
            s.push_sample(&[t.sin() * 10.0 + 50.0, t * 2.0 + 100.0]);
        }
        s
    }

    fn pre() -> PreprocessConfig {
        PreprocessConfig { trim_frac: 0.0, diff_counters: true, interpolate: true }
    }

    #[test]
    fn project_picks_selected_columns_in_order() {
        let scaler =
            MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]]));
        let view = FeatureView::new(vec![4, 0, 2], scaler);
        assert_eq!(view.project(&[10.0, 11.0, 12.0, 13.0, 14.0]), vec![14.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "selected")]
    fn mismatched_scaler_width_rejected() {
        let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0], vec![1.0]]));
        let _ = FeatureView::new(vec![0, 1], scaler);
    }

    #[test]
    fn scaled_row_equals_manual_pipeline() {
        let w = window();
        let n_full = 2 * Mvts.n_features_per_metric();
        let selected: Vec<usize> = (0..n_full).step_by(7).collect();
        // Fit the scaler on the window's own (projected) features so the
        // transform is non-trivial.
        let train_rows: Vec<Vec<f64>> = (0..3)
            .map(|shift| {
                let mut shifted = w.clone();
                for series in &mut shifted.values {
                    for v in series {
                        *v += shift as f64;
                    }
                }
                let mut full = Vec::new();
                let mut pp = shifted.clone();
                preprocess(&mut pp, &pre());
                for m in 0..pp.n_metrics() {
                    Mvts.extract(pp.metric(m), &mut full);
                }
                selected.iter().map(|&c| full[c]).collect()
            })
            .collect();
        let scaler = MinMaxScaler::fit(&Matrix::from_rows(&train_rows));
        let view = FeatureView::new(selected.clone(), scaler.clone());

        let mut got = Matrix::from_rows(&[view.unscaled_row(&Mvts, &w, &pre())]);
        view.scale_inplace(&mut got);

        let mut full = Vec::new();
        let mut pp = w.clone();
        preprocess(&mut pp, &pre());
        for m in 0..pp.n_metrics() {
            Mvts.extract(pp.metric(m), &mut full);
        }
        let manual: Vec<f64> = selected.iter().map(|&c| full[c]).collect();
        let mut manual = Matrix::from_rows(&[manual]);
        scaler.transform_inplace(&mut manual);
        assert_eq!(got.row(0), manual.row(0));
    }

    #[test]
    fn batched_scaling_matches_single_row_scaling() {
        let w = window();
        let n_full = 2 * Mvts.n_features_per_metric();
        let selected: Vec<usize> = (0..n_full.min(20)).collect();
        let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[
            vec![-5.0; 20.min(n_full)],
            vec![5.0; 20.min(n_full)],
        ]));
        let view = FeatureView::new(selected, scaler);

        let rows: Vec<Vec<f64>> = (0..4).map(|_| view.unscaled_row(&Mvts, &w, &pre())).collect();
        let mut batch = Matrix::from_rows(&rows);
        view.scale_inplace(&mut batch);

        let mut single = Matrix::from_rows(&[view.unscaled_row(&Mvts, &w, &pre())]);
        view.scale_inplace(&mut single);
        for r in 0..4 {
            assert_eq!(batch.row(r), single.row(0));
        }
    }

    /// A NaN-gapped window over gauges *and* counters: leading gap,
    /// interior gaps, trailing gap, one all-NaN metric — every branch
    /// of interpolation and differencing.
    fn gapped_window(n: usize) -> MultiSeries {
        let metrics = vec![
            MetricDef {
                name: "cpu_user".to_string(),
                subsystem: "cpu".to_string(),
                kind: MetricKind::Gauge,
            },
            MetricDef {
                name: "net_tx_bytes".to_string(),
                subsystem: "network".to_string(),
                kind: MetricKind::Counter,
            },
            MetricDef {
                name: "dead_sensor".to_string(),
                subsystem: "cray".to_string(),
                kind: MetricKind::Gauge,
            },
            MetricDef {
                name: "ctx_switches".to_string(),
                subsystem: "cpu".to_string(),
                kind: MetricKind::Counter,
            },
        ];
        let mut s = MultiSeries::new(metrics);
        for t in 0..n {
            let tf = t as f64;
            let gauge = if t < 2 || t % 11 == 0 { f64::NAN } else { (tf * 0.7).sin() * 9.0 + 40.0 };
            let counter =
                if t % 7 == 3 || t + 1 == n { f64::NAN } else { tf * 13.0 + (tf.cos() * 3.0) };
            let ctr2 = if t % 5 == 1 { f64::NAN } else { tf * tf * 0.5 };
            s.push_sample(&[gauge, counter, f64::NAN, ctr2]);
        }
        s
    }

    /// The tentpole golden test: on NaN-gapped windows of gauges and
    /// counters, the slice-based planned path produces the *same bits*
    /// as the pre-refactor materialised path — for both extractors, at
    /// zero trim (the stream path), the paper's default trim, and a
    /// trim so large the middle-sample fallback fires.
    #[test]
    fn planned_extraction_is_bit_identical_to_materialised_path() {
        let extractors: Vec<Box<dyn FeatureExtractor>> =
            vec![Box::new(Mvts), Box::new(crate::tsfresh::TsFresh)];
        let pres = [
            PreprocessConfig { trim_frac: 0.0, diff_counters: true, interpolate: true },
            PreprocessConfig::default(),
            PreprocessConfig { trim_frac: 0.55, diff_counters: true, interpolate: true },
            PreprocessConfig { trim_frac: 0.08, diff_counters: false, interpolate: false },
        ];
        let w = gapped_window(64);
        for ex in &extractors {
            let npm = ex.n_features_per_metric();
            let n_full = w.n_metrics() * npm;
            // A selection that skips whole metrics and scrambles order.
            let mut selected: Vec<usize> = (0..n_full).step_by(7).collect();
            selected.reverse();
            let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[
                vec![0.0; selected.len()],
                vec![1.0; selected.len()],
            ]));
            let view = FeatureView::new(selected, scaler);
            let plan = view.plan(ex.as_ref());
            assert!(plan.n_metrics_used() <= w.n_metrics());
            let mut scratch = ExtractScratch::default();
            for pre in &pres {
                let golden = view.unscaled_row(ex.as_ref(), &w, pre);
                let mut got = vec![0.0; view.n_features()];
                view.unscaled_row_into(ex.as_ref(), &w, pre, &plan, &mut scratch, &mut got);
                for (i, (a, b)) in golden.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} col {} diverged (trim={}): {} vs {}",
                        ex.name(),
                        i,
                        pre.trim_frac,
                        a,
                        b
                    );
                }
            }
        }
    }

    /// Scratch reuse across windows must not leak state between calls.
    /// The TsFresh selection asks each metric for other shared
    /// intermediates (metric 0: sorted copy, autocorrelations, PSD;
    /// metric 1: sorted changes, ApEn subsample, chunks, spectral
    /// moments and the sorted copy), so a stale one from an earlier
    /// metric or window would show.
    #[test]
    fn scratch_reuse_does_not_leak_between_windows() {
        use crate::tsfresh::TsFresh;
        let windows = [gapped_window(64), window(), gapped_window(130)];
        let npm = TsFresh.n_features_per_metric();
        let cases: [(&dyn FeatureExtractor, Vec<usize>); 2] = [
            (&Mvts, (0..2 * Mvts.n_features_per_metric()).step_by(5).collect()),
            (&TsFresh, vec![16, 139, 40, npm + 30, 5, npm + 56, npm + 100, npm + 173, npm + 12]),
        ];
        for (ex, selected) in cases {
            let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[
                vec![0.0; selected.len()],
                vec![1.0; selected.len()],
            ]));
            let view = FeatureView::new(selected, scaler);
            let plan = view.plan(ex);
            let mut scratch = ExtractScratch::default();
            let mut row = vec![0.0; view.n_features()];
            // Interleave very different windows; each must match its
            // own golden row every time.
            for _ in 0..3 {
                for w in &windows {
                    view.unscaled_row_into(ex, w, &pre(), &plan, &mut scratch, &mut row);
                    let golden = view.unscaled_row(ex, w, &pre());
                    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&row), bits(&golden), "{}", ex.name());
                }
            }
        }
    }

    #[test]
    fn view_survives_json_round_trip() {
        let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0, -1.0], vec![2.0, 3.0]]));
        let view = FeatureView::new(vec![3, 1], scaler);
        let json = serde_json::to_string(&view).unwrap();
        let back: FeatureView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.selected(), view.selected());
        assert_eq!(back.project(&[9.0, 8.0, 7.0, 6.0]), view.project(&[9.0, 8.0, 7.0, 6.0]));
    }
}
