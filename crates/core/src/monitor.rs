//! Online monitoring — the paper's deployment scenario (Sec. VI future
//! work: "a scenario where ALBADross is deployed on a production HPC
//! system").
//!
//! A [`NodeMonitor`] ingests one node's telemetry sample-by-sample,
//! maintains a sliding window, and periodically extracts features and runs
//! the deployed [`DiagnosisModel`] over the window — turning the offline
//! per-run diagnosis of the paper into a continuous per-node health signal
//! with hysteresis (an alarm is raised only after `confirm` consecutive
//! anomalous windows, suppressing one-off glitches).
//!
//! Monitors own their model and extractor through `Arc`, so they are
//! `Send` (the fleet service shards them across worker threads) and the
//! model can be hot-swapped atomically via [`NodeMonitor::set_model`]
//! without touching buffered telemetry or the alarm streak. The batched
//! serve path drives the lower-level [`NodeMonitor::push`] /
//! [`NodeMonitor::window_row`] / [`NodeMonitor::apply_diagnosis`] hooks
//! so feature extraction and inference can run once per *batch* of
//! nodes; [`NodeMonitor::ingest`] composes the same hooks for
//! single-node use.
//!
//! The window lives in a fixed, metric-major slab (`WindowSlab`):
//! `push` writes one value per metric and only every `stride + 1`
//! samples moves the newest `window - 1` samples back to the front, so
//! the hot path neither allocates nor memmoves a whole window per
//! sample, while extraction still borrows one contiguous slice per
//! metric.

use std::sync::Arc;

use alba_data::{Matrix, MetricDef, MetricKind, MultiSeries};
use alba_features::{
    ExtractPlan, ExtractScratch, FeatureExtractor, FeatureView, PreprocessConfig, SeriesSource,
};
use alba_ml::{Diagnosis, DiagnosisModel};
use serde::{Deserialize, Serialize};

/// Monitoring configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Sliding-window length in samples (1 Hz ⇒ seconds).
    pub window: usize,
    /// Diagnose every `stride` new samples.
    pub stride: usize,
    /// Consecutive anomalous windows required before an alarm is raised.
    pub confirm: usize,
    /// Minimum model confidence for a window to count as anomalous.
    pub min_confidence: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self { window: 60, stride: 10, confirm: 3, min_confidence: 0.5 }
    }
}

/// A raised alarm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Sample index (time) at which the alarm fired.
    pub at: usize,
    /// Diagnosed anomaly label.
    pub label: String,
    /// Mean confidence over the confirming windows.
    pub confidence: f64,
}

/// One window diagnosis (alarmed or not).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowVerdict {
    /// Sample index at the window's end.
    pub at: usize,
    /// The model's diagnosis for the window.
    pub diagnosis: Diagnosis,
}

/// Live-stream preprocessing: counters are cumulative exactly as in
/// offline collection; no trimming — the window is already steady-state
/// by construction.
fn stream_preprocess() -> PreprocessConfig {
    PreprocessConfig { trim_frac: 0.0, diff_counters: true, interpolate: true }
}

/// One node's sliding window: every metric owns `window + stride`
/// consecutive slots of one buffer, and the window is the newest
/// `min(end, window)` samples before `end` in each metric's slots (`end`
/// never drops below `window` once the window has filled). When the
/// slots are full, the newest `window - 1` samples move back to the
/// front, so a compaction happens once every `stride + 1` pushes and
/// the slab never grows.
#[derive(Clone)]
struct WindowSlab {
    metrics: Vec<MetricDef>,
    window: usize,
    /// Slots per metric (`window + stride`).
    cap: usize,
    /// Metric `m`'s slots are `data[m * cap..(m + 1) * cap]`.
    data: Vec<f64>,
    /// One past the newest sample, in every metric's slots (stays 0 for
    /// an empty catalog, which therefore never fills a window).
    end: usize,
}

impl WindowSlab {
    fn new(metrics: Vec<MetricDef>, window: usize, stride: usize) -> Self {
        let cap = window + stride;
        Self { data: vec![0.0; metrics.len() * cap], metrics, window, cap, end: 0 }
    }

    /// Appends one timestamp of readings, dropping the oldest sample once
    /// the window is full.
    ///
    /// # Panics
    /// Panics when `readings.len()` differs from the metric count.
    fn push(&mut self, readings: &[f64]) {
        assert_eq!(readings.len(), self.metrics.len(), "sample width mismatch");
        if self.metrics.is_empty() {
            return;
        }
        if self.end == self.cap {
            let keep = self.window - 1;
            for slots in self.data.chunks_exact_mut(self.cap) {
                slots.copy_within(self.cap - keep.., 0);
            }
            self.end = keep;
        }
        for (slots, &v) in self.data.chunks_exact_mut(self.cap).zip(readings) {
            slots[self.end] = v;
        }
        self.end += 1;
    }

    /// Copies the window into an owned series (the reference path).
    fn to_series(&self) -> MultiSeries {
        MultiSeries {
            metrics: self.metrics.clone(),
            values: (0..self.metrics.len()).map(|m| self.metric(m).to_vec()).collect(),
        }
    }
}

impl SeriesSource for WindowSlab {
    fn n_metrics(&self) -> usize {
        self.metrics.len()
    }

    fn series_len(&self) -> usize {
        self.end.min(self.window)
    }

    fn metric(&self, m: usize) -> &[f64] {
        let base = m * self.cap;
        &self.data[base + self.end - self.series_len()..base + self.end]
    }

    fn metric_kind(&self, m: usize) -> MetricKind {
        self.metrics[m].kind
    }
}

/// Sliding-window online diagnoser for one compute node.
#[derive(Clone)]
pub struct NodeMonitor {
    model: Arc<DiagnosisModel>,
    extractor: Arc<dyn FeatureExtractor + Send + Sync>,
    /// Projection + scaling of extracted features into the model's
    /// feature view (the split's selected columns).
    view: FeatureView,
    /// Selected columns grouped by metric — lets the hot path skip
    /// metrics the model never consumes. Shared by cloned monitors.
    plan: Arc<ExtractPlan>,
    config: MonitorConfig,
    buffer: WindowSlab,
    since_last: usize,
    ingested: usize,
    /// Labels of the most recent consecutive anomalous windows.
    streak: Vec<Diagnosis>,
    /// All verdicts so far.
    verdicts: Vec<WindowVerdict>,
    /// Raised alarms.
    alarms: Vec<Alarm>,
}

impl NodeMonitor {
    /// Creates a monitor for one node.
    pub fn new(
        model: Arc<DiagnosisModel>,
        extractor: Arc<dyn FeatureExtractor + Send + Sync>,
        metrics: Vec<MetricDef>,
        view: FeatureView,
        config: MonitorConfig,
    ) -> Self {
        assert!(config.window >= 8, "windows shorter than 8 samples are meaningless");
        assert!(config.stride >= 1, "stride must be positive");
        assert!(config.confirm >= 1, "confirm must be positive");
        let plan = Arc::new(view.plan(extractor.as_ref()));
        let buffer = WindowSlab::new(metrics, config.window, config.stride);
        Self {
            model,
            extractor,
            view,
            plan,
            config,
            buffer,
            since_last: 0,
            ingested: 0,
            streak: Vec::new(),
            verdicts: Vec::new(),
            alarms: Vec::new(),
        }
    }

    /// Ingests one timestamp of readings; returns a fresh alarm if this
    /// sample completed a confirmed anomalous streak.
    pub fn ingest(&mut self, readings: &[f64]) -> Option<Alarm> {
        if !self.push(readings) {
            return None;
        }
        let mut x = Matrix::from_rows(&[self.window_row()]);
        self.view.scale_inplace(&mut x);
        let diagnosis = self.model.diagnose(&x).remove(0);
        self.apply_diagnosis(diagnosis)
    }

    /// Buffers one timestamp of readings; returns `true` when a full
    /// window is due for diagnosis (and resets the stride counter).
    ///
    /// Lower-level hook for batched callers: follow up with
    /// [`NodeMonitor::window_row`] and, once the model has run,
    /// [`NodeMonitor::apply_diagnosis`].
    pub fn push(&mut self, readings: &[f64]) -> bool {
        self.buffer.push(readings);
        self.ingested += 1;
        self.since_last += 1;
        if self.buffer.series_len() < self.config.window || self.since_last < self.config.stride {
            return false;
        }
        self.since_last = 0;
        true
    }

    /// Extracts the *unscaled* model-input row for the current window.
    /// Batched callers stack these rows into a matrix, scale it once via
    /// [`NodeMonitor::view`], and run the model over the whole batch.
    ///
    /// The reference path: it copies the window into a [`MultiSeries`]
    /// and extracts every metric.
    pub fn window_row(&self) -> Vec<f64> {
        let window = self.buffer.to_series();
        self.view.unscaled_row(self.extractor.as_ref(), &window, &stream_preprocess())
    }

    /// Zero-copy equivalent of [`NodeMonitor::window_row`]: extracts only
    /// the metrics the view selects, scattering straight into `out`
    /// through the cached [`ExtractPlan`]. Bit-identical to
    /// `window_row()` (pinned by a test below); the hot serve path calls
    /// this with a per-shard scratch so no per-window allocation remains.
    pub fn window_row_into(&self, scratch: &mut ExtractScratch, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.view.n_features(), 0.0);
        self.view.unscaled_row_into(
            self.extractor.as_ref(),
            &self.buffer,
            &stream_preprocess(),
            &self.plan,
            scratch,
            out,
        );
    }

    /// Records a window diagnosis and applies the hysteresis/confirm
    /// logic; returns a fresh alarm if this window completed a confirmed
    /// anomalous streak.
    pub fn apply_diagnosis(&mut self, diagnosis: Diagnosis) -> Option<Alarm> {
        let verdict = WindowVerdict { at: self.ingested, diagnosis: diagnosis.clone() };
        self.verdicts.push(verdict);

        let anomalous =
            diagnosis.label != "healthy" && diagnosis.confidence >= self.config.min_confidence;
        if !anomalous {
            self.streak.clear();
            return None;
        }
        // Streak must agree on the label to confirm.
        if self.streak.first().map(|d| d.label.as_str()) != Some(diagnosis.label.as_str()) {
            self.streak.clear();
        }
        self.streak.push(diagnosis.clone());
        if self.streak.len() >= self.config.confirm {
            let confidence =
                self.streak.iter().map(|d| d.confidence).sum::<f64>() / self.streak.len() as f64;
            let alarm = Alarm { at: self.ingested, label: diagnosis.label, confidence };
            self.alarms.push(alarm.clone());
            self.streak.clear();
            return Some(alarm);
        }
        None
    }

    /// The deployed model.
    pub fn model(&self) -> &Arc<DiagnosisModel> {
        &self.model
    }

    /// Atomically swaps in a refreshed model. Buffered telemetry, the
    /// verdict history and the alarm streak are untouched; the next
    /// window is diagnosed by the new model.
    pub fn set_model(&mut self, model: Arc<DiagnosisModel>) {
        self.model = model;
    }

    /// The monitor's feature view (shared with batched callers so that
    /// batch scaling matches the single-node path exactly).
    pub fn view(&self) -> &FeatureView {
        &self.view
    }

    /// The monitoring configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// All window verdicts so far.
    pub fn verdicts(&self) -> &[WindowVerdict] {
        &self.verdicts
    }

    /// All alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Samples ingested so far.
    pub fn ingested(&self) -> usize {
        self.ingested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{FeatureMethod, System, SystemData};
    use crate::split::{prepare_split, SplitConfig};
    use alba_features::{Mvts, TsFresh};
    use alba_ml::{Classifier, FittedModel, ForestParams, RandomForest};
    use alba_telemetry::{
        find_application, generate_run, AnomalyKind, Injection, NoiseConfig, RunConfig, Scale,
        SignatureConfig,
    };

    /// Monitors must be shardable across worker threads.
    #[test]
    fn monitor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NodeMonitor>();
    }

    /// Trains a small deployable model and returns everything a monitor
    /// needs.
    fn deployable() -> (Arc<DiagnosisModel>, FeatureView) {
        deployable_with(FeatureMethod::Mvts)
    }

    /// [`deployable`] on features of `method`, chi²-selected to the top 300.
    fn deployable_with(method: FeatureMethod) -> (Arc<DiagnosisModel>, FeatureView) {
        let data = SystemData::generate(System::Volta, method, Scale::Smoke, 61);
        let split = prepare_split(
            &data.dataset,
            &SplitConfig { train_fraction: 0.6, top_k_features: 300 },
            61,
        );
        let mut f = RandomForest::new(ForestParams { n_estimators: 15, ..ForestParams::default() });
        f.fit(&split.train.x, &split.train.y, split.train.n_classes());
        let model =
            DiagnosisModel::new(FittedModel::Forest(f), split.train.encoder.names().to_vec());
        (Arc::new(model), split.feature_view())
    }

    fn run_stream(
        injection: Option<Injection>,
        cfg: MonitorConfig,
    ) -> (Vec<WindowVerdict>, Vec<Alarm>) {
        let (model, view) = deployable();
        let campaign = System::Volta.campaign(Scale::Smoke, 61);
        let catalog = campaign.catalog();
        let run = generate_run(
            &RunConfig {
                app: find_application("BT").unwrap(),
                input_deck: 0,
                node_count: 1,
                duration_s: 200,
                injection,
                run_id: 1,
                seed: 99,
            },
            &catalog,
            &SignatureConfig::default(),
            &NoiseConfig::testbed(),
        );
        let series = &run[0].series;
        let mut monitor =
            NodeMonitor::new(model, Arc::new(Mvts), series.metrics.clone(), view, cfg);
        let mut row = vec![0.0; series.n_metrics()];
        for t in 0..series.len() {
            for (m, r) in row.iter_mut().enumerate() {
                *r = series.metric(m)[t];
            }
            monitor.ingest(&row);
        }
        (monitor.verdicts().to_vec(), monitor.alarms().to_vec())
    }

    #[test]
    fn healthy_stream_raises_no_alarm() {
        let (verdicts, alarms) = run_stream(None, MonitorConfig::default());
        assert!(!verdicts.is_empty(), "windows were diagnosed");
        assert!(alarms.is_empty(), "healthy run must not alarm (got {alarms:?})");
    }

    #[test]
    fn memleak_stream_raises_a_confirmed_alarm() {
        let (verdicts, alarms) = run_stream(
            Some(Injection::new(AnomalyKind::MemLeak, 100)),
            MonitorConfig { confirm: 2, ..MonitorConfig::default() },
        );
        assert!(!verdicts.is_empty());
        assert!(!alarms.is_empty(), "a full-intensity memleak must alarm");
        assert_eq!(alarms[0].label, "memleak");
        assert!(alarms[0].confidence >= 0.5);
    }

    #[test]
    fn stride_controls_diagnosis_cadence() {
        let (verdicts, _) =
            run_stream(None, MonitorConfig { window: 60, stride: 30, ..MonitorConfig::default() });
        // ~232 total samples (incl. transients): first window at 60, then
        // every 30 samples.
        let expected = 1 + (230usize.saturating_sub(60)) / 30;
        assert!(
            (verdicts.len() as i64 - expected as i64).abs() <= 2,
            "verdicts {} expected ~{expected}",
            verdicts.len()
        );
    }

    /// The batched hooks (`push` / `window_row` / `apply_diagnosis`) must
    /// produce exactly the verdicts and alarms of the one-shot `ingest`.
    #[test]
    fn batched_hooks_match_ingest() {
        let (model, view) = deployable();
        let campaign = System::Volta.campaign(Scale::Smoke, 61);
        let catalog = campaign.catalog();
        let run = generate_run(
            &RunConfig {
                app: find_application("BT").unwrap(),
                input_deck: 0,
                node_count: 1,
                duration_s: 200,
                injection: Some(Injection::new(AnomalyKind::MemLeak, 100)),
                run_id: 1,
                seed: 99,
            },
            &catalog,
            &SignatureConfig::default(),
            &NoiseConfig::testbed(),
        );
        let series = &run[0].series;
        let cfg = MonitorConfig { confirm: 2, ..MonitorConfig::default() };
        let mut direct = NodeMonitor::new(
            Arc::clone(&model),
            Arc::new(Mvts),
            series.metrics.clone(),
            view.clone(),
            cfg.clone(),
        );
        let mut hooked =
            NodeMonitor::new(Arc::clone(&model), Arc::new(Mvts), series.metrics.clone(), view, cfg);
        let mut row = vec![0.0; series.n_metrics()];
        for t in 0..series.len() {
            for (m, r) in row.iter_mut().enumerate() {
                *r = series.metric(m)[t];
            }
            let a = direct.ingest(&row);
            let b = if hooked.push(&row) {
                let mut x = Matrix::from_rows(&[hooked.window_row()]);
                hooked.view().scale_inplace(&mut x);
                let d = hooked.model().diagnose(&x).remove(0);
                hooked.apply_diagnosis(d)
            } else {
                None
            };
            assert_eq!(a, b, "divergence at sample {t}");
        }
        assert_eq!(direct.verdicts().len(), hooked.verdicts().len());
        assert_eq!(direct.alarms(), hooked.alarms());
    }

    /// The planned zero-copy row must be bit-identical to the
    /// materialised `window_row` at every diagnosis point of a stream,
    /// for both extractors' chi²-selected views.
    #[test]
    fn window_row_into_matches_window_row() {
        let campaign = System::Volta.campaign(Scale::Smoke, 61);
        let catalog = campaign.catalog();
        let run = generate_run(
            &RunConfig {
                app: find_application("BT").unwrap(),
                input_deck: 0,
                node_count: 1,
                duration_s: 150,
                injection: Some(Injection::new(AnomalyKind::MemLeak, 80)),
                run_id: 1,
                seed: 7,
            },
            &catalog,
            &SignatureConfig::default(),
            &NoiseConfig::testbed(),
        );
        let series = &run[0].series;
        for method in [FeatureMethod::Mvts, FeatureMethod::TsFresh] {
            let (model, view) = deployable_with(method);
            let extractor: Arc<dyn FeatureExtractor + Send + Sync> = match method {
                FeatureMethod::Mvts => Arc::new(Mvts),
                FeatureMethod::TsFresh => Arc::new(TsFresh),
            };
            let mut monitor = NodeMonitor::new(
                model,
                extractor,
                series.metrics.clone(),
                view,
                MonitorConfig::default(),
            );
            let mut scratch = ExtractScratch::default();
            let mut got = Vec::new();
            let mut row = vec![0.0; series.n_metrics()];
            let mut checked = 0;
            for t in 0..series.len() {
                for (m, r) in row.iter_mut().enumerate() {
                    *r = series.metric(m)[t];
                }
                if monitor.push(&row) {
                    let golden = monitor.window_row();
                    monitor.window_row_into(&mut scratch, &mut got);
                    assert_eq!(golden.len(), got.len());
                    for (i, (a, b)) in golden.iter().zip(&got).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{} t={t} col={i}: {a} vs {b}",
                            method.name()
                        );
                    }
                    checked += 1;
                }
            }
            assert!(checked > 3, "stream produced enough windows to compare");
        }
    }

    fn catalog(n: usize) -> Vec<MetricDef> {
        (0..n)
            .map(|m| MetricDef {
                name: format!("m{m}"),
                subsystem: "test".to_string(),
                kind: if m % 3 == 0 { MetricKind::Counter } else { MetricKind::Gauge },
            })
            .collect()
    }

    /// Reading `m` at time `t`: cumulative counters, oscillating gauges
    /// and scattered NaN gaps (including whole-row gaps).
    fn reading(t: usize, m: usize) -> f64 {
        if (t * 7 + m * 3).is_multiple_of(13) || t % 29 == 17 {
            f64::NAN
        } else if m.is_multiple_of(3) {
            (t * (m + 1)) as f64 * 1.5
        } else {
            ((t as f64) * 0.37 + m as f64).sin() * 10.0 + 0.1 * m as f64
        }
    }

    /// The slab must lend exactly the samples the old `Vec<Vec<f64>>`
    /// push + `drain` window held, bit for bit, after every push.
    #[test]
    fn slab_matches_drain_reference_bitwise() {
        let metrics = catalog(5);
        for window in [8usize, 60, 61] {
            for stride in [1, 10, window] {
                let mut slab = WindowSlab::new(metrics.clone(), window, stride);
                let mut naive: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
                let mut compactions = 0;
                for t in 0..window + 4 * (stride + 1) + 3 {
                    let row: Vec<f64> = (0..metrics.len()).map(|m| reading(t, m)).collect();
                    let end_before = slab.end;
                    slab.push(&row);
                    compactions += usize::from(slab.end <= end_before);
                    for (series, &v) in naive.iter_mut().zip(&row) {
                        series.push(v);
                        if series.len() > window {
                            series.drain(..series.len() - window);
                        }
                    }
                    assert_eq!(slab.series_len(), naive[0].len(), "w={window} s={stride} t={t}");
                    for (m, want) in naive.iter().enumerate() {
                        let got = SeriesSource::metric(&slab, m);
                        assert_eq!(got.len(), want.len());
                        for (i, (a, b)) in got.iter().zip(want).enumerate() {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "w={window} s={stride} t={t} m={m} i={i}: {a} vs {b}"
                            );
                        }
                        assert_eq!(slab.metric_kind(m), metrics[m].kind);
                    }
                }
                assert!(compactions >= 3, "w={window} s={stride}: {compactions} compactions");
            }
        }
    }

    /// With no metrics there is no window to fill: as with an empty
    /// `MultiSeries`, the monitor never reports a window due.
    #[test]
    fn empty_catalog_never_completes_a_window() {
        let (model, view) = deployable();
        let mut monitor =
            NodeMonitor::new(model, Arc::new(Mvts), vec![], view, MonitorConfig::default());
        for _ in 0..500 {
            assert!(!monitor.push(&[]));
        }
        assert_eq!(monitor.ingested(), 500);
    }

    #[test]
    #[should_panic(expected = "sample width mismatch")]
    fn width_mismatch_panics() {
        let (model, view) = deployable();
        let mut monitor =
            NodeMonitor::new(model, Arc::new(Mvts), catalog(4), view, MonitorConfig::default());
        monitor.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let (model, view) = deployable();
        let _ = NodeMonitor::new(
            model,
            Arc::new(Mvts),
            vec![],
            view,
            MonitorConfig { stride: 0, ..MonitorConfig::default() },
        );
    }
}
