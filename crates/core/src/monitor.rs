//! Online monitoring — the paper's deployment scenario (Sec. VI future
//! work: "a scenario where ALBADross is deployed on a production HPC
//! system").
//!
//! A [`NodeMonitor`] buffers one node's telemetry sample-by-sample in a
//! sliding window, and periodically extracts features and runs the
//! deployed [`DiagnosisModel`] over the window — turning the offline
//! per-run diagnosis of the paper into a continuous per-node health signal
//! with hysteresis (an alarm is raised only after `confirm` consecutive
//! anomalous windows, suppressing one-off glitches).
//!
//! Monitors own their model through `Arc`, so they are `Send` (the fleet
//! service shards them across worker threads) and the model can be
//! hot-swapped atomically via [`NodeMonitor::set_model`] without touching
//! buffered telemetry or the alarm streak. Callers drive the
//! [`NodeMonitor::push`] / [`NodeMonitor::window_row_into`] /
//! [`NodeMonitor::apply_diagnosis`] hooks, so feature extraction and
//! inference can run once per *batch* of nodes.
//!
//! What stays fixed for a monitor's lifetime — the extractor, the feature
//! view, its extraction plan, the metrics the plan reads and the config —
//! lives in one `Arc` that every clone of a monitor shares; per node there
//! is only the window, the model handle and the verdict state.
//!
//! The window lives in a fixed, metric-major slab (`WindowSlab`) that
//! holds only the metrics the plan reads: `push` gathers those readings
//! through one index list, and only every `stride + 1` samples moves the
//! newest `window - 1` samples back to the front, so the hot path neither
//! allocates nor memmoves a whole window per sample, while extraction
//! still borrows one contiguous slice per metric.

use std::sync::Arc;

use alba_data::{MetricDef, MetricKind};
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

/// One node's sliding window over the metrics its plan reads: every slab
/// metric owns `window + stride` consecutive slots of one buffer, and the
/// window is the newest `min(end, window)` samples before `end` in each
/// metric's slots (`end` never drops below `window` once the window has
/// filled). When the slots are full, the newest `window - 1` samples move
/// back to the front, so a compaction happens once every `stride + 1`
/// pushes and the slab never grows.
#[derive(Clone)]
struct WindowSlab {
    window: usize,
    /// Slots per metric (`window + stride`).
    cap: usize,
    /// Slab metric `i`'s slots are `data[i * cap..(i + 1) * cap]`.
    data: Vec<f64>,
    /// One past the newest sample, in every metric's slots (stays 0 for
    /// an empty catalog, which therefore never fills a window).
    end: usize,
}

impl WindowSlab {
    fn new(n_metrics: usize, window: usize, stride: usize) -> Self {
        let cap = window + stride;
        Self { data: vec![0.0; n_metrics * cap], window, cap, end: 0 }
    }

    /// Appends one timestamp: slab metric `i` takes `readings[reads[i]]`.
    /// Drops the oldest sample once the window is full.
    fn push(&mut self, readings: &[f64], reads: &[usize]) {
        if readings.is_empty() {
            return;
        }
        if self.end == self.cap {
            let keep = self.window - 1;
            for slots in self.data.chunks_exact_mut(self.cap) {
                slots.copy_within(self.cap - keep.., 0);
            }
            self.end = keep;
        }
        for (slots, &m) in self.data.chunks_exact_mut(self.cap).zip(reads) {
            slots[self.end] = readings[m];
        }
        self.end += 1;
    }

    /// Samples in the window.
    fn len(&self) -> usize {
        self.end.min(self.window)
    }

    /// Slab metric `i`'s window.
    fn metric(&self, i: usize) -> &[f64] {
        let base = i * self.cap;
        &self.data[base + self.end - self.len()..base + self.end]
    }
}

/// What every clone of a monitor shares for its lifetime.
struct Pipeline {
    extractor: Arc<dyn FeatureExtractor + Send + Sync>,
    view: FeatureView,
    /// The view's plan over slab metrics: column `m·npm + k` of the view
    /// reads slab metric `local(m)`.
    plan: ExtractPlan,
    /// Catalog index of each slab metric: the distinct metrics of
    /// `view.selected()`, ascending.
    reads: Vec<usize>,
    /// Kind of every catalog metric; its length is the sample width.
    /// Catalog-wide, not per read, because a view may name metrics a
    /// catalog lacks: such a monitor fails only once it reads them.
    kinds: Vec<MetricKind>,
    config: MonitorConfig,
}

/// A slab lent to extraction: slab metric `i` is catalog metric
/// `reads[i]`.
struct Window<'a> {
    slab: &'a WindowSlab,
    pipe: &'a Pipeline,
}

impl SeriesSource for Window<'_> {
    fn n_metrics(&self) -> usize {
        self.pipe.reads.len()
    }

    fn series_len(&self) -> usize {
        self.slab.len()
    }

    fn metric(&self, i: usize) -> &[f64] {
        self.slab.metric(i)
    }

    fn metric_kind(&self, i: usize) -> MetricKind {
        self.pipe.kinds[self.pipe.reads[i]]
    }
}

/// Sliding-window online diagnoser for one compute node.
#[derive(Clone)]
pub struct NodeMonitor {
    model: Arc<DiagnosisModel>,
    pipe: Arc<Pipeline>,
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
    /// Creates a monitor for one node whose samples carry one reading per
    /// entry of `metrics`. Clone it for further nodes of the same
    /// catalog, view and config: clones share everything but the window,
    /// the model handle and the verdicts.
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
        let npm = extractor.n_features_per_metric();
        let mut reads: Vec<usize> = view.selected().iter().map(|&c| c / npm).collect();
        reads.sort_unstable();
        reads.dedup();
        if let Some(&m) = reads.last() {
            assert!(
                m < metrics.len(),
                "the view reads metric {m}, but the catalog has {} metrics",
                metrics.len()
            );
        }
        let local: Vec<usize> = view
            .selected()
            .iter()
            .map(|&c| reads.partition_point(|&m| m < c / npm) * npm + c % npm)
            .collect();
        let plan = ExtractPlan::new(&local, npm);
        let buffer = WindowSlab::new(reads.len(), config.window, config.stride);
        let kinds = metrics.iter().map(|d| d.kind).collect();
        let pipe = Arc::new(Pipeline { extractor, view, plan, reads, kinds, config });
        Self {
            model,
            pipe,
            buffer,
            since_last: 0,
            ingested: 0,
            streak: Vec::new(),
            verdicts: Vec::new(),
            alarms: Vec::new(),
        }
    }

    /// Buffers one timestamp of readings (one per catalog metric);
    /// returns `true` when a full window is due for diagnosis (and resets
    /// the stride counter).
    ///
    /// Follow up with [`NodeMonitor::window_row_into`] and, once the
    /// model has run, [`NodeMonitor::apply_diagnosis`].
    ///
    /// # Panics
    /// Panics when `readings.len()` differs from the catalog width.
    pub fn push(&mut self, readings: &[f64]) -> bool {
        assert_eq!(readings.len(), self.pipe.kinds.len(), "sample width mismatch");
        self.buffer.push(readings, &self.pipe.reads);
        self.ingested += 1;
        self.since_last += 1;
        if self.buffer.len() < self.pipe.config.window || self.since_last < self.pipe.config.stride
        {
            return false;
        }
        self.since_last = 0;
        true
    }

    /// Extracts the *unscaled* model-input row for the current window
    /// into `out`, extracting only the metrics the view selects and
    /// scattering straight from the slab through the shared
    /// [`ExtractPlan`]. Bit-identical to [`FeatureView::unscaled_row`]
    /// over the materialised window (pinned by a test below). Batched
    /// callers stack these rows into a matrix, scale it once via
    /// [`NodeMonitor::view`], and run the model over the whole batch;
    /// the serve path passes a per-shard scratch so no per-window
    /// allocation remains.
    pub fn window_row_into(&self, scratch: &mut ExtractScratch, out: &mut Vec<f64>) {
        let pipe = &*self.pipe;
        out.clear();
        out.resize(pipe.view.n_features(), 0.0);
        pipe.view.unscaled_row_into(
            pipe.extractor.as_ref(),
            &Window { slab: &self.buffer, pipe },
            &stream_preprocess(),
            &pipe.plan,
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
            diagnosis.label != "healthy" && diagnosis.confidence >= self.pipe.config.min_confidence;
        if !anomalous {
            self.streak.clear();
            return None;
        }
        // Streak must agree on the label to confirm.
        if self.streak.first().map(|d| d.label.as_str()) != Some(diagnosis.label.as_str()) {
            self.streak.clear();
        }
        self.streak.push(diagnosis.clone());
        if self.streak.len() >= self.pipe.config.confirm {
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

    /// The monitor's feature view: callers scale the rows of
    /// [`NodeMonitor::window_row_into`] with it.
    pub fn view(&self) -> &FeatureView {
        &self.pipe.view
    }

    /// The monitoring configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.pipe.config
    }

    /// Readings per sample [`NodeMonitor::push`] expects (the catalog
    /// width).
    pub fn width(&self) -> usize {
        self.pipe.kinds.len()
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
    use alba_data::{Matrix, MultiSeries};
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

    /// One sample through the hooks, as the single-node deployment
    /// drives them: push, extract, scale, diagnose, apply.
    fn ingest(
        monitor: &mut NodeMonitor,
        scratch: &mut ExtractScratch,
        readings: &[f64],
    ) -> Option<Alarm> {
        if !monitor.push(readings) {
            return None;
        }
        let mut row = Vec::new();
        monitor.window_row_into(scratch, &mut row);
        let mut x = Matrix::from_rows(&[row]);
        monitor.view().scale_inplace(&mut x);
        let diagnosis = monitor.model().diagnose(&x).remove(0);
        monitor.apply_diagnosis(diagnosis)
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
        let mut scratch = ExtractScratch::default();
        let mut row = vec![0.0; series.n_metrics()];
        for t in 0..series.len() {
            for (m, r) in row.iter_mut().enumerate() {
                *r = series.metric(m)[t];
            }
            ingest(&mut monitor, &mut scratch, &row);
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

    /// The planned zero-copy row must be bit-identical to
    /// `FeatureView::unscaled_row` over the stream's last `window` samples
    /// of every catalog metric, at every diagnosis point, for both
    /// extractors' chi²-selected views. The reference never touches the
    /// slab, so this also checks the gather onto the plan's metrics.
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
                Arc::clone(&extractor),
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
                    let start = t + 1 - MonitorConfig::default().window;
                    let window = MultiSeries {
                        metrics: series.metrics.clone(),
                        values: (0..series.n_metrics())
                            .map(|m| series.metric(m)[start..=t].to_vec())
                            .collect(),
                    };
                    let golden = monitor.view().unscaled_row(
                        extractor.as_ref(),
                        &window,
                        &stream_preprocess(),
                    );
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

    /// A slab over metrics 1 and 3 of a 5-metric catalog must lend
    /// exactly the samples the old `Vec<Vec<f64>>` push + `drain` window
    /// held for those metrics, bit for bit, after every push.
    #[test]
    fn slab_matches_drain_reference_bitwise() {
        let reads = [1usize, 3];
        for window in [8usize, 60, 61] {
            for stride in [1, 10, window] {
                let mut slab = WindowSlab::new(reads.len(), window, stride);
                let mut naive: Vec<Vec<f64>> = vec![Vec::new(); 5];
                let mut compactions = 0;
                for t in 0..window + 4 * (stride + 1) + 3 {
                    let row: Vec<f64> = (0..5).map(|m| reading(t, m)).collect();
                    let end_before = slab.end;
                    slab.push(&row, &reads);
                    compactions += usize::from(slab.end <= end_before);
                    for (series, &v) in naive.iter_mut().zip(&row) {
                        series.push(v);
                        if series.len() > window {
                            series.drain(..series.len() - window);
                        }
                    }
                    assert_eq!(slab.len(), naive[0].len(), "w={window} s={stride} t={t}");
                    for (i, &m) in reads.iter().enumerate() {
                        let (got, want) = (slab.metric(i), &naive[m]);
                        assert_eq!(got.len(), want.len());
                        for (j, (a, b)) in got.iter().zip(want).enumerate() {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "w={window} s={stride} t={t} m={m} j={j}: {a} vs {b}"
                            );
                        }
                    }
                }
                assert!(compactions >= 3, "w={window} s={stride}: {compactions} compactions");
            }
        }
    }

    /// A view that reads metrics the catalog lacks is rejected when the
    /// monitor is built, not on the first push.
    #[test]
    #[should_panic(expected = "but the catalog has 0 metrics")]
    fn empty_catalog_rejected() {
        let (model, view) = deployable();
        let _ = NodeMonitor::new(model, Arc::new(Mvts), vec![], view, MonitorConfig::default());
    }

    #[test]
    #[should_panic(expected = "sample width mismatch")]
    fn width_mismatch_panics() {
        let (model, view) = deployable();
        let metrics = catalog(System::Volta.campaign(Scale::Smoke, 61).catalog().len());
        let short = vec![1.0; metrics.len() - 1];
        let mut monitor =
            NodeMonitor::new(model, Arc::new(Mvts), metrics, view, MonitorConfig::default());
        monitor.push(&short);
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
