//! Worker shards: each shard owns a disjoint set of node monitors and
//! diagnoses their due windows as one *batch*.
//!
//! The per-node [`NodeMonitor`] hooks (`push` / `window_row_into` /
//! `apply_diagnosis`) let a shard buffer samples node-by-node but run
//! feature scaling and model inference once per batch of windows
//! (`batched = false` runs one node at a time instead; perfbench's
//! traced `ml.predict_rows_per_call` shows the batch size). Shards are
//! `Send`, so the service moves them onto its `alba-par` worker pool
//! every tick; each shard's report is assembled in deterministic node
//! order regardless of which thread ran it. Parallelism lives at that
//! one level: extraction and forest inference inside a shard run in
//! the worker's own thread and spawn nothing.
//!
//! A shard builds one template monitor and clones it for every node, so
//! its monitors share one pipeline (extractor, view, plan, read list,
//! config); the template also rebuilds the monitors on
//! [`Shard::respawn`].

use crate::replay::TelemetrySample;
use alba_active::uncertainty_score;
use alba_data::{Matrix, MetricDef};
use alba_features::{ExtractScratch, FeatureExtractor, FeatureView};
use alba_ml::{argmax, Diagnosis, DiagnosisModel};
use alba_obs::{Counter, Histogram, Obs};
use albadross::{Alarm, MonitorConfig, NodeMonitor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// An alarm attributed to a fleet node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeAlarm {
    /// Fleet node index.
    pub node: usize,
    /// The confirmed alarm.
    pub alarm: Alarm,
}

/// One diagnosed window, with everything the feedback loop needs.
#[derive(Clone, Debug)]
pub struct WindowOutcome {
    /// Fleet node index.
    pub node: usize,
    /// Tick of the sample that completed the window.
    pub at: usize,
    /// The model's verdict.
    pub diagnosis: Diagnosis,
    /// Least-confidence uncertainty (`1 - max_k p_k`) of the verdict.
    pub uncertainty: f64,
    /// The scaled model-input row (reused for retraining).
    pub row: Vec<f64>,
}

/// What one shard produced during one service tick.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Alarms confirmed this tick.
    pub alarms: Vec<NodeAlarm>,
    /// Every window diagnosed this tick.
    pub windows: Vec<WindowOutcome>,
}

/// Per-shard throughput counters. Timing distributions (busy time,
/// queueing latency) live in the shard's [`Histogram`]s, not here —
/// see [`Shard::busy_histogram`] and [`Shard::latency_histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Samples ingested into this shard's monitors.
    pub samples: u64,
    /// Samples addressed to a node this shard does not own — skipped
    /// (and counted in the obs registry), never a panic.
    pub misrouted: u64,
    /// Windows diagnosed.
    pub windows: u64,
    /// Model invocations (1 per non-empty batch when batched; 1 per
    /// window otherwise).
    pub batches: u64,
    /// Largest single inference batch.
    pub max_batch: usize,
    /// Alarms confirmed.
    pub alarms: u64,
    /// Samples whose reading vector did not match the metric catalog —
    /// skipped (and counted), never an index panic inside the monitor.
    pub malformed: u64,
}

/// A worker shard owning the monitors of a disjoint node subset.
#[derive(Clone)]
pub struct Shard {
    id: usize,
    nodes: Vec<usize>,
    // alba-lint: allow(no-unordered-iteration) reason="lookup-only map (node id -> slot); never iterated, so ordering cannot leak into outputs"
    local: HashMap<usize, usize>,
    monitors: Vec<NodeMonitor>,
    /// A never-pushed monitor running the current model: every node's
    /// monitor is a clone of it, sharing its pipeline.
    template: NodeMonitor,
    batched: bool,
    /// Injected-fault flag: the next [`Shard::process`] call panics
    /// (exercising the service's supervisor) instead of processing.
    panic_armed: bool,
    /// Reusable extraction buffers — one per shard, so the planned
    /// zero-copy path allocates nothing per window.
    scratch: ExtractScratch,
    stats: ShardStats,
    /// Wall-time per [`Shard::process`] call, nanoseconds.
    busy: Histogram,
    /// Queueing delay (service tick - sample tick) per window, ticks.
    latency: Histogram,
    obs: Obs,
    /// `"0"`, `"1"`, ... — the obs label value for this shard.
    label: String,
    misrouted_c: Counter,
    /// `shard_malformed_total`, registered on the first malformed sample
    /// (so a clean run's exposition does not list it) and cached after.
    malformed_c: Option<Counter>,
}

impl Shard {
    /// Builds the shard and one monitor per assigned node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        nodes: Vec<usize>,
        model: Arc<DiagnosisModel>,
        extractor: Arc<dyn FeatureExtractor + Send + Sync>,
        metrics: &[MetricDef],
        view: FeatureView,
        monitor: &MonitorConfig,
        batched: bool,
        obs: Obs,
    ) -> Self {
        let template = NodeMonitor::new(model, extractor, metrics.to_vec(), view, monitor.clone());
        Self::from_template(id, nodes, template, batched, obs)
    }

    /// Builds the shard with one clone of `template` per assigned node.
    fn from_template(
        id: usize,
        nodes: Vec<usize>,
        template: NodeMonitor,
        batched: bool,
        obs: Obs,
    ) -> Self {
        let monitors = vec![template.clone(); nodes.len()];
        let local = nodes.iter().enumerate().map(|(l, &n)| (n, l)).collect();
        let label = id.to_string();
        let misrouted_c = obs.counter("shard_misrouted_total", &[("shard", &label)]);
        Self {
            id,
            nodes,
            local,
            monitors,
            template,
            batched,
            panic_armed: false,
            scratch: ExtractScratch::default(),
            stats: ShardStats::default(),
            busy: Histogram::new(),
            latency: Histogram::new(),
            obs,
            label,
            misrouted_c,
            malformed_c: None,
        }
    }

    /// Arms an injected panic: the next [`Shard::process`] call aborts
    /// via `panic!` before touching any monitor, exactly like a worker
    /// crashing between batches.
    pub fn arm_panic(&mut self) {
        self.panic_armed = true;
    }

    /// Rebuilds this shard after a panic: fresh monitors (in-memory
    /// window state is lost, as it would be in a real worker restart)
    /// running the shard's current model, with the lifetime counters and
    /// timing histograms carried over so stats never regress.
    pub fn respawn(&self) -> Shard {
        let mut fresh = Shard::from_template(
            self.id,
            self.nodes.clone(),
            self.template.clone(),
            self.batched,
            self.obs.clone(),
        );
        fresh.stats = self.stats;
        fresh.busy = self.busy.clone();
        fresh.latency = self.latency.clone();
        fresh
    }

    /// Shard index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Fleet nodes assigned to this shard.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// This shard's counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Wall-time distribution of [`Shard::process`] calls (nanoseconds).
    pub fn busy_histogram(&self) -> &Histogram {
        &self.busy
    }

    /// Queueing-delay distribution per diagnosed window (ticks between
    /// sample emission and diagnosis).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// One node's monitor (by fleet node index).
    pub fn monitor(&self, node: usize) -> &NodeMonitor {
        &self.monitors[self.local[&node]]
    }

    /// Hot-swaps the diagnosis model on the shard and every monitor.
    pub fn set_model(&mut self, model: Arc<DiagnosisModel>) {
        for m in &mut self.monitors {
            m.set_model(Arc::clone(&model));
        }
        self.template.set_model(model);
    }

    /// Ingests this tick's samples for the shard's nodes and diagnoses
    /// every due window — in one batched model call when `batched`.
    ///
    /// `now` is the service tick, used for latency accounting only.
    pub fn process(&mut self, samples: &[TelemetrySample], now: usize) -> ShardReport {
        if self.panic_armed {
            // Injected fault: die before mutating any monitor, so the
            // supervisor's respawn sees a consistent (pre-tick) shard.
            self.panic_armed = false;
            std::panic::panic_any(crate::chaos::InjectedPanic);
        }
        // Busy time against the obs clock: under a `TickClock` (the
        // replay-identity configuration) every duration is 0 no matter
        // which worker thread ran the shard, so the exposed histograms
        // stay byte-identical across worker counts; a `WallClock`
        // records real nanoseconds.
        let start = self.obs.now_ns();
        let mut report = ShardReport::default();

        // Buffer samples; collect the windows that came due.
        let extract_span =
            self.obs.span("shard_stage_ns", &[("stage", "extract"), ("shard", &self.label)]);
        let mut due: Vec<(usize, usize)> = Vec::new(); // (local monitor, sample tick)
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for s in samples {
            // A sample addressed to a foreign node is an upstream routing
            // bug; one bad packet must not panic the whole service.
            let Some(&l) = self.local.get(&s.node) else {
                self.stats.misrouted += 1;
                self.misrouted_c.inc();
                continue;
            };
            // A reading vector that disagrees with the catalog would
            // panic inside the monitor; count and skip.
            if s.values.len() != self.template.width() {
                self.stats.malformed += 1;
                self.malformed_c
                    .get_or_insert_with(|| {
                        self.obs.counter("shard_malformed_total", &[("shard", &self.label)])
                    })
                    .inc();
                continue;
            }
            self.stats.samples += 1;
            // alba-lint: allow(reachable-panic) reason="one monitor per lane by construction"
            if self.monitors[l].push(&s.values) {
                let mut row = Vec::new();
                // alba-lint: allow(reachable-panic) reason="one monitor per lane by construction"
                self.monitors[l].window_row_into(&mut self.scratch, &mut row);
                rows.push(row);
                due.push((l, s.at));
            }
        }
        extract_span.finish();
        if due.is_empty() {
            self.busy.record(self.obs.now_ns().saturating_sub(start));
            return report;
        }

        // Scale + infer: one call over the whole batch, or window-at-a-time.
        let infer_span =
            self.obs.span("shard_stage_ns", &[("stage", "infer"), ("shard", &self.label)]);
        let (view, model) = (self.template.view(), self.template.model());
        let proba: Vec<Vec<f64>> = if self.batched {
            let mut x = Matrix::from_rows(&rows);
            view.scale_inplace(&mut x);
            for (r, row) in rows.iter_mut().enumerate() {
                row.copy_from_slice(x.row(r));
            }
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(rows.len());
            let p = model.probabilities(&x);
            (0..p.rows()).map(|r| p.row(r).to_vec()).collect()
        } else {
            self.stats.batches += rows.len() as u64;
            self.stats.max_batch = self.stats.max_batch.max(1);
            rows.iter_mut()
                .map(|row| {
                    let mut x = Matrix::from_rows(std::slice::from_ref(row));
                    view.scale_inplace(&mut x);
                    row.copy_from_slice(x.row(0));
                    model.probabilities(&x).row(0).to_vec()
                })
                .collect()
        };
        infer_span.finish();

        // Verdicts + hysteresis, in sample order.
        let names = &self.template.model().class_names;
        for (((l, at), row), p) in due.into_iter().zip(rows).zip(&proba) {
            let best = argmax(p);
            // alba-lint: allow(reachable-panic) reason="best < p.len() == names.len(): the model's output is nonempty and one column per class"
            let diagnosis = Diagnosis { label: names[best].clone(), confidence: p[best] };
            self.stats.windows += 1;
            self.latency.record((now.saturating_sub(at)) as u64);
            // alba-lint: allow(reachable-panic) reason="one monitor per lane by construction"
            if let Some(alarm) = self.monitors[l].apply_diagnosis(diagnosis.clone()) {
                self.stats.alarms += 1;
                // alba-lint: allow(reachable-panic) reason="lane indices map 1:1 onto nodes"
                report.alarms.push(NodeAlarm { node: self.nodes[l], alarm });
            }
            report.windows.push(WindowOutcome {
                // alba-lint: allow(reachable-panic) reason="lane indices map 1:1 onto nodes"
                node: self.nodes[l],
                at,
                uncertainty: uncertainty_score(p),
                diagnosis,
                row,
            });
        }
        self.busy.record(self.obs.now_ns().saturating_sub(start));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
    }
}
