//! The two fleet-service workloads, `eclipse-fleet` and
//! `volta-wire-learn`: one driver thread calls `FleetService::tick_from`
//! back to back (a closed loop) over a fixed fleet shape and a
//! phase-staggered input schedule.
//!
//! * `eclipse-fleet` — 1488 Eclipse nodes, MVTS, no retraining. The
//!   benchmark generates the fleet's telemetry from the workload seed and
//!   hands each tick's samples to the service through the `NetFrontier`
//!   seam. The service's own (unused) replay is one window long.
//! * `volta-wire-learn` — 52 Volta nodes, TsFresh, active learning on.
//!   The service's own streams (so the labelling oracle's truth matches
//!   the input), each entered at an offset drawn from the workload seed,
//!   are sent over the alba-net wire protocol, client → gateway on the
//!   in-memory transport; the client is stepped outside the timed tick.
//!   Every retrain round journals its labels.

use crate::schedule::{expected_windows, mix, permutation, Fleet};
use crate::stats::{beyond, hist_delta, hist_quantile, median, quantile, Report};
use crate::sysinfo::{status_mib, Usage};
use crate::{complete_layers, layer_unit};
use alba_data::{Matrix, MetricDef};
use alba_features::{ExtractScratch, FeatureExtractor, FeatureView, Mvts, TsFresh};
use alba_ml::{Diagnosis, DiagnosisModel, Scores};
use alba_net::{Gateway, GatewayConfig, MemListener, TenantConfig, WireClient};
use alba_obs::{HistogramSnapshot, Obs};
use alba_serve::{
    FleetConfig, FleetService, IngestLayer, NetFrontier, ReplaySource, Retrainer, ServeConfig,
    Shard, TelemetrySample,
};
use alba_store::{LabelJournal, TelemetryStore, KIND_LABEL};
use alba_telemetry::Scale;
use albadross::{prepare_split, FeatureMethod, NodeMonitor, System, SystemData};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Eclipse production fleet size.
const ECLIPSE_NODES: usize = 1488;
/// Volta testbed fleet size.
const VOLTA_NODES: usize = 52;
/// Seeds of the services' configurations (and so of the campaigns their
/// models are trained on and, for Volta, of the streams it replays). The
/// input varies with the workload seed instead, so each workload's warm
/// store is populated once per build and a run's diagnosis quality does
/// not hinge on which handful of Volta nodes a seed makes anomalous.
const ECLIPSE_SERVICE_SEED: u64 = 1;
const VOLTA_SERVICE_SEED: u64 = 1;
/// Volta nodes enter their stream at a seeded offset below this many
/// samples, so every seed sends other readings through other windows.
const VOLTA_MAX_OFFSET: usize = 240;
/// Pool workers and shards: workers match the two cores the benchmark
/// was sized on (the count is recorded with every run).
const N_WORKERS: usize = 2;
const N_SHARDS: usize = 4;
/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;
/// Ticks measured at the least: ten lie beyond a p99, a hundred beyond
/// `tick_ms_p90`.
const MIN_MEASURED_TICKS: usize = 1000;
/// Volta active-learning loop. A round folds in six labels, the most
/// windows one tick can complete on 52 nodes at stride 10, so no tick
/// runs two rounds. Requests at uncertainty >= 0.3 spend the 20-round
/// budget early in the measured ticks on every seed tried, so every run
/// swaps 20 times: throughput stays comparable across seeds and ten swaps
/// lie beyond the swap-latency median.
const VOLTA_UNCERTAINTY: f64 = 0.3;
const VOLTA_RETRAIN_BATCH: usize = 6;
const VOLTA_MAX_RETRAINS: usize = 2 * MIN_BEYOND;
/// Wire tenant flow control: credits and queue far above one tick's
/// 52 samples, so a well-behaved client is never shed.
const WIRE_CREDITS: u32 = 256;

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `eclipse-fleet`.
    Eclipse,
    /// `volta-wire-learn`.
    Volta,
}

impl Kind {
    /// Measured ticks per second of `--seconds`. The tick count is fixed
    /// by the arguments, so equal arguments measure equal work; the rates
    /// size each workload's measured work for the run length the
    /// benchmark declares on a two-core host.
    fn ticks_per_second_arg(self) -> usize {
        match self {
            Kind::Eclipse => 50,
            Kind::Volta => 25,
        }
    }

    /// Schedule ticks before the wire delivers the first sample: the
    /// volta client spends tick 0 on its handshake.
    fn lag(self) -> usize {
        match self {
            Kind::Eclipse => 0,
            Kind::Volta => 1,
        }
    }
}

/// The sizing a `(workload, seconds)` pair implies.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    kind: Kind,
    /// Service ticks before measurement starts: the wire handshake and
    /// the first window fill (the pool starts on tick 0).
    warmup: usize,
    /// Measured ticks.
    measured: usize,
    /// Schedule ticks the input covers.
    horizon: usize,
}

impl Shape {
    /// Sizes a run of `kind` for `--seconds seconds`.
    pub fn new(kind: Kind, seconds: u64) -> Self {
        let monitor = albadross::MonitorConfig::default();
        let measured = (seconds as usize * kind.ticks_per_second_arg()).max(MIN_MEASURED_TICKS);
        // The first window completes on schedule tick `window - 1`.
        let fill = monitor.window - 1;
        Self { kind, warmup: kind.lag() + fill, measured, horizon: fill + measured }
    }

    fn total_ticks(&self) -> usize {
        self.warmup + self.measured
    }

    /// Schedule ticks whose samples reach the service within the run.
    fn schedule_ticks(&self) -> usize {
        self.total_ticks() - self.kind.lag()
    }

    /// The traced run's shape: the same input, measured over the fewest
    /// ticks that still put ten beyond every p99 (the traced process runs
    /// the schedule twice and a shadow pipeline besides).
    fn traced(self) -> Self {
        Self { measured: self.measured.min(MIN_MEASURED_TICKS), ..self }
    }
}

/// The service configuration of a run.
pub fn config(shape: &Shape, store: &Path) -> ServeConfig {
    let mut cfg = match shape.kind {
        Kind::Eclipse => {
            let mut c = ServeConfig::new(
                System::Eclipse,
                Scale::Default,
                ECLIPSE_NODES,
                ECLIPSE_SERVICE_SEED,
            );
            c.method = FeatureMethod::Mvts;
            c.max_retrains = 0;
            // Unused in frontier mode: one window, so setup decodes no
            // telemetry the run never reads.
            c.fleet.duration_override_s = Some(c.monitor.window);
            c
        }
        Kind::Volta => {
            let mut c =
                ServeConfig::new(System::Volta, Scale::Default, VOLTA_NODES, VOLTA_SERVICE_SEED);
            c.method = FeatureMethod::TsFresh;
            c.retrain_batch = VOLTA_RETRAIN_BATCH;
            c.max_retrains = VOLTA_MAX_RETRAINS;
            c.uncertainty_threshold = VOLTA_UNCERTAINTY;
            // Streams long enough for every node to cover the horizon
            // from its largest offset.
            c.fleet.duration_override_s = Some(shape.horizon + VOLTA_MAX_OFFSET);
            c
        }
    };
    cfg.n_shards = N_SHARDS;
    cfg.n_workers = N_WORKERS;
    cfg.store_dir = Some(store.display().to_string());
    cfg
}

/// Deletes every label journal in the store, so the next service starts
/// without folding earlier runs' rounds back in.
pub fn clear_journals(store: &Path) {
    let _ = std::fs::remove_dir_all(store.join("journals"));
}

/// Builds the service as a fresh run sees it and returns it with its
/// construction time.
pub fn build_service(cfg: &ServeConfig, store: &Path, obs: Obs) -> (FleetService, f64) {
    clear_journals(store);
    let t0 = Instant::now();
    let svc = FleetService::with_obs(cfg.clone(), obs);
    (svc, t0.elapsed().as_secs_f64())
}

/// The fleet input of a run.
fn make_fleet(shape: &Shape, seed: u64, svc: &FleetService) -> Fleet {
    let stride = svc.config().monitor.stride;
    match shape.kind {
        Kind::Eclipse => {
            let replay = ReplaySource::build(&FleetConfig::new(
                System::Eclipse,
                Scale::Default,
                ECLIPSE_NODES,
                mix(seed, 0xF1EE7),
            ));
            Fleet::chained(replay, stride, shape.horizon, seed)
        }
        Kind::Volta => {
            let mut rows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); svc.n_nodes()];
            for batch in svc.fleet_batches() {
                for s in batch {
                    rows[s.node].push(s.values);
                }
            }
            for (node, r) in rows.iter_mut().enumerate() {
                let offset = (mix(seed, node as u64) % VOLTA_MAX_OFFSET as u64) as usize;
                r.drain(..offset);
                r.truncate(shape.horizon);
                assert_eq!(r.len(), shape.horizon, "node {node}'s stream is too short");
            }
            let labels = (0..svc.n_nodes()).map(|n| svc.truth(n).to_string()).collect();
            Fleet::single(rows, labels, stride, shape.horizon)
        }
    }
}

/// How samples reach the service.
enum Feed {
    /// In process: each tick's batch is handed over through the seam.
    Seam { next: Vec<TelemetrySample> },
    /// Over the wire: a client stepped outside the timed tick, and the
    /// gateway pumped and drained inside it.
    Wire { client: Box<WireClient>, gateway: Box<Gateway> },
}

impl Feed {
    fn new(kind: Kind, fleet: &Fleet) -> Self {
        match kind {
            Kind::Eclipse => Feed::Seam { next: Vec::new() },
            Kind::Volta => {
                // Tick 0 is the handshake; schedule tick t goes out at t + 1.
                let mut sends = vec![Vec::new()];
                sends.extend((0..fleet.horizon()).map(|t| fleet.batch(t)));
                let (listener, dialer) = MemListener::new(1 << 22);
                let mut tenant = TenantConfig::new("fleet", "fleet-token");
                tenant.initial_credits = WIRE_CREDITS;
                tenant.queue_capacity = WIRE_CREDITS as usize;
                let gateway = Gateway::new(GatewayConfig::new(vec![tenant]), Box::new(listener));
                let client = WireClient::new(
                    Box::new(move || Box::new(dialer.dial())),
                    "fleet",
                    "fleet-token",
                    sends,
                );
                Feed::Wire { client: Box::new(client), gateway: Box::new(gateway) }
            }
        }
    }

    /// Untimed work before tick `now`: prepare the batch or step the client.
    fn prepare(&mut self, fleet: &Fleet, now: usize) {
        match self {
            Feed::Seam { next } => *next = fleet.batch(now),
            Feed::Wire { client, .. } => client.step(now),
        }
    }

    fn tenant_sheds(&self) -> Option<(u64, u64, bool)> {
        match self {
            Feed::Seam { .. } => None,
            Feed::Wire { client, gateway } => {
                let rows = gateway.tenant_stats();
                let shed: u64 =
                    rows.iter().map(|r| r.backpressure_sheds() + r.frames_corrupt).sum();
                let delivered = rows.iter().map(|r| r.samples_delivered).sum();
                Some((shed, delivered, client.is_failed()))
            }
        }
    }
}

/// The frontier one tick drinks from, optionally timing and copying
/// what it hands over.
struct Tap<'a> {
    feed: &'a mut Feed,
    delivered: u64,
    poll_time: Duration,
    copy: Option<Vec<TelemetrySample>>,
}

impl NetFrontier for Tap<'_> {
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        let t0 = self.copy.as_ref().map(|_| Instant::now());
        let batch = match self.feed {
            Feed::Seam { next } => std::mem::take(next),
            Feed::Wire { gateway, .. } => {
                gateway.pump(now, None);
                gateway.poll(now)
            }
        };
        if let Some(t0) = t0 {
            self.poll_time += t0.elapsed();
        }
        if let Some(copy) = &mut self.copy {
            copy.clone_from(&batch);
        }
        self.delivered += batch.len() as u64;
        batch
    }

    fn is_done(&self, _now: usize) -> bool {
        false
    }
}

/// What one pass of the tick loop measured.
struct Pass {
    /// Wall time of every service tick, seconds.
    ticks: Vec<f64>,
    /// Samples delivered during the measured ticks.
    measured_samples: u64,
    /// Samples delivered in total.
    delivered: u64,
    /// Resource counters over the measured ticks.
    usage: Usage,
    /// Wall time of the measured ticks' loop, seconds.
    measured_wall: f64,
    /// Frontier time (gateway pump + poll) over the measured ticks.
    poll_time: Duration,
    /// Wire sheds, delivered count and client failure (wire feed only).
    sheds: Option<(u64, u64, bool)>,
}

/// Runs the whole schedule through `svc`. `shadow`, when given, sees
/// every tick's samples and the model the tick ran with.
fn run_ticks(
    shape: &Shape,
    fleet: &Fleet,
    svc: &mut FleetService,
    mut shadow: Option<&mut Shadow>,
    mut at_measure_start: impl FnMut(&FleetService),
) -> Pass {
    let mut feed = Feed::new(shape.kind, fleet);
    let mut ticks = Vec::with_capacity(shape.total_ticks());
    let (mut measured_samples, mut delivered) = (0u64, 0u64);
    let mut poll_time = Duration::ZERO;
    let mut usage0 = Usage::now();
    let mut wall0 = Instant::now();
    for now in 0..shape.total_ticks() {
        if now == shape.warmup {
            at_measure_start(svc);
            usage0 = Usage::now();
            wall0 = Instant::now();
        }
        feed.prepare(fleet, now);
        let model = shadow.as_ref().map(|_| Arc::clone(svc.model()));
        let mut tap = Tap {
            feed: &mut feed,
            delivered: 0,
            poll_time: Duration::ZERO,
            copy: shadow.as_ref().map(|_| Vec::new()),
        };
        let t0 = Instant::now();
        svc.tick_from(&mut tap);
        ticks.push(t0.elapsed().as_secs_f64());
        let (n, polled, copy) = (tap.delivered, tap.poll_time, tap.copy);
        delivered += n;
        if now >= shape.warmup {
            measured_samples += n;
            poll_time += polled;
        }
        if let (Some(sh), Some(model), Some(batch)) = (shadow.as_deref_mut(), model, copy) {
            sh.tick(batch, &model, now >= shape.warmup);
        }
    }
    let usage = Usage::now().since(&usage0);
    let measured_wall = wall0.elapsed().as_secs_f64();
    Pass {
        ticks,
        measured_samples,
        delivered,
        usage,
        measured_wall,
        poll_time,
        sheds: feed.tenant_sheds(),
    }
}

/// Output checks shared by measured and traced runs; returns the
/// macro-F1 of every window verdict against its node's ground truth.
fn check_outputs(
    shape: &Shape,
    fleet: &Fleet,
    svc: &FleetService,
    pass: &Pass,
    r: &mut Report,
) -> f64 {
    let stats = svc.stats();
    let monitor = &svc.config().monitor;
    let ticks = shape.schedule_ticks();
    let sent: u64 = (0..fleet.n_nodes()).map(|n| fleet.delivered_by(n, ticks) as u64).sum();
    let windows: u64 = (0..fleet.n_nodes())
        .map(|n| {
            expected_windows(fleet.delivered_by(n, ticks), monitor.window, monitor.stride) as u64
        })
        .sum();
    r.attempted = sent;
    r.failed = sent.saturating_sub(stats.ingest.pushed)
        + stats.ingest.dropped
        + stats.ingest.unroutable
        + stats.ingest.malformed;
    r.check(pass.delivered == sent, || {
        format!("frontier delivered {} of {sent} samples", pass.delivered)
    });
    r.check(stats.ingest.pushed == sent, || {
        format!("ingest accepted {} of {sent} samples", stats.ingest.pushed)
    });
    r.check(
        stats.ingest.dropped + stats.ingest.unroutable + stats.ingest.malformed == 0
            && stats.errors.malformed_samples == 0,
        || format!("ingest shed or rejected samples: {:?}", stats.errors),
    );
    if let Some((shed, wire_delivered, failed)) = pass.sheds {
        r.check(shed == 0 && !failed, || {
            format!("wire shed {shed} frames (client failed: {failed})")
        });
        r.check(wire_delivered == sent, || format!("gateway delivered {wire_delivered} of {sent}"));
    }
    r.check(stats.windows == windows, || {
        format!("diagnosed {} windows, schedule implies {windows}", stats.windows)
    });

    let names = &svc.model().class_names;
    let class = |label: &str| names.iter().position(|c| c == label).unwrap_or(0);
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    for node in 0..fleet.n_nodes() {
        for v in svc.monitor(node).verdicts() {
            truth.push(class(fleet.truth(node, v.at - 1)));
            pred.push(class(&v.diagnosis.label));
        }
    }
    r.check(truth.len() as u64 == windows, || {
        format!("{} verdicts, schedule implies {windows}", truth.len())
    });

    let swaps = svc.swap_ticks();
    match shape.kind {
        Kind::Eclipse => {
            r.check(swaps.is_empty(), || format!("{} swaps with retraining off", swaps.len()))
        }
        Kind::Volta => {
            let measured = swaps.iter().filter(|&&t| t >= shape.warmup).count();
            r.check(measured == VOLTA_MAX_RETRAINS, || {
                format!(
                    "{measured} retrain rounds in the measured ticks, want {VOLTA_MAX_RETRAINS}"
                )
            });
        }
    }
    let agree = truth.iter().zip(&pred).filter(|(a, b)| a == b).count();
    println!("info window_accuracy {:.5}", agree as f64 / truth.len().max(1) as f64);
    Scores::compute(&truth, &pred, names.len()).f1
}

/// Macro-F1 of the service's current model on the held-out test split
/// of the campaign it was trained on (read back from the warm store): the
/// diagnosis quality the run's active-learning rounds left deployed.
/// Returns the F1 and the number of test samples.
fn test_f1(cfg: &ServeConfig, svc: &FleetService, store: &Path) -> (f64, usize) {
    let (system, method, scale, seed) =
        (cfg.fleet.system, cfg.method, cfg.fleet.scale, cfg.fleet.seed);
    let store =
        TelemetryStore::with_obs(store, Obs::disabled()).expect("the populated store opens");
    let sd =
        SystemData::generate_stored(&store, system, method, scale, seed).expect("warm store reads");
    let test = prepare_split(&sd.dataset, &cfg.split, seed).test;
    let model = svc.model();
    let names = &model.class_names;
    let class = |label: &str| names.iter().position(|c| c == label).unwrap_or(0);
    let truth: Vec<usize> = test.y.iter().map(|&y| class(&test.encoder.names()[y])).collect();
    let pred: Vec<usize> = model.diagnose(&test.x).iter().map(|d| class(&d.label)).collect();
    (Scores::compute(&truth, &pred, names.len()).f1, truth.len())
}

/// A digest of the run's deterministic outputs: swap ticks, window
/// count and every verdict bit for bit.
fn output_digest(svc: &FleetService) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for node in 0..svc.n_nodes() {
        for v in svc.monitor(node).verdicts() {
            eat(node as u64);
            eat(v.at as u64);
            eat(v.diagnosis.confidence.to_bits());
            v.diagnosis.label.bytes().for_each(|b| eat(u64::from(b)));
        }
    }
    format!("swaps={:?} windows={} verdicts={h:016x}", svc.swap_ticks(), svc.stats().windows)
}

/// Checks that equal arguments reproduce equal outputs: the first run of
/// a `(workload, seed, seconds)` records its digest in the store, every
/// later run (traced or not) must match it.
fn check_repeatable(store: &Path, key: &str, digest: &str, r: &mut Report) {
    let dir = store.join("outputs");
    let path = dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(prev) => r.check(prev == digest, || {
            format!("outputs differ from an earlier run: {prev} vs {digest}")
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, digest);
        }
    }
}

fn run_key(kind: Kind, seed: u64, shape: &Shape) -> String {
    format!("{kind:?}-{seed}-{}-{}", shape.horizon, shape.total_ticks())
}

/// The measured (untraced) run: end-to-end metrics. `setups` holds the
/// set-up times of earlier fresh processes; this process adds its own.
pub fn measure(kind: Kind, seed: u64, seconds: u64, store: &Path, mut setups: Vec<f64>) -> Report {
    let shape = Shape::new(kind, seconds);
    let cfg = config(&shape, store);
    let (mut svc, setup) = build_service(&cfg, store, Obs::disabled());
    setups.push(setup);
    let fleet = make_fleet(&shape, seed, &svc);
    let pass = run_ticks(&shape, &fleet, &mut svc, None, |_| {});

    let mut r = Report::new();
    let window_f1 = check_outputs(&shape, &fleet, &svc, &pass, &mut r);
    check_repeatable(store, &run_key(kind, seed, &shape), &output_digest(&svc), &mut r);
    let measured = &pass.ticks[shape.warmup..];
    let busy: f64 = measured.iter().sum();
    r.check(beyond(measured.len(), 0.99) >= MIN_BEYOND, || {
        format!("only {} measured ticks", measured.len())
    });

    let ms: Vec<f64> = measured.iter().map(|t| t * 1e3).collect();
    r.metric("setup_s", median(&setups), "s", setups.len());
    r.metric(
        "samples_per_s",
        pass.measured_samples as f64 / busy,
        "1/s",
        pass.measured_samples as usize,
    );
    r.metric("tick_ms_p50", quantile(&ms, 0.5), "ms", ms.len());
    r.metric("tick_ms_p90", quantile(&ms, 0.9), "ms", ms.len());
    r.metric("peak_rss_mb", status_mib("VmHWM"), "MiB", 1);
    // Eclipse's 1488 nodes give a steady per-window F1. Volta's 52 nodes
    // hold only a few of each anomaly, so one node's verdicts move that
    // F1 by a tenth; its gated quality is the deployed model's test F1,
    // read after peak RSS so the test split is not counted.
    println!("info window_f1 {window_f1:.6} n={}", svc.stats().windows);
    match kind {
        Kind::Eclipse => r.metric("diag_f1", window_f1, "ratio", svc.stats().windows as usize),
        Kind::Volta => {
            let t0 = Instant::now();
            let (f1, n) = test_f1(&cfg, &svc, store);
            println!("info test_f1_s {:.3}", t0.elapsed().as_secs_f64());
            r.metric("diag_f1", f1, "ratio", n);
        }
    }

    // Not gated: the AL loop's label-to-deployed-model delay.
    let swap_ms: Vec<f64> = svc
        .swap_ticks()
        .iter()
        .filter(|&&t| t >= shape.warmup)
        .map(|&t| pass.ticks[t] * 1e3)
        .collect();
    if !swap_ms.is_empty() {
        println!(
            "info swap_ms_p50 {:.3} ms n={} swap_ticks={:?}",
            median(&swap_ms),
            swap_ms.len(),
            svc.swap_ticks()
        );
    }
    println!(
        "info ticks measured={} warmup={} nodes={} cpu_util={:.3} involuntary_ctx={} voluntary_ctx={}",
        measured.len(),
        shape.warmup,
        fleet.n_nodes(),
        pass.usage.cpu_s / pass.measured_wall,
        pass.usage.involuntary,
        pass.usage.voluntary,
    );
    r
}

/// Per-layer times the shadow pipeline measured, in nanoseconds.
#[derive(Default)]
struct LayerTimes {
    push_ns: u128,
    pushes: u64,
    extract_ns: u128,
    scale_ns: u128,
    windows: u64,
    predict_ns: u128,
    predict_calls: u64,
    hysteresis_ns: u128,
    ingest_ns: u128,
    ingested: u64,
}

impl LayerTimes {
    /// The share of a shard's work the shadow times: push through
    /// hysteresis (ingest is the service's, not the shard's).
    fn shard_work_ns(&self) -> u128 {
        self.push_ns + self.extract_ns + self.scale_ns + self.predict_ns + self.hysteresis_ns
    }
}

/// A single-threaded replica of the shard pipeline, fed the same samples
/// and the service's current model, timing each layer's public call.
struct Shadow {
    ingest: IngestLayer,
    monitors: Vec<NodeMonitor>,
    n_groups: usize,
    view: FeatureView,
    scratch: ExtractScratch,
    times: LayerTimes,
}

impl Shadow {
    fn new(svc: &FleetService, metrics: &[MetricDef], groups: &[Vec<usize>]) -> Self {
        let cfg = svc.config();
        let view = svc.monitor(0).view().clone();
        let extractor = extractor_of(cfg.method);
        let monitors = (0..svc.n_nodes())
            .map(|_| {
                NodeMonitor::new(
                    Arc::clone(svc.model()),
                    Arc::clone(&extractor),
                    metrics.to_vec(),
                    view.clone(),
                    cfg.monitor.clone(),
                )
            })
            .collect();
        let mut ingest =
            IngestLayer::new(svc.n_nodes(), cfg.queue_capacity).expect_width(metrics.len());
        ingest.assign_shards(groups.to_vec());
        Self {
            ingest,
            monitors,
            n_groups: groups.len(),
            view,
            scratch: ExtractScratch::default(),
            times: LayerTimes::default(),
        }
    }

    fn tick(&mut self, batch: Vec<TelemetrySample>, model: &Arc<DiagnosisModel>, timed: bool) {
        let mut t = LayerTimes::default();
        let n = batch.len() as u64;
        let t0 = Instant::now();
        for s in batch {
            self.ingest.offer(s);
        }
        let groups: Vec<Vec<TelemetrySample>> =
            (0..self.n_groups).map(|g| self.ingest.drain_shard(g)).collect();
        t.ingest_ns = t0.elapsed().as_nanos();
        t.ingested = n;
        for group in groups {
            // Every node delivers at most one sample per tick, so pushing
            // the whole group before extracting sees every due window.
            let mut due = Vec::new();
            let t0 = Instant::now();
            for s in &group {
                if self.monitors[s.node].push(&s.values) {
                    due.push(s.node);
                }
            }
            t.push_ns += t0.elapsed().as_nanos();
            t.pushes += group.len() as u64;
            if due.is_empty() {
                continue;
            }
            let mut rows = vec![Vec::new(); due.len()];
            let t0 = Instant::now();
            for (node, row) in due.iter().zip(&mut rows) {
                self.monitors[*node].window_row_into(&mut self.scratch, row);
            }
            t.extract_ns += t0.elapsed().as_nanos();
            let mut x = Matrix::from_rows(&rows);
            let t0 = Instant::now();
            self.view.scale_inplace(&mut x);
            t.scale_ns += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            let proba = model.probabilities(&x);
            t.predict_ns += t0.elapsed().as_nanos();
            t.predict_calls += 1;
            t.windows += due.len() as u64;
            let verdicts: Vec<Diagnosis> = (0..proba.rows())
                .map(|r| {
                    let p = proba.row(r);
                    let best = (1..p.len()).fold(0, |b, i| if p[i] > p[b] { i } else { b });
                    Diagnosis { label: model.class_names[best].clone(), confidence: p[best] }
                })
                .collect();
            let t0 = Instant::now();
            for (node, d) in due.iter().zip(verdicts) {
                self.monitors[*node].apply_diagnosis(d);
            }
            t.hysteresis_ns += t0.elapsed().as_nanos();
        }
        if timed {
            let a = &mut self.times;
            a.push_ns += t.push_ns;
            a.pushes += t.pushes;
            a.extract_ns += t.extract_ns;
            a.scale_ns += t.scale_ns;
            a.windows += t.windows;
            a.predict_ns += t.predict_ns;
            a.predict_calls += t.predict_calls;
            a.hysteresis_ns += t.hysteresis_ns;
            a.ingest_ns += t.ingest_ns;
            a.ingested += t.ingested;
        }
    }
}

fn extractor_of(method: FeatureMethod) -> Arc<dyn FeatureExtractor + Send + Sync> {
    match method {
        FeatureMethod::Mvts => Arc::new(Mvts),
        FeatureMethod::TsFresh => Arc::new(TsFresh),
    }
}

/// Registry histogram by name and labels (empty when never recorded).
fn hist(obs: &Obs, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    obs.histogram(name, labels).snapshot().unwrap_or_default()
}

const STAGES: [&str; 5] = ["ingest", "drain", "process", "alarm", "feedback"];

fn stage_sum(obs: &Obs) -> u64 {
    STAGES.iter().map(|s| hist(obs, "stage_ns", &[("stage", s)]).sum).sum()
}

/// Registry readings taken when measurement starts.
#[derive(Default)]
struct Marks {
    stage_ns: u64,
    epochs: HistogramSnapshot,
    retrains: HistogramSnapshot,
    busy_ns: f64,
}

/// Reconciliation tolerances, stated by the benchmark: the service's
/// stage spans must cover at least this share of each measured tick's
/// wall time, and the shadow's layer times must land within this factor
/// of the shards' busy time.
const STAGE_COVERAGE_MIN: f64 = 0.95;
const SHADOW_BUSY_RATIO: (f64, f64) = (0.6, 1.4);

/// The traced run: per-layer metrics. An untraced reference pass gives
/// the tick mean the tracing overhead is measured against.
pub fn trace(kind: Kind, seed: u64, seconds: u64, store: &Path) -> Report {
    let full = Shape::new(kind, seconds);
    let cfg = config(&full, store);
    let shape = full.traced();
    let mut r = Report::new();

    // Reference pass, tracing off.
    let (mut reference, _) = build_service(&cfg, store, Obs::disabled());
    let rss0 = status_mib("VmRSS");
    let fleet = make_fleet(&shape, seed, &reference);
    let input_mb = status_mib("VmRSS") - rss0;
    let base = run_ticks(&shape, &fleet, &mut reference, None, |_| {});
    let base_digest = output_digest(&reference);
    drop(reference);

    // Traced pass: the service records its own spans into `obs`; the
    // shadow times each layer's public call from here.
    let obs = Obs::wall();
    let (mut svc, _) = build_service(&cfg, store, obs.clone());
    // Shard-sized groups over a seeded shuffle of the nodes, as the
    // service partitions them (a plain `node % shards` split would align
    // with the stagger phases and leave half the groups idle each tick).
    let mut groups = vec![Vec::new(); cfg.n_shards];
    for (i, node) in permutation(svc.n_nodes(), seed).into_iter().enumerate() {
        groups[i % cfg.n_shards].push(node);
    }
    let metrics = System::from(kind).campaign(cfg.fleet.scale, cfg.fleet.seed).catalog().defs();
    let setup = setup_layers(&cfg, &svc, store, &metrics, &groups);
    let mut shadow = Shadow::new(&svc, &metrics, &groups);
    let mut at_start = Marks::default();
    let traced = run_ticks(&shape, &fleet, &mut svc, Some(&mut shadow), |s| {
        at_start = Marks {
            stage_ns: stage_sum(&obs),
            epochs: hist(&obs, "par_epoch_ns", &[]),
            retrains: hist(&obs, "retrain_ns", &[]),
            busy_ns: shard_busy_ns(s),
        };
    });

    let _ = check_outputs(&shape, &fleet, &svc, &traced, &mut r);
    let digest = output_digest(&svc);
    r.check(digest == base_digest, || {
        format!("traced outputs {digest} differ from untraced {base_digest}")
    });
    check_repeatable(store, &run_key(kind, seed, &shape), &digest, &mut r);
    let mismatched = (0..svc.n_nodes())
        .filter(|&n| {
            let (a, b) = (svc.monitor(n).verdicts(), shadow.monitors[n].verdicts());
            a.len() != b.len()
                || a.iter().zip(b).any(|(x, y)| {
                    x.at != y.at
                        || x.diagnosis.label != y.diagnosis.label
                        || x.diagnosis.confidence.to_bits() != y.diagnosis.confidence.to_bits()
                })
        })
        .count();
    r.check(mismatched == 0, || {
        format!("shadow verdicts differ from the service's on {mismatched} nodes")
    });

    let m = shape.measured as f64;
    let wall_ns: f64 = traced.ticks[shape.warmup..].iter().sum::<f64>() * 1e9;
    let stage_ns = (stage_sum(&obs) - at_start.stage_ns) as f64;
    r.check(stage_ns <= wall_ns && stage_ns >= STAGE_COVERAGE_MIN * wall_ns, || {
        format!("stage spans cover {:.1}% of tick wall time", 100.0 * stage_ns / wall_ns)
    });
    let busy_ns = shard_busy_ns(&svc) - at_start.busy_ns;
    let t = &shadow.times;
    let ratio = t.shard_work_ns() as f64 / busy_ns;
    r.check((SHADOW_BUSY_RATIO.0..=SHADOW_BUSY_RATIO.1).contains(&ratio), || {
        format!("shadow layer times are {ratio:.3}x the shards' busy time")
    });
    println!(
        "info reconciliation stage_coverage={:.4} (min {STAGE_COVERAGE_MIN}) shadow_over_busy={ratio:.4} (range {:?})",
        stage_ns / wall_ns,
        SHADOW_BUSY_RATIO
    );

    let per = |ns: u128, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let epochs = hist_delta(&at_start.epochs, &hist(&obs, "par_epoch_ns", &[]));
    let retrains = hist_delta(&at_start.retrains, &hist(&obs, "retrain_ns", &[]));
    let base_mean = base.ticks[shape.warmup..].iter().sum::<f64>() / m;
    let traced_mean = wall_ns / 1e9 / m;
    let journal_us = journal_append_us(store);
    let windows = t.windows as usize;

    r.metric(
        "core.push_ns_per_sample",
        per(t.push_ns, t.pushes),
        layer_unit("core.push_ns_per_sample"),
        t.pushes as usize,
    );
    r.metric(
        "features.extract_us_per_window",
        per(t.extract_ns, t.windows) / 1e3,
        layer_unit("features.extract_us_per_window"),
        windows,
    );
    r.metric(
        "features.scale_ns_per_window",
        per(t.scale_ns, t.windows),
        layer_unit("features.scale_ns_per_window"),
        windows,
    );
    r.metric(
        "ml.predict_us_per_window",
        per(t.predict_ns, t.windows) / 1e3,
        layer_unit("ml.predict_us_per_window"),
        windows,
    );
    r.metric(
        "ml.predict_rows_per_call",
        per(t.windows as u128, t.predict_calls),
        layer_unit("ml.predict_rows_per_call"),
        t.predict_calls as usize,
    );
    r.metric(
        "core.hysteresis_ns_per_window",
        per(t.hysteresis_ns, t.windows),
        layer_unit("core.hysteresis_ns_per_window"),
        windows,
    );
    r.metric(
        "serve.ingest_ns_per_sample",
        per(t.ingest_ns, t.ingested),
        layer_unit("serve.ingest_ns_per_sample"),
        t.ingested as usize,
    );
    r.metric(
        "serve.retrain_ms_per_round",
        if retrains.count == 0 { 0.0 } else { retrains.sum as f64 / retrains.count as f64 / 1e6 },
        layer_unit("serve.retrain_ms_per_round"),
        retrains.count as usize,
    );
    let swap_ms: Vec<f64> = svc
        .swap_ticks()
        .iter()
        .filter(|&&t| t >= shape.warmup)
        .map(|&t| traced.ticks[t] * 1e3)
        .collect();
    if !swap_ms.is_empty() {
        r.metric(
            "serve.swap_ms_p50",
            median(&swap_ms),
            layer_unit("serve.swap_ms_p50"),
            swap_ms.len(),
        );
    }
    r.metric(
        "store.journal_append_us",
        journal_us.0,
        layer_unit("store.journal_append_us"),
        journal_us.1,
    );
    r.metric(
        "net.gateway_us_per_tick",
        traced.poll_time.as_secs_f64() * 1e6 / m,
        layer_unit("net.gateway_us_per_tick"),
        shape.measured,
    );
    r.metric(
        "par.epoch_ms_p50",
        hist_quantile(&epochs, 0.5) / 1e6,
        layer_unit("par.epoch_ms_p50"),
        epochs.count as usize,
    );
    r.metric(
        "par.epoch_ms_p99",
        hist_quantile(&epochs, 0.99) / 1e6,
        layer_unit("par.epoch_ms_p99"),
        epochs.count as usize,
    );
    r.metric(
        "serve.orchestration_ms_per_tick",
        (wall_ns - stage_ns) / m / 1e6,
        layer_unit("serve.orchestration_ms_per_tick"),
        shape.measured,
    );
    r.metric(
        "proc.ctx_switches_per_tick",
        (base.usage.voluntary + base.usage.involuntary) as f64 / m,
        "count",
        shape.measured,
    );
    r.metric(
        "proc.cpu_util",
        base.usage.cpu_s / base.measured_wall,
        layer_unit("proc.cpu_util"),
        shape.measured,
    );
    r.metric(
        "store.features_read_ms",
        hist(&obs, "store_read_ns", &[("kind", "features")]).sum as f64 / 1e6,
        layer_unit("store.features_read_ms"),
        1,
    );
    r.metric(
        "store.fleet_read_ms",
        hist(&obs, "store_read_ns", &[("kind", "fleet")]).sum as f64 / 1e6,
        layer_unit("store.fleet_read_ms"),
        1,
    );
    r.metric("features.select_ms", setup.select_ms, layer_unit("features.select_ms"), 1);
    r.metric("ml.initial_fit_ms", setup.fit_ms, layer_unit("ml.initial_fit_ms"), 1);
    r.metric(
        "serve.shard_build_ms",
        setup.shard_build_ms,
        layer_unit("serve.shard_build_ms"),
        cfg.n_shards,
    );
    r.metric(
        "obs.overhead_pct",
        100.0 * (traced_mean - base_mean) / base_mean,
        layer_unit("obs.overhead_pct"),
        shape.measured,
    );
    r.metric("bench.input_mb", input_mb, layer_unit("bench.input_mb"), 1);
    complete_layers(&mut r);
    r
}

impl From<Kind> for System {
    fn from(k: Kind) -> System {
        match k {
            Kind::Eclipse => System::Eclipse,
            Kind::Volta => System::Volta,
        }
    }
}

/// Sum of every shard's busy time so far, nanoseconds.
fn shard_busy_ns(svc: &FleetService) -> f64 {
    svc.stats().shards.iter().map(|s| s.busy.mean * s.busy.count as f64).sum()
}

/// Set-up layers timed from the benchmark: feature selection and the
/// initial fit on the store-read dataset, and building the shards.
struct SetupLayers {
    select_ms: f64,
    fit_ms: f64,
    shard_build_ms: f64,
}

fn setup_layers(
    cfg: &ServeConfig,
    svc: &FleetService,
    store: &Path,
    metrics: &[MetricDef],
    groups: &[Vec<usize>],
) -> SetupLayers {
    let (system, method, scale, seed) =
        (cfg.fleet.system, cfg.method, cfg.fleet.scale, cfg.fleet.seed);
    let store =
        TelemetryStore::with_obs(store, Obs::disabled()).expect("the populated store opens");
    let sd =
        SystemData::generate_stored(&store, system, method, scale, seed).expect("warm store reads");
    let t0 = Instant::now();
    let split = prepare_split(&sd.dataset, &cfg.split, seed);
    let select_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(sd);
    let t0 = Instant::now();
    let model = Retrainer::new(&split.train, cfg.forest).fit();
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let view = svc.monitor(0).view().clone();
    let extractor = extractor_of(cfg.method);
    let t0 = Instant::now();
    let shards: Vec<Shard> = groups
        .iter()
        .enumerate()
        .map(|(id, nodes)| {
            Shard::new(
                id,
                nodes.clone(),
                Arc::clone(&model),
                Arc::clone(&extractor),
                metrics,
                view.clone(),
                &cfg.monitor,
                cfg.batched,
                Obs::disabled(),
            )
        })
        .collect();
    let shard_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(shards);
    SetupLayers { select_ms, fit_ms, shard_build_ms }
}

/// Re-appends the run's journaled labels to a scratch journal, timing
/// each `LabelJournal::append_label`; returns (mean µs, appends).
fn journal_append_us(store: &Path) -> (f64, usize) {
    let journals: Vec<PathBuf> = std::fs::read_dir(store.join("journals"))
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    let scratch = store.join("journal-timing.jsonl");
    let _ = std::fs::remove_file(&scratch);
    let (copy, _) = LabelJournal::open(&scratch).expect("scratch journal opens");
    let mut total = Duration::ZERO;
    let mut n = 0;
    for path in journals {
        let Ok((_, records)) = LabelJournal::open(&path) else { continue };
        for rec in records.iter().filter(|r| r.kind == KIND_LABEL) {
            let t0 = Instant::now();
            copy.append_label(rec.node, rec.at, &rec.label, &rec.row).expect("scratch append");
            total += t0.elapsed();
            n += 1;
        }
    }
    let _ = std::fs::remove_file(&scratch);
    (if n == 0 { 0.0 } else { total.as_secs_f64() * 1e6 / n as f64 }, n)
}
