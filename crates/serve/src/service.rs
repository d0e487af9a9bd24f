//! The fleet service: replay → bounded ingest → sharded batched
//! diagnosis → alarm bus → active-learning feedback → hot-swap.
//!
//! [`FleetService::tick`] advances the simulated clock by one second:
//! the replay source emits one sample per active node, the ingest layer
//! buffers them per node (shedding on overflow), every shard drains its
//! nodes' queues and diagnoses the due windows as one batch (shards are
//! moved onto a fixed [`alba_par::Pool`] of worker threads for the
//! epoch), alarms and window outcomes are merged in shard order behind
//! the pool's epoch barrier, uncertain windows become label requests,
//! and once enough requests are pending the oracle labels them, the
//! forest is refitted and hot-swapped into every monitor *between*
//! ticks — no in-flight window is lost or diagnosed by a half-swapped
//! model.
//!
//! Every stochastic choice — replay streams, shard assignment, forest
//! bootstraps — derives from `ServeConfig::fleet.seed`, so two services
//! with the same config produce identical alarms, verdicts and swap
//! ticks (asserted by the integration suite). The worker count is *not*
//! part of that identity: shard→worker assignment is static
//! (`slot % workers`), every event/trace/alarm is emitted on the tick
//! thread in shard order, and shard busy time is measured against the
//! obs clock — so 1, 2, 4 or 8 workers produce byte-identical event
//! logs, traces and models (asserted by `tests/parallel.rs`).

use crate::chaos::{plan_for, ChaosRuntime};
use crate::feedback::{LabelQueue, LabelRequest, Retrainer};
use crate::frontier::NetFrontier;
use crate::ingest::IngestLayer;
use crate::replay::{FleetConfig, NodeStream, ReplaySource, TelemetrySample};
use crate::shard::{NodeAlarm, Shard, ShardReport};
use crate::stats::{ErrorStats, LatencySummary, ServiceStats, ShardSnapshot};
use alba_chaos::{Backoff, FaultKind, FaultPlan, InjectAction, TelemetryInjector, Transition};
use alba_features::{FeatureExtractor, FeatureView, Mvts, TsFresh};
use alba_ml::{DiagnosisModel, ForestParams};
use alba_obs::{Histogram, Obs, Value};
use alba_par::Pool;
use alba_store::{key_of, LabelJournal, StoreError, TelemetryStore, KIND_LABEL, KIND_RETRAIN};
use alba_trace::{Lane, Tracer};
use albadross::{
    prepare_split, FeatureMethod, MonitorConfig, NodeMonitor, SplitConfig, SystemData,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// Replay streams must be *held-out* runs, not the training campaign:
/// the replay seed is salted so the fleet never streams a run the model
/// was fitted on.
const REPLAY_SALT: u64 = 0x5E_EDF1_EED0_5A17;
/// Salt for the node→shard shuffle.
const SHARD_SALT: u64 = 0x5AAD_0F5A_A2D5;

/// Full service configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Fleet shape (system, scale, node count, master seed).
    pub fleet: FleetConfig,
    /// Per-node windowing/hysteresis configuration.
    pub monitor: MonitorConfig,
    /// Offline split used to train the initial model.
    pub split: SplitConfig,
    /// Feature extractor (must match between training and serving).
    pub method: FeatureMethod,
    /// Worker shards the fleet is partitioned across.
    pub n_shards: usize,
    /// Worker threads the shard pool runs on; `0` (the default) picks
    /// `min(available_parallelism, n_shards)`. Excluded — like
    /// `store_dir` and `chaos` — from the journal identity: every
    /// worker count produces byte-identical artifacts, so runs at
    /// different counts share a journal.
    pub n_workers: usize,
    /// Per-node ingest queue capacity (samples).
    pub queue_capacity: usize,
    /// Batched inference (one model call per shard per tick) versus the
    /// node-at-a-time baseline (one call per window).
    pub batched: bool,
    /// Least-confidence uncertainty above which a window becomes a label
    /// request.
    pub uncertainty_threshold: f64,
    /// Bounded label-request queue capacity.
    pub label_queue_capacity: usize,
    /// Requests serviced (and folded in) per retrain round.
    pub retrain_batch: usize,
    /// Maximum retrain/hot-swap rounds.
    pub max_retrains: usize,
    /// Forest hyper-parameters for the initial fit and every refit.
    pub forest: ForestParams,
    /// Root of an `alba-store` directory. When set, the offline campaign,
    /// its feature matrix and the replay fleet's streams are memoised
    /// there, and every labelled window is journalled for warm restart.
    /// An unusable store degrades to the in-memory path (with a
    /// `store_fallback` event), never a failed service.
    pub store_dir: Option<String>,
    /// When set, the service generates a seeded [`FaultPlan`] from this
    /// shape and runs under fault injection (see [`crate::chaos`]).
    /// Excluded — like `store_dir` — from the journal identity, so a
    /// chaotic run journals to (and warm-restarts from) the same journal
    /// as a fault-free one.
    pub chaos: Option<alba_chaos::ChaosConfig>,
}

impl ServeConfig {
    /// A reasonable configuration for `n_nodes` nodes of `system`.
    pub fn new(
        system: albadross::System,
        scale: alba_telemetry::Scale,
        n_nodes: usize,
        seed: u64,
    ) -> Self {
        Self {
            fleet: FleetConfig::new(system, scale, n_nodes, seed),
            monitor: MonitorConfig::default(),
            split: SplitConfig { train_fraction: 0.6, top_k_features: 300 },
            method: FeatureMethod::Mvts,
            n_shards: 4,
            n_workers: 0,
            queue_capacity: 128,
            batched: true,
            uncertainty_threshold: 0.45,
            label_queue_capacity: 64,
            retrain_batch: 12,
            max_retrains: 2,
            forest: ForestParams { n_estimators: 15, seed, ..ForestParams::default() },
            store_dir: None,
            chaos: None,
        }
    }
}

/// One shard's work for one pool epoch: the shard itself (moved onto
/// the worker for the tick) plus its drained batch.
struct ShardJob {
    shard: Shard,
    batch: Vec<TelemetrySample>,
    now: usize,
}

/// What an epoch hands back per slot: the shard (returned to the tick
/// thread) and its report — or the panic payload when the shard died
/// mid-batch (the shard itself survives for the supervisor to respawn).
struct ShardDone {
    shard: Shard,
    outcome: std::thread::Result<ShardReport>,
}

/// The service's worker pool. Deliberately *not* cloned with the
/// service: a cloned `FleetService` lazily builds its own pool on its
/// next tick, so clones never share worker threads.
struct PoolCell(Option<Pool<ShardJob, ShardDone>>);

impl Clone for PoolCell {
    fn clone(&self) -> Self {
        PoolCell(None)
    }
}

/// The running service.
#[derive(Clone)]
pub struct FleetService {
    cfg: ServeConfig,
    replay: ReplaySource,
    ingest: IngestLayer,
    shards: Vec<Shard>,
    /// node → shard index.
    shard_of: Vec<usize>,
    /// Epoch-barrier worker pool (built lazily on the first tick and
    /// rebuilt when the effective worker count changes).
    pool: PoolCell,
    /// Extractor/view the shards were built from — kept so a shard lost
    /// to a dead worker can be rebuilt from scratch.
    extractor: Arc<dyn FeatureExtractor + Send + Sync>,
    view: FeatureView,
    model: Arc<DiagnosisModel>,
    label_queue: LabelQueue,
    retrainer: Retrainer,
    /// Write-ahead label journal (present iff `cfg.store_dir` is usable).
    journal: Option<LabelJournal>,
    /// Ground-truth label per node (the labelling oracle).
    oracle: Vec<String>,
    alarm_log: Vec<NodeAlarm>,
    alarms_by_label: BTreeMap<String, u64>,
    swap_ticks: Vec<usize>,
    tick: usize,
    samples_emitted: u64,
    wall_ns: u64,
    /// Plan-driven fault injection (present iff built with a plan).
    chaos: Option<ChaosRuntime>,
    /// Retry policy for journal appends (always on; chaos only makes it
    /// fire more often). Seeded, so simulated waits are deterministic.
    journal_backoff: Backoff,
    /// Typed error counters not owned by a sub-layer.
    oracle_misses: u64,
    journal_reopens: u64,
    journal_failures: u64,
    obs: Obs,
    /// Causal tracing + flight recorder (disabled unless built with
    /// [`FleetService::with_tracer`]). Hops are recorded on the tick
    /// thread only, in shard order — the same discipline obs events
    /// follow — so trace logs are replay-deterministic.
    tracer: Tracer,
}

impl FleetService {
    /// Trains the initial model on the system's offline campaign, builds
    /// the (held-out) replay fleet and partitions it into shards —
    /// unobserved. [`FleetService::with_obs`] attaches a registry.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_obs(cfg, Obs::disabled())
    }

    /// [`FleetService::new`] with an observability registry: pipeline
    /// stages record spans, shards keep per-stage histograms, and the
    /// service emits structured events (`alarm`, `label_request`,
    /// `model_swap`, `sample_drop`) to the registry's sink.
    ///
    /// When `cfg.chaos` is set, a seeded [`FaultPlan`] is generated from
    /// it (deterministically in `cfg.fleet.seed`) and the service runs
    /// under fault injection.
    pub fn with_obs(cfg: ServeConfig, obs: Obs) -> Self {
        Self::with_tracer(cfg, obs, Tracer::disabled())
    }

    /// [`FleetService::with_obs`] with causal tracing: every pipeline
    /// hop (ingest → windowing → diagnosis → alarm → AL gate → oracle →
    /// retrain) records a trace event keyed by the deterministic
    /// `(seed, node, tick)` trace id, and the bounded flight recorder
    /// captures the causal window around shard panics, chaos faults and
    /// shutdown. The tracer's seed should equal `cfg.fleet.seed` so ids
    /// minted at the net gateway match the ones derived here.
    pub fn with_tracer(cfg: ServeConfig, obs: Obs, tracer: Tracer) -> Self {
        let plan = cfg.chaos.as_ref().map(|cz| {
            plan_for(
                cz,
                cfg.fleet.seed,
                cfg.fleet.duration_override_s,
                cfg.fleet.n_nodes,
                cfg.n_shards,
            )
        });
        Self::build(cfg, plan, obs, tracer)
    }

    /// Builds the service under an *explicit* fault plan — the replay
    /// path for a `FaultPlan` loaded back from JSON. The plan is run
    /// as-is; `cfg.chaos` is ignored for scheduling (it still shapes
    /// nothing else).
    pub fn with_chaos_plan(cfg: ServeConfig, plan: FaultPlan, obs: Obs) -> Self {
        Self::build(cfg, Some(plan), obs, Tracer::disabled())
    }

    fn build(cfg: ServeConfig, plan: Option<FaultPlan>, obs: Obs, tracer: Tracer) -> Self {
        assert!(cfg.n_shards >= 1, "need at least one shard");
        assert!(cfg.retrain_batch >= 1, "retrain batch must be positive");

        // The chaos runtime exists before any store I/O so that startup
        // store faults (read/write failpoints) can fire during the
        // initial campaign and fleet reads.
        let chaos = plan.map(ChaosRuntime::new);

        // Durable memoisation (optional): an unusable store degrades to
        // the purely in-memory path rather than failing the service.
        let store = cfg.store_dir.as_deref().and_then(|dir| {
            TelemetryStore::with_obs(dir, obs.clone())
                .map(|mut s| {
                    if let Some(cz) = &chaos {
                        s.set_fault_hook(Arc::new(cz.failpoints.io_hook("store")));
                    }
                    s
                })
                .map_err(|e| {
                    obs.event(
                        "store_fallback",
                        &[("dir", Value::Str(dir.to_string())), ("error", e.to_string().into())],
                    );
                })
                .ok()
        });

        // Offline phase: campaign → features → split → initial forest.
        let init_span = obs.span("service_init_ns", &[("stage", "train_initial")]);
        let sd = Self::system_data(&cfg, store.as_ref(), &obs);
        let split = prepare_split(&sd.dataset, &cfg.split, cfg.fleet.seed);
        // The full-width dataset is not read again: free it before the
        // replay and the shards are built.
        drop(sd);
        let mut retrainer = Retrainer::new(&split.train, cfg.forest);
        let view = split.feature_view();

        // Warm restart: replay the label journal, absorbing every
        // committed round into the retrainer, then fit once. A fit
        // depends only on the training rows, their labels and the round,
        // so the restored model is bit-identical to the pre-shutdown one
        // without re-spending the labelling budget.
        let mut swap_ticks = Vec::new();
        let journal = store.as_ref().and_then(|s| {
            Self::restore_from_journal(s, &cfg, &obs, &tracer, &mut retrainer, &mut swap_ticks)
        });
        let model = retrainer.fit();
        init_span.finish();
        if let (Some(j), Some(cz)) = (&journal, &chaos) {
            j.set_fault_hook(Arc::new(cz.failpoints.io_hook("journal")));
        }

        // Online phase: a fresh (salted-seed) campaign streams the fleet.
        let build_span = obs.span("service_init_ns", &[("stage", "build_replay")]);
        let replay_cfg = FleetConfig { seed: cfg.fleet.seed ^ REPLAY_SALT, ..cfg.fleet };
        let replay = match &store {
            Some(s) => Self::replay_via_store(s, &replay_cfg, &obs),
            None => ReplaySource::build(&replay_cfg),
        };
        // Root hop of every causal chain this run will mint: where the
        // fleet's telemetry came from (store-memoised or generated) and
        // how much journaled history the warm restart folded back in.
        tracer.hop(
            Lane::Service,
            &tracer.service_ctx(0),
            "store_read",
            &[
                ("stored", Value::from(store.is_some())),
                ("nodes", Value::from(replay.n_nodes())),
                ("restored_rounds", Value::from(swap_ticks.len())),
            ],
        );
        let oracle = replay.truth_labels();
        let mut ingest = IngestLayer::with_obs(replay.n_nodes(), cfg.queue_capacity, obs.clone())
            .expect_width(replay.metrics().len());

        // Seeded node→shard assignment: shuffle, then round-robin.
        let mut nodes: Vec<usize> = (0..replay.n_nodes()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.fleet.seed ^ SHARD_SALT);
        nodes.shuffle(&mut rng);
        let n_shards = cfg.n_shards.min(nodes.len());
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut shard_of = vec![0usize; nodes.len()];
        for (i, &n) in nodes.iter().enumerate() {
            per_shard[i % n_shards].push(n);
            shard_of[n] = i % n_shards;
        }
        ingest.assign_shards(per_shard.clone());
        let extractor: Arc<dyn FeatureExtractor + Send + Sync> = match cfg.method {
            FeatureMethod::Mvts => Arc::new(Mvts),
            FeatureMethod::TsFresh => Arc::new(TsFresh),
        };
        let shards = per_shard
            .into_iter()
            .enumerate()
            .map(|(id, ns)| {
                Shard::new(
                    id,
                    ns,
                    Arc::clone(&model),
                    Arc::clone(&extractor),
                    replay.metrics(),
                    view.clone(),
                    &cfg.monitor,
                    cfg.batched,
                    obs.clone(),
                )
            })
            .collect();
        build_span.finish();

        let label_queue = LabelQueue::new(cfg.label_queue_capacity);
        let journal_backoff = Backoff { seed: cfg.fleet.seed, ..Backoff::default() };
        Self {
            cfg,
            replay,
            ingest,
            shards,
            shard_of,
            pool: PoolCell(None),
            extractor,
            view,
            model,
            label_queue,
            retrainer,
            journal,
            oracle,
            alarm_log: Vec::new(),
            alarms_by_label: BTreeMap::new(),
            swap_ticks,
            tick: 0,
            samples_emitted: 0,
            wall_ns: 0,
            chaos,
            journal_backoff,
            oracle_misses: 0,
            journal_reopens: 0,
            journal_failures: 0,
            obs,
            tracer,
        }
    }

    /// Offline training data, through the store when one is configured.
    fn system_data(cfg: &ServeConfig, store: Option<&TelemetryStore>, obs: &Obs) -> SystemData {
        let (system, method, scale, seed) =
            (cfg.fleet.system, cfg.method, cfg.fleet.scale, cfg.fleet.seed);
        let Some(s) = store else {
            return SystemData::generate(system, method, scale, seed);
        };
        match SystemData::generate_stored(s, system, method, scale, seed) {
            Ok(sd) => sd,
            Err(e) => {
                obs.event(
                    "store_fallback",
                    &[
                        ("dir", s.root().display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                SystemData::generate(system, method, scale, seed)
            }
        }
    }

    /// Opens the service's label journal and absorbs every committed
    /// round back into `retrainer`, without fitting. A round is committed
    /// iff its labels are followed by a retrain marker; trailing unmarked
    /// labels (a crash mid-round) are dropped. Restored rounds land in
    /// `swap_ticks`, so they count against `max_retrains`.
    fn restore_from_journal(
        store: &TelemetryStore,
        cfg: &ServeConfig,
        obs: &Obs,
        tracer: &Tracer,
        retrainer: &mut Retrainer,
        swap_ticks: &mut Vec<usize>,
    ) -> Option<LabelJournal> {
        // The journal is keyed by the full service config *minus* the
        // store location and chaos shape, so moving a store does not
        // orphan its journals and a chaotic run shares its journal with
        // the fault-free equivalent (warm restart must converge to the
        // same model either way).
        let mut key_cfg = cfg.clone();
        key_cfg.store_dir = None;
        key_cfg.chaos = None;
        key_cfg.n_workers = 0;
        let path = store.journal_path(&key_of("serve", &key_cfg));
        let (journal, records) = match LabelJournal::open(&path) {
            Ok(v) => v,
            Err(e) => {
                obs.event(
                    "store_fallback",
                    &[("dir", path.display().to_string().into()), ("error", e.to_string().into())],
                );
                return None;
            }
        };
        if !records.is_empty() {
            let _span = obs.span("service_init_ns", &[("stage", "replay_journal")]);
            let mut batch = Vec::new();
            for rec in &records {
                match rec.kind.as_str() {
                    KIND_LABEL => batch.push((rec.row.clone(), rec.label.clone())),
                    KIND_RETRAIN => {
                        retrainer.absorb(std::mem::take(&mut batch));
                        swap_ticks.push(rec.at);
                    }
                    _ => {}
                }
            }
            obs.event(
                "warm_restart",
                &[
                    ("rounds", Value::from(swap_ticks.len())),
                    ("records", Value::from(records.len())),
                    ("uncommitted", Value::from(batch.len())),
                ],
            );
            tracer.hop(
                Lane::Service,
                &tracer.service_ctx(0),
                "journal_replay",
                &[
                    ("rounds", Value::from(swap_ticks.len())),
                    ("records", Value::from(records.len())),
                ],
            );
        }
        Some(journal)
    }

    /// The replay fleet through the store: a warm entry skips stream
    /// generation entirely, a miss generates and persists, and a corrupt
    /// entry self-heals. Store write failures only cost the memoisation.
    fn replay_via_store(store: &TelemetryStore, cfg: &FleetConfig, obs: &Obs) -> ReplaySource {
        let key = key_of("fleet", cfg);
        match store.read_samples("fleet", &key) {
            Ok(Some(samples)) => {
                obs.counter("store_cache_hits_total", &[("kind", "fleet")]).inc();
                let streams = samples
                    .into_iter()
                    .map(|telemetry| {
                        let app = telemetry.meta.app.clone();
                        NodeStream { telemetry, app }
                    })
                    .collect();
                return ReplaySource::from_streams(streams);
            }
            Ok(None) => {}
            Err(e) => {
                obs.counter("store_corrupt_entries_total", &[("kind", "fleet")]).inc();
                obs.event(
                    "store_self_heal",
                    &[("kind", "fleet".into()), ("error", e.to_string().into())],
                );
            }
        }
        obs.counter("store_cache_misses_total", &[("kind", "fleet")]).inc();
        let replay = ReplaySource::build(cfg);
        let telemetry: Vec<_> = replay.streams().iter().map(|s| s.telemetry.clone()).collect();
        let config_json = serde_json::to_string(cfg).unwrap_or_default();
        if let Err(e) = store.write_samples("fleet", &key, &config_json, &telemetry) {
            obs.event(
                "store_fallback",
                &[
                    ("dir", store.root().display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
        replay
    }

    /// Advances the service by one second of fleet time. Returns `false`
    /// once the replay is exhausted and every queue has drained.
    pub fn tick(&mut self) -> bool {
        self.advance(|svc, _| svc.replay.tick());
        !(self.replay.is_exhausted() && self.ingest.is_empty())
    }

    /// Advances the service by one tick fed from a [`NetFrontier`]
    /// instead of the in-process replay source — the entry point the
    /// `alba-net` gateway (and its ingest-log replay) drives. Everything
    /// downstream of ingest is identical to [`FleetService::tick`]:
    /// because the frontier hands over the *same samples at the same
    /// ticks* whether live or replayed, the event log, alarms and model
    /// evolution are byte-identical across the network boundary.
    ///
    /// Returns `false` once the frontier is done and every queue has
    /// drained.
    pub fn tick_from(&mut self, frontier: &mut dyn NetFrontier) -> bool {
        self.advance(|_, now| frontier.poll(now));
        !(frontier.is_done(self.tick) && self.ingest.is_empty())
    }

    /// One tick's body around a sample source: `emit` returns the
    /// samples of tick `now`.
    fn advance(&mut self, emit: impl FnOnce(&mut Self, usize) -> Vec<TelemetrySample>) {
        // alba-lint: allow(no-ambient-time) reason="wall busy-time measurement only; excluded from replay-identity artifacts"
        let start = Instant::now();
        let now = self.tick;

        // 0. Chaos pre-stage: open this tick's fault windows (emitting
        //    `fault_injected` events on the tick thread, in plan order)
        //    and arm the machinery they target.
        if self.chaos.is_some() {
            self.open_fault_windows(now);
        }

        // 1. The source emits; the ingest layer buffers (or sheds). Under
        //    chaos every sample first passes the telemetry injector and
        //    the quarantine gate.
        let trace_t0 = self.tracer.now_ns();
        let ingest_span = self.obs.span("stage_ns", &[("stage", "ingest")]);
        let emitted = emit(self, now);
        let n_emitted = emitted.len();
        self.offer_batch(emitted, now);
        ingest_span.finish();
        self.trace_stage(now, "ingest", trace_t0, n_emitted as u64);

        self.tick_core(now);
        self.tick += 1;
        self.wall_ns += start.elapsed().as_nanos() as u64;
    }

    /// Offers one tick's emitted samples into ingest, through the chaos
    /// injector/quarantine gate when the run is chaotic.
    fn offer_batch(&mut self, emitted: Vec<TelemetrySample>, now: usize) {
        self.samples_emitted += emitted.len() as u64;
        if self.chaos.is_some() {
            for s in emitted {
                self.offer_through_chaos(s, now);
            }
        } else {
            for s in emitted {
                let (node, at) = (s.node, s.at);
                let accepted = self.ingest.offer(s);
                Self::trace_ingest(
                    &self.tracer,
                    &self.shard_of,
                    node,
                    at,
                    if accepted { "accepted" } else { "shed" },
                );
            }
        }
    }

    /// Records one per-sample ingest hop on the owning shard's lane.
    /// The hop's trace id is derived from `(seed, node, at)` — the same
    /// id the net gateway minted when it decoded the sample's frame, so
    /// the chain is causal across the wire without carrying an id in it.
    /// (Associated fn over disjoint fields: callers hold `&mut
    /// self.chaos` while tracing.)
    fn trace_ingest(tracer: &Tracer, shard_of: &[usize], node: usize, at: usize, outcome: &str) {
        if !tracer.is_enabled() {
            return;
        }
        let lane = shard_of.get(node).map_or(Lane::Service, |&s| Lane::Shard(s as u32));
        tracer.hop(
            lane,
            &tracer.ctx(node, at),
            "ingest_offer",
            &[("outcome", Value::Str(outcome.to_string()))],
        );
    }

    /// Records one per-tick pipeline-stage hop on the service lane with
    /// its duration against the tracer's clock.
    fn trace_stage(&self, now: usize, stage: &str, t0: u64, items: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.hop(
            Lane::Service,
            &self.tracer.service_ctx(now),
            stage,
            &[
                ("dur_ns", Value::from(self.tracer.now_ns().saturating_sub(t0))),
                ("items", Value::from(items)),
            ],
        );
    }

    /// Stages 2–5 of a tick (drain → process → alarm bus → feedback),
    /// shared by the replay-driven and frontier-driven entry points.
    fn tick_core(&mut self, now: usize) {
        // 2. Each shard drains its nodes' queues into one tick batch —
        //    the ingest layer holds the shard partition, so the drain
        //    feeds per-shard input batches directly.
        let trace_t0 = self.tracer.now_ns();
        let drain_span = self.obs.span("stage_ns", &[("stage", "drain")]);
        let batches: Vec<Vec<TelemetrySample>> =
            (0..self.shards.len()).map(|sid| self.ingest.drain_shard(sid)).collect();
        drain_span.finish();
        self.trace_stage(
            now,
            "drain",
            trace_t0,
            batches.iter().map(Vec::len).sum::<usize>() as u64,
        );

        // 3. Shards process in parallel on the pool: each shard is moved
        //    onto its statically assigned worker (`slot % workers`) for
        //    the epoch, and the barrier hands results back in shard
        //    order, so the merge below is deterministic at any worker
        //    count. Each shard runs under its supervisor: a panicking
        //    shard is caught on the worker, returned with its panic
        //    payload, and restarted here (on the tick thread) with the
        //    current — i.e. last-journaled — model re-installed.
        let trace_t0 = self.tracer.now_ns();
        let process_span = self.obs.span("stage_ns", &[("stage", "process")]);
        let n_workers = self.effective_workers();
        let mut pool = match self.pool.0.take() {
            Some(p) if p.n_workers() == n_workers => p,
            _ => Pool::new(n_workers, self.obs.clone(), |_w, mut job: ShardJob| {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    job.shard.process(&job.batch, job.now)
                }));
                ShardDone { shard: job.shard, outcome }
            }),
        };
        let jobs: Vec<ShardJob> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(batches)
            .map(|(shard, batch)| ShardJob { shard, batch, now })
            .collect();
        let done = pool.run_epoch(jobs);
        self.pool.0 = Some(pool);
        let mut reports = Vec::with_capacity(done.len());
        for (id, slot) in done.into_iter().enumerate() {
            match slot {
                Ok(ShardDone { shard, outcome: Ok(report) }) => {
                    self.shards.push(shard);
                    reports.push(report);
                }
                Ok(ShardDone { shard, outcome: Err(_) }) => {
                    // Supervisor: rebuild the shard (fresh monitors, the
                    // deployed model, counters carried over). The tick's
                    // batch for this shard is lost — exactly what a real
                    // worker crash costs.
                    self.shards.push(shard.respawn());
                    if let Some(cz) = &mut self.chaos {
                        cz.stats.shard_restarts += 1;
                    }
                    self.obs.event(
                        "shard_restart",
                        &[("shard", Value::from(id)), ("tick", Value::from(now))],
                    );
                    // The flight recorder's raison d'être: capture the
                    // causal window around the crash before the respawned
                    // shard starts overwriting ring history.
                    self.tracer.hop(
                        Lane::Shard(id as u32),
                        &self.tracer.service_ctx(now),
                        "shard_panic",
                        &[("shard", Value::from(id))],
                    );
                    self.tracer.dump(&format!("panic_shard{id}"));
                    reports.push(ShardReport::default());
                }
                Err(_) => {
                    // Backstop for a worker dying so hard the shard never
                    // came back (the pool respawned the thread, but the
                    // in-flight job was lost): rebuild the shard from the
                    // service's own catalog. Lifetime counters reset —
                    // the `shard_lost` event flags the discontinuity.
                    let fresh = self.rebuild_shard(id);
                    self.shards.push(fresh);
                    self.obs.event(
                        "shard_lost",
                        &[("shard", Value::from(id)), ("tick", Value::from(now))],
                    );
                    self.tracer.dump(&format!("lost_shard{id}"));
                    reports.push(ShardReport::default());
                }
            }
        }
        process_span.finish();
        self.trace_stage(now, "process", trace_t0, self.shards.len() as u64);

        // 4. Alarm bus + uncertainty gate. Events are emitted here, on
        //    the tick thread in shard order — never from the parallel
        //    section above — so event logs are deterministic.
        let trace_t0 = self.tracer.now_ns();
        let alarm_span = self.obs.span("stage_ns", &[("stage", "alarm")]);
        let gating_open = self.swap_ticks.len() < self.cfg.max_retrains;
        let mut n_windows = 0u64;
        for (sid, report) in reports.into_iter().enumerate() {
            let lane = Lane::Shard(sid as u32);
            n_windows += report.windows.len() as u64;
            if self.tracer.is_enabled() {
                for w in &report.windows {
                    self.tracer.hop(
                        lane,
                        &self.tracer.ctx(w.node, w.at),
                        "diagnose",
                        &[
                            ("label", Value::Str(w.diagnosis.label.clone())),
                            ("uncertainty", Value::from(w.uncertainty)),
                            ("latency_ticks", Value::from(now.saturating_sub(w.at))),
                        ],
                    );
                }
            }
            for na in report.alarms {
                self.obs.event(
                    "alarm",
                    &[
                        ("node", Value::from(na.node)),
                        ("label", Value::Str(na.alarm.label.clone())),
                        ("confidence", Value::from(na.alarm.confidence)),
                        ("tick", Value::from(now)),
                    ],
                );
                self.tracer.hop(
                    lane,
                    &self.tracer.ctx(na.node, now),
                    "alarm",
                    &[
                        ("label", Value::Str(na.alarm.label.clone())),
                        ("confidence", Value::from(na.alarm.confidence)),
                    ],
                );
                *self.alarms_by_label.entry(na.alarm.label.clone()).or_insert(0) += 1;
                self.alarm_log.push(na);
            }
            if gating_open {
                for w in &report.windows {
                    if w.uncertainty >= self.cfg.uncertainty_threshold {
                        let accepted = self.label_queue.offer(LabelRequest::from_window(w));
                        self.obs.event(
                            "label_request",
                            &[
                                ("node", Value::from(w.node)),
                                ("at", Value::from(w.at)),
                                ("uncertainty", Value::from(w.uncertainty)),
                                ("accepted", Value::from(accepted)),
                            ],
                        );
                        self.tracer.hop(
                            lane,
                            &self.tracer.ctx(w.node, w.at),
                            "al_gate",
                            &[
                                ("uncertainty", Value::from(w.uncertainty)),
                                ("accepted", Value::from(accepted)),
                            ],
                        );
                    }
                }
            }
        }
        alarm_span.finish();
        self.trace_stage(now, "alarm", trace_t0, n_windows);

        // 5. Feedback: enough pending requests → label, retrain, swap.
        //    A deferred round (oracle down) breaks out; the requests stay
        //    queued and the next tick retries after (simulated) backoff.
        let trace_t0 = self.tracer.now_ns();
        let rounds_before = self.swap_ticks.len();
        let feedback_span = self.obs.span("stage_ns", &[("stage", "feedback")]);
        while self.label_queue.len() >= self.cfg.retrain_batch
            && self.swap_ticks.len() < self.cfg.max_retrains
        {
            if !self.retrain_round() {
                break;
            }
        }
        feedback_span.finish();
        self.trace_stage(now, "feedback", trace_t0, (self.swap_ticks.len() - rounds_before) as u64);
    }

    /// Worker threads the shard pool should run on right now:
    /// `cfg.n_workers`, with `0` meaning "one per core", and never more
    /// workers than shards (the assignment is static, so extra workers
    /// would only idle).
    fn effective_workers(&self) -> usize {
        let w =
            if self.cfg.n_workers == 0 { alba_par::available_cores() } else { self.cfg.n_workers };
        w.min(self.shards.len().max(1)).max(1)
    }

    /// Rebuilds shard `id` from the service's own catalog — the
    /// last-resort path when a pool worker died without handing the
    /// shard back. Node order is ascending (deterministic in
    /// `shard_of`, which is seeded), monitors and counters start fresh.
    fn rebuild_shard(&self, id: usize) -> Shard {
        let nodes: Vec<usize> =
            self.shard_of.iter().enumerate().filter(|&(_, &s)| s == id).map(|(n, _)| n).collect();
        Shard::new(
            id,
            nodes,
            Arc::clone(&self.model),
            Arc::clone(&self.extractor),
            self.replay.metrics(),
            self.view.clone(),
            &self.cfg.monitor,
            self.cfg.batched,
            self.obs.clone(),
        )
    }

    /// Services one batch of label requests through the oracle, refits
    /// and hot-swaps the model into every shard. Returns `false` when
    /// the round was *deferred* — the oracle is down, the requests stay
    /// queued, and (simulated) backoff is charged — so callers must not
    /// loop on a deferral.
    fn retrain_round(&mut self) -> bool {
        let now = self.tick;
        // Oracle availability gate: during an outage window the round is
        // deferred with bounded, seeded backoff — requests are *not*
        // taken from the queue, so nothing is lost.
        if let Some(cz) = &mut self.chaos {
            if cz.oracle_down(now) {
                let wait = cz.oracle_backoff_ns();
                cz.oracle_attempt = cz.oracle_attempt.saturating_add(1);
                cz.stats.oracle_timeouts += 1;
                cz.stats.backoff_waits += 1;
                cz.stats.backoff_ns += wait;
                self.obs.event(
                    "oracle_timeout",
                    &[
                        ("tick", Value::from(now)),
                        ("attempt", Value::from(cz.oracle_attempt as u64)),
                        ("backoff_ns", Value::from(wait)),
                    ],
                );
                self.tracer.hop(
                    Lane::Service,
                    &self.tracer.service_ctx(now),
                    "oracle_defer",
                    &[
                        ("attempt", Value::from(cz.oracle_attempt as u64)),
                        ("backoff_ns", Value::from(wait)),
                    ],
                );
                return false;
            }
            if cz.oracle_attempt > 0 {
                cz.stats.oracle_recoveries += 1;
                self.obs.event(
                    "oracle_recovery",
                    &[
                        ("tick", Value::from(now)),
                        ("after_attempts", Value::from(cz.oracle_attempt as u64)),
                    ],
                );
                cz.oracle_attempt = 0;
            }
        }
        let reqs = self.label_queue.take(self.cfg.retrain_batch);
        if reqs.is_empty() {
            return true;
        }
        let mut labelled: Vec<(Vec<f64>, String)> = Vec::with_capacity(reqs.len());
        for r in reqs {
            // A request for a node outside the oracle's truth table is a
            // typed error, not an index panic.
            let Some(truth) = self.oracle.get(r.node).cloned() else {
                self.oracle_misses += 1;
                self.obs.event(
                    "oracle_miss",
                    &[("node", Value::from(r.node)), ("at", Value::from(r.at))],
                );
                continue;
            };
            // Write-ahead: the labelled row hits the journal before the
            // retrainer ever sees it (retried under bounded backoff; a
            // torn append heals by reopening the journal).
            self.journal_append_retrying(|j| j.append_label(r.node, r.at, &truth, &r.row));
            let lane = self.shard_of.get(r.node).map_or(Lane::Service, |&s| Lane::Shard(s as u32));
            self.tracer.hop(
                lane,
                &self.tracer.ctx(r.node, r.at),
                "oracle_label",
                &[
                    ("truth", Value::Str(truth.clone())),
                    ("predicted", Value::Str(r.predicted.label.clone())),
                    ("uncertainty", Value::from(r.uncertainty)),
                ],
            );
            labelled.push((r.row, truth));
        }
        if labelled.is_empty() {
            return true;
        }
        let trace_t0 = self.tracer.now_ns();
        let retrain_span = self.obs.span("retrain_ns", &[]);
        let model = self.retrainer.fold_in(labelled);
        retrain_span.finish();
        for sh in &mut self.shards {
            sh.set_model(Arc::clone(&model));
        }
        self.model = model;
        self.label_queue.record_retrain();
        // The marker commits the round: journal replay folds in exactly
        // the label batches that reached this point.
        let round = self.swap_ticks.len() as u64 + 1;
        self.journal_append_retrying(|j| j.append_retrain(round, now));
        self.obs.event(
            "model_swap",
            &[
                ("tick", Value::from(self.tick)),
                ("round", Value::from(self.swap_ticks.len() + 1)),
                ("train_samples", Value::from(self.retrainer.n_samples())),
            ],
        );
        self.tracer.hop(
            Lane::Service,
            &self.tracer.service_ctx(now),
            "retrain",
            &[
                ("round", Value::from(self.swap_ticks.len() + 1)),
                ("train_samples", Value::from(self.retrainer.n_samples())),
                ("dur_ns", Value::from(self.tracer.now_ns().saturating_sub(trace_t0))),
            ],
        );
        self.swap_ticks.push(self.tick);
        true
    }

    /// Opens this tick's fault windows: emits one `fault_injected` event
    /// per starting fault (tick thread, plan order) and arms the
    /// machinery the fault targets. Telemetry faults need no arming —
    /// the injector consults the plan per sample.
    fn open_fault_windows(&mut self, now: usize) {
        let Some(cz) = &mut self.chaos else { return };
        for e in cz.starting_at(now) {
            cz.stats.faults_started += 1;
            self.obs.event(
                "fault_injected",
                &[
                    ("fault", Value::from(e.kind.name())),
                    ("tick", Value::from(e.tick)),
                    ("duration", Value::from(e.duration)),
                    ("target", Value::from(e.target)),
                    ("magnitude", Value::from(e.magnitude)),
                ],
            );
            self.tracer.hop(
                Lane::Service,
                &self.tracer.service_ctx(now),
                "fault",
                &[
                    ("fault", Value::from(e.kind.name())),
                    ("target", Value::from(e.target)),
                    ("duration", Value::from(e.duration)),
                ],
            );
            // Every injected fault captures the causal window around it:
            // one bounded dump per fault kind, overwritten on re-fire so
            // a storm cannot flood the dump directory.
            self.tracer.dump(&format!("fault_{}", e.kind.name()));
            match e.kind {
                FaultKind::ShardPanic => {
                    if let Some(sh) = self.shards.get_mut(e.target) {
                        sh.arm_panic();
                    }
                }
                // Runtime store faults land on the journal — the only
                // store I/O after startup. A write error fails the next
                // append outright; an fsync failure tears it mid-record.
                FaultKind::StoreWriteError => cz.failpoints.arm("journal.append", 1),
                FaultKind::FsyncFailure => cz.failpoints.arm("journal.torn", 1),
                _ => {}
            }
        }
    }

    /// Routes one replay sample through the telemetry injector and the
    /// quarantine gate, then into ingest. Storm duplicates are offered
    /// after the original (stressing the bounded queues); quarantined
    /// nodes' samples are fenced off before ingest sees them.
    fn offer_through_chaos(&mut self, mut s: TelemetrySample, now: usize) {
        let Some(cz) = &mut self.chaos else {
            self.ingest.offer(s);
            return;
        };
        let node = s.node;
        match cz.injector.apply(node, now, &mut s.at, &mut s.values) {
            InjectAction::Drop => {
                Self::trace_ingest(&self.tracer, &self.shard_of, node, s.at, "blackout_drop");
            }
            InjectAction::Deliver { duplicates } => {
                let bad = TelemetryInjector::looks_garbage(&s.values);
                match cz.gate.observe(node, bad) {
                    Transition::Entered => {
                        self.obs.event(
                            "quarantine_enter",
                            &[("node", Value::from(node)), ("tick", Value::from(now))],
                        );
                    }
                    Transition::Released => {
                        self.obs.event(
                            "quarantine_release",
                            &[("node", Value::from(node)), ("tick", Value::from(now))],
                        );
                    }
                    Transition::None => {}
                }
                if cz.gate.is_quarantined(node) {
                    cz.stats.quarantine_drops += 1;
                    Self::trace_ingest(&self.tracer, &self.shard_of, node, s.at, "quarantined");
                    return;
                }
                let at = s.at;
                let accepted = self.ingest.offer(s.clone());
                Self::trace_ingest(
                    &self.tracer,
                    &self.shard_of,
                    node,
                    at,
                    if accepted { "accepted" } else { "shed" },
                );
                for _ in 0..duplicates {
                    self.ingest.offer(s.clone());
                }
            }
        }
    }

    /// Appends to the journal under the bounded retry policy. A torn
    /// append (simulated crash mid-record) heals by reopening the
    /// journal — which truncates the tear — before retrying; other
    /// errors retry after (simulated, counted) backoff. Exhausting the
    /// budget counts a `journal_failures` error and drops the record
    /// from durable storage only — the in-memory round still completes.
    fn journal_append_retrying<F>(&mut self, op: F)
    where
        F: Fn(&LabelJournal) -> alba_store::Result<u64>,
    {
        let Some(journal) = self.journal.clone() else { return };
        let mut journal = journal;
        let mut attempt: u32 = 0;
        loop {
            let err = match op(&journal) {
                Ok(_) => {
                    if attempt > 0 {
                        if let Some(cz) = &mut self.chaos {
                            cz.stats.journal_recoveries += 1;
                        }
                    }
                    return;
                }
                Err(e) => e,
            };
            let torn = matches!(err, StoreError::TruncatedTail { .. });
            self.obs.event(
                "journal_error",
                &[
                    ("error", Value::from(err.to_string())),
                    ("attempt", Value::from(attempt as u64)),
                    ("torn", Value::from(torn)),
                ],
            );
            if torn {
                // Reopen truncates the half-written record; appending
                // then resumes on a record boundary.
                match LabelJournal::open(journal.path()) {
                    Ok((fresh, _)) => {
                        if let Some(cz) = &self.chaos {
                            fresh.set_fault_hook(Arc::new(cz.failpoints.io_hook("journal")));
                        }
                        self.journal_reopens += 1;
                        self.journal = Some(fresh.clone());
                        journal = fresh;
                    }
                    Err(e) => {
                        self.obs.event(
                            "journal_error",
                            &[("error", Value::from(e.to_string())), ("fatal", Value::from(true))],
                        );
                        self.journal_failures += 1;
                        return;
                    }
                }
            }
            match self.journal_backoff.delay_ns(attempt) {
                Some(wait) => {
                    if let Some(cz) = &mut self.chaos {
                        cz.stats.backoff_waits += 1;
                        cz.stats.backoff_ns += wait;
                    }
                }
                None => {
                    self.journal_failures += 1;
                    return;
                }
            }
            attempt += 1;
        }
    }

    /// Runs at most `max_ticks` ticks; returns how many actually ran.
    pub fn run(&mut self, max_ticks: usize) -> usize {
        let mut ran = 0;
        while ran < max_ticks {
            let more = self.tick();
            ran += 1;
            if !more {
                break;
            }
        }
        ran
    }

    /// Runs until the replay is exhausted and all queues are drained,
    /// then services any leftover label requests (a final retrain round,
    /// if the budget allows).
    pub fn run_to_completion(&mut self) -> ServiceStats {
        while self.tick() {}
        self.shut_down()
    }

    /// Runs the service to completion fed from a [`NetFrontier`] (at
    /// most `max_ticks` ticks, a liveness bound for frontiers whose
    /// senders never close). Leftover label requests get a final retrain
    /// round if the budget allows, exactly as
    /// [`FleetService::run_to_completion`] does; the returned stats
    /// carry the frontier's per-tenant accounting.
    pub fn run_frontier(
        &mut self,
        frontier: &mut dyn NetFrontier,
        max_ticks: usize,
    ) -> ServiceStats {
        let mut ran = 0;
        while ran < max_ticks {
            let more = self.tick_from(frontier);
            ran += 1;
            if !more {
                break;
            }
        }
        let mut stats = self.shut_down();
        stats.tenants = frontier.tenant_stats();
        stats
    }

    /// The tail every run shares once its feed is done: a final retrain
    /// round for leftover label requests if the budget allows, the
    /// `shutdown` flight-recorder dump, then the stats.
    fn shut_down(&mut self) -> ServiceStats {
        if !self.label_queue.is_empty() && self.swap_ticks.len() < self.cfg.max_retrains {
            self.retrain_round();
        }
        self.tracer.dump("shutdown");
        self.stats()
    }

    /// The full per-tick batch schedule of this service's (held-out)
    /// replay fleet: `batches[t]` is what [`FleetService::tick`] would
    /// ingest at tick `t`. The service's own replay cursor is untouched.
    ///
    /// This is the deterministic client's feed: a gateway client streams
    /// these exact samples over the wire, so a frontier-driven run can be
    /// compared 1:1 against the in-process replay path.
    pub fn fleet_batches(&self) -> Vec<Vec<TelemetrySample>> {
        let mut replay = self.replay.clone();
        let mut batches = Vec::new();
        while !replay.is_exhausted() {
            batches.push(replay.tick());
        }
        batches
    }

    /// Snapshot of the service statistics.
    pub fn stats(&self) -> ServiceStats {
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .map(|sh| {
                ShardSnapshot::new(
                    sh.id(),
                    sh.nodes().len(),
                    *sh.stats(),
                    sh.busy_histogram(),
                    sh.latency_histogram(),
                )
            })
            .collect();
        let windows: u64 = shards.iter().map(|s| s.counters.windows).sum();
        let alarms: u64 = shards.iter().map(|s| s.counters.alarms).sum();
        // Fleet-wide latency: per-shard histograms merge exactly.
        let mut merged = Histogram::new();
        for sh in &self.shards {
            merged.merge(sh.latency_histogram());
        }
        let wall_s = self.wall_ns as f64 / 1e9;
        let mut feedback = self.label_queue.stats();
        feedback.retrains = self.swap_ticks.len() as u64;
        let ingest_stats = self.ingest.stats();
        let errors = ErrorStats {
            unroutable_samples: ingest_stats.unroutable,
            queue_full_drops: ingest_stats.dropped,
            malformed_ingest_drops: ingest_stats.malformed,
            malformed_samples: self.shards.iter().map(|sh| sh.stats().malformed).sum(),
            oracle_misses: self.oracle_misses,
            journal_reopens: self.journal_reopens,
            journal_failures: self.journal_failures,
        };
        ServiceStats {
            ticks: self.tick,
            samples_emitted: self.samples_emitted,
            ingest: ingest_stats,
            shards,
            windows,
            latency: LatencySummary::from_histogram(&merged),
            alarms,
            alarms_by_label: self.alarms_by_label.clone(),
            feedback,
            errors,
            chaos: self.chaos.as_ref().map(ChaosRuntime::snapshot),
            tenants: Vec::new(),
            swap_ticks: self.swap_ticks.clone(),
            wall_ms: self.wall_ns / 1_000_000,
            windows_per_s: if wall_s > 0.0 { windows as f64 / wall_s } else { 0.0 },
        }
    }

    /// The observability handle the service was built with (disabled
    /// unless [`FleetService::with_obs`] was used).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The causal tracer (disabled unless [`FleetService::with_tracer`]
    /// was used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Full flight-recorder contents as JSONL — what the control
    /// plane's `/flightrec` endpoint serves. Empty when tracing is off.
    pub fn flightrec(&self) -> String {
        self.tracer.flightrec("endpoint")
    }

    /// Recent trace events for `node` as a JSON array (what
    /// `/trace/<node>` serves), or `None` when the node id is out of
    /// range.
    pub fn trace_recent_json(&self, node: usize) -> Option<String> {
        (node < self.n_nodes()).then(|| self.tracer.trace_json(node))
    }

    /// Prometheus-style text exposition: every metric in the obs
    /// registry plus the per-shard busy/latency histograms.
    pub fn prometheus(&self) -> String {
        let mut out = self.obs.expose();
        for sh in &self.shards {
            let label = format!("shard=\"{}\"", sh.id());
            sh.busy_histogram().snapshot().expose_into("shard_busy_ns", &label, &mut out);
            sh.latency_histogram().snapshot().expose_into("shard_latency_ticks", &label, &mut out);
        }
        out
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Fleet size.
    pub fn n_nodes(&self) -> usize {
        self.replay.n_nodes()
    }

    /// Every confirmed alarm so far, in confirmation order.
    pub fn alarms(&self) -> &[NodeAlarm] {
        &self.alarm_log
    }

    /// Ticks at which a refreshed model was hot-swapped in.
    pub fn swap_ticks(&self) -> &[usize] {
        &self.swap_ticks
    }

    /// The currently deployed model.
    pub fn model(&self) -> &Arc<DiagnosisModel> {
        &self.model
    }

    /// The retrainer behind the deployed model. Test support: the
    /// warm-restart tests read its fit count and training-set size.
    #[doc(hidden)]
    pub fn retrainer(&self) -> &Retrainer {
        &self.retrainer
    }

    /// Ground-truth label of one fleet node's stream.
    pub fn truth(&self, node: usize) -> &str {
        self.replay.truth(node)
    }

    /// The monitor serving one fleet node (for inspection).
    pub fn monitor(&self, node: usize) -> &NodeMonitor {
        self.shards[self.shard_of[node]].monitor(node)
    }

    /// Snapshot of the pending label requests, oldest first — what the
    /// control plane's label-queue endpoint serves.
    pub fn label_requests(&self) -> Vec<LabelRequest> {
        self.label_queue.pending().cloned().collect()
    }

    /// The fault plan driving this run, when it is chaotic. Serialise it
    /// with [`FaultPlan::to_json`] to replay the exact same chaos later.
    pub fn chaos_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_ref().map(|cz| &cz.plan)
    }
}
