//! # alba-serve
//!
//! Fleet-scale online diagnosis for the ALBADross reproduction — the
//! deployment scenario the paper leaves as future work (Sec. VI),
//! built on the workspace's offline pipeline:
//!
//! * [`replay`] — a deterministic streaming telemetry source replaying a
//!   held-out campaign as a fleet of 1 Hz node feeds,
//! * [`ingest`] — bounded per-node queues with backpressure (drop)
//!   accounting,
//! * [`frontier`] — the [`NetFrontier`] seam through which samples
//!   produced *outside* the process (the `alba-net` wire gateway, or
//!   its journaled ingest log replayed offline) feed the service,
//! * [`shard`] — worker shards running *batched* feature extraction and
//!   inference over their nodes' due windows, reusing the
//!   [`NodeMonitor`](albadross::NodeMonitor) hysteresis logic,
//! * [`feedback`] — the online active-learning loop: uncertainty-gated
//!   label requests, oracle labelling, forest refits and atomic model
//!   hot-swaps,
//! * [`stats`] — JSON-serialisable service statistics with per-shard
//!   latency percentiles (p50/p90/p95/p99/max),
//! * [`chaos`] — the plan-driven fault-injection runtime and the
//!   self-healing counters ([`alba_chaos`] supplies the plan; the
//!   service supplies shard supervision, quarantine, bounded backoff
//!   and journal healing),
//! * [`service`] — the [`FleetService`] tick loop tying it together.
//!
//! The whole pipeline is instrumented with
//! [`alba-obs`](alba_obs): build the service with
//! [`FleetService::with_obs`] and every stage records spans into the
//! metric registry, the shards keep busy/latency histograms, and
//! structured events (`alarm`, `label_request`, `model_swap`,
//! `sample_drop`) stream to the registry's JSONL sink.
//! [`FleetService::prometheus`] dumps it all in text-exposition format.
//! With a [`TickClock`](alba_obs::TickClock) two equally-seeded runs
//! emit identical event logs (see the integration suite).
//!
//! Causal tracing rides the same discipline: build with
//! [`FleetService::with_tracer`] and every pipeline hop (ingest →
//! drain → diagnose → alarm → AL gate → oracle → retrain) records a
//! trace event keyed by the deterministic `(seed, node, tick)` id from
//! [`alba_trace`], while the bounded flight recorder captures the
//! causal window around shard panics, chaos faults and shutdown.
//!
//! ```no_run
//! use alba_serve::{FleetService, ServeConfig};
//! use albadross::System;
//! use alba_telemetry::Scale;
//!
//! // Monitor the 52-node Volta testbed end to end, observed.
//! let cfg = ServeConfig::new(System::Volta, Scale::Smoke, 52, 42);
//! let mut svc = FleetService::with_obs(cfg, alba_obs::Obs::wall());
//! let stats = svc.run_to_completion();
//! println!("{}", stats.to_json_pretty().expect("stats serialise"));
//! println!("{}", svc.prometheus());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod feedback;
pub mod frontier;
pub mod ingest;
pub mod replay;
pub mod service;
pub mod shard;
pub mod stats;

pub use alba_trace::{Lane, TraceCtx, Tracer};
pub use chaos::{plan_for, ChaosRuntime, ChaosStats, InjectedPanic};
pub use feedback::{FeedbackStats, LabelQueue, LabelRequest, Retrainer};
pub use frontier::{NetFrontier, TenantStats};
pub use ingest::{IngestLayer, IngestStats, SampleQueue};
pub use replay::{FleetConfig, NodeStream, ReplaySource, TelemetrySample};
pub use service::{FleetService, ServeConfig};
pub use shard::{NodeAlarm, Shard, ShardReport, ShardStats, WindowOutcome};
pub use stats::{ErrorStats, LatencySummary, ServiceStats, ShardSnapshot};
