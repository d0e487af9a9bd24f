//! # alba-obs
//!
//! Observability substrate for the ALBADross workspace: the pipeline
//! that diagnoses a production fleet must itself be monitorable
//! (E2EWatch ships its diagnosis pipeline as an operational service;
//! RUAD stresses per-stage cost on production telemetry). This crate
//! has **no dependencies** — not even the vendored shims — so every
//! layer of the workspace can adopt it without widening its build
//! graph:
//!
//! * [`registry`] — a thread-safe [`Obs`] handle over named counters,
//!   gauges and log-bucketed [`Histogram`]s, with a Prometheus-style
//!   text exposition dump,
//! * [`histogram`] — log-linear-bucketed latency histograms
//!   (p50/p90/p99/max, mergeable across shards),
//! * [`clock`] — the injectable [`Clock`]: [`WallClock`] in production,
//!   [`TickClock`] for deterministic tests and replays,
//! * [`event`] — structured events serialised as JSONL into a
//!   pluggable [`EventSink`],
//! * [`global`](mod@global) — an optional process-wide handle so deep call sites
//!   (model fits, feature extraction) can record without plumbing.
//!
//! A disabled handle ([`Obs::disabled`]) turns every operation into a
//! no-op, so instrumented hot paths cost nothing when observability is
//! off — perfbench's `obs.overhead_pct` measures the enabled path
//! against that baseline.
//!
//! ## Determinism contract
//!
//! With a [`TickClock`] every event timestamp and span duration derives
//! from explicitly advanced ticks, so two runs of a seeded pipeline
//! emit **identical JSONL event logs** — asserted by the serve
//! integration suite. Events must be emitted from deterministic
//! single-threaded contexts (the service tick loop); histograms and
//! counters may be recorded from worker threads, as their merged totals
//! are order-independent.
//!
//! ```
//! use alba_obs::{Obs, MemorySink, TickClock, Value};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(TickClock::new());
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::with_clock(clock.clone(), Some(sink.clone()));
//!
//! obs.counter("windows_total", &[("shard", "0")]).inc();
//! clock.set(1_000);
//! obs.event("alarm", &[("node", Value::from(3u64)), ("label", Value::from("memleak"))]);
//! {
//!     let _span = obs.span("stage_ns", &[("stage", "extract")]);
//!     clock.advance(250);
//! } // drop records 250 ns into the `stage_ns{stage="extract"}` histogram
//!
//! assert_eq!(sink.lines()[0], r#"{"ts":1000,"kind":"alarm","node":3,"label":"memleak"}"#);
//! assert!(obs.expose().contains("windows_total{shard=\"0\"} 1"));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod global;
pub mod histogram;
pub mod registry;

pub use clock::{Clock, TickClock, WallClock};
pub use event::{json_escape, push_fields, push_u64, EventSink, FileSink, MemorySink, Value};
pub use global::{clear_global, global, set_global};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Hist, HistogramRow, Obs, Span};

/// Opens a timing span on an [`Obs`] handle; the span records its
/// elapsed time into the named histogram when dropped.
///
/// ```
/// use alba_obs::{span, Obs};
/// let obs = Obs::wall();
/// {
///     let _s = span!(obs, "stage_ns", "stage" => "extract");
/// }
/// assert_eq!(obs.histogram("stage_ns", &[("stage", "extract")]).snapshot().unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name, &[])
    };
    ($obs:expr, $name:expr, $($k:expr => $v:expr),+ $(,)?) => {
        $obs.span($name, &[$(($k, $v)),+])
    };
}
