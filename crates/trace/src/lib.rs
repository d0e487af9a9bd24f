//! # alba-trace
//!
//! Deterministic end-to-end causal tracing for the ALBADross serving
//! path. Aggregate metrics (`alba-obs`, PR 2) answer *how much*; this
//! crate answers *why this alarm, from which window, at what per-stage
//! cost* — the per-decision provenance that makes active-learning
//! query choices auditable (Raghavan et al.).
//!
//! * [`ctx`] — trace identity: a chain's id is a pure function of
//!   `(seed, node, tick)` ([`trace_id`]), so the id never has to ride
//!   inside queues or wire frames — every stage re-derives it, and
//!   equal seeds yield byte-identical trace logs,
//! * [`tracer`] — the cloneable [`Tracer`] handle: renders per-hop
//!   JSONL records (stage, lane, timings from the injectable
//!   `alba-obs` [`Clock`](alba_obs::Clock)) into the sink it was built
//!   with,
//! * [`recorder`] — the always-on bounded **flight recorder**: one
//!   fixed-size ring of the 256 most recent trace events per lane with
//!   deterministic oldest-first eviction, dumped to
//!   `flightrec_*.jsonl` on shard panic, chaos fault firing, or
//!   shutdown.
//!
//! ## Determinism contract
//!
//! Hops are recorded only from deterministic single-threaded contexts
//! (the service tick thread in shard order, the lockstep gateway
//! pump), timestamps come from the injectable clock, lanes are
//! `BTreeMap`-ordered, and eviction is strictly oldest-first — so two
//! equal-seed runs produce byte-identical trace logs *and*
//! byte-identical flight-recorder dumps, chaos included. The serve
//! integration suite and `scripts/ci.sh` assert exactly that.

#![warn(missing_docs)]

pub mod ctx;
pub mod recorder;
pub mod tracer;

pub use ctx::{trace_id, TraceCtx};
pub use recorder::Lane;
pub use tracer::Tracer;
