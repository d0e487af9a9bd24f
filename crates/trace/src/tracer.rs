//! The [`Tracer`] handle: renders causal hops into a JSONL trace log,
//! feeds the per-lane flight recorder, and dumps the recorder on
//! demand (shard panic, chaos fault, shutdown).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use alba_obs::{json_escape, push_fields, push_u64, Clock, EventSink, Value};

use crate::ctx::TraceCtx;
use crate::recorder::{push_hex16, FlightRing, Lane, RingEntry};

/// Flight-recorder events kept per lane.
const RING_CAPACITY: usize = 256;

struct Inner {
    seed: u64,
    clock: Arc<dyn Clock>,
    sink: Option<Arc<dyn EventSink>>,
    rings: Mutex<BTreeMap<Lane, FlightRing>>,
    dump_dir: Option<PathBuf>,
    hops: AtomicU64,
    dumps: AtomicU64,
    dump_failures: AtomicU64,
}

/// Cloneable causal-tracing handle. A disabled tracer
/// ([`Tracer::disabled`]) turns every operation into a no-op, so
/// traced hot paths cost (almost) nothing when tracing is off. The
/// enabled path costs about a tenth of a pipeline window; the
/// `trace_overhead` bench holds it to at most 10%.
///
/// ## Determinism contract
///
/// Hops must be recorded from deterministic single-threaded contexts
/// (the service tick thread, in shard order; the lockstep gateway pump)
/// and timestamps come from the injectable [`Clock`] — so equal seeds
/// produce byte-identical trace logs and flight-recorder dumps.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer deriving trace ids from `seed` and stamping
    /// hops from `clock`. Every hop line goes to `sink` (the JSONL
    /// trace log, if any) and into its lane's flight ring of the 256
    /// most recent events. [`Tracer::dump`] writes
    /// `flightrec_<reason>.jsonl` into `dump_dir`; without one, the
    /// recorder is only read through [`Tracer::flightrec`].
    pub fn new(
        seed: u64,
        clock: Arc<dyn Clock>,
        sink: Option<Arc<dyn EventSink>>,
        dump_dir: Option<PathBuf>,
    ) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                seed,
                clock,
                sink,
                rings: Mutex::new(BTreeMap::new()),
                dump_dir,
                hops: AtomicU64::new(0),
                dumps: AtomicU64::new(0),
                dump_failures: AtomicU64::new(0),
            })),
        }
    }

    /// True when hops are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The seed trace ids derive from (0 when disabled).
    fn seed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seed)
    }

    /// Current clock reading in nanoseconds (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Derives the [`TraceCtx`] for `node`'s sample of source tick
    /// `tick` — the same context any other stage derives from the same
    /// coordinates.
    pub fn ctx(&self, node: usize, tick: usize) -> TraceCtx {
        TraceCtx::derive(self.seed(), node, tick)
    }

    /// Derives the fleet-wide (no-node) context for `tick`.
    pub fn service_ctx(&self, tick: usize) -> TraceCtx {
        TraceCtx::service(self.seed(), tick)
    }

    /// Records one hop of chain `ctx` at `stage` on `lane`: renders a
    /// JSONL line, emits it to the trace-log sink, and pushes it into
    /// the lane's flight ring. No-op when disabled.
    pub fn hop(&self, lane: Lane, ctx: &TraceCtx, stage: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else { return };
        // Render into the buffer of the ring entry this hop is about to
        // evict, so a full ring renders without allocating.
        let mut rings = inner.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let ring = rings.entry(lane).or_insert_with(|| FlightRing::new(RING_CAPACITY));
        let mut line = ring.recycle_buffer();
        line.push_str("{\"ts\":");
        push_u64(&mut line, inner.clock.now_ns());
        line.push_str(",\"trace\":\"");
        push_hex16(&mut line, ctx.id);
        line.push_str("\",\"lane\":\"");
        lane.write_label(&mut line);
        line.push_str("\",\"node\":");
        match ctx.node {
            Some(n) => push_u64(&mut line, n as u64),
            None => line.push_str("null"),
        }
        line.push_str(",\"tick\":");
        push_u64(&mut line, ctx.tick as u64);
        line.push_str(",\"stage\":\"");
        json_escape(stage, &mut line);
        line.push('"');
        push_fields(&mut line, fields);
        line.push('}');

        inner.hops.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &inner.sink {
            sink.emit(&line);
        }
        ring.push(RingEntry { node: ctx.node, line });
    }

    /// Hops recorded since construction.
    pub fn hops_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.hops.load(Ordering::Relaxed))
    }

    /// Flight-recorder dumps taken (files written) since construction.
    pub fn dumps_taken(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dumps.load(Ordering::Relaxed))
    }

    /// Flight-recorder dumps whose file write failed since construction.
    pub fn dump_failures(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dump_failures.load(Ordering::Relaxed))
    }

    /// The full flight-recorder contents as JSONL: a header line
    /// (`kind=flightrec`, the dump reason, lane/event/eviction totals)
    /// followed by every retained event, lanes in deterministic order
    /// (net, shards ascending, service), oldest → newest within each.
    /// Empty string when disabled.
    pub fn flightrec(&self, reason: &str) -> String {
        let Some(inner) = &self.inner else { return String::new() };
        let rings = inner.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let events: usize = rings.values().map(FlightRing::len).sum();
        let evicted: u64 = rings.values().map(FlightRing::evicted).sum();
        let mut out = String::with_capacity(64 + events * 96);
        out.push_str("{\"ts\":");
        push_u64(&mut out, inner.clock.now_ns());
        out.push_str(",\"kind\":\"flightrec\",\"reason\":\"");
        json_escape(reason, &mut out);
        out.push_str("\",\"lanes\":");
        push_u64(&mut out, rings.len() as u64);
        out.push_str(",\"events\":");
        push_u64(&mut out, events as u64);
        out.push_str(",\"evicted\":");
        push_u64(&mut out, evicted);
        out.push_str("}\n");
        for ring in rings.values() {
            for e in ring.iter() {
                out.push_str(&e.line);
                out.push('\n');
            }
        }
        out
    }

    /// Recent trace events for one node, newest last, as a JSON array —
    /// what the `/trace/<node>` control-plane endpoint serves. `[]`
    /// when disabled or nothing is retained for the node.
    pub fn trace_json(&self, node: usize) -> String {
        let Some(inner) = &self.inner else { return "[]".to_string() };
        let rings = inner.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("[");
        let mut first = true;
        for ring in rings.values() {
            for e in ring.iter().filter(|e| e.node == Some(node)) {
                if !first {
                    out.push(',');
                }
                out.push_str(&e.line);
                first = false;
            }
        }
        out.push(']');
        out
    }

    /// Dumps the flight recorder to
    /// `<dump_dir>/flightrec_<reason>.jsonl` (reason sanitised to
    /// `[a-z0-9_-]`). Returns the path written, or `None` when the
    /// tracer is disabled, no dump directory is set, or the write
    /// failed (failures are counted, never fatal — a flight recorder
    /// must not take the aircraft down with it).
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let dir = inner.dump_dir.as_ref()?;
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.join(format!("flightrec_{safe}.jsonl"));
        match std::fs::write(&path, self.flightrec(reason)) {
            Ok(()) => {
                inner.dumps.fetch_add(1, Ordering::Relaxed);
                Some(path)
            }
            Err(_) => {
                inner.dump_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_obs::{MemorySink, TickClock};

    fn traced() -> (Tracer, Arc<MemorySink>, Arc<TickClock>) {
        let clock = Arc::new(TickClock::new());
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(42, clock.clone(), Some(sink.clone()), None);
        (t, sink, clock)
    }

    #[test]
    fn hop_renders_deterministic_jsonl() {
        let (t, sink, clock) = traced();
        clock.set(1_000);
        let ctx = t.ctx(3, 17);
        t.hop(Lane::Shard(1), &ctx, "ingest", &[("arrived", Value::from(17u64))]);
        let line = &sink.lines()[0];
        let expected = format!(
            "{{\"ts\":1000,\"trace\":\"{:016x}\",\"lane\":\"shard1\",\"node\":3,\
             \"tick\":17,\"stage\":\"ingest\",\"arrived\":17}}",
            ctx.id
        );
        assert_eq!(line, &expected);
        assert_eq!(t.hops_recorded(), 1);
    }

    #[test]
    fn service_hops_render_null_node() {
        let (t, sink, _clock) = traced();
        t.hop(Lane::Service, &t.service_ctx(9), "stage", &[]);
        assert!(sink.lines()[0].contains("\"node\":null"), "{}", sink.lines()[0]);
    }

    #[test]
    fn equal_seeds_yield_byte_identical_logs_and_dumps() {
        let run = || {
            let (t, sink, clock) = traced();
            for tick in 0..9 {
                clock.set(tick as u64 * 10);
                t.hop(Lane::Net, &t.ctx(tick % 3, tick), "decode", &[]);
                t.hop(Lane::Shard(0), &t.ctx(tick % 3, tick), "ingest", &[]);
            }
            (sink.lines().join("\n"), t.flightrec("shutdown"))
        };
        let (log_a, rec_a) = run();
        let (log_b, rec_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(rec_a, rec_b);
    }

    #[test]
    fn flightrec_orders_lanes_and_bounds_history() {
        let (t, _sink, _clock) = traced();
        // Two service hops past the ring capacity evict the two oldest.
        for tick in 0..RING_CAPACITY + 2 {
            t.hop(Lane::Service, &t.service_ctx(tick), "stage", &[]);
        }
        t.hop(Lane::Shard(0), &t.ctx(1, 0), "ingest", &[]);
        t.hop(Lane::Net, &t.ctx(1, 0), "decode", &[]);
        let dump = t.flightrec("test");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1 + RING_CAPACITY + 2);
        let header = format!("\"lanes\":3,\"events\":{},\"evicted\":2}}", RING_CAPACITY + 2);
        assert!(lines[0].starts_with("{\"ts\":0,\"kind\":\"flightrec\",\"reason\":\"test\","));
        assert!(lines[0].ends_with(&header), "{}", lines[0]);
        // Lane order: net, shard0, then service (oldest evicted).
        assert!(lines[1].contains("\"lane\":\"net\""));
        assert!(lines[2].contains("\"lane\":\"shard0\""));
        assert!(lines[3].contains("\"tick\":2,"), "oldest two service hops evicted");
        let newest = format!("\"tick\":{},", RING_CAPACITY + 1);
        assert!(lines.last().is_some_and(|l| l.contains(&newest)));
    }

    #[test]
    fn trace_json_filters_by_node() {
        let (t, _sink, _clock) = traced();
        t.hop(Lane::Shard(0), &t.ctx(1, 5), "ingest", &[]);
        t.hop(Lane::Shard(0), &t.ctx(2, 5), "ingest", &[]);
        t.hop(Lane::Service, &t.service_ctx(5), "stage", &[]);
        let json = t.trace_json(1);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"node\":1") && !json.contains("\"node\":2"));
        assert_eq!(t.trace_json(99), "[]");
    }

    #[test]
    fn dumps_go_to_the_dump_dir_and_failed_writes_are_counted() {
        let (t, _sink, _clock) = traced();
        assert_eq!(t.dump("no dir"), None);
        let dir = std::env::temp_dir().join(format!("alba_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dumping_into = |d: PathBuf| Tracer::new(42, Arc::new(TickClock::new()), None, Some(d));
        let t = dumping_into(dir.clone());
        t.hop(Lane::Net, &t.ctx(0, 0), "decode", &[]);
        let path = t.dump("fault: node_blackout").expect("dump writes");
        assert!(path.ends_with("flightrec_fault__node_blackout.jsonl"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), t.flightrec("fault: node_blackout"));
        assert_eq!((t.dumps_taken(), t.dump_failures()), (1, 0));
        let t = dumping_into(dir.join("missing"));
        assert_eq!(t.dump("shutdown"), None);
        assert_eq!((t.dumps_taken(), t.dump_failures()), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_tracer_is_a_total_no_op() {
        let t = Tracer::disabled();
        t.hop(Lane::Net, &t.ctx(0, 0), "decode", &[]);
        assert_eq!(t.hops_recorded(), 0);
        assert_eq!(t.flightrec("x"), "");
        assert_eq!(t.trace_json(0), "[]");
        assert_eq!(t.dump("x"), None);
        assert!(!t.is_enabled());
    }
}
