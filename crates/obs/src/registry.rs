//! The thread-safe metric registry and its cheap recording handles.
//!
//! An [`Obs`] is a cloneable handle over one shared registry (or over
//! nothing — [`Obs::disabled`] turns every operation into a no-op, so
//! instrumentation can stay in place unconditionally). Metrics are
//! identified by name plus a sorted label set; looking one up returns a
//! handle ([`Counter`], [`Gauge`], [`Hist`]) that callers may cache to
//! keep hot paths down to an atomic increment. [`Obs::expose`] renders
//! every registered metric in Prometheus text-exposition format, in a
//! deterministic (sorted) order.

use crate::clock::{Clock, WallClock};
use crate::event::{render_event, EventSink, Value};
use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric identity: name plus sorted `(key, value)` labels.
type MetricId = (String, Vec<(String, String)>);

/// One registry histogram as returned by [`Obs::histogram_snapshots`]:
/// metric name, sorted labels, snapshot.
pub type HistogramRow = (String, Vec<(String, String)>, HistogramSnapshot);

fn metric_id(name: &str, labels: &[(&str, &str)]) -> MetricId {
    let mut ls: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    ls.sort();
    (name.to_string(), ls)
}

/// Renders a sorted label set as `k1="v1",k2="v2"` (empty for none).
fn render_labels(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        crate::event::json_escape(v, &mut out);
        out.push('"');
    }
    out
}

struct Inner {
    clock: Arc<dyn Clock>,
    counters: Mutex<BTreeMap<MetricId, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricId, Arc<AtomicI64>>>,
    hists: Mutex<BTreeMap<MetricId, Arc<Mutex<Histogram>>>>,
    sink: Option<Arc<dyn EventSink>>,
    events: AtomicU64,
}

/// A cloneable observability handle (see the module docs).
#[derive(Clone)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Obs {
    /// An enabled registry timed by the given clock, rendering events
    /// into `sink` (without one, events are only counted).
    pub fn with_clock(clock: Arc<dyn Clock>, sink: Option<Arc<dyn EventSink>>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                sink,
                events: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled registry timed by a fresh [`WallClock`].
    pub fn wall() -> Self {
        Self::with_clock(Arc::new(WallClock::new()), None)
    }

    /// A no-op handle: every operation does nothing and costs (almost)
    /// nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the registry clock (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// The named counter (created on first use). Cache the returned
    /// handle on hot paths.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            let mut map = i.counters.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(metric_id(name, labels)).or_default())
        }))
    }

    /// The named gauge (created on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            let mut map = i.gauges.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(metric_id(name, labels)).or_default())
        }))
    }

    /// The named histogram (created on first use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        Hist(self.inner.as_ref().map(|i| {
            let mut map = i.hists.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(metric_id(name, labels)).or_default())
        }))
    }

    /// Opens an RAII timing span: on drop, the elapsed clock time lands
    /// in the named histogram. The [`span!`](crate::span) macro is sugar
    /// for this.
    pub fn span(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        Span {
            hist: self.histogram(name, labels),
            clock: self.inner.as_ref().map(|i| Arc::clone(&i.clock)),
            start: self.now_ns(),
        }
    }

    /// Emits one structured event to the sink (if any) with the current
    /// clock time as `ts`. Events must be emitted from deterministic
    /// contexts when reproducible logs matter — see the crate docs.
    pub fn event(&self, kind: &str, fields: &[(&str, Value)]) {
        let Some(i) = &self.inner else { return };
        i.events.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &i.sink {
            sink.emit(&render_event(i.clock.now_ns(), kind, fields));
        }
    }

    /// Events emitted since construction (counted even without a sink).
    pub fn events_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.load(Ordering::Relaxed))
    }

    /// Snapshots of every registered histogram, sorted by metric id.
    pub fn histogram_snapshots(&self) -> Vec<HistogramRow> {
        let Some(i) = &self.inner else { return Vec::new() };
        let map = i.hists.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|((name, labels), h)| {
                let snap = h.lock().unwrap_or_else(|e| e.into_inner()).snapshot();
                (name.clone(), labels.clone(), snap)
            })
            .collect()
    }

    /// Renders every registered metric in Prometheus text-exposition
    /// format (empty string when disabled). Output order is
    /// deterministic: counters, gauges, then histograms, each sorted by
    /// name and labels.
    pub fn expose(&self) -> String {
        let Some(i) = &self.inner else { return String::new() };
        let mut out = String::new();
        let mut last_name = String::new();
        {
            let map = i.counters.lock().unwrap_or_else(|e| e.into_inner());
            for ((name, labels), v) in map.iter() {
                if *name != last_name {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    last_name.clone_from(name);
                }
                let ls = render_labels(labels);
                let braced = if ls.is_empty() { String::new() } else { format!("{{{ls}}}") };
                let _ = writeln!(out, "{name}{braced} {}", v.load(Ordering::Relaxed));
            }
        }
        last_name.clear();
        {
            let map = i.gauges.lock().unwrap_or_else(|e| e.into_inner());
            for ((name, labels), v) in map.iter() {
                if *name != last_name {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    last_name.clone_from(name);
                }
                let ls = render_labels(labels);
                let braced = if ls.is_empty() { String::new() } else { format!("{{{ls}}}") };
                let _ = writeln!(out, "{name}{braced} {}", v.load(Ordering::Relaxed));
            }
        }
        {
            let map = i.hists.lock().unwrap_or_else(|e| e.into_inner());
            for ((name, labels), h) in map.iter() {
                let snap = h.lock().unwrap_or_else(|e| e.into_inner()).snapshot();
                snap.expose_into(name, &render_labels(labels), &mut out);
            }
        }
        out
    }
}

/// Handle to a registered counter (no-op when obs is disabled).
#[derive(Clone, Debug)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to a registered gauge (no-op when obs is disabled).
#[derive(Clone, Debug)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Handle to a registered histogram (no-op when obs is disabled).
#[derive(Clone, Debug)]
pub struct Hist(Option<Arc<Mutex<Histogram>>>);

impl Hist {
    /// Records one value.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap_or_else(|e| e.into_inner()).record(v);
        }
    }

    /// A snapshot of the histogram (`None` when disabled).
    pub fn snapshot(&self) -> Option<HistogramSnapshot> {
        self.0.as_ref().map(|h| h.lock().unwrap_or_else(|e| e.into_inner()).snapshot())
    }
}

/// RAII timing guard: records elapsed clock time into its histogram on
/// drop (or explicitly via [`Span::finish`]).
pub struct Span {
    hist: Hist,
    clock: Option<Arc<dyn Clock>>,
    start: u64,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("start", &self.start).finish()
    }
}

impl Span {
    /// Ends the span now, recording the elapsed time.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(clock) = &self.clock {
            self.hist.record(clock.now_ns().saturating_sub(self.start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use crate::event::MemorySink;

    #[test]
    fn disabled_obs_is_a_no_op() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        obs.gauge("g", &[]).set(5);
        obs.histogram("h", &[]).record(1);
        assert!(obs.histogram("h", &[]).snapshot().is_none());
        obs.event("e", &[]);
        assert_eq!(obs.events_emitted(), 0);
        assert_eq!(obs.expose(), "");
        drop(obs.span("s", &[]));
    }

    #[test]
    fn counters_and_gauges_share_state_by_id() {
        let obs = Obs::wall();
        obs.counter("hits", &[("shard", "0")]).add(2);
        obs.counter("hits", &[("shard", "0")]).inc();
        obs.counter("hits", &[("shard", "1")]).inc();
        assert_eq!(obs.counter("hits", &[("shard", "0")]).get(), 3);
        assert_eq!(obs.counter("hits", &[("shard", "1")]).get(), 1);
        let g = obs.gauge("depth", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(obs.gauge("depth", &[]).get(), 5);
    }

    #[test]
    fn label_order_does_not_split_metrics() {
        let obs = Obs::wall();
        obs.counter("c", &[("a", "1"), ("b", "2")]).inc();
        obs.counter("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(obs.counter("c", &[("a", "1"), ("b", "2")]).get(), 2);
    }

    #[test]
    fn spans_record_tick_clock_durations() {
        let clock = Arc::new(TickClock::new());
        let obs = Obs::with_clock(clock.clone(), None);
        {
            let _s = obs.span("stage_ns", &[("stage", "extract")]);
            clock.advance(120);
        }
        {
            let s = obs.span("stage_ns", &[("stage", "extract")]);
            clock.advance(3);
            s.finish();
        }
        let snap = obs.histogram("stage_ns", &[("stage", "extract")]).snapshot().unwrap();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 123);
        assert_eq!(snap.max, 120);
    }

    #[test]
    fn events_flow_to_the_sink_with_clock_time() {
        let clock = Arc::new(TickClock::new());
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_clock(clock.clone(), Some(sink.clone()));
        clock.set(42);
        obs.event("swap", &[("round", Value::from(1u64))]);
        assert_eq!(sink.lines(), vec![r#"{"ts":42,"kind":"swap","round":1}"#]);
        assert_eq!(obs.events_emitted(), 1);
    }

    #[test]
    fn exposition_is_deterministic_and_typed() {
        let obs = Obs::wall();
        obs.counter("b_total", &[]).inc();
        obs.counter("a_total", &[("x", "1")]).add(4);
        obs.gauge("depth", &[]).set(-3);
        obs.histogram("lat", &[]).record(5);
        let text = obs.expose();
        assert_eq!(text, obs.expose(), "stable across calls");
        let a = text.find("a_total{x=\"1\"} 4").unwrap();
        let b = text.find("b_total 1").unwrap();
        assert!(a < b, "sorted by name");
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -3"));
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"5\"} 1"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn exposition_is_independent_of_insertion_order() {
        // Two registries built in opposite orders must expose byte-identical
        // text — the Prometheus page is a replay artifact, so map iteration
        // order can never leak into it.
        let fwd = Obs::wall();
        fwd.counter("a_total", &[("x", "1")]).add(4);
        fwd.counter("b_total", &[]).inc();
        fwd.gauge("depth", &[]).set(-3);
        fwd.histogram("lat", &[]).record(5);
        let rev = Obs::wall();
        rev.histogram("lat", &[]).record(5);
        rev.gauge("depth", &[]).set(-3);
        rev.counter("b_total", &[]).inc();
        rev.counter("a_total", &[("x", "1")]).add(4);
        assert_eq!(fwd.expose(), rev.expose(), "exposition must not depend on insertion order");
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::wall();
        let c = obs.clone().counter("shared", &[]);
        c.inc();
        assert_eq!(obs.counter("shared", &[]).get(), 1);
    }
}
