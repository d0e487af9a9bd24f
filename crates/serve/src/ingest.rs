//! Bounded per-node ingest queues with backpressure accounting.
//!
//! The aggregator side of a production deployment pushes samples at 1 Hz
//! regardless of how fast diagnosis keeps up, so each node gets a
//! *bounded* FIFO between the replay source and its monitor. When a
//! queue is full the **newest** sample is dropped (a live feed cannot be
//! paused) and the loss is counted — the service stats expose per-fleet
//! drop totals and peak queue depth so saturation is observable instead
//! of silent.
//!
//! Drop accounting distinguishes *why* a sample was lost: a queue-full
//! drop is backpressure (the fleet outran diagnosis), a malformed drop
//! is corruption (the reading vector disagrees with the metric catalog),
//! and an unroutable drop is misaddressing. The three surface as
//! separate [`ErrorStats`](crate::ErrorStats) counters, because the
//! operator responses differ: add capacity, fix the feed, fix the
//! routing.

use crate::replay::TelemetrySample;
use alba_obs::{Counter, Obs, Value};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One node's bounded sample FIFO.
#[derive(Clone, Debug)]
pub struct SampleQueue {
    buf: VecDeque<TelemetrySample>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
    peak_depth: usize,
}

impl SampleQueue {
    /// An empty queue holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
            dropped: 0,
            peak_depth: 0,
        }
    }

    /// Enqueues one sample; returns `false` (and counts a drop) when the
    /// queue is full.
    pub fn push(&mut self, sample: TelemetrySample) -> bool {
        if self.buf.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.buf.push_back(sample);
        self.pushed += 1;
        self.peak_depth = self.peak_depth.max(self.buf.len());
        true
    }

    /// Removes and returns every queued sample, oldest first.
    pub fn drain(&mut self) -> Vec<TelemetrySample> {
        self.buf.drain(..).collect()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Aggregate ingest counters, serialisable into the service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Samples accepted across all queues.
    pub pushed: u64,
    /// Samples dropped on full queues (backpressure losses).
    pub dropped: u64,
    /// Samples addressed to a node outside the fleet — a corrupt or
    /// misconfigured feed must be counted, never an index panic.
    pub unroutable: u64,
    /// Samples rejected because their reading vector's width disagreed
    /// with the metric catalog — corruption, *not* backpressure.
    pub malformed: u64,
    /// Deepest any single queue ever got.
    pub peak_depth: usize,
}

/// The fleet's ingest layer: one bounded queue per node.
#[derive(Clone, Debug)]
pub struct IngestLayer {
    queues: Vec<SampleQueue>,
    /// Node ids of each shard, in the service's (seeded) assignment
    /// order — [`IngestLayer::drain_shard`] drains them in exactly this
    /// order, so a shard's tick batch is identical to draining its
    /// nodes one by one.
    shards: Vec<Vec<usize>>,
    unroutable: u64,
    malformed: u64,
    /// Required reading-vector width (`None` disables the check).
    expected_width: Option<usize>,
    obs: Obs,
    accepted_c: Counter,
    dropped_c: Counter,
}

impl IngestLayer {
    /// One queue of `capacity` samples per fleet node, unobserved.
    pub fn new(n_nodes: usize, capacity: usize) -> Self {
        Self::with_obs(n_nodes, capacity, Obs::disabled())
    }

    /// One queue per node, with drops counted in the obs registry
    /// (`ingest_dropped_total`) and emitted as `sample_drop` events.
    pub fn with_obs(n_nodes: usize, capacity: usize, obs: Obs) -> Self {
        Self {
            queues: (0..n_nodes).map(|_| SampleQueue::new(capacity)).collect(),
            shards: Vec::new(),
            unroutable: 0,
            malformed: 0,
            expected_width: None,
            accepted_c: obs.counter("ingest_accepted_total", &[]),
            dropped_c: obs.counter("ingest_dropped_total", &[]),
            obs,
        }
    }

    /// Enables reading-vector validation: samples whose value count is
    /// not `width` are rejected as malformed before they reach a queue.
    pub fn expect_width(mut self, width: usize) -> Self {
        self.expected_width = Some(width);
        self
    }

    /// Routes one sample to its node's queue; returns `false` on drop.
    /// Backpressure losses are structured events, not silence: a shed
    /// sample emits `sample_drop` with the node, tick and queue depth.
    /// A sample addressed outside the fleet is counted unroutable (and
    /// emits `sample_unroutable`); one whose reading vector disagrees
    /// with the catalog is counted malformed (and emits
    /// `sample_malformed`) — never an index panic, and never lumped in
    /// with queue-full backpressure.
    pub fn offer(&mut self, sample: TelemetrySample) -> bool {
        let (node, at) = (sample.node, sample.at);
        if node >= self.queues.len() {
            self.unroutable += 1;
            self.obs.counter("ingest_unroutable_total", &[]).inc();
            self.obs.event(
                "sample_unroutable",
                &[("node", Value::from(node)), ("at", Value::from(at))],
            );
            return false;
        }
        if let Some(width) = self.expected_width {
            if sample.values.len() != width {
                self.malformed += 1;
                self.obs.counter("ingest_malformed_total", &[]).inc();
                self.obs.event(
                    "sample_malformed",
                    &[
                        ("node", Value::from(node)),
                        ("at", Value::from(at)),
                        ("width", Value::from(sample.values.len())),
                        ("expected", Value::from(width)),
                    ],
                );
                return false;
            }
        }
        if self.queues[node].push(sample) {
            self.accepted_c.inc();
            return true;
        }
        self.dropped_c.inc();
        self.obs.event(
            "sample_drop",
            &[
                ("node", Value::from(node)),
                ("at", Value::from(at)),
                ("depth", Value::from(self.queues[node].len())),
            ],
        );
        false
    }

    /// Drains one node's queue (oldest first). Unknown nodes drain empty.
    pub fn drain_node(&mut self, node: usize) -> Vec<TelemetrySample> {
        self.queues.get_mut(node).map(SampleQueue::drain).unwrap_or_default()
    }

    /// Installs the node→shard partition [`IngestLayer::drain_shard`]
    /// drains by. `shards[s]` lists shard `s`'s nodes in the order their
    /// queues are concatenated into the shard's tick batch.
    pub fn assign_shards(&mut self, shards: Vec<Vec<usize>>) {
        self.shards = shards;
    }

    /// Drains every queue of one shard's nodes into a single batch, in
    /// assignment order (each queue oldest first). Unknown shards drain
    /// empty. Byte-for-byte equal to calling [`IngestLayer::drain_node`]
    /// over the shard's nodes and concatenating.
    pub fn drain_shard(&mut self, shard: usize) -> Vec<TelemetrySample> {
        let Some(nodes) = self.shards.get(shard) else { return Vec::new() };
        let mut out = Vec::new();
        for &n in nodes {
            if let Some(q) = self.queues.get_mut(n) {
                out.extend(q.drain());
            }
        }
        out
    }

    /// Current depth of one node's queue (0 for unknown nodes).
    pub fn depth(&self, node: usize) -> usize {
        self.queues.get(node).map(SampleQueue::len).unwrap_or(0)
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(SampleQueue::is_empty)
    }

    /// Aggregated counters over all queues.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            pushed: self.queues.iter().map(|q| q.pushed).sum(),
            dropped: self.queues.iter().map(|q| q.dropped).sum(),
            unroutable: self.unroutable,
            malformed: self.malformed,
            peak_depth: self.queues.iter().map(|q| q.peak_depth).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_obs::{MemorySink, TickClock};
    use std::sync::Arc;

    fn sample(node: usize, at: usize) -> TelemetrySample {
        TelemetrySample { node, at, values: vec![at as f64] }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = SampleQueue::new(8);
        for t in 0..5 {
            assert!(q.push(sample(0, t)));
        }
        let drained = q.drain();
        assert_eq!(drained.iter().map(|s| s.at).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let mut q = SampleQueue::new(3);
        for t in 0..5 {
            q.push(sample(0, t));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 2);
        // The oldest samples survive; the late arrivals were shed.
        assert_eq!(q.drain().iter().map(|s| s.at).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn sustained_overflow_counts_every_drop() {
        let mut q = SampleQueue::new(4);
        for t in 0..1_000 {
            q.push(sample(0, t));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.dropped(), 996);
        // Accounting is conserved: everything offered is either queued
        // (pushed) or counted as dropped.
        assert_eq!(q.pushed + q.dropped(), 1_000);
    }

    #[test]
    fn peak_depth_is_monotone_across_drain_cycles() {
        let mut layer = IngestLayer::new(1, 16);
        let mut last_peak = 0;
        for (cycle, burst) in [9, 3, 12, 1, 5].into_iter().enumerate() {
            for t in 0..burst {
                layer.offer(sample(0, cycle * 100 + t));
            }
            let peak = layer.stats().peak_depth;
            assert!(peak >= last_peak, "peak_depth may never regress");
            assert!(peak >= burst.min(16), "peak covers the current burst");
            last_peak = peak;
            layer.drain_node(0);
            assert_eq!(layer.stats().peak_depth, last_peak, "drain keeps the high-water mark");
        }
        assert_eq!(last_peak, 12, "the largest burst sets the mark");
    }

    #[test]
    fn drain_preserves_arrival_order_under_partial_overflow() {
        let mut q = SampleQueue::new(6);
        for t in [5, 1, 9, 2, 8, 3, 7, 4] {
            q.push(sample(0, t));
        }
        // Oldest six survive in arrival (not tick) order.
        assert_eq!(q.drain().iter().map(|s| s.at).collect::<Vec<_>>(), vec![5, 1, 9, 2, 8, 3]);
        assert_eq!(q.dropped(), 2);
        // The queue is reusable after a drain, order still FIFO.
        q.push(sample(0, 11));
        q.push(sample(0, 10));
        assert_eq!(q.drain().iter().map(|s| s.at).collect::<Vec<_>>(), vec![11, 10]);
    }

    #[test]
    fn drops_emit_structured_obs_events() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
        let mut layer = IngestLayer::with_obs(2, 2, obs.clone());
        for t in 0..4 {
            layer.offer(sample(1, t));
        }
        assert_eq!(layer.stats().dropped, 2);
        assert_eq!(obs.counter("ingest_dropped_total", &[]).get(), 2);
        assert_eq!(obs.counter("ingest_accepted_total", &[]).get(), 2);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "one event per shed sample");
        assert!(lines[0].contains(r#""kind":"sample_drop""#));
        assert!(lines[0].contains(r#""node":1"#));
        assert!(lines[0].contains(r#""at":2"#));
        assert!(lines[1].contains(r#""at":3"#));
    }

    #[test]
    fn out_of_fleet_samples_are_counted_not_panics() {
        let mut layer = IngestLayer::new(2, 4);
        assert!(!layer.offer(sample(99, 0)), "unknown node is rejected");
        assert!(!layer.offer(sample(2, 1)), "one past the end too");
        let st = layer.stats();
        assert_eq!(st.unroutable, 2);
        assert_eq!(st.pushed, 0);
        assert!(layer.drain_node(99).is_empty(), "draining unknown nodes is safe");
        assert_eq!(layer.depth(99), 0);
    }

    #[test]
    fn malformed_and_queue_full_drops_are_distinct_buckets() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
        let mut layer = IngestLayer::with_obs(1, 2, obs.clone()).expect_width(3);
        let wide = TelemetrySample { node: 0, at: 0, values: vec![1.0; 4] };
        let narrow = TelemetrySample { node: 0, at: 1, values: vec![1.0] };
        assert!(!layer.offer(wide), "over-wide readings are rejected");
        assert!(!layer.offer(narrow), "under-wide readings are rejected");
        for t in 0..3 {
            layer.offer(TelemetrySample { node: 0, at: 2 + t, values: vec![0.0; 3] });
        }
        let st = layer.stats();
        assert_eq!(st.malformed, 2, "corruption counted separately");
        assert_eq!(st.dropped, 1, "backpressure counted separately");
        assert_eq!(st.pushed, 2);
        assert_eq!(obs.counter("ingest_malformed_total", &[]).get(), 2);
        assert_eq!(obs.counter("ingest_dropped_total", &[]).get(), 1);
        let kinds: Vec<String> = sink
            .lines()
            .iter()
            .filter_map(|l| {
                l.split(r#""kind":""#).nth(1).map(|s| s.split('"').next().unwrap_or("").to_string())
            })
            .collect();
        assert_eq!(kinds, vec!["sample_malformed", "sample_malformed", "sample_drop"]);
    }

    #[test]
    fn width_check_is_off_by_default() {
        let mut layer = IngestLayer::new(1, 4);
        assert!(layer.offer(TelemetrySample { node: 0, at: 0, values: vec![1.0; 7] }));
        assert!(layer.offer(TelemetrySample { node: 0, at: 1, values: Vec::new() }));
        assert_eq!(layer.stats().malformed, 0);
    }

    #[test]
    fn drain_shard_equals_per_node_drains_in_assignment_order() {
        let mut a = IngestLayer::new(4, 8);
        let mut b = IngestLayer::new(4, 8);
        a.assign_shards(vec![vec![2, 0], vec![3, 1]]);
        for t in 0..5 {
            for n in 0..4 {
                a.offer(sample(n, t));
                b.offer(sample(n, t));
            }
        }
        let got: Vec<(usize, usize)> = a.drain_shard(0).iter().map(|s| (s.node, s.at)).collect();
        let mut want = Vec::new();
        for n in [2, 0] {
            want.extend(b.drain_node(n).iter().map(|s| (s.node, s.at)));
        }
        assert_eq!(got, want);
        assert!(a.drain_shard(0).is_empty(), "second drain is empty");
        assert!(a.drain_shard(9).is_empty(), "unknown shards drain empty");
        assert_eq!(a.drain_shard(1).len(), 10);
    }

    #[test]
    fn layer_routes_by_node_and_aggregates_stats() {
        let mut layer = IngestLayer::new(3, 2);
        assert!(layer.offer(sample(0, 0)));
        assert!(layer.offer(sample(2, 0)));
        assert!(layer.offer(sample(2, 1)));
        assert!(!layer.offer(sample(2, 2)), "third sample overflows capacity 2");
        assert_eq!(layer.depth(0), 1);
        assert_eq!(layer.depth(1), 0);
        assert_eq!(layer.depth(2), 2);
        let st = layer.stats();
        assert_eq!(st.pushed, 3);
        assert_eq!(st.dropped, 1);
        assert_eq!(st.peak_depth, 2);
        assert_eq!(layer.drain_node(2).len(), 2);
        assert!(!layer.is_empty());
        layer.drain_node(0);
        assert!(layer.is_empty());
    }
}
