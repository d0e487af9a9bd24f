//! The input generator: a fleet of per-node telemetry sequences and the
//! phase-staggered schedule that delivers them.
//!
//! Node `n` starts at tick `n % stride` and then delivers one sample per
//! tick, so once every window is full each tick completes a window on
//! about `1 / stride` of the fleet instead of on all of it or none of it.
//! A node's sequence is one or more generated job streams played back to
//! back; every sample of the sequence is delivered exactly once, in
//! order, and stamped with the tick it is delivered at.

use alba_serve::{ReplaySource, TelemetrySample};

/// Where the job streams' readings live.
enum Streams {
    /// Streams of a generated fleet, read in place (column-major).
    Replay(ReplaySource),
    /// Per-stream rows (`rows[stream][t]` is one reading vector).
    Rows(Vec<Vec<Vec<f64>>>),
}

impl Streams {
    fn len(&self, s: usize) -> usize {
        match self {
            Streams::Replay(r) => r.streams()[s].telemetry.series.len(),
            Streams::Rows(rows) => rows[s].len(),
        }
    }

    fn reading(&self, s: usize, t: usize) -> Vec<f64> {
        match self {
            Streams::Replay(r) => {
                r.streams()[s].telemetry.series.values.iter().map(|metric| metric[t]).collect()
            }
            Streams::Rows(rows) => rows[s][t].clone(),
        }
    }
}

/// A fleet of per-node sample sequences under a staggered schedule.
pub struct Fleet {
    streams: Streams,
    /// Ground-truth label of each stream.
    labels: Vec<String>,
    /// Per node: the streams it plays, in order.
    jobs: Vec<Vec<usize>>,
    /// Per node: local sample index at which each job starts.
    starts: Vec<Vec<usize>>,
    stride: usize,
    /// Ticks the schedule runs for.
    horizon: usize,
}

impl Fleet {
    /// A fleet over a generated [`ReplaySource`]: every node plays job
    /// streams back to back until `horizon` ticks are covered. Node `n`'s
    /// first job is stream `n`; each later round of jobs is a seeded
    /// permutation of the streams, so a node's next job is another node's
    /// run.
    pub fn chained(replay: ReplaySource, stride: usize, horizon: usize, seed: u64) -> Self {
        let n = replay.n_nodes();
        let labels = replay.truth_labels();
        let streams = Streams::Replay(replay);
        let mut rounds: Vec<Vec<usize>> = vec![(0..n).collect()];
        let mut jobs = vec![Vec::new(); n];
        let mut starts = vec![Vec::new(); n];
        for node in 0..n {
            let need = horizon.saturating_sub(node % stride);
            let mut covered = 0;
            let mut k = 0;
            while covered < need {
                if k == rounds.len() {
                    rounds.push(permutation(n, mix(seed, k as u64)));
                }
                let s = rounds[k][node];
                jobs[node].push(s);
                starts[node].push(covered);
                covered += streams.len(s);
                k += 1;
            }
        }
        Self { streams, labels, jobs, starts, stride, horizon }
    }

    /// A fleet where node `n` plays exactly one sequence of readings,
    /// `rows[n]`, labelled `labels[n]`.
    pub fn single(
        rows: Vec<Vec<Vec<f64>>>,
        labels: Vec<String>,
        stride: usize,
        horizon: usize,
    ) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per node");
        let n = rows.len();
        Self {
            streams: Streams::Rows(rows),
            labels,
            jobs: (0..n).map(|s| vec![s]).collect(),
            starts: vec![vec![0]; n],
            stride,
            horizon,
        }
    }

    /// Fleet size.
    pub fn n_nodes(&self) -> usize {
        self.jobs.len()
    }

    /// Ticks the schedule covers.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Tick at which `node` delivers its first sample.
    pub fn phase(&self, node: usize) -> usize {
        node % self.stride
    }

    /// Samples `node` delivers over the whole schedule.
    pub fn delivered(&self, node: usize) -> usize {
        let len: usize = self.jobs[node].iter().map(|&s| self.streams.len(s)).sum();
        len.min(self.horizon.saturating_sub(self.phase(node)))
    }

    /// Samples `node` has delivered before schedule tick `tick`.
    pub fn delivered_by(&self, node: usize, tick: usize) -> usize {
        self.delivered(node).min(tick.saturating_sub(self.phase(node)))
    }

    /// `(stream, offset)` of `node`'s local sample `i`.
    fn locate(&self, node: usize, i: usize) -> (usize, usize) {
        let starts = &self.starts[node];
        let j = starts.partition_point(|&s| s <= i) - 1;
        (self.jobs[node][j], i - starts[j])
    }

    /// Ground truth of `node`'s local sample `i`: the label of the job
    /// stream it came from.
    pub fn truth(&self, node: usize, i: usize) -> &str {
        &self.labels[self.locate(node, i).0]
    }

    /// The samples delivered at `tick`, in node order.
    pub fn batch(&self, tick: usize) -> Vec<TelemetrySample> {
        if tick >= self.horizon {
            return Vec::new();
        }
        let mut out = Vec::new();
        for node in 0..self.n_nodes() {
            let Some(i) = tick.checked_sub(self.phase(node)) else { continue };
            if i >= self.delivered(node) {
                continue;
            }
            let (s, t) = self.locate(node, i);
            out.push(TelemetrySample { node, at: tick, values: self.streams.reading(s, t) });
        }
        out
    }
}

/// Windows a monitor with `window`/`stride` completes over `samples`
/// pushes: the first when the window fills, then one every `stride`.
pub fn expected_windows(samples: usize, window: usize, stride: usize) -> usize {
    if samples < window {
        0
    } else {
        (samples - window) / stride + 1
    }
}

/// SplitMix64 step: a seeded stream of well-mixed 64-bit values.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_net::{Gateway, GatewayConfig, MemListener, TenantConfig, WireClient};
    use alba_serve::{FleetConfig, NetFrontier};
    use alba_telemetry::Scale;
    use albadross::System;

    /// Nodes with distinct, recognisable readings: node `n`, sample `i`
    /// reads `[n, i]`.
    fn toy(nodes: usize, len: usize, stride: usize, horizon: usize) -> Fleet {
        let rows =
            (0..nodes).map(|n| (0..len).map(|i| vec![n as f64, i as f64]).collect()).collect();
        Fleet::single(rows, vec!["healthy".into(); nodes], stride, horizon)
    }

    /// Asserts the staggered-delivery contract over a per-tick stream of
    /// batches: each node's samples arrive once, in order, one per tick,
    /// starting at its phase.
    fn assert_staggered(fleet: &Fleet, batches: &[Vec<TelemetrySample>], lag: usize) {
        let mut next = vec![0usize; fleet.n_nodes()];
        for (tick, batch) in batches.iter().enumerate() {
            for s in batch {
                let i = next[s.node];
                assert_eq!(tick, lag + fleet.phase(s.node) + i, "node {} sample {i} late", s.node);
                assert_eq!(s.at + lag, tick, "stamped with its schedule tick");
                assert_eq!(s.values[0], s.node as f64);
                assert_eq!(s.values[1], i as f64, "node {} out of order", s.node);
                next[s.node] += 1;
            }
        }
        for (n, &got) in next.iter().enumerate() {
            assert_eq!(got, fleet.delivered(n), "node {n} delivered every sample once");
        }
    }

    #[test]
    fn in_process_schedule_delivers_each_sample_once_in_order_at_its_phase() {
        let fleet = toy(23, 40, 10, 45);
        let batches: Vec<_> = (0..fleet.horizon() + 3).map(|t| fleet.batch(t)).collect();
        assert_staggered(&fleet, &batches, 0);
        assert_eq!(fleet.delivered(0), 40, "phase-0 node is bounded by its stream");
        assert_eq!(fleet.delivered(9), 36, "phase-9 node is bounded by the horizon");
        let total: usize = batches.iter().map(Vec::len).sum();
        let by_horizon: usize =
            (0..fleet.n_nodes()).map(|n| fleet.delivered_by(n, fleet.horizon())).sum();
        assert_eq!(total, by_horizon);
        assert_eq!(fleet.delivered_by(9, 20), 11, "a phase-9 node has sent ticks 9..20");
    }

    #[test]
    fn wire_schedule_delivers_each_sample_once_in_order_at_its_phase() {
        let fleet = toy(17, 30, 10, 36);
        // Tick 0 is the handshake; schedule tick `t` is sent at tick `t + 1`.
        let mut sends = vec![Vec::new()];
        sends.extend((0..fleet.horizon()).map(|t| fleet.batch(t)));
        let (listener, dialer) = MemListener::new(1 << 20);
        let mut tenant = TenantConfig::new("fleet", "token");
        tenant.initial_credits = 256;
        tenant.queue_capacity = 256;
        let mut gateway = Gateway::new(GatewayConfig::new(vec![tenant]), Box::new(listener));
        let mut client =
            WireClient::new(Box::new(move || Box::new(dialer.dial())), "fleet", "token", sends);
        let mut received = Vec::new();
        for now in 0..fleet.horizon() + 3 {
            client.step(now);
            gateway.pump(now, None);
            received.push(gateway.poll(now));
        }
        assert!(!client.is_failed());
        assert_eq!(client.stats().busy_seen, 0, "no sheds");
        assert_staggered(&fleet, &received, 1);
    }

    #[test]
    fn chained_jobs_cover_the_horizon_and_are_seeded() {
        let replay = ReplaySource::build(&FleetConfig::new(System::Volta, Scale::Smoke, 12, 5));
        let shortest = replay.streams().iter().map(|s| s.telemetry.series.len()).min().unwrap();
        let horizon = 3 * shortest;
        let a = Fleet::chained(replay.clone(), 4, horizon, 11);
        let b = Fleet::chained(replay.clone(), 4, horizon, 11);
        let c = Fleet::chained(replay, 4, horizon, 12);
        for n in 0..a.n_nodes() {
            assert_eq!(a.delivered(n), horizon - a.phase(n), "node {n} covers the horizon");
            assert_eq!(a.jobs[n][0], n, "first job is the node's own stream");
        }
        assert_eq!(a.jobs, b.jobs, "equal seeds, equal job chains");
        assert_ne!(a.jobs, c.jobs, "the seed picks the later jobs");
        // Readings include NaN (dropped samples): compare bit patterns.
        let bits = |batch: Vec<TelemetrySample>| -> Vec<(usize, usize, Vec<u64>)> {
            batch
                .into_iter()
                .map(|s| (s.node, s.at, s.values.iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        for t in [0, shortest + 3, horizon - 1] {
            assert_eq!(bits(a.batch(t)), bits(b.batch(t)));
        }
        let node = 5;
        let second = a.starts[node][1];
        assert_eq!(a.truth(node, second), a.labels[a.jobs[node][1]]);
        assert_eq!(a.truth(node, second - 1), a.labels[node]);
    }

    #[test]
    fn window_count_matches_the_monitor_rule() {
        assert_eq!(expected_windows(59, 60, 10), 0);
        assert_eq!(expected_windows(60, 60, 10), 1);
        assert_eq!(expected_windows(69, 60, 10), 1);
        assert_eq!(expected_windows(70, 60, 10), 2);
    }
}
