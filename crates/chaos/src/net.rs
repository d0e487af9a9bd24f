//! Connection-level fault plans for the network frontier: partial
//! frames, corrupt CRCs, slowloris pacing and reconnect storms.
//!
//! These faults live in their own plan type — not in
//! [`FaultKind`](crate::FaultKind) — because
//! [`FaultPlan`](crate::FaultPlan) is a serialized artifact
//! (chaos campaign JSON) and extending its enum would change the wire
//! shape of existing captures. Network faults are also injected at a
//! different layer: the deterministic wire client mangles its *own
//! output bytes* before they reach the gateway, exercising the server's
//! corruption, timeout and admission defences without touching the
//! telemetry content that the in-process injector owns.
//!
//! Like `FaultPlan`, generation is seeded and pure: equal arguments
//! yield an identical schedule, so a chaos soak can be replayed
//! exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a network fault does to the client's byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NetFaultKind {
    /// Flip one byte of an encoded frame (the gateway must count it
    /// corrupt and resync, never desync or panic).
    CorruptCrc,
    /// Split a frame's bytes across this tick and the next (exercises
    /// partial-frame buffering).
    PartialFrame,
    /// Trickle the pending frame one byte per tick for `duration` ticks
    /// (must trip the gateway's slowloris reaper if sustained).
    Slowloris,
    /// Drop the connection and redial (exercises admission slot release
    /// and handshake resumption).
    Reconnect,
}

impl NetFaultKind {
    /// Stable short name (metric label, logs).
    pub fn name(&self) -> &'static str {
        match self {
            NetFaultKind::CorruptCrc => "corrupt_crc",
            NetFaultKind::PartialFrame => "partial_frame",
            NetFaultKind::Slowloris => "slowloris",
            NetFaultKind::Reconnect => "reconnect",
        }
    }
}

/// One scheduled network fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetFaultEvent {
    /// What happens.
    pub kind: NetFaultKind,
    /// Client tick the fault fires at.
    pub tick: usize,
    /// Ticks the fault stays active (meaningful for `Slowloris`).
    pub duration: usize,
}

/// How many of each fault class to schedule.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct NetChaosConfig {
    /// Frames with one byte flipped.
    pub corrupt_crcs: usize,
    /// Frames split across tick boundaries.
    pub partial_frames: usize,
    /// Slowloris episodes.
    pub slowloris: usize,
    /// Disconnect-and-redial episodes.
    pub reconnects: usize,
    /// Mean slowloris duration in ticks.
    pub mean_duration: usize,
}

impl NetChaosConfig {
    /// A light mixed plan: a few of everything.
    pub fn light() -> Self {
        Self { corrupt_crcs: 3, partial_frames: 3, slowloris: 1, reconnects: 2, mean_duration: 3 }
    }

    /// A reconnect storm: the client churns sessions hard.
    pub fn reconnect_storm(reconnects: usize) -> Self {
        Self { reconnects, ..Self::default() }
    }
}

/// A seeded, serializable schedule of network faults.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetFaultPlan {
    /// Seed the plan was generated from (provenance only).
    pub seed: u64,
    /// Tick horizon the plan was generated for.
    pub horizon: usize,
    /// Scheduled faults, sorted by `(tick, kind)`.
    pub events: Vec<NetFaultEvent>,
}

impl NetFaultPlan {
    /// An empty plan (a perfectly behaved client).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Generates the schedule. Deterministic — equal arguments yield an
    /// identical plan.
    pub fn generate(cfg: &NetChaosConfig, seed: u64, horizon: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = horizon.max(2);
        let mean = cfg.mean_duration.max(2);
        let mut events = Vec::new();
        let classes: [(NetFaultKind, usize); 4] = [
            (NetFaultKind::CorruptCrc, cfg.corrupt_crcs),
            (NetFaultKind::PartialFrame, cfg.partial_frames),
            (NetFaultKind::Slowloris, cfg.slowloris),
            (NetFaultKind::Reconnect, cfg.reconnects),
        ];
        for (kind, count) in classes {
            for _ in 0..count {
                // Like FaultPlan: keep the final quarter fault-free so
                // the session can finish cleanly within the horizon.
                let start_cap = (horizon * 3 / 4).max(1);
                let tick = rng.gen_range(0..start_cap);
                let duration = match kind {
                    NetFaultKind::Slowloris => rng.gen_range(mean / 2..=mean + mean / 2).max(1),
                    _ => 1,
                };
                events.push(NetFaultEvent { kind, tick, duration });
            }
        }
        events.sort_by_key(|e| (e.tick, e.kind, e.duration));
        Self { seed, horizon, events }
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events firing exactly at `tick`, in plan order.
    pub fn at(&self, tick: usize) -> impl Iterator<Item = &NetFaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// Serializes the plan to JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = NetChaosConfig::light();
        let a = NetFaultPlan::generate(&cfg, 42, 100);
        let b = NetFaultPlan::generate(&cfg, 42, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
        let c = NetFaultPlan::generate(&cfg, 43, 100);
        assert_ne!(a, c, "a different seed moves the schedule");
    }

    #[test]
    fn events_stay_clear_of_the_final_quarter() {
        let plan = NetFaultPlan::generate(&NetChaosConfig::light(), 7, 100);
        assert!(plan.events.iter().all(|e| e.tick < 75));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let plan = NetFaultPlan::generate(&NetChaosConfig::light(), 11, 64);
        let json = plan.to_json().unwrap();
        assert_eq!(NetFaultPlan::from_json(&json).unwrap(), plan);
    }

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = NetFaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.at(0).count(), 0);
    }
}
