//! Hysteresis-guarded node quarantine.
//!
//! A node spewing garbage telemetry (stuck at ±4.2e12, non-physical
//! spikes) must be fenced off before it pollutes window features and
//! triggers alarm storms — but a single bad sample must *not* bounce a
//! healthy node in and out of quarantine. The [`QuarantineGate`]
//! therefore requires `bad_windows` consecutive garbage observations to
//! enter quarantine and `good_windows` consecutive clean ones to leave:
//! alternating good/bad streams shorter than either threshold produce
//! no transitions at all (no flapping).
//!
//! The gate is shared state behind a mutex — clones observe into the
//! same per-node streaks, and each observation is one atomic
//! read-modify-write, so two worker threads feeding the same node can
//! never both report the same threshold crossing (no double
//! `Entered`/`Released`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Hysteresis thresholds for entering and leaving quarantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineConfig {
    /// Consecutive garbage observations required to quarantine a node.
    pub bad_windows: u32,
    /// Consecutive clean observations required to release it.
    pub good_windows: u32,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        Self { bad_windows: 3, good_windows: 5 }
    }
}

/// What one observation did to a node's quarantine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transition {
    /// State unchanged.
    None,
    /// The node just crossed the bad-streak threshold and is now fenced.
    Entered,
    /// The node just crossed the good-streak threshold and is readmitted.
    Released,
}

#[derive(Clone, Copy, Debug, Default)]
struct NodeState {
    quarantined: bool,
    bad_streak: u32,
    good_streak: u32,
}

/// The mutex-guarded gate state every clone shares.
#[derive(Debug, Default)]
struct GateInner {
    nodes: HashMap<usize, NodeState>,
    entered: u64,
    released: u64,
}

/// Per-node quarantine state machine with hysteresis. Cheap to clone —
/// clones share state, so shard workers and the tick thread see one
/// consistent quarantine roster.
#[derive(Clone, Debug)]
pub struct QuarantineGate {
    cfg: QuarantineConfig,
    inner: Arc<Mutex<GateInner>>,
}

impl QuarantineGate {
    /// A gate with the given hysteresis thresholds.
    pub fn new(cfg: QuarantineConfig) -> Self {
        Self { cfg, inner: Arc::new(Mutex::new(GateInner::default())) }
    }

    /// Feeds one observation for `node` (`bad` = the sample looked like
    /// garbage) and reports any state transition it caused. One atomic
    /// read-modify-write under the gate's lock: concurrent observers of
    /// the same node serialise, so each threshold crossing is reported
    /// exactly once.
    pub fn observe(&self, node: usize, bad: bool) -> Transition {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let s = inner.nodes.entry(node).or_default();
        if bad {
            s.bad_streak += 1;
            s.good_streak = 0;
            if !s.quarantined && s.bad_streak >= self.cfg.bad_windows {
                s.quarantined = true;
                inner.entered += 1;
                return Transition::Entered;
            }
        } else {
            s.good_streak += 1;
            s.bad_streak = 0;
            if s.quarantined && s.good_streak >= self.cfg.good_windows {
                s.quarantined = false;
                inner.released += 1;
                return Transition::Released;
            }
        }
        Transition::None
    }

    /// True while `node` is fenced off.
    pub fn is_quarantined(&self, node: usize) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.nodes.get(&node).map(|s| s.quarantined).unwrap_or(false)
    }

    /// Lifetime count of quarantine entries.
    pub fn entered(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).entered
    }

    /// Lifetime count of quarantine releases.
    pub fn released(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enters_only_after_consecutive_bad_windows() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 3, good_windows: 2 });
        assert_eq!(g.observe(0, true), Transition::None);
        assert_eq!(g.observe(0, true), Transition::None);
        assert!(!g.is_quarantined(0));
        assert_eq!(g.observe(0, true), Transition::Entered);
        assert!(g.is_quarantined(0));
        assert_eq!(g.entered(), 1);
    }

    #[test]
    fn a_clean_window_resets_the_bad_streak() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 3, good_windows: 2 });
        for _ in 0..10 {
            assert_eq!(g.observe(1, true), Transition::None);
            assert_eq!(g.observe(1, true), Transition::None);
            assert_eq!(g.observe(1, false), Transition::None);
        }
        assert!(!g.is_quarantined(1), "streak never reached 3 consecutively");
        assert_eq!(g.entered(), 0);
    }

    #[test]
    fn releases_only_after_consecutive_good_windows() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 2, good_windows: 3 });
        g.observe(2, true);
        assert_eq!(g.observe(2, true), Transition::Entered);
        assert_eq!(g.observe(2, false), Transition::None);
        assert_eq!(g.observe(2, false), Transition::None);
        // Relapse resets the good streak.
        assert_eq!(g.observe(2, true), Transition::None);
        assert!(g.is_quarantined(2));
        assert_eq!(g.observe(2, false), Transition::None);
        assert_eq!(g.observe(2, false), Transition::None);
        assert_eq!(g.observe(2, false), Transition::Released);
        assert!(!g.is_quarantined(2));
        assert_eq!(g.released(), 1);
    }

    #[test]
    fn alternating_observations_never_flap() {
        let g = QuarantineGate::new(QuarantineConfig::default());
        for i in 0..1000 {
            assert_eq!(g.observe(3, i % 2 == 0), Transition::None, "flapped at step {i}");
        }
        assert_eq!(g.entered() + g.released(), 0);
    }

    #[test]
    fn nodes_are_independent() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 1, good_windows: 1 });
        g.observe(0, true);
        assert!(g.is_quarantined(0));
        assert!(!g.is_quarantined(7));
    }

    #[test]
    fn clones_share_state() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 2, good_windows: 1 });
        let other = g.clone();
        g.observe(5, true);
        assert_eq!(other.observe(5, true), Transition::Entered, "streak spans clones");
        assert!(g.is_quarantined(5), "entry is visible through every handle");
        assert_eq!(g.entered(), other.entered());
    }

    /// Two workers hammering the same node must produce exactly one
    /// `Entered` per quarantine episode — a torn read-modify-write
    /// would let both cross the threshold and double-count.
    #[test]
    fn concurrent_observers_never_double_fire_a_transition() {
        let g = QuarantineGate::new(QuarantineConfig { bad_windows: 4, good_windows: 3 });
        let episodes = 50;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    let mut transitions = 0u64;
                    for _ in 0..episodes {
                        // Enough bad observations from each worker to
                        // cross the threshold, then enough good ones to
                        // release — interleaving only shifts *which*
                        // observation crosses, never how many do.
                        for _ in 0..8 {
                            if g.observe(0, true) == Transition::Entered {
                                transitions += 1;
                            }
                        }
                        for _ in 0..6 {
                            if g.observe(0, false) == Transition::Released {
                                transitions += 1;
                            }
                        }
                    }
                    transitions
                })
            })
            .collect();
        let reported: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Exactly-once accounting: the transitions the workers saw are
        // the transitions the gate counted — a double fire would make
        // `reported` exceed the counters.
        assert_eq!(
            reported,
            g.entered() + g.released(),
            "every transition is reported exactly once, to exactly one observer"
        );
        // Both workers in their bad phase at the start guarantees 4
        // consecutive bad observations, so at least one entry happened.
        assert!(g.entered() >= 1, "the threshold was crossed at least once");
        // Entries and releases strictly alternate per node: a double
        // `Entered` (or `Released`) would break this.
        let (e, r) = (g.entered(), g.released());
        assert!(e == r || e == r + 1, "transitions alternate: entered={e} released={r}");
    }
}
