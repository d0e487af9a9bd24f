//! Named, call-counted failpoints for I/O fault injection.
//!
//! The store cannot depend on the chaos crate (it sits below it), so it
//! exposes a plain closure hook; [`Failpoints`] is the shared arsenal
//! the serving layer arms from the [`crate::FaultPlan`] and adapts into
//! that hook. Each named point carries a budget of pending failures:
//! `arm("store.read", 2)` makes the next two checks of `store.read`
//! fail, after which the point goes quiet until re-armed. Checks are
//! counted whether or not they fire, so tests can assert exactly how
//! many I/O calls crossed each boundary.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, Default)]
struct Point {
    /// Checks to let pass before pending failures start consuming.
    delay: u64,
    /// Failures still pending at this point.
    pending: u64,
    /// Checks that fired (returned "fail").
    fired: u64,
    /// Total checks, fired or not.
    checks: u64,
}

/// A shared registry of named failpoints. Cheap to clone — clones share
/// state, so the chaos runtime can arm points while store adapters
/// check them.
#[derive(Clone, Debug, Default)]
pub struct Failpoints {
    points: Arc<Mutex<HashMap<String, Point>>>,
}

impl Failpoints {
    /// An empty registry; every check passes until a point is armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the next `n` checks of `name` to fail (additive with
    /// any failures already pending).
    pub fn arm(&self, name: &str, n: u64) {
        let mut map = self.points.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().pending += n;
    }

    /// Lets the next `skip` checks of `name` pass, then fails the `n`
    /// after that. This is the "crash after N successful writes" shape
    /// the resume tests need; the delay stacks onto whatever delay is
    /// already outstanding, and the failures add to `pending` as with
    /// [`Failpoints::arm`].
    pub fn arm_after(&self, name: &str, skip: u64, n: u64) {
        let mut map = self.points.lock().unwrap_or_else(|e| e.into_inner());
        let p = map.entry(name.to_string()).or_default();
        p.delay += skip;
        p.pending += n;
    }

    /// Records one crossing of `name` and reports whether it should
    /// fail. A delayed point first counts down its free passes; after
    /// that, each firing check consumes one pending failure.
    pub fn check(&self, name: &str) -> bool {
        let mut map = self.points.lock().unwrap_or_else(|e| e.into_inner());
        let p = map.entry(name.to_string()).or_default();
        p.checks += 1;
        if p.delay > 0 {
            p.delay -= 1;
            return false;
        }
        if p.pending > 0 {
            p.pending -= 1;
            p.fired += 1;
            true
        } else {
            false
        }
    }

    /// How many checks of `name` fired.
    pub fn fired(&self, name: &str) -> u64 {
        self.points
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|p| p.fired)
            .unwrap_or(0)
    }

    /// How many times `name` was checked (fired or not).
    pub fn checks(&self, name: &str) -> u64 {
        self.points
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|p| p.checks)
            .unwrap_or(0)
    }

    /// Failures still pending on `name`.
    pub fn pending(&self, name: &str) -> u64 {
        self.points
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|p| p.pending)
            .unwrap_or(0)
    }

    /// Total fired failures across every point.
    pub fn total_fired(&self) -> u64 {
        self.points.lock().unwrap_or_else(|e| e.into_inner()).values().map(|p| p.fired).sum()
    }

    /// An I/O-flavoured adapter for `name`: returns a closure that
    /// yields `Some(io::Error)` when the point fires, suitable for the
    /// store's fault-hook seam.
    pub fn io_hook(&self, tag: &str) -> impl Fn(&str) -> Option<std::io::Error> + Send + Sync {
        let fp = self.clone();
        let tag = tag.to_string();
        move |name: &str| {
            if fp.check(name) {
                Some(std::io::Error::other(format!("failpoint {name} ({tag}): injected fault")))
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_points_fire_exactly_n_times() {
        let fp = Failpoints::new();
        fp.arm("store.read", 2);
        assert!(fp.check("store.read"));
        assert!(fp.check("store.read"));
        assert!(!fp.check("store.read"), "budget exhausted");
        assert_eq!(fp.fired("store.read"), 2);
        assert_eq!(fp.checks("store.read"), 3);
    }

    #[test]
    fn unarmed_points_always_pass_but_still_count() {
        let fp = Failpoints::new();
        assert!(!fp.check("journal.append"));
        assert_eq!(fp.checks("journal.append"), 1);
        assert_eq!(fp.fired("journal.append"), 0);
    }

    #[test]
    fn clones_share_state() {
        let fp = Failpoints::new();
        let other = fp.clone();
        other.arm("store.fsync", 1);
        assert!(fp.check("store.fsync"), "armed through the clone");
        assert_eq!(other.fired("store.fsync"), 1);
    }

    #[test]
    fn arming_is_additive() {
        let fp = Failpoints::new();
        fp.arm("x", 1);
        fp.arm("x", 2);
        assert_eq!(fp.pending("x"), 3);
    }

    #[test]
    fn arm_after_skips_then_fails() {
        let fp = Failpoints::new();
        fp.arm_after("cell.write", 3, 1);
        for i in 0..3 {
            assert!(!fp.check("cell.write"), "pass {i} is within the delay window");
        }
        assert!(fp.check("cell.write"), "fourth check fires");
        assert!(!fp.check("cell.write"), "budget exhausted after one failure");
        assert_eq!(fp.fired("cell.write"), 1);
        assert_eq!(fp.checks("cell.write"), 5);
    }

    #[test]
    fn arm_after_zero_skip_behaves_like_arm() {
        let fp = Failpoints::new();
        fp.arm_after("y", 0, 2);
        assert!(fp.check("y"));
        assert!(fp.check("y"));
        assert!(!fp.check("y"));
    }

    #[test]
    fn io_hook_translates_fires_into_errors() {
        let fp = Failpoints::new();
        let hook = fp.io_hook("unit");
        fp.arm("store.write", 1);
        let err = hook("store.write").expect("fires once");
        assert!(err.to_string().contains("store.write"));
        assert!(hook("store.write").is_none());
        assert_eq!(fp.total_fired(), 1);
    }

    /// Two pool workers hitting the same failpoint must never both
    /// consume the last pending shot: `check` is one read-modify-write
    /// under the registry lock, so a budget of 1 fires exactly once no
    /// matter the interleaving.
    #[test]
    fn concurrent_checks_never_double_fire() {
        for _ in 0..20 {
            let fp = Failpoints::new();
            fp.arm("shard.process", 1);
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let fp = fp.clone();
                    std::thread::spawn(move || {
                        (0..100).filter(|_| fp.check("shard.process")).count() as u64
                    })
                })
                .collect();
            let fires: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(fires, 1, "a budget of 1 fired {fires} times under contention");
            assert_eq!(fp.fired("shard.process"), 1);
            assert_eq!(fp.total_fired(), 1);
            assert_eq!(fp.checks("shard.process"), 200, "every check was counted");
        }
    }
}
