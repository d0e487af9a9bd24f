//! Fixture: panic sites at the end of the hot-path chain, one bare
//! (a finding), one suppressed at source, and one stale suppression.

pub struct Shard {
    lanes: Vec<u64>,
}

impl Shard {
    pub fn process_batch(&mut self) {
        let head = self.head_lane();
        let tail = self.tail_lane();
        let _ = (head, tail);
    }

    /// The bare site: reachable from `FleetService::tick` through
    /// three call edges.
    fn head_lane(&self) -> u64 {
        *self.lanes.first().unwrap()
    }

    /// Suppressed at source — counts as suppressed, not a finding, and
    /// the suppression is live (not stale).
    fn tail_lane(&self) -> u64 {
        // alba-lint: allow(reachable-panic) reason="lanes is non-empty by construction"
        *self.lanes.last().unwrap()
    }

    /// Stale: this allow names an interprocedural rule but silences
    /// nothing — the gate must flag it.
    fn lane_count(&self) -> usize {
        // alba-lint: allow(lock-order-cycle) reason="grandfathered from the v1 sweep"
        self.lanes.len()
    }
}
