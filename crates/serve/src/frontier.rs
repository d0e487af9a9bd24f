//! The network-frontier seam: how samples produced *outside* the
//! process reach the [`FleetService`](crate::FleetService).
//!
//! The offline replay path drives the service from an in-process
//! [`ReplaySource`](crate::ReplaySource); a production deployment is fed
//! over the wire instead (E2EWatch deploys this exact pipeline behind a
//! backend web service). A [`NetFrontier`] is anything that can hand the
//! service one deterministic batch of samples per tick — the live
//! `alba-net` gateway, or the gateway's journaled ingest log replayed
//! offline. The seam is what keeps the byte-identical-replay invariant
//! across the network boundary: a captured session and its replay feed
//! the service the *same samples at the same ticks*, so everything
//! downstream (alarms, label requests, retrains, the event log) is
//! identical.

use crate::replay::TelemetrySample;
use serde::{Deserialize, Serialize};

/// A per-tick sample source feeding the service from across a network
/// boundary (or from a captured session's ingest log).
///
/// Contract: for a given frontier state, [`NetFrontier::poll`] must
/// return the tick's samples in a deterministic order (the gateway
/// drains its per-connection queues in session order; the log replay
/// returns records in capture order). The service offers them to its
/// bounded ingest layer exactly as it would replayed samples.
pub trait NetFrontier {
    /// Samples delivered for service tick `now`, in deterministic order.
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample>;

    /// True once the frontier will never produce another sample — every
    /// session has closed (live) or the log is exhausted (replay).
    fn is_done(&self, now: usize) -> bool;

    /// Per-tenant accounting, surfaced into
    /// [`ServiceStats::tenants`](crate::ServiceStats). Non-multi-tenant
    /// frontiers (log replay) report nothing.
    fn tenant_stats(&self) -> Vec<TenantStats> {
        Vec::new()
    }
}

/// One tenant's admission / ingest / flow-control counters, as exported
/// in the service stats. Every frame a tenant offers is accounted to
/// exactly one bucket: accepted, shed for missing credit, shed on a full
/// connection queue, or rejected as malformed — backpressure and
/// corruption are *distinct* failure modes and must stay distinguishable.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name (stable configuration identifier).
    pub tenant: String,
    /// Connections admitted.
    pub connects: u64,
    /// Connection attempts rejected by admission control (over the
    /// tenant's connection quota).
    pub admission_rejects: u64,
    /// Telemetry frames accepted into a connection queue.
    pub frames_accepted: u64,
    /// Telemetry frames shed because the sender was out of flow-control
    /// credits (answered with a BUSY frame).
    pub frames_no_credit: u64,
    /// Telemetry frames shed because the connection queue was full
    /// (answered with a BUSY frame).
    pub frames_queue_full: u64,
    /// Frames dropped for failing CRC or payload validation.
    pub frames_corrupt: u64,
    /// Flow-control credits granted back to the tenant's connections.
    pub credits_granted: u64,
    /// Samples actually delivered into the service.
    pub samples_delivered: u64,
}

impl TenantStats {
    /// A zeroed stats row for `tenant`.
    pub fn new(tenant: &str) -> Self {
        Self { tenant: tenant.to_string(), ..Self::default() }
    }

    /// Frames shed for backpressure (credit or queue exhaustion) —
    /// losses the tenant can avoid by honouring BUSY/credit frames.
    pub fn backpressure_sheds(&self) -> u64 {
        self.frames_no_credit + self.frames_queue_full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_stats_bucket_arithmetic() {
        let mut t = TenantStats::new("volta");
        t.frames_no_credit = 3;
        t.frames_queue_full = 4;
        assert_eq!(t.backpressure_sheds(), 7);
        let json = serde_json::to_string(&t).unwrap();
        let back: TenantStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
