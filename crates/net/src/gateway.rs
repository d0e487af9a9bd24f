//! The gateway: a single-threaded, non-blocking poll loop that accepts
//! connections, sniffs wire-vs-HTTP, enforces admission and flow
//! control, journals every accepted telemetry frame, and feeds the
//! service as a [`NetFrontier`].
//!
//! ## Determinism contract
//!
//! The gateway records **counters, gauges and histograms only — never
//! obs events**. Events are the replay-identity artifact: a live
//! network run and its ingest-log replay must produce byte-identical
//! event logs, and the replay path has no gateway. Everything the
//! gateway wants to say about connections lands in metrics and in the
//! per-tenant stats rows instead.
//!
//! Connections are processed in session (accept) order every pump, and
//! [`Gateway::poll`] drains their queues in the same order, so sample
//! delivery order is a pure function of what arrived before each pump.
//! Under the lockstep drive used by the tests and the deterministic
//! client (client step → gateway pump → service tick) the whole stack
//! is reproducible end to end; under free-running TCP the *capture*
//! is authoritative — whatever order the samples landed in is exactly
//! the order the journal replays.
//!
//! ## Byte movement
//!
//! Each pump decodes every complete frame from a cursor into the
//! connection's read buffer and drains the consumed prefix once at the
//! end, so a pump's cost is linear in the bytes it reads. An accepted
//! telemetry frame's CRC-verified payload is copied once, beside the
//! queue, and [`Gateway::poll`] journals it behind the delivery tick
//! (see [`crate::journal`]): the record is the bytes that arrived, not
//! a re-encoding of the decoded sample.

use crate::conn::{Conn, ConnPhase, Queued};
use crate::frame::{self, Decoded, Frame};
use crate::http::{self, ControlPlane, HttpParse};
use crate::journal::IngestLog;
use crate::tenant::{Admission, Reject, TenantConfig};
use crate::transport::Listener;
use alba_obs::{Obs, Value};
use alba_serve::{NetFrontier, TelemetrySample, TenantStats};
use alba_trace::{Lane, Tracer};
use std::collections::BTreeMap;
use std::ops::Range;

/// Wire error code for protocol-sequence violations.
const E_PROTOCOL: u16 = 400;

/// Gateway tuning knobs.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Tenants allowed to connect.
    pub tenants: Vec<TenantConfig>,
    /// Ticks of total silence after which a connection is reaped.
    pub idle_timeout_ticks: usize,
    /// Ticks a partial frame (or partial HTTP head) may sit in the read
    /// buffer before the connection is reaped — the slowloris defence:
    /// trickling one byte per tick keeps a connection *active* but
    /// never completes a frame, so idleness alone would not catch it.
    pub partial_timeout_ticks: usize,
}

impl GatewayConfig {
    /// A gateway for the given tenants with default timeouts.
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        Self { tenants, idle_timeout_ticks: 30, partial_timeout_ticks: 5 }
    }
}

/// The network frontier implementation: listener + connections +
/// admission + ingest journal.
pub struct Gateway {
    cfg: GatewayConfig,
    listener: Box<dyn Listener>,
    conns: Vec<Conn>,
    admission: Admission,
    stats: BTreeMap<String, TenantStats>,
    log: IngestLog,
    next_session: u64,
    /// A wire session has existed at some point — gates `is_done` so a
    /// gateway is not "done" before anyone ever connected.
    saw_session: bool,
    obs: Obs,
    /// Causal tracing: the gateway mints each telemetry chain's trace
    /// id at frame decode. Hops are recorded from the pump, which runs
    /// on the lockstep thread — the same determinism discipline as the
    /// counters above.
    tracer: Tracer,
}

impl Gateway {
    /// A gateway over `listener`, unobserved.
    pub fn new(cfg: GatewayConfig, listener: Box<dyn Listener>) -> Self {
        Self::with_obs(cfg, listener, Obs::disabled())
    }

    /// A gateway recording connection/frame/reject counters and ingest
    /// latency histograms into `obs`. No obs *events* are ever emitted
    /// (see the module docs' determinism contract).
    pub fn with_obs(cfg: GatewayConfig, listener: Box<dyn Listener>, obs: Obs) -> Self {
        Self::with_tracer(cfg, listener, obs, Tracer::disabled())
    }

    /// [`Gateway::with_obs`] with causal tracing: every decoded
    /// telemetry frame records a `decode` hop on the net lane, keyed by
    /// the deterministic `(seed, node, at)` trace id that the service's
    /// downstream stages re-derive. The tracer's seed must equal the
    /// service's `cfg.fleet.seed` for the chains to join up.
    pub fn with_tracer(
        cfg: GatewayConfig,
        listener: Box<dyn Listener>,
        obs: Obs,
        tracer: Tracer,
    ) -> Self {
        let admission = Admission::new(cfg.tenants.clone());
        let stats = admission
            .tenant_names()
            .into_iter()
            .map(|n| (n.clone(), TenantStats::new(&n)))
            .collect();
        Self {
            cfg,
            listener,
            conns: Vec::new(),
            admission,
            stats,
            log: IngestLog::new(),
            next_session: 0,
            saw_session: false,
            obs,
            tracer,
        }
    }

    /// The ingest journal captured so far.
    pub fn ingest_log(&self) -> &IngestLog {
        &self.log
    }

    /// Live connection count (all phases except `Closed`).
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// Per-tenant stats as JSON (the `/tenants` route body).
    pub fn tenants_json(&self) -> String {
        let rows: Vec<&TenantStats> = self.stats.values().collect();
        serde_json::to_string(&rows).unwrap_or_else(|_| "[]".to_string())
    }

    /// One pump of the poll loop: accept pending connections, advance
    /// every connection's state machine (flush, read, frame/HTTP
    /// processing), answer control-plane requests against `ctl`, and
    /// reap timed-out or finished connections.
    pub fn pump(&mut self, now: usize, ctl: Option<&dyn ControlPlane>) {
        self.accept_pending(now);
        // Take the connection list so per-connection handlers can call
        // `&mut self` helpers (stats, admission, counters) without
        // aliasing the list being iterated.
        let mut conns = std::mem::take(&mut self.conns);
        for conn in conns.iter_mut() {
            self.advance(conn, now, ctl);
        }
        for conn in conns.iter_mut() {
            if conn.phase == ConnPhase::Closed {
                if let Some(name) = conn.tenant_name() {
                    self.admission.release(name);
                }
            }
        }
        conns.retain(|c| c.phase != ConnPhase::Closed);
        self.conns = conns;
    }

    fn accept_pending(&mut self, now: usize) {
        loop {
            match self.listener.accept() {
                Ok(Some(stream)) => {
                    self.next_session += 1;
                    self.obs.counter("net_accepts_total", &[]).inc();
                    self.conns.push(Conn::new(stream, self.next_session, now));
                }
                Ok(None) => break,
                Err(_) => {
                    self.obs.counter("net_accept_errors_total", &[]).inc();
                    break;
                }
            }
        }
        self.obs.gauge("net_open_connections", &[]).set(self.conns.len() as i64);
    }

    /// Advances one connection: flush → read → protocol step → timeouts.
    fn advance(&mut self, conn: &mut Conn, now: usize, ctl: Option<&dyn ControlPlane>) {
        conn.flush();
        if conn.phase == ConnPhase::Closed {
            return;
        }
        conn.fill(now);
        if conn.phase == ConnPhase::Sniffing && !conn.rbuf.is_empty() {
            // Sniff: the wire magic's first byte (0xA1) is not ASCII;
            // every HTTP method begins with an ASCII letter.
            conn.phase = if conn.rbuf[0] == frame::MAGIC[0] {
                ConnPhase::AwaitHello
            } else {
                ConnPhase::Http
            };
        }
        match conn.phase {
            ConnPhase::AwaitHello | ConnPhase::Open | ConnPhase::ByeWait => {
                self.step_wire(conn, now);
            }
            ConnPhase::Http => self.step_http(conn, ctl),
            _ => {}
        }
        self.reap_timeouts(conn, now);
        conn.flush();
        conn.settle();
    }

    /// Decodes and handles every complete frame buffered on `conn`,
    /// reading from a cursor into the read buffer; the consumed prefix
    /// is drained once, when the pump's frames are done.
    fn step_wire(&mut self, conn: &mut Conn, now: usize) {
        let mut pos = 0usize;
        loop {
            let rest = conn.rbuf.get(pos..).unwrap_or_default();
            match frame::decode_frame(rest) {
                Ok(Decoded::Frame(f, consumed)) => {
                    let payload = pos + frame::HEADER_LEN..pos + consumed;
                    pos += consumed;
                    conn.partial_since = None;
                    self.obs.counter("net_frames_total", &[("type", f.name())]).inc();
                    self.handle_frame(conn, f, payload);
                    if !matches!(
                        conn.phase,
                        ConnPhase::AwaitHello | ConnPhase::Open | ConnPhase::ByeWait
                    ) {
                        break;
                    }
                }
                Ok(Decoded::Corrupt(e, skip)) => {
                    pos += skip;
                    conn.partial_since = None;
                    self.obs.counter("net_frames_corrupt_total", &[("error", e.name())]).inc();
                    if let Some(t) = &conn.tenant {
                        self.tenant_row(&t.name, |r| r.frames_corrupt += 1);
                    }
                }
                Ok(Decoded::Incomplete) => {
                    if rest.is_empty() {
                        conn.partial_since = None;
                    } else if conn.partial_since.is_none() {
                        conn.partial_since = Some(now);
                    }
                    break;
                }
                Err(e) => {
                    // Fatal desync: tell the peer why, then hang up.
                    self.obs.counter("net_frames_fatal_total", &[("error", e.name())]).inc();
                    conn.send(&Frame::Error { code: E_PROTOCOL, message: e.to_string() });
                    conn.drain_then_close();
                    break;
                }
            }
        }
        conn.rbuf.drain(..pos);
    }

    /// Applies one valid frame to the connection's session state.
    /// `payload` is where the frame's verified payload sits in
    /// `conn.rbuf`; an accepted telemetry frame queues a copy of it for
    /// the ingest journal.
    fn handle_frame(&mut self, conn: &mut Conn, f: Frame, payload: Range<usize>) {
        match (conn.phase, f) {
            (ConnPhase::AwaitHello, Frame::Hello { tenant, token }) => {
                match self.admission.admit(&tenant, &token) {
                    Ok(tcfg) => {
                        self.saw_session = true;
                        conn.credits = tcfg.initial_credits;
                        self.tenant_row(&tcfg.name, |r| r.connects += 1);
                        conn.send(&Frame::Welcome {
                            session: conn.session,
                            credits: tcfg.initial_credits,
                        });
                        conn.tenant = Some(tcfg);
                        conn.phase = ConnPhase::Open;
                        self.obs.counter("net_admits_total", &[]).inc();
                    }
                    Err(rej) => {
                        self.obs.counter("net_rejects_total", &[("reason", rej.name())]).inc();
                        if rej != Reject::UnknownTenant {
                            self.tenant_row(&tenant, |r| r.admission_rejects += 1);
                        }
                        conn.send(&Frame::Error { code: rej.code(), message: rej.name().into() });
                        conn.drain_then_close();
                    }
                }
            }
            (ConnPhase::Open, Frame::Telemetry { node, at, values }) => {
                // Lend the tenant out of `conn` so its name can label
                // the stats and counters while `conn` is mutated.
                let tenant = conn.tenant.take();
                let (cap, name) =
                    tenant.as_ref().map_or((0, ""), |t| (t.queue_capacity, t.name.as_str()));
                if conn.credits == 0 {
                    conn.dropped += 1;
                    self.tenant_row(name, |r| r.frames_no_credit += 1);
                    self.obs.counter("net_sheds_total", &[("reason", "no_credit")]).inc();
                    self.obs
                        .counter(
                            "net_tenant_sheds_total",
                            &[("tenant", name), ("reason", "no_credit")],
                        )
                        .inc();
                    self.trace_decode(name, node, at, "shed_no_credit");
                    conn.send(&Frame::Busy { dropped: conn.dropped });
                } else if conn.queue.len() >= cap {
                    conn.dropped += 1;
                    self.tenant_row(name, |r| r.frames_queue_full += 1);
                    self.obs.counter("net_sheds_total", &[("reason", "queue_full")]).inc();
                    self.obs
                        .counter(
                            "net_tenant_sheds_total",
                            &[("tenant", name), ("reason", "queue_full")],
                        )
                        .inc();
                    self.trace_decode(name, node, at, "shed_queue_full");
                    conn.send(&Frame::Busy { dropped: conn.dropped });
                } else {
                    conn.credits -= 1;
                    let start = conn.payloads.len();
                    conn.payloads.extend_from_slice(conn.rbuf.get(payload).unwrap_or_default());
                    conn.queue.push_back(Queued {
                        sample: TelemetrySample { node: node as usize, at: at as usize, values },
                        payload: start..conn.payloads.len(),
                    });
                    self.tenant_row(name, |r| r.frames_accepted += 1);
                    self.obs.counter("net_tenant_frames_accepted_total", &[("tenant", name)]).inc();
                    self.trace_decode(name, node, at, "accepted");
                }
                conn.tenant = tenant;
            }
            (ConnPhase::Open | ConnPhase::AwaitHello, Frame::Bye) => {
                conn.phase = ConnPhase::ByeWait;
            }
            (ConnPhase::ByeWait, _) => {
                // Frames after BYE are a protocol violation; drop them.
                self.obs.counter("net_protocol_errors_total", &[("kind", "after_bye")]).inc();
            }
            (_, frame) => {
                // Anything else out of sequence (telemetry before
                // HELLO, a second HELLO, client sending server frames).
                self.obs.counter("net_protocol_errors_total", &[("kind", "out_of_sequence")]).inc();
                conn.send(&Frame::Error {
                    code: E_PROTOCOL,
                    message: format!("unexpected {} frame", frame.name()),
                });
                conn.drain_then_close();
            }
        }
    }

    /// Parses and answers one HTTP request, then drains the connection.
    fn step_http(&mut self, conn: &mut Conn, ctl: Option<&dyn ControlPlane>) {
        match http::parse_request(&conn.rbuf) {
            HttpParse::Request(req, consumed) => {
                conn.rbuf.drain(..consumed);
                conn.partial_since = None;
                self.obs
                    .counter("net_http_requests_total", &[("path", route_label(&req.path))])
                    .inc();
                let body = http::route(&req, ctl, &self.tenants_json());
                conn.send_raw(&body);
                conn.drain_then_close();
            }
            HttpParse::Incomplete => {
                if conn.rbuf.is_empty() {
                    conn.partial_since = None;
                } else if conn.partial_since.is_none() {
                    conn.partial_since = Some(conn.last_activity);
                }
            }
            HttpParse::Bad(why) => {
                self.obs.counter("net_http_requests_total", &[("path", "bad")]).inc();
                conn.send_raw(&http::response(400, "text/plain", why));
                conn.drain_then_close();
            }
        }
    }

    /// Reaps idle and slowloris connections.
    fn reap_timeouts(&mut self, conn: &mut Conn, now: usize) {
        if !matches!(
            conn.phase,
            ConnPhase::Sniffing | ConnPhase::AwaitHello | ConnPhase::Open | ConnPhase::Http
        ) {
            return;
        }
        let idle = now.saturating_sub(conn.last_activity);
        if idle > self.cfg.idle_timeout_ticks {
            self.obs.counter("net_timeouts_total", &[("kind", "idle")]).inc();
            conn.drain_then_close();
            return;
        }
        if let Some(since) = conn.partial_since {
            if now.saturating_sub(since) > self.cfg.partial_timeout_ticks {
                self.obs.counter("net_timeouts_total", &[("kind", "slowloris")]).inc();
                conn.send(&Frame::Error { code: E_PROTOCOL, message: "frame stalled".into() });
                conn.drain_then_close();
            }
        }
    }

    /// Applies `update` to `tenant`'s stats row, creating the row on
    /// first use (the name is copied only then).
    fn tenant_row(&mut self, tenant: &str, update: impl FnOnce(&mut TenantStats)) {
        match self.stats.get_mut(tenant) {
            Some(row) => update(row),
            None => update(
                self.stats.entry(tenant.to_string()).or_insert_with(|| TenantStats::new(tenant)),
            ),
        }
    }

    /// Mints the causal chain for one telemetry frame: the net lane's
    /// `decode` hop carries the same `(seed, node, at)` trace id every
    /// downstream service stage re-derives, so chains join up across
    /// the wire without the frame carrying an id.
    fn trace_decode(&self, tenant: &str, node: u64, at: u64, outcome: &str) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.hop(
            Lane::Net,
            &self.tracer.ctx(node as usize, at as usize),
            "decode",
            &[
                ("tenant", Value::Str(tenant.to_string())),
                ("outcome", Value::Str(outcome.to_string())),
            ],
        );
    }
}

/// Collapses node-specific paths so the per-path counter stays bounded.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/stats" => "/stats",
        "/alarms" => "/alarms",
        "/labels" => "/labels",
        "/metrics" => "/metrics",
        "/tenants" => "/tenants",
        "/flightrec" => "/flightrec",
        p if p.starts_with("/nodes/") => "/nodes",
        p if p.starts_with("/trace/") => "/trace",
        _ => "other",
    }
}

impl NetFrontier for Gateway {
    /// Drains every session's queue (session order), journals each
    /// sample at `now` from the frame payload it arrived in, and grants
    /// back one flow-control credit per drained sample.
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        let mut out = Vec::new();
        let mut conns = std::mem::take(&mut self.conns);
        for conn in conns.iter_mut() {
            if !matches!(conn.phase, ConnPhase::Open | ConnPhase::ByeWait) {
                continue;
            }
            let drained = conn.queue.len() as u32;
            let latency = self.obs.histogram("net_ingest_latency_ticks", &[]);
            while let Some(q) = conn.queue.pop_front() {
                self.log.append_payload(now, conn.payloads.get(q.payload).unwrap_or_default());
                latency.record(now.saturating_sub(q.sample.at) as u64);
                out.push(q.sample);
            }
            conn.payloads.clear();
            if drained > 0 {
                self.tenant_row(conn.tenant_name().unwrap_or(""), |r| {
                    r.samples_delivered += u64::from(drained);
                    r.credits_granted += u64::from(drained);
                });
                if conn.phase == ConnPhase::Open {
                    conn.credits += drained;
                    conn.send(&Frame::Credit { credits: drained });
                    conn.flush();
                }
            }
            if conn.phase == ConnPhase::ByeWait && conn.queue.is_empty() {
                conn.drain_then_close();
                conn.flush();
                conn.settle();
            }
        }
        for conn in conns.iter_mut() {
            if conn.phase == ConnPhase::Closed {
                if let Some(name) = conn.tenant_name() {
                    self.admission.release(name);
                }
            }
        }
        conns.retain(|c| c.phase != ConnPhase::Closed);
        self.conns = conns;
        self.obs.counter("net_samples_delivered_total", &[]).add(out.len() as u64);
        out
    }

    /// Done once at least one wire session existed and none remain.
    fn is_done(&self, _now: usize) -> bool {
        self.saw_session && !self.conns.iter().any(Conn::is_wire_session)
    }

    fn tenant_stats(&self) -> Vec<TenantStats> {
        self.stats.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ByteStream as _, MemListener, MemPipe};
    use alba_store::codec::put_uvarint;

    fn gateway() -> (Gateway, crate::transport::MemDialer) {
        gateway_with_credits(4)
    }

    /// A one-tenant gateway granting `credits` credits and queue slots.
    fn gateway_with_credits(credits: u32) -> (Gateway, crate::transport::MemDialer) {
        let (listener, dialer) = MemListener::new(1 << 20);
        let mut volta = TenantConfig::new("volta", "v-token");
        volta.max_connections = 1;
        volta.initial_credits = credits;
        volta.queue_capacity = credits as usize;
        let cfg = GatewayConfig::new(vec![volta]);
        (Gateway::new(cfg, Box::new(listener)), dialer)
    }

    /// A gateway with one admitted session, its handshake read.
    fn open_session(credits: u32) -> (Gateway, MemPipe) {
        let (mut gw, dialer) = gateway_with_credits(credits);
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        (gw, c)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn read_frames(pipe: &mut MemPipe) -> Vec<Frame> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match pipe.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let mut frames = Vec::new();
        while let Ok(Decoded::Frame(f, consumed)) = frame::decode_frame(&buf) {
            buf.drain(..consumed);
            frames.push(f);
        }
        frames
    }

    fn hello(pipe: &mut MemPipe, tenant: &str, token: &str) {
        pipe.write(&Frame::Hello { tenant: tenant.into(), token: token.into() }.encode()).unwrap();
    }

    fn telemetry(pipe: &mut MemPipe, node: u64, at: u64) {
        pipe.write(&Frame::Telemetry { node, at, values: vec![at as f64] }.encode()).unwrap();
    }

    #[test]
    fn handshake_accept_journal_and_credits() {
        let (mut gw, dialer) = gateway();
        let mut client = dialer.dial();
        hello(&mut client, "volta", "v-token");
        gw.pump(0, None);
        let frames = read_frames(&mut client);
        assert!(matches!(frames.as_slice(), [Frame::Welcome { session: 1, credits: 4 }]));
        telemetry(&mut client, 0, 0);
        telemetry(&mut client, 1, 0);
        gw.pump(1, None);
        let delivered = gw.poll(1);
        assert_eq!(delivered.len(), 2);
        assert_eq!(gw.ingest_log().records(), 2);
        let frames = read_frames(&mut client);
        assert!(matches!(frames.as_slice(), [Frame::Credit { credits: 2 }]));
        let stats = gw.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].frames_accepted, 2);
        assert_eq!(stats[0].samples_delivered, 2);
        assert_eq!(stats[0].credits_granted, 2);
    }

    #[test]
    fn bad_token_and_over_quota_are_rejected_with_codes() {
        let (mut gw, dialer) = gateway();
        let mut bad = dialer.dial();
        hello(&mut bad, "volta", "wrong");
        gw.pump(0, None);
        let frames = read_frames(&mut bad);
        assert!(matches!(frames.as_slice(), [Frame::Error { code: 401, .. }]));

        let mut first = dialer.dial();
        hello(&mut first, "volta", "v-token");
        gw.pump(1, None);
        assert!(matches!(read_frames(&mut first).as_slice(), [Frame::Welcome { .. }]));

        let mut second = dialer.dial();
        hello(&mut second, "volta", "v-token");
        gw.pump(2, None);
        let frames = read_frames(&mut second);
        assert!(matches!(frames.as_slice(), [Frame::Error { code: 429, .. }]));
        let row = &gw.tenant_stats()[0];
        assert_eq!(row.connects, 1);
        assert_eq!(row.admission_rejects, 2, "bad token + over quota both count");
    }

    #[test]
    fn unknown_tenant_is_refused_without_a_stats_row() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        hello(&mut c, "ghost", "x");
        gw.pump(0, None);
        assert!(matches!(read_frames(&mut c).as_slice(), [Frame::Error { code: 404, .. }]));
        assert_eq!(gw.tenant_stats().len(), 1, "no row invented for unknown tenants");
    }

    #[test]
    fn credit_exhaustion_and_queue_overflow_shed_with_busy() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        // 4 credits granted; send 6 frames without waiting.
        for at in 0..6 {
            telemetry(&mut c, 0, at);
        }
        gw.pump(1, None);
        let busys: Vec<Frame> = read_frames(&mut c);
        assert_eq!(busys.len(), 2, "two BUSY frames for the two sheds");
        assert!(matches!(busys[0], Frame::Busy { dropped: 1 }));
        assert!(matches!(busys[1], Frame::Busy { dropped: 2 }));
        let row = &gw.tenant_stats()[0];
        assert_eq!(row.frames_accepted, 4);
        assert_eq!(row.frames_no_credit, 2);
        assert_eq!(gw.poll(1).len(), 4, "accepted frames still deliver");
    }

    #[test]
    fn corrupt_crc_is_counted_and_skipped_not_fatal() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        let mut bad = Frame::Telemetry { node: 0, at: 0, values: vec![1.0] }.encode();
        let tail = bad.len() - 1;
        bad[tail] ^= 0xFF;
        c.write(&bad).unwrap();
        telemetry(&mut c, 0, 1); // a good frame right behind it
        gw.pump(1, None);
        assert_eq!(gw.poll(1).len(), 1, "the stream resynced past the corrupt frame");
        let row = &gw.tenant_stats()[0];
        assert_eq!(row.frames_corrupt, 1);
        assert_eq!(row.frames_accepted, 1);
    }

    #[test]
    fn one_pump_leaves_exactly_the_partial_tail_and_starts_its_clock() {
        let (mut gw, mut c) = open_session(16);
        let mut bytes = Vec::new();
        for at in 0..5 {
            bytes.extend_from_slice(&Frame::Telemetry { node: 0, at, values: vec![1.0] }.encode());
        }
        let last = Frame::Telemetry { node: 0, at: 5, values: vec![2.0, 3.0] }.encode();
        let tail = &last[..last.len() / 2];
        bytes.extend_from_slice(tail);
        c.write(&bytes).unwrap();
        gw.pump(3, None);
        assert_eq!(gw.conns[0].rbuf, tail, "the five frames are consumed, the tail kept");
        assert_eq!(gw.conns[0].partial_since, Some(3), "the tail's slowloris clock started");
        let ats: Vec<usize> = gw.poll(3).iter().map(|s| s.at).collect();
        assert_eq!(ats, [0, 1, 2, 3, 4]);
        c.write(&last[last.len() / 2..]).unwrap();
        gw.pump(4, None);
        assert!(gw.conns[0].rbuf.is_empty());
        assert_eq!(gw.conns[0].partial_since, None, "a completed frame stops the clock");
        assert_eq!(gw.poll(4).len(), 1);
    }

    #[test]
    fn corrupt_frame_mid_buffer_is_skipped_and_later_frames_decode_in_the_same_pump() {
        let (mut gw, mut c) = open_session(16);
        let mut bytes = Vec::new();
        for at in 0..5u64 {
            let mut f = Frame::Telemetry { node: 1, at, values: vec![at as f64] }.encode();
            if at == 2 {
                let end = f.len() - 1;
                f[end] ^= 0xFF;
            }
            bytes.extend_from_slice(&f);
        }
        c.write(&bytes).unwrap();
        gw.pump(1, None);
        assert!(gw.conns[0].rbuf.is_empty(), "one pump consumed every frame");
        let ats: Vec<usize> = gw.poll(1).iter().map(|s| s.at).collect();
        assert_eq!(ats, [0, 1, 3, 4]);
        let row = &gw.tenant_stats()[0];
        assert_eq!((row.frames_corrupt, row.frames_accepted), (1, 4));
    }

    #[test]
    fn journaled_payload_equals_appending_the_decoded_sample() {
        let (mut gw, mut c) = open_session(4);
        let values = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            1.5,
        ];
        c.write(&Frame::Telemetry { node: 7, at: 41, values }.encode()).unwrap();
        gw.pump(42, None);
        let delivered = gw.poll(42);
        let mut want = IngestLog::new();
        want.append(42, &delivered[0]);
        assert_eq!(gw.ingest_log().as_bytes(), want.as_bytes());
    }

    #[test]
    fn replay_returns_the_sample_the_service_received_whatever_its_encoding() {
        // node 3 as a two-byte varint, and a NaN with a payload sent
        // through the XOR path (its gap bit clear), not as a gap.
        let odd_nan = f64::from_bits(0xFFF8_0000_0000_0001);
        let mut payload = vec![0x83, 0x00];
        put_uvarint(&mut payload, 9); // at
        put_uvarint(&mut payload, 2); // n
        payload.push(0); // gap bitmap: nothing missing
        put_uvarint(&mut payload, 2.5f64.to_bits());
        put_uvarint(&mut payload, odd_nan.to_bits() ^ 2.5f64.to_bits());
        let (mut gw, mut c) = open_session(4);
        c.write(&frame::encode_raw(frame::T_TELEMETRY, &payload)).unwrap();
        gw.pump(10, None);
        let live = gw.poll(10);
        assert_eq!((live[0].node, live[0].at), (3, 9));
        assert_eq!(bits(&live[0].values), bits(&[2.5, odd_nan]));

        let replayed = crate::journal::parse_log(gw.ingest_log().as_bytes()).unwrap();
        assert_eq!((replayed[0].tick, replayed[0].sample.node), (10, 3));
        assert_eq!(bits(&replayed[0].sample.values), bits(&live[0].values));
        // The journal holds the verified bytes as they arrived ...
        assert!(gw.ingest_log().as_bytes().ends_with(&payload));
        // ... where re-encoding the decoded sample would canonicalise
        // the NaN into a gap and replay different bits.
        let mut reencoded = IngestLog::new();
        reencoded.append(10, &live[0]);
        let canon = crate::journal::parse_log(reencoded.as_bytes()).unwrap();
        assert_ne!(bits(&canon[0].sample.values), bits(&live[0].values));
    }

    #[test]
    fn bad_magic_is_fatal_and_closes_the_connection() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        c.write(&[0x00, 0x00, 0x00, 0x00]).unwrap();
        gw.pump(1, None);
        let frames = read_frames(&mut c);
        assert!(matches!(frames.as_slice(), [Frame::Error { code: 400, .. }]));
        assert_eq!(gw.open_connections(), 0);
    }

    #[test]
    fn bye_closes_after_the_queue_drains_and_is_done_flips() {
        let (mut gw, dialer) = gateway();
        assert!(!gw.is_done(0), "never-connected gateway is not done");
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        telemetry(&mut c, 0, 0);
        c.write(&Frame::Bye.encode()).unwrap();
        gw.pump(1, None);
        assert!(!gw.is_done(1), "queued sample still undelivered");
        assert_eq!(gw.poll(1).len(), 1);
        assert!(gw.is_done(2));
        assert_eq!(gw.open_connections(), 0);
    }

    #[test]
    fn slowloris_trickle_is_reaped_by_the_partial_frame_timeout() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        hello(&mut c, "volta", "v-token");
        gw.pump(0, None);
        read_frames(&mut c);
        let frame = Frame::Telemetry { node: 0, at: 0, values: vec![1.0] }.encode();
        // Trickle one byte per tick — never idle, never complete.
        let mut closed_at = None;
        for (i, b) in frame.iter().enumerate() {
            c.write(&[*b]).unwrap();
            gw.pump(1 + i, None);
            if gw.open_connections() == 0 {
                closed_at = Some(1 + i);
                break;
            }
        }
        let closed_at = closed_at.expect("slowloris must be reaped");
        assert!(
            closed_at <= 2 + GatewayConfig::new(vec![]).partial_timeout_ticks + 1,
            "reaped promptly at tick {closed_at}"
        );
    }

    #[test]
    fn idle_connection_is_reaped() {
        let (mut gw, dialer) = gateway();
        let _c = dialer.dial();
        gw.pump(0, None);
        assert_eq!(gw.open_connections(), 1);
        gw.pump(100, None);
        assert_eq!(gw.open_connections(), 0, "idle sniffing conn reaped");
    }

    #[test]
    fn http_scrape_works_on_the_same_listener() {
        let (mut gw, dialer) = gateway();
        let mut c = dialer.dial();
        c.write(b"GET /tenants HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        gw.pump(0, None);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n) = c.read(&mut chunk) {
            if n == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let raw = String::from_utf8(buf).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK"), "got: {raw}");
        assert!(raw.contains(r#""tenant":"volta""#));
        assert_eq!(gw.open_connections(), 0, "http conns close after the response");
    }
}
