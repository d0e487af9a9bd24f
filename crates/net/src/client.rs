//! A deterministic wire client: replays a fixed per-tick schedule of
//! telemetry batches over the wire protocol, honouring flow control,
//! optionally mangling its own bytes per a [`NetFaultPlan`].
//!
//! The client is the other half of the lockstep harness the replay
//! tests and the gateway example use:
//!
//! ```text
//! loop { client.step(now); gateway.pump(now, ctl); svc.tick_from(&mut gateway); now += 1 }
//! ```
//!
//! Every decision the client makes is a pure function of its schedule,
//! its fault plan and the bytes the server has sent it — no clocks, no
//! RNG at send time (the fault plan is pre-seeded). Two clients built
//! from equal inputs emit byte-identical streams, which is what makes
//! "run the same session twice, compare event logs" a meaningful CI
//! assertion.

use crate::frame::{self, Decoded, Frame};
use crate::transport::ByteStream;
use alba_chaos::{NetFaultKind, NetFaultPlan};
use alba_serve::TelemetrySample;
use std::collections::VecDeque;

/// What happened to the client over one `step`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Telemetry frames written to the wire.
    pub frames_sent: u64,
    /// BUSY frames received (server shed one of our frames).
    pub busy_seen: u64,
    /// Credits received via WELCOME + CREDIT frames.
    pub credits_received: u64,
    /// ERROR frames received.
    pub errors_seen: u64,
    /// Times the client redialled (reconnect faults).
    pub reconnects: u64,
    /// Frames deliberately corrupted by the fault plan.
    pub corrupted: u64,
}

/// Connection state of the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientPhase {
    /// HELLO sent, awaiting WELCOME.
    Greeting,
    /// Admitted and streaming.
    Streaming,
    /// All batches sent and acknowledged; BYE written.
    Done,
    /// Server refused us or hung up.
    Failed,
}

/// The deterministic wire client.
pub struct WireClient {
    dial: Box<dyn FnMut() -> Box<dyn ByteStream>>,
    stream: Box<dyn ByteStream>,
    phase: ClientPhase,
    tenant: String,
    token: String,
    /// Batches to send, index = source tick.
    schedule: Vec<Vec<TelemetrySample>>,
    /// Next schedule index to enqueue.
    cursor: usize,
    /// Samples waiting for credits (schedule order).
    // alba-lint: allow(no-unbounded-channel) reason="bounded by the finite schedule: holds at most the un-sent remainder of a fixed batch list"
    backlog: VecDeque<TelemetrySample>,
    credits: u32,
    rbuf: Vec<u8>,
    /// Bytes deferred by partial-frame / slowloris faults.
    pending: Vec<u8>,
    /// Remaining ticks of one-byte-per-tick pacing.
    slowloris_left: usize,
    faults: NetFaultPlan,
    /// Client-local tick counter (fault-plan clock).
    tick: usize,
    stats: ClientStats,
}

impl WireClient {
    /// A client that will redial through `dial`, authenticate as
    /// `(tenant, token)`, and send `schedule[t]` at tick `t`.
    pub fn new(
        mut dial: Box<dyn FnMut() -> Box<dyn ByteStream>>,
        tenant: &str,
        token: &str,
        schedule: Vec<Vec<TelemetrySample>>,
    ) -> Self {
        let stream = dial();
        let mut c = Self {
            dial,
            stream,
            phase: ClientPhase::Greeting,
            tenant: tenant.to_string(),
            token: token.to_string(),
            schedule,
            cursor: 0,
            backlog: VecDeque::with_capacity(64),
            credits: 0,
            rbuf: Vec::new(),
            pending: Vec::new(),
            slowloris_left: 0,
            faults: NetFaultPlan::empty(),
            tick: 0,
            stats: ClientStats::default(),
        };
        c.send_hello();
        c
    }

    /// Attaches a fault plan (call before the first `step`).
    pub fn with_faults(mut self, faults: NetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Progress + outcome counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// True once every scheduled sample was sent and BYE written, or
    /// the session failed terminally.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, ClientPhase::Done | ClientPhase::Failed)
    }

    /// True when the session ended without being admitted or was cut.
    pub fn is_failed(&self) -> bool {
        self.phase == ClientPhase::Failed
    }

    fn send_hello(&mut self) {
        let hello = Frame::Hello { tenant: self.tenant.clone(), token: self.token.clone() };
        self.write_all(&hello.encode());
        self.phase = ClientPhase::Greeting;
        self.credits = 0;
    }

    fn write_all(&mut self, bytes: &[u8]) {
        // Order preservation: while any bytes are parked in `pending`,
        // everything new parks behind them — otherwise a later frame
        // would overtake a deferred half-frame on the wire.
        if !self.pending.is_empty() {
            self.pending.extend_from_slice(bytes);
            return;
        }
        // MemPipe/TCP may take fewer bytes than offered; park the rest
        // in `pending` and retry next step.
        let mut off = 0usize;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if off < bytes.len() {
            self.pending.extend_from_slice(&bytes[off..]);
        }
    }

    /// One lockstep tick: apply due faults, read server frames, enqueue
    /// this tick's batch, send what credits allow, BYE when drained.
    pub fn step(&mut self, _now: usize) {
        let due: Vec<(NetFaultKind, usize)> =
            self.faults.at(self.tick).map(|e| (e.kind, e.duration)).collect();
        self.tick += 1;
        for (kind, duration) in &due {
            match kind {
                NetFaultKind::Reconnect => {
                    self.stream.close();
                    self.stream = (self.dial)();
                    self.stats.reconnects += 1;
                    self.rbuf.clear();
                    self.pending.clear();
                    self.slowloris_left = 0;
                    self.send_hello();
                }
                NetFaultKind::Slowloris => self.slowloris_left = *duration,
                // CorruptCrc / PartialFrame apply at frame-send time.
                _ => {}
            }
        }
        self.read_server_frames();
        if self.phase == ClientPhase::Failed {
            return;
        }
        // Enqueue this tick's scheduled batch.
        if self.cursor < self.schedule.len() {
            let batch = std::mem::take(&mut self.schedule[self.cursor]);
            self.backlog.extend(batch);
            self.cursor += 1;
        }
        // Slowloris pacing: stage the next frame if nothing is pending,
        // then trickle exactly one byte per tick.
        if self.slowloris_left > 0 && self.phase == ClientPhase::Streaming {
            if self.pending.is_empty() && self.credits > 0 {
                if let Some(sample) = self.backlog.pop_front() {
                    self.credits -= 1;
                    self.stats.frames_sent += 1;
                    self.pending = telemetry_bytes(sample);
                }
            }
            if !self.pending.is_empty() {
                // Straight to the stream: write_all would park the byte
                // behind the rest of `pending`.
                if matches!(self.stream.write(&[self.pending[0]]), Ok(n) if n > 0) {
                    self.pending.remove(0);
                }
            }
            self.slowloris_left -= 1;
            return; // pacing: nothing else this tick
        }
        // Flush previously deferred bytes (partial frames, slowloris).
        if !self.pending.is_empty() {
            let bytes = std::mem::take(&mut self.pending);
            self.write_all(&bytes);
        }
        if self.phase != ClientPhase::Streaming {
            return;
        }
        // Send what flow control allows.
        let corrupt = due.iter().any(|(k, _)| *k == NetFaultKind::CorruptCrc);
        let partial = due.iter().any(|(k, _)| *k == NetFaultKind::PartialFrame);
        let mut first = true;
        while self.credits > 0 {
            let Some(sample) = self.backlog.pop_front() else { break };
            let mut bytes = telemetry_bytes(sample);
            if corrupt && first {
                // Flip a payload byte: the CRC check must catch it.
                let last = bytes.len() - 1;
                bytes[last] ^= 0x55;
                self.stats.corrupted += 1;
            }
            self.credits -= 1;
            self.stats.frames_sent += 1;
            if partial && first {
                // First half now, second half next step via `pending`.
                let mid = bytes.len() / 2;
                self.write_all(&bytes[..mid]);
                self.pending.extend_from_slice(&bytes[mid..]);
            } else {
                self.write_all(&bytes);
            }
            first = false;
        }
        // Session complete: everything scheduled has been sent.
        if self.cursor >= self.schedule.len() && self.backlog.is_empty() && self.pending.is_empty()
        {
            self.write_all(&Frame::Bye.encode());
            self.phase = ClientPhase::Done;
        }
    }

    fn read_server_frames(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.phase != ClientPhase::Done {
                        self.phase = ClientPhase::Failed;
                    }
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock or peer reset
            }
        }
        loop {
            match frame::decode_frame(&self.rbuf) {
                Ok(Decoded::Frame(f, consumed)) => {
                    self.rbuf.drain(..consumed);
                    self.apply_server_frame(f);
                }
                Ok(Decoded::Corrupt(_, skip)) => {
                    self.rbuf.drain(..skip);
                }
                Ok(Decoded::Incomplete) => break,
                Err(_) => {
                    self.phase = ClientPhase::Failed;
                    break;
                }
            }
        }
    }

    fn apply_server_frame(&mut self, f: Frame) {
        match f {
            Frame::Welcome { credits, .. } => {
                self.credits = credits;
                self.stats.credits_received += u64::from(credits);
                if self.phase == ClientPhase::Greeting {
                    self.phase = ClientPhase::Streaming;
                }
            }
            Frame::Credit { credits } => {
                self.credits = self.credits.saturating_add(credits);
                self.stats.credits_received += u64::from(credits);
            }
            Frame::Busy { .. } => {
                self.stats.busy_seen += 1;
            }
            Frame::Error { .. } => {
                self.stats.errors_seen += 1;
                self.phase = ClientPhase::Failed;
            }
            // Server never sends client->server frames; ignore.
            _ => {}
        }
    }
}

/// A sample's telemetry frame, ready for the wire. The readings move
/// into the frame; nothing is cloned.
fn telemetry_bytes(sample: TelemetrySample) -> Vec<u8> {
    Frame::Telemetry { node: sample.node as u64, at: sample.at as u64, values: sample.values }
        .encode()
}

/// Drives a [`WireClient`] and a [`Gateway`](crate::gateway::Gateway)
/// in lockstep as one [`NetFrontier`](alba_serve::NetFrontier): each
/// service tick steps the client, pumps the gateway, and drains what
/// arrived. This is how `FleetService::run_frontier` runs a full live
/// network session single-threaded and deterministically — the shape
/// the replay tests and the `fleet_gateway` example both use.
pub struct Lockstep {
    /// The driving client.
    pub client: WireClient,
    /// The gateway under test.
    pub gateway: crate::gateway::Gateway,
}

impl alba_serve::NetFrontier for Lockstep {
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        self.client.step(now);
        self.gateway.pump(now, None);
        alba_serve::NetFrontier::poll(&mut self.gateway, now)
    }

    fn is_done(&self, now: usize) -> bool {
        self.client.is_done() && alba_serve::NetFrontier::is_done(&self.gateway, now)
    }

    fn tenant_stats(&self) -> Vec<alba_serve::TenantStats> {
        alba_serve::NetFrontier::tenant_stats(&self.gateway)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_raw, put_telemetry_payload, T_TELEMETRY};
    use crate::gateway::{Gateway, GatewayConfig};
    use crate::tenant::TenantConfig;
    use crate::transport::{Listener, MemListener};
    use alba_chaos::NetFaultEvent;
    use alba_serve::NetFrontier;

    fn schedule(ticks: usize, per_tick: usize) -> Vec<Vec<TelemetrySample>> {
        (0..ticks)
            .map(|t| {
                (0..per_tick)
                    .map(|n| TelemetrySample { node: n, at: t, values: vec![t as f64, n as f64] })
                    .collect()
            })
            .collect()
    }

    fn harness(tenant_cfg: TenantConfig) -> (Gateway, WireClient) {
        let (listener, dialer) = MemListener::new(1 << 20);
        let name = tenant_cfg.name.clone();
        let token = tenant_cfg.token.clone();
        let gw = Gateway::new(GatewayConfig::new(vec![tenant_cfg]), Box::new(listener));
        let client = WireClient::new(
            Box::new(move || Box::new(dialer.dial())),
            &name,
            &token,
            schedule(10, 2),
        );
        (gw, client)
    }

    fn run(gw: &mut Gateway, client: &mut WireClient, max_ticks: usize) -> Vec<TelemetrySample> {
        let mut delivered = Vec::new();
        for now in 0..max_ticks {
            client.step(now);
            gw.pump(now, None);
            delivered.extend(gw.poll(now));
            if client.is_done() && gw.is_done(now) {
                break;
            }
        }
        delivered
    }

    #[test]
    fn clean_session_delivers_every_scheduled_sample() {
        let (mut gw, mut client) = harness(TenantConfig::new("volta", "tok"));
        let delivered = run(&mut gw, &mut client, 100);
        assert_eq!(delivered.len(), 20);
        assert!(!client.is_failed());
        assert_eq!(client.stats().frames_sent, 20);
        assert_eq!(client.stats().busy_seen, 0, "flow control means no sheds");
        assert_eq!(gw.ingest_log().records(), 20);
    }

    #[test]
    fn tight_credits_throttle_but_lose_nothing() {
        let mut cfg = TenantConfig::new("volta", "tok");
        cfg.initial_credits = 1;
        cfg.queue_capacity = 1;
        let (mut gw, mut client) = harness(cfg);
        let delivered = run(&mut gw, &mut client, 200);
        assert_eq!(delivered.len(), 20, "credits pace, they do not drop");
        assert_eq!(client.stats().busy_seen, 0);
    }

    #[test]
    fn equal_inputs_produce_identical_sessions() {
        let capture = |seed_faults: NetFaultPlan| {
            let (listener, dialer) = MemListener::new(1 << 20);
            let gw_cfg = GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]);
            let mut gw = Gateway::new(gw_cfg, Box::new(listener));
            let mut client = WireClient::new(
                Box::new(move || Box::new(dialer.dial())),
                "volta",
                "tok",
                schedule(8, 3),
            )
            .with_faults(seed_faults);
            run(&mut gw, &mut client, 200);
            gw.ingest_log().as_bytes().to_vec()
        };
        let plan = NetFaultPlan::generate(&alba_chaos::NetChaosConfig::light(), 9, 40);
        let a = capture(plan.clone());
        let b = capture(plan);
        assert_eq!(a, b, "equal schedule + faults -> byte-identical journal");
    }

    #[test]
    fn corrupt_and_partial_faults_do_not_kill_the_session() {
        let mut plan = NetFaultPlan::empty();
        plan.events.push(alba_chaos::NetFaultEvent {
            kind: NetFaultKind::CorruptCrc,
            tick: 2,
            duration: 1,
        });
        plan.events.push(alba_chaos::NetFaultEvent {
            kind: NetFaultKind::PartialFrame,
            tick: 4,
            duration: 1,
        });
        let (listener, dialer) = MemListener::new(1 << 20);
        let gw_cfg = GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]);
        let mut gw = Gateway::new(gw_cfg, Box::new(listener));
        let mut client = WireClient::new(
            Box::new(move || Box::new(dialer.dial())),
            "volta",
            "tok",
            schedule(8, 2),
        )
        .with_faults(plan);
        let delivered = run(&mut gw, &mut client, 200);
        assert!(!client.is_failed(), "mangling our own frames must not desync us");
        assert_eq!(client.stats().corrupted, 1);
        // One frame lost to the CRC flip; the partial frame arrives late
        // but intact.
        assert_eq!(delivered.len(), 15);
        assert_eq!(gw.tenant_stats()[0].frames_corrupt, 1);
    }

    #[test]
    fn reconnect_storm_churns_sessions_but_finishes() {
        // Horizon 12 keeps every reconnect inside the ~12-tick session
        // (events land in the first three quarters of the horizon).
        let plan = NetFaultPlan::generate(&alba_chaos::NetChaosConfig::reconnect_storm(4), 3, 12);
        let (listener, dialer) = MemListener::new(1 << 20);
        let gw_cfg = GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]);
        let mut gw = Gateway::new(gw_cfg, Box::new(listener));
        let mut client = WireClient::new(
            Box::new(move || Box::new(dialer.dial())),
            "volta",
            "tok",
            schedule(10, 1),
        )
        .with_faults(plan);
        run(&mut gw, &mut client, 300);
        assert!(client.is_done());
        assert_eq!(client.stats().reconnects, 4);
        let row = &gw.tenant_stats()[0];
        assert_eq!(row.connects, 5, "initial connect + 4 reconnects all admitted");
        assert_eq!(gw.open_connections(), 0);
    }

    #[test]
    fn telemetry_frames_equal_the_payload_buffer_composition() {
        let sample =
            |node, at, values: &[f64]| TelemetrySample { node, at, values: values.to_vec() };
        let schedule = vec![
            vec![sample(0, 0, &[f64::NAN, -0.0, 1.5]), sample(1, 0, &[f64::INFINITY])],
            vec![sample(0, 1, &[f64::NEG_INFINITY, f64::from_bits(1)]), sample(1, 1, &[])],
            vec![sample(0, 2, &[-f64::MIN_POSITIVE / 2.0, 0.0]), sample(1, 2, &[2.5])],
            vec![sample(0, 3, &[f64::NAN; 3])],
            vec![sample(0, 4, &[4.0, -4.0]), sample(1, 4, &[])],
        ];
        let mut want = Frame::Hello { tenant: "volta".into(), token: "tok".into() }.encode();
        for (t, batch) in schedule.iter().enumerate() {
            for (i, s) in batch.iter().enumerate() {
                let mut payload = Vec::new();
                put_telemetry_payload(&mut payload, s.node as u64, s.at as u64, &s.values);
                let mut bytes = encode_raw(T_TELEMETRY, &payload);
                if t == 1 && i == 0 {
                    *bytes.last_mut().unwrap() ^= 0x55; // the CorruptCrc flip
                }
                want.extend_from_slice(&bytes);
            }
        }
        want.extend_from_slice(&Frame::Bye.encode());

        let mut faults = NetFaultPlan::empty();
        for (kind, tick, duration) in [
            (NetFaultKind::CorruptCrc, 1, 1),
            (NetFaultKind::PartialFrame, 2, 1),
            (NetFaultKind::Slowloris, 4, 5),
        ] {
            faults.events.push(NetFaultEvent { kind, tick, duration });
        }
        let (mut listener, dialer) = MemListener::new(1 << 20);
        let mut client =
            WireClient::new(Box::new(move || Box::new(dialer.dial())), "volta", "tok", schedule)
                .with_faults(faults);
        let mut server = listener.accept().unwrap().unwrap();
        server.write(&Frame::Welcome { session: 1, credits: 64 }.encode()).unwrap();
        let mut sent = Vec::new();
        let mut chunk = [0u8; 4096];
        for now in 0..100 {
            client.step(now);
            while let Ok(n @ 1..) = server.read(&mut chunk) {
                sent.extend_from_slice(&chunk[..n]);
            }
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done() && !client.is_failed());
        assert_eq!(client.stats().corrupted, 1);
        assert_eq!(sent, want);
    }

    #[test]
    fn bad_token_fails_fast() {
        let (listener, dialer) = MemListener::new(1 << 20);
        let gw_cfg = GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]);
        let mut gw = Gateway::new(gw_cfg, Box::new(listener));
        let mut client = WireClient::new(
            Box::new(move || Box::new(dialer.dial())),
            "volta",
            "WRONG",
            schedule(2, 1),
        );
        run(&mut gw, &mut client, 50);
        assert!(client.is_failed());
        assert_eq!(client.stats().errors_seen, 1);
        assert_eq!(client.stats().frames_sent, 0);
    }
}
