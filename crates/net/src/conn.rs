//! Per-connection state: protocol sniffing, buffered framing, bounded
//! queues and the timestamps the gateway's timeout reaper consults.
//!
//! A connection is a plain state machine over non-blocking byte I/O —
//! no threads, no async. The gateway pump advances every connection a
//! little each tick; all buffers are explicitly bounded so a slow,
//! silent or hostile peer costs a bounded amount of memory:
//!
//! * read buffer — capped at one maximal frame (or one HTTP head),
//! * write buffer — capped at [`WBUF_CAP`]; a peer that stops reading
//!   long enough to exceed it is disconnected (slow-reader defence),
//! * telemetry queue — capped at the tenant's configured
//!   `queue_capacity`; overflow is shed with a BUSY frame, never
//!   buffered unboundedly (flow control exists so well-behaved clients
//!   never hit this). The queued frames' payloads wait beside it for
//!   the ingest journal and are dropped when the queue drains.

use crate::frame::{Frame, HEADER_LEN, MAX_PAYLOAD};
use crate::http::MAX_HEAD;
use crate::tenant::TenantConfig;
use crate::transport::ByteStream;
use alba_serve::TelemetrySample;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::ops::Range;

/// Write-buffer cap: a peer that lets this much queued output pile up
/// is not reading and gets disconnected.
pub const WBUF_CAP: usize = 256 * 1024;
/// Bytes per read call.
const READ_CHUNK: usize = 4096;

/// One accepted telemetry frame awaiting delivery: the decoded sample
/// and where its verified payload sits in [`Conn`]'s `payloads`.
pub(crate) struct Queued {
    pub(crate) sample: TelemetrySample,
    pub(crate) payload: Range<usize>,
}

/// Where a connection is in its life cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnPhase {
    /// No bytes yet — protocol undecided.
    Sniffing,
    /// Wire protocol; HELLO not yet received.
    AwaitHello,
    /// Admitted wire session, streaming telemetry.
    Open,
    /// BYE received: deliver the remaining queue, then close.
    ByeWait,
    /// HTTP control-plane request in flight.
    Http,
    /// Response or error queued; close once the write buffer drains.
    Draining,
    /// Finished — the gateway reaps it.
    Closed,
}

/// One gateway connection.
pub struct Conn {
    pub(crate) stream: Box<dyn ByteStream>,
    /// Server-assigned session id (accept order), 1-based.
    pub(crate) session: u64,
    pub(crate) phase: ConnPhase,
    pub(crate) rbuf: Vec<u8>,
    pub(crate) wbuf: Vec<u8>,
    /// Accepted telemetry awaiting the next gateway poll. Bounded by
    /// `tenant.queue_capacity` via an explicit check in the gateway.
    // alba-lint: allow(no-unbounded-channel) reason="bounded by tenant queue_capacity; the gateway sheds with a BUSY frame before pushing past it"
    pub(crate) queue: VecDeque<Queued>,
    /// The queued frames' CRC-verified payloads, back to back, for the
    /// ingest journal. Emptied whenever the poll drains the queue, so
    /// it holds at most `queue_capacity` payloads.
    pub(crate) payloads: Vec<u8>,
    /// Admitted tenant config (`Open`/`ByeWait` phases only).
    pub(crate) tenant: Option<TenantConfig>,
    /// Flow-control credits the peer currently holds.
    pub(crate) credits: u32,
    /// Telemetry frames shed on this connection (reported in BUSY).
    pub(crate) dropped: u64,
    /// Tick of the last byte received.
    pub(crate) last_activity: usize,
    /// Tick at which the currently-buffered partial frame (or request
    /// head) started — the slowloris clock.
    pub(crate) partial_since: Option<usize>,
    /// Peer saw EOF on the read side.
    pub(crate) eof: bool,
}

impl Conn {
    /// Wraps a freshly-accepted stream.
    pub fn new(stream: Box<dyn ByteStream>, session: u64, now: usize) -> Self {
        Self {
            stream,
            session,
            phase: ConnPhase::Sniffing,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            queue: VecDeque::with_capacity(8),
            payloads: Vec::new(),
            tenant: None,
            credits: 0,
            dropped: 0,
            last_activity: now,
            partial_since: None,
            eof: false,
        }
    }

    /// The read-buffer cap for the current phase: one maximal wire
    /// frame, or one HTTP head. Beyond it the peer gets no more reads
    /// until the buffer shrinks (framing backpressure).
    fn rbuf_cap(&self) -> usize {
        match self.phase {
            ConnPhase::Http => MAX_HEAD + 1,
            _ => HEADER_LEN + MAX_PAYLOAD as usize,
        }
    }

    /// Reads available bytes (up to the phase's cap). Returns the byte
    /// count; sets `eof` on peer close and `Closed` on hard errors.
    pub fn fill(&mut self, now: usize) -> usize {
        let mut total = 0usize;
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() < self.rbuf_cap() {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.phase = ConnPhase::Closed;
                    break;
                }
            }
        }
        if total > 0 {
            self.last_activity = now;
        }
        total
    }

    /// Flushes as much of the write buffer as the peer will take.
    pub fn flush(&mut self) {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => break,
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.phase = ConnPhase::Closed;
                    break;
                }
            }
        }
    }

    /// Queues a frame for the peer. Returns `false` (and closes) when
    /// the write buffer cap says the peer has stopped reading.
    pub fn send(&mut self, frame: &Frame) -> bool {
        self.wbuf.extend_from_slice(&frame.encode());
        if self.wbuf.len() > WBUF_CAP {
            self.stream.close();
            self.phase = ConnPhase::Closed;
            return false;
        }
        true
    }

    /// Queues raw bytes (HTTP responses).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Transitions into `Draining`: flush what is queued, then close.
    pub fn drain_then_close(&mut self) {
        self.phase = ConnPhase::Draining;
    }

    /// Finishes a `Draining` connection whose buffer has emptied, and
    /// reaps connections whose peer vanished.
    pub fn settle(&mut self) {
        match self.phase {
            ConnPhase::Draining if self.wbuf.is_empty() => {
                self.stream.close();
                self.phase = ConnPhase::Closed;
            }
            ConnPhase::Draining | ConnPhase::Closed => {}
            _ if self.eof && self.rbuf.is_empty() && self.queue.is_empty() => {
                // Peer hung up and everything buffered has been
                // consumed; nothing more can arrive.
                self.stream.close();
                self.phase = ConnPhase::Closed;
            }
            _ => {}
        }
    }

    /// True while the connection holds (or may still produce) samples.
    pub fn is_wire_session(&self) -> bool {
        matches!(
            self.phase,
            ConnPhase::Sniffing | ConnPhase::AwaitHello | ConnPhase::Open | ConnPhase::ByeWait
        )
    }

    /// The admitted tenant's name, if any.
    pub fn tenant_name(&self) -> Option<&str> {
        self.tenant.as_ref().map(|t| t.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemPipe;

    fn pair() -> (Conn, MemPipe) {
        let (a, b) = MemPipe::pair(1 << 20);
        (Conn::new(Box::new(a), 1, 0), b)
    }

    #[test]
    fn fill_and_flush_move_bytes() {
        let (mut conn, mut peer) = pair();
        peer.write(b"abc").unwrap();
        assert_eq!(conn.fill(5), 3);
        assert_eq!(conn.rbuf, b"abc");
        assert_eq!(conn.last_activity, 5);
        conn.send_raw(b"xyz");
        conn.flush();
        let mut buf = [0u8; 8];
        assert_eq!(peer.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"xyz");
    }

    #[test]
    fn eof_then_settle_reaps_the_connection() {
        let (mut conn, mut peer) = pair();
        peer.write(b"x").unwrap();
        peer.close();
        conn.fill(1);
        assert!(conn.eof);
        conn.rbuf.clear(); // pretend the byte was consumed
        conn.settle();
        assert_eq!(conn.phase, ConnPhase::Closed);
    }

    #[test]
    fn draining_closes_only_after_the_buffer_empties() {
        let (mut conn, mut peer) = pair();
        conn.send(&Frame::Bye);
        conn.drain_then_close();
        conn.settle();
        assert_eq!(conn.phase, ConnPhase::Draining, "bytes still queued");
        conn.flush();
        conn.settle();
        assert_eq!(conn.phase, ConnPhase::Closed);
        let mut buf = [0u8; 64];
        assert!(peer.read(&mut buf).unwrap() >= HEADER_LEN, "the BYE reached the peer");
    }

    #[test]
    fn wbuf_cap_disconnects_a_peer_that_stopped_reading() {
        let (mut conn, _peer) = pair();
        let big = Frame::Error { code: 1, message: "x".repeat(200) };
        let mut ok = true;
        for _ in 0..(WBUF_CAP / 100) + 10 {
            ok = conn.send(&big);
            if !ok {
                break;
            }
        }
        assert!(!ok, "cap must trip");
        assert_eq!(conn.phase, ConnPhase::Closed);
    }
}
