//! Byte transports the gateway runs over.
//!
//! The gateway's poll loop is written against two small traits —
//! [`ByteStream`] (a non-blocking duplex byte pipe) and [`Listener`]
//! (a non-blocking acceptor) — with two implementations each:
//!
//! * **TCP** ([`TcpDoor`]/`TcpStream`): `std::net` sockets in
//!   non-blocking mode. No async runtime; the poll loop *is* the
//!   scheduler, driven by the caller's (injectable, deterministic)
//!   clock.
//! * **In-memory** ([`MemListener`]/[`MemPipe`]): a bounded duplex pipe
//!   with the same `WouldBlock` semantics, so the full protocol stack —
//!   framing, flow control, admission, journaling — runs byte-for-byte
//!   identically inside deterministic single-threaded tests.
//!
//! The in-memory pipe is *bounded* on purpose: a full direction returns
//! `WouldBlock` exactly like a full socket send buffer, so backpressure
//! bugs reproduce in tests instead of only in production.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

/// A non-blocking duplex byte stream.
///
/// Semantics mirror non-blocking sockets: `read` returns `Ok(0)` on
/// peer close, `Err(WouldBlock)` when no bytes are available; `write`
/// returns `Err(WouldBlock)` when the peer's receive window is full.
pub trait ByteStream: Send {
    /// Reads available bytes into `buf` (non-blocking).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes bytes from `buf` (non-blocking); may be partial.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Closes the write side; the peer sees `Ok(0)` after draining.
    fn close(&mut self);
    /// Peer description for logs/metrics (address or pipe label).
    fn peer(&self) -> String;
}

/// A non-blocking connection acceptor.
pub trait Listener: Send {
    /// Accepts one pending connection, `None` when nobody is waiting.
    fn accept(&mut self) -> io::Result<Option<Box<dyn ByteStream>>>;
    /// Where the listener is reachable (address or pipe label).
    fn local_addr(&self) -> String;
}

// ---------------------------------------------------------------- TCP

/// A non-blocking TCP stream wrapper.
pub struct TcpByteStream {
    stream: TcpStream,
    peer: String,
}

impl TcpByteStream {
    /// Wraps a connected stream, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        Ok(Self { stream, peer })
    }

    /// Dials `addr` and wraps the resulting stream.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }
}

impl ByteStream for TcpByteStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn close(&mut self) {
        self.stream.shutdown(std::net::Shutdown::Write).ok();
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// A non-blocking TCP listener.
pub struct TcpDoor {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpDoor {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in
    /// non-blocking mode.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Listener for TcpDoor {
    fn accept(&mut self) -> io::Result<Option<Box<dyn ByteStream>>> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(TcpByteStream::new(stream)?))),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.addr.to_string()
    }
}

// ---------------------------------------------------- in-memory pipe

/// One direction of a memory pipe: a bounded byte queue plus a closed
/// flag set when the writing end hangs up.
struct Direction {
    // alba-lint: allow(no-unbounded-channel) reason="bounded by `cap`: push_bytes refuses past capacity with WouldBlock, mirroring a full socket buffer"
    buf: VecDeque<u8>,
    cap: usize,
    closed: bool,
}

impl Direction {
    fn new(cap: usize) -> Self {
        Self { buf: VecDeque::with_capacity(cap.min(4096)), cap, closed: false }
    }

    fn push_bytes(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(io::Error::new(ErrorKind::BrokenPipe, "peer closed"));
        }
        let room = self.cap.saturating_sub(self.buf.len());
        if room == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = room.min(bytes.len());
        self.buf.extend(&bytes[..n]);
        Ok(n)
    }

    fn pop_bytes(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.buf.is_empty() {
            return if self.closed { Ok(0) } else { Err(ErrorKind::WouldBlock.into()) };
        }
        let n = out.len().min(self.buf.len());
        let (front, back) = self.buf.as_slices();
        let from_front = n.min(front.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..n].copy_from_slice(&back[..n - from_front]);
        self.buf.drain(..n);
        Ok(n)
    }
}

struct PipeShared {
    /// a→b direction (written by end A, read by end B).
    ab: Direction,
    /// b→a direction.
    ba: Direction,
}

/// One end of a bounded in-memory duplex pipe. Create pairs with
/// [`MemPipe::pair`].
pub struct MemPipe {
    shared: Arc<Mutex<PipeShared>>,
    /// True for the A end (writes into `ab`, reads from `ba`).
    a_end: bool,
    label: String,
}

impl MemPipe {
    /// A connected pair of pipe ends, each direction holding at most
    /// `cap` in-flight bytes.
    pub fn pair(cap: usize) -> (MemPipe, MemPipe) {
        let shared =
            Arc::new(Mutex::new(PipeShared { ab: Direction::new(cap), ba: Direction::new(cap) }));
        (
            MemPipe { shared: Arc::clone(&shared), a_end: true, label: "mem:a".into() },
            MemPipe { shared, a_end: false, label: "mem:b".into() },
        )
    }

    fn with<R>(&self, f: impl FnOnce(&mut PipeShared) -> R) -> R {
        // A poisoned pipe mutex means a peer test thread panicked;
        // continuing with its final state is the useful behaviour.
        let mut guard = match self.shared.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }
}

impl ByteStream for MemPipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let a_end = self.a_end;
        self.with(|s| if a_end { s.ba.pop_bytes(buf) } else { s.ab.pop_bytes(buf) })
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let a_end = self.a_end;
        self.with(|s| if a_end { s.ab.push_bytes(buf) } else { s.ba.push_bytes(buf) })
    }

    fn close(&mut self) {
        let a_end = self.a_end;
        self.with(|s| {
            if a_end {
                s.ab.closed = true;
            } else {
                s.ba.closed = true;
            }
        });
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

/// The dial side of a [`MemListener`]: each [`MemDialer::dial`] creates
/// a fresh pipe pair and queues the server end for accept.
#[derive(Clone)]
pub struct MemDialer {
    pending: Arc<Mutex<VecDeque<MemPipe>>>,
    cap: usize,
}

impl MemDialer {
    /// Opens a new connection; returns the client end.
    pub fn dial(&self) -> MemPipe {
        let (client, server) = MemPipe::pair(self.cap);
        match self.pending.lock() {
            Ok(mut q) => q.push_back(server),
            Err(poisoned) => poisoned.into_inner().push_back(server),
        }
        client
    }
}

/// An in-memory [`Listener`] for deterministic tests.
pub struct MemListener {
    pending: Arc<Mutex<VecDeque<MemPipe>>>,
}

impl MemListener {
    /// A listener plus the dialer clients use to reach it. Each
    /// connection's per-direction byte cap is `cap`.
    pub fn new(cap: usize) -> (MemListener, MemDialer) {
        // alba-lint: allow(no-unbounded-channel) reason="holds at most the test's handful of un-accepted dials; each accept drains one"
        let pending = Arc::new(Mutex::new(VecDeque::with_capacity(4)));
        (MemListener { pending: Arc::clone(&pending) }, MemDialer { pending, cap })
    }
}

impl Listener for MemListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn ByteStream>>> {
        let next = match self.pending.lock() {
            Ok(mut q) => q.pop_front(),
            Err(poisoned) => poisoned.into_inner().pop_front(),
        };
        Ok(next.map(|p| Box::new(p) as Box<dyn ByteStream>))
    }

    fn local_addr(&self) -> String {
        "mem".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pipe_moves_bytes_both_ways() {
        let (mut a, mut b) = MemPipe::pair(64);
        assert_eq!(a.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.write(b"ok").unwrap(), 2);
        assert_eq!(a.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ok");
    }

    #[test]
    fn empty_pipe_would_block_and_closed_pipe_reads_zero() {
        let (mut a, mut b) = MemPipe::pair(8);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        a.write(b"x").unwrap();
        a.close();
        assert_eq!(b.read(&mut buf).unwrap(), 1, "buffered bytes drain first");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "then EOF");
        assert_eq!(a.write(b"y").unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn full_pipe_applies_backpressure_like_a_socket() {
        let (mut a, mut b) = MemPipe::pair(4);
        assert_eq!(a.write(b"123456").unwrap(), 4, "partial write at the cap");
        assert_eq!(a.write(b"56").unwrap_err().kind(), ErrorKind::WouldBlock);
        let mut buf = [0u8; 2];
        b.read(&mut buf).unwrap();
        assert_eq!(a.write(b"56").unwrap(), 2, "draining reopens the window");
    }

    #[test]
    fn ring_wrap_round_trips_bytes_in_order() {
        // One MemPipe direction, small enough that reads and writes of
        // uneven sizes keep wrapping its ring; every byte accepted must
        // come out once, in order.
        let mut dir = Direction::new(16);
        let mut sent = Vec::new();
        let mut got = Vec::new();
        let mut next = 0u8;
        let mut wrapped = false;
        for round in 0..200usize {
            let chunk: Vec<u8> = (0..1 + round % 13)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            if let Ok(n) = dir.push_bytes(&chunk) {
                sent.extend_from_slice(&chunk[..n]);
            }
            wrapped |= !dir.buf.as_slices().1.is_empty();
            let mut out = vec![0u8; 1 + round % 7];
            if let Ok(n) = dir.pop_bytes(&mut out) {
                got.extend_from_slice(&out[..n]);
            }
        }
        let mut rest = [0u8; 16];
        while let Ok(n) = dir.pop_bytes(&mut rest) {
            got.extend_from_slice(&rest[..n]);
        }
        assert!(wrapped, "the ring's contents must have straddled its end");
        assert_eq!(got, sent);
        assert!(sent.len() > 500);
    }

    #[test]
    fn mem_listener_accepts_dials_in_order() {
        let (mut listener, dialer) = MemListener::new(32);
        assert!(listener.accept().unwrap().is_none());
        let mut c1 = dialer.dial();
        let mut c2 = dialer.dial();
        c1.write(b"1").unwrap();
        c2.write(b"2").unwrap();
        let mut s1 = listener.accept().unwrap().expect("first dial");
        let mut s2 = listener.accept().unwrap().expect("second dial");
        assert!(listener.accept().unwrap().is_none());
        let mut buf = [0u8; 1];
        s1.read(&mut buf).unwrap();
        assert_eq!(&buf, b"1", "accept order follows dial order");
        s2.read(&mut buf).unwrap();
        assert_eq!(&buf, b"2");
    }

    #[test]
    fn tcp_loopback_round_trip() {
        let mut door = TcpDoor::bind("127.0.0.1:0").expect("bind loopback");
        let addr = door.addr();
        let mut client = TcpByteStream::connect(&addr).expect("connect");
        let mut server = loop {
            if let Some(s) = door.accept().expect("accept") {
                break s;
            }
            std::thread::yield_now();
        };
        client.write(b"ping").unwrap();
        let mut buf = [0u8; 8];
        let n = loop {
            match server.read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("read: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"ping");
    }
}
