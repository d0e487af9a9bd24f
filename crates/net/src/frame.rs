//! The alba-net wire protocol: length-prefixed, CRC-checked binary
//! frames carrying 1 Hz telemetry and flow-control signalling.
//!
//! ## Frame layout
//!
//! | offset | size | field | notes |
//! |-------:|-----:|-------|-------|
//! | 0      | 2    | magic `A1 BA` | resync sentinel |
//! | 2      | 1    | version (`0x01`) | |
//! | 3      | 1    | frame type | see [`Frame`] |
//! | 4      | 4    | payload length, `u32` LE | capped at [`MAX_PAYLOAD`] |
//! | 8      | 4    | CRC-32, `u32` LE | over version ‖ type ‖ length ‖ payload |
//! | 12     | n    | payload | type-specific |
//!
//! The CRC covers the header fields after the magic as well as the
//! payload, so a flipped *type* or *length-low* byte is caught, not just
//! payload damage. Telemetry reading vectors reuse the `alba-store`
//! column codec (gap bitmap + XOR-varint over IEEE-754 bit patterns), so
//! every finite value, infinity and signed zero crosses the wire
//! **bit-exactly** — the precondition for byte-identical replay of a
//! captured session.
//!
//! [`decode_frame`] is panic-free by construction over arbitrary input
//! (asserted by the workspace proptests): truncation yields
//! [`Decoded::Incomplete`], in-frame corruption yields a skippable
//! [`Decoded::Corrupt`], and desyncs yield a fatal [`FrameError`].

use crate::error::FrameError;
use alba_data::MetricKind;
use alba_store::codec::{get_uvarint, put_uvarint, read_u32_le};
use alba_store::{decode_column, put_column, Crc32};

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = [0xA1, 0xBA];
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Header size in bytes (magic + version + type + length + CRC).
pub const HEADER_LEN: usize = 12;
/// Maximum payload size. A 1 Hz telemetry frame is tens of bytes; one
/// MiB leaves three orders of magnitude of headroom while bounding what
/// a corrupt or hostile length field can make the server buffer.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Maximum tenant/token/message string length inside a payload.
pub const MAX_STRING: u64 = 256;
/// Maximum readings per telemetry frame (far above any real fleet's
/// metric catalog; bounds allocation from corrupt counts).
pub const MAX_READINGS: u64 = 65_536;

/// One protocol frame. Client→server: `Hello`, `Telemetry`, `Bye`.
/// Server→client: `Welcome`, `Credit`, `Busy`, `Error`.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Opens a session: tenant name + auth token.
    Hello {
        /// Tenant the connection claims to belong to.
        tenant: String,
        /// Shared-secret token proving it.
        token: String,
    },
    /// Accepts a session and grants initial flow-control credits.
    Welcome {
        /// Server-assigned session id (accept order).
        session: u64,
        /// Telemetry frames the client may send before waiting.
        credits: u32,
    },
    /// One node-second of telemetry readings.
    Telemetry {
        /// Fleet node the readings belong to.
        node: u64,
        /// Source tick (sample time at the sender).
        at: u64,
        /// One reading per catalog metric, bit-exact.
        values: Vec<f64>,
    },
    /// Grants additional flow-control credits.
    Credit {
        /// Credits to add to the client's balance.
        credits: u32,
    },
    /// Tells the client a telemetry frame was shed (no credit, or the
    /// connection queue was full); the running total lets the client
    /// audit its losses.
    Busy {
        /// Frames this connection has shed so far.
        dropped: u64,
    },
    /// Graceful close: the sender is done.
    Bye,
    /// Terminal error; the server closes after sending one.
    Error {
        /// Machine-readable reason (see `reject` codes in the gateway).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

const T_HELLO: u8 = 1;
const T_WELCOME: u8 = 2;
pub(crate) const T_TELEMETRY: u8 = 3;
const T_CREDIT: u8 = 4;
const T_BUSY: u8 = 5;
const T_BYE: u8 = 6;
const T_ERROR: u8 = 7;

impl Frame {
    /// The frame's type byte, as it appears at header offset 3.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => T_HELLO,
            Frame::Welcome { .. } => T_WELCOME,
            Frame::Telemetry { .. } => T_TELEMETRY,
            Frame::Credit { .. } => T_CREDIT,
            Frame::Busy { .. } => T_BUSY,
            Frame::Bye => T_BYE,
            Frame::Error { .. } => T_ERROR,
        }
    }

    /// Stable frame-type name, used as a metric label.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Welcome { .. } => "welcome",
            Frame::Telemetry { .. } => "telemetry",
            Frame::Credit { .. } => "credit",
            Frame::Busy { .. } => "busy",
            Frame::Bye => "bye",
            Frame::Error { .. } => "error",
        }
    }

    /// Appends the frame's payload (everything after the header).
    fn put_payload(&self, p: &mut Vec<u8>) {
        match self {
            Frame::Hello { tenant, token } => {
                put_string(p, tenant);
                put_string(p, token);
            }
            Frame::Welcome { session, credits } => {
                put_uvarint(p, *session);
                put_uvarint(p, u64::from(*credits));
            }
            Frame::Telemetry { node, at, values } => put_telemetry_payload(p, *node, *at, values),
            Frame::Credit { credits } => put_uvarint(p, u64::from(*credits)),
            Frame::Busy { dropped } => put_uvarint(p, *dropped),
            Frame::Bye => {}
            Frame::Error { code, message } => {
                put_uvarint(p, u64::from(*code));
                put_string(p, message);
            }
        }
    }

    /// Encodes the full frame, header included, ready for the wire.
    pub fn encode(&self) -> Vec<u8> {
        framed(self.type_byte(), |p| self.put_payload(p))
    }
}

/// A frame of type `ty` around an already-encoded `payload`: header,
/// CRC and payload, ready for the wire. Tests use it to send payloads
/// no [`Frame`] encodes.
#[cfg(test)]
pub(crate) fn encode_raw(ty: u8, payload: &[u8]) -> Vec<u8> {
    framed(ty, |p| p.extend_from_slice(payload))
}

/// The one header writer: reserves the header, lets `write_payload`
/// append the payload straight after it, then fills in the length and
/// the CRC over the written slice.
fn framed(ty: u8, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[VERSION, ty]);
    out.extend_from_slice(&[0u8; 8]);
    write_payload(&mut out);
    let (head, payload) = out.split_at_mut(HEADER_LEN);
    let len = payload.len() as u32;
    head[4..8].copy_from_slice(&len.to_le_bytes());
    head[8..12].copy_from_slice(&frame_crc(VERSION, ty, len, payload).to_le_bytes());
    out
}

/// Appends a telemetry frame's payload, `node ‖ at ‖ n ‖ column`: three
/// varints and the `alba-store` gauge column. The ingest journal's
/// records are `uvarint(tick)` followed by exactly these bytes.
///
/// Reserves the payload's upper bound first (three 10-byte varints, the
/// gap bitmap and a 10-byte varint per reading), so the encode grows
/// `out` at most once: gauge XORs of unrelated readings take ~8 bytes
/// each, past the column codec's own `3n` reserve.
pub fn put_telemetry_payload(out: &mut Vec<u8>, node: u64, at: u64, values: &[f64]) {
    let n = values.len();
    out.reserve(30 + n.div_ceil(8) + 10 * n);
    put_uvarint(out, node);
    put_uvarint(out, at);
    put_uvarint(out, values.len() as u64);
    put_column(out, values, MetricKind::Gauge);
}

/// CRC-32 over version ‖ type ‖ length(LE) ‖ payload.
fn frame_crc(version: u8, ty: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[version, ty]);
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Appends a length-prefixed UTF-8 string.
fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, bounded by [`MAX_STRING`].
fn get_string(bytes: &[u8], pos: &mut usize) -> Result<String, FrameError> {
    let len = get_uvarint(bytes, pos)
        .map_err(|_| FrameError::Malformed { what: "truncated string length" })?;
    if len > MAX_STRING {
        return Err(FrameError::Malformed { what: "string exceeds length cap" });
    }
    let end = pos
        .checked_add(len as usize)
        .ok_or(FrameError::Malformed { what: "string length overflows" })?;
    let raw = bytes.get(*pos..end).ok_or(FrameError::Malformed { what: "string past end" })?;
    *pos = end;
    String::from_utf8(raw.to_vec()).map_err(|_| FrameError::Malformed { what: "non-utf8 string" })
}

/// Outcome of attempting to decode one frame from a stream buffer.
#[derive(Clone, Debug, PartialEq)]
pub enum Decoded {
    /// A complete valid frame spanning the first `.1` buffered bytes —
    /// the caller drains that many and processes the frame. Its
    /// CRC-verified payload is the bytes `HEADER_LEN..` of that span.
    Frame(Frame, usize),
    /// The buffer holds a frame prefix; read more bytes and retry.
    Incomplete,
    /// A complete but corrupt frame spanning the first `.1` buffered
    /// bytes — the caller counts it, drains past it, and *keeps the
    /// connection*: the length field fixed the frame's extent, so the
    /// stream is still in sync.
    Corrupt(FrameError, usize),
}

/// Decodes one frame from the front of `buf`.
///
/// `Err` means the stream has desynced (bad magic/version, impossible
/// length) and the connection must close — see
/// [`FrameError::is_fatal`]. Every other condition is reported through
/// [`Decoded`]. Never panics, for any input.
pub fn decode_frame(buf: &[u8]) -> Result<Decoded, FrameError> {
    if buf.len() < 2 {
        return Ok(Decoded::Incomplete);
    }
    if buf[0] != MAGIC[0] || buf[1] != MAGIC[1] {
        return Err(FrameError::BadMagic { got: [buf[0], buf[1]] });
    }
    if buf.len() < HEADER_LEN {
        return Ok(Decoded::Incomplete);
    }
    let version = buf[2];
    if version != VERSION {
        return Err(FrameError::BadVersion { got: version });
    }
    let ty = buf[3];
    let Some(len) = read_u32_le(buf, 4) else { return Ok(Decoded::Incomplete) };
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    let Some(expected_crc) = read_u32_le(buf, 8) else { return Ok(Decoded::Incomplete) };
    let total = HEADER_LEN + len as usize;
    let Some(payload) = buf.get(HEADER_LEN..total) else { return Ok(Decoded::Incomplete) };
    let got_crc = frame_crc(version, ty, len, payload);
    if got_crc != expected_crc {
        return Ok(Decoded::Corrupt(
            FrameError::BadCrc { expected: expected_crc, got: got_crc },
            total,
        ));
    }
    match decode_payload(ty, payload) {
        Ok(frame) => Ok(Decoded::Frame(frame, total)),
        Err(e) => Ok(Decoded::Corrupt(e, total)),
    }
}

/// Decodes a CRC-verified payload of the given frame type.
fn decode_payload(ty: u8, p: &[u8]) -> Result<Frame, FrameError> {
    let mut pos = 0usize;
    let frame = match ty {
        T_HELLO => {
            let tenant = get_string(p, &mut pos)?;
            let token = get_string(p, &mut pos)?;
            Frame::Hello { tenant, token }
        }
        T_WELCOME => {
            let session = get_varint(p, &mut pos)?;
            let credits = get_u32(p, &mut pos)?;
            Frame::Welcome { session, credits }
        }
        T_TELEMETRY => {
            let node = get_varint(p, &mut pos)?;
            let at = get_varint(p, &mut pos)?;
            let n = get_varint(p, &mut pos)?;
            if n > MAX_READINGS {
                return Err(FrameError::Malformed { what: "reading count exceeds cap" });
            }
            let column = p.get(pos..).unwrap_or(&[]);
            let values = decode_column(column, n as usize, MetricKind::Gauge)
                .map_err(|_| FrameError::Malformed { what: "corrupt reading column" })?;
            // decode_column consumes the whole slice (it rejects
            // trailing bytes), so `pos` bookkeeping ends here.
            pos = p.len();
            Frame::Telemetry { node, at, values }
        }
        T_CREDIT => Frame::Credit { credits: get_u32(p, &mut pos)? },
        T_BUSY => Frame::Busy { dropped: get_varint(p, &mut pos)? },
        T_BYE => Frame::Bye,
        T_ERROR => {
            let code64 = get_varint(p, &mut pos)?;
            let code = u16::try_from(code64)
                .map_err(|_| FrameError::Malformed { what: "error code range" })?;
            let message = get_string(p, &mut pos)?;
            Frame::Error { code, message }
        }
        other => return Err(FrameError::UnknownType { got: other }),
    };
    if pos != p.len() {
        return Err(FrameError::Malformed { what: "trailing payload bytes" });
    }
    Ok(frame)
}

fn get_varint(p: &[u8], pos: &mut usize) -> Result<u64, FrameError> {
    get_uvarint(p, pos).map_err(|_| FrameError::Malformed { what: "truncated varint" })
}

fn get_u32(p: &[u8], pos: &mut usize) -> Result<u32, FrameError> {
    let v = get_varint(p, pos)?;
    u32::try_from(v).map_err(|_| FrameError::Malformed { what: "u32 field out of range" })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { tenant: "volta".into(), token: "s3cret".into() },
            Frame::Welcome { session: 7, credits: 64 },
            Frame::Telemetry {
                node: 3,
                at: 41,
                values: vec![0.0, -0.0, 1.5, f64::INFINITY, f64::NAN, -1e-300],
            },
            Frame::Credit { credits: 12 },
            Frame::Busy { dropped: 999 },
            Frame::Bye,
            Frame::Error { code: 401, message: "bad token".into() },
        ]
    }

    fn decode_one(bytes: &[u8]) -> Frame {
        match decode_frame(bytes) {
            Ok(Decoded::Frame(f, consumed)) => {
                assert_eq!(consumed, bytes.len());
                f
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn every_frame_type_round_trips_bit_exactly() {
        for f in all_frames() {
            let bytes = f.encode();
            let back = decode_one(&bytes);
            match (&f, &back) {
                (Frame::Telemetry { values: a, .. }, Frame::Telemetry { values: b, .. }) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        if x.is_nan() {
                            assert!(y.is_nan());
                        } else {
                            assert_eq!(x.to_bits(), y.to_bits(), "bit-exact across the wire");
                        }
                    }
                }
                _ => assert_eq!(f, back),
            }
        }
    }

    #[test]
    fn frames_in_a_stream_decode_in_sequence() {
        let mut stream = Vec::new();
        for f in all_frames() {
            stream.extend_from_slice(&f.encode());
        }
        let mut decoded = 0;
        while !stream.is_empty() {
            match decode_frame(&stream).unwrap() {
                Decoded::Frame(_, consumed) => {
                    stream.drain(..consumed);
                    decoded += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(decoded, all_frames().len());
    }

    #[test]
    fn every_truncation_is_incomplete_never_a_panic() {
        let bytes = Frame::Hello { tenant: "t".into(), token: "k".into() }.encode();
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]).unwrap(), Decoded::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn crc_catches_any_single_byte_flip_after_the_magic() {
        let bytes = Frame::Welcome { session: 1, credits: 8 }.encode();
        for i in 2..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_frame(&bad) {
                Ok(Decoded::Corrupt(e, skip)) => {
                    assert!(!e.is_fatal());
                    assert!(skip >= HEADER_LEN);
                }
                Ok(Decoded::Incomplete) => {
                    // A corrupted length byte can make the frame look
                    // longer than the buffer — the reader waits, and the
                    // connection-level partial-frame timeout reaps it.
                }
                Err(e) => assert!(e.is_fatal(), "only desyncs may be fatal"),
                Ok(Decoded::Frame(..)) => panic!("flip at {i} slipped through the crc"),
            }
        }
    }

    #[test]
    fn magic_and_version_damage_is_fatal() {
        let bytes = Frame::Bye.encode();
        let mut bad = bytes.clone();
        bad[0] = 0x00;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadMagic { got: [0x00, 0xBA] }));
        let mut bad = bytes.clone();
        bad[2] = 9;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadVersion { got: 9 }));
    }

    #[test]
    fn hostile_length_is_rejected_before_any_allocation() {
        let mut bytes = Frame::Bye.encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(FrameError::Oversize { len: u32::MAX }));
    }

    #[test]
    fn corrupt_frames_are_skippable_and_the_stream_resyncs() {
        let mut stream = Frame::Credit { credits: 3 }.encode();
        let tail_at = stream.len();
        stream[tail_at - 1] ^= 0xFF; // payload damage
        stream.extend_from_slice(&Frame::Bye.encode());
        let Ok(Decoded::Corrupt(FrameError::BadCrc { .. }, skip)) = decode_frame(&stream) else {
            panic!("first frame should be corrupt");
        };
        stream.drain(..skip);
        assert!(matches!(decode_frame(&stream), Ok(Decoded::Frame(Frame::Bye, _))));
    }

    #[test]
    fn reading_count_cap_bounds_allocation() {
        // Hand-build a telemetry payload claiming 2^40 readings.
        let mut p = Vec::new();
        put_uvarint(&mut p, 1); // node
        put_uvarint(&mut p, 0); // at
        put_uvarint(&mut p, 1 << 40); // absurd count
        match decode_frame(&encode_raw(T_TELEMETRY, &p)) {
            Ok(Decoded::Corrupt(FrameError::Malformed { what }, _)) => {
                assert!(what.contains("cap"));
            }
            other => panic!("expected a malformed verdict, got {other:?}"),
        }
    }
}
