//! Typed errors for the wire codec and the gateway.
//!
//! The codec distinguishes *fatal* stream desyncs from *recoverable*
//! corrupt frames: after a bad magic byte or an impossible length there
//! is no way to find the next frame boundary, so the connection must
//! close; a CRC mismatch inside a well-framed payload is skippable —
//! the header's length still tells the decoder where the next frame
//! starts. [`FrameError::is_fatal`] encodes that split, and every
//! decode path returns one of these instead of panicking (asserted by
//! the workspace proptests on truncated and byte-flipped frames).

use std::fmt;

/// Why a frame (or a stream position) could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream position does not start with the protocol magic —
    /// the peer is not speaking alba-net, or framing has desynced.
    BadMagic {
        /// The two bytes found where the magic was expected.
        got: [u8; 2],
    },
    /// The header advertises a protocol version this build cannot parse.
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// The header advertises a payload longer than the protocol allows —
    /// either corruption or a hostile sender; unrecoverable because the
    /// "next frame" pointer cannot be trusted.
    Oversize {
        /// The advertised payload length.
        len: u32,
    },
    /// The payload (plus header fields) failed its CRC. The frame's
    /// extent is known, so the stream can resync past it.
    BadCrc {
        /// CRC the header carried.
        expected: u32,
        /// CRC computed over the received bytes.
        got: u32,
    },
    /// The frame type byte names no known frame.
    UnknownType {
        /// The type byte found.
        got: u8,
    },
    /// The payload's internal structure is invalid (truncated varint,
    /// over-long string, non-UTF-8 name, wrong field count, ...).
    Malformed {
        /// Which structural check failed.
        what: &'static str,
    },
}

impl FrameError {
    /// True when the error desyncs the stream: no later byte can be
    /// trusted as a frame boundary, so the connection must close.
    /// Non-fatal errors occupy a known extent and are skippable.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FrameError::BadMagic { .. }
                | FrameError::BadVersion { .. }
                | FrameError::Oversize { .. }
        )
    }

    /// Stable short name, used as a metric label.
    pub fn name(&self) -> &'static str {
        match self {
            FrameError::BadMagic { .. } => "bad_magic",
            FrameError::BadVersion { .. } => "bad_version",
            FrameError::Oversize { .. } => "oversize",
            FrameError::BadCrc { .. } => "bad_crc",
            FrameError::UnknownType { .. } => "unknown_type",
            FrameError::Malformed { .. } => "malformed",
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad magic bytes {:02x} {:02x}", got[0], got[1])
            }
            FrameError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            FrameError::Oversize { len } => write!(f, "payload length {len} exceeds protocol cap"),
            FrameError::BadCrc { expected, got } => {
                write!(f, "crc mismatch: header {expected:#010x}, computed {got:#010x}")
            }
            FrameError::UnknownType { got } => write!(f, "unknown frame type {got:#04x}"),
            FrameError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Errors above the codec: ingest-log parsing.
#[derive(Debug)]
pub enum NetError {
    /// The ingest log's structure is invalid at the given byte offset.
    CorruptLog {
        /// Byte offset of the unparseable record.
        offset: usize,
        /// What failed.
        what: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::CorruptLog { offset, what } => {
                write!(f, "corrupt ingest log at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality_split_matches_resync_semantics() {
        assert!(FrameError::BadMagic { got: [0, 0] }.is_fatal());
        assert!(FrameError::BadVersion { got: 9 }.is_fatal());
        assert!(FrameError::Oversize { len: u32::MAX }.is_fatal());
        assert!(!FrameError::BadCrc { expected: 1, got: 2 }.is_fatal());
        assert!(!FrameError::UnknownType { got: 0xEE }.is_fatal());
        assert!(!FrameError::Malformed { what: "truncated varint" }.is_fatal());
    }

    #[test]
    fn errors_render() {
        let e = FrameError::BadCrc { expected: 0xDEAD_BEEF, got: 0 };
        assert!(e.to_string().contains("0xdeadbeef"));
        assert!(e.to_string().contains("crc mismatch"));
        assert_eq!(FrameError::Malformed { what: "x" }.name(), "malformed");
    }
}
