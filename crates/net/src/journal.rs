//! The replayable ingest log: every telemetry frame the gateway accepts
//! is journaled with its *delivery tick*, so a captured network session
//! can be replayed byte-identically through the offline path.
//!
//! This is the net-layer half of the workspace's replay invariant. The
//! serve pipeline is already deterministic given (samples, ticks); the
//! gateway extends that across the wire by recording exactly which
//! samples it handed the service at which tick. Replaying the log
//! through [`IngestLogReplay`] (a [`NetFrontier`]) feeds a fresh
//! service the same sequence, so the event log, alarms, label requests
//! and final model all come out identical — asserted by
//! `crates/net/tests/`.
//!
//! ## Record layout
//!
//! | field | size | notes |
//! |-------|-----:|-------|
//! | length | 4 (`u32` LE) | payload bytes that follow the CRC |
//! | CRC-32 | 4 (`u32` LE) | over the payload |
//! | delivery tick | varint | service tick the sample was delivered at |
//! | node | varint | |
//! | at | varint | source tick carried by the frame |
//! | n | varint | reading count |
//! | column | rest | `alba-store` gauge codec, bit-exact |
//!
//! Everything after the delivery tick is a telemetry frame's payload.
//! The gateway journals the CRC-verified payload bytes it received
//! ([`IngestLog::append_payload`]) rather than re-encoding the decoded
//! sample, so a record parses to exactly the sample the live service
//! was handed, even when the sender chose a non-canonical encoding (an
//! overlong varint, a NaN sent as a value rather than a gap). For
//! canonical senders, such as [`WireClient`](crate::WireClient), the
//! bytes equal what [`IngestLog::append`] writes for the decoded sample.
//!
//! A torn tail (crash mid-append) is tolerated on read — parsing stops
//! at the truncation, mirroring `LabelJournal` semantics. Corruption
//! *before* the tail is a typed error: silently resuming after a bad
//! CRC would replay a different session than was captured.

use crate::error::NetError;
use crate::frame::put_telemetry_payload;
use alba_data::MetricKind;
use alba_serve::{NetFrontier, TelemetrySample};
use alba_store::codec::{get_uvarint, put_uvarint, read_u32_le};
use alba_store::{crc32, decode_column};

/// Cap on readings per record, mirroring the wire codec's cap.
const MAX_READINGS: u64 = 65_536;

/// An append-only in-memory ingest log; [`IngestLog::as_bytes`] is its
/// serialized form.
#[derive(Clone, Debug, Default)]
pub struct IngestLog {
    bytes: Vec<u8>,
    records: u64,
}

impl IngestLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journals one sample delivered at `tick`, encoding its readings
    /// as a telemetry frame would carry them.
    pub fn append(&mut self, tick: usize, sample: &TelemetrySample) {
        self.record(tick, |out| {
            put_telemetry_payload(out, sample.node as u64, sample.at as u64, &sample.values);
        });
    }

    /// Journals one accepted telemetry frame delivered at `tick`, from
    /// the frame's CRC-verified payload (`node ‖ at ‖ n ‖ column`) as it
    /// arrived. Parsing the record yields the sample the gateway decoded
    /// from those bytes, whatever encoding choices the sender made.
    pub fn append_payload(&mut self, tick: usize, payload: &[u8]) {
        self.record(tick, |out| out.extend_from_slice(payload));
    }

    /// Appends one record: the length and CRC slots, `uvarint(tick)`,
    /// the body `write_body` appends, then the slots filled in.
    fn record(&mut self, tick: usize, write_body: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0u8; 8]);
        put_uvarint(&mut self.bytes, tick as u64);
        write_body(&mut self.bytes);
        let (head, payload) = self.bytes.split_at_mut(start + 8);
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        for (slot, b) in head.iter_mut().skip(start).zip(len.into_iter().chain(crc)) {
            *slot = b;
        }
        self.records += 1;
    }

    /// Records journaled so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The serialized log.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// One parsed log record.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Service tick the sample was delivered at.
    pub tick: usize,
    /// The sample, bit-exact.
    pub sample: TelemetrySample,
}

/// Parses a serialized ingest log. A torn tail is tolerated (the
/// trailing partial record is dropped); corruption before the tail is a
/// [`NetError::CorruptLog`].
pub fn parse_log(bytes: &[u8]) -> Result<Vec<LogRecord>, NetError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(len) = read_u32_le(bytes, pos) else { break };
        let Some(expected_crc) = read_u32_le(bytes, pos + 4) else { break };
        let start = pos + 8;
        let Some(end) = start.checked_add(len as usize) else {
            return Err(NetError::CorruptLog { offset: pos, what: "record length overflows" });
        };
        let Some(payload) = bytes.get(start..end) else { break };
        if crc32(payload) != expected_crc {
            return Err(NetError::CorruptLog { offset: pos, what: "record crc mismatch" });
        }
        let mut p = 0usize;
        let tick = get_uvarint(payload, &mut p)
            .map_err(|_| NetError::CorruptLog { offset: pos, what: "truncated tick" })?;
        let node = get_uvarint(payload, &mut p)
            .map_err(|_| NetError::CorruptLog { offset: pos, what: "truncated node" })?;
        let at = get_uvarint(payload, &mut p)
            .map_err(|_| NetError::CorruptLog { offset: pos, what: "truncated at" })?;
        let n = get_uvarint(payload, &mut p)
            .map_err(|_| NetError::CorruptLog { offset: pos, what: "truncated count" })?;
        if n > MAX_READINGS {
            return Err(NetError::CorruptLog { offset: pos, what: "reading count exceeds cap" });
        }
        let column = payload.get(p..).unwrap_or(&[]);
        let values = decode_column(column, n as usize, MetricKind::Gauge)
            .map_err(|_| NetError::CorruptLog { offset: pos, what: "corrupt reading column" })?;
        records.push(LogRecord {
            tick: tick as usize,
            sample: TelemetrySample { node: node as usize, at: at as usize, values },
        });
        pos = end;
    }
    Ok(records)
}

/// Replays a captured ingest log as a [`NetFrontier`]: the same samples
/// at the same ticks the live gateway delivered them.
#[derive(Clone, Debug)]
pub struct IngestLogReplay {
    /// Records in capture order; `cursor` advances monotonically because
    /// delivery ticks were journaled monotonically.
    records: Vec<LogRecord>,
    cursor: usize,
    last_tick: Option<usize>,
}

impl IngestLogReplay {
    /// Builds a replay from serialized log bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NetError> {
        Ok(Self::from_records(parse_log(bytes)?))
    }

    /// Builds a replay from parsed records (capture order).
    fn from_records(records: Vec<LogRecord>) -> Self {
        let last_tick = records.iter().map(|r| r.tick).max();
        Self { records, cursor: 0, last_tick }
    }

    /// Total records in the capture.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the capture holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl NetFrontier for IngestLogReplay {
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        let mut out = Vec::new();
        while let Some(rec) = self.records.get(self.cursor) {
            if rec.tick > now {
                break;
            }
            // rec.tick < now can only happen if the caller skipped a
            // tick; delivering late preserves sample order and loses
            // nothing (the service's ingest queues buffer per node).
            out.push(rec.sample.clone());
            self.cursor += 1;
        }
        out
    }

    fn is_done(&self, now: usize) -> bool {
        self.cursor >= self.records.len() && self.last_tick.is_none_or(|t| now > t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: usize, at: usize, v: f64) -> TelemetrySample {
        TelemetrySample { node, at, values: vec![v, -v, f64::NAN] }
    }

    fn capture() -> IngestLog {
        let mut log = IngestLog::new();
        log.append(2, &sample(0, 0, 1.5));
        log.append(2, &sample(1, 0, -0.0));
        log.append(3, &sample(0, 1, 1e300));
        log.append(5, &sample(1, 3, f64::MIN_POSITIVE));
        log
    }

    #[test]
    fn log_round_trips_bit_exactly() {
        let log = capture();
        assert_eq!(log.records(), 4);
        let records = parse_log(log.as_bytes()).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].tick, 2);
        assert_eq!(records[3].sample.at, 3);
        assert_eq!(records[1].sample.values[1].to_bits(), 0.0f64.to_bits());
        assert!(records[0].sample.values[2].is_nan());
        assert_eq!(records[2].sample.values[0], 1e300);
    }

    #[test]
    fn replay_delivers_same_samples_at_same_ticks() {
        let log = capture();
        let mut replay = IngestLogReplay::from_bytes(log.as_bytes()).unwrap();
        assert_eq!(replay.len(), 4);
        assert!(replay.poll(0).is_empty());
        assert!(replay.poll(1).is_empty());
        let t2 = replay.poll(2);
        assert_eq!(t2.len(), 2, "both tick-2 deliveries, in capture order");
        assert_eq!((t2[0].node, t2[1].node), (0, 1));
        assert_eq!(replay.poll(3).len(), 1);
        assert!(!replay.is_done(4), "tick-5 record still pending");
        assert!(replay.poll(4).is_empty());
        assert_eq!(replay.poll(5).len(), 1);
        assert!(!replay.is_done(5), "the service still drains tick 5 itself");
        assert!(replay.is_done(6));
    }

    #[test]
    fn torn_tail_is_tolerated_like_the_label_journal() {
        let log = capture();
        let full = log.as_bytes();
        for cut in [full.len() - 1, full.len() - 7, full.len() - 11] {
            let records = parse_log(&full[..cut]).unwrap();
            assert_eq!(records.len(), 3, "the torn final record is dropped");
        }
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error_not_a_silent_skip() {
        let log = capture();
        let mut bytes = log.as_bytes().to_vec();
        bytes[10] ^= 0xFF; // damage the first record's payload
        match parse_log(&bytes) {
            Err(NetError::CorruptLog { offset: 0, .. }) => {}
            other => panic!("expected CorruptLog at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn empty_log_replays_as_immediately_done() {
        let replay = IngestLogReplay::from_bytes(&[]).unwrap();
        assert!(replay.is_empty());
        assert!(replay.is_done(0));
    }
}
