//! The on-disk segment format for raw telemetry.
//!
//! A *segment* is an append-only file holding a batch of node samples
//! (one block per [`NodeTelemetry`]) that share one metric catalog. All
//! integers are little-endian; all variable-length structures are
//! CRC-checked so bit rot and torn writes surface as [`StoreError`]s
//! instead of garbage telemetry:
//!
//! ```text
//! "ALBASEG1"  magic                                   8 bytes
//! version     u32 (currently 1)
//! schema_len  u32
//! schema      JSON: { metrics: [MetricDef, ...] }     schema_len bytes
//! schema_crc  u32   CRC-32 of the schema JSON
//! block*      until EOF
//!
//! block := "BLK1"       u32 magic
//!          payload_len  u32
//!          payload      payload_len bytes
//!          payload_crc  u32   CRC-32 of payload
//!
//! payload := head_len  u32
//!            head      JSON: { label, n_samples, meta: SampleMeta }
//!            column*   one per catalog metric, in catalog order
//!
//! column := col_len  u32
//!           bytes    codec output (see [`crate::codec`])
//! ```
//!
//! A file that ends inside a block is reported as
//! [`StoreError::TruncatedTail`]; a block whose CRC disagrees is
//! [`StoreError::Corrupt`]. Readers never panic on hostile bytes.

use crate::codec::{decode_column, put_column, read_u32_le};
use crate::crc::crc32;
use crate::error::{Result, StoreError};
use alba_data::{MetricDef, MultiSeries, SampleMeta};
use alba_telemetry::NodeTelemetry;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: &[u8; 8] = b"ALBASEG1";
const SEGMENT_VERSION: u32 = 1;
const BLOCK_MAGIC: u32 = 0x314B_4C42; // "BLK1" little-endian

#[derive(Serialize, Deserialize)]
struct SegmentSchema {
    metrics: Vec<MetricDef>,
}

#[derive(Serialize, Deserialize)]
struct BlockHead {
    label: String,
    n_samples: u64,
    meta: SampleMeta,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Overwrites the `u32` slot at `at` that an earlier [`put_u32`] reserved.
fn patch_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Streams [`NodeTelemetry`] blocks into one segment file.
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    metrics: Vec<MetricDef>,
    blocks: u64,
}

impl SegmentWriter {
    /// Creates the file and writes the CRC-checked schema header.
    pub fn create(path: impl AsRef<Path>, metrics: &[MetricDef]) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut header = Vec::new();
        header.extend_from_slice(SEGMENT_MAGIC);
        put_u32(&mut header, SEGMENT_VERSION);
        let schema = serde_json::to_string(&SegmentSchema { metrics: metrics.to_vec() })
            .map_err(|e| StoreError::corrupt(&path, format!("schema serialise: {e:?}")))?;
        put_u32(&mut header, schema.len() as u32);
        header.extend_from_slice(schema.as_bytes());
        put_u32(&mut header, crc32(schema.as_bytes()));
        let mut file = BufWriter::new(File::create(&path)?);
        file.write_all(&header)?;
        Ok(Self { path, file, metrics: metrics.to_vec(), blocks: 0 })
    }

    /// Appends one node sample as a CRC-framed block.
    pub fn append(&mut self, sample: &NodeTelemetry) -> Result<()> {
        if sample.series.metrics != self.metrics {
            return Err(StoreError::schema(
                &self.path,
                "sample metric catalog differs from segment schema",
            ));
        }
        let head = serde_json::to_string(&BlockHead {
            label: sample.label.clone(),
            n_samples: sample.series.len() as u64,
            meta: sample.meta.clone(),
        })
        .map_err(|e| StoreError::corrupt(&self.path, format!("block head serialise: {e:?}")))?;
        // `BLOCK_MAGIC ‖ payload length ‖ payload ‖ CRC`, written in
        // place: each length slot is reserved, then filled in once the
        // bytes it counts are appended.
        let mut frame = Vec::new();
        put_u32(&mut frame, BLOCK_MAGIC);
        put_u32(&mut frame, 0);
        put_u32(&mut frame, head.len() as u32);
        frame.extend_from_slice(head.as_bytes());
        for (m, def) in self.metrics.iter().enumerate() {
            let slot = frame.len();
            put_u32(&mut frame, 0);
            put_column(&mut frame, sample.series.metric(m), def.kind);
            let col_len = frame.len() - slot - 4;
            patch_u32(&mut frame, slot, col_len as u32);
        }
        let payload_len = frame.len() - 8;
        patch_u32(&mut frame, 4, payload_len as u32);
        let crc = crc32(&frame[8..]);
        put_u32(&mut frame, crc);
        self.file.write_all(&frame)?;
        self.blocks += 1;
        Ok(())
    }

    /// Blocks appended so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Flushes and closes the segment.
    pub fn finish(mut self) -> Result<u64> {
        self.file.flush()?;
        Ok(self.blocks)
    }
}

/// Reads and validates one segment file.
pub struct SegmentReader {
    path: PathBuf,
    bytes: Vec<u8>,
    metrics: Vec<MetricDef>,
    /// Offset of the first block.
    body: usize,
}

impl SegmentReader {
    /// Opens a segment, validating magic, version and the schema CRC.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;
        // alba-lint: allow(reachable-panic) reason="len >= 16 is checked first in this condition"
        if bytes.len() < 16 || &bytes[..8] != SEGMENT_MAGIC {
            return Err(StoreError::corrupt(&path, "missing ALBASEG1 magic"));
        }
        let version = read_u32_le(&bytes, 8)
            .ok_or_else(|| StoreError::corrupt(&path, "truncated version field"))?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::schema(&path, format!("unsupported version {version}")));
        }
        let schema_len = read_u32_le(&bytes, 12)
            .ok_or_else(|| StoreError::corrupt(&path, "truncated schema length"))?
            as usize;
        let schema_end = 16usize.checked_add(schema_len).filter(|&e| e + 4 <= bytes.len());
        let Some(schema_end) = schema_end else {
            return Err(StoreError::TruncatedTail { path: path.display().to_string(), offset: 16 });
        };
        // alba-lint: allow(reachable-panic) reason="schema_end was bounds-checked above"
        let schema_bytes = &bytes[16..schema_end];
        let stored_crc = read_u32_le(&bytes, schema_end)
            .ok_or_else(|| StoreError::corrupt(&path, "truncated schema CRC"))?;
        if crc32(schema_bytes) != stored_crc {
            return Err(StoreError::corrupt(&path, "schema CRC mismatch"));
        }
        let schema: SegmentSchema = serde_json::from_str(
            std::str::from_utf8(schema_bytes)
                .map_err(|_| StoreError::corrupt(&path, "schema is not UTF-8"))?,
        )
        .map_err(|e| StoreError::corrupt(&path, format!("schema parse: {e:?}")))?;
        Ok(Self { path, bytes, metrics: schema.metrics, body: schema_end + 4 })
    }

    /// The metric catalog every block of this segment follows.
    pub fn metrics(&self) -> &[MetricDef] {
        &self.metrics
    }

    /// Decodes every block, validating each frame's CRC. The first torn
    /// or corrupt block aborts the read with a precise error.
    pub fn read_all(&self) -> Result<Vec<NodeTelemetry>> {
        let mut out = Vec::new();
        let mut pos = self.body;
        while pos < self.bytes.len() {
            let offset = pos as u64;
            let torn =
                || StoreError::TruncatedTail { path: self.path.display().to_string(), offset };
            let magic = read_u32_le(&self.bytes, pos).ok_or_else(torn)?;
            if magic != BLOCK_MAGIC {
                return Err(StoreError::corrupt(&self.path, format!("bad block magic at {pos}")));
            }
            let payload_len = read_u32_le(&self.bytes, pos + 4).ok_or_else(torn)? as usize;
            let payload_start = pos + 8;
            let payload_end = payload_start.checked_add(payload_len).ok_or_else(torn)?;
            if payload_end + 4 > self.bytes.len() {
                return Err(torn());
            }
            // alba-lint: allow(reachable-panic) reason="payload range was bounds-checked above"
            let payload = &self.bytes[payload_start..payload_end];
            let stored_crc = read_u32_le(&self.bytes, payload_end).ok_or_else(torn)?;
            if crc32(payload) != stored_crc {
                return Err(StoreError::corrupt(
                    &self.path,
                    format!("block CRC mismatch at byte {pos}"),
                ));
            }
            out.push(self.decode_block(payload, pos)?);
            pos = payload_end + 4;
        }
        Ok(out)
    }

    fn decode_block(&self, payload: &[u8], at: usize) -> Result<NodeTelemetry> {
        let bad = |detail: String| StoreError::corrupt(&self.path, detail);
        let head_len = read_u32_le(payload, 0)
            .ok_or_else(|| bad(format!("block at {at} too short")))?
            as usize;
        let head_end = 4usize
            .checked_add(head_len)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| bad(format!("block head at {at} overruns payload")))?;
        let head: BlockHead = serde_json::from_str(
            // alba-lint: allow(reachable-panic) reason="head_end was bounds-checked above"
            std::str::from_utf8(&payload[4..head_end])
                .map_err(|_| bad(format!("block head at {at} is not UTF-8")))?,
        )
        .map_err(|e| bad(format!("block head parse at {at}: {e:?}")))?;
        let n = head.n_samples as usize;
        let mut values = Vec::with_capacity(self.metrics.len());
        let mut pos = head_end;
        for def in &self.metrics {
            let col_len = read_u32_le(payload, pos)
                .ok_or_else(|| bad(format!("column frame at {at} torn")))?
                as usize;
            let col_end = pos
                .checked_add(4 + col_len)
                .filter(|&e| e <= payload.len())
                .ok_or_else(|| bad(format!("column at {at} overruns payload")))?;
            // alba-lint: allow(reachable-panic) reason="col_end was bounds-checked above"
            let col = decode_column(&payload[pos + 4..col_end], n, def.kind)
                .map_err(|e| bad(format!("column {} at {at}: {e}", def.name)))?;
            values.push(col);
            pos = col_end;
        }
        if pos != payload.len() {
            return Err(bad(format!("block at {at} has trailing bytes")));
        }
        Ok(NodeTelemetry {
            series: MultiSeries { metrics: self.metrics.clone(), values },
            meta: head.meta,
            label: head.label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmpdir;
    use alba_telemetry::{generate_run, CampaignConfig, Scale};

    fn samples() -> Vec<NodeTelemetry> {
        let cfg = CampaignConfig::volta(Scale::Smoke, 11);
        let catalog = cfg.catalog();
        let rc = &cfg.run_configs()[0];
        generate_run(rc, &catalog, &cfg.signature, &cfg.noise)
    }

    #[test]
    fn segment_roundtrip_is_bit_exact() {
        let dir = tmpdir("seg-roundtrip");
        let path = dir.join("seg-0000.seg");
        let samples = samples();
        let mut w = SegmentWriter::create(&path, &samples[0].series.metrics).unwrap();
        for s in &samples {
            w.append(s).unwrap();
        }
        assert_eq!(w.finish().unwrap(), samples.len() as u64);

        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.metrics(), &samples[0].series.metrics[..]);
        let back = r.read_all().unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.series.len(), b.series.len());
            for m in 0..a.series.n_metrics() {
                for (x, y) in a.series.metric(m).iter().zip(b.series.metric(m)) {
                    if x.is_nan() {
                        assert!(y.is_nan());
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_a_clean_error() {
        let dir = tmpdir("seg-truncated");
        let path = dir.join("seg.seg");
        let samples = samples();
        let mut w = SegmentWriter::create(&path, &samples[0].series.metrics).unwrap();
        w.append(&samples[0]).unwrap();
        w.append(&samples[1]).unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut into the middle of the second block.
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        match r.read_all() {
            Err(StoreError::TruncatedTail { .. }) => {}
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_crc_is_a_clean_error() {
        let dir = tmpdir("seg-corrupt");
        let path = dir.join("seg.seg");
        let samples = samples();
        let mut w = SegmentWriter::create(&path, &samples[0].series.metrics).unwrap();
        w.append(&samples[0]).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte near the end (inside the block, before
        // its trailing CRC).
        let idx = bytes.len() - 32;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        match r.read_all() {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("CRC"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_on_append_is_rejected() {
        let dir = tmpdir("seg-schema");
        let path = dir.join("seg.seg");
        let samples = samples();
        let mut other = samples[0].series.metrics.clone();
        other.pop();
        let mut w = SegmentWriter::create(&path, &other).unwrap();
        assert!(matches!(w.append(&samples[0]), Err(StoreError::SchemaMismatch { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_is_rejected_not_panicked_on() {
        let dir = tmpdir("seg-garbage");
        let path = dir.join("junk.seg");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        assert!(SegmentReader::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(SegmentReader::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
