//! Lossless column codecs for 1 Hz telemetry.
//!
//! Each metric column is encoded independently as
//!
//! 1. a *gap bitmap* — one bit per timestamp, set where the collector
//!    dropped the sample (the value is NaN). Dropped samples carry no
//!    payload bytes; LDMS-style feeds lose samples routinely and the
//!    paper's preprocessing exists to repair them, so the format makes
//!    gaps explicit instead of burning 8 bytes on each,
//! 2. a varint stream over the present values' IEEE-754 bit patterns:
//!    *cumulative counters* are delta-encoded (monotone non-negative
//!    doubles have monotone bit patterns, so deltas are small) and
//!    zigzag-mapped; *gauges* are XOR-encoded against the previous
//!    present value (high bytes of nearby doubles agree, so the XOR is
//!    mostly low bits).
//!
//! Both transforms operate on raw bit patterns, so every finite value,
//! infinity and signed zero round-trips **bit-exactly**; NaN gaps are
//! normalised to the canonical `f64::NAN`. The property suite at the
//! repository root asserts the round-trip for arbitrary inputs.

use crate::error::{Result, StoreError};
use alba_data::MetricKind;

/// Appends `v` as a LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads a little-endian `u32` at `pos`, if four bytes are available.
///
/// Never panics: short or overflowing ranges yield `None`, so framing
/// readers can surface typed errors instead of indexing past the end.
pub fn read_u32_le(bytes: &[u8], pos: usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(b))
}

/// Reads a LEB128 varint at `*pos`, advancing it.
pub fn get_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b =
            *bytes.get(*pos).ok_or_else(|| StoreError::corrupt("<column>", "varint past end"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::corrupt("<column>", "varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends one encoded metric column to `out`, leaving the bytes
/// already in it untouched. The timestamp count is *not* stored — the
/// caller frames it (the segment block header records `n_samples`).
pub fn put_column(out: &mut Vec<u8>, values: &[f64], kind: MetricKind) {
    let n = values.len();
    out.reserve(n.div_ceil(8) + n * 3);
    for chunk in values.chunks(8) {
        let mut gaps = 0u8;
        for (i, v) in chunk.iter().enumerate() {
            if v.is_nan() {
                gaps |= 1 << i;
            }
        }
        out.push(gaps);
    }
    let mut prev = 0u64;
    for v in values.iter().filter(|v| !v.is_nan()) {
        let bits = v.to_bits();
        match kind {
            MetricKind::Counter => {
                put_uvarint(out, zigzag(bits.wrapping_sub(prev) as i64));
            }
            MetricKind::Gauge => {
                put_uvarint(out, bits ^ prev);
            }
        }
        prev = bits;
    }
}

/// Decodes a column of `n` timestamps written by [`put_column`].
///
/// Returns [`StoreError::Corrupt`] when the buffer is too short, has
/// trailing garbage, or contains a malformed varint.
pub fn decode_column(bytes: &[u8], n: usize, kind: MetricKind) -> Result<Vec<f64>> {
    let bitmap_len = n.div_ceil(8);
    if bytes.len() < bitmap_len {
        return Err(StoreError::corrupt("<column>", "gap bitmap shorter than sample count"));
    }
    let (bitmap, payload) = bytes.split_at(bitmap_len);
    let mut out = Vec::with_capacity(n);
    let mut pos = 0usize;
    let mut prev = 0u64;
    for t in 0..n {
        // alba-lint: allow(reachable-panic) reason="bitmap length was validated against n before this loop"
        if bitmap[t / 8] & (1 << (t % 8)) != 0 {
            out.push(f64::NAN);
            continue;
        }
        let raw = get_uvarint(payload, &mut pos)?;
        let bits = match kind {
            MetricKind::Counter => prev.wrapping_add(unzigzag(raw) as u64),
            MetricKind::Gauge => raw ^ prev,
        };
        out.push(f64::from_bits(bits));
        prev = bits;
    }
    if pos != payload.len() {
        return Err(StoreError::corrupt("<column>", "trailing bytes after last sample"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(values: &[f64], kind: MetricKind) -> Vec<u8> {
        let mut out = Vec::new();
        put_column(&mut out, values, kind);
        out
    }

    fn roundtrip(values: &[f64], kind: MetricKind) {
        let enc = encoded(values, kind);
        let dec = decode_column(&enc, values.len(), kind).unwrap();
        assert_eq!(dec.len(), values.len());
        for (a, b) in values.iter().zip(&dec) {
            if a.is_nan() {
                assert_eq!(b.to_bits(), f64::NAN.to_bits(), "gaps normalise to canonical NaN");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} must round-trip bit-exactly");
            }
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1, 1 << 63] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn gauge_columns_roundtrip() {
        roundtrip(&[], MetricKind::Gauge);
        roundtrip(&[0.0, -0.0, 1.5, f64::INFINITY, -1e-300, f64::MAX], MetricKind::Gauge);
        roundtrip(&[f64::NAN, f64::NAN, f64::NAN], MetricKind::Gauge);
        let wavy: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin() * 37.0).collect();
        roundtrip(&wavy, MetricKind::Gauge);
    }

    #[test]
    fn counter_columns_roundtrip_and_compress() {
        let mut acc = 0.0;
        let counter: Vec<f64> = (0..1000)
            .map(|i| {
                acc += 3.0 + (i % 7) as f64 * 0.25;
                acc
            })
            .collect();
        roundtrip(&counter, MetricKind::Counter);
        let enc = encoded(&counter, MetricKind::Counter);
        assert!(
            enc.len() < counter.len() * 8,
            "delta coding beats raw doubles: {} vs {}",
            enc.len(),
            counter.len() * 8
        );
    }

    #[test]
    fn put_column_appends_after_a_prefix_without_touching_it() {
        let sub = f64::from_bits(1);
        let columns: [&[f64]; 4] = [
            &[],
            &[f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, sub, -sub, f64::NAN, 1.5],
            &[f64::NAN; 9],
            &[-0.0, 0.0, sub, f64::MIN_POSITIVE, f64::MAX, -f64::INFINITY, 3.25, -7.0, 0.0, 1e-300],
        ];
        let prefix = [0xA1u8, 0xBA, 0x00, 0xFF, 0x80];
        for kind in [MetricKind::Gauge, MetricKind::Counter] {
            for values in columns {
                let alone = encoded(values, kind);
                let mut out = prefix.to_vec();
                put_column(&mut out, values, kind);
                assert_eq!(&out[..prefix.len()], &prefix, "{kind:?} {values:?}: prefix kept");
                assert_eq!(&out[prefix.len()..], &alone[..], "{kind:?} {values:?}: same suffix");
                roundtrip(values, kind);
            }
        }
    }

    #[test]
    fn column_bytes_are_pinned() {
        // Gap bitmap LSB first (t = 0, 3..=8 dropped), then one varint
        // per present value: 1.0's bits, then a zero XOR / zero delta.
        let nan = f64::NAN;
        let values = [nan, 1.0, 1.0, nan, nan, nan, nan, nan, nan];
        let gauge = [0xF9, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xF8, 0x3F, 0x00];
        let counter = [0xF9, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xF0, 0x7F, 0x00];
        assert_eq!(encoded(&values, MetricKind::Gauge), gauge);
        assert_eq!(encoded(&values, MetricKind::Counter), counter);
    }

    #[test]
    fn gaps_cost_no_payload() {
        let mut vals = vec![1.0; 64];
        let dense = encoded(&vals, MetricKind::Gauge).len();
        for v in vals.iter_mut().skip(1).step_by(2) {
            *v = f64::NAN;
        }
        let sparse = encoded(&vals, MetricKind::Gauge).len();
        assert!(sparse < dense, "dropped samples must not be stored");
    }

    #[test]
    fn short_buffer_is_an_error_not_a_panic() {
        let enc = encoded(&[1.0, 2.0, 3.0], MetricKind::Gauge);
        assert!(decode_column(&enc[..1], 3, MetricKind::Gauge).is_err());
        assert!(decode_column(&[], 3, MetricKind::Gauge).is_err());
        // Trailing garbage is also rejected.
        let mut long = enc.clone();
        long.push(0x00);
        assert!(decode_column(&long, 3, MetricKind::Gauge).is_err());
    }

    #[test]
    fn kind_mismatch_still_decodes_without_panicking() {
        // Decoding with the wrong kind yields wrong values (the segment
        // header is authoritative) but must never panic or loop.
        let enc = encoded(&[1.0, 2.0, 4.0], MetricKind::Counter);
        let _ = decode_column(&enc, 3, MetricKind::Gauge);
    }
}
