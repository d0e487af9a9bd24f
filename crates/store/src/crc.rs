//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) — the store's
//! integrity check for segment headers, column payloads and cached
//! feature matrices. Implemented here because the workspace is
//! dependency-light by design (see `vendor/README.md`).
//!
//! The checksum is computed slicing-by-8 (Kounavis & Berry): eight
//! 256-entry tables, built at compile time, fold eight input bytes per
//! step, where the classic bytewise form folds one. Both forms compute
//! the same CRC, so every stored checksum reads back unchanged. [`Crc32`]
//! is the incremental state for inputs that arrive in pieces (a file
//! read in chunks); [`crc32`] is the one-shot form.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC state
/// after feeding byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Table lookup of byte `n` (0 = lowest) of `word` in table `k`.
#[inline(always)]
fn lookup(k: usize, word: u32, n: u32) -> u32 {
    // alba-lint: allow(reachable-panic) reason="k < 8 at every call site; the byte index is a u8"
    TABLES[k][(word >> (8 * n)) as u8 as usize]
}

/// Incremental CRC-32: feed the input in any split through
/// [`Crc32::update`], read the checksum with [`Crc32::finish`]. The
/// result equals [`crc32`] of the concatenated input.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any input.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes`: eight at a time, then the tail one at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            // alba-lint: allow(reachable-panic) reason="chunks_exact(8) yields exactly 8 bytes"
            let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            let (lo, hi) = (crc ^ word as u32, (word >> 32) as u32);
            crc = lookup(7, lo, 0)
                ^ lookup(6, lo, 1)
                ^ lookup(5, lo, 2)
                ^ lookup(4, lo, 3)
                ^ lookup(3, hi, 0)
                ^ lookup(2, hi, 1)
                ^ lookup(1, hi, 2)
                ^ lookup(0, hi, 3);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ lookup(0, crc ^ b as u32, 0);
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes` (matching `zlib.crc32` / `cksum -o 3`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic one-byte-per-step form: the reference the sliced
    /// form must equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn matches_known_vectors() {
        // Standard check value for "123456789".
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(f(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    /// Pseudo-random bytes (an LCG), reproducible without a generator.
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn every_length_to_4096_matches_the_bytewise_reference() {
        let buf = noise(4096 + 8);
        for len in 0..=4096 {
            // Start offsets cycle through 0..8, so the 8-byte words are
            // unaligned in every way.
            let bytes = &buf[len % 8..len % 8 + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}");
        }
    }

    proptest! {
        /// The sliced one-shot and incremental forms equal the bytewise
        /// reference at random lengths 0..=4096 and start offsets 0..8
        /// into the buffer (unaligned slices), and for any split of the
        /// input into `update` calls.
        #[test]
        fn sliced_forms_equal_the_bytewise_reference(
            buf in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 4104..4105),
            start in 0usize..8,
            len in 0usize..4097,
            cuts in prop::collection::vec(0usize..4097, 0..6),
        ) {
            let bytes = &buf[start..start + len];
            let want = crc32_bytewise(bytes);
            prop_assert_eq!(crc32(bytes), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut inc = Crc32::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([len]) {
                inc.update(&bytes[at..c]);
                at = c;
            }
            prop_assert_eq!(inc.finish(), want);
        }
    }
}
