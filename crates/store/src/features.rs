//! The feature-matrix table: extraction memoised to disk.
//!
//! TSFRESH-style extraction dominates offline experiment time, yet its
//! output is a pure function of `(telemetry source, window spec,
//! extractor, preprocessing, class names)`. The cache persists each
//! extracted [`Dataset`] under the FNV-1a key of that tuple
//! ([`FeatureKey`]) in a binary `.fmat` file:
//!
//! ```text
//! "ALBAFMT1"  magic                              8 bytes
//! header_len  u32
//! header      JSON: key descriptor, shape, labels, names, meta
//! header_crc  u32
//! matrix      rows * cols little-endian f64      8*rows*cols bytes
//! matrix_crc  u32
//! ```
//!
//! The raw-bits matrix payload round-trips bit-exactly, so a warm read
//! reproduces the cold extraction's dataset down to the last ulp — the
//! CI gate re-runs an experiment from cache and asserts identical output.

use crate::codec::read_u32_le;
use crate::error::{Result, StoreError};
use crate::keys::key_of;
use crate::store::TelemetryStore;
use crate::window::WindowSpec;
use alba_data::{Dataset, LabelEncoder, Matrix, SampleMeta};
use alba_features::{extract_features, FeatureExtractor, PreprocessConfig};
use alba_telemetry::NodeTelemetry;
use serde::{Deserialize, Serialize};
use std::io::Read;

const FMAT_MAGIC: &[u8; 8] = b"ALBAFMT1";

/// Matrix payload bytes read, checked and decoded per step of
/// [`FeatureCache::read`] (a multiple of 8, so no value straddles two
/// chunks).
const READ_CHUNK: usize = 1 << 20;

/// Everything the cached matrix is a function of. Two equal keys must
/// imply bit-identical extractor output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureKey {
    /// Key of the telemetry the features were extracted from (campaign
    /// or fleet entry key).
    pub source_key: String,
    /// Extractor identifier ([`FeatureExtractor::name`]).
    pub extractor: String,
    /// Preprocessing applied before extraction.
    pub pre: PreprocessConfig,
    /// Windowing applied to each run, `None` for whole-run extraction
    /// (the offline pipeline's granularity).
    pub window: Option<WindowSpec>,
    /// Class-name ordering the labels were encoded against.
    pub class_names: Vec<String>,
}

impl FeatureKey {
    /// Whole-run extraction over a stored campaign.
    pub fn whole_run(
        source_key: impl Into<String>,
        extractor: &dyn FeatureExtractor,
        pre: PreprocessConfig,
        class_names: &[String],
    ) -> Self {
        Self {
            source_key: source_key.into(),
            extractor: extractor.name().to_string(),
            pre,
            window: None,
            class_names: class_names.to_vec(),
        }
    }

    /// The 16-hex-digit store key of this descriptor.
    pub fn store_key(&self) -> String {
        key_of("features", self)
    }
}

#[derive(Serialize, Deserialize)]
struct FmatHeader {
    key: FeatureKey,
    rows: u64,
    cols: u64,
    y: Vec<usize>,
    feature_names: Vec<String>,
    meta: Vec<SampleMeta>,
}

/// Disk-backed memoisation of feature extraction (see the module docs).
#[derive(Clone, Debug)]
pub struct FeatureCache {
    store: TelemetryStore,
}

impl TelemetryStore {
    /// This store's feature-matrix table.
    pub fn features(&self) -> FeatureCache {
        FeatureCache { store: self.clone() }
    }
}

impl FeatureCache {
    /// Reads the cached dataset for `key`. `Ok(None)` means absent;
    /// corrupt files surface as errors (heal by rewriting).
    ///
    /// The header is read and verified first. The claimed matrix shape
    /// is checked against the file length before the matrix is
    /// allocated, then the payload streams through in [`READ_CHUNK`]
    /// pieces, each fed to the CRC and decoded in place, so the whole
    /// file is never held as bytes.
    pub fn read(&self, key: &FeatureKey) -> Result<Option<Dataset>> {
        let path = self.store.feature_path(&key.store_key());
        if !path.exists() {
            return Ok(None);
        }
        let _span = self.store.obs().span("store_read_ns", &[("kind", "features")]);
        let mut file = std::fs::File::open(&path)?;
        let file_len = file.metadata()?.len();
        let torn = |offset: usize| StoreError::TruncatedTail {
            path: path.display().to_string(),
            offset: offset as u64,
        };
        // Fills `buf` from the file; a file that shrinks under the read
        // is a torn tail at `offset`, like one found short up front.
        let mut fill = |buf: &mut [u8], offset: usize| match file.read_exact(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(torn(offset)),
            other => other.map_err(StoreError::from),
        };

        let mut head = [0u8; 12];
        if file_len >= 16 {
            fill(&mut head, 0)?;
        }
        if file_len < 16 || !head.starts_with(FMAT_MAGIC) {
            return Err(StoreError::corrupt(&path, "missing ALBAFMT1 magic"));
        }
        let header_len = read_u32_le(&head, 8)
            .ok_or_else(|| StoreError::corrupt(&path, "truncated header length"))?
            as usize;
        let header_end = 12usize
            .checked_add(header_len)
            .filter(|&e| e as u64 + 4 <= file_len)
            .ok_or_else(|| torn(12))?;
        let mut header_bytes = vec![0u8; header_len + 4];
        fill(&mut header_bytes, 12)?;
        let stored = read_u32_le(&header_bytes, header_len)
            .ok_or_else(|| StoreError::corrupt(&path, "truncated header CRC"))?;
        header_bytes.truncate(header_len);
        if crate::crc::crc32(&header_bytes) != stored {
            return Err(StoreError::corrupt(&path, "header CRC mismatch"));
        }
        let header: FmatHeader = serde_json::from_str(
            std::str::from_utf8(&header_bytes)
                .map_err(|_| StoreError::corrupt(&path, "header is not UTF-8"))?,
        )
        .map_err(|e| StoreError::corrupt(&path, format!("header parse: {e:?}")))?;
        if header.key.store_key() != key.store_key() {
            return Err(StoreError::schema(&path, "cached key differs from requested key"));
        }
        let (rows, cols) = (header.rows as usize, header.cols as usize);
        let n_bytes = rows
            .checked_mul(cols)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| StoreError::corrupt(&path, "matrix shape overflows"))?;
        let matrix_start = header_end + 4;
        let matrix_end = matrix_start
            .checked_add(n_bytes)
            .filter(|&end| end as u64 + 4 <= file_len)
            .ok_or_else(|| torn(matrix_start))?;

        let mut data: Vec<f64> = Vec::with_capacity(rows * cols);
        let mut chunk = vec![0u8; READ_CHUNK.min(n_bytes)];
        let mut crc = crate::crc::Crc32::new();
        let mut offset = matrix_start;
        while offset < matrix_end {
            let n = READ_CHUNK.min(matrix_end - offset);
            // alba-lint: allow(reachable-panic) reason="n <= READ_CHUNK.min(n_bytes), the buffer's length"
            let bytes = &mut chunk[..n];
            fill(bytes, offset)?;
            crc.update(bytes);
            data.extend(
                bytes
                    .chunks_exact(8)
                    // alba-lint: allow(reachable-panic) reason="chunks_exact(8) yields exactly 8 bytes"
                    .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])),
            );
            offset += n;
        }
        let mut stored = [0u8; 4];
        fill(&mut stored, offset)?;
        if crc.finish() != u32::from_le_bytes(stored) {
            return Err(StoreError::corrupt(&path, "matrix CRC mismatch"));
        }
        let ds = Dataset::new(
            Matrix::from_vec(rows, cols, data),
            header.y,
            LabelEncoder::from_names(&header.key.class_names),
            header.meta,
            header.feature_names,
        );
        self.store.obs().counter("store_feature_rows_read_total", &[]).add(rows as u64);
        Ok(Some(ds))
    }

    /// Persists `ds` under `key`, atomically replacing any previous file.
    pub fn write(&self, key: &FeatureKey, ds: &Dataset) -> Result<()> {
        let _span = self.store.obs().span("store_write_ns", &[("kind", "features")]);
        let path = self.store.feature_path(&key.store_key());
        let (rows, cols) = ds.x.shape();
        let header = serde_json::to_string(&FmatHeader {
            key: key.clone(),
            rows: rows as u64,
            cols: cols as u64,
            y: ds.y.clone(),
            feature_names: ds.feature_names.clone(),
            meta: ds.meta.clone(),
        })
        .map_err(|e| StoreError::corrupt(&path, format!("header serialise: {e:?}")))?;
        let mut bytes = Vec::with_capacity(16 + header.len() + rows * cols * 8);
        bytes.extend_from_slice(FMAT_MAGIC);
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(&crate::crc::crc32(header.as_bytes()).to_le_bytes());
        let matrix_start = bytes.len();
        for v in ds.x.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        // alba-lint: allow(reachable-panic) reason="matrix_start is an offset into the buffer just built"
        let crc = crate::crc::crc32(&bytes[matrix_start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The memoised extraction: cache hit returns the stored dataset;
    /// miss (or corrupt file) extracts from `samples`, persists, returns.
    /// Hits and misses are counted under
    /// `store_cache_{hits,misses}_total{kind="features"}`.
    pub fn get_or_extract(
        &self,
        key: &FeatureKey,
        samples: &[NodeTelemetry],
        extractor: &dyn FeatureExtractor,
    ) -> Result<Dataset> {
        self.get_or_extract_with(key, extractor, || Ok(samples.to_vec()))
    }

    /// [`FeatureCache::get_or_extract`] with a *lazy* telemetry source:
    /// `samples` runs only on a cache miss, so a warm cache never pays for
    /// loading (or generating) the raw telemetry at all.
    pub fn get_or_extract_with(
        &self,
        key: &FeatureKey,
        extractor: &dyn FeatureExtractor,
        samples: impl FnOnce() -> Result<Vec<NodeTelemetry>>,
    ) -> Result<Dataset> {
        assert_eq!(
            key.extractor,
            extractor.name(),
            "feature key names extractor {:?} but {:?} was supplied",
            key.extractor,
            extractor.name()
        );
        let obs = self.store.obs();
        match self.read(key) {
            Ok(Some(ds)) => {
                obs.counter("store_cache_hits_total", &[("kind", "features")]).inc();
                return Ok(ds);
            }
            Ok(None) => {}
            Err(e) => {
                obs.counter("store_corrupt_entries_total", &[("kind", "features")]).inc();
                obs.event(
                    "store_self_heal",
                    &[("kind", "features".into()), ("error", e.to_string().into())],
                );
            }
        }
        obs.counter("store_cache_misses_total", &[("kind", "features")]).inc();
        let samples = samples()?;
        let ds = extract_features(&samples, extractor, &key.pre, &key.class_names);
        self.write(key, &ds)?;
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmpdir;
    use alba_data::SampleMeta;
    use alba_features::Mvts;
    use alba_obs::Obs;
    use alba_telemetry::{class_names, CampaignConfig, Scale};

    fn small_campaign() -> Vec<NodeTelemetry> {
        let mut cfg = CampaignConfig::volta(Scale::Smoke, 9);
        cfg.apps.truncate(2);
        cfg.shapes.truncate(1);
        cfg.generate()
    }

    fn key(store: &TelemetryStore) -> FeatureKey {
        let _ = store;
        FeatureKey::whole_run(
            "cafe0123cafe0123",
            &Mvts,
            PreprocessConfig::default(),
            &class_names(),
        )
    }

    #[test]
    fn cold_then_warm_reads_are_bit_identical() {
        let dir = tmpdir("fmat-roundtrip");
        let obs = Obs::wall();
        let store = TelemetryStore::with_obs(&dir, obs.clone()).unwrap();
        let cache = store.features();
        let samples = small_campaign();
        let k = key(&store);

        let cold = cache.get_or_extract(&k, &samples, &Mvts).unwrap();
        assert_eq!(obs.counter("store_cache_misses_total", &[("kind", "features")]).get(), 1);
        let warm = cache.get_or_extract(&k, &samples, &Mvts).unwrap();
        assert_eq!(obs.counter("store_cache_hits_total", &[("kind", "features")]).get(), 1);

        assert_eq!(cold.x.shape(), warm.x.shape());
        for (a, b) in cold.x.as_slice().iter().zip(warm.x.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "matrix must round-trip bit-exactly");
        }
        assert_eq!(cold.y, warm.y);
        assert_eq!(cold.meta, warm.meta);
        assert_eq!(cold.feature_names, warm.feature_names);
        assert_eq!(cold.encoder.names(), warm.encoder.names());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_file_self_heals() {
        let dir = tmpdir("fmat-heal");
        let obs = Obs::wall();
        let store = TelemetryStore::with_obs(&dir, obs.clone()).unwrap();
        let cache = store.features();
        let samples = small_campaign();
        let k = key(&store);
        cache.get_or_extract(&k, &samples, &Mvts).unwrap();

        let path = store.feature_path(&k.store_key());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();

        let healed = cache.get_or_extract(&k, &samples, &Mvts).unwrap();
        assert_eq!(healed.len(), samples.len());
        assert_eq!(obs.counter("store_corrupt_entries_total", &[("kind", "features")]).get(), 1);
        // Healed file hits again.
        cache.get_or_extract(&k, &samples, &Mvts).unwrap();
        assert_eq!(obs.counter("store_cache_hits_total", &[("kind", "features")]).get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_cache_file_is_a_clean_error() {
        let dir = tmpdir("fmat-trunc");
        let store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        let cache = store.features();
        let samples = small_campaign();
        let k = key(&store);
        cache.get_or_extract(&k, &samples, &Mvts).unwrap();
        let path = store.feature_path(&k.store_key());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 64]).unwrap();
        match cache.read(&k) {
            Err(StoreError::TruncatedTail { .. }) => {}
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A dataset whose matrix payload spans two read chunks and a bit.
    fn wide_dataset() -> Dataset {
        let (rows, cols) = (2 * READ_CHUNK / (8 * 1000) + 3, 1000);
        let data = (0..rows * cols).map(|i| (i as f64).sqrt() - 100.0).collect();
        let meta = SampleMeta {
            app: "BT".into(),
            input_deck: 0,
            run_id: 0,
            node: 0,
            node_count: 1,
            intensity_pct: 0,
        };
        Dataset::new(
            Matrix::from_vec(rows, cols, data),
            vec![0; rows],
            LabelEncoder::from_names(&class_names()),
            vec![meta; rows],
            (0..cols).map(|c| format!("f{c}")).collect(),
        )
    }

    /// Offset of the matrix payload in a `.fmat` file's bytes.
    fn matrix_start(bytes: &[u8]) -> usize {
        16 + read_u32_le(bytes, 8).unwrap() as usize
    }

    #[test]
    fn a_flip_on_either_side_of_a_chunk_boundary_fails_the_matrix_crc() {
        let dir = tmpdir("fmat-chunks");
        let store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        let cache = store.features();
        let k = key(&store);
        let ds = wide_dataset();
        cache.write(&k, &ds).unwrap();
        let back = cache.read(&k).unwrap().unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.x), bits(&ds.x), "a multi-chunk matrix round-trips");

        let path = store.feature_path(&k.store_key());
        let clean = std::fs::read(&path).unwrap();
        let start = matrix_start(&clean);
        for at in [start + READ_CHUNK - 1, start + READ_CHUNK, start + 2 * READ_CHUNK] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            match cache.read(&k) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, "matrix CRC mismatch", "flip at {at}")
                }
                other => panic!("flip at {at}: expected a CRC error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a well-formed header claiming `rows` x `cols` over a
    /// 64-byte payload.
    fn write_claimed_shape(path: &std::path::Path, k: &FeatureKey, rows: u64, cols: u64) {
        let header = serde_json::to_string(&FmatHeader {
            key: k.clone(),
            rows,
            cols,
            y: vec![],
            feature_names: vec![],
            meta: vec![],
        })
        .unwrap();
        let mut bytes = FMAT_MAGIC.to_vec();
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(&crate::crc::crc32(header.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn a_claimed_shape_beyond_the_file_is_an_error_before_allocating() {
        let dir = tmpdir("fmat-shape");
        let store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        let cache = store.features();
        let k = key(&store);
        let path = store.feature_path(&k.store_key());
        // 2^60 cells (8 EiB): allocating them first would abort the test.
        write_claimed_shape(&path, &k, 1 << 40, 1 << 20);
        let start = matrix_start(&std::fs::read(&path).unwrap()) as u64;
        match cache.read(&k) {
            Err(StoreError::TruncatedTail { offset, .. }) => assert_eq!(offset, start),
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        write_claimed_shape(&path, &k, u64::MAX, 3);
        match cache.read(&k) {
            Err(StoreError::Corrupt { detail, .. }) => assert_eq!(detail, "matrix shape overflows"),
            other => panic!("expected a shape overflow, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_spec_changes_the_key() {
        let mut a = FeatureKey::whole_run("k", &Mvts, PreprocessConfig::default(), &class_names());
        let mut b = a.clone();
        b.window = Some(WindowSpec::new(60, 10));
        assert_ne!(a.store_key(), b.store_key());
        a.window = Some(WindowSpec::new(60, 20));
        assert_ne!(a.store_key(), b.store_key());
    }
}
