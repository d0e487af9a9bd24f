//! Memoised experiment-grid cells: one CRC-checked JSON blob per cell.
//!
//! The grid runner (`alba-grid`) content-addresses every cell of a sweep
//! by the FNV key of its canonical spec and parks the finished result
//! here, so a killed sweep resumes without recomputing a single finished
//! cell. The format is deliberately tiny — cells are small (one session
//! result) and written once:
//!
//! ```text
//! cells/<key16>.cell
//!   magic   "ACL1"        4 bytes
//!   len     u32 LE        payload length
//!   crc     u32 LE        CRC-32 of the payload
//!   payload JSON          the serialised cell result
//! ```
//!
//! Writes are atomic (staged as `*.tmp-<pid>`, renamed into place), and
//! reads validate the CRC — a half-written or vandalised cell degrades
//! to a miss the runner heals by recomputing. Fault sites `cell.write`,
//! `cell.fsync` and `cell.read` mirror the segment-store sites so chaos
//! tests can kill a sweep at exact cell boundaries without disturbing
//! campaign or feature traffic.

use crate::crc::crc32;
use crate::error::{Result, StoreError};
use crate::store::TelemetryStore;
use std::io::Write as _;
use std::path::PathBuf;

/// File magic: "Alba CeLl v1".
const MAGIC: [u8; 4] = *b"ACL1";

/// Cells larger than this are rejected as corrupt framing rather than
/// attempted as one giant allocation (a flipped length byte must not
/// OOM the resume path).
const MAX_CELL_BYTES: u32 = 64 << 20;

impl TelemetryStore {
    /// Path of the memoised cell blob for `key`.
    pub fn cell_path(&self, key: &str) -> PathBuf {
        self.root().join("cells").join(format!("{key}.cell"))
    }

    /// Persists `payload` (serialised cell JSON) as the cell entry for
    /// `key`, atomically replacing any previous version.
    pub fn put_cell(&self, key: &str, payload: &[u8]) -> Result<()> {
        let _span = self.obs().span("store_write_ns", &[("kind", "cell")]);
        crate::fault::check(self.fault_hook(), "cell.write")?;
        let final_path = self.cell_path(key);
        let stage = final_path.with_extension(format!("tmp-{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&stage)?;
            f.write_all(&MAGIC)?;
            f.write_all(&(payload.len() as u32).to_le_bytes())?;
            f.write_all(&crc32(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.flush()?;
        }
        // Simulated fsync failure: the staged blob never gets published,
        // exactly as if the process died before the rename.
        crate::fault::check(self.fault_hook(), "cell.fsync")?;
        std::fs::rename(&stage, &final_path)?;
        self.obs().counter("store_cells_written_total", &[]).inc();
        Ok(())
    }

    /// Reads the memoised cell for `key`. `Ok(None)` means absent; a
    /// torn or corrupt blob surfaces as an error for the caller to heal
    /// by recomputing (counted via `store_corrupt_entries_total`).
    pub fn get_cell(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let path = self.cell_path(key);
        if !path.exists() {
            return Ok(None);
        }
        let _span = self.obs().span("store_read_ns", &[("kind", "cell")]);
        crate::fault::check(self.fault_hook(), "cell.read")?;
        let bytes = std::fs::read(&path)?;
        // alba-lint: allow(reachable-panic) reason="len >= 12 is checked first in this condition"
        if bytes.len() < 12 || bytes[..4] != MAGIC {
            return Err(StoreError::corrupt(&path, "missing or wrong cell magic"));
        }
        // alba-lint: allow(reachable-panic) reason="header length was verified above"
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        // alba-lint: allow(reachable-panic) reason="header length was verified above"
        let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if len > MAX_CELL_BYTES {
            return Err(StoreError::corrupt(&path, format!("implausible cell length {len}")));
        }
        // alba-lint: allow(reachable-panic) reason="len >= 12 was verified above"
        let payload = &bytes[12..];
        if payload.len() as u32 != len {
            return Err(StoreError::TruncatedTail { path: path.display().to_string(), offset: 12 });
        }
        if crc32(payload) != crc {
            return Err(StoreError::corrupt(&path, "cell payload CRC mismatch"));
        }
        Ok(Some(payload.to_vec()))
    }

    /// Memoised cell lookup with self-healing counters: an intact entry
    /// is a hit, an absent one a miss, and a corrupt one degrades to a
    /// miss after bumping `store_corrupt_entries_total{kind="cell"}`.
    /// Hit/miss land on `store_cache_hits_total` / `_misses_total` with
    /// `kind="cell"` so `store_stats` surfaces them beside campaigns.
    pub fn lookup_cell(&self, key: &str) -> Option<Vec<u8>> {
        match self.get_cell(key) {
            Ok(Some(payload)) => {
                self.obs().counter("store_cache_hits_total", &[("kind", "cell")]).inc();
                Some(payload)
            }
            Ok(None) => {
                self.obs().counter("store_cache_misses_total", &[("kind", "cell")]).inc();
                None
            }
            Err(e) => {
                self.obs().counter("store_corrupt_entries_total", &[("kind", "cell")]).inc();
                self.obs().event(
                    "store_self_heal",
                    &[("kind", "cell".into()), ("error", e.to_string().into())],
                );
                self.obs().counter("store_cache_misses_total", &[("kind", "cell")]).inc();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmpdir;
    use alba_obs::Obs;

    #[test]
    fn cell_round_trips_bytes_exactly() {
        let dir = tmpdir("cells-roundtrip");
        let store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        let payload = br#"{"cell":1,"f1":[0.5,0.75]}"#;
        store.put_cell("00000000000000aa", payload).unwrap();
        let got = store.get_cell("00000000000000aa").unwrap().expect("present");
        assert_eq!(got, payload);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_cell_is_none_and_counts_a_miss() {
        let dir = tmpdir("cells-absent");
        let obs = Obs::wall();
        let store = TelemetryStore::with_obs(&dir, obs.clone()).unwrap();
        assert!(store.get_cell("feedfacefeedface").unwrap().is_none());
        assert!(store.lookup_cell("feedfacefeedface").is_none());
        assert_eq!(obs.counter("store_cache_misses_total", &[("kind", "cell")]).get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cell_degrades_to_miss_with_counter() {
        let dir = tmpdir("cells-corrupt");
        let obs = Obs::wall();
        let store = TelemetryStore::with_obs(&dir, obs.clone()).unwrap();
        store.put_cell("00000000000000bb", b"{\"x\":2}").unwrap();

        let path = store.cell_path("00000000000000bb");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        assert!(matches!(store.get_cell("00000000000000bb"), Err(StoreError::Corrupt { .. })));
        assert!(store.lookup_cell("00000000000000bb").is_none());
        assert_eq!(obs.counter("store_corrupt_entries_total", &[("kind", "cell")]).get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_cell_is_a_truncated_tail() {
        let dir = tmpdir("cells-torn");
        let store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        store.put_cell("00000000000000cc", b"0123456789abcdef").unwrap();
        let path = store.cell_path("00000000000000cc");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            store.get_cell("00000000000000cc"),
            Err(StoreError::TruncatedTail { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_sites_fire_at_cell_boundaries() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let dir = tmpdir("cells-fault");
        let mut store = TelemetryStore::with_obs(&dir, Obs::disabled()).unwrap();
        store.put_cell("00000000000000dd", b"{}").unwrap();

        let armed: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        let flag = armed.clone();
        store.set_fault_hook(Arc::new(move |site: &str| {
            let want = match flag.load(Ordering::SeqCst) {
                1 => "cell.write",
                2 => "cell.fsync",
                3 => "cell.read",
                _ => return None,
            };
            (site == want).then(|| std::io::Error::other(format!("injected at {site}")))
        }));

        armed.store(1, Ordering::SeqCst);
        assert!(matches!(store.put_cell("00000000000000dd", b"[]"), Err(StoreError::Io(_))));
        armed.store(2, Ordering::SeqCst);
        assert!(matches!(store.put_cell("00000000000000dd", b"[]"), Err(StoreError::Io(_))));
        armed.store(3, Ordering::SeqCst);
        assert!(matches!(store.get_cell("00000000000000dd"), Err(StoreError::Io(_))));
        // Neither failed write published: the original payload survives.
        armed.store(0, Ordering::SeqCst);
        assert_eq!(store.get_cell("00000000000000dd").unwrap().unwrap(), b"{}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
