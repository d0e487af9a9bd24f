//! # alba-store
//!
//! An embedded, append-only, dependency-light columnar store for the
//! ALBADross pipeline. Production HPC monitoring generates telemetry far
//! faster than anyone re-derives it; this crate makes the expensive
//! stages of the reproduction — campaign generation and TSFRESH-style
//! feature extraction — *write-once, read-many*:
//!
//! * [`segment`] — the raw-telemetry file format: per-metric column
//!   chunks with explicit gap encoding, delta/XOR varint compression and
//!   CRC-checked framing ([`SegmentWriter`] / [`SegmentReader`]),
//! * [`store`] — the content-addressed directory layout and campaign
//!   memoisation ([`TelemetryStore`]),
//! * [`features`] — the feature-matrix table memoising extraction to
//!   disk ([`FeatureCache`], keyed by [`FeatureKey`]),
//! * [`window`] — zero-copy sliding-window readers over decoded columns
//!   ([`windows`], [`WindowSpec`], [`WindowView`]),
//! * [`journal`] — the write-ahead label journal behind deterministic
//!   warm restart of the online service ([`LabelJournal`]),
//! * [`cells`] — memoised experiment-grid cells: one CRC-checked JSON
//!   blob per content-addressed cell, behind resumable sweeps,
//! * [`codec`] / [`crc`] / [`keys`] — the building blocks: bit-exact
//!   column codecs, CRC-32 and FNV-1a content keys.
//!
//! Every read validates checksums; every failure is a typed
//! [`StoreError`], never a panic — a half-written cache entry degrades
//! to a cache miss (the store self-heals by regenerating), and a torn
//! journal tail is truncated back to the last intact record.

#![warn(missing_docs)]

pub mod cells;
pub mod codec;
pub mod crc;
pub mod error;
pub mod fault;
pub mod features;
pub mod journal;
pub mod keys;
pub mod segment;
pub mod store;
#[cfg(test)]
pub(crate) mod testutil;
pub mod window;

pub use codec::{decode_column, put_column};
pub use crc::{crc32, Crc32};
pub use error::{Result, StoreError};
pub use fault::FaultHook;
pub use features::{FeatureCache, FeatureKey};
pub use journal::{JournalRecord, LabelJournal, KIND_LABEL, KIND_RETRAIN};
pub use keys::{fnv1a64, key_of};
pub use segment::{SegmentReader, SegmentWriter};
pub use store::TelemetryStore;
pub use window::{windows, WindowIter, WindowSpec, WindowView};
