//! # alba-bench
//!
//! Benchmarks and reproduction harness for the ALBADross workspace. The
//! crate's substance lives in its binaries and benches:
//!
//! * `repro` — regenerates every table and figure of the paper
//!   (`cargo run --release -p alba-bench --bin repro -- --help`),
//! * `diag` — the simulator-calibration report,
//! * `benches/substrate.rs` — micro-benchmarks of every pipeline stage.

#![warn(missing_docs)]
