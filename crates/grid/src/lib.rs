//! # alba-grid
//!
//! Deterministic, resumable active-learning experiment grid for the
//! ALBADross reproduction.
//!
//! A declarative JSON [`GridSpec`] (figure replay or pipeline sweep)
//! expands into content-addressed [`CellSpec`]s; [`run_grid`] fans them
//! over a fixed worker pool with deterministic assignment and ordered
//! merging, memoises completed cells in `alba-store` (so a killed sweep
//! resumes without recomputation), and ranks pipelines with paired
//! statistics ([`stats`]) into a leaderboard. Equal specs produce
//! byte-identical reports at any worker count, cold or warm store.

#![warn(missing_docs)]

pub mod cell;
pub mod error;
pub mod leaderboard;
pub mod runner;
pub mod spec;
pub mod stats;

pub use cell::{run_cell, CellResult, CellSpec, CellTask, Holdout, CELL_REV};
pub use error::GridError;
pub use leaderboard::{build_leaderboard, render_markdown, LeaderboardEntry};
pub use runner::{run_grid, GridOutcome, GridReport, GridStats, RunOptions};
pub use spec::{FigureHoldout, FigureSpec, GridCell, GridMode, GridSpec, SweepSpec};
