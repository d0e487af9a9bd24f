//! # albadross
//!
//! A from-scratch Rust reproduction of *"ALBADross: Active Learning Based
//! Anomaly Diagnosis for Production HPC Systems"* (Aksar et al., IEEE
//! CLUSTER 2022).
//!
//! The crate ties the workspace together into the paper's pipeline
//! (Fig. 1): telemetry campaigns ([`alba_telemetry`]) → statistical feature
//! extraction and chi-square selection ([`alba_features`]) → supervised
//! models ([`alba_ml`]) → pool-based active learning ([`alba_active`]) —
//! plus the Proctor semi-supervised baseline, the result types of every
//! table and figure of the evaluation, and drivers for the ones that are
//! not AL-session grids. Figs. 3, 5, 6 and 8 run as `alba-grid` figure
//! specs (`repro --exp fig3`).
//!
//! ```no_run
//! use albadross::prelude::*;
//!
//! // One Fig. 3-style session (Volta, uncertainty sampling) at reduced scale:
//! let scale = RunScale::default_scale(42);
//! let data = SystemData::generate_best(System::Volta, scale.campaign, scale.seed);
//! let split = prepare_split(&data.dataset, &scale.split, scale.seed);
//! let sp = seed_and_pool(&split.train, None, scale.seed);
//! let cfg = SessionConfig {
//!     strategy: Strategy::Uncertainty,
//!     budget: scale.budget,
//!     target_f1: None,
//!     seed: scale.seed,
//! };
//! let session = run_session(&scale.model(true), &sp.seed_set, &sp.pool, &split.test, &cfg);
//! let last = session.records.last().map_or(session.initial_scores.f1, |r| r.scores.f1);
//! println!("F1 {:.3} -> {last:.3}", session.initial_scores.f1);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod experiments;
pub mod monitor;
pub mod plot;
pub mod proctor;
pub mod report;
pub mod scale;
pub mod split;

pub use data::{FeatureMethod, System, SystemData, STORE_DIR_ENV};
pub use monitor::{Alarm, MonitorConfig, NodeMonitor, WindowVerdict};
pub use plot::{figure_panels, render_curves_svg};
pub use proctor::{run_proctor_session, Proctor, ProctorConfig};
pub use scale::RunScale;
pub use split::{
    prepare_split, prepare_split_rows, seed_and_pool, seed_and_pool_filtered, PreparedSplit,
    SeedPool, SplitConfig,
};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::data::{FeatureMethod, System, SystemData};
    pub use crate::experiments::{
        run_robustness, run_table4, DrilldownResult, RobustnessConfig, Table4Config,
    };
    pub use crate::proctor::{run_proctor_session, ProctorConfig};
    pub use crate::scale::RunScale;
    pub use crate::split::{prepare_split, seed_and_pool, SplitConfig};
    pub use alba_active::{run_session, SessionConfig, Strategy};
    pub use alba_ml::{Classifier, ModelFamily, ModelSpec, Scores};
    pub use alba_telemetry::Scale;
}
