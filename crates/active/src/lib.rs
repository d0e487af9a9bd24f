//! # alba-active
//!
//! Pool-based active learning for the ALBADross reproduction: the query
//! strategies of Sec. III-D (uncertainty, margin, entropy) and the Random /
//! Equal-App baselines of Sec. IV-D, the oracle-in-the-loop session runner
//! of Fig. 1, and aggregation utilities producing the paper's curves and
//! summary statistics.

#![warn(missing_docs)]

pub mod history;
pub mod learner;
pub mod noise;
pub mod strategy;

pub use history::{CurveBand, MethodCurves, QueryDrilldown};
pub use learner::{run_batched_session, run_session, QueryRecord, SessionConfig, SessionResult};
pub use noise::flip_labels;
pub use strategy::{
    entropy_score, margin_score, select, select_batch, uncertainty_score, SelectionContext,
    Strategy,
};
