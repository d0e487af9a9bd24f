//! Experiment drivers and result types for every table and figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index).
//!
//! The AL-session figures (3, 5, 6 and 8) run as `alba-grid` figure
//! specs (`specs/fig*.json`); this module holds their result types. The
//! other artifacts have drivers here.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`setup_tables`] | Tables I–III (setup) |
//! | [`table4`] | Table IV (hyperparameter search) |
//! | [`table5`] | Table V (summary of diagnosis results), from Figs. 3/5 |
//! | [`curves`] | Figs. 3 and 5 result (F1 / false-alarm / miss vs queries) |
//! | [`drilldown`] | Fig. 4 (queried labels & applications), from Fig. 3 |
//! | [`unseen_apps`] | Fig. 6 result (previously unseen applications) |
//! | [`robustness`] | Fig. 7 (robustness motivation, no AL) |
//! | [`unseen_inputs`] | Fig. 8 result (previously unseen input decks) |
//! | [`ablations`] | extensions beyond the paper (DESIGN.md) |

pub mod ablations;
pub mod curves;
pub mod drilldown;
pub mod robustness;
pub mod setup_tables;
pub mod table4;
pub mod table5;
pub mod unseen_apps;
pub mod unseen_inputs;

pub use ablations::{run_ablations, AblationSuite};
pub use curves::CurvesResult;
pub use drilldown::DrilldownResult;
pub use robustness::{run_robustness, RobustnessConfig, RobustnessResult};
pub use setup_tables::{render_setup_tables, render_table1, render_table2, render_table3};
pub use table4::{run_table4, Table4Config, Table4Result};
pub use table5::{table5_row, Table5, Table5Row};
pub use unseen_apps::UnseenAppsResult;
pub use unseen_inputs::UnseenInputsResult;
