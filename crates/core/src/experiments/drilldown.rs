//! Query drill-down (paper Fig. 4): which labels and applications the best
//! query strategy asks about during its first 50 queries on Volta.
//!
//! The paper finds that the uncertainty strategy initially hunts for
//! *healthy* labels (~30 of the first 50; the seed set contains none),
//! that `dial` is the most-queried anomaly (it is the hardest to
//! diagnose), and that Kripke is the most-queried application.

use crate::experiments::curves::CurvesResult;
use crate::report::render_table;
use alba_active::QueryDrilldown;
use serde::{Deserialize, Serialize};

/// Result of the drill-down experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrilldownResult {
    /// Strategy analysed.
    pub strategy: String,
    /// The per-label / per-application counts.
    pub drilldown: QueryDrilldown,
}

impl DrilldownResult {
    /// Computes the drill-down from a finished curves run.
    ///
    /// `first_n` is 50 in the paper.
    pub fn from_curves(curves: &CurvesResult, strategy: &str, first_n: usize) -> Self {
        let sessions = curves
            .sessions
            .get(strategy)
            .unwrap_or_else(|| panic!("no sessions for strategy {strategy:?}"));
        let drilldown = QueryDrilldown::compute(sessions, first_n, &curves.class_names);
        Self { strategy: strategy.to_string(), drilldown }
    }

    /// Text rendering: two ranked tables.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Fig.4-style drill-down: first {} queries of {} ==\n",
            self.drilldown.first_n, self.strategy
        );
        let mut labels: Vec<(&String, &f64)> = self.drilldown.label_counts.iter().collect();
        labels.sort_by(|a, b| b.1.total_cmp(a.1));
        out.push_str(&render_table(
            &["label", "mean queried"],
            &labels.iter().map(|(k, v)| vec![(*k).clone(), format!("{v:.1}")]).collect::<Vec<_>>(),
        ));
        let mut apps: Vec<(&String, &f64)> = self.drilldown.app_counts.iter().collect();
        apps.sort_by(|a, b| b.1.total_cmp(a.1));
        out.push_str(&render_table(
            &["application", "mean queried"],
            &apps.iter().map(|(k, v)| vec![(*k).clone(), format!("{v:.1}")]).collect::<Vec<_>>(),
        ));
        out
    }
}
