//! Previously unseen application inputs (paper Sec. V-B.2, Fig. 8).
//!
//! For each held-out input deck, the initial labeled set is drawn only
//! from the other decks, while the test dataset contains *only* runs with
//! the held-out deck. The paper observes a catastrophic start (F1 ≈ 0.2,
//! false-alarm rate ≈ 80 %) — worse than unseen applications — and shows
//! the uncertainty strategy reaching 0.95 F1 with ~225 queries, 28x fewer
//! than the samples a fully supervised model needs.
//!
//! `specs/fig8.json` runs it as a one-panel `alba-grid` figure.

use crate::experiments::CurvesResult;
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use alba_active::MethodCurves;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Full result: curves aggregated over held-out-deck scenarios.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenInputsResult {
    /// Aggregated curves per strategy.
    pub curves: Vec<MethodCurves>,
    /// Mean additional samples to 0.95 per strategy.
    pub to_095: BTreeMap<String, Option<f64>>,
}

impl UnseenInputsResult {
    /// The result of the figure's single panel.
    pub fn from_curves(res: CurvesResult) -> Self {
        let to_095 = res.queries_to_target(0.95).into_iter().collect();
        Self { curves: res.curves, to_095 }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig.8-style: previously unseen application inputs ==\n");
        for c in &self.curves {
            out.push_str(&format!("{:<12} F1   {}\n", c.name, render_curve_line(&c.f1.mean, 6)));
            out.push_str(&format!(
                "{:<12} FAR  {}\n",
                "",
                render_curve_line(&c.false_alarm.mean, 6)
            ));
            out.push_str(&format!("{:<12} MISS {}\n", "", render_curve_line(&c.miss_rate.mean, 6)));
        }
        let rows: Vec<Vec<String>> = self
            .curves
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    fmt_score(c.f1.mean[0]),
                    fmt_score(c.false_alarm.mean[0]),
                    fmt_opt(self.to_095[&c.name]),
                    fmt_score(c.f1.last()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["strategy", "start F1", "start FAR", "to 0.95", "final F1"],
            &rows,
        ));
        out
    }
}
