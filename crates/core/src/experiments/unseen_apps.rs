//! Previously unseen applications (paper Sec. V-B.1, Fig. 6).
//!
//! The initial labeled dataset covers only 2 / 4 / 6 of Volta's 11
//! applications (all anomalies included); the test dataset contains only
//! the *remaining* applications; the unlabeled pool is the full production
//! pool. The uncertainty strategy recovers a 0.95 F1 with a few dozen
//! queries (50 / 35 / 30 in the paper) because it queries exactly the
//! unseen-application samples the model is confused about, while Random
//! needs hundreds.
//!
//! `specs/fig6.json` runs it as an `alba-grid` figure; each panel's
//! curves become one [`UnseenAppsScenario`].

use crate::experiments::CurvesResult;
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use alba_active::MethodCurves;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Curves for one training-app count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenAppsScenario {
    /// Applications in the initial labeled set.
    pub n_training_apps: usize,
    /// Aggregated curves per strategy.
    pub curves: Vec<MethodCurves>,
    /// Mean additional samples to 0.95 per strategy.
    pub to_095: BTreeMap<String, Option<f64>>,
}

/// Full experiment result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenAppsResult {
    /// One scenario per training-app count.
    pub scenarios: Vec<UnseenAppsScenario>,
}

impl UnseenAppsResult {
    /// One scenario per figure panel; panel `i` seeded from `counts[i]`
    /// applications.
    pub fn from_panels(counts: &[usize], panels: Vec<CurvesResult>) -> Self {
        let scenarios = counts
            .iter()
            .zip(panels)
            .map(|(&n_training_apps, res)| UnseenAppsScenario {
                n_training_apps,
                to_095: res.queries_to_target(0.95).into_iter().collect(),
                curves: res.curves,
            })
            .collect();
        Self { scenarios }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig.6-style: previously unseen applications ==\n");
        for s in &self.scenarios {
            out.push_str(&format!("-- {} training applications --\n", s.n_training_apps));
            for c in &s.curves {
                out.push_str(&format!("{:<12} F1 {}\n", c.name, render_curve_line(&c.f1.mean, 6)));
            }
            let rows: Vec<Vec<String>> = s
                .curves
                .iter()
                .map(|c| {
                    vec![
                        c.name.clone(),
                        fmt_score(c.f1.mean[0]),
                        fmt_opt(s.to_095[&c.name]),
                        fmt_score(c.f1.last()),
                    ]
                })
                .collect();
            out.push_str(&render_table(&["strategy", "start F1", "to 0.95", "final F1"], &rows));
        }
        out
    }
}
