//! The result of an anomaly-diagnosis-with-active-learning figure (paper
//! Sec. V-A): Figs. 3 (Volta) and 5 (Eclipse), and one panel of Figs. 6
//! and 8.
//!
//! `alba-grid` runs the sessions: for each of the repeated train/test
//! splits, every query strategy (uncertainty, margin, entropy) runs one
//! session, the stochastic baselines (Random, Equal App) run several, and
//! Proctor runs once. All methods are tested against the same per-split
//! test dataset after every query; curves aggregate across splits into
//! mean ± 95 % CI bands.

use crate::data::{FeatureMethod, System};
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use alba_active::{MethodCurves, SessionResult, Strategy};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The curves of one figure (or figure panel).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CurvesResult {
    /// System evaluated.
    pub system: System,
    /// Feature method used.
    pub method: FeatureMethod,
    /// Aggregated trajectories per method, in display order.
    pub curves: Vec<MethodCurves>,
    /// Raw sessions per method (drill-downs, Table V).
    pub sessions: BTreeMap<String, Vec<SessionResult>>,
    /// Mean seed-set size across splits (Table V "Initial Sample Count").
    pub mean_seed_count: f64,
    /// Class names (for drill-downs).
    pub class_names: Vec<String>,
}

impl CurvesResult {
    /// Aggregated curves of one method.
    pub fn method_curves(&self, name: &str) -> Option<&MethodCurves> {
        self.curves.iter().find(|c| c.name == name)
    }

    /// Mean queries to reach `target` F1 per method.
    pub fn queries_to_target(&self, target: f64) -> Vec<(String, Option<f64>)> {
        self.curves
            .iter()
            .map(|c| {
                let sessions = &self.sessions[&c.name];
                (c.name.clone(), MethodCurves::mean_queries_to_target(sessions, target))
            })
            .collect()
    }

    /// The informative strategy with the best final mean F1 (the paper
    /// picks uncertainty on Volta, margin on Eclipse this way).
    pub fn best_strategy(&self) -> &MethodCurves {
        self.curves
            .iter()
            .filter(|c| Strategy::ALL.iter().any(|s| s.is_informative() && s.name() == c.name))
            .max_by(|a, b| a.f1.last().total_cmp(&b.f1.last()))
            .expect("informative strategies present")
    }

    /// Text rendering (figure digest + samples-to-target table).
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} / {}: F1, false-alarm and miss-rate vs queries ==\n",
            self.system.name(),
            self.method.name()
        );
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
                let s = &self.sessions[&c.name];
                vec![
                    c.name.clone(),
                    fmt_score(c.f1.mean[0]),
                    fmt_opt(MethodCurves::mean_queries_to_target(s, 0.80)),
                    fmt_opt(MethodCurves::mean_queries_to_target(s, 0.85)),
                    fmt_opt(MethodCurves::mean_queries_to_target(s, 0.90)),
                    fmt_opt(MethodCurves::mean_queries_to_target(s, 0.95)),
                    fmt_score(c.f1.last()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["method", "start F1", "to 0.80", "to 0.85", "to 0.90", "to 0.95", "final F1"],
            &rows,
        ));
        out
    }
}
