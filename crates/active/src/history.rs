//! Aggregation of repeated active-learning sessions into the curves and
//! summary statistics the paper reports (mean trajectories with 95 %
//! confidence bands, samples-to-target counts, query drill-downs).

use crate::learner::SessionResult;
use alba_ml::mean_and_ci95;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A mean curve with symmetric 95 % CI half-widths, one entry per query
/// (entry 0 is the seed-only model).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CurveBand {
    /// Mean value per query count.
    pub mean: Vec<f64>,
    /// 95 % CI half-width per query count.
    pub ci95: Vec<f64>,
}

impl CurveBand {
    /// Aggregates per-session curves (ragged tails are truncated to the
    /// shortest session so every point averages the same repetitions).
    pub fn from_curves(curves: &[Vec<f64>]) -> Self {
        assert!(!curves.is_empty(), "no curves to aggregate");
        let len = curves.iter().map(Vec::len).min().unwrap_or(0);
        let mut mean = Vec::with_capacity(len);
        let mut ci95 = Vec::with_capacity(len);
        for i in 0..len {
            let vals: Vec<f64> = curves.iter().map(|c| c[i]).collect();
            let (m, ci) = mean_and_ci95(&vals);
            mean.push(m);
            ci95.push(ci);
        }
        Self { mean, ci95 }
    }

    /// First query count at which the mean curve reaches `target`.
    pub fn queries_to_reach(&self, target: f64) -> Option<usize> {
        self.mean.iter().position(|&v| v >= target)
    }

    /// Final mean value.
    pub fn last(&self) -> f64 {
        self.mean.last().copied().unwrap_or(0.0)
    }
}

/// The three aggregated trajectories for one method.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MethodCurves {
    /// Method name (strategy or baseline).
    pub name: String,
    /// Macro-F1 trajectory.
    pub f1: CurveBand,
    /// False-alarm-rate trajectory.
    pub false_alarm: CurveBand,
    /// Anomaly-miss-rate trajectory.
    pub miss_rate: CurveBand,
}

impl MethodCurves {
    /// Aggregates repeated sessions of one method.
    pub fn from_sessions(name: &str, sessions: &[SessionResult]) -> Self {
        let f1: Vec<Vec<f64>> = sessions.iter().map(SessionResult::f1_curve).collect();
        let fa: Vec<Vec<f64>> = sessions.iter().map(SessionResult::false_alarm_curve).collect();
        let miss: Vec<Vec<f64>> = sessions.iter().map(SessionResult::miss_rate_curve).collect();
        Self {
            name: name.to_string(),
            f1: CurveBand::from_curves(&f1),
            false_alarm: CurveBand::from_curves(&fa),
            miss_rate: CurveBand::from_curves(&miss),
        }
    }

    /// Mean queries needed to reach a target F1 across sessions
    /// (`None` when the majority of sessions never reach it).
    pub fn mean_queries_to_target(sessions: &[SessionResult], target: f64) -> Option<f64> {
        let hits: Vec<f64> =
            sessions.iter().filter_map(|s| s.queries_to_reach(target).map(|q| q as f64)).collect();
        if hits.len() * 2 <= sessions.len() {
            return None;
        }
        Some(hits.iter().sum::<f64>() / hits.len() as f64)
    }
}

/// Label/application drill-down of the first `n` queries (paper Fig. 4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryDrilldown {
    /// Queries analysed per session.
    pub first_n: usize,
    /// Mean number of queried samples per class label (name -> count).
    pub label_counts: BTreeMap<String, f64>,
    /// Mean number of queried samples per application (name -> count).
    pub app_counts: BTreeMap<String, f64>,
}

impl QueryDrilldown {
    /// Computes the mean per-label and per-application counts over the
    /// first `n` queries of each session. `label_names` maps class id to
    /// name.
    pub fn compute(sessions: &[SessionResult], n: usize, label_names: &[String]) -> Self {
        assert!(!sessions.is_empty(), "no sessions");
        let mut label_counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut app_counts: BTreeMap<String, f64> = BTreeMap::new();
        for s in sessions {
            for r in s.records.iter().take(n) {
                *label_counts.entry(label_names[r.true_label].clone()).or_default() += 1.0;
                *app_counts.entry(r.app.clone()).or_default() += 1.0;
            }
        }
        let k = sessions.len() as f64;
        label_counts.values_mut().for_each(|v| *v /= k);
        app_counts.values_mut().for_each(|v| *v /= k);
        Self { first_n: n, label_counts, app_counts }
    }

    /// The most-queried label.
    pub fn top_label(&self) -> Option<(&str, f64)> {
        self.label_counts.iter().max_by(|a, b| a.1.total_cmp(b.1)).map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::QueryRecord;
    use crate::strategy::Strategy;
    use alba_ml::Scores;

    fn scores(f1: f64) -> Scores {
        Scores { f1, false_alarm_rate: 1.0 - f1, anomaly_miss_rate: 0.5 * (1.0 - f1) }
    }

    fn session(f1s: &[f64], labels: &[usize], apps: &[&str]) -> SessionResult {
        SessionResult {
            strategy: Strategy::Uncertainty,
            initial_scores: scores(f1s[0]),
            records: f1s[1..]
                .iter()
                .zip(labels)
                .zip(apps)
                .enumerate()
                .map(|(i, ((&f1, &l), &a))| QueryRecord {
                    pool_index: i,
                    true_label: l,
                    app: a.into(),
                    scores: scores(f1),
                })
                .collect(),
        }
    }

    #[test]
    fn curve_band_averages() {
        let band = CurveBand::from_curves(&[vec![0.0, 0.5, 1.0], vec![0.2, 0.7, 0.8]]);
        assert_eq!(band.mean.len(), 3);
        assert!((band.mean[1] - 0.6).abs() < 1e-12);
        assert!(band.ci95[1] > 0.0);
        assert_eq!(band.queries_to_reach(0.9), Some(2));
        assert_eq!(band.queries_to_reach(0.95), None);
    }

    #[test]
    fn ragged_curves_truncate() {
        let band = CurveBand::from_curves(&[vec![0.1, 0.2], vec![0.3, 0.4, 0.5]]);
        assert_eq!(band.mean.len(), 2);
    }

    #[test]
    fn method_curves_aggregate_sessions() {
        let s1 = session(&[0.5, 0.8, 0.95], &[0, 1], &["bt", "cg"]);
        let s2 = session(&[0.6, 0.7, 0.99], &[0, 0], &["bt", "bt"]);
        let mc = MethodCurves::from_sessions("uncertainty", &[s1.clone(), s2.clone()]);
        assert_eq!(mc.name, "uncertainty");
        assert!((mc.f1.mean[0] - 0.55).abs() < 1e-12);
        assert_eq!(MethodCurves::mean_queries_to_target(&[s1, s2], 0.9), Some(2.0));
    }

    #[test]
    fn mean_queries_requires_majority() {
        let hit = session(&[0.5, 0.96], &[0], &["bt"]);
        let miss = session(&[0.5, 0.6], &[0], &["bt"]);
        assert_eq!(
            MethodCurves::mean_queries_to_target(&[hit.clone(), miss.clone(), miss.clone()], 0.95),
            None
        );
        assert!(MethodCurves::mean_queries_to_target(&[hit.clone(), hit, miss], 0.95).is_some());
    }

    #[test]
    fn drilldown_counts_labels_and_apps() {
        let names = vec!["healthy".to_string(), "dial".to_string()];
        let s1 = session(&[0.5, 0.6, 0.7, 0.8], &[0, 0, 1], &["Kripke", "BT", "Kripke"]);
        let s2 = session(&[0.5, 0.6, 0.7, 0.8], &[0, 1, 1], &["Kripke", "Kripke", "CG"]);
        let d = QueryDrilldown::compute(&[s1, s2], 3, &names);
        assert_eq!(d.top_label().unwrap().0, "healthy");
        assert!((d.label_counts["healthy"] - 1.5).abs() < 1e-12);
        assert!((d.app_counts["Kripke"] - 2.0).abs() < 1e-12);
    }
}
