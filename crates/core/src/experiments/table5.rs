//! Table V: the summary of anomaly-diagnosis results.
//!
//! For each dataset the paper reports the best feature-extraction method
//! and query strategy, the initial (seed) sample count, the starting
//! F1-score, the additional labeled samples needed to reach 0.85 / 0.90 /
//! 0.95 F1, the F1 attainable with the *whole* active-learning training
//! dataset, and the maximum 5-fold-CV score on the full dataset.

use crate::data::System;
use crate::data::SystemData;
use crate::experiments::curves::{prepare_splits, run_curves, CurvesConfig, CurvesResult};
use crate::report::{fmt_opt, fmt_score, render_table};
use crate::scale::RunScale;
use alba_active::MethodCurves;
use alba_features::{drop_degenerate_features, select_top_k, MinMaxScaler};
use alba_ml::{cross_val_f1, Scores};
use serde::{Deserialize, Serialize};

/// One Table V row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table5Row {
    /// Dataset name.
    pub dataset: String,
    /// Feature-extraction method used.
    pub feature_method: String,
    /// Best query strategy (highest final mean F1).
    pub query_strategy: String,
    /// Mean initial (seed) labeled-sample count.
    pub initial_sample_count: f64,
    /// Mean starting F1 (seed-only model).
    pub starting_f1: f64,
    /// Mean additional samples to reach 0.85 (None = already passed shows 0).
    pub to_085: Option<f64>,
    /// Mean additional samples to reach 0.90.
    pub to_090: Option<f64>,
    /// Mean additional samples to reach 0.95.
    pub to_095: Option<f64>,
    /// F1 with the full active-learning training dataset.
    pub pool_f1: f64,
    /// Size of the active-learning training dataset.
    pub pool_size: usize,
    /// Max 5-fold CV F1 on the full dataset.
    pub cv_f1: f64,
    /// Full dataset size.
    pub full_size: usize,
}

/// The full Table V.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table5 {
    /// One row per dataset.
    pub rows: Vec<Table5Row>,
}

impl Table5 {
    /// Text rendering in the paper's column order.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.feature_method.clone(),
                    r.query_strategy.clone(),
                    format!("{:.0}", r.initial_sample_count),
                    fmt_score(r.starting_f1),
                    match r.to_085 {
                        Some(0.0) => "Already Passed".into(),
                        v => fmt_opt(v),
                    },
                    fmt_opt(r.to_090),
                    fmt_opt(r.to_095),
                    format!("{} ({} samples)", fmt_score(r.pool_f1), r.pool_size),
                    format!("{} ({} samples)", fmt_score(r.cv_f1), r.full_size),
                ]
            })
            .collect();
        render_table(
            &[
                "Dataset",
                "Feature Extraction",
                "Query Strategy",
                "Initial Samples",
                "Starting F1",
                "F1=0.85",
                "F1=0.90",
                "F1=0.95",
                "AL Training Dataset F1",
                "Max Score 5-fold CV",
            ],
            &rows,
        )
    }
}

/// Ceiling 1: mean test-F1 of the tuned model trained on the entire
/// active-learning training dataset, across splits. Returns
/// `(mean_f1, mean_pool_size)`.
pub fn pool_ceiling(data: &SystemData, scale: &RunScale, volta: bool) -> (f64, usize) {
    let splits = prepare_splits(data, scale);
    let spec = scale.model(volta);
    let scores: Vec<(f64, usize)> =
        alba_par::map(alba_par::available_cores(), splits.iter().enumerate(), |(i, inst)| {
            let mut model = spec.with_seed(scale.seed ^ (i as u64 + 77)).build();
            let train = &inst.split.train;
            model.fit(&train.x, &train.y, train.n_classes());
            let pred = model.predict(&inst.split.test.x);
            let s = Scores::compute(&inst.split.test.y, &pred, train.n_classes());
            (s.f1, train.len())
        });
    let mean_f1 = scores.iter().map(|s| s.0).sum::<f64>() / scores.len() as f64;
    let mean_size = scores.iter().map(|s| s.1).sum::<usize>() / scores.len();
    (mean_f1, mean_size)
}

/// Ceiling 2: 5-fold CV F1 of the tuned model on the full dataset
/// (features selected and scaled once on the full dataset — a ceiling
/// measurement, not a deployment protocol).
pub fn cv_ceiling(data: &SystemData, scale: &RunScale, volta: bool) -> (f64, usize) {
    let (clean, _) = drop_degenerate_features(&data.dataset);
    let top = select_top_k(&clean, scale.split.top_k_features);
    let mut selected = clean.select_features(&top);
    let scaler = MinMaxScaler::fit(&selected.x);
    scaler.transform_inplace(&mut selected.x);
    let spec = scale.model(volta);
    let f1 =
        cross_val_f1(&spec, &selected.x, &selected.y, selected.n_classes(), 5, scale.seed ^ 0xCE11);
    (f1, selected.len())
}

/// Builds one Table V row from a finished curves run plus the ceilings.
pub fn table5_row(curves: &CurvesResult, scale: &RunScale) -> Table5Row {
    let volta = curves.system == System::Volta;
    let data = SystemData::generate(curves.system, curves.method, scale.campaign, scale.seed);
    let (pool_f1, pool_size) = pool_ceiling(&data, scale, volta);
    let (cv_f1, full_size) = cv_ceiling(&data, scale, volta);
    let best = curves.best_strategy();
    let sessions = &curves.sessions[&best.name];
    Table5Row {
        dataset: curves.system.name().to_string(),
        feature_method: curves.method.name().to_string(),
        query_strategy: best.name.clone(),
        initial_sample_count: curves.mean_seed_count,
        starting_f1: best.f1.mean[0],
        to_085: MethodCurves::mean_queries_to_target(sessions, 0.85),
        to_090: MethodCurves::mean_queries_to_target(sessions, 0.90),
        to_095: MethodCurves::mean_queries_to_target(sessions, 0.95),
        pool_f1,
        pool_size,
        cv_f1,
        full_size,
    }
}

/// Runs the full Table V (both systems, paper-best feature methods).
pub fn run_table5(scale: &RunScale, include_proctor: bool) -> Table5 {
    let rows = [System::Volta, System::Eclipse]
        .iter()
        .map(|&system| {
            let curves = run_curves(&CurvesConfig {
                system,
                method: None,
                scale: scale.clone(),
                include_proctor,
            });
            table5_row(&curves, scale)
        })
        .collect();
    Table5 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMethod;

    #[test]
    fn ceilings_are_high_on_smoke_volta() {
        let scale = RunScale::smoke(7);
        let data = SystemData::generate(System::Volta, FeatureMethod::Mvts, scale.campaign, 7);
        let (pool_f1, pool_size) = pool_ceiling(&data, &scale, true);
        assert!(pool_f1 > 0.6, "pool ceiling {pool_f1}");
        assert!(pool_size > 50);
        let (cv_f1, full_size) = cv_ceiling(&data, &scale, true);
        assert!(cv_f1 > 0.6, "cv ceiling {cv_f1}");
        assert_eq!(full_size, data.dataset.len());
        // CV uses more data than the pool, so it should not be much worse.
        assert!(cv_f1 > pool_f1 - 0.15);
    }

    #[test]
    fn table5_renders_with_both_ceilings() {
        let row = Table5Row {
            dataset: "Volta".into(),
            feature_method: "TSFRESH".into(),
            query_strategy: "uncertainty".into(),
            initial_sample_count: 55.0,
            starting_f1: 0.86,
            to_085: Some(0.0),
            to_090: Some(10.0),
            to_095: Some(21.0),
            pool_f1: 0.95,
            pool_size: 6329,
            cv_f1: 0.99,
            full_size: 16732,
        };
        let t = Table5 { rows: vec![row] };
        let text = t.render();
        assert!(text.contains("Already Passed"));
        assert!(text.contains("0.95 (6329 samples)"));
        assert!(text.contains("0.99 (16732 samples)"));
    }
}
