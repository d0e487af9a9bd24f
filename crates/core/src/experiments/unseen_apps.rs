//! Previously unseen applications (paper Sec. V-B.1, Fig. 6).
//!
//! The initial labeled dataset covers only 2 / 4 / 6 of Volta's 11
//! applications (all anomalies included); the test dataset contains only
//! the *remaining* applications; the unlabeled pool is the full production
//! pool. The uncertainty strategy recovers a 0.95 F1 with a few dozen
//! queries (50 / 35 / 30 in the paper) because it queries exactly the
//! unseen-application samples the model is confused about, while Random
//! needs hundreds.

use crate::data::{System, SystemData};
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use crate::scale::RunScale;
use crate::split::{prepare_split, seed_and_pool};
use alba_active::{run_session, MethodCurves, SessionConfig, SessionResult, Strategy};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the unseen-applications experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenAppsConfig {
    /// Numbers of applications present in the initial labeled set.
    pub training_app_counts: Vec<usize>,
    /// Random application combinations evaluated per count.
    pub n_combos: usize,
    /// Strategies compared (the paper shows uncertainty vs Random).
    pub strategies: Vec<Strategy>,
    /// Sizing.
    pub scale: RunScale,
}

impl UnseenAppsConfig {
    /// Paper-style defaults at the given scale.
    pub fn paper(scale: RunScale) -> Self {
        Self {
            training_app_counts: vec![2, 4, 6],
            n_combos: 5,
            strategies: vec![Strategy::Uncertainty, Strategy::Random],
            scale,
        }
    }
}

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

/// Runs the experiment on Volta (the paper's setting).
pub fn run_unseen_apps(cfg: &UnseenAppsConfig) -> UnseenAppsResult {
    let data = SystemData::generate_best(System::Volta, cfg.scale.campaign, cfg.scale.seed);
    let apps = data.dataset.applications();
    let spec = cfg.scale.model(true);

    let scenarios = cfg
        .training_app_counts
        .iter()
        .map(|&k| {
            assert!(k < apps.len(), "need at least one held-out application");
            // The expensive split preparation depends only on the combo, so
            // it is shared by every strategy evaluated on that combo.
            struct ComboInstance {
                seed_pool: crate::split::SeedPool,
                test: alba_data::Dataset,
                seed: u64,
            }
            let combos: Vec<ComboInstance> =
                alba_par::map(alba_par::available_cores(), 0..cfg.n_combos, |combo| {
                    let combo_seed = cfg.scale.seed ^ ((k as u64) << 24) ^ ((combo as u64) << 8);
                    let mut rng = StdRng::seed_from_u64(combo_seed);
                    let mut shuffled = apps.clone();
                    shuffled.shuffle(&mut rng);
                    let training_apps: Vec<String> = shuffled[..k].to_vec();

                    let split = prepare_split(&data.dataset, &cfg.scale.split, combo_seed ^ 0x5);
                    let seed_pool =
                        seed_and_pool(&split.train, Some(&training_apps), combo_seed ^ 0x6);
                    // Test: only previously unseen applications.
                    let test_idx = split.test.indices_where(|m, _| !training_apps.contains(&m.app));
                    let test = split.test.select(&test_idx);
                    ComboInstance { seed_pool, test, seed: combo_seed }
                });

            // Jobs: (combo, strategy).
            let jobs: Vec<(usize, Strategy)> = (0..cfg.n_combos)
                .flat_map(|c| cfg.strategies.iter().map(move |&s| (c, s)))
                .collect();
            let sessions: Vec<(String, SessionResult)> =
                alba_par::map(alba_par::available_cores(), &jobs, |&(combo, strategy)| {
                    let inst = &combos[combo];
                    let combo_seed = inst.seed;
                    let sp = &inst.seed_pool;
                    let test = &inst.test;
                    let session = run_session(
                        &spec,
                        &sp.seed_set,
                        &sp.pool,
                        test,
                        &SessionConfig {
                            strategy,
                            budget: cfg.scale.budget,
                            target_f1: None,
                            seed: combo_seed ^ 0x7,
                        },
                    );
                    (strategy.name().to_string(), session)
                });

            let mut by_strategy: BTreeMap<String, Vec<SessionResult>> = BTreeMap::new();
            for (name, s) in sessions {
                by_strategy.entry(name).or_default().push(s);
            }
            let curves: Vec<MethodCurves> = cfg
                .strategies
                .iter()
                .map(|s| MethodCurves::from_sessions(s.name(), &by_strategy[s.name()]))
                .collect();
            let to_095 = cfg
                .strategies
                .iter()
                .map(|s| {
                    (
                        s.name().to_string(),
                        MethodCurves::mean_queries_to_target(&by_strategy[s.name()], 0.95),
                    )
                })
                .collect();
            UnseenAppsScenario { n_training_apps: k, curves, to_095 }
        })
        .collect();

    UnseenAppsResult { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_unseen_apps_runs() {
        let cfg = UnseenAppsConfig {
            training_app_counts: vec![2, 4],
            n_combos: 2,
            strategies: vec![Strategy::Uncertainty, Strategy::Random],
            scale: RunScale::smoke(9),
        };
        let res = run_unseen_apps(&cfg);
        assert_eq!(res.scenarios.len(), 2);
        for s in &res.scenarios {
            assert_eq!(s.curves.len(), 2);
            assert!(s.to_095.contains_key("uncertainty"));
            for c in &s.curves {
                assert!(!c.f1.mean.is_empty());
            }
        }
        let text = res.render();
        assert!(text.contains("2 training applications"));
    }

    #[test]
    fn more_training_apps_start_higher() {
        // With more applications seeded, the initial F1 on unseen apps
        // should (on average) be at least as good — the paper's key trend.
        let cfg = UnseenAppsConfig {
            training_app_counts: vec![2, 8],
            n_combos: 3,
            strategies: vec![Strategy::Uncertainty],
            scale: RunScale::smoke(13),
        };
        let res = run_unseen_apps(&cfg);
        let start_2 = res.scenarios[0].curves[0].f1.mean[0];
        let start_8 = res.scenarios[1].curves[0].f1.mean[0];
        assert!(
            start_8 + 0.1 >= start_2,
            "8-app start {start_8} should not be far below 2-app start {start_2}"
        );
    }
}
