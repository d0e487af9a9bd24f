//! The anomaly-diagnosis-with-active-learning experiment (paper Sec. V-A):
//! Figs. 3 (Volta) and 5 (Eclipse).
//!
//! For each of the repeated stratified train/test splits, every query
//! strategy (uncertainty, margin, entropy) runs one session, the stochastic
//! baselines (Random, Equal App) run several, and Proctor runs once. All
//! methods are tested against the same per-split test dataset after every
//! query; curves aggregate across splits into mean ± 95 % CI bands.

use crate::data::{FeatureMethod, System, SystemData};
use crate::proctor::run_proctor_session;
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use crate::scale::RunScale;
use crate::split::{prepare_split, seed_and_pool, PreparedSplit, SeedPool};
use alba_active::{run_session, MethodCurves, SessionConfig, SessionResult, Strategy};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of one curves run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CurvesConfig {
    /// System to evaluate.
    pub system: System,
    /// Feature method (`None` = the system's Table V best).
    pub method: Option<FeatureMethod>,
    /// Sizing.
    pub scale: RunScale,
    /// Whether to run the (expensive) Proctor baseline.
    pub include_proctor: bool,
}

/// Result of a curves run.
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

/// One prepared split with its seed/pool decomposition.
pub(crate) struct SplitInstance {
    pub split: PreparedSplit,
    pub seed_pool: SeedPool,
}

/// Prepares `n_splits` stratified splits of a system dataset.
pub(crate) fn prepare_splits(data: &SystemData, scale: &RunScale) -> Vec<SplitInstance> {
    alba_par::map(alba_par::available_cores(), 0..scale.n_splits, |rep| {
        let split = prepare_split(
            &data.dataset,
            &scale.split,
            scale.seed ^ ((rep as u64 + 1) * 0x9E37_79B9),
        );
        let seed_pool = seed_and_pool(&split.train, None, scale.seed ^ (rep as u64 + 101));
        SplitInstance { split, seed_pool }
    })
}

/// Runs the full curves experiment.
pub fn run_curves(cfg: &CurvesConfig) -> CurvesResult {
    let obs = alba_obs::global();
    let method = cfg.method.unwrap_or_else(|| cfg.system.best_feature_method());
    let data = SystemData::generate(cfg.system, method, cfg.scale.campaign, cfg.scale.seed);
    let splits = {
        let _span = obs.span("exp_stage_ns", &[("stage", "prepare_splits")]);
        prepare_splits(&data, &cfg.scale)
    };
    let spec = cfg.scale.model(cfg.system == System::Volta);

    // Job list: (method name, split index, repeat index).
    #[derive(Clone, Copy)]
    enum Job {
        Al(Strategy),
        Proctor,
    }
    let mut jobs: Vec<(Job, usize, usize)> = Vec::new();
    for rep in 0..splits.len() {
        for s in Strategy::ALL {
            let repeats = if s.is_informative() { 1 } else { cfg.scale.baseline_repeats };
            for r in 0..repeats {
                jobs.push((Job::Al(s), rep, r));
            }
        }
        if cfg.include_proctor {
            jobs.push((Job::Proctor, rep, 0));
        }
    }

    let sessions_span = obs.span("exp_stage_ns", &[("stage", "al_sessions")]);
    let results: Vec<(String, SessionResult)> =
        alba_par::map(alba_par::available_cores(), &jobs, |&(job, rep, r)| {
            let inst = &splits[rep];
            let seed = cfg.scale.seed ^ ((rep as u64) << 16) ^ ((r as u64) << 32) ^ 0xF00D;
            match job {
                Job::Al(strategy) => {
                    let session = run_session(
                        &spec,
                        &inst.seed_pool.seed_set,
                        &inst.seed_pool.pool,
                        &inst.split.test,
                        &SessionConfig {
                            strategy,
                            budget: cfg.scale.budget,
                            target_f1: None,
                            seed,
                        },
                    );
                    (strategy.name().to_string(), session)
                }
                Job::Proctor => {
                    let session = run_proctor_session(
                        &inst.seed_pool.seed_set,
                        &inst.seed_pool.pool,
                        &inst.split.test,
                        &cfg.scale.proctor(seed),
                    );
                    ("proctor".to_string(), session)
                }
            }
        });
    sessions_span.finish();

    let mut sessions: BTreeMap<String, Vec<SessionResult>> = BTreeMap::new();
    for (name, session) in results {
        sessions.entry(name).or_default().push(session);
    }
    let mut order: Vec<String> = Strategy::ALL.iter().map(|s| s.name().to_string()).collect();
    if cfg.include_proctor {
        order.push("proctor".to_string());
    }
    let curves: Vec<MethodCurves> =
        order.iter().map(|name| MethodCurves::from_sessions(name, &sessions[name])).collect();
    let mean_seed_count =
        splits.iter().map(|s| s.seed_pool.seed_set.len() as f64).sum::<f64>() / splits.len() as f64;

    CurvesResult {
        system: cfg.system,
        method,
        curves,
        sessions,
        mean_seed_count,
        class_names: data.dataset.encoder.names().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(system: System) -> CurvesConfig {
        CurvesConfig {
            system,
            method: Some(FeatureMethod::Mvts),
            scale: RunScale::smoke(3),
            include_proctor: true,
        }
    }

    #[test]
    fn smoke_curves_run_end_to_end() {
        let res = run_curves(&smoke_cfg(System::Volta));
        // 5 strategies + proctor.
        assert_eq!(res.curves.len(), 6);
        for c in &res.curves {
            assert_eq!(c.f1.mean.len(), 13, "budget 12 + initial point");
            assert!(c.f1.mean.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        assert!(res.mean_seed_count > 20.0, "seed {}", res.mean_seed_count);
        assert_eq!(res.class_names.len(), 6);
        // Rendering works and mentions every method.
        let text = res.render();
        for c in &res.curves {
            assert!(text.contains(&c.name), "{text}");
        }
        // queries_to_target returns one entry per method.
        assert_eq!(res.queries_to_target(0.95).len(), 6);
        let _ = res.best_strategy();
    }

    #[test]
    fn informative_strategies_outperform_random_on_smoke_volta() {
        // Even the tiny smoke configuration should show active learning
        // improving F1 relative to the starting point.
        let res = run_curves(&CurvesConfig { include_proctor: false, ..smoke_cfg(System::Volta) });
        let unc = res.method_curves("uncertainty").unwrap();
        assert!(
            unc.f1.last() >= unc.f1.mean[0] - 0.05,
            "uncertainty should not collapse: {:?}",
            unc.f1.mean
        );
    }
}
