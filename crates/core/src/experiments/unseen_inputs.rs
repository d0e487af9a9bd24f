//! Previously unseen application inputs (paper Sec. V-B.2, Fig. 8).
//!
//! For each held-out input deck, the initial labeled set is drawn only
//! from the other decks, while the test dataset contains *only* runs with
//! the held-out deck. The paper observes a catastrophic start (F1 ≈ 0.2,
//! false-alarm rate ≈ 80 %) — worse than unseen applications — and shows
//! the uncertainty strategy reaching 0.95 F1 with ~225 queries, 28x fewer
//! than the samples a fully supervised model needs.

use crate::data::{System, SystemData};
use crate::report::{fmt_opt, fmt_score, render_curve_line, render_table};
use crate::scale::RunScale;
use crate::split::{prepare_split, seed_and_pool_filtered};
use alba_active::{run_session, MethodCurves, SessionConfig, SessionResult, Strategy};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the unseen-inputs experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenInputsConfig {
    /// Input decks held out (each produces one scenario; aggregated).
    pub held_out_decks: Vec<usize>,
    /// Strategies compared.
    pub strategies: Vec<Strategy>,
    /// Sizing.
    pub scale: RunScale,
}

impl UnseenInputsConfig {
    /// Paper-style defaults: each of the three decks held out in turn.
    pub fn paper(scale: RunScale) -> Self {
        Self {
            held_out_decks: vec![0, 1, 2],
            strategies: vec![Strategy::Uncertainty, Strategy::Random],
            scale,
        }
    }
}

/// Full result: curves aggregated over held-out-deck scenarios.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnseenInputsResult {
    /// Aggregated curves per strategy.
    pub curves: Vec<MethodCurves>,
    /// Mean additional samples to 0.95 per strategy.
    pub to_095: BTreeMap<String, Option<f64>>,
}

impl UnseenInputsResult {
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

/// Runs the experiment on Volta.
pub fn run_unseen_inputs(cfg: &UnseenInputsConfig) -> UnseenInputsResult {
    let data = SystemData::generate_best(System::Volta, cfg.scale.campaign, cfg.scale.seed);
    let spec = cfg.scale.model(true);

    let jobs: Vec<(usize, Strategy)> = cfg
        .held_out_decks
        .iter()
        .flat_map(|&d| cfg.strategies.iter().map(move |&s| (d, s)))
        .collect();

    let sessions: Vec<(String, SessionResult)> =
        alba_par::map(alba_par::available_cores(), &jobs, |&(deck, strategy)| {
            let deck_seed = cfg.scale.seed ^ 0xDEC ^ ((deck as u64) << 12);
            let split = prepare_split(&data.dataset, &cfg.scale.split, deck_seed);
            // Seed labels only from decks other than the held-out one.
            let sp =
                seed_and_pool_filtered(&split.train, |m| m.input_deck != deck, deck_seed ^ 0x2);
            // Test: only the held-out deck.
            let test_idx = split.test.indices_where(|m, _| m.input_deck == deck);
            let test = split.test.select(&test_idx);
            let session = run_session(
                &spec,
                &sp.seed_set,
                &sp.pool,
                &test,
                &SessionConfig {
                    strategy,
                    budget: cfg.scale.budget,
                    target_f1: None,
                    seed: deck_seed ^ 0x3,
                },
            );
            (strategy.name().to_string(), session)
        });

    let mut by_strategy: BTreeMap<String, Vec<SessionResult>> = BTreeMap::new();
    for (name, s) in sessions {
        by_strategy.entry(name).or_default().push(s);
    }
    let curves = cfg
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

    UnseenInputsResult { curves, to_095 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_unseen_inputs_runs() {
        let cfg = UnseenInputsConfig {
            held_out_decks: vec![0, 1],
            strategies: vec![Strategy::Uncertainty, Strategy::Random],
            scale: RunScale::smoke(31),
        };
        let res = run_unseen_inputs(&cfg);
        assert_eq!(res.curves.len(), 2);
        for c in &res.curves {
            assert!(!c.f1.mean.is_empty());
            assert!(c.f1.mean.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        assert!(res.render().contains("unseen application inputs"));
    }

    #[test]
    fn unseen_inputs_start_poorly() {
        // Input decks rescale signatures by up to ±40 %, so a model seeded
        // without the held-out deck must start well below its ceiling.
        let cfg = UnseenInputsConfig {
            held_out_decks: vec![0, 1, 2],
            strategies: vec![Strategy::Uncertainty],
            scale: RunScale::smoke(33),
        };
        let res = run_unseen_inputs(&cfg);
        let start = res.curves[0].f1.mean[0];
        assert!(start < 0.9, "unseen-deck start F1 {start} should be degraded");
    }
}
