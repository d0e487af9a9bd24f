//! Science checks of the paper figures, run through the grid's figure
//! mode at smoke scale: the Fig. 3 curves, the Fig. 4 drill-down,
//! Fig. 6 (previously unseen applications) and Fig. 8 (previously
//! unseen input decks).

use alba_grid::{run_grid, GridSpec, RunOptions};
use albadross::experiments::{CurvesResult, DrilldownResult, UnseenAppsResult, UnseenInputsResult};

/// A smoke-scale Volta figure spec; `extra` appends JSON fields.
fn spec(seed: u64, extra: &str) -> GridSpec {
    let src = format!(
        r#"{{"name": "t", "mode": "figure", "system": "volta",
             "scale": "smoke", "seed": {seed}{extra}}}"#
    );
    GridSpec::parse(&src, None).expect("parse")
}

/// Runs a figure spec on one worker and returns its panels.
fn panels(seed: u64, extra: &str) -> Vec<CurvesResult> {
    run_grid(&spec(seed, extra), &RunOptions::default()).expect("grid").panels
}

/// The single panel of a stratified or deck-holdout figure.
fn one_panel(seed: u64, extra: &str) -> CurvesResult {
    let mut panels = panels(seed, extra);
    assert_eq!(panels.len(), 1, "one panel");
    panels.remove(0)
}

const MVTS_NO_PROCTOR: &str = r#", "method": "mvts", "include_proctor": false"#;

#[test]
fn smoke_curves_run_end_to_end() {
    let res = one_panel(3, r#", "method": "mvts""#);
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
    let res = one_panel(3, MVTS_NO_PROCTOR);
    let unc = res.method_curves("uncertainty").unwrap();
    assert!(
        unc.f1.last() >= unc.f1.mean[0] - 0.05,
        "uncertainty should not collapse: {:?}",
        unc.f1.mean
    );
}

#[test]
fn drilldown_from_smoke_curves() {
    let curves = one_panel(5, MVTS_NO_PROCTOR);
    let d = DrilldownResult::from_curves(&curves, "uncertainty", 10);
    let total: f64 = d.drilldown.label_counts.values().sum();
    assert!((total - 10.0).abs() < 1e-9, "mean counts must sum to first_n, got {total}");
    let text = d.render();
    assert!(text.contains("label"));
    assert!(text.contains("application"));
}

#[test]
#[should_panic(expected = "no sessions")]
fn unknown_strategy_panics() {
    let curves = one_panel(6, MVTS_NO_PROCTOR);
    let _ = DrilldownResult::from_curves(&curves, "nonexistent", 10);
}

const UNSEEN_APPS: &str = r#", "include_proctor": false,
    "strategies": ["uncertainty", "random"], "holdout": {"apps": [2, 4], "combos": 2}"#;

#[test]
fn smoke_unseen_apps_runs() {
    let res = UnseenAppsResult::from_panels(&[2, 4], panels(9, UNSEEN_APPS));
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
    let extra = r#", "include_proctor": false, "strategies": ["uncertainty"],
        "holdout": {"apps": [2, 8], "combos": 3}"#;
    let res = UnseenAppsResult::from_panels(&[2, 8], panels(13, extra));
    let start_2 = res.scenarios[0].curves[0].f1.mean[0];
    let start_8 = res.scenarios[1].curves[0].f1.mean[0];
    assert!(
        start_8 + 0.1 >= start_2,
        "8-app start {start_8} should not be far below 2-app start {start_2}"
    );
}

#[test]
fn smoke_unseen_inputs_runs() {
    let extra = r#", "include_proctor": false, "strategies": ["uncertainty", "random"],
        "holdout": {"decks": [0, 1]}"#;
    let res = UnseenInputsResult::from_curves(one_panel(31, extra));
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
    let extra = r#", "include_proctor": false, "strategies": ["uncertainty"],
        "holdout": {"decks": [0, 1, 2]}"#;
    let res = UnseenInputsResult::from_curves(one_panel(33, extra));
    let start = res.curves[0].f1.mean[0];
    assert!(start < 0.9, "unseen-deck start F1 {start} should be degraded");
}

/// A holdout figure at 1, 2 and 4 workers: byte-identical reports,
/// leaderboards and panels.
#[test]
fn holdout_figure_is_worker_invariant() {
    let spec = spec(9, UNSEEN_APPS);
    let base = run_grid(&spec, &RunOptions::default()).expect("1 worker");
    let base_panels = serde_json::to_string(&base.panels).expect("ser");
    for workers in [2, 4] {
        let out = run_grid(&spec, &RunOptions { workers, ..RunOptions::default() }).expect("grid");
        assert_eq!(out.json, base.json, "{workers}-worker report diverged");
        assert_eq!(out.leaderboard_md, base.leaderboard_md);
        assert_eq!(serde_json::to_string(&out.panels).expect("ser"), base_panels);
    }
}
