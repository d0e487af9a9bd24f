//! The robustness motivation experiment (paper Sec. V-B, Fig. 7).
//!
//! No active learning here: a random forest is trained on *all* samples of
//! `k` applications and evaluated on a constant test set of 3 held-out
//! applications, for k = 2..8. The paper finds a ~30 % F1 drop and a 35x
//! higher false-alarm rate at k = 2 relative to the 5-fold-CV setting where
//! every application appears in training — the motivation for ALBADross's
//! robustness design.

use crate::data::{System, SystemData};
use crate::report::{fmt_score, render_table};
use crate::scale::RunScale;
use crate::split::prepare_split_rows;
use alba_ml::{mean_and_ci95, Scores};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the robustness experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Training-app counts swept (2..=8 in the paper).
    pub training_app_counts: Vec<usize>,
    /// Held-out test applications per combination (3 in the paper).
    pub n_test_apps: usize,
    /// Number of application combinations (11 in the paper).
    pub n_combos: usize,
    /// Sizing.
    pub scale: RunScale,
}

impl RobustnessConfig {
    /// Paper-style defaults.
    pub fn paper(scale: RunScale) -> Self {
        Self { training_app_counts: vec![2, 4, 6, 8], n_test_apps: 3, n_combos: 5, scale }
    }
}

/// Mean ± CI of the three scores at one training-app count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Number of applications in the training set.
    pub n_training_apps: usize,
    /// (mean, 95 % CI half-width) of the macro F1.
    pub f1: (f64, f64),
    /// (mean, CI) of the false-alarm rate.
    pub false_alarm: (f64, f64),
    /// (mean, CI) of the anomaly miss rate.
    pub miss_rate: (f64, f64),
}

/// Full result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessResult {
    /// One point per training-app count.
    pub points: Vec<RobustnessPoint>,
    /// The 5-fold-CV reference (dashed lines in Fig. 7): all applications
    /// in both training and test.
    pub cv_reference: Scores,
}

impl RobustnessResult {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.n_training_apps.to_string(),
                    format!("{:.2} ±{:.2}", p.f1.0, p.f1.1),
                    format!("{:.2} ±{:.2}", p.false_alarm.0, p.false_alarm.1),
                    format!("{:.2} ±{:.2}", p.miss_rate.0, p.miss_rate.1),
                ]
            })
            .collect();
        rows.push(vec![
            "all (5-fold CV)".into(),
            fmt_score(self.cv_reference.f1),
            fmt_score(self.cv_reference.false_alarm_rate),
            fmt_score(self.cv_reference.anomaly_miss_rate),
        ]);
        let mut out = String::from("== Fig.7-style: robustness vs training applications ==\n");
        out.push_str(&render_table(&["training apps", "F1", "false alarm", "miss rate"], &rows));
        out
    }
}

/// Runs the robustness sweep on Volta.
pub fn run_robustness(cfg: &RobustnessConfig) -> RobustnessResult {
    let data = SystemData::generate_best(System::Volta, cfg.scale.campaign, cfg.scale.seed);
    let apps = data.dataset.applications();
    assert!(cfg.n_test_apps < apps.len(), "need at least one training application");
    let spec = cfg.scale.model(true);

    // Combination schedule: shuffle apps per combo; the last n_test_apps
    // are the constant test set, prefixes of the rest are the training set.
    let jobs: Vec<(usize, usize)> = (0..cfg.n_combos)
        .flat_map(|c| cfg.training_app_counts.iter().map(move |&k| (c, k)))
        .collect();

    let measurements: Vec<(usize, Scores)> =
        alba_par::map(alba_par::available_cores(), &jobs, |&(combo, k)| {
            let combo_seed = cfg.scale.seed ^ 0xF17 ^ ((combo as u64) << 10);
            let mut rng = StdRng::seed_from_u64(combo_seed);
            let mut shuffled = apps.clone();
            shuffled.shuffle(&mut rng);
            let (train_apps, test_apps) = shuffled.split_at(shuffled.len() - cfg.n_test_apps);
            let k = k.min(train_apps.len());
            let train_apps = &train_apps[..k];

            let train_idx = data.dataset.indices_where(|m, _| train_apps.contains(&m.app));
            let test_idx = data.dataset.indices_where(|m, _| test_apps.contains(&m.app));
            let prepared =
                prepare_split_rows(&data.dataset, &train_idx, &test_idx, &cfg.scale.split);

            let mut model = spec.with_seed(combo_seed ^ 0x9).build();
            model.fit(&prepared.train.x, &prepared.train.y, prepared.train.n_classes());
            let pred = model.predict(&prepared.test.x);
            (k, Scores::compute(&prepared.test.y, &pred, prepared.train.n_classes()))
        });

    let points = cfg
        .training_app_counts
        .iter()
        .map(|&k| {
            let scores: Vec<&Scores> =
                measurements.iter().filter(|(mk, _)| *mk == k).map(|(_, s)| s).collect();
            let collect = |f: fn(&Scores) -> f64| -> (f64, f64) {
                let vals: Vec<f64> = scores.iter().map(|s| f(s)).collect();
                mean_and_ci95(&vals)
            };
            RobustnessPoint {
                n_training_apps: k,
                f1: collect(|s| s.f1),
                false_alarm: collect(|s| s.false_alarm_rate),
                miss_rate: collect(|s| s.anomaly_miss_rate),
            }
        })
        .collect();

    // Reference: 5-fold CV with all applications present. We reuse the
    // pool-ceiling protocol (stratified split, leak-free preparation) and
    // report mean scores across splits.
    let cv_reference = cv_all_apps_reference(&data, &cfg.scale);

    RobustnessResult { points, cv_reference }
}

/// Mean scores of the tuned model under repeated stratified splits with all
/// applications present (the dashed reference lines of Fig. 7).
pub fn cv_all_apps_reference(data: &SystemData, scale: &RunScale) -> Scores {
    let splits = crate::split::prepare_splits(data, scale);
    let spec = scale.model(true);
    let all: Vec<Scores> =
        alba_par::map(alba_par::available_cores(), splits.iter().enumerate(), |(i, inst)| {
            let train = &inst.train;
            let mut model = spec.with_seed(scale.seed ^ (i as u64 + 31)).build();
            model.fit(&train.x, &train.y, train.n_classes());
            let pred = model.predict(&inst.test.x);
            Scores::compute(&inst.test.y, &pred, train.n_classes())
        });
    let n = all.len() as f64;
    Scores {
        f1: all.iter().map(|s| s.f1).sum::<f64>() / n,
        false_alarm_rate: all.iter().map(|s| s.false_alarm_rate).sum::<f64>() / n,
        anomaly_miss_rate: all.iter().map(|s| s.anomaly_miss_rate).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_robustness_runs() {
        let cfg = RobustnessConfig {
            training_app_counts: vec![2, 6],
            n_test_apps: 3,
            n_combos: 2,
            scale: RunScale::smoke(21),
        };
        let res = run_robustness(&cfg);
        assert_eq!(res.points.len(), 2);
        for p in &res.points {
            assert!((0.0..=1.0).contains(&p.f1.0));
        }
        assert!(res.cv_reference.f1 > 0.5, "cv reference {:?}", res.cv_reference);
        let text = res.render();
        assert!(text.contains("5-fold CV"));
    }

    #[test]
    fn unseen_apps_hurt_relative_to_cv_reference() {
        // The paper's headline: training on few apps and testing on unseen
        // ones is much worse than the all-apps CV setting.
        let cfg = RobustnessConfig {
            training_app_counts: vec![2],
            n_test_apps: 3,
            n_combos: 3,
            scale: RunScale::smoke(22),
        };
        let res = run_robustness(&cfg);
        assert!(
            res.points[0].f1.0 < res.cv_reference.f1,
            "2-app F1 {} must trail CV reference {}",
            res.points[0].f1.0,
            res.cv_reference.f1
        );
    }
}
