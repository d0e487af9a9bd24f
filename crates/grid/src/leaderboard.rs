//! Pipeline leaderboard: paired statistical comparison across seeds.
//!
//! Cells are grouped by pipeline label; within a pipeline, cells sharing
//! a `pair_id` (= one split/seed replicate) are averaged into one pair
//! mean. Pipelines are then ranked by mean final F1, and every pipeline
//! is compared against the leader with a paired t-test and a Wilcoxon
//! signed-rank test over the pair means of the `pair_id`s both share —
//! paired, because replicates share splits, which removes the dominant
//! split-to-split variance component from the comparison.

use crate::cell::CellResult;
use crate::spec::GridCell;
use crate::stats::{mean, paired_t_test, sample_std, wilcoxon_signed_rank};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One ranked pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeaderboardEntry {
    /// Pipeline label (grouping key).
    pub pipeline: String,
    /// Cells merged into this entry.
    pub cells: usize,
    /// Distinct paired replicates.
    pub pairs: usize,
    /// Mean final F1 over pair means (the ranking key).
    pub mean_final_f1: f64,
    /// Sample std-dev of the pair means (0 when `pairs < 2`).
    pub std_final_f1: f64,
    /// Mean seed-model F1 (before any queries).
    pub mean_initial_f1: f64,
    /// Mean final false-alarm rate.
    pub mean_false_alarm: f64,
    /// Mean final anomaly-miss rate.
    pub mean_miss_rate: f64,
    /// Paired-t statistic vs the leader (`None` for the leader itself or
    /// when the test degenerates).
    pub t_stat: Option<f64>,
    /// Paired-t two-sided p-value vs the leader.
    pub t_p: Option<f64>,
    /// Wilcoxon signed-rank W+ statistic vs the leader.
    pub wilcoxon_w: Option<f64>,
    /// Wilcoxon two-sided p-value vs the leader.
    pub wilcoxon_p: Option<f64>,
}

/// Accumulated per-pipeline evidence before ranking.
struct Group {
    pipeline: String,
    cells: usize,
    /// pair_id → final-F1 observations (repeats of one replicate).
    pairs: BTreeMap<u64, Vec<f64>>,
    initial_f1: Vec<f64>,
    false_alarm: Vec<f64>,
    miss_rate: Vec<f64>,
}

impl Group {
    /// Per-replicate means, keyed by pair id (sorted by construction).
    fn pair_means(&self) -> BTreeMap<u64, f64> {
        self.pairs.iter().map(|(&id, obs)| (id, mean(obs))).collect()
    }
}

/// Builds the ranked leaderboard from merged cells. `cells` and
/// `results` are parallel slices in expansion order; ordering is fully
/// deterministic (ties broken by pipeline name).
pub fn build_leaderboard(cells: &[GridCell], results: &[CellResult]) -> Vec<LeaderboardEntry> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for (cell, result) in cells.iter().zip(results) {
        let group = groups.entry(cell.pipeline.clone()).or_insert_with(|| {
            order.push(cell.pipeline.clone());
            Group {
                pipeline: cell.pipeline.clone(),
                cells: 0,
                pairs: BTreeMap::new(),
                initial_f1: Vec::new(),
                false_alarm: Vec::new(),
                miss_rate: Vec::new(),
            }
        });
        group.cells += 1;
        group.pairs.entry(cell.pair_id).or_default().push(result.final_f1());
        group.initial_f1.push(result.session.initial_scores.f1);
        group.false_alarm.push(result.final_false_alarm());
        group.miss_rate.push(result.final_miss_rate());
    }

    // Rank by mean final F1 (desc), pipeline name breaking ties.
    let mut ranked: Vec<(&Group, BTreeMap<u64, f64>)> = order
        .iter()
        .filter_map(|name| groups.get(name))
        .map(|g| {
            let means = g.pair_means();
            (g, means)
        })
        .collect();
    ranked.sort_by(|(ga, ma), (gb, mb)| {
        let fa = mean(&ma.values().copied().collect::<Vec<f64>>());
        let fb = mean(&mb.values().copied().collect::<Vec<f64>>());
        fb.total_cmp(&fa).then_with(|| ga.pipeline.cmp(&gb.pipeline))
    });

    let top_means: Option<BTreeMap<u64, f64>> = ranked.first().map(|(_, m)| m.clone());
    ranked
        .iter()
        .enumerate()
        .map(|(rank, (g, means))| {
            let pair_means: Vec<f64> = means.values().copied().collect();
            let (mut t_stat, mut t_p, mut w_stat, mut w_p) = (None, None, None, None);
            if rank > 0 {
                if let Some(top) = &top_means {
                    // Shared replicates only, in sorted pair-id order.
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    for (id, m) in means {
                        if let Some(t) = top.get(id) {
                            a.push(*t);
                            b.push(*m);
                        }
                    }
                    if let Some(t) = paired_t_test(&a, &b) {
                        t_stat = Some(t.statistic);
                        t_p = Some(t.p_value);
                    }
                    if let Some(w) = wilcoxon_signed_rank(&a, &b) {
                        w_stat = Some(w.statistic);
                        w_p = Some(w.p_value);
                    }
                }
            }
            LeaderboardEntry {
                pipeline: g.pipeline.clone(),
                cells: g.cells,
                pairs: means.len(),
                mean_final_f1: mean(&pair_means),
                std_final_f1: if pair_means.len() < 2 { 0.0 } else { sample_std(&pair_means) },
                mean_initial_f1: mean(&g.initial_f1),
                mean_false_alarm: mean(&g.false_alarm),
                mean_miss_rate: mean(&g.miss_rate),
                t_stat,
                t_p,
                wilcoxon_w: w_stat,
                wilcoxon_p: w_p,
            }
        })
        .collect()
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "—".to_string(),
    }
}

/// Renders the leaderboard as a GitHub-flavoured markdown table.
pub fn render_markdown(entries: &[LeaderboardEntry]) -> String {
    let mut out = String::from(
        "| # | pipeline | pairs | final F1 | ±σ | initial F1 | FAR | miss | t vs top | p (t) | p (Wilcoxon) |\n\
         |---|----------|-------|----------|----|------------|-----|------|----------|-------|--------------|\n",
    );
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} | {} | {} |\n",
            i + 1,
            e.pipeline,
            e.pairs,
            e.mean_final_f1,
            e.std_final_f1,
            e.mean_initial_f1,
            e.mean_false_alarm,
            e.mean_miss_rate,
            fmt_opt(e.t_stat),
            fmt_opt(e.t_p),
            fmt_opt(e.wilcoxon_p),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellSpec, CellTask, Holdout, CELL_REV};
    use alba_active::{QueryRecord, SessionResult, Strategy};
    use alba_ml::{ModelFamily, ModelSpec, Scores};
    use alba_telemetry::Scale;
    use albadross::{FeatureMethod, SplitConfig, System};

    fn scores(f1: f64) -> Scores {
        Scores { f1, false_alarm_rate: 0.1, anomaly_miss_rate: 0.2 }
    }

    fn fake(pipeline: &str, pair_id: u64, idx: usize, final_f1: f64) -> (GridCell, CellResult) {
        let spec = CellSpec {
            rev: CELL_REV,
            system: System::Volta,
            method: FeatureMethod::Mvts,
            campaign: Scale::Smoke,
            data_seed: pair_id,
            split: SplitConfig { train_fraction: 0.5, top_k_features: 10 },
            split_seed: pair_id,
            pool_seed: pair_id,
            holdout: Holdout::Stratified,
            session_seed: idx as u64,
            contamination_pct: 0.0,
            noise_seed: 0,
            task: CellTask::Al {
                strategy: Strategy::Uncertainty,
                model: ModelSpec::tuned(ModelFamily::Rf, true),
                budget: 1,
                batch: 1,
            },
        };
        let session = SessionResult {
            strategy: Strategy::Uncertainty,
            initial_scores: scores(0.5),
            records: vec![QueryRecord {
                pool_index: 0,
                true_label: 0,
                app: "lammps".into(),
                scores: scores(final_f1),
            }],
        };
        let result = CellResult {
            key: spec.key(),
            spec: spec.clone(),
            seed_count: 10,
            pool_len: 100,
            labels_flipped: 0,
            class_names: vec!["healthy".into()],
            session,
        };
        (GridCell { idx, pipeline: pipeline.to_string(), panel: 0, pair_id, spec }, result)
    }

    fn board(rows: &[(&str, u64, f64)]) -> Vec<LeaderboardEntry> {
        let both: Vec<(GridCell, CellResult)> =
            rows.iter().enumerate().map(|(i, &(p, id, f1))| fake(p, id, i, f1)).collect();
        let cells: Vec<GridCell> = both.iter().map(|(c, _)| c.clone()).collect();
        let results: Vec<CellResult> = both.iter().map(|(_, r)| r.clone()).collect();
        build_leaderboard(&cells, &results)
    }

    #[test]
    fn ranks_by_mean_final_f1_with_paired_tests_vs_top() {
        let entries = board(&[
            ("a", 1, 0.9),
            ("a", 2, 0.8),
            ("a", 3, 0.85),
            ("b", 1, 0.6),
            ("b", 2, 0.5),
            ("b", 3, 0.55),
        ]);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].pipeline, "a");
        assert!(entries[0].t_stat.is_none(), "leader is its own reference");
        assert_eq!(entries[1].pairs, 3);
        let t = entries[1].t_stat.expect("paired t runs on 3 shared pairs");
        assert!(t > 0.0, "top beats b on every pair → positive t, got {t}");
        assert!(entries[1].t_p.unwrap() < 0.05, "consistent 0.3 gap is significant");
    }

    #[test]
    fn repeats_collapse_to_pair_means_before_testing() {
        let entries = board(&[
            ("a", 1, 0.9),
            ("a", 1, 0.7), // same pair: averaged to 0.8, not two samples
            ("b", 1, 0.6),
        ]);
        let a = entries.iter().find(|e| e.pipeline == "a").unwrap();
        assert_eq!(a.cells, 2);
        assert_eq!(a.pairs, 1);
        assert!((a.mean_final_f1 - 0.8).abs() < 1e-12);
        // One shared pair → tests degenerate to None, not a panic.
        let b = entries.iter().find(|e| e.pipeline == "b").unwrap();
        assert!(b.t_stat.is_none() && b.wilcoxon_p.is_none());
    }

    #[test]
    fn markdown_renders_every_pipeline_and_dashes_for_none() {
        let entries = board(&[("a", 1, 0.9), ("b", 1, 0.6)]);
        let md = render_markdown(&entries);
        assert!(md.contains("| a |") && md.contains("| b |"));
        assert!(md.contains("—"), "degenerate tests render as dashes:\n{md}");
        assert_eq!(md.lines().count(), 2 + entries.len());
    }

    #[test]
    fn deterministic_tie_break_is_by_name() {
        let entries = board(&[("zeta", 1, 0.7), ("alpha", 1, 0.7)]);
        assert_eq!(entries[0].pipeline, "alpha");
        assert_eq!(entries[1].pipeline, "zeta");
    }
}
