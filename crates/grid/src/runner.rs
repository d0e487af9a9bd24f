//! The grid runner: memo pre-scan, deterministic fan-out, ordered merge.
//!
//! ## Determinism contract
//!
//! The merged output is a pure function of the spec:
//!
//! * cells are assigned to workers by *position in the miss list modulo
//!   worker count* — a fixed function of the expansion, never of timing;
//! * each worker's results carry their expansion index, and the merge
//!   places them by index — arrival order is irrelevant;
//! * every result is normalised through one serialise → parse cycle, so
//!   a memo hit (parsed from the store) and a fresh computation yield
//!   byte-identical JSON.
//!
//! Consequently `run_grid` produces byte-identical reports at 1, 2, or
//! 32 workers, with a cold or warm store — which is what the
//! worker-invariance and kill-and-resume integration tests pin.
//!
//! Lanes run on `alba_par::map`, one item per worker. Fan-outs inside a
//! cell (campaign generation, forest fit, CV) then run inline on that
//! worker, so each cell's cost is its own thread's time.
//!
//! ## Resumability
//!
//! When a store is attached, each completed cell is persisted *before*
//! the merge. A sweep killed mid-flight therefore re-runs only the
//! cells that had not yet been persisted; the pre-scan turns the rest
//! into memo hits. A store write failure aborts the whole run (better a
//! loud crash than a sweep that silently cannot resume).

use crate::cell::{run_cell, CellResult};
use crate::error::GridError;
use crate::leaderboard::{build_leaderboard, render_markdown, LeaderboardEntry};
use crate::spec::{FigureSpec, GridCell, GridMode, GridSpec};
use alba_active::{MethodCurves, SessionResult};
use alba_obs::{Obs, Value};
use alba_store::TelemetryStore;
use alba_trace::{Lane, Tracer};
use albadross::experiments::CurvesResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a grid run executes.
pub struct RunOptions {
    /// Worker threads (clamped to ≥ 1). Any value yields byte-identical
    /// output; more workers only change wall time.
    pub workers: usize,
    /// Memo store; `None` disables memoisation and resume.
    pub store: Option<TelemetryStore>,
    /// Observability registry for counters/spans.
    pub obs: Obs,
    /// Causal tracer; cells hop on `Lane::Shard(worker)`, the merge on
    /// `Lane::Service`.
    pub tracer: Tracer,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { workers: 1, store: None, obs: Obs::disabled(), tracer: Tracer::disabled() }
    }
}

/// Counters of one grid run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GridStats {
    /// Total cells in the expansion.
    pub cells: usize,
    /// Cells served from the memo store.
    pub memo_hits: usize,
    /// Cells computed this run.
    pub computed: usize,
}

/// The machine-readable grid report (`results/grid_<name>.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridReport {
    /// Grid name.
    pub name: String,
    /// `figure` or `sweep`.
    pub mode: String,
    /// Merged cell results in expansion order.
    pub cells: Vec<CellResult>,
    /// Ranked pipelines with paired statistics.
    pub leaderboard: Vec<LeaderboardEntry>,
}

/// Everything a grid run produces.
pub struct GridOutcome {
    /// Grid name.
    pub name: String,
    /// Pretty-printed [`GridReport`] JSON (byte-stable).
    pub json: String,
    /// Markdown rendering of the leaderboard.
    pub leaderboard_md: String,
    /// Run counters.
    pub stats: GridStats,
    /// Figure mode: one `CurvesResult` per panel, in panel order.
    /// Empty for sweeps.
    pub panels: Vec<CurvesResult>,
}

/// Runs a grid to completion. See the module docs for the determinism
/// and resumability contracts.
pub fn run_grid(spec: &GridSpec, opts: &RunOptions) -> Result<GridOutcome, GridError> {
    let cells = spec.expand();
    if cells.is_empty() {
        return Err(GridError::Spec("grid expands to zero cells".to_string()));
    }
    let workers = opts.workers.max(1);
    let obs = &opts.obs;
    let tracer = &opts.tracer;

    // Memo pre-scan, in expansion order. A stored blob that fails to
    // parse (schema drift, truncation past the CRC) is a miss, not an
    // error — the cell is simply recomputed and rewritten.
    let mut merged: Vec<Option<CellResult>> = vec![None; cells.len()];
    let mut memo_hits = 0usize;
    if let Some(store) = &opts.store {
        for cell in &cells {
            let key = cell.spec.key();
            if let Some(bytes) = store.lookup_cell(&key) {
                if let Ok(text) = String::from_utf8(bytes) {
                    if let Ok(result) = serde_json::from_str::<CellResult>(&text) {
                        // alba-lint: allow(reachable-panic) reason="cell.idx was assigned from this grid's expansion"
                        merged[cell.idx] = Some(result);
                        memo_hits += 1;
                        continue;
                    }
                }
                obs.counter("grid_memo_parse_failures_total", &[]).inc();
            }
        }
    }
    obs.counter("grid_memo_hits_total", &[]).add(memo_hits as u64);

    // Deterministic fan-out: the i-th *miss* goes to worker i % workers.
    // alba-lint: allow(reachable-panic) reason="cell.idx was assigned from this grid's expansion"
    let misses: Vec<&GridCell> = cells.iter().filter(|c| merged[c.idx].is_none()).collect();
    obs.counter("grid_memo_misses_total", &[]).add(misses.len() as u64);
    let mut lanes: Vec<Vec<&GridCell>> = vec![Vec::new(); workers];
    for (i, cell) in misses.iter().enumerate() {
        // alba-lint: allow(reachable-panic) reason="i % workers is always in range"
        lanes[i % workers].push(cell);
    }

    let computed = misses.len();
    // One `alba_par::map` item per lane, so lane `w` runs on worker `w`
    // and stops at its first error.
    let store = opts.store.as_ref();
    let outputs = alba_par::map(workers, lanes.iter().enumerate(), |(w, lane)| {
        catch_unwind(AssertUnwindSafe(|| worker_loop(w, lane, store, obs, tracer)))
            .unwrap_or_else(|_| Err(GridError::Worker("worker thread panicked".to_string())))
    });
    for out in outputs {
        for (idx, result) in out? {
            // alba-lint: allow(reachable-panic) reason="idx comes from the expanded cell list"
            merged[idx] = Some(result);
        }
    }
    obs.counter("grid_cells_computed_total", &[]).add(computed as u64);

    let mut results: Vec<CellResult> = Vec::with_capacity(merged.len());
    for (i, slot) in merged.into_iter().enumerate() {
        match slot {
            Some(r) => results.push(r),
            None => return Err(GridError::Worker(format!("cell {i} produced no result"))),
        }
    }
    tracer.hop(
        Lane::Service,
        &tracer.service_ctx(cells.len()),
        "grid_merge",
        &[
            ("grid", Value::Str(spec.name.clone())),
            ("cells", (cells.len() as u64).into()),
            ("memo_hits", (memo_hits as u64).into()),
            ("computed", (computed as u64).into()),
        ],
    );

    let leaderboard = build_leaderboard(&cells, &results);
    let leaderboard_md = render_markdown(&leaderboard);
    let panels = match &spec.mode {
        GridMode::Figure(fig) => reconstruct_panels(fig, &cells, &results),
        GridMode::Sweep(_) => Vec::new(),
    };
    let report = GridReport {
        name: spec.name.clone(),
        mode: spec.mode_name().to_string(),
        cells: results,
        leaderboard,
    };
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| GridError::Worker(format!("report serialisation: {e}")))?;
    Ok(GridOutcome {
        name: spec.name.clone(),
        json,
        leaderboard_md,
        stats: GridStats { cells: cells.len(), memo_hits, computed },
        panels,
    })
}

/// One worker: computes its lane's cells in expansion order, persisting
/// each before reporting it. Results are normalised through one
/// serialise → parse cycle so hits and misses merge identically.
fn worker_loop(
    w: usize,
    lane: &[&GridCell],
    store: Option<&TelemetryStore>,
    obs: &Obs,
    tracer: &Tracer,
) -> Result<Vec<(usize, CellResult)>, GridError> {
    let mut out = Vec::with_capacity(lane.len());
    for cell in lane {
        let key = cell.spec.key();
        tracer.hop(
            Lane::Shard(w as u32),
            &tracer.ctx(w, cell.idx),
            "grid_cell",
            &[
                ("key", Value::Str(key.clone())),
                ("pipeline", Value::Str(cell.pipeline.clone())),
                ("pair", cell.pair_id.into()),
            ],
        );
        let span = obs.span("grid_cell_ns", &[("pipeline", cell.pipeline.as_str())]);
        let result = run_cell(&cell.spec);
        span.finish();
        let json = serde_json::to_string(&result)
            .map_err(|e| GridError::Worker(format!("cell {key} serialisation: {e}")))?;
        if let Some(store) = store {
            store.put_cell(&key, json.as_bytes())?;
        }
        let normalised = serde_json::from_str::<CellResult>(&json)
            .map_err(|e| GridError::Worker(format!("cell {key} round-trip: {e}")))?;
        out.push((cell.idx, normalised));
    }
    Ok(out)
}

/// Rebuilds one `CurvesResult` per figure panel from the cells'
/// display labels alone: sessions group by `pipeline` in expansion
/// order, curves follow each pipeline's first appearance, and each
/// split (`pair_id`) counts its seed-set size once.
fn reconstruct_panels(
    fig: &FigureSpec,
    cells: &[GridCell],
    results: &[CellResult],
) -> Vec<CurvesResult> {
    let n_panels = cells.iter().map(|c| c.panel + 1).max().unwrap_or(0);
    (0..n_panels)
        .map(|panel| {
            let members: Vec<(&GridCell, &CellResult)> =
                cells.iter().zip(results).filter(|(c, _)| c.panel == panel).collect();
            let mut order: Vec<&str> = Vec::new();
            let mut sessions: BTreeMap<String, Vec<SessionResult>> = BTreeMap::new();
            let mut splits: Vec<u64> = Vec::new();
            let mut seed_sum = 0.0f64;
            for &(cell, result) in &members {
                if !order.contains(&cell.pipeline.as_str()) {
                    order.push(&cell.pipeline);
                }
                sessions.entry(cell.pipeline.clone()).or_default().push(result.session.clone());
                if !splits.contains(&cell.pair_id) {
                    splits.push(cell.pair_id);
                    seed_sum += result.seed_count as f64;
                }
            }
            let curves = order
                .iter()
                .filter_map(|&name| {
                    sessions.get(name).map(|s| MethodCurves::from_sessions(name, s))
                })
                .collect();
            let mean_seed_count =
                if splits.is_empty() { 0.0 } else { seed_sum / splits.len() as f64 };
            CurvesResult {
                system: fig.system,
                method: fig.method.unwrap_or_else(|| fig.system.best_feature_method()),
                curves,
                sessions,
                mean_seed_count,
                class_names: members
                    .first()
                    .map(|(_, r)| r.class_names.clone())
                    .unwrap_or_default(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    const SWEEP: &str = r#"{
        "name": "unit",
        "mode": "sweep",
        "system": "volta",
        "strategies": ["uncertainty", "random"],
        "budgets": [3],
        "seeds": [11, 12]
    }"#;

    #[test]
    fn sweep_runs_and_ranks_without_a_store() {
        let spec = GridSpec::parse(SWEEP, None).unwrap();
        let out = run_grid(&spec, &RunOptions::default()).unwrap();
        assert_eq!(out.stats.cells, 4);
        assert_eq!(out.stats.memo_hits, 0);
        assert_eq!(out.stats.computed, 4);
        assert_eq!(out.name, "unit");
        assert!(out.panels.is_empty());
        let report: GridReport = serde_json::from_str(&out.json).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.leaderboard.len(), 2);
        assert!(out.leaderboard_md.contains("uncertainty"));
    }

    #[test]
    fn worker_count_does_not_change_output_bytes() {
        let spec = GridSpec::parse(SWEEP, None).unwrap();
        let base = run_grid(&spec, &RunOptions::default()).unwrap();
        for workers in [2, 4, 7] {
            let opts = RunOptions { workers, ..RunOptions::default() };
            let out = run_grid(&spec, &opts).unwrap();
            assert_eq!(out.json, base.json, "{workers} workers diverged");
            assert_eq!(out.leaderboard_md, base.leaderboard_md);
        }
    }

    #[test]
    fn memo_round_trip_hits_and_preserves_bytes() {
        let dir = std::env::temp_dir().join(format!("alba_grid_runner_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = GridSpec::parse(SWEEP, None).unwrap();

        let cold_opts = RunOptions {
            store: Some(TelemetryStore::open(&dir).unwrap()),
            ..RunOptions::default()
        };
        let cold = run_grid(&spec, &cold_opts).unwrap();
        assert_eq!(cold.stats.computed, 4);

        let warm_opts = RunOptions {
            workers: 3,
            store: Some(TelemetryStore::open(&dir).unwrap()),
            ..RunOptions::default()
        };
        let warm = run_grid(&spec, &warm_opts).unwrap();
        assert_eq!(warm.stats.memo_hits, 4, "all cells served from the store");
        assert_eq!(warm.stats.computed, 0);
        assert_eq!(warm.json, cold.json, "memo path must preserve bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
