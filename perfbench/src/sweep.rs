//! The `al-sweep` workload: the paper's offline experiment as alba-grid
//! sweeps. Pool-based AL sessions on Volta MVTS features, RF and LGBM ×
//! uncertainty, margin and entropy × two seeds, run by `run_grid` on two
//! workers with no cell memo store (so every cell is computed).
//!
//! The two model families get separate sweep specs (`sweep-rf.json`,
//! `sweep-lgbm.json`) because an LGBM refit costs ~50× an RF refit: the
//! budgets balance the families' CPU time, and each spec's cells split
//! evenly over the workers. The specs' `seeds` are replicate offsets; the
//! workload seed turns them into the data, split and session seeds.

use crate::schedule::mix;
use crate::stats::{hist_quantile, median, Report};
use crate::sysinfo::status_mib;
use crate::{complete_layers, layer_unit};
use alba_grid::{run_grid, GridMode, GridReport, GridSpec, RunOptions};
use alba_obs::{HistogramSnapshot, Obs};
use alba_telemetry::Scale;
use albadross::{FeatureMethod, System, SystemData, STORE_DIR_ENV};
use std::path::Path;
use std::time::Instant;

/// Grid workers (the benchmark's host has two cores; the count is
/// recorded with every run).
const GRID_WORKERS: usize = 2;
const SPECS: [&str; 2] = [include_str!("../sweep-rf.json"), include_str!("../sweep-lgbm.json")];

/// The sweep specs with the workload seed applied.
fn specs(seed: u64) -> Vec<GridSpec> {
    SPECS
        .iter()
        .map(|src| {
            let mut spec = GridSpec::parse(src, None).expect("bundled sweep spec parses");
            if let GridMode::Sweep(sw) = &mut spec.mode {
                sw.seeds = sw.seeds.iter().map(|&k| mix(seed, k) >> 16).collect();
            }
            spec
        })
        .collect()
}

/// `(system, method, campaign, seeds)` of the datasets the sweep reads.
fn datasets(seed: u64) -> Vec<(System, FeatureMethod, Scale, u64)> {
    let mut out: Vec<(System, FeatureMethod, Scale, u64)> = Vec::new();
    for spec in specs(seed) {
        if let GridMode::Sweep(sw) = &spec.mode {
            for &s in &sw.seeds {
                for &m in &sw.extractors {
                    let key = (sw.system, m, sw.campaign, s);
                    if !out.contains(&key) {
                        out.push(key);
                    }
                }
            }
        }
    }
    out
}

/// Loads (or, on a cold store, generates and stores) every dataset the
/// sweep reads; returns the wall time. The first call in a process is
/// the set-up a fresh sweep pays: later calls hit the in-process memo.
pub fn load_datasets(seed: u64, store: &Path) -> f64 {
    std::env::set_var(STORE_DIR_ENV, store);
    let t0 = Instant::now();
    for (system, method, scale, s) in datasets(seed) {
        std::hint::black_box(SystemData::generate(system, method, scale, s));
    }
    t0.elapsed().as_secs_f64()
}

/// Runs every sweep; returns the reports and the summed wall time.
fn run_sweeps(seed: u64, obs: &Obs, r: &mut Report) -> (Vec<GridReport>, f64) {
    let mut reports = Vec::new();
    let mut wall = 0.0;
    for spec in specs(seed) {
        let opts = RunOptions { workers: GRID_WORKERS, obs: obs.clone(), ..RunOptions::default() };
        let t0 = Instant::now();
        let out = run_grid(&spec, &opts);
        wall += t0.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                r.check(out.stats.computed == out.stats.cells && out.stats.memo_hits == 0, || {
                    format!(
                        "{}: computed {} of {} cells",
                        out.name, out.stats.computed, out.stats.cells
                    )
                });
                let report: GridReport =
                    serde_json::from_str(&out.json).expect("grid report round-trips");
                reports.push(report);
            }
            Err(e) => r.check(false, || format!("grid {} failed: {e}", spec.name)),
        }
    }
    (reports, wall)
}

fn labels_and_f1(reports: &[GridReport], r: &mut Report) -> (usize, f64, usize) {
    let (mut labels, mut f1, mut cells) = (0, 0.0, 0);
    for rep in reports {
        for c in &rep.cells {
            let budget = match &c.spec.task {
                alba_grid::CellTask::Al { budget, .. } => *budget,
                alba_grid::CellTask::Proctor { .. } => 0,
            };
            r.check(c.session.records.len() == budget, || {
                format!("cell {} queried {} of {budget} labels", c.key, c.session.records.len())
            });
            labels += c.session.records.len();
            f1 += c.final_f1();
            cells += 1;
        }
    }
    (labels, if cells == 0 { 0.0 } else { f1 / cells as f64 }, cells)
}

/// The measured run: `setups` holds earlier fresh processes' set-up times.
pub fn measure(seed: u64, store: &Path, mut setups: Vec<f64>) -> Report {
    let mut r = Report::new();
    setups.push(load_datasets(seed, store));
    let (reports, wall) = run_sweeps(seed, &Obs::disabled(), &mut r);
    let (labels, f1, cells) = labels_and_f1(&reports, &mut r);
    r.attempted = cells as u64;
    r.failed = r.problems.len() as u64;
    r.metric("setup_s", median(&setups), "s", setups.len());
    r.metric("labels_per_s", labels as f64 / wall, "1/s", labels);
    r.metric("sweep_s", wall, "s", cells);
    r.metric("peak_rss_mb", status_mib("VmHWM"), "MiB", 1);
    r.metric("diag_f1", f1, "ratio", cells);
    r
}

/// Every registry histogram named `name`, merged across label sets.
fn merged(obs: &Obs, name: &str, label: Option<(&str, &str)>) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (n, labels, snap) in obs.histogram_snapshots() {
        if n != name || label.is_some_and(|(k, v)| !labels.iter().any(|(a, b)| a == k && b == v)) {
            continue;
        }
        out.count += snap.count;
        out.sum += snap.sum;
        out.max = out.max.max(snap.max);
        for (lo, c) in snap.buckets {
            match out.buckets.iter_mut().find(|b| b.0 == lo) {
                Some(b) => b.1 += c,
                None => out.buckets.push((lo, c)),
            }
        }
    }
    out.buckets.sort_unstable();
    out
}

fn mean_ms(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64 / 1e6
    }
}

/// The traced run: AL, model and grid layers from the spans the program
/// already records (the global registry and the grid's own handle).
pub fn trace(seed: u64, store: &Path) -> Report {
    let mut r = Report::new();
    let rss0 = status_mib("VmRSS");
    load_datasets(seed, store);
    let input_mb = status_mib("VmRSS") - rss0;
    let obs = Obs::wall();
    alba_obs::set_global(obs.clone());
    let (reports, wall) = run_sweeps(seed, &obs, &mut r);
    alba_obs::clear_global();
    let (_, _, cells) = labels_and_f1(&reports, &mut r);
    r.attempted = cells as u64;
    r.failed = r.problems.len() as u64;

    let cell = merged(&obs, "grid_cell_ns", None);
    let busy_per_worker = cell.sum as f64 / 1e9 / GRID_WORKERS as f64;
    let q = merged(&obs, "al_query_ns", None);
    let e = merged(&obs, "al_eval_ns", None);
    r.metric(
        "active.query_ms_per_round",
        mean_ms(&q),
        layer_unit("active.query_ms_per_round"),
        q.count as usize,
    );
    r.metric(
        "active.eval_ms_per_round",
        mean_ms(&e),
        layer_unit("active.eval_ms_per_round"),
        e.count as usize,
    );
    for (metric, span, model) in [
        ("ml.fit_ms.rf", "model_fit_ns", "RF"),
        ("ml.fit_ms.lgbm", "model_fit_ns", "LGBM"),
        ("ml.predict_ms.rf", "model_predict_ns", "RF"),
        ("ml.predict_ms.lgbm", "model_predict_ns", "LGBM"),
    ] {
        let h = merged(&obs, span, Some(("model", model)));
        r.metric(metric, mean_ms(&h), layer_unit(metric), h.count as usize);
    }
    r.metric(
        "grid.cell_s_p50",
        hist_quantile(&cell, 0.5) / 1e9,
        layer_unit("grid.cell_s_p50"),
        cell.count as usize,
    );
    r.metric(
        "grid.worker_balance",
        wall / busy_per_worker,
        layer_unit("grid.worker_balance"),
        GRID_WORKERS,
    );
    r.metric("bench.input_mb", input_mb, layer_unit("bench.input_mb"), 1);
    complete_layers(&mut r);
    r
}
