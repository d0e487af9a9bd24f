//! `repro` — regenerates every table and figure of the ALBADross paper.
//!
//! ```text
//! repro --exp <id>[,<id>...] [--scale smoke|default|full] [--seed N] [--out DIR]
//!
//! ids: tables-setup  Tables I–III (experimental setup)
//!      table4        Table IV (hyperparameter grid search, both systems)
//!      table5        Table V (summary of diagnosis results)
//!      fig3          Fig. 3 (Volta query curves)
//!      fig4          Fig. 4 (Volta query drill-down)
//!      fig5          Fig. 5 (Eclipse query curves)
//!      fig6          Fig. 6 (previously unseen applications)
//!      fig7          Fig. 7 (robustness motivation)
//!      fig8          Fig. 8 (previously unseen inputs)
//!      ablations     extensions beyond the paper (strategy x model matrix,
//!                    extractor 2x2, chi-square k sweep, intensity sensitivity,
//!                    batch-mode querying)
//!      all           everything above
//! ```
//!
//! Text renderings go to stdout; machine-readable JSON is written to
//! `--out` (default `results/`).
//!
//! `repro --chaos [--seed N]` runs the fault-injection drill instead: a
//! 52-node Volta fleet under a seeded [`alba_chaos::FaultPlan`], with
//! the event log, the plan and the injection/recovery counters written
//! to `--out`. Equal seeds produce byte-identical event logs;
//! `--chaos-plan FILE` replays a previously saved plan exactly.
//!
//! `repro --grid FILE [--grid-workers N] [--store DIR]` runs a
//! declarative [`alba_grid::GridSpec`] instead: the spec expands into
//! content-addressed cells, fans out over `N` workers (any count yields
//! byte-identical output), memoises completed cells in the `--store`
//! (so a killed sweep resumes without recomputation), and writes
//! `grid_<name>.json` plus a markdown leaderboard and a causal trace
//! log to `--out`. The fig3, fig5, fig6 and fig8 experiment ids
//! themselves run through this grid runner (from `specs/fig<N>.json`),
//! so figure replays share the memo store and its resume semantics.
//!
//! The whole run is observed through [`alba_obs`]: a wall-clock registry
//! is installed globally, each experiment runs under an
//! `experiment_ns{exp=...}` span, the pipeline stages record their own
//! histograms (`exp_stage_ns`, `al_*_ns`, `model_*_ns`), and the
//! collected timings are written to `stage_timings_<scale>.json`.

use alba_grid::{FigureHoldout, FigureSpec, GridMode};
use albadross::experiments::{
    self, run_robustness, run_table4, CurvesResult, DrilldownResult, RobustnessConfig,
    Table4Config, UnseenAppsResult, UnseenInputsResult,
};
use albadross::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    exps: Vec<String>,
    scale_name: String,
    seed: u64,
    out: PathBuf,
    store: Option<PathBuf>,
    chaos: bool,
    chaos_plan: Option<PathBuf>,
    grid: Option<PathBuf>,
    grid_workers: usize,
    scale_set: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut exps = vec!["all".to_string()];
    let mut scale_name = "default".to_string();
    let mut seed = 42u64;
    let mut out = PathBuf::from("results");
    let mut store = None;
    let mut chaos = false;
    let mut chaos_plan = None;
    let mut grid = None;
    let mut grid_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut scale_set = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--chaos" => {
                chaos = true;
            }
            "--chaos-plan" => {
                i += 1;
                chaos = true;
                chaos_plan = Some(PathBuf::from(&argv[i]));
            }
            "--grid" => {
                i += 1;
                grid = Some(PathBuf::from(&argv[i]));
            }
            "--grid-workers" => {
                i += 1;
                grid_workers = argv[i].parse().expect("worker count must be an integer");
            }
            "--exp" => {
                i += 1;
                exps = argv[i].split(',').map(str::to_string).collect();
            }
            "--scale" => {
                i += 1;
                scale_name = argv[i].clone();
                scale_set = true;
            }
            "--seed" => {
                i += 1;
                seed = argv[i].parse().expect("seed must be an integer");
                scale_set = true;
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&argv[i]);
            }
            "--store" => {
                i += 1;
                store = Some(PathBuf::from(&argv[i]));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp id,id,...] [--scale smoke|default|full] \
                     [--seed N] [--out DIR] [--store DIR]\nids: tables-setup table4 table5 \
                     fig3 fig4 fig5 fig6 fig7 fig8 ablations all\n--store DIR memoises \
                     campaigns, feature matrices and grid cells in an on-disk telemetry \
                     store (equivalent to setting ALBA_STORE_DIR) and reports cache \
                     statistics.\n\
                     --chaos runs the fault-injection drill (seeded 52-node fleet under a \
                     FaultPlan; event log, plan and counters land in --out).\n\
                     --chaos-plan FILE replays a FaultPlan saved by a previous --chaos run.\n\
                     --grid FILE runs a declarative experiment grid spec; \
                     --grid-workers N sizes its worker pool (any N is byte-identical)."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Args { exps, scale_name, seed, out, store, chaos, chaos_plan, grid, grid_workers, scale_set }
}

/// The `--chaos` drill: a 52-node Volta fleet runs under a seeded
/// fault plan with every structured event streamed to a JSONL file.
/// Writes `chaos_events_<seed>.jsonl`, `chaos_plan_<seed>.json`
/// (replayable via `--chaos-plan`) and `chaos_stats_<seed>.json`, and
/// exits non-zero if injection or recovery counters stayed at zero.
fn run_chaos_drill(args: &Args) {
    use alba_obs::{FileSink, Obs, TickClock};
    use alba_serve::{FleetService, ServeConfig};
    use std::sync::Arc;

    let mut cfg = ServeConfig::new(System::Volta, alba_telemetry::Scale::Smoke, 52, args.seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor =
        albadross::MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg.store_dir = args.store.as_ref().map(|d| d.display().to_string());
    cfg.chaos = Some(alba_chaos::ChaosConfig::default());

    // A tick clock (not wall time) stamps events, so equal seeds yield
    // byte-identical logs.
    let obs = Obs::with_clock(Arc::new(TickClock::new()));
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let events_path = args.out.join(format!("chaos_events_{}.jsonl", args.seed));
    obs.set_sink(Arc::new(FileSink::create(&events_path).expect("create event log")));

    let mut svc = match &args.chaos_plan {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read fault plan {}: {e}", path.display()));
            let plan = alba_chaos::FaultPlan::from_json(&json)
                .unwrap_or_else(|e| panic!("parse fault plan {}: {e}", path.display()));
            println!("# chaos drill — replaying {} ({} events)\n", path.display(), plan.len());
            FleetService::with_chaos_plan(cfg, plan, obs.clone())
        }
        None => {
            println!("# chaos drill — seed={} (52-node Volta fleet)\n", args.seed);
            FleetService::with_obs(cfg, obs.clone())
        }
    };
    let plan = svc.chaos_plan().expect("chaotic service carries a plan").clone();
    let plan_path = args.out.join(format!("chaos_plan_{}.json", args.seed));
    std::fs::write(&plan_path, plan.to_json().expect("serialise plan")).expect("write plan");
    println!("[saved {}]", plan_path.display());

    let t = Instant::now();
    let stats = svc.run_to_completion();
    let chaos = stats.chaos.clone().expect("chaotic run exports chaos stats");
    save_json(&args.out, &format!("chaos_stats_{}", args.seed), &stats);
    println!("[saved {}]", events_path.display());

    println!("\n== chaos drill ==");
    println!(
        "ticks={} windows={} alarms={} swaps={:?}",
        stats.ticks, stats.windows, stats.alarms, stats.swap_ticks
    );
    println!(
        "faults: started={} injected={} (blackout={} burst={} stuck={} garbage={} skew={} storm_dup={})",
        chaos.faults_started,
        chaos.total_injected(),
        chaos.injected.blackout_drops,
        chaos.injected.burst_drops,
        chaos.injected.stuck_readings,
        chaos.injected.garbage_readings,
        chaos.injected.skewed_samples,
        chaos.injected.storm_duplicates,
    );
    println!(
        "recovery: total={} shard_restarts={} quarantines={}→{} oracle_timeouts={} oracle_recoveries={} journal_recoveries={} backoff_waits={} ({} simulated ns)",
        chaos.total_recoveries(),
        chaos.shard_restarts,
        chaos.quarantines_entered,
        chaos.quarantines_released,
        chaos.oracle_timeouts,
        chaos.oracle_recoveries,
        chaos.journal_recoveries,
        chaos.backoff_waits,
        chaos.backoff_ns,
    );
    println!(
        "errors: unroutable={} malformed={} oracle_misses={} journal_reopens={} journal_failures={}",
        stats.errors.unroutable_samples,
        stats.errors.malformed_samples,
        stats.errors.oracle_misses,
        stats.errors.journal_reopens,
        stats.errors.journal_failures,
    );
    println!("# done in {:?}", t.elapsed());

    if chaos.total_injected() == 0 {
        eprintln!("chaos drill injected nothing — plan or injector is broken");
        std::process::exit(3);
    }
    if chaos.total_recoveries() == 0 {
        eprintln!("chaos drill recovered nothing — self-healing is broken");
        std::process::exit(4);
    }
}

/// Resolves a committed spec file: the repo's `specs/` when run from
/// the repository root, falling back to the path anchored at this
/// crate's manifest (cargo may run the binary from elsewhere).
fn spec_path(name: &str) -> PathBuf {
    let local = Path::new("specs").join(name);
    if local.exists() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs").join(name)
}

/// Opens the cell memo store when `--store` was given. Campaign /
/// feature memoisation goes through the `ALBA_STORE_DIR` env var
/// (already set by `main`); grid cells take the handle directly.
fn open_cell_store(args: &Args) -> Option<alba_store::TelemetryStore> {
    args.store.as_ref().map(|dir| {
        alba_store::TelemetryStore::open(dir)
            .unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()))
    })
}

/// Saves raw pre-rendered text (the grid report JSON must be written
/// byte-exactly — re-serialising would be redundant, not wrong, but
/// this keeps "bytes on disk" and "bytes compared in tests" one thing).
fn save_text(dir: &Path, file: &str, text: &str) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(file);
    std::fs::write(&path, text).expect("write result file");
    println!("[saved {}]", path.display());
}

/// Runs one grid spec through [`alba_grid::run_grid`] and writes its
/// artifacts. Shared by `--grid FILE` mode and the figure experiments.
fn run_grid_spec(
    spec: &alba_grid::GridSpec,
    args: &Args,
    obs: &alba_obs::Obs,
    tracer: alba_trace::Tracer,
) -> alba_grid::GridOutcome {
    let opts = alba_grid::RunOptions {
        workers: args.grid_workers,
        store: open_cell_store(args),
        obs: obs.clone(),
        tracer,
    };
    let t = Instant::now();
    let outcome = alba_grid::run_grid(spec, &opts)
        .unwrap_or_else(|e| panic!("grid {} failed: {e}", spec.name));
    println!(
        "[grid {}: {} cells, {} memoised, {} computed in {:?}]",
        outcome.name,
        outcome.stats.cells,
        outcome.stats.memo_hits,
        outcome.stats.computed,
        t.elapsed()
    );
    save_text(&args.out, &format!("grid_{}.json", outcome.name), &outcome.json);
    save_text(&args.out, &format!("grid_{}_leaderboard.md", outcome.name), &outcome.leaderboard_md);
    outcome
}

/// The `--grid FILE` mode: parse, run, rank. `--scale`/`--seed` (when
/// given explicitly) override a figure spec's committed sizing.
fn run_grid_file(args: &Args, file: &Path) {
    use std::sync::Arc;
    let src = std::fs::read_to_string(file)
        .unwrap_or_else(|e| panic!("read grid spec {}: {e}", file.display()));
    let override_scale = if args.scale_set {
        Some(
            RunScale::parse(&args.scale_name, args.seed)
                .unwrap_or_else(|| panic!("unknown scale {:?}", args.scale_name)),
        )
    } else {
        None
    };
    let spec = alba_grid::GridSpec::parse(&src, override_scale.as_ref())
        .unwrap_or_else(|e| panic!("grid spec {}: {e}", file.display()));
    println!("# grid {} — mode={} workers={}\n", spec.name, spec.mode_name(), args.grid_workers);

    let obs = alba_obs::Obs::wall();
    alba_obs::set_global(obs.clone());
    // Cells hop on shard lanes, the merge on the service lane; a tick
    // clock keeps the trace log byte-identical across equal runs.
    let tracer =
        Arc::new(alba_trace::Tracer::new(args.seed, Arc::new(alba_obs::TickClock::new()), 256));
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let trace_path = args.out.join(format!("grid_{}_trace.jsonl", spec.name));
    tracer.set_sink(Arc::new(
        alba_obs::FileSink::create(&trace_path).expect("create grid trace log"),
    ));

    let outcome = run_grid_spec(&spec, args, &obs, (*tracer).clone());
    println!("[saved {}]", trace_path.display());
    println!("\n== leaderboard ==\n{}", outcome.leaderboard_md);
    if let Some(dir) = &args.store {
        let stats = store_stats(&obs, dir);
        save_json(&args.out, &format!("store_stats_grid_{}", outcome.name), &stats);
    }
    alba_obs::clear_global();
}

/// Per-entry-kind cache statistics pulled from the obs registry after a
/// store-backed run.
#[derive(serde::Serialize)]
struct StoreKindStats {
    kind: String,
    cache_hits: u64,
    cache_misses: u64,
    corrupt_entries: u64,
    samples_written: u64,
    samples_read: u64,
}

/// The `store_stats_<scale>.json` payload: one row per entry kind plus
/// journal totals.
#[derive(serde::Serialize)]
struct StoreStats {
    dir: String,
    kinds: Vec<StoreKindStats>,
    journal_appends: u64,
    journal_replayed: u64,
}

fn store_stats(obs: &alba_obs::Obs, dir: &Path) -> StoreStats {
    let kinds = ["campaign", "features", "fleet", "cell"]
        .iter()
        .map(|kind| {
            let c = |name: &str| obs.counter(name, &[("kind", kind)]).get();
            StoreKindStats {
                kind: kind.to_string(),
                cache_hits: c("store_cache_hits_total"),
                cache_misses: c("store_cache_misses_total"),
                corrupt_entries: c("store_corrupt_entries_total"),
                samples_written: c("store_samples_written_total"),
                samples_read: c("store_samples_read_total"),
            }
        })
        .collect();
    StoreStats {
        dir: dir.display().to_string(),
        kinds,
        journal_appends: obs.counter("store_journal_appends_total", &[]).get(),
        journal_replayed: obs.counter("store_journal_replayed_total", &[]).get(),
    }
}

fn save_svgs(dir: &Path, stem: &str, curves: &[alba_active::MethodCurves]) {
    std::fs::create_dir_all(dir).expect("create output directory");
    for (name, svg) in albadross::figure_panels(stem, curves) {
        let path = dir.join(format!("{name}.svg"));
        std::fs::write(&path, svg).expect("write SVG");
        println!("[saved {}]", path.display());
    }
}

fn save_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialise result");
    std::fs::write(&path, json).expect("write result file");
    println!("[saved {}]", path.display());
}

/// One row of the stage-timings report: a histogram collected during the
/// run, flattened to the quantiles operators care about.
#[derive(serde::Serialize)]
struct TimingEntry {
    metric: String,
    labels: Vec<(String, String)>,
    count: u64,
    total_ms: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

/// Flattens every histogram in the registry into [`TimingEntry`] rows
/// (sorted by metric name, then labels — the registry iterates a BTreeMap,
/// so the order is already deterministic).
fn stage_timings(obs: &alba_obs::Obs) -> Vec<TimingEntry> {
    let ms = |ns: u64| ns as f64 / 1e6;
    obs.histogram_snapshots()
        .into_iter()
        .map(|(metric, labels, snap)| TimingEntry {
            metric,
            labels,
            count: snap.count,
            total_ms: ms(snap.sum),
            mean_ms: snap.mean() / 1e6,
            p50_ms: ms(snap.quantile(0.5).unwrap_or(0)),
            p99_ms: ms(snap.quantile(0.99).unwrap_or(0)),
            max_ms: ms(snap.max),
        })
        .collect()
}

fn main() {
    let args = parse_args();
    if args.chaos {
        run_chaos_drill(&args);
        return;
    }
    if let Some(file) = args.grid.clone() {
        if let Some(dir) = &args.store {
            std::env::set_var(albadross::STORE_DIR_ENV, dir);
        }
        run_grid_file(&args, &file);
        return;
    }
    let scale = RunScale::parse(&args.scale_name, args.seed)
        .unwrap_or_else(|| panic!("unknown scale {:?}", args.scale_name));
    let wants =
        |id: &str| args.exps.iter().any(|e| e == id) || args.exps.iter().any(|e| e == "all");
    println!("# ALBADross reproduction harness — scale={} seed={}\n", args.scale_name, args.seed);
    let t_total = Instant::now();

    // A --store directory routes dataset generation through the on-disk
    // telemetry store (the env var is what the pipeline consults, so the
    // flag and ALBA_STORE_DIR are interchangeable).
    if let Some(dir) = &args.store {
        std::env::set_var(albadross::STORE_DIR_ENV, dir);
    }

    // Observe the whole run: stage spans deep in the pipeline record into
    // this registry, and the harness wraps each experiment in its own span.
    let obs = alba_obs::Obs::wall();
    alba_obs::set_global(obs.clone());
    let experiment = |exp: &str| obs.span("experiment_ns", &[("exp", exp)]);

    if wants("tables-setup") {
        println!("{}", experiments::render_setup_tables());
    }

    // The AL-session figures run through the grid runner from their
    // committed specs, with memoisation and resume for free. Each
    // returns the parsed figure and one curves result per panel.
    let run_figure = |spec_file: &str| -> (FigureSpec, Vec<CurvesResult>) {
        let path = spec_path(spec_file);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read grid spec {}: {e}", path.display()));
        let spec = alba_grid::GridSpec::parse(&src, Some(&scale))
            .unwrap_or_else(|e| panic!("grid spec {}: {e}", path.display()));
        let outcome = run_grid_spec(&spec, &args, &obs, alba_trace::Tracer::disabled());
        match spec.mode {
            GridMode::Figure(fig) => (fig, outcome.panels),
            GridMode::Sweep(_) => panic!("{spec_file} is not a figure spec"),
        }
    };
    let one_panel = |spec_file: &str| {
        let (_, panels) = run_figure(spec_file);
        panels.into_iter().next().unwrap_or_else(|| panic!("{spec_file} yields no panel"))
    };

    // Keep the Fig.3 curves around: Fig. 4 and Table V reuse them.
    let mut fig3_curves = None;
    if wants("fig3") || wants("fig4") || wants("table5") {
        let _span = experiment("fig3");
        let t = Instant::now();
        let res = one_panel("fig3.json");
        println!("{}\n[fig3 in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("fig3_{}", args.scale_name), &res.curves);
        save_svgs(&args.out, &format!("fig3_{}", args.scale_name), &res.curves);
        fig3_curves = Some(res);
    }

    if wants("fig4") {
        let res = fig3_curves.as_ref().expect("fig3 ran above");
        let first_n = 50.min(scale.budget);
        let d = DrilldownResult::from_curves(res, "uncertainty", first_n);
        println!("{}", d.render());
        save_json(&args.out, &format!("fig4_{}", args.scale_name), &d);
    }

    let mut fig5_curves = None;
    if wants("fig5") || wants("table5") {
        let _span = experiment("fig5");
        let t = Instant::now();
        let res = one_panel("fig5.json");
        println!("{}\n[fig5 in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("fig5_{}", args.scale_name), &res.curves);
        save_svgs(&args.out, &format!("fig5_{}", args.scale_name), &res.curves);
        fig5_curves = Some(res);
    }

    if wants("table5") {
        let _span = experiment("table5");
        let t = Instant::now();
        let rows = vec![
            experiments::table5_row(fig3_curves.as_ref().expect("fig3 ran"), &scale),
            experiments::table5_row(fig5_curves.as_ref().expect("fig5 ran"), &scale),
        ];
        let table = experiments::Table5 { rows };
        println!(
            "== Table V-style summary ==\n{}\n[table5 in {:?}]\n",
            table.render(),
            t.elapsed()
        );
        save_json(&args.out, &format!("table5_{}", args.scale_name), &table);
    }

    if wants("fig6") {
        let _span = experiment("fig6");
        let t = Instant::now();
        let (fig, panels) = run_figure("fig6.json");
        let FigureHoldout::Apps { counts, .. } = &fig.holdout else {
            panic!("fig6.json must hold out applications")
        };
        let res = UnseenAppsResult::from_panels(counts, panels);
        println!("{}\n[fig6 in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("fig6_{}", args.scale_name), &res);
    }

    if wants("fig7") {
        let _span = experiment("fig7");
        let t = Instant::now();
        let res = run_robustness(&RobustnessConfig::paper(scale.clone()));
        println!("{}\n[fig7 in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("fig7_{}", args.scale_name), &res);
    }

    if wants("fig8") {
        let _span = experiment("fig8");
        let t = Instant::now();
        let res = UnseenInputsResult::from_curves(one_panel("fig8.json"));
        println!("{}\n[fig8 in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("fig8_{}", args.scale_name), &res);
    }

    if wants("ablations") {
        let _span = experiment("ablations");
        let t = Instant::now();
        let res = experiments::run_ablations(&scale);
        println!("{}\n[ablations in {:?}]\n", res.render(), t.elapsed());
        save_json(&args.out, &format!("ablations_{}", args.scale_name), &res);
    }

    if wants("table4") {
        let _span = experiment("table4");
        for system in [System::Volta, System::Eclipse] {
            let t = Instant::now();
            let res = run_table4(&Table4Config::paper(system, scale.clone()));
            println!("{}\n[table4/{} in {:?}]\n", res.render(), system.name(), t.elapsed());
            save_json(
                &args.out,
                &format!("table4_{}_{}", system.name().to_lowercase(), args.scale_name),
                &res,
            );
        }
    }

    // Report what the store did for (or against) us this run.
    if let Some(dir) = &args.store {
        let stats = store_stats(&obs, dir);
        save_json(&args.out, &format!("store_stats_{}", args.scale_name), &stats);
        println!("\n== store cache ==");
        for k in &stats.kinds {
            println!(
                "{:<10} hits={} misses={} corrupt={} written={} read={}",
                k.kind,
                k.cache_hits,
                k.cache_misses,
                k.corrupt_entries,
                k.samples_written,
                k.samples_read
            );
        }
    }

    // Dump the stage timings the pipeline recorded along the way.
    let timings = stage_timings(&obs);
    save_json(&args.out, &format!("stage_timings_{}", args.scale_name), &timings);
    println!("\n== stage timings (total / count) ==");
    for t in timings.iter().filter(|t| t.metric == "experiment_ns" || t.metric == "exp_stage_ns") {
        let labels: Vec<String> = t.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{:<16} {:<24} {:>10.1} ms / {}", t.metric, labels.join(","), t.total_ms, t.count);
    }
    alba_obs::clear_global();

    println!("# done in {:?}", t_total.elapsed());
}
