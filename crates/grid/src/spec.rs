//! Declarative grid specs: JSON in, content-addressed cells out.
//!
//! Two modes share one file format (discriminated by `"mode"`):
//!
//! * **figure** — replays a paper figure (Figs. 3, 5, 6 and 8) through
//!   the grid runner: a list of splits under one split policy
//!   ([`FigureHoldout`]), each running every listed strategy (and
//!   optionally Proctor). The committed `results/fig*_smoke.json` files
//!   pin its job order and seed derivations byte for byte.
//! * **sweep** — a cross-product over pipelines (extractor × model ×
//!   strategy × budget) and seeds, optionally with pool-label
//!   contamination; feeds the paired-statistics leaderboard.
//!
//! Parsing is hand-rolled over the [`serde::Value`] tree because the
//! vendored derive has no optional-field or default support; unknown
//! keys are rejected so typos fail loudly instead of silently running
//! the default grid.

use crate::cell::{CellSpec, CellTask, Holdout, CELL_REV};
use crate::error::GridError;
use alba_active::Strategy;
use alba_ml::{ModelFamily, ModelSpec};
use alba_telemetry::Scale;
use albadross::{FeatureMethod, RunScale, SplitConfig, System};
use serde::Value;

/// Sweep-mode noise-seed derivation constant (any fixed odd-ish value;
/// only has to differ from the other per-seed derivations).
const NOISE_SEED_SALT: u64 = 0x5EED_D1CE;

/// One expanded cell with its grid-level labels. `pipeline`, `panel`
/// and `pair_id` are deliberately *not* part of [`CellSpec`] (and thus
/// not hashed): two grids labelling the same cell differently still
/// share one memo entry.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Position in expansion order (merge order).
    pub idx: usize,
    /// Leaderboard grouping key (e.g. `MVTS+RF+margin+b12`).
    pub pipeline: String,
    /// Figure panel: figure mode builds one curves result per panel
    /// (0 for sweeps and single-panel figures).
    pub panel: usize,
    /// Pairing key for the paired tests: cells of different pipelines
    /// with equal `pair_id` share a split and are compared head-to-head.
    pub pair_id: u64,
    /// The content-addressed cell.
    pub spec: CellSpec,
}

/// Figure-mode parameters.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// System to evaluate.
    pub system: System,
    /// Feature method (`None` = the system's Table V best).
    pub method: Option<FeatureMethod>,
    /// Query strategies, in display order (default: all five).
    pub strategies: Vec<Strategy>,
    /// Whether to run the Proctor baseline.
    pub include_proctor: bool,
    /// Split policy (default: stratified).
    pub holdout: FigureHoldout,
    /// Sizing (from the spec file or a CLI override).
    pub scale: RunScale,
}

/// A figure's split policy: which splits it runs and how each one
/// restricts the seed set and the test set ([`Holdout`]).
#[derive(Clone, Debug, PartialEq)]
pub enum FigureHoldout {
    /// `scale.n_splits` stratified splits (Figs. 3 and 5).
    Stratified,
    /// Previously unseen applications (Fig. 6): one panel per count,
    /// each running `combos` random sets of that many seen applications.
    Apps {
        /// Seen-application counts, one panel each.
        counts: Vec<usize>,
        /// Random application sets per count.
        combos: usize,
    },
    /// Previously unseen input decks (Fig. 8): each deck held out in
    /// turn, all in one panel.
    Decks(Vec<usize>),
}

/// Sweep-mode parameters.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// System to evaluate.
    pub system: System,
    /// Campaign size.
    pub campaign: Scale,
    /// Feature extractors to cross.
    pub extractors: Vec<FeatureMethod>,
    /// Query strategies to cross.
    pub strategies: Vec<Strategy>,
    /// Model families to cross (each resolved via `ModelSpec::tuned`).
    pub models: Vec<ModelFamily>,
    /// Label budgets to cross.
    pub budgets: Vec<usize>,
    /// Master seeds; each seed is one paired replicate.
    pub seeds: Vec<u64>,
    /// Train fraction of each split.
    pub train_fraction: f64,
    /// Chi-square-selected feature count.
    pub top_k_features: usize,
    /// Labels per re-train.
    pub batch: usize,
    /// Percent of pool labels flipped (label-noise robustness axis).
    pub contamination_pct: f64,
}

/// Which of the two grid modes a spec uses.
#[derive(Clone, Debug)]
pub enum GridMode {
    /// Paper-figure replay.
    Figure(FigureSpec),
    /// Pipeline cross-product.
    Sweep(SweepSpec),
}

/// A parsed grid spec.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Grid name; output lands in `results/grid_<name>.json`.
    pub name: String,
    /// Mode payload.
    pub mode: GridMode,
}

// ---------------------------------------------------------------- parsing

fn spec_err(msg: impl std::fmt::Display) -> GridError {
    GridError::Spec(msg.to_string())
}

/// Object-field reader that tracks which keys were consumed, so the
/// parser can reject unknown keys at the end.
struct Fields<'a> {
    entries: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value) -> Result<Self, GridError> {
        let entries = v
            .as_object()
            .ok_or_else(|| spec_err(format!("expected a JSON object, got {}", v.kind())))?;
        Ok(Fields { entries, seen: vec![false; entries.len()] })
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn require(&mut self, key: &str) -> Result<&'a Value, GridError> {
        self.get(key).ok_or_else(|| spec_err(format!("missing required field `{key}`")))
    }

    fn finish(&self) -> Result<(), GridError> {
        let unknown: Vec<&str> = self
            .entries
            .iter()
            .zip(&self.seen)
            .filter(|(_, &seen)| !seen)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(spec_err(format!("unknown field(s): {}", unknown.join(", "))))
        }
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, GridError> {
    match v {
        Value::Num(serde::Number::U(n)) => Ok(*n),
        Value::Num(serde::Number::I(n)) if *n >= 0 => Ok(*n as u64),
        _ => Err(spec_err(format!("field `{key}` must be a non-negative integer"))),
    }
}

fn as_usize(v: &Value, key: &str) -> Result<usize, GridError> {
    Ok(as_u64(v, key)? as usize)
}

fn as_f64(v: &Value, key: &str) -> Result<f64, GridError> {
    match v {
        Value::Num(serde::Number::U(n)) => Ok(*n as f64),
        Value::Num(serde::Number::I(n)) => Ok(*n as f64),
        Value::Num(serde::Number::F(x)) => Ok(*x),
        _ => Err(spec_err(format!("field `{key}` must be a number"))),
    }
}

fn as_bool(v: &Value, key: &str) -> Result<bool, GridError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(spec_err(format!("field `{key}` must be a boolean"))),
    }
}

fn as_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, GridError> {
    v.as_str().ok_or_else(|| spec_err(format!("field `{key}` must be a string")))
}

fn parse_system(s: &str) -> Result<System, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "volta" => Ok(System::Volta),
        "eclipse" => Ok(System::Eclipse),
        _ => Err(spec_err(format!("unknown system `{s}` (volta|eclipse)"))),
    }
}

fn parse_method(s: &str) -> Result<FeatureMethod, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "mvts" => Ok(FeatureMethod::Mvts),
        "tsfresh" => Ok(FeatureMethod::TsFresh),
        _ => Err(spec_err(format!("unknown feature method `{s}` (mvts|tsfresh)"))),
    }
}

fn parse_strategy(s: &str) -> Result<Strategy, GridError> {
    Strategy::ALL.iter().copied().find(|st| st.name() == s.to_ascii_lowercase()).ok_or_else(|| {
        spec_err(format!("unknown strategy `{s}` (uncertainty|margin|entropy|random|equal_app)"))
    })
}

fn parse_strategies(v: &Value) -> Result<Vec<Strategy>, GridError> {
    str_list(v, "strategies")?.into_iter().map(parse_strategy).collect()
}

/// `{"apps": [2, 4], "combos": 5}` or `{"decks": [0, 1, 2]}`.
fn parse_holdout(v: &Value) -> Result<FigureHoldout, GridError> {
    let mut f = Fields::new(v)?;
    let apps = f.get("apps").map(|v| num_list(v, "apps", as_usize)).transpose()?;
    let combos = f.get("combos").map(|v| as_usize(v, "combos")).transpose()?;
    let decks = f.get("decks").map(|v| num_list(v, "decks", as_usize)).transpose()?;
    f.finish()?;
    match (apps, combos, decks) {
        (Some(counts), Some(combos), None) if combos > 0 && !counts.contains(&0) => {
            Ok(FigureHoldout::Apps { counts, combos })
        }
        (None, None, Some(decks)) => Ok(FigureHoldout::Decks(decks)),
        _ => Err(spec_err(
            "holdout takes positive `apps` counts with a positive `combos`, or `decks`",
        )),
    }
}

fn parse_family(s: &str) -> Result<ModelFamily, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "lr" => Ok(ModelFamily::Lr),
        "rf" => Ok(ModelFamily::Rf),
        "lgbm" => Ok(ModelFamily::Lgbm),
        "mlp" => Ok(ModelFamily::Mlp),
        _ => Err(spec_err(format!("unknown model family `{s}` (lr|rf|lgbm|mlp)"))),
    }
}

fn parse_campaign(s: &str) -> Result<Scale, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "full" => Ok(Scale::Full),
        _ => Err(spec_err(format!("unknown campaign `{s}` (smoke|default|full)"))),
    }
}

fn str_list<'a>(v: &'a Value, key: &str) -> Result<Vec<&'a str>, GridError> {
    let items = v.as_array().ok_or_else(|| spec_err(format!("field `{key}` must be an array")))?;
    if items.is_empty() {
        return Err(spec_err(format!("field `{key}` must be non-empty")));
    }
    items.iter().map(|it| as_str(it, key)).collect()
}

fn num_list<T>(
    v: &Value,
    key: &str,
    conv: impl Fn(&Value, &str) -> Result<T, GridError>,
) -> Result<Vec<T>, GridError> {
    let items = v.as_array().ok_or_else(|| spec_err(format!("field `{key}` must be an array")))?;
    if items.is_empty() {
        return Err(spec_err(format!("field `{key}` must be non-empty")));
    }
    items.iter().map(|it| conv(it, key)).collect()
}

impl GridSpec {
    /// Parses a grid spec from JSON source. `scale_override` (figure
    /// mode only) substitutes the spec file's sizing — this is how the
    /// CLI's `--scale`/`--seed` flags reach a committed spec file.
    pub fn parse(src: &str, scale_override: Option<&RunScale>) -> Result<GridSpec, GridError> {
        let root =
            serde_json::parse_value(src).map_err(|e| spec_err(format!("invalid JSON: {e}")))?;
        let mut f = Fields::new(&root)?;
        let name = as_str(f.require("name")?, "name")?.to_string();
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(spec_err(format!(
                "grid name `{name}` must be non-empty [A-Za-z0-9_-] (it names the output file)"
            )));
        }
        let mode = as_str(f.require("mode")?, "mode")?.to_string();
        let spec = match mode.as_str() {
            "figure" => Self::parse_figure(name, &mut f, scale_override)?,
            "sweep" => Self::parse_sweep(name, &mut f)?,
            other => return Err(spec_err(format!("unknown mode `{other}` (figure|sweep)"))),
        };
        f.finish()?;
        Ok(spec)
    }

    fn parse_figure(
        name: String,
        f: &mut Fields<'_>,
        scale_override: Option<&RunScale>,
    ) -> Result<GridSpec, GridError> {
        let system = parse_system(as_str(f.require("system")?, "system")?)?;
        let method = match f.get("method") {
            Some(v) => Some(parse_method(as_str(v, "method")?)?),
            None => None,
        };
        let strategies = match f.get("strategies") {
            Some(v) => parse_strategies(v)?,
            None => Strategy::ALL.to_vec(),
        };
        let include_proctor = match f.get("include_proctor") {
            Some(v) => as_bool(v, "include_proctor")?,
            None => true,
        };
        let holdout = match f.get("holdout") {
            Some(v) => parse_holdout(v)?,
            None => FigureHoldout::Stratified,
        };
        // The spec file's sizing; a CLI override wins wholesale (both
        // scale name and seed).
        let json_scale = f.get("scale").map(|v| as_str(v, "scale")).transpose()?;
        let json_seed = f.get("seed").map(|v| as_u64(v, "seed")).transpose()?;
        let scale = match scale_override {
            Some(s) => s.clone(),
            None => {
                let scale_name = json_scale
                    .ok_or_else(|| spec_err("figure spec needs `scale` (or a CLI override)"))?;
                let seed = json_seed
                    .ok_or_else(|| spec_err("figure spec needs `seed` (or a CLI override)"))?;
                RunScale::parse(scale_name, seed)
                    .ok_or_else(|| spec_err(format!("unknown scale `{scale_name}`")))?
            }
        };
        Ok(GridSpec {
            name,
            mode: GridMode::Figure(FigureSpec {
                system,
                method,
                strategies,
                include_proctor,
                holdout,
                scale,
            }),
        })
    }

    fn parse_sweep(name: String, f: &mut Fields<'_>) -> Result<GridSpec, GridError> {
        let system = parse_system(as_str(f.require("system")?, "system")?)?;
        let campaign = match f.get("campaign") {
            Some(v) => parse_campaign(as_str(v, "campaign")?)?,
            None => Scale::Smoke,
        };
        let extractors = match f.get("extractors") {
            Some(v) => str_list(v, "extractors")?
                .into_iter()
                .map(parse_method)
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![system.best_feature_method()],
        };
        let strategies = parse_strategies(f.require("strategies")?)?;
        let models = match f.get("models") {
            Some(v) => str_list(v, "models")?
                .into_iter()
                .map(parse_family)
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![ModelFamily::Rf],
        };
        let budgets = num_list(f.require("budgets")?, "budgets", as_usize)?;
        if budgets.contains(&0) {
            return Err(spec_err("budgets must be positive"));
        }
        let seeds = num_list(f.require("seeds")?, "seeds", as_u64)?;
        let train_fraction = match f.get("train_fraction") {
            Some(v) => as_f64(v, "train_fraction")?,
            None => 0.5,
        };
        if !(0.05..=0.95).contains(&train_fraction) {
            return Err(spec_err(format!("train_fraction {train_fraction} out of (0.05, 0.95)")));
        }
        let top_k_features = match f.get("top_k_features") {
            Some(v) => as_usize(v, "top_k_features")?,
            None => 150,
        };
        let batch = match f.get("batch") {
            Some(v) => as_usize(v, "batch")?.max(1),
            None => 1,
        };
        let contamination_pct = match f.get("contamination_pct") {
            Some(v) => as_f64(v, "contamination_pct")?,
            None => 0.0,
        };
        if !(0.0..=100.0).contains(&contamination_pct) {
            return Err(spec_err(format!("contamination_pct {contamination_pct} out of [0, 100]")));
        }
        Ok(GridSpec {
            name,
            mode: GridMode::Sweep(SweepSpec {
                system,
                campaign,
                extractors,
                strategies,
                models,
                budgets,
                seeds,
                train_fraction,
                top_k_features,
                batch,
                contamination_pct,
            }),
        })
    }

    /// Short mode name for reports.
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            GridMode::Figure(_) => "figure",
            GridMode::Sweep(_) => "sweep",
        }
    }

    /// Expands the spec into its cells, in canonical (merge) order.
    pub fn expand(&self) -> Vec<GridCell> {
        match &self.mode {
            GridMode::Figure(fig) => expand_figure(fig),
            GridMode::Sweep(sw) => expand_sweep(sw),
        }
    }
}

/// One split of a figure: the seeds and split policy its cells share.
struct FigureSplit {
    panel: usize,
    split_seed: u64,
    pool_seed: u64,
    holdout: Holdout,
    /// Session seed of the split's first repeat (and of Proctor).
    session_seed: u64,
}

/// A figure's splits in merge order, and how many sessions each
/// stochastic baseline runs per split. The committed
/// `results/fig*_smoke.json` files pin every seed derivation.
fn figure_splits(fig: &FigureSpec) -> (Vec<FigureSplit>, usize) {
    let seed = fig.scale.seed;
    match &fig.holdout {
        FigureHoldout::Stratified => {
            let splits = (0..fig.scale.n_splits as u64)
                .map(|rep| FigureSplit {
                    panel: 0,
                    split_seed: seed ^ ((rep + 1) * 0x9E37_79B9),
                    pool_seed: seed ^ (rep + 101),
                    holdout: Holdout::Stratified,
                    session_seed: seed ^ (rep << 16) ^ 0xF00D,
                })
                .collect();
            (splits, fig.scale.baseline_repeats)
        }
        FigureHoldout::Apps { counts, combos } => {
            let mut splits = Vec::new();
            for (panel, &n_seen) in counts.iter().enumerate() {
                for combo in 0..*combos as u64 {
                    let combo_seed = seed ^ ((n_seen as u64) << 24) ^ (combo << 8);
                    splits.push(FigureSplit {
                        panel,
                        split_seed: combo_seed ^ 0x5,
                        pool_seed: combo_seed ^ 0x6,
                        holdout: Holdout::Apps { n_seen, shuffle_seed: combo_seed },
                        session_seed: combo_seed ^ 0x7,
                    });
                }
            }
            (splits, 1)
        }
        FigureHoldout::Decks(decks) => {
            let splits = decks
                .iter()
                .map(|&deck| {
                    let deck_seed = seed ^ 0xDEC ^ ((deck as u64) << 12);
                    FigureSplit {
                        panel: 0,
                        split_seed: deck_seed,
                        pool_seed: deck_seed ^ 0x2,
                        holdout: Holdout::Deck(deck),
                        session_seed: deck_seed ^ 0x3,
                    }
                })
                .collect();
            (splits, 1)
        }
    }
}

/// Figure expansion: split-major, then strategy (stochastic baselines
/// repeated), then Proctor. The `pair_id` is the split's position.
fn expand_figure(fig: &FigureSpec) -> Vec<GridCell> {
    let scale = &fig.scale;
    let method = fig.method.unwrap_or_else(|| fig.system.best_feature_method());
    let model = scale.model(fig.system == System::Volta);
    let (splits, baseline_repeats) = figure_splits(fig);
    let mut cells = Vec::new();
    for (pair_id, split) in splits.iter().enumerate() {
        let mut push = |pipeline: &str, session_seed: u64, task: CellTask| {
            let spec = CellSpec {
                rev: CELL_REV,
                system: fig.system,
                method,
                campaign: scale.campaign,
                data_seed: scale.seed,
                split: scale.split,
                split_seed: split.split_seed,
                pool_seed: split.pool_seed,
                holdout: split.holdout,
                session_seed,
                contamination_pct: 0.0,
                noise_seed: 0,
                task,
            };
            cells.push(GridCell {
                idx: cells.len(),
                pipeline: pipeline.to_string(),
                panel: split.panel,
                pair_id: pair_id as u64,
                spec,
            });
        };
        for &s in &fig.strategies {
            let repeats = if s.is_informative() { 1 } else { baseline_repeats };
            for r in 0..repeats as u64 {
                let task = CellTask::Al {
                    strategy: s,
                    model: model.clone(),
                    budget: scale.budget,
                    batch: 1,
                };
                push(s.name(), split.session_seed ^ (r << 32), task);
            }
        }
        if fig.include_proctor {
            let task = CellTask::Proctor { config: scale.proctor(split.session_seed) };
            push("proctor", split.session_seed, task);
        }
    }
    cells
}

/// Sweep expansion: seed-major cross-product, so one seed's cells (one
/// paired replicate across every pipeline) are contiguous and share the
/// split cache.
fn expand_sweep(sw: &SweepSpec) -> Vec<GridCell> {
    let split =
        SplitConfig { train_fraction: sw.train_fraction, top_k_features: sw.top_k_features };
    let mut cells = Vec::new();
    for &seed in &sw.seeds {
        for &ext in &sw.extractors {
            for &fam in &sw.models {
                let model = ModelSpec::tuned(fam, sw.system == System::Volta);
                for &strat in &sw.strategies {
                    for &budget in &sw.budgets {
                        let mut pipeline =
                            format!("{}+{}+{}+b{}", ext.name(), fam.name(), strat.name(), budget);
                        if sw.contamination_pct > 0.0 {
                            pipeline.push_str(&format!("+n{}", sw.contamination_pct));
                        }
                        let spec = CellSpec {
                            rev: CELL_REV,
                            system: sw.system,
                            method: ext,
                            campaign: sw.campaign,
                            data_seed: seed,
                            split,
                            split_seed: seed ^ 0x9E37_79B9,
                            pool_seed: seed ^ 101,
                            holdout: Holdout::Stratified,
                            session_seed: seed ^ 0xF00D,
                            contamination_pct: sw.contamination_pct,
                            noise_seed: seed ^ NOISE_SEED_SALT,
                            task: CellTask::Al {
                                strategy: strat,
                                model: model.clone(),
                                budget,
                                batch: sw.batch,
                            },
                        };
                        cells.push(GridCell {
                            idx: cells.len(),
                            pipeline,
                            panel: 0,
                            pair_id: seed,
                            spec,
                        });
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: &str = r#"{
        "name": "fig3",
        "mode": "figure",
        "system": "volta",
        "scale": "smoke",
        "seed": 3
    }"#;

    const SWEEP: &str = r#"{
        "name": "mini",
        "mode": "sweep",
        "system": "eclipse",
        "strategies": ["uncertainty", "random"],
        "models": ["rf", "lr"],
        "budgets": [4, 8],
        "seeds": [1, 2, 3]
    }"#;

    #[test]
    fn figure_expansion_is_split_major() {
        let spec = GridSpec::parse(FIG, None).unwrap();
        assert_eq!(spec.name, "fig3");
        assert_eq!(spec.mode_name(), "figure");
        let cells = spec.expand();
        // smoke: 2 splits × (5 strategies × 1 repeat + proctor) = 12.
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].pipeline, "uncertainty");
        assert_eq!(cells[5].pipeline, "proctor");
        assert_eq!(cells[6].pipeline, "uncertainty");
        assert!(cells.iter().enumerate().all(|(i, c)| c.idx == i));
        // The seed formulas behind results/fig3_smoke.json.
        let scale = RunScale::smoke(3);
        assert_eq!(cells[0].spec.split_seed, scale.seed ^ 0x9E37_79B9);
        assert_eq!(cells[6].spec.split_seed, scale.seed ^ (2 * 0x9E37_79B9));
        assert_eq!(cells[0].spec.pool_seed, scale.seed ^ 101);
        assert_eq!(cells[0].spec.session_seed, scale.seed ^ 0xF00D);
        assert_eq!(cells[6].spec.session_seed, scale.seed ^ (1u64 << 16) ^ 0xF00D);
    }

    #[test]
    fn holdout_figures_expand_one_cell_per_split_and_strategy() {
        let apps = FIG.replace(
            "\"seed\": 3",
            "\"seed\": 3, \"include_proctor\": false, \"strategies\": [\"uncertainty\", \"random\"],
             \"holdout\": {\"apps\": [2, 4], \"combos\": 2}",
        );
        let cells = GridSpec::parse(&apps, None).unwrap().expand();
        // 2 counts × 2 combos × 2 strategies, one session each.
        assert_eq!(cells.len(), 8);
        let panels: Vec<usize> = cells.iter().map(|c| c.panel).collect();
        assert_eq!(panels, [0, 0, 0, 0, 1, 1, 1, 1]);
        let pairs: Vec<u64> = cells.iter().map(|c| c.pair_id).collect();
        assert_eq!(pairs, [0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(cells[1].pipeline, "random");
        let combo_seed = 3 ^ (4u64 << 24) ^ (1 << 8);
        let last = &cells[7].spec;
        assert_eq!(last.holdout, Holdout::Apps { n_seen: 4, shuffle_seed: combo_seed });
        assert_eq!(last.split_seed, combo_seed ^ 0x5);
        assert_eq!(last.pool_seed, combo_seed ^ 0x6);
        assert_eq!(last.session_seed, combo_seed ^ 0x7);

        let decks = FIG.replace(
            "\"seed\": 3",
            "\"seed\": 3, \"include_proctor\": false, \"strategies\": [\"margin\"],
             \"holdout\": {\"decks\": [0, 2]}",
        );
        let cells = GridSpec::parse(&decks, None).unwrap().expand();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.panel == 0));
        let deck_seed = 3 ^ 0xDEC ^ (2u64 << 12);
        assert_eq!(cells[1].spec.holdout, Holdout::Deck(2));
        assert_eq!(cells[1].spec.split_seed, deck_seed);
        assert_eq!(cells[1].spec.pool_seed, deck_seed ^ 0x2);
        assert_eq!(cells[1].spec.session_seed, deck_seed ^ 0x3);
    }

    #[test]
    fn bad_or_unknown_holdout_keys_are_rejected() {
        let with = |holdout: &str| {
            FIG.replace("\"seed\": 3", &format!("\"seed\": 3, \"holdout\": {holdout}"))
        };
        let err = GridSpec::parse(&with("{\"decks\": [0], \"dekcs\": [1]}"), None).unwrap_err();
        assert!(err.to_string().contains("dekcs"), "{err}");
        for bad in [
            "{}",
            "\"decks\"",
            "{\"apps\": [2]}",
            "{\"apps\": [2], \"combos\": 0}",
            "{\"apps\": [0], \"combos\": 2}",
            "{\"apps\": [2], \"combos\": 2, \"decks\": [0]}",
            "{\"decks\": []}",
            "{\"decks\": [\"zero\"]}",
        ] {
            assert!(GridSpec::parse(&with(bad), None).is_err(), "accepted holdout {bad}");
        }
        assert!(GridSpec::parse(&with("{\"decks\": [1]}"), None).is_ok());
    }

    #[test]
    fn figure_scale_override_wins() {
        let over = RunScale::smoke(99);
        let spec = GridSpec::parse(FIG, Some(&over)).unwrap();
        let cells = spec.expand();
        assert_eq!(cells[0].spec.data_seed, 99);
    }

    #[test]
    fn sweep_expansion_is_seed_major_cross_product() {
        let spec = GridSpec::parse(SWEEP, None).unwrap();
        let cells = spec.expand();
        // 3 seeds × 1 extractor × 2 models × 2 strategies × 2 budgets.
        assert_eq!(cells.len(), 24);
        assert_eq!(cells[0].pair_id, 1);
        assert_eq!(cells[8].pair_id, 2);
        // Eclipse's best extractor (MVTS) is the default.
        assert_eq!(cells[0].pipeline, "MVTS+RF+uncertainty+b4");
        assert_eq!(cells[1].pipeline, "MVTS+RF+uncertainty+b8");
        // Distinct cells hash to distinct keys.
        let mut keys: Vec<String> = cells.iter().map(|c| c.spec.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 24);
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        let bad = FIG.replace("\"seed\": 3", "\"seed\": 3, \"sede\": 4");
        let err = GridSpec::parse(&bad, None).unwrap_err();
        assert!(err.to_string().contains("sede"), "{err}");
        let bad = SWEEP.replace("\"rf\"", "\"resnet\"");
        assert!(GridSpec::parse(&bad, None).is_err());
        let bad = SWEEP.replace("[4, 8]", "[]");
        assert!(GridSpec::parse(&bad, None).is_err());
        assert!(GridSpec::parse("{\"mode\": \"figure\"}", None).is_err(), "name required");
    }

    #[test]
    fn contamination_reaches_cells_and_pipeline_names() {
        let src =
            SWEEP.replace("\"seeds\": [1, 2, 3]", "\"seeds\": [1], \"contamination_pct\": 10.0");
        let spec = GridSpec::parse(&src, None).unwrap();
        let cells = spec.expand();
        assert!(cells.iter().all(|c| c.spec.contamination_pct == 10.0));
        assert!(cells[0].pipeline.ends_with("+n10"));
    }
}
