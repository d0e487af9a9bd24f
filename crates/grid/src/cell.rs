//! Content-addressed grid cells: the canonical cell spec, its store
//! key, and the pure `run_cell` evaluator.
//!
//! A [`CellSpec`] is *self-contained*: every seed the evaluation
//! consumes (split, seed-pool, session, noise) is stored explicitly, so
//! `run_cell` is a pure function of the spec alone — no grid-level
//! context leaks in. That is what makes memoisation safe across specs:
//! a cell computed for a partial sweep is byte-for-byte the cell the
//! full sweep would compute, so its store entry ([`CellSpec::key`],
//! FNV over the canonical JSON plus [`CELL_REV`]) is a legitimate hit
//! for any spec that expands to it.
//!
//! Bump [`CELL_REV`] whenever the evaluation semantics change — old
//! store entries then miss instead of silently serving stale results.

use alba_active::{flip_labels, run_batched_session, SessionConfig, SessionResult, Strategy};
use alba_ml::ModelSpec;
use alba_telemetry::Scale;
use albadross::{
    prepare_split, run_proctor_session, seed_and_pool, seed_and_pool_filtered, FeatureMethod,
    ProctorConfig, SeedPool, SplitConfig, System, SystemData,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Version stamp hashed into every cell key. Bump on any change to the
/// evaluation semantics of [`run_cell`].
pub const CELL_REV: u32 = 1;

/// What one cell evaluates: an active-learning session or a Proctor
/// baseline session.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CellTask {
    /// One pool-based AL session.
    Al {
        /// Query strategy.
        strategy: Strategy,
        /// Fully resolved supervised model.
        model: ModelSpec,
        /// Label budget.
        budget: usize,
        /// Labels per re-train (1 = the paper's protocol).
        batch: usize,
    },
    /// One Proctor semi-supervised session.
    Proctor {
        /// Full Proctor configuration (autoencoder, head, budget, seed).
        config: ProctorConfig,
    },
}

/// The split policy: which samples may seed the labeled set and which
/// form the test set. The unlabeled pool is always every other training
/// sample (the full production pool).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Holdout {
    /// Seed from every application; test on the whole stratified test
    /// side (Figs. 3 and 5).
    Stratified,
    /// Previously unseen applications (Fig. 6): seed only from the first
    /// `n_seen` applications after a shuffle seeded with `shuffle_seed`;
    /// test only on the other applications.
    Apps {
        /// Applications the seed set may draw from.
        n_seen: usize,
        /// Seed of the application shuffle.
        shuffle_seed: u64,
    },
    /// Previously unseen input deck (Fig. 8): seed from every other
    /// deck; test only on this one.
    Deck(usize),
}

/// The canonical, content-addressed description of one grid cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// Evaluation-semantics version ([`CELL_REV`]).
    pub rev: u32,
    /// System whose campaign feeds the cell.
    pub system: System,
    /// Feature-extraction method.
    pub method: FeatureMethod,
    /// Campaign scale.
    pub campaign: Scale,
    /// Campaign/feature generation seed.
    pub data_seed: u64,
    /// Split / feature-selection configuration.
    pub split: SplitConfig,
    /// Stratified-split seed.
    pub split_seed: u64,
    /// Seed-set/pool decomposition seed.
    pub pool_seed: u64,
    /// Which samples seed the labeled set and which are tested on.
    pub holdout: Holdout,
    /// Session seed (strategy tie-breaks + model).
    pub session_seed: u64,
    /// Fraction (percent) of pool labels flipped before the session.
    pub contamination_pct: f64,
    /// Label-flip seed.
    pub noise_seed: u64,
    /// The session the cell runs.
    pub task: CellTask,
}

impl CellSpec {
    /// The cell's content-addressed store key (16 hex chars).
    pub fn key(&self) -> String {
        alba_store::key_of("grid-cell", self)
    }
}

/// The result of one evaluated cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The spec's content key (for audit; recomputed on load).
    pub key: String,
    /// The spec that produced this result.
    pub spec: CellSpec,
    /// Seed-set size of the cell's split.
    pub seed_count: usize,
    /// Unlabeled-pool size of the cell's split.
    pub pool_len: usize,
    /// How many pool labels the contamination axis flipped.
    pub labels_flipped: usize,
    /// Class names of the dataset (for drill-downs).
    pub class_names: Vec<String>,
    /// Full session history.
    pub session: SessionResult,
}

impl CellResult {
    /// Final F1 of the session (last query, or the seed model).
    pub fn final_f1(&self) -> f64 {
        self.session.records.last().map(|r| r.scores.f1).unwrap_or(self.session.initial_scores.f1)
    }

    /// Final false-alarm rate.
    pub fn final_false_alarm(&self) -> f64 {
        self.session
            .records
            .last()
            .map(|r| r.scores.false_alarm_rate)
            .unwrap_or(self.session.initial_scores.false_alarm_rate)
    }

    /// Final anomaly-miss rate.
    pub fn final_miss_rate(&self) -> f64 {
        self.session
            .records
            .last()
            .map(|r| r.scores.anomaly_miss_rate)
            .unwrap_or(self.session.initial_scores.anomaly_miss_rate)
    }
}

/// The split-level slice of a cell spec: everything that determines the
/// prepared split + seed/pool (+ contamination), and nothing session
/// specific — cells sharing these fields share one cached split.
#[derive(Serialize)]
struct SplitIdentity {
    system: System,
    method: FeatureMethod,
    campaign: Scale,
    data_seed: u64,
    split: SplitConfig,
    split_seed: u64,
    pool_seed: u64,
    holdout: Holdout,
    contamination_pct: f64,
    noise_seed: u64,
}

/// One prepared split with its (possibly contaminated) decomposition.
struct SplitInstance {
    test: alba_data::Dataset,
    seed_pool: SeedPool,
    labels_flipped: usize,
}

/// Process-level split cache: figure grids re-use one split across the
/// ~6 methods evaluated on it, so recomputing the (expensive) chi-square
/// selection per cell would multiply wall time for no result change.
/// Lookups and inserts only — never iterated — and bounded.
static SPLIT_CACHE: Mutex<Option<BTreeMap<String, Arc<SplitInstance>>>> = Mutex::new(None);

/// Distinct splits kept in memory; a sweep touching more recycles.
const SPLIT_CACHE_CAP: usize = 8;

fn cached_split(spec: &CellSpec, data: &SystemData) -> Arc<SplitInstance> {
    let ident = SplitIdentity {
        system: spec.system,
        method: spec.method,
        campaign: spec.campaign,
        data_seed: spec.data_seed,
        split: spec.split,
        split_seed: spec.split_seed,
        pool_seed: spec.pool_seed,
        holdout: spec.holdout,
        contamination_pct: spec.contamination_pct,
        noise_seed: spec.noise_seed,
    };
    let key = alba_store::key_of("grid-split", &ident);
    if let Some(hit) = SPLIT_CACHE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .and_then(|m| m.get(&key).cloned())
    {
        return hit;
    }
    let split = prepare_split(&data.dataset, &spec.split, spec.split_seed);
    let (mut seed_pool, test) = match spec.holdout {
        Holdout::Stratified => (seed_and_pool(&split.train, None, spec.pool_seed), split.test),
        Holdout::Apps { n_seen, shuffle_seed } => {
            let mut apps = data.dataset.applications();
            assert!(n_seen < apps.len(), "need at least one held-out application");
            apps.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
            apps.truncate(n_seen);
            let seed_pool = seed_and_pool(&split.train, Some(&apps), spec.pool_seed);
            let test_idx = split.test.indices_where(|m, _| !apps.contains(&m.app));
            (seed_pool, split.test.select(&test_idx))
        }
        Holdout::Deck(deck) => {
            let seed_pool =
                seed_and_pool_filtered(&split.train, |m| m.input_deck != deck, spec.pool_seed);
            let test_idx = split.test.indices_where(|m, _| m.input_deck == deck);
            (seed_pool, split.test.select(&test_idx))
        }
    };
    assert!(!test.is_empty(), "{:?} leaves no test samples", spec.holdout);
    let n_classes = seed_pool.pool.n_classes();
    let labels_flipped =
        flip_labels(&mut seed_pool.pool.y, n_classes, spec.contamination_pct, spec.noise_seed);
    let inst = Arc::new(SplitInstance { test, seed_pool, labels_flipped });
    let mut guard = SPLIT_CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    let map = guard.get_or_insert_with(BTreeMap::new);
    if map.len() >= SPLIT_CACHE_CAP {
        map.clear();
    }
    map.insert(key, inst.clone());
    inst
}

/// Evaluates one cell. Pure in the spec: equal specs produce
/// bit-identical results regardless of worker, process, or which grid
/// asked.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    let data = SystemData::generate(spec.system, spec.method, spec.campaign, spec.data_seed);
    let inst = cached_split(spec, &data);
    let session = match &spec.task {
        CellTask::Al { strategy, model, budget, batch } => run_batched_session(
            model,
            &inst.seed_pool.seed_set,
            &inst.seed_pool.pool,
            &inst.test,
            &SessionConfig {
                strategy: *strategy,
                budget: *budget,
                target_f1: None,
                seed: spec.session_seed,
            },
            (*batch).max(1),
        ),
        CellTask::Proctor { config } => {
            run_proctor_session(&inst.seed_pool.seed_set, &inst.seed_pool.pool, &inst.test, config)
        }
    };
    CellResult {
        key: spec.key(),
        spec: spec.clone(),
        seed_count: inst.seed_pool.seed_set.len(),
        pool_len: inst.seed_pool.pool.len(),
        labels_flipped: inst.labels_flipped,
        class_names: data.dataset.encoder.names().to_vec(),
        session,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albadross::RunScale;

    fn smoke_spec(session_seed: u64) -> CellSpec {
        let scale = RunScale::smoke(3);
        CellSpec {
            rev: CELL_REV,
            system: System::Volta,
            method: FeatureMethod::Mvts,
            campaign: Scale::Smoke,
            data_seed: 3,
            split: scale.split,
            split_seed: 3 ^ 0x9E37_79B9,
            pool_seed: 3 ^ 101,
            holdout: Holdout::Stratified,
            session_seed,
            contamination_pct: 0.0,
            noise_seed: 0,
            task: CellTask::Al {
                strategy: Strategy::Uncertainty,
                model: scale.model(true),
                budget: 4,
                batch: 1,
            },
        }
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        let a = smoke_spec(7);
        assert_eq!(a.key(), a.key(), "key is a pure function");
        let mut b = smoke_spec(7);
        b.session_seed = 8;
        assert_ne!(a.key(), b.key(), "different seeds, different cells");
        let mut c = smoke_spec(7);
        c.rev = CELL_REV + 1;
        assert_ne!(a.key(), c.key(), "rev bump invalidates old entries");
        let mut d = smoke_spec(7);
        d.holdout = Holdout::Deck(0);
        assert_ne!(a.key(), d.key(), "the split policy is part of the cell");
    }

    #[test]
    fn run_cell_is_deterministic_and_round_trips_json() {
        let spec = smoke_spec(7);
        let r1 = run_cell(&spec);
        let r2 = run_cell(&spec);
        let j1 = serde_json::to_string(&r1).unwrap();
        let j2 = serde_json::to_string(&r2).unwrap();
        assert_eq!(j1, j2, "equal specs → byte-identical results");
        assert_eq!(r1.session.records.len(), 4, "budget honoured");
        assert!(r1.seed_count > 0 && r1.pool_len > 0);

        // Serialise → parse → re-serialise is byte-stable (the memo
        // path's normalisation invariant).
        let parsed: CellResult = serde_json::from_str(&j1).unwrap();
        let j3 = serde_json::to_string(&parsed).unwrap();
        assert_eq!(j1, j3, "JSON round-trip must be bit-exact");
    }

    #[test]
    fn holdout_changes_the_split_under_equal_seeds() {
        let stratified = run_cell(&smoke_spec(7));
        let mut deck = smoke_spec(7);
        deck.holdout = Holdout::Deck(1);
        let held_out = run_cell(&deck);
        // Same split and pool seeds: only the holdout tells the cached
        // splits apart, and deck 1's test side is a strict subset.
        assert_ne!(
            serde_json::to_string(&stratified.session).unwrap(),
            serde_json::to_string(&held_out.session).unwrap(),
            "a held-out deck must not reuse the stratified split"
        );
    }

    #[test]
    #[should_panic(expected = "leaves no test samples")]
    fn a_missing_deck_is_rejected() {
        let mut spec = smoke_spec(7);
        spec.holdout = Holdout::Deck(7);
        run_cell(&spec);
    }

    #[test]
    fn contamination_changes_the_session_and_is_counted() {
        let clean = smoke_spec(7);
        let mut dirty = smoke_spec(7);
        dirty.contamination_pct = 25.0;
        dirty.noise_seed = 99;
        let rc = run_cell(&clean);
        let rd = run_cell(&dirty);
        assert_eq!(rc.labels_flipped, 0);
        assert!(rd.labels_flipped > 0, "contaminated cell flips pool labels");
        assert_ne!(clean.key(), dirty.key());
    }
}
