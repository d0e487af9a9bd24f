//! The active-learning feedback loop: uncertainty-gated label requests,
//! a bounded request queue, oracle labelling and model retraining.
//!
//! The paper's framework keeps an analyst in the loop — ALBADross asks
//! for labels only where the deployed model is unsure (Sec. III-C). The
//! service reproduces that online: windows whose least-confidence
//! uncertainty clears a threshold become [`LabelRequest`]s in a bounded
//! queue (an analyst has finite attention; overflow is counted, not
//! buffered). Serviced requests are labelled by the replay oracle
//! (ground truth), folded into the training set, and a fresh forest is
//! fitted and hot-swapped into every shard.

use crate::shard::WindowOutcome;
use alba_data::{Dataset, Matrix};
use alba_ml::Diagnosis;
use alba_ml::{Classifier, DiagnosisModel, FittedModel, ForestParams, Presorted, RandomForest};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// One pending "please label this window" request.
#[derive(Clone, Debug)]
pub struct LabelRequest {
    /// Fleet node the window came from.
    pub node: usize,
    /// Tick of the window's last sample.
    pub at: usize,
    /// What the model thought (kept for drilldown/auditing).
    pub predicted: Diagnosis,
    /// The uncertainty that triggered the request.
    pub uncertainty: f64,
    /// Scaled model-input row — becomes a training sample once labelled.
    pub row: Vec<f64>,
}

impl LabelRequest {
    /// Builds a request from a gated window outcome.
    pub fn from_window(w: &WindowOutcome) -> Self {
        Self {
            node: w.node,
            at: w.at,
            predicted: w.diagnosis.clone(),
            uncertainty: w.uncertainty,
            row: w.row.clone(),
        }
    }
}

/// Feedback-loop counters, serialisable into the service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FeedbackStats {
    /// Requests enqueued.
    pub requested: u64,
    /// Requests shed on a full queue.
    pub dropped: u64,
    /// Requests labelled by the oracle and folded into training.
    pub serviced: u64,
    /// Retrain rounds completed.
    pub retrains: u64,
}

/// Bounded FIFO of pending label requests.
#[derive(Clone, Debug)]
pub struct LabelQueue {
    buf: VecDeque<LabelRequest>,
    capacity: usize,
    stats: FeedbackStats,
}

impl LabelQueue {
    /// An empty queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "label queue capacity must be positive");
        Self { buf: VecDeque::new(), capacity, stats: FeedbackStats::default() }
    }

    /// Enqueues a request; returns `false` (and counts a drop) when full.
    pub fn offer(&mut self, req: LabelRequest) -> bool {
        if self.buf.len() >= self.capacity {
            self.stats.dropped += 1;
            return false;
        }
        self.stats.requested += 1;
        self.buf.push_back(req);
        true
    }

    /// Dequeues up to `n` requests, oldest first, counting them serviced.
    pub fn take(&mut self, n: usize) -> Vec<LabelRequest> {
        let n = n.min(self.buf.len());
        let out: Vec<LabelRequest> = self.buf.drain(..n).collect();
        self.stats.serviced += out.len() as u64;
        out
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Read-only view of the pending requests, oldest first — the
    /// control plane's "what does the analyst owe us" query.
    pub fn pending(&self) -> impl Iterator<Item = &LabelRequest> + '_ {
        self.buf.iter()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The queue's counters (retrains are tallied by the caller).
    pub fn stats(&self) -> FeedbackStats {
        self.stats
    }

    /// Counts one completed retrain round.
    pub fn record_retrain(&mut self) {
        self.stats.retrains += 1;
    }
}

/// Accumulates the labelled training set and refits the deployed model.
/// The initial fit presorts the training matrix and drops the table, as
/// a plain forest fit does. The first fit after an
/// [`absorb`](Retrainer::absorb) builds a [`Presorted`] table (~16 B per
/// cell) and keeps it; later fits merge the rows absorbed since into it,
/// so a refit never sorts the matrix again. A service that never
/// retrains never holds a table.
#[derive(Clone, Debug)]
pub struct Retrainer {
    x: Matrix,
    /// `x` presorted once refits begin; each fit merges the rows
    /// absorbed since the last.
    table: Option<Presorted>,
    y: Vec<usize>,
    class_names: Vec<String>,
    params: ForestParams,
    rounds: u64,
    fits: u64,
}

impl Retrainer {
    /// Seeds the retrainer with the offline training split (already
    /// projected and scaled — the same space the shards emit rows in).
    pub fn new(train: &Dataset, params: ForestParams) -> Self {
        Self {
            x: train.x.clone(),
            table: None,
            y: train.y.clone(),
            class_names: train.encoder.names().to_vec(),
            params,
            rounds: 0,
            fits: 0,
        }
    }

    /// Class names, index-aligned with the fitted model's outputs.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Current training-set size.
    pub fn n_samples(&self) -> usize {
        self.x.rows()
    }

    /// How many times [`Retrainer::fit`] has run. Test support: the
    /// warm-restart tests count the fits a restart makes.
    #[doc(hidden)]
    pub fn fits(&self) -> u64 {
        self.fits
    }

    /// Fits a forest on the current training set. Before any round has
    /// been absorbed the presorted table is built for this fit only;
    /// afterwards it is kept, and each fit first merges the rows absorbed
    /// since the last one into it (all of a warm restart's journalled
    /// rows at once).
    pub fn fit(&mut self) -> Arc<DiagnosisModel> {
        self.fits += 1;
        let mut f = RandomForest::new(ForestParams {
            // Vary the bootstrap per round so a refit is a genuinely new
            // model, while staying deterministic in the base seed.
            seed: self.params.seed.wrapping_add(self.rounds),
            ..self.params
        });
        let n_classes = self.class_names.len();
        if self.rounds == 0 {
            f.fit(&self.x, &self.y, n_classes);
        } else {
            let table = self.table.get_or_insert_with(|| Presorted::new(&self.x));
            table.merge(&self.x);
            f.fit_presorted(table, &self.y, n_classes);
        }
        Arc::new(DiagnosisModel::new(FittedModel::Forest(f), self.class_names.clone()))
    }

    /// Adds oracle-labelled rows to the training set and starts the next
    /// round, without refitting. Rows with labels outside the known
    /// classes are skipped.
    pub fn absorb(&mut self, labelled: Vec<(Vec<f64>, String)>) {
        for (row, label) in labelled {
            if let Some(y) = self.class_names.iter().position(|n| *n == label) {
                self.x.push_row(&row);
                self.y.push(y);
            }
        }
        self.rounds += 1;
    }

    /// Absorbs one round of oracle-labelled rows and refits.
    pub fn fold_in(&mut self, labelled: Vec<(Vec<f64>, String)>) -> Arc<DiagnosisModel> {
        self.absorb(labelled);
        self.fit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at: usize) -> LabelRequest {
        LabelRequest {
            node: 0,
            at,
            predicted: Diagnosis { label: "healthy".into(), confidence: 0.4 },
            uncertainty: 0.6,
            row: vec![0.0, 1.0],
        }
    }

    #[test]
    fn queue_bounds_and_counts() {
        let mut q = LabelQueue::new(2);
        assert!(q.offer(req(0)));
        assert!(q.offer(req(1)));
        assert!(!q.offer(req(2)), "queue is bounded");
        let taken = q.take(5);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].at, 0, "oldest first");
        let st = q.stats();
        assert_eq!((st.requested, st.dropped, st.serviced), (2, 1, 2));
    }

    fn toy_train() -> Dataset {
        let rows = vec![vec![0.1, 0.0], vec![0.2, 0.1], vec![0.9, 1.0], vec![0.8, 0.9]];
        train_set(Matrix::from_rows(&rows), vec![0, 0, 1, 1], &["healthy", "memleak"])
    }

    /// A training split of `x` labelled `y`, one run per row.
    fn train_set(x: Matrix, y: Vec<usize>, names: &[&str]) -> Dataset {
        let meta = (0..x.rows())
            .map(|i| alba_data::SampleMeta {
                app: "BT".into(),
                input_deck: 0,
                run_id: i,
                node: 0,
                node_count: 1,
                intensity_pct: 0,
            })
            .collect();
        let encoder = alba_data::LabelEncoder::from_names(names);
        let features = (0..x.cols()).map(|f| format!("f{f}")).collect();
        Dataset::new(x, y, encoder, meta, features)
    }

    /// The refit of each round, from the kept table with the absorbed
    /// rows merged in, serializes exactly as a fresh forest fitted on
    /// the grown matrix with that round's seed.
    #[test]
    fn refits_match_fresh_fits_on_the_grown_matrix() {
        let row = |i: usize| vec![(i * 37 % 11) as f64 / 10.0, (i * 13 % 7) as f64, (i % 5) as f64];
        let label = |i: usize| (i * 7 + i / 3) % 3;
        let names = ["healthy", "memleak", "cpuoccupy"];
        let mut x = Matrix::from_rows(&(0..60).map(row).collect::<Vec<_>>());
        let mut y: Vec<usize> = (0..60).map(label).collect();
        let train = train_set(x.clone(), y.clone(), &names);
        let params = ForestParams { n_estimators: 5, seed: 9, ..ForestParams::default() };
        let mut rt = Retrainer::new(&train, params);
        let mut next = 60;
        for round in 1..=3u64 {
            // Every column of rows 60.. ties values of earlier rows.
            let labelled: Vec<(Vec<f64>, String)> = (next..next + 4 * round as usize)
                .map(|i| (row(i), names[label(i + 1)].to_string()))
                .collect();
            next += labelled.len();
            for (r, name) in &labelled {
                x.push_row(r);
                y.push(names.iter().position(|n| n == name).unwrap());
            }
            let model = rt.fold_in(labelled);
            let mut fresh = RandomForest::new(ForestParams { seed: 9 + round, ..params });
            fresh.fit(&x, &y, names.len());
            let names = names.map(String::from).to_vec();
            let want = DiagnosisModel::new(FittedModel::Forest(fresh), names);
            assert_eq!(model.to_json(), want.to_json(), "round {round}");
        }
    }

    #[test]
    fn the_table_is_kept_only_once_a_round_is_absorbed() {
        let params = ForestParams { n_estimators: 3, ..ForestParams::default() };
        let mut rt = Retrainer::new(&toy_train(), params);
        rt.fit();
        assert!(rt.table.is_none(), "the initial fit drops its table");
        rt.absorb(vec![(vec![0.15, 0.05], "healthy".into())]);
        assert!(rt.table.is_none(), "absorbing does not presort");
        rt.fit();
        assert_eq!(rt.table.as_ref().map(Presorted::n_rows), Some(5), "the refit keeps it");
        rt.fold_in(vec![(vec![0.85, 0.95], "memleak".into())]);
        assert_eq!(rt.table.as_ref().map(Presorted::n_rows), Some(6), "later refits merge");
    }

    #[test]
    fn fold_in_grows_training_set_and_refits() {
        let params = ForestParams { n_estimators: 7, ..ForestParams::default() };
        let mut rt = Retrainer::new(&toy_train(), params);
        assert_eq!(rt.n_samples(), 4);
        let before = rt.fit();
        let model = rt.fold_in(vec![
            (vec![0.15, 0.05], "healthy".into()),
            (vec![0.85, 0.95], "memleak".into()),
            (vec![0.5, 0.5], "not-a-class".into()),
        ]);
        assert_eq!(rt.n_samples(), 6, "unknown labels are skipped");
        let x = Matrix::from_rows(&[vec![0.1, 0.0], vec![0.9, 1.0]]);
        let d = model.diagnose(&x);
        assert_eq!(d[0].label, "healthy");
        assert_eq!(d[1].label, "memleak");
        // The refreshed model is a distinct artifact.
        assert!(!Arc::ptr_eq(&before, &model));
    }
}
