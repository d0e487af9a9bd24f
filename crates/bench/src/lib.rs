//! # alba-bench
//!
//! Benchmarks and reproduction harness for the ALBADross workspace:
//!
//! * `repro` — regenerates every table and figure of the paper
//!   (`cargo run --release -p alba-bench --bin repro -- --help`),
//! * `diag` — the simulator-calibration report,
//! * `benches/*.rs` — six `fn main` benches (`cargo bench -p alba-bench`),
//!   each reporting through one [`Report`] into `results/BENCH_*.json`,
//! * `bench_gate` — compares those points with the ones committed at
//!   `HEAD` through [`gate`].
//!
//! A [`Report`] declares, once per metric, its unit and which way is
//! better, plus the host-independent requirements the bench must meet.
//! The gate compares only the keys declared [`Better::Higher`] or
//! [`Better::Lower`], each with the same tolerance, [`GATE_TOL_PCT`].

#![warn(missing_docs)]

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// How far, in percent of its committed value, a compared key may move
/// in its worse direction before the gate fails.
pub const GATE_TOL_PCT: f64 = 20.0;

/// Which way a metric is better. Only `Higher` and `Lower` keys are
/// compared by the gate; `Info` keys (counts, ratios with their own
/// requirement, sub-resolution figures) are recorded but never compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
    /// Not compared.
    Info,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Key, named for what it measures.
    pub key: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
    /// Declared direction.
    pub better: Better,
}

/// The comparison of a [`Requirement`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// `value > bound`.
    Above,
    /// `value >= bound`.
    AtLeast,
    /// `value <= bound`.
    AtMost,
    /// `value == bound`.
    Exactly,
}

impl Op {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Above => value > bound,
            Op::AtLeast => value >= bound,
            Op::AtMost => value <= bound,
            Op::Exactly => value == bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Above => ">",
            Op::AtLeast => ">=",
            Op::AtMost => "<=",
            Op::Exactly => "==",
        }
    }
}

/// A host-independent bound one reported key must meet on every run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Requirement {
    /// The constrained metric's key.
    pub key: String,
    /// How `value` must compare with `bound`.
    pub op: Op,
    /// The bound.
    pub bound: f64,
}

/// One bench's point: `results/BENCH_<name>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The bench target that wrote it (`cargo bench -p alba-bench --bench <bench>`).
    pub bench: String,
    /// Every reported number, in declaration order.
    pub metrics: Vec<Metric>,
    /// Every declared requirement, in declaration order.
    pub requires: Vec<Requirement>,
}

impl Report {
    /// An empty report for the bench target `bench`.
    pub fn new(bench: &str) -> Self {
        Self { bench: bench.to_string(), metrics: Vec::new(), requires: Vec::new() }
    }

    /// Declares one metric.
    pub fn metric(&mut self, key: &str, value: f64, unit: &str, better: Better) -> &mut Self {
        let (key, unit) = (key.to_string(), unit.to_string());
        self.metrics.push(Metric { key, value, unit, better });
        self
    }

    /// Declares a requirement on an already declared metric.
    pub fn require(&mut self, key: &str, op: Op, bound: f64) -> &mut Self {
        self.requires.push(Requirement { key: key.to_string(), op, bound });
        self
    }

    /// The value reported under `key`.
    fn value(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.key == key).map(|m| m.value)
    }

    /// One line per requirement that is not met, naming its key; a
    /// requirement on a key that was never reported is not met.
    fn unmet(&self) -> Vec<String> {
        self.requires
            .iter()
            .filter_map(|r| {
                let (op, bound) = (r.op.symbol(), r.bound);
                match self.value(&r.key) {
                    Some(v) if r.op.holds(v, bound) => None,
                    Some(v) => Some(format!("{} = {v}, required {op} {bound}", r.key)),
                    None => Some(format!("{} not reported, required {op} {bound}", r.key)),
                }
            })
            .collect()
    }

    /// Prints every metric, writes `results/<file>`, then exits non-zero
    /// after naming every requirement that was not met.
    pub fn finish(&self, file: &str) {
        for m in &self.metrics {
            println!("{:<18} {:<42} {:>16.2} {}", self.bench, m.key, m.value, m.unit);
        }
        let results = workspace_root().join("results");
        std::fs::create_dir_all(&results).expect("create results dir");
        let json = serde_json::to_string_pretty(self).expect("reports serialize") + "\n";
        std::fs::write(results.join(file), json).expect("write the bench point");
        println!("{:<18} wrote results/{file}", self.bench);
        let unmet = self.unmet();
        for line in &unmet {
            eprintln!("{}: requirement not met: {line}", self.bench);
        }
        if !unmet.is_empty() {
            std::process::exit(1);
        }
    }
}

/// The workspace root (`cargo bench` runs with cwd = the package dir).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One key the gate compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// The compared key.
    pub key: String,
    /// Its committed value.
    pub baseline: f64,
    /// Its fresh value.
    pub current: f64,
    /// True when it moved more than [`GATE_TOL_PCT`] in its worse direction.
    pub regressed: bool,
}

/// Compares `current` with the committed point `baseline_json`. `None`
/// when there is no usable baseline: a new bench, or a point in a layout
/// [`Report`] does not read. Otherwise one [`Comparison`] per `Higher` or
/// `Lower` key of `current` that the baseline also reports.
pub fn gate(current: &Report, baseline_json: Option<&str>) -> Option<Vec<Comparison>> {
    let baseline: Report = serde_json::from_str(baseline_json?).ok()?;
    let tol = GATE_TOL_PCT / 100.0;
    let compared = current.metrics.iter().filter_map(|m| {
        let reference = baseline.value(&m.key)?;
        let slack = tol * reference.abs();
        let regressed = match m.better {
            Better::Higher => m.value < reference - slack,
            Better::Lower => m.value > reference + slack,
            Better::Info => return None,
        };
        Some(Comparison { key: m.key.clone(), baseline: reference, current: m.value, regressed })
    });
    Some(compared.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(higher: f64, lower: f64, info: f64) -> Report {
        let mut r = Report::new("demo");
        r.metric("rate_per_s", higher, "1/s", Better::Higher)
            .metric("ns_per_op", lower, "ns", Better::Lower)
            .metric("overhead_pct", info, "%", Better::Info);
        r
    }

    fn json(r: &Report) -> String {
        serde_json::to_string_pretty(r).unwrap()
    }

    fn regressed(rows: &[Comparison]) -> Vec<&str> {
        rows.iter().filter(|c| c.regressed).map(|c| c.key.as_str()).collect()
    }

    #[test]
    fn json_round_trips_with_declared_directions() {
        let mut r = point(1000.0, 50.0, 4.5);
        r.require("overhead_pct", Op::AtMost, 10.0);
        let back: Report = serde_json::from_str(&json(&r)).unwrap();
        assert_eq!(back, r);
        let directions: Vec<Better> = back.metrics.iter().map(|m| m.better).collect();
        assert_eq!(directions, [Better::Higher, Better::Lower, Better::Info]);
    }

    #[test]
    fn unmet_requirements_are_named_by_key() {
        let mut r = point(1000.0, 50.0, 12.0);
        r.require("rate_per_s", Op::Above, 0.0)
            .require("overhead_pct", Op::AtMost, 10.0)
            .require("ns_per_op", Op::Exactly, 50.0)
            .require("hit_rate_pct", Op::AtLeast, 100.0);
        let unmet = r.unmet();
        assert_eq!(unmet.len(), 2, "{unmet:?}");
        assert!(unmet[0].starts_with("overhead_pct = 12"), "{unmet:?}");
        assert!(unmet[1].starts_with("hit_rate_pct not reported"), "{unmet:?}");
        assert!(point(1.0, 1.0, 1.0).unmet().is_empty());
    }

    #[test]
    fn a_quarter_move_the_wrong_way_regresses() {
        let base = json(&point(1000.0, 100.0, 5.0));
        let rows = gate(&point(750.0, 125.0, 5.0), Some(&base)).unwrap();
        assert_eq!(regressed(&rows), ["rate_per_s", "ns_per_op"]);
        // The same quarter in the better direction is not a regression.
        let rows = gate(&point(1250.0, 75.0, 5.0), Some(&base)).unwrap();
        assert!(regressed(&rows).is_empty());
    }

    #[test]
    fn a_fifteen_percent_move_passes_either_way() {
        let base = json(&point(1000.0, 100.0, 5.0));
        for (higher, lower) in [(850.0, 115.0), (1150.0, 85.0)] {
            let rows = gate(&point(higher, lower, 5.0), Some(&base)).unwrap();
            assert_eq!(rows.len(), 2);
            assert!(regressed(&rows).is_empty(), "{rows:?}");
        }
    }

    #[test]
    fn info_keys_are_never_compared() {
        let base = json(&point(1000.0, 100.0, 1.0));
        let rows = gate(&point(1000.0, 100.0, 1000.0), Some(&base)).unwrap();
        assert!(rows.iter().all(|c| c.key != "overhead_pct"), "{rows:?}");
    }

    #[test]
    fn a_key_missing_from_the_baseline_is_skipped() {
        let mut base = point(1000.0, 100.0, 5.0);
        base.metrics.retain(|m| m.key != "ns_per_op");
        let rows = gate(&point(1000.0, 1e9, 5.0), Some(&json(&base))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "rate_per_s");
    }

    #[test]
    fn an_old_flat_baseline_counts_as_none() {
        let flat = r#"{"bench": "demo", "quick": true, "rate_per_s": 1000, "ns_per_op": 100}"#;
        assert_eq!(gate(&point(1.0, 1e9, 5.0), Some(flat)), None);
        assert_eq!(gate(&point(1.0, 1e9, 5.0), Some("not json")), None);
        assert_eq!(gate(&point(1.0, 1e9, 5.0), None), None);
    }
}
