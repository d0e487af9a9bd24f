//! # alba-bench
//!
//! Benchmarks and reproduction harness for the ALBADross workspace:
//!
//! * `repro` — regenerates every table and figure of the paper
//!   (`cargo run --release -p alba-bench --bin repro -- --help`),
//! * `diag` — the simulator-calibration report,
//! * `benches/*.rs` — six `fn main` benches (`cargo bench -p alba-bench`),
//!   each reporting through one [`Report`] into `results/BENCH_*.json`,
//! * `bench_gate` — judges alternating parent/change passes of those
//!   benches, or of perfbench, by one rule, [`judge`].
//!
//! A [`Report`] declares, once per metric, its unit and which way is
//! better, plus the host-independent requirements the bench must meet.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// The [`judge`] bound, in percent of the parent's median, of every
/// `Higher`/`Lower` bench key.
pub const GATE_TOL_PCT: f64 = 20.0;

/// Which way a metric is better. Only `Higher` and `Lower` keys are
/// judged by the gate; `Info` keys (counts, ratios with their own
/// requirement, sub-resolution figures) are recorded but never judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
    /// Not judged.
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

/// A host-independent bound one reported key must meet: on each run of
/// the bench alone, and in the gate on the change's medians.
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
    pub fn unmet(&self) -> Vec<String> {
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

    /// The point of several passes of one bench: the last pass with each
    /// metric's value replaced by its median over the passes that report
    /// it, so [`Report::unmet`] on it judges the requirements on medians.
    pub fn median(passes: &[Report]) -> Option<Report> {
        let mut point = passes.last()?.clone();
        for m in &mut point.metrics {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.value(&m.key)).collect();
            m.value = Spread::of(&values).median;
        }
        Some(point)
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

/// One side's median and quartiles over its runs of a metric, as
/// Python's `statistics.median` and `statistics.quantiles(n=4,
/// method="inclusive")` compute them; under two values, both quartiles
/// are the value (NaN for none).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `values`, in any order.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(f64::NAN);
            return Self { median: x, q1: x, q3: x };
        }
        let quartile = |i: usize| {
            let (j, delta) = (i * (n - 1) / 4, i * (n - 1) % 4);
            (v[j] * (4 - delta) as f64 + v[j + 1] * delta as f64) / 4.0
        };
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Self { median, q1: quartile(1), q3: quartile(3) }
    }
}

/// What paired runs show about one metric; see [`judge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// The change wins >= 9/10 of the pairs and beats the parent's median
    /// by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse by this fraction, beyond the bound.
    Worse(f64),
    /// The spread is this fraction, beyond the bound, and not every
    /// change run beats every parent run: the runs cannot show the
    /// metric held.
    Unresolved(f64),
    /// None of these.
    Within,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Gain => write!(f, "gain"),
            Verdict::Worse(by) => write!(f, "worse by {:.1}%", by * 100.0),
            Verdict::Unresolved(spread) => write!(f, "unresolved (spread {:.1}%)", spread * 100.0),
            Verdict::Within => write!(f, "within"),
        }
    }
}

/// One metric judged over paired runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judgement {
    /// The parent's runs.
    pub parent: Spread,
    /// The change's runs.
    pub change: Spread,
    /// Pairs the change wins; a tie counts for neither side.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric over `(parent, change)` pairs: `better` is its
/// direction (`Info` counts as `Higher`), `bound` the largest worse move
/// and spread that pass, both as fractions of the parent's median. The
/// spread is the larger side's interquartile range.
pub fn judge(pairs: &[(f64, f64)], better: Better, bound: f64) -> Judgement {
    let beats = |c: f64, p: f64| if better == Better::Lower { c < p } else { c > p };
    let wins = pairs.iter().filter(|&&(p, c)| beats(c, p)).count();
    let (pv, cv): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (parent, change) = (Spread::of(&pv), Spread::of(&cv));
    let (pm, iqr) = (parent.median, parent.q3 - parent.q1);
    let gap = if better == Better::Lower { pm - change.median } else { change.median - pm };
    let scale = |x: f64| if pm == 0.0 { 0.0 } else { x / pm.abs() };
    let (worse, spread) = (scale(-gap), scale(iqr.max(change.q3 - change.q1)));
    let every_run_better = cv.iter().all(|&c| pv.iter().all(|&p| beats(c, p)));
    let verdict = if wins * 10 >= 9 * pairs.len() && gap > iqr {
        Verdict::Gain
    } else if worse > bound {
        Verdict::Worse(worse)
    } else if spread > bound && !every_run_better {
        Verdict::Unresolved(spread)
    } else {
        Verdict::Within
    };
    Judgement { parent, change, wins, verdict }
}

/// One side's pass in a runs dir.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Every reported value, by key.
    pub values: BTreeMap<String, f64>,
    /// perfbench's operations attempted and failed.
    pub ops: (u64, u64),
    /// perfbench's own check (true for a `cargo bench` pass).
    pub correct: bool,
    /// The points of a `cargo bench` pass.
    pub reports: Vec<Report>,
}

#[derive(Default, Deserialize)]
struct PerfLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, PerfValue>,
}

#[derive(Deserialize)]
struct PerfValue {
    value: f64,
}

impl Pass {
    /// A perfbench run's result line (`<side>-<seed>.json`); a missing or
    /// unreadable line reads as an incorrect run with nothing in it.
    pub fn perf(path: &Path) -> Self {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let line: PerfLine = serde_json::from_str(text.trim()).unwrap_or_default();
        let values = line.metrics.into_iter().map(|(k, m)| (k, m.value)).collect();
        Pass { values, ops: (line.attempted, line.failed), correct: line.correct, reports: vec![] }
    }

    /// One `cargo bench` pass's points (`<side>-<pass>/BENCH_*.json`), by
    /// file name; a file that does not parse as a [`Report`] is left out.
    pub fn benches(dir: &Path) -> Self {
        let entries = std::fs::read_dir(dir).into_iter().flatten();
        let mut files: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
        files.sort();
        let read = |f: &PathBuf| serde_json::from_str(&std::fs::read_to_string(f).ok()?).ok();
        let reports: Vec<Report> = files.iter().filter_map(read).collect();
        let values = reports.iter().flat_map(|r| &r.metrics).map(|m| (m.key.clone(), m.value));
        Pass { values: values.collect(), ops: (0, 0), correct: true, reports }
    }
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

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn each_verdict_has_a_case() {
        let p: Vec<f64> = (100..110).map(f64::from).collect();
        let c: Vec<f64> = p.iter().map(|v| v - 10.0).collect();
        assert_eq!(judge(&pairs(&p, &c), Better::Lower, 0.2).verdict, Verdict::Gain);

        let worse = judge(&pairs(&[100.0; 3], &[70.0; 3]), Better::Higher, 0.2);
        assert_eq!(worse.verdict, Verdict::Worse(0.3));
        assert_eq!(worse.verdict.to_string(), "worse by 30.0%");

        let wide = pairs(&[100.0, 200.0, 100.0, 200.0], &[150.0; 4]);
        let unresolved = judge(&wide, Better::Lower, 0.2);
        assert_eq!(unresolved.verdict, Verdict::Unresolved(100.0 / 150.0));
        assert_eq!(unresolved.verdict.to_string(), "unresolved (spread 66.7%)");

        let within =
            judge(&pairs(&[100.0, 101.0, 99.0], &[102.0, 100.0, 98.0]), Better::Lower, 0.25);
        assert_eq!(within.verdict, Verdict::Within);
        assert_eq!((within.wins, within.parent.median, within.change.median), (2, 100.0, 100.0));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let tied = pairs(&[5.0, 5.0, 5.0], &[5.0, 5.0, 4.0]);
        assert_eq!(judge(&tied, Better::Lower, 0.2).wins, 1);
        assert_eq!(judge(&tied, Better::Higher, 0.2).wins, 0);
        let all_tied = judge(&pairs(&[5.0; 4], &[5.0; 4]), Better::Higher, 0.2);
        assert_eq!((all_tied.wins, all_tied.verdict), (0, Verdict::Within));
    }

    #[test]
    fn every_run_better_is_exempt_from_unresolved() {
        // The parent's spread (450 over a median of 150) is far wider than
        // the bound, and the gap (90) is inside the parent's IQR.
        let parent = [100.0, 150.0, 1000.0];
        let exempt = judge(&pairs(&parent, &[50.0, 60.0, 90.0]), Better::Lower, 0.2);
        assert_eq!(exempt.verdict, Verdict::Within);
        let one_run_not_better = judge(&pairs(&parent, &[50.0, 60.0, 120.0]), Better::Lower, 0.2);
        assert_eq!(one_run_not_better.verdict, Verdict::Unresolved(3.0));
    }

    #[test]
    fn quartiles_match_pythons_inclusive_method() {
        // Literals printed by `statistics.median` and
        // `statistics.quantiles(v, n=4, method="inclusive")` (Python 3.11).
        let cases: [(&[f64], [f64; 3]); 5] = [
            (&[5.5], [5.5, 5.5, 5.5]),
            (&[3.0, 1.0], [2.0, 1.5, 2.5]),
            (&[1.0, 2.0, 4.0], [2.0, 1.5, 3.0]),
            (&[0.7, 0.1, 0.4, 1.3], [0.55, 0.32500000000000007, 0.8499999999999999]),
            (&[9.1, 2.3, 7.7, 0.5, 3.3, 6.1, 8.8, 1.9, 4.4, 5.0], [4.7, 2.55, 7.300000000000001]),
        ];
        for (values, [median, q1, q3]) in cases {
            assert_eq!(Spread::of(values), Spread { median, q1, q3 }, "{values:?}");
        }
        assert!(Spread::of(&[]).median.is_nan());
    }

    #[test]
    fn one_pass_of_each_kind_parses() {
        let dir = std::env::temp_dir().join(format!("alba-bench-pass-{}", std::process::id()));
        let benches = dir.join("change-1");
        std::fs::create_dir_all(&benches).unwrap();
        let line = r#"{"correct": true, "attempted": 52000, "failed": 0, "metrics":
            {"setup_s": {"value": 0.85, "unit": "s"}, "diag_f1": {"value": 1e-7, "unit": ""}}}"#;
        std::fs::write(dir.join("change-101.json"), format!("{}\n", line.replace('\n', "")))
            .unwrap();
        std::fs::write(benches.join("BENCH_demo.json"), json(&point(1000.0, 50.0, 4.5))).unwrap();
        std::fs::write(benches.join("BENCH_torn.json"), "{\"bench\": \"to").unwrap();
        std::fs::write(benches.join("notes.txt"), "not a point").unwrap();

        let perf = Pass::perf(&dir.join("change-101.json"));
        assert!(perf.correct && perf.ops == (52000, 0) && perf.reports.is_empty());
        let values: Vec<(&str, f64)> = perf.values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(values, [("diag_f1", 1e-7), ("setup_s", 0.85)]);
        assert_eq!(Pass::perf(&dir.join("parent-101.json")), Pass::default());

        let pass = Pass::benches(&benches);
        assert_eq!((pass.reports.len(), pass.ops, pass.correct), (1, (0, 0), true));
        assert_eq!(pass.reports[0], point(1000.0, 50.0, 4.5));
        assert_eq!((pass.values.get("ns_per_op"), pass.values.get("setup_s")), (Some(&50.0), None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn requirements_are_judged_on_the_median_pass() {
        let passes = |overheads: [f64; 3]| -> Vec<Report> {
            let mut out = Vec::new();
            for o in overheads {
                let mut r = point(1000.0, 50.0, o);
                r.require("overhead_pct", Op::AtMost, 10.0);
                out.push(r);
            }
            out
        };
        let one_loud = passes([12.0, 4.0, 5.0]);
        assert_eq!(one_loud[0].unmet().len(), 1);
        assert!(Report::median(&one_loud).unwrap().unmet().is_empty());

        let one_quiet = passes([9.0, 12.0, 13.0]);
        assert!(one_quiet[0].unmet().is_empty());
        let unmet = Report::median(&one_quiet).unwrap().unmet();
        assert_eq!(unmet, ["overhead_pct = 12, required <= 10"]);
        assert_eq!(Report::median(&[]), None);
    }
}
