//! Sample statistics and the result line.

use alba_obs::HistogramSnapshot;

/// Nearest-rank `q`-quantile of `xs` (`0 < q <= 1`); `xs` need not be
/// sorted. Panics on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples strictly above the `q`-quantile's rank: what a percentile
/// "rests on".
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The part of a registry histogram recorded between two snapshots of it.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .map(|&(lo, c)| {
            let old = before.buckets.iter().find(|b| b.0 == lo).map_or(0, |b| b.1);
            (lo, c - old)
        })
        .filter(|&(_, c)| c > 0)
        .collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: after.min,
        max: after.max,
        buckets,
    }
}

/// `q`-quantile of a bucketed registry histogram: the lower bound of the
/// bucket holding the rank (0 when empty).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = ((q * h.count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(lo, c) in &h.buckets {
        seen += c;
        if seen >= rank {
            return lo as f64;
        }
    }
    0.0
}

/// One reported metric.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Observations the value rests on.
    pub samples: usize,
}

/// A workload run's outcome: correctness, operation counts and metrics.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Self { correct: true, attempted: 0, failed: 0, metrics: Vec::new(), problems: Vec::new() }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Records a check; a failed one makes the report incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// Prints one human-readable line per metric and problem, then the
    /// JSON result object as the last line of standard output.
    pub fn print(&self) {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        for m in &self.metrics {
            println!("metric {:<34} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i > 0 { ", " } else { "" };
            json.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 500.0);
        assert_eq!(quantile(&xs, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10, "p99 of 1000 rests on ten samples");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
