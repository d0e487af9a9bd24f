//! Data-collection campaigns: the full sets of application runs the paper
//! executed on Volta and Eclipse (Sec. IV-A/IV-C/IV-E.1).
//!
//! A campaign enumerates `(application, input deck, node count)`
//! configurations, schedules healthy and anomaly-injected runs over them,
//! generates telemetry for every node of every run (in parallel), and
//! finally enforces the paper's 10 % anomalous-sample ratio by downsampling
//! healthy node samples.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::anomaly::{eclipse_intensities, AnomalyKind, Injection, VOLTA_INTENSITIES};
use crate::apps::{eclipse_catalog, volta_catalog, Application};
use crate::generator::{generate_run, NodeTelemetry, NoiseConfig, RunConfig, HEALTHY_LABEL};
use crate::metrics::MetricCatalog;
use crate::signature::SignatureConfig;
use crate::system::SystemSpec;

/// Ordered class names: `healthy` first, then the five anomalies.
/// Experiments rely on `healthy` being class 0.
pub fn class_names() -> Vec<String> {
    let mut names = vec![HEALTHY_LABEL.to_string()];
    names.extend(AnomalyKind::ALL.iter().map(|k| k.label().to_string()));
    names
}

/// How big a campaign to generate.
///
/// `Full` approaches the paper's data volume (hours of runs, hundreds of
/// metrics); `Default` reproduces every qualitative result in minutes on a
/// laptop; `Smoke` is for unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny configuration for tests (seconds).
    Smoke,
    /// Reduced-scale reproduction (default; minutes).
    Default,
    /// Paper-scale sweep (hours).
    Full,
}

/// One `(input deck, node count)` execution configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunShape {
    /// Input deck index.
    pub input_deck: usize,
    /// Allocation size in nodes.
    pub node_count: usize,
}

/// Full description of a data-collection campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// The system the campaign runs on.
    pub system: SystemSpec,
    /// Applications to run.
    pub apps: Vec<Application>,
    /// Execution configurations per application.
    pub shapes: Vec<RunShape>,
    /// Runs per `(application, shape)` combination.
    pub runs_per_shape: usize,
    /// Fraction of runs that receive an anomaly injection.
    pub anomalous_run_fraction: f64,
    /// Steady-state run duration range in seconds (inclusive).
    pub duration_range_s: (usize, usize),
    /// `(kind, intensity)` settings cycled over anomalous runs.
    pub injections: Vec<Injection>,
    /// Metrics simulated per latent group (4 ≈ 68 metrics; 42 ≈ paper's 721).
    pub metrics_per_group: usize,
    /// Stochastic knobs.
    pub noise: NoiseConfig,
    /// Signature-shaping knobs.
    pub signature: SignatureConfig,
    /// If set, healthy node samples are randomly dropped after generation
    /// until anomalous samples make up this fraction (the paper caps the
    /// pool at a 10 % anomaly ratio).
    pub target_anomaly_ratio: Option<f64>,
    /// Master seed; every run derives its own seed from it.
    pub seed: u64,
}

impl CampaignConfig {
    /// The Volta campaign: 11 applications x 3 input decks, 4-node runs of
    /// 10–15 min, six anomaly intensities (reduced by `scale`).
    pub fn volta(scale: Scale, seed: u64) -> Self {
        let (runs, dur, mpg) = match scale {
            Scale::Smoke => (4, (60, 80), 2),
            Scale::Default => (24, (150, 210), 4),
            Scale::Full => (48, (600, 900), 42),
        };
        // Kind-minor interleaving: any window of >= 5 consecutive injections
        // covers every anomaly kind, so even small campaigns expose each
        // application to each anomaly.
        let injections = VOLTA_INTENSITIES
            .iter()
            .flat_map(|&i| AnomalyKind::ALL.iter().map(move |&k| Injection::new(k, i)))
            .collect();
        Self {
            system: SystemSpec::volta(),
            apps: volta_catalog(),
            shapes: (0..3).map(|d| RunShape { input_deck: d, node_count: 4 }).collect(),
            runs_per_shape: runs,
            anomalous_run_fraction: 0.4,
            duration_range_s: dur,
            injections,
            metrics_per_group: mpg,
            noise: NoiseConfig::testbed(),
            signature: SignatureConfig::default(),
            target_anomaly_ratio: Some(0.10),
            seed,
        }
    }

    /// The Eclipse campaign: 6 applications on 4/8/16 nodes (one input deck
    /// per node count), 20–45 min runs, 2–3 intensities per anomaly kind.
    pub fn eclipse(scale: Scale, seed: u64) -> Self {
        let (runs, dur, mpg) = match scale {
            Scale::Smoke => (4, (60, 80), 2),
            Scale::Default => (24, (200, 280), 4),
            Scale::Full => (60, (1200, 2700), 47),
        };
        // Kind-minor interleaving, as in the Volta campaign.
        let max_settings =
            AnomalyKind::ALL.iter().map(|&k| eclipse_intensities(k).len()).max().unwrap_or(0);
        let injections = (0..max_settings)
            .flat_map(|i| {
                AnomalyKind::ALL.iter().filter_map(move |&k| {
                    eclipse_intensities(k).get(i).map(|&pct| Injection::new(k, pct))
                })
            })
            .collect();
        Self {
            system: SystemSpec::eclipse(),
            apps: eclipse_catalog(),
            shapes: vec![
                RunShape { input_deck: 0, node_count: 4 },
                RunShape { input_deck: 1, node_count: 8 },
                RunShape { input_deck: 2, node_count: 16 },
            ],
            runs_per_shape: runs,
            anomalous_run_fraction: 0.5,
            duration_range_s: dur,
            injections,
            metrics_per_group: mpg,
            noise: NoiseConfig::production(),
            signature: SignatureConfig::default(),
            target_anomaly_ratio: Some(0.10),
            seed,
        }
    }

    /// The metric catalog this campaign collects.
    pub fn catalog(&self) -> MetricCatalog {
        MetricCatalog::build(&self.system, self.metrics_per_group)
    }

    /// Enumerates the run configurations of the whole campaign.
    ///
    /// Within every `(app, shape)` cell the first
    /// `round(runs_per_shape * anomalous_run_fraction)` runs carry
    /// injections, cycled through the injection list with a cell-specific
    /// offset so all kinds and intensities are covered for every
    /// application.
    pub fn run_configs(&self) -> Vec<RunConfig> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_anom = (self.runs_per_shape as f64 * self.anomalous_run_fraction).round() as usize;
        let mut out = Vec::new();
        let mut run_id = 0usize;
        for (ai, app) in self.apps.iter().enumerate() {
            for (si, shape) in self.shapes.iter().enumerate() {
                let cell_offset = ai * self.shapes.len() + si;
                for r in 0..self.runs_per_shape {
                    let injection = if r < n_anom && !self.injections.is_empty() {
                        let idx = (cell_offset * n_anom + r) % self.injections.len();
                        Some(self.injections[idx])
                    } else {
                        None
                    };
                    let duration_s =
                        rng.gen_range(self.duration_range_s.0..=self.duration_range_s.1);
                    out.push(RunConfig {
                        app: app.clone(),
                        input_deck: shape.input_deck,
                        node_count: shape.node_count,
                        duration_s,
                        injection,
                        run_id,
                        seed: self.seed ^ (run_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                    });
                    run_id += 1;
                }
            }
        }
        out
    }

    /// Generates the full campaign: telemetry for every node of every run,
    /// in parallel, then (optionally) downsampled to the target anomaly
    /// ratio. Output order is deterministic.
    pub fn generate(&self) -> Vec<NodeTelemetry> {
        let catalog = self.catalog();
        let configs = self.run_configs();
        let mut samples: Vec<NodeTelemetry> =
            alba_par::map(alba_par::available_cores(), &configs, |cfg| {
                generate_run(cfg, &catalog, &self.signature, &self.noise)
            })
            .into_iter()
            .flatten()
            .collect();
        if let Some(ratio) = self.target_anomaly_ratio {
            samples = enforce_anomaly_ratio(samples, ratio, self.seed ^ 0xA5A5);
        }
        samples
    }
}

/// Downsamples healthy node samples until anomalous samples make up
/// `ratio` of the pool (no-op when they already do). Deterministic for a
/// given seed; preserves the relative order of retained samples.
pub fn enforce_anomaly_ratio(
    samples: Vec<NodeTelemetry>,
    ratio: f64,
    seed: u64,
) -> Vec<NodeTelemetry> {
    assert!((0.0..1.0).contains(&ratio), "ratio must be in [0,1), got {ratio}");
    let n_anom = samples.iter().filter(|s| s.label != HEALTHY_LABEL).count();
    if n_anom == 0 || ratio == 0.0 {
        return samples;
    }
    let healthy_target = ((n_anom as f64) * (1.0 - ratio) / ratio).round() as usize;
    let n_healthy = samples.len() - n_anom;
    if n_healthy <= healthy_target {
        return samples;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut healthy_idx: Vec<usize> = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.label == HEALTHY_LABEL)
        .map(|(i, _)| i)
        .collect();
    healthy_idx.shuffle(&mut rng);
    healthy_idx.truncate(healthy_target);
    let keep: std::collections::HashSet<usize> = healthy_idx.into_iter().collect();
    samples
        .into_iter()
        .enumerate()
        .filter(|(i, s)| s.label != HEALTHY_LABEL || keep.contains(i))
        .map(|(_, s)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_start_with_healthy() {
        let names = class_names();
        assert_eq!(names.len(), 6);
        assert_eq!(names[0], "healthy");
        assert!(names.contains(&"dial".to_string()));
    }

    #[test]
    fn volta_config_matches_paper_structure() {
        let c = CampaignConfig::volta(Scale::Default, 1);
        assert_eq!(c.apps.len(), 11);
        assert_eq!(c.shapes.len(), 3);
        assert!(c.shapes.iter().all(|s| s.node_count == 4));
        assert_eq!(c.injections.len(), 5 * 6);
    }

    #[test]
    fn eclipse_config_matches_paper_structure() {
        let c = CampaignConfig::eclipse(Scale::Default, 1);
        assert_eq!(c.apps.len(), 6);
        let nodes: Vec<usize> = c.shapes.iter().map(|s| s.node_count).collect();
        assert_eq!(nodes, vec![4, 8, 16]);
        // One input deck per node count.
        let decks: Vec<usize> = c.shapes.iter().map(|s| s.input_deck).collect();
        assert_eq!(decks, vec![0, 1, 2]);
        // 2-3 intensities per kind.
        assert_eq!(c.injections.len(), 13);
    }

    #[test]
    fn every_app_sees_every_anomaly_kind() {
        let c = CampaignConfig::volta(Scale::Default, 3);
        let configs = c.run_configs();
        for app in &c.apps {
            for kind in AnomalyKind::ALL {
                assert!(
                    configs.iter().any(
                        |r| r.app.name == app.name && r.injection.map(|i| i.kind) == Some(kind)
                    ),
                    "{} never received {kind:?}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn smoke_campaign_generates_and_hits_anomaly_ratio() {
        let c = CampaignConfig::volta(Scale::Smoke, 17);
        let samples = c.generate();
        assert!(!samples.is_empty());
        let anom = samples.iter().filter(|s| s.label != HEALTHY_LABEL).count();
        let ratio = anom as f64 / samples.len() as f64;
        assert!((0.08..=0.13).contains(&ratio), "anomaly ratio {ratio} should approximate 0.10");
        // Determinism.
        let again = c.generate();
        assert_eq!(samples.len(), again.len());
        for (x, y) in samples[0].series.values.iter().zip(&again[0].series.values) {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn enforce_ratio_downsamples_only_healthy() {
        let c = CampaignConfig::volta(Scale::Smoke, 23);
        let mut cfg = c;
        cfg.target_anomaly_ratio = None;
        let raw = cfg.generate();
        let anom_before = raw.iter().filter(|s| s.label != HEALTHY_LABEL).count();
        let balanced = enforce_anomaly_ratio(raw, 0.2, 99);
        let anom_after = balanced.iter().filter(|s| s.label != HEALTHY_LABEL).count();
        assert_eq!(anom_before, anom_after, "anomalous samples must all be kept");
        let ratio = anom_after as f64 / balanced.len() as f64;
        assert!((0.18..=0.22).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn run_ids_are_unique() {
        let c = CampaignConfig::eclipse(Scale::Smoke, 2);
        let configs = c.run_configs();
        let mut ids: Vec<usize> = configs.iter().map(|r| r.run_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), configs.len());
    }
}
