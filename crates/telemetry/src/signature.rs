//! Application resource-usage signatures.
//!
//! Every application, input deck and allocation size maps to a
//! [`Signature`]: for each latent [`MetricGroup`], the baseline level,
//! oscillation structure and burst behaviour of that signal while the
//! application runs healthy. The anomaly models in [`crate::anomaly`]
//! perturb these latent signals; the generator then maps them to concrete
//! LDMS-style metrics.
//!
//! Signatures are what make the learning problem realistic: applications of
//! the same dwarf (e.g. the three MD codes) have *similar but not equal*
//! signatures, input decks rescale group levels substantially (which is why
//! unseen decks crater the initial F1-score in Fig. 8), and production runs
//! carry larger run-to-run variability than testbed runs (why Eclipse starts
//! at a lower F1 than Volta).

use crate::apps::{AppClass, Application};
use crate::metrics::MetricGroup;
use serde::{Deserialize, Serialize};

/// Latent-signal pattern of one metric group for one configured run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupPattern {
    /// Baseline level, in group units (e.g. CPU fraction, GB/s, GiB).
    pub level: f64,
    /// Relative amplitude of the main periodic component (0 = flat).
    pub amp: f64,
    /// Period of the main component in seconds.
    pub period_s: f64,
    /// Relative amplitude of a faster secondary component.
    pub amp2: f64,
    /// Period of the secondary component in seconds.
    pub period2_s: f64,
    /// Linear drift of the level per 1000 s of runtime (fraction of level).
    pub drift: f64,
}

impl GroupPattern {
    /// A flat pattern at `level`.
    pub fn flat(level: f64) -> Self {
        Self { level, amp: 0.0, period_s: 60.0, amp2: 0.0, period2_s: 7.0, drift: 0.0 }
    }

    /// Evaluates the healthy latent signal at time `t` (seconds), without
    /// noise.
    pub fn eval(&self, t: f64) -> f64 {
        let tau = std::f64::consts::TAU;
        let main = 1.0 + self.amp * (tau * t / self.period_s).sin();
        let fast = 1.0 + self.amp2 * (tau * t / self.period2_s).sin();
        let drift = 1.0 + self.drift * t / 1000.0;
        (self.level * main * fast * drift).max(0.0)
    }
}

/// Full signature: one pattern per latent metric group.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    patterns: Vec<GroupPattern>,
}

impl Signature {
    /// Pattern of a given group.
    pub fn pattern(&self, g: MetricGroup) -> &GroupPattern {
        &self.patterns[g.index()]
    }

    /// Evaluates the healthy latent group vector at time `t`.
    pub fn eval(&self, t: f64) -> [f64; MetricGroup::ALL.len()] {
        let mut out = [0.0; MetricGroup::ALL.len()];
        for (i, p) in self.patterns.iter().enumerate() {
            out[i] = p.eval(t);
        }
        out
    }
}

/// Deterministic pseudo-random stream derived from strings/integers, used to
/// give every (app, deck, group) combination stable idiosyncrasies without
/// threading an RNG through signature construction.
fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser.
    let mut z = seed.wrapping_add(salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

fn str_seed(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

/// Base per-class group levels; columns follow [`MetricGroup::ALL`] order:
/// CpuUser, CpuSystem, CpuIdle, CacheMiss, CacheRef, MemBandwidth, MemUsed,
/// MemFree, PageFaults, NetTx, NetRx, FsRead, FsWrite, FsMeta, Power,
/// Frequency, WriteBack.
fn class_levels(class: AppClass) -> [f64; 17] {
    match class {
        AppClass::Solver => [
            0.82, 0.05, 0.13, 22.0, 70.0, 11.0, 14.0, 46.0, 3.0, 38.0, 38.0, 4.0, 7.0, 1.0, 290.0,
            2.4, 13.0,
        ],
        AppClass::SparseIterative => [
            0.55, 0.04, 0.41, 62.0, 88.0, 17.0, 10.0, 52.0, 2.0, 30.0, 30.0, 2.0, 3.0, 0.6, 255.0,
            2.4, 19.0,
        ],
        AppClass::SpectralFft => [
            0.60, 0.09, 0.31, 34.0, 64.0, 19.0, 18.0, 42.0, 4.0, 95.0, 95.0, 3.0, 5.0, 0.8, 270.0,
            2.4, 21.0,
        ],
        AppClass::Multigrid => [
            0.66, 0.06, 0.28, 44.0, 76.0, 15.0, 12.0, 50.0, 5.0, 52.0, 52.0, 2.0, 4.0, 0.7, 265.0,
            2.4, 16.0,
        ],
        AppClass::MolecularDynamics => [
            0.92, 0.03, 0.05, 16.0, 82.0, 8.0, 7.0, 55.0, 1.5, 17.0, 17.0, 1.0, 2.0, 0.4, 305.0,
            2.4, 9.0,
        ],
        AppClass::Stencil => [
            0.71, 0.06, 0.23, 30.0, 68.0, 13.0, 11.0, 51.0, 2.5, 58.0, 58.0, 2.0, 4.0, 0.6, 275.0,
            2.4, 14.0,
        ],
        AppClass::Amr => [
            0.63, 0.08, 0.29, 36.0, 63.0, 12.0, 16.0, 44.0, 7.0, 44.0, 44.0, 5.0, 9.0, 2.2, 260.0,
            2.4, 15.0,
        ],
        AppClass::Transport => [
            0.69, 0.07, 0.24, 33.0, 69.0, 14.0, 12.0, 49.0, 3.5, 49.0, 49.0, 3.0, 5.0, 1.0, 272.0,
            2.4, 15.5,
        ],
        AppClass::Cosmology => [
            0.74, 0.07, 0.19, 28.0, 72.0, 16.0, 20.0, 40.0, 4.5, 70.0, 70.0, 6.0, 8.0, 1.2, 285.0,
            2.4, 17.0,
        ],
    }
}

/// Per-class oscillation parameters `(amp, period_s, amp2, period2_s)`.
fn class_rhythm(class: AppClass) -> (f64, f64, f64, f64) {
    match class {
        AppClass::Solver => (0.10, 45.0, 0.04, 6.0),
        AppClass::SparseIterative => (0.06, 30.0, 0.08, 4.0),
        AppClass::SpectralFft => (0.22, 24.0, 0.05, 5.0),
        AppClass::Multigrid => (0.17, 38.0, 0.09, 8.0),
        AppClass::MolecularDynamics => (0.05, 80.0, 0.03, 10.0),
        AppClass::Stencil => (0.12, 33.0, 0.05, 6.0),
        AppClass::Amr => (0.20, 90.0, 0.10, 12.0),
        AppClass::Transport => (0.14, 28.0, 0.06, 7.0),
        AppClass::Cosmology => (0.18, 70.0, 0.07, 9.0),
    }
}

/// Controls how strongly input decks, allocation sizes and application
/// idiosyncrasies reshape the base class signature.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SignatureConfig {
    /// Half-width of the per-application multiplicative jitter around the
    /// class baseline (e.g. 0.15 → levels in ±15 %).
    pub app_jitter: f64,
    /// Half-width of the per-(app, deck, group) level rescaling. The paper's
    /// unseen-input experiment (Fig. 8) needs decks to shift signatures
    /// enough that a single-deck model generalises poorly.
    pub deck_spread: f64,
    /// Half-width of the per-(app, node-count) rescaling; only nonzero for
    /// Eclipse where every node count uses a different input.
    pub nodes_spread: f64,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        Self { app_jitter: 0.12, deck_spread: 0.28, nodes_spread: 0.15 }
    }
}

/// Builds the healthy signature for `(app, input deck, node count)`.
///
/// Deterministic: the same inputs always produce the same signature.
pub fn build_signature(
    app: &Application,
    input_deck: usize,
    node_count: usize,
    cfg: &SignatureConfig,
) -> Signature {
    let levels = class_levels(app.class);
    let (amp, period, amp2, period2) = class_rhythm(app.class);
    let app_seed = str_seed(&app.name);
    let deck_seed = mix(app_seed, 1000 + input_deck as u64);
    let nodes_seed = mix(app_seed, 2000 + node_count as u64);

    let patterns = MetricGroup::ALL
        .iter()
        .enumerate()
        .map(|(gi, &g)| {
            let salt = gi as u64;
            // Application idiosyncrasy: stable per (app, group).
            let app_f = 1.0 + cfg.app_jitter * (2.0 * unit(app_seed, salt) - 1.0);
            // Input-deck rescaling: stable per (app, deck, group).
            let deck_f = 1.0 + cfg.deck_spread * (2.0 * unit(deck_seed, salt) - 1.0);
            // Allocation-size rescaling (Eclipse inputs differ per node count),
            // plus a mild physical scaling of communication with node count.
            let nodes_f = 1.0 + cfg.nodes_spread * (2.0 * unit(nodes_seed, salt) - 1.0);
            let comm_f = match g {
                MetricGroup::NetTx | MetricGroup::NetRx => {
                    1.0 + 0.12 * ((node_count as f64 / 4.0).log2().max(0.0))
                }
                _ => 1.0,
            };
            let mut level = levels[gi] * app_f * deck_f * nodes_f * comm_f;
            // Physical coupling: free memory responds inversely to used memory
            // so the two groups stay anticorrelated like real meminfo data.
            if g == MetricGroup::MemFree {
                let used = levels[MetricGroup::MemUsed.index()] * app_f * deck_f * nodes_f;
                level = (64.0 - used).max(2.0);
            }
            // CPU fractions must stay in [0, 1].
            if matches!(g, MetricGroup::CpuUser | MetricGroup::CpuSystem | MetricGroup::CpuIdle) {
                level = level.clamp(0.005, 0.99);
            }
            // Healthy frequency carries a ±6 % turbo spread per (app, deck)
            // — enough to mask small `dial` reductions (the paper finds dial
            // the most confusing anomaly).
            if g == MetricGroup::Frequency {
                level = levels[gi] * (1.0 + 0.06 * (2.0 * unit(deck_seed, 77 + salt) - 1.0));
            }
            let periodic_groups =
                !matches!(g, MetricGroup::MemUsed | MetricGroup::MemFree | MetricGroup::Frequency);
            let (a, a2) = if periodic_groups {
                // Stable per-(app, group) modulation of the class rhythm.
                (
                    amp * (0.6 + 0.8 * unit(app_seed, 31 + salt)),
                    amp2 * (0.6 + 0.8 * unit(app_seed, 63 + salt)),
                )
            } else {
                (0.0, 0.0)
            };
            GroupPattern {
                level,
                amp: a,
                period_s: period * (0.8 + 0.4 * unit(app_seed, 17 + salt)),
                amp2: a2,
                period2_s: period2 * (0.8 + 0.4 * unit(app_seed, 43 + salt)),
                drift: if g == MetricGroup::MemUsed { 0.02 } else { 0.0 },
            }
        })
        .collect();
    Signature { patterns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{find_application, volta_catalog};

    fn sig(app: &str, deck: usize, nodes: usize) -> Signature {
        build_signature(&find_application(app).unwrap(), deck, nodes, &SignatureConfig::default())
    }

    #[test]
    fn signatures_are_deterministic() {
        assert_eq!(sig("BT", 0, 4), sig("BT", 0, 4));
    }

    #[test]
    fn decks_rescale_levels() {
        let a = sig("BT", 0, 4);
        let b = sig("BT", 1, 4);
        let g = MetricGroup::MemBandwidth;
        assert_ne!(a.pattern(g).level, b.pattern(g).level);
    }

    #[test]
    fn md_codes_are_similar_but_distinct() {
        let a = sig("MiniMD", 0, 4);
        let b = sig("CoMD", 0, 4);
        let cu = MetricGroup::CpuUser;
        // Same dwarf: both strongly CPU-bound...
        assert!(a.pattern(cu).level > 0.7 && b.pattern(cu).level > 0.7);
        // ...but not identical.
        assert_ne!(a.pattern(cu).level, b.pattern(cu).level);
    }

    #[test]
    fn fft_codes_are_network_heavy() {
        let ft = sig("FT", 0, 4);
        let md = sig("MiniMD", 0, 4);
        assert!(ft.pattern(MetricGroup::NetTx).level > 2.0 * md.pattern(MetricGroup::NetTx).level);
    }

    #[test]
    fn network_level_grows_with_allocation() {
        let small = sig("SWFFT", 0, 4);
        let large = sig("SWFFT", 0, 16);
        assert!(large.pattern(MetricGroup::NetTx).level > small.pattern(MetricGroup::NetTx).level);
    }

    #[test]
    fn cpu_fractions_stay_in_unit_range() {
        for app in volta_catalog() {
            for deck in 0..3 {
                let s = build_signature(&app, deck, 4, &SignatureConfig::default());
                for g in [MetricGroup::CpuUser, MetricGroup::CpuSystem, MetricGroup::CpuIdle] {
                    let l = s.pattern(g).level;
                    assert!((0.0..=1.0).contains(&l), "{} {g:?} level {l}", app.name);
                }
            }
        }
    }

    #[test]
    fn eval_is_nonnegative_and_mean_tracks_level() {
        let s = sig("Kripke", 0, 4);
        let p = s.pattern(MetricGroup::NetTx);
        let mut sum = 0.0;
        for t in 0..600 {
            let v = p.eval(t as f64);
            assert!(v >= 0.0);
            sum += v;
        }
        let mean = sum / 600.0;
        assert!((mean - p.level).abs() / p.level < 0.1, "mean {mean} vs level {}", p.level);
    }

    #[test]
    fn memused_drifts_upward_slowly() {
        let s = sig("MiniAMR", 0, 4);
        let p = s.pattern(MetricGroup::MemUsed);
        assert!(p.eval(900.0) > p.eval(0.0));
    }
}
