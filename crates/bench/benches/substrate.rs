//! Micro-benchmarks of the substrates: telemetry generation, feature
//! extraction, selection, model training and query-strategy scoring.
//!
//! These quantify the cost of each pipeline stage; the tables and figures
//! are regenerated (and timed per stage) by the `repro` binary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use alba_active::{select, SelectionContext, Strategy};
use alba_data::Matrix;
use alba_features::{
    chi_square_scores, extract_features, FeatureExtractor, MinMaxScaler, Mvts, PreprocessConfig,
    TsFresh,
};
use alba_ml::{Classifier, ForestParams, GbmParams, GradientBoosting, RandomForest};
use alba_telemetry::{
    class_names, find_application, generate_run, AnomalyKind, CampaignConfig, Injection,
    MetricCatalog, NoiseConfig, RunConfig, Scale, SignatureConfig, SystemSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_generation(c: &mut Criterion) {
    let catalog = MetricCatalog::build(&SystemSpec::volta(), 4);
    let cfg = RunConfig {
        app: find_application("Kripke").unwrap(),
        input_deck: 0,
        node_count: 4,
        duration_s: 180,
        injection: Some(Injection::new(AnomalyKind::MemBw, 50)),
        run_id: 0,
        seed: 1,
    };
    c.bench_function("telemetry/generate_4node_180s_run", |b| {
        b.iter(|| {
            black_box(generate_run(
                &cfg,
                &catalog,
                &SignatureConfig::default(),
                &NoiseConfig::testbed(),
            ))
        })
    });
}

fn sample_series(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 / 9.0).sin() * 3.0 + (i as f64 / 41.0).cos() + i as f64 * 0.001)
        .collect()
}

fn bench_extractors(c: &mut Criterion) {
    let series = sample_series(200);
    c.bench_function("features/mvts_48_per_metric", |b| {
        b.iter_batched(
            || Vec::with_capacity(48),
            |mut out| {
                Mvts.extract(black_box(&series), &mut out);
                out
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("features/tsfresh_176_per_metric", |b| {
        b.iter_batched(
            || Vec::with_capacity(176),
            |mut out| {
                TsFresh.extract(black_box(&series), &mut out);
                out
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipeline_stage(c: &mut Criterion) {
    // One small campaign's worth of extraction end-to-end (parallel).
    let mut cfg = CampaignConfig::volta(Scale::Smoke, 5);
    cfg.apps.truncate(3);
    cfg.shapes.truncate(1);
    let samples = cfg.generate();
    c.bench_function("features/extract_campaign_mvts", |b| {
        b.iter(|| {
            black_box(extract_features(
                black_box(&samples),
                &Mvts,
                &PreprocessConfig::default(),
                &class_names(),
            ))
        })
    });
}

fn toy_matrix(n: usize, d: usize) -> (Matrix, Vec<usize>) {
    let mut rng_state = 88172645463325252u64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        let class = r % 3;
        for cidx in 0..d {
            let base = if cidx % 3 == class { 1.0 } else { 0.0 };
            x.set(r, cidx, base + next() * 0.8);
        }
        y.push(class);
    }
    (x, y)
}

fn bench_selection_and_scaling(c: &mut Criterion) {
    let (x, y) = toy_matrix(600, 1500);
    c.bench_function("features/chi_square_1500_features", |b| {
        b.iter(|| black_box(chi_square_scores(black_box(&x), black_box(&y), 3)))
    });
    c.bench_function("features/minmax_fit_transform", |b| {
        b.iter_batched(
            || x.clone(),
            |mut m| {
                let s = MinMaxScaler::fit(&m);
                s.transform_inplace(&mut m);
                m
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_models(c: &mut Criterion) {
    let (x, y) = toy_matrix(300, 500);
    c.bench_function("ml/random_forest_fit_300x500", |b| {
        b.iter(|| {
            let mut f = RandomForest::new(ForestParams {
                n_estimators: 20,
                max_depth: Some(8),
                ..ForestParams::default()
            });
            f.fit(black_box(&x), black_box(&y), 3);
            black_box(f)
        })
    });
    let mut fitted = RandomForest::new(ForestParams {
        n_estimators: 20,
        max_depth: Some(8),
        ..ForestParams::default()
    });
    fitted.fit(&x, &y, 3);
    let (xt, _) = toy_matrix(1000, 500);
    c.bench_function("ml/random_forest_predict_1000x500", |b| {
        b.iter(|| black_box(fitted.predict_proba(black_box(&xt))))
    });
    c.bench_function("ml/gbm_fit_300x500_10rounds", |b| {
        b.iter(|| {
            let mut g = GradientBoosting::new(GbmParams {
                n_estimators: 10,
                num_leaves: 8,
                ..GbmParams::default()
            });
            g.fit(black_box(&x), black_box(&y), 3);
            black_box(g)
        })
    });
}

fn bench_strategies(c: &mut Criterion) {
    let n = 2000;
    let mut proba = Matrix::zeros(n, 6);
    for r in 0..n {
        let mut s = 0.0;
        for k in 0..6 {
            let v = ((r * 7 + k * 13) % 29) as f64 + 1.0;
            proba.set(r, k, v);
            s += v;
        }
        for k in 0..6 {
            let v = proba.get(r, k) / s;
            proba.set(r, k, v);
        }
    }
    let remaining: Vec<usize> = (0..n).collect();
    let apps: Vec<String> = (0..n).map(|i| format!("app{}", i % 11)).collect();
    let cycle: Vec<String> = (0..11).map(|i| format!("app{i}")).collect();
    let mut rng = StdRng::seed_from_u64(3);
    for strategy in [Strategy::Uncertainty, Strategy::Margin, Strategy::Entropy] {
        c.bench_function(&format!("active/select_{}_pool2000", strategy.name()), |b| {
            b.iter(|| {
                let ctx = SelectionContext {
                    proba: &proba,
                    remaining: &remaining,
                    apps: &apps,
                    app_cycle: &cycle,
                    query_number: 0,
                };
                black_box(select(strategy, &ctx, &mut rng))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_generation,
    bench_extractors,
    bench_pipeline_stage,
    bench_selection_and_scaling,
    bench_models,
    bench_strategies
);
criterion_main!(benches);
