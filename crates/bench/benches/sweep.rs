//! Configuration-space sweep benchmarks — the compute behind Figs. 4–9.
//!
//! `fig4_pareto_ep` / `fig5_pareto_memcached` regenerate the paper's
//! 36,380-point sweeps end to end; `frontier_only` isolates the Pareto
//! derivation; `fig6_budget_rung` times one rung of the 1 kW ladder.
//! The `streaming` group runs the same frontiers through the rate-table
//! engine (old path vs new path), plus a 128-node space (~740k points)
//! that the materializing path would need hundreds of MB to hold, and the
//! two halves of the largest `/plan` request: pruning a 512 × 128 space
//! (from scratch, or as the daemon does, sliced from a 512 × 512 option
//! catalog) and folding the pruned table.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hecmix_bench::bundles;
use hecmix_core::budget::BudgetMix;
use hecmix_core::config::ConfigSpace;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::rate_table::{stream_frontier, stream_frontier_pruned, OptionCatalog, RateTable};
use hecmix_core::sweep::{sweep_space, EvaluatedConfig};
use hecmix_workloads::ep::Ep;
use hecmix_workloads::memcached::Memcached;
use hecmix_workloads::Workload;

fn bench_full_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let models = bundles(w);
        let space = ConfigSpace::two_type(
            models[0].platform.clone(),
            10,
            models[1].platform.clone(),
            10,
        );
        assert_eq!(space.count(), 36_380);
        let fig = if w.name() == "ep" { "fig4" } else { "fig5" };
        group.bench_function(BenchmarkId::new(format!("{fig}_pareto"), w.name()), |b| {
            b.iter(|| {
                let evaluated =
                    sweep_space(black_box(&space), &models, w.analysis_units() as f64).unwrap();
                black_box(ParetoFrontier::from_points(
                    evaluated
                        .iter()
                        .map(EvaluatedConfig::to_pareto_point)
                        .collect(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_frontier_only(c: &mut Criterion) {
    let w = Ep::class_c();
    let models = bundles(&w);
    let space = ConfigSpace::two_type(
        models[0].platform.clone(),
        10,
        models[1].platform.clone(),
        10,
    );
    let evaluated = sweep_space(&space, &models, w.analysis_units() as f64).unwrap();
    let points: Vec<_> = evaluated
        .iter()
        .map(EvaluatedConfig::to_pareto_point)
        .collect();
    c.bench_function("sweep/frontier_only_36380", |b| {
        b.iter(|| black_box(ParetoFrontier::from_points(black_box(points.clone()))))
    });
}

fn bench_budget_rung(c: &mut Criterion) {
    let w = Memcached::default();
    let models = bundles(&w);
    let mix = BudgetMix {
        low_nodes: 16,
        high_nodes: 14,
    };
    let space = mix.config_space(&models[0].platform, &models[1].platform);
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("fig6_budget_rung_16_14", |b| {
        b.iter(|| {
            black_box(sweep_space(black_box(&space), &models, w.analysis_units() as f64).unwrap())
        })
    });
    group.finish();
}

fn bench_pruned_vs_exhaustive(c: &mut Criterion) {
    // The configuration-space reduction the paper leaves open: dominance
    // pruning typically evaluates ~1-3 % of the space for the same
    // frontier.
    let w = Ep::class_c();
    let models = bundles(&w);
    let space = ConfigSpace::two_type(
        models[0].platform.clone(),
        10,
        models[1].platform.clone(),
        10,
    );
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("fig4_pruned_frontier", |b| {
        b.iter(|| {
            black_box(
                hecmix_core::rate_table::stream_frontier_pruned(
                    black_box(&space),
                    &models,
                    w.analysis_units() as f64,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_streaming_engine(c: &mut Criterion) {
    // New rate-table path on the exact workloads the old-path benches
    // above time, so the groups read as before/after pairs.
    let w = Ep::class_c();
    let models = bundles(&w);
    let units = w.analysis_units() as f64;
    let space = ConfigSpace::two_type(
        models[0].platform.clone(),
        10,
        models[1].platform.clone(),
        10,
    );
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.bench_function("fig4_frontier_36380", |b| {
        b.iter(|| black_box(stream_frontier(black_box(&space), &models, units).unwrap()))
    });
    group.bench_function("fig4_frontier_36380_pruned", |b| {
        b.iter(|| black_box(stream_frontier_pruned(black_box(&space), &models, units).unwrap()))
    });

    // Beyond-paper scale: 128 low-power + 16 high-performance nodes,
    // ~740k configurations. The old path would materialize every point
    // and outcome; the fold keeps only one partial frontier.
    let mc = Memcached::default();
    let mc_models = bundles(&mc);
    let mc_units = mc.analysis_units() as f64;
    let mix = BudgetMix {
        low_nodes: 128,
        high_nodes: 16,
    };
    let big = mix.config_space(&mc_models[0].platform, &mc_models[1].platform);
    group.bench_function(
        BenchmarkId::new("budget_128_16", format!("{}_pts", big.count())),
        |b| b.iter(|| black_box(stream_frontier(black_box(&big), &mc_models, mc_units).unwrap())),
    );
    group.bench_function(
        BenchmarkId::new("budget_128_16_pruned", format!("{}_pts", big.count())),
        |b| {
            b.iter(|| {
                black_box(stream_frontier_pruned(black_box(&big), &mc_models, mc_units).unwrap())
            })
        },
    );

    // The largest `/plan` caps, 512 ARM x 128 AMD, split into its two
    // halves: pruning the options, then folding the pruned table.
    let caps = ConfigSpace::two_type(
        models[0].platform.clone(),
        512,
        models[1].platform.clone(),
        128,
    );
    let table = RateTable::build_pruned(&caps, &models).unwrap();
    group.bench_function("frontier_512x128_pruned", |b| {
        b.iter(|| black_box(black_box(&table).frontier(units).unwrap()))
    });
    group.bench_function("build_pruned_512x128", |b| {
        b.iter(|| black_box(RateTable::build_pruned(black_box(&caps), &models).unwrap()))
    });
    let catalog = OptionCatalog::build(
        &ConfigSpace::two_type(
            models[0].platform.clone(),
            512,
            models[1].platform.clone(),
            512,
        ),
        &models,
    )
    .unwrap();
    group.bench_function("catalog_pruned_512x128", |b| {
        b.iter(|| black_box(black_box(&catalog).pruned(&[Some(512), Some(128)]).unwrap()))
    });
    // The tail planner's end of the request caps.
    group.bench_function("catalog_pruned_16x14", |b| {
        b.iter(|| black_box(black_box(&catalog).pruned(&[Some(16), Some(14)]).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_sweeps,
    bench_frontier_only,
    bench_budget_rung,
    bench_pruned_vs_exhaustive,
    bench_streaming_engine
);
criterion_main!(benches);
