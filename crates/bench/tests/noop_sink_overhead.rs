//! CI smoke gate for the observability layer: with the no-op sink
//! installed, the PR 1 streaming sweep must run at its usual speed, and
//! with a recording sink it must narrate itself consistently.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_bench::bundles;
use hecmix_core::config::ConfigSpace;
use hecmix_core::rate_table::stream_frontier_pruned;
use hecmix_workloads::ep::Ep;
use hecmix_workloads::Workload;

/// Best-of-N wall time of one pruned streaming sweep. Min (not mean) so a
/// noisy CI neighbour cannot fail the gate on its own.
fn best_of(
    n: usize,
    space: &ConfigSpace,
    models: &[hecmix_core::profile::WorkloadModel],
    w_units: f64,
) -> Duration {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let (frontier, _) = stream_frontier_pruned(space, models, w_units).unwrap();
            assert!(frontier.len() > 1);
            t0.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn noop_sink_keeps_sweep_smoke_within_threshold() {
    let w = Ep::class_c();
    let models = bundles(&w);
    let space = ConfigSpace::two_type(
        models[0].platform.clone(),
        10,
        models[1].platform.clone(),
        10,
    );
    assert_eq!(space.count(), 36_380);
    let w_units = w.analysis_units() as f64;

    // Warm up caches/allocator, then time the tracing-disabled path.
    let _ = best_of(2, &space, &models, w_units);
    let bare = best_of(5, &space, &models, w_units);

    // No-op sink installed: tracing enabled, every record discarded. The
    // sweep only pays one atomic load plus an event at each end, so
    // anything past 2x the bare time means the cheap-path contract broke.
    // (The 2x slack absorbs shared-runner noise; the real overhead is
    // within measurement jitter.)
    hecmix_obs::install(Arc::new(hecmix_obs::NoopSink));
    let noop = best_of(5, &space, &models, w_units);
    hecmix_obs::uninstall();
    assert!(
        noop <= bare * 2 + Duration::from_millis(50),
        "no-op sink slowed the sweep smoke: bare {bare:?} vs no-op {noop:?}"
    );

    // Recording sink: the same sweep must narrate itself consistently.
    let ring = Arc::new(hecmix_obs::RingSink::new(4096));
    hecmix_obs::install(ring.clone());
    let (frontier, stats) = stream_frontier_pruned(&space, &models, w_units).unwrap();
    hecmix_obs::uninstall();
    let events = ring.events();
    let pruned = events
        .iter()
        .find_map(|e| match e {
            hecmix_obs::Event::SweepPruned {
                total_points,
                kept_points,
            } => Some((*total_points, *kept_points)),
            _ => None,
        })
        .expect("sweep_pruned event missing");
    assert_eq!(pruned.0, space.count());
    assert_eq!(pruned.1, stats.evaluated_configs);
    match events.last() {
        Some(hecmix_obs::Event::SweepEnd {
            points,
            frontier: f,
            ..
        }) => {
            assert_eq!(*points, stats.evaluated_configs);
            assert_eq!(*f, frontier.len());
        }
        other => panic!("trace must close with sweep_end, got {other:?}"),
    }
}
