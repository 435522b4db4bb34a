//! The `des_run` telemetry of the selection path: `des::sojourn_quantile`
//! must narrate a run exactly as `des::simulate` does, and the tail planner
//! must emit one `des_run` per DES run it reports.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;

use hecmix_obs::{Event, RingSink};
use hecmix_queueing::des::{self, DesConfig, ServiceDist};
use hecmix_queueing::dispatch::{best_choice_tail, ConfigChoice, TailDesConfig, TailTarget};

/// The `des_run` lines recorded while `f` runs.
fn des_run_lines(f: impl FnOnce()) -> Vec<String> {
    let ring = Arc::new(RingSink::new(4096));
    hecmix_obs::install(ring.clone());
    f();
    hecmix_obs::uninstall();
    ring.events()
        .iter()
        .filter(|e| matches!(e, Event::DesRun { .. }))
        .map(Event::to_json)
        .collect()
}

#[test]
fn selection_path_emits_the_simulate_events() {
    let planner = DesConfig {
        pps: 7_000.0,
        n_requests: 20_000,
        service: ServiceDist::Constant(100e-6),
        seed: 5,
    };
    let exponential = DesConfig {
        service: ServiceDist::Exponential(100e-6),
        ..planner
    };
    let configs = [planner, exponential];
    let selected = des_run_lines(|| {
        for cfg in &configs {
            des::sojourn_quantile(cfg, 0.999).unwrap().unwrap();
        }
    });
    let simulated = des_run_lines(|| {
        for cfg in &configs {
            des::simulate(cfg).unwrap();
        }
    });
    assert_eq!(selected.len(), configs.len());
    assert_eq!(selected, simulated);

    // One planner call: as many `des_run` events as the DES runs it
    // reports. At a 0.9 s p99 deadline the cheap entry survives the
    // analytic screen but misses in the DES, so the fast one runs too.
    let menu = [
        ConfigChoice {
            label: "fast".into(),
            service_s: 0.025,
            job_energy_j: 20.0,
            idle_power_w: 700.0,
        },
        ConfigChoice {
            label: "cheap".into(),
            service_s: 0.40,
            job_energy_j: 7.5,
            idle_power_w: 25.0,
        },
    ];
    let des_cfg = TailDesConfig {
        coarse_requests: 5_000,
        exact_requests: 20_000,
        ..TailDesConfig::default()
    };
    let mut runs = 0;
    let lines = des_run_lines(|| {
        let out = best_choice_tail(
            &menu,
            1.0,
            3600.0,
            TailTarget::new(0.99, 0.9).unwrap(),
            &des_cfg,
        )
        .unwrap()
        .unwrap();
        runs = out.des_runs;
    });
    assert!(runs >= 3, "expected runs for both entries, got {runs}");
    assert_eq!(lines.len(), runs as usize);
}
