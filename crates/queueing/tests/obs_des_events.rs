//! The tail planner scores its menu in closed form: a plan emits no
//! `des_run` and one `tail_plan` that reports no DES run.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;

use hecmix_obs::{Event, RingSink};
use hecmix_queueing::dispatch::{best_choice_tail, ConfigChoice, TailDesConfig, TailTarget};

#[test]
fn the_tail_planner_runs_no_des() {
    // At a 0.9 s p99 deadline the cheap entry's tail misses, so the fast
    // one wins.
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
    let ring = Arc::new(RingSink::new(4096));
    hecmix_obs::install(ring.clone());
    let out = best_choice_tail(
        &menu,
        1.0,
        3600.0,
        TailTarget::new(0.99, 0.9).unwrap(),
        &TailDesConfig::default(),
    )
    .unwrap()
    .unwrap();
    hecmix_obs::uninstall();
    let events = ring.events();
    assert_eq!(out.index, 0, "the cheap entry's p99 misses 0.9 s");
    assert!(!events.iter().any(|e| matches!(e, Event::DesRun { .. })));
    let plans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::TailPlan {
                des_runs, chosen, ..
            } => Some((*des_runs, *chosen)),
            _ => None,
        })
        .collect();
    assert_eq!(plans, [(0, 0)]);
}
