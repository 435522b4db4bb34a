//! The `des_run` telemetry: `des::simulate` narrates each run with the
//! tails of the outcome it returns, and the tail planner, which scores its
//! menu in closed form, emits no `des_run` and one `tail_plan`.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;

use hecmix_obs::{Event, RingSink};
use hecmix_queueing::des::{self, DesConfig, ServiceDist};
use hecmix_queueing::dispatch::{best_choice_tail, ConfigChoice, TailDesConfig, TailTarget};

/// The events recorded while `f` runs.
fn recorded(f: impl FnOnce()) -> Vec<Event> {
    let ring = Arc::new(RingSink::new(4096));
    hecmix_obs::install(ring.clone());
    f();
    hecmix_obs::uninstall();
    ring.events()
}

#[test]
fn des_runs_are_narrated_and_the_planner_runs_none() {
    let constant = DesConfig {
        pps: 7_000.0,
        n_requests: 20_000,
        service: ServiceDist::Constant(100e-6),
        seed: 5,
    };
    let exponential = DesConfig {
        service: ServiceDist::Exponential(100e-6),
        ..constant
    };
    for cfg in [constant, exponential] {
        let mut outcome = None;
        let events = recorded(|| outcome = Some(des::simulate(&cfg).unwrap()));
        let out = outcome.unwrap();
        let runs: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                Event::DesRun {
                    pps,
                    requests,
                    p50_s,
                    p99_s,
                    duration_s,
                    seed,
                } => Some((
                    pps.to_bits(),
                    requests,
                    p50_s.to_bits(),
                    p99_s.to_bits(),
                    duration_s.to_bits(),
                    seed,
                )),
                _ => None,
            })
            .collect();
        let expected = (
            cfg.pps.to_bits(),
            cfg.n_requests,
            out.sojourn.p50().unwrap().to_bits(),
            out.sojourn.p99().unwrap().to_bits(),
            out.duration_s.to_bits(),
            cfg.seed,
        );
        assert_eq!(runs, [expected], "{cfg:?}");
    }

    // One planner call: no `des_run` at all, and one `tail_plan` that
    // reports no DES run. At a 0.9 s p99 deadline the cheap entry's tail
    // misses, so the fast one wins.
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
    let mut chosen = usize::MAX;
    let events = recorded(|| {
        let out = best_choice_tail(
            &menu,
            1.0,
            3600.0,
            TailTarget::new(0.99, 0.9).unwrap(),
            &TailDesConfig::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.des_runs, 0);
        chosen = out.index;
    });
    assert_eq!(chosen, 0, "the cheap entry's p99 misses 0.9 s");
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
