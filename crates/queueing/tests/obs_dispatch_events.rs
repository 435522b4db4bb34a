//! The `dispatch_decision` telemetry of `run_day`: one event per served
//! slot, none for a saturated one, `resilient` set only for a resilient
//! menu, and every field equal to the returned `SlotOutcome`.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;

use hecmix_obs::{Event, RingSink};
use hecmix_queueing::dispatch::{
    run_day, ConfigChoice, DayOutcome, DiurnalProfile, ParkableChoice, ResilientChoice, SlotPricer,
};
use hecmix_queueing::SleepPolicy;

/// The day `run_day` returns over `menu`, with the events it emitted.
fn traced_day<P: SlotPricer>(menu: &[P], profile: &DiurnalProfile) -> (DayOutcome, Vec<Event>) {
    let ring = Arc::new(RingSink::new(1024));
    hecmix_obs::install(ring.clone());
    let day = run_day(menu, profile, 0.5).unwrap();
    hecmix_obs::uninstall();
    (day, ring.events())
}

fn check_decisions(day: &DayOutcome, events: &[Event], resilient_menu: bool) {
    let served: Vec<_> = day
        .slots
        .iter()
        .filter(|s| s.choice != usize::MAX)
        .collect();
    assert!(
        !served.is_empty() && served.len() < day.slots.len(),
        "the profile must serve some slots and saturate others"
    );
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::DispatchDecision { .. }))
        .collect();
    assert_eq!(decisions.len(), served.len(), "one event per served slot");
    for (event, outcome) in decisions.into_iter().zip(served) {
        let Event::DispatchDecision {
            slot,
            lambda,
            choice,
            energy_j,
            response_s,
            violated,
            resilient,
        } = event
        else {
            unreachable!("filtered to dispatch decisions");
        };
        assert_eq!(*slot, outcome.slot as usize);
        assert_eq!(*lambda, outcome.lambda);
        assert_eq!(*choice, outcome.choice);
        assert_eq!(*energy_j, outcome.energy_j);
        assert_eq!(*response_s, outcome.response_s);
        assert_eq!(*violated, outcome.violated);
        assert_eq!(*resilient, resilient_menu);
    }
}

#[test]
fn run_day_emits_one_decision_per_served_slot() {
    let plain = vec![
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
    let parkable: Vec<ParkableChoice> = plain
        .iter()
        .map(|choice| ParkableChoice {
            choice: choice.clone(),
            sleep: SleepPolicy {
                sleep_power_w: choice.idle_power_w * 0.1,
                residency_s: 0.05,
            },
        })
        .collect();
    let resilient: Vec<ResilientChoice> = plain
        .iter()
        .map(|nominal| ResilientChoice {
            nominal: nominal.clone(),
            degraded_service_s: nominal.service_s * 1.5,
        })
        .collect();
    // λ swings between 5 and 55 jobs/s: the fast entry saturates at 40.
    let profile = DiurnalProfile::new(30.0, 0.8, 24, 600.0).unwrap();

    let (day, events) = traced_day(&plain, &profile);
    check_decisions(&day, &events, false);
    let (day, events) = traced_day(&parkable, &profile);
    check_decisions(&day, &events, false);
    let (day, events) = traced_day(&resilient, &profile);
    check_decisions(&day, &events, true);
}
