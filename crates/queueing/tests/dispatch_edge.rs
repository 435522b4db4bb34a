//! Dispatch edge cases: empty menus, slots no configuration can serve,
//! and near-zero arrival rates. The policy must degrade loudly (violation
//! flags, `usize::MAX` sentinel) rather than panic or fabricate energy.

use hecmix_queueing::dispatch::{
    best_choice, run_day, ConfigChoice, DiurnalProfile, ResilientChoice,
};

fn fast() -> ConfigChoice {
    ConfigChoice {
        label: "fast".into(),
        service_s: 0.025,
        job_energy_j: 20.0,
        idle_power_w: 700.0,
    }
}

fn cheap() -> ConfigChoice {
    ConfigChoice {
        label: "cheap".into(),
        service_s: 0.40,
        job_energy_j: 7.5,
        idle_power_w: 25.0,
    }
}

#[test]
fn empty_menu_yields_no_choice_and_all_violations() {
    assert!(best_choice::<ConfigChoice>(&[], 1.0, 600.0, 0.5)
        .unwrap()
        .is_none());
    assert!(best_choice::<ResilientChoice>(&[], 1.0, 600.0, 0.5)
        .unwrap()
        .is_none());

    let p = DiurnalProfile::new(1.0, 0.5, 24, 600.0).unwrap();
    let day = run_day::<ConfigChoice>(&[], &p, 0.5).unwrap();
    assert_eq!(day.violations, 24);
    assert_eq!(day.energy_j, 0.0);
    assert!(day
        .slots
        .iter()
        .all(|s| s.choice == usize::MAX && s.violated && s.energy_j == 0.0));

    let day = run_day::<ResilientChoice>(&[], &p, 0.5).unwrap();
    assert_eq!(day.violations, 24);
    assert_eq!(day.energy_j, 0.0);
}

#[test]
fn saturated_slots_are_flagged_not_served() {
    // λ = 100/s against a 0.4 s service: every entry is unstable, every
    // slot a violation with the sentinel choice and zero energy.
    let menu = vec![cheap()];
    let p = DiurnalProfile::new(100.0, 0.1, 12, 600.0).unwrap();
    let day = run_day(&menu, &p, 0.5).unwrap();
    assert_eq!(day.violations, 12);
    assert_eq!(day.energy_j, 0.0);
    assert!(day.slots.iter().all(|s| s.choice == usize::MAX));
    assert!(day.slots.iter().all(|s| s.response_s.is_infinite()));
}

#[test]
fn infeasible_slo_falls_back_to_fastest_and_counts_violations() {
    // Stable queues, impossible SLO (1 ms): the fastest entry is chosen
    // for every slot and every slot is flagged.
    let menu = vec![fast(), cheap()];
    let p = DiurnalProfile::new(1.0, 0.5, 24, 600.0).unwrap();
    let day = run_day(&menu, &p, 0.001).unwrap();
    assert_eq!(day.violations, 24);
    assert!(day.slots.iter().all(|s| s.choice == 0 && s.violated));
    // Energy is still accounted: the operator runs the fast pool and eats
    // the misses.
    assert!(day.energy_j > 0.0);
}

#[test]
fn near_zero_arrivals_cost_idle_energy_only() {
    // λ → 0: jobs are vanishingly rare, so the slot's energy collapses to
    // the idle floor of the chosen (cheapest-idle) configuration.
    let menu = vec![fast(), cheap()];
    let window_s = 600.0;
    let lambda = 1e-9;
    let (idx, energy, _, violated) = best_choice(&menu, lambda, window_s, 1.0).unwrap().unwrap();
    assert_eq!(idx, 1, "cheap idle floor must win");
    assert!(!violated);
    let idle_floor = cheap().idle_power_w * window_s;
    assert!(
        (energy - idle_floor).abs() < 1e-3 * idle_floor,
        "energy {energy} vs idle floor {idle_floor}"
    );
}

#[test]
fn single_entry_menu_is_always_that_entry_or_nothing() {
    let menu = vec![fast()];
    // Feasible λ: entry 0, no violation at a sane SLO.
    let (idx, _, _, violated) = best_choice(&menu, 1.0, 600.0, 0.5).unwrap().unwrap();
    assert_eq!(idx, 0);
    assert!(!violated);
    // Beyond saturation (1/0.025 = 40/s): nothing.
    assert!(best_choice(&menu, 41.0, 600.0, 0.5).unwrap().is_none());
}

#[test]
fn resilient_entry_with_saturated_degraded_queue_survives_as_fallback() {
    // The only entry is nominally stable but saturated after a failure:
    // it must still be picked (there is nothing better), flagged as a
    // violation rather than dropped.
    let menu = vec![ResilientChoice {
        nominal: cheap(),
        degraded_service_s: 2.0, // saturation at λ = 0.5
    }];
    let (idx, energy, _, violated) = best_choice(&menu, 1.0, 600.0, 1.0).unwrap().unwrap();
    assert_eq!(idx, 0);
    assert!(violated, "degraded saturation cannot meet any SLO");
    assert!(energy > 0.0);
}

#[test]
fn non_finite_or_non_positive_slot_inputs_are_rejected() {
    // Regression: a NaN deadline used to compare false against every
    // response time and silently select the fastest entry as a
    // "violation"; it is now an InvalidInput error, like the rate_table
    // sweep entry points.
    let menu = vec![fast(), cheap()];
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        assert!(best_choice(&menu, bad, 600.0, 0.5).is_err(), "λ = {bad}");
        assert!(best_choice(&menu, 1.0, bad, 0.5).is_err(), "window = {bad}");
        assert!(best_choice(&menu, 1.0, 600.0, bad).is_err(), "slo = {bad}");
        let rmenu = vec![ResilientChoice {
            nominal: cheap(),
            degraded_service_s: 0.8,
        }];
        assert!(best_choice(&rmenu, bad, 600.0, 0.5).is_err());
        assert!(best_choice(&rmenu, 1.0, 600.0, bad).is_err());
    }
    let p = DiurnalProfile::new(1.0, 0.5, 24, 600.0).unwrap();
    assert!(run_day(&menu, &p, f64::NAN).is_err());
    assert!(run_day::<ResilientChoice>(&[], &p, -0.5).is_err());
}

#[test]
fn corrupt_menu_entries_are_rejected() {
    let mut broken = fast();
    broken.service_s = f64::NAN;
    assert!(best_choice(&[broken], 1.0, 600.0, 0.5).is_err());

    let mut broken = cheap();
    broken.job_energy_j = f64::NEG_INFINITY;
    assert!(best_choice(&[broken], 1.0, 600.0, 0.5).is_err());

    let mut broken = cheap();
    broken.idle_power_w = -5.0;
    assert!(best_choice(&[broken], 1.0, 600.0, 0.5).is_err());

    // Resilient entries additionally require degraded ≥ nominal service.
    let shrunk = ResilientChoice {
        nominal: cheap(),
        degraded_service_s: 0.1, // faster after losing a node: nonsense
    };
    assert!(best_choice(&[shrunk], 1.0, 600.0, 0.5).is_err());
    let nan_degraded = ResilientChoice {
        nominal: cheap(),
        degraded_service_s: f64::NAN,
    };
    assert!(best_choice(&[nan_degraded], 1.0, 600.0, 0.5).is_err());
}
