//! End-to-end self-check acceptance: `run_all` must come back clean on the
//! reference scenario, count its checks, and publish the summary through
//! the observability registry.
//!
//! The sink registry is process-global, so this binary holds exactly one
//! test: installing a sink from several `#[test]` functions in the same
//! process would race.

use std::sync::Arc;

use hecmix_obs::{Event, RingSink};

#[test]
fn run_all_is_clean_and_publishes_a_summary() {
    let sink = Arc::new(RingSink::new(256));
    hecmix_obs::install(sink.clone());

    let report = hecmix_check::run_all(42);
    for r in &report.results {
        assert!(
            r.passed(),
            "check {} found violations: {:?}",
            r.name,
            r.violations
        );
    }
    assert!(report.is_clean());
    assert_eq!(report.checks(), 15);
    let outcome = report.outcome();
    assert_eq!(outcome.checks, 15);
    assert_eq!(outcome.violations, 0);

    hecmix_obs::uninstall();
    let events = sink.events();
    let summaries: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::CheckSummary { .. }))
        .collect();
    assert_eq!(summaries.len(), 1, "exactly one summary per run");
    match summaries[0] {
        Event::CheckSummary {
            seed,
            checks,
            violations,
            wall_s,
        } => {
            assert_eq!(*seed, 42);
            assert_eq!(*checks, 15);
            assert_eq!(*violations, 0);
            assert!(*wall_s >= 0.0);
        }
        other => panic!("unexpected event {other:?}"),
    }
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::CheckViolation { .. })),
        "clean run must not emit violations"
    );
}
