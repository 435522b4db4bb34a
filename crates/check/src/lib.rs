//! Cross-stack differential self-check harness.
//!
//! The workspace computes several quantities along *independent* code
//! paths: work splits come from a closed form and from bisection, Pareto
//! frontiers from an exhaustive sweep and from a streaming rate-table
//! kernel, cluster energy from the analytical model and from the
//! discrete-event simulator, queue waits from the exact M/D/1 formulas and
//! from a request-level DES. Whenever two paths must agree, their
//! disagreement is a bug detector that needs no hand-written expected
//! values. The bisection split and the DES serve no production path, so
//! they live here, in [`reference`](mod@reference). This crate packages
//! those detectors:
//!
//! * [`oracles`] — pairwise differential checks between independent
//!   implementations, each with an explicitly justified tolerance;
//! * [`invariants`] — metamorphic laws that must hold for *any* input:
//!   work-share conservation, energy-component non-negativity and
//!   additivity, Pareto staircase monotonicity, frontier-merge
//!   idempotence, time monotonicity in work;
//! * [`fuzz`] — a seeded random-configuration driver that replays the
//!   cheap checks over arbitrary cluster points and *shrinks* any failure
//!   to a minimal reproducing configuration, emitted as one-line JSON;
//! * [`reference`](mod@reference) — slow, plain versions of production
//!   fast paths, kept only so the oracles, tests and benchmarks can
//!   compare against them.
//!
//! [`run_all`] wires everything into one report. Violations and the final
//! summary are published as [`hecmix_obs`] events (`check_violation`,
//! `check_summary`), so a `--trace` run records them in the JSONL stream,
//! and the summary can be embedded in artifact manifests via
//! [`hecmix_obs::SelfCheckOutcome`].

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values;
// rewriting with `partial_cmp` would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod invariants;
pub mod oracles;
pub mod reference;

use hecmix_core::config::ConfigSpace;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::{emit, Event, SelfCheckOutcome};

/// Outcome of one named check: the check ran to completion and found
/// `violations.len()` counterexamples (an empty list means it held).
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Stable kebab-case check name (also used in telemetry events).
    pub name: &'static str,
    /// Human-readable descriptions of every violation found.
    pub violations: Vec<String>,
}

impl CheckResult {
    /// Wrap a check's findings under its stable name.
    #[must_use]
    pub fn new(name: &'static str, violations: Vec<String>) -> Self {
        Self { name, violations }
    }

    /// True when the check found no violations.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate report of a [`run_all`] sweep.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Per-check outcomes, in execution order.
    pub results: Vec<CheckResult>,
    /// Wall-clock seconds the sweep took.
    pub wall_s: f64,
}

impl CheckReport {
    /// Number of checks executed.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.results.len() as u64
    }

    /// Total violations across all checks.
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.results.iter().map(|r| r.violations.len() as u64).sum()
    }

    /// True when every check passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Condensed summary for embedding in a run manifest.
    #[must_use]
    pub fn outcome(&self) -> SelfCheckOutcome {
        SelfCheckOutcome {
            checks: self.checks(),
            violations: self.violation_count(),
        }
    }
}

/// The synthetic two-type scenario the cheap (model-only) checks run
/// against: the paper's reference platforms with small node counts, a
/// CPU-bound bundle per type, and a mid-sized job.
#[must_use]
pub fn reference_scenario() -> (ConfigSpace, Vec<WorkloadModel>, f64) {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let models = vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "selfcheck", 2.0e9),
        WorkloadModel::synthetic_cpu_bound(&amd, "selfcheck", 1.6e9),
    ];
    let space = ConfigSpace::two_type(arm, 3, amd, 2);
    (space, models, 1e6)
}

/// Run every oracle and every metamorphic invariant once and collect the
/// outcomes. Violations and the final summary are also emitted as
/// observability events.
#[must_use]
pub fn run_all(seed: u64) -> CheckReport {
    let started = std::time::Instant::now();
    let (space, models, w) = reference_scenario();
    let results: Vec<CheckResult> = vec![
        CheckResult::new(
            "closed-form-vs-numeric",
            oracles::closed_form_vs_numeric(&space, &models, w),
        ),
        CheckResult::new(
            "exhaustive-vs-streaming",
            oracles::exhaustive_vs_streaming(&space, &models, w),
        ),
        CheckResult::new("model-vs-sim", oracles::model_vs_sim(seed)),
        CheckResult::new("late-crash-vs-plain", oracles::late_crash_vs_plain(seed)),
        CheckResult::new("des-mean-wait-vs-pk", oracles::des_mean_wait_vs_pk(seed)),
        CheckResult::new("md1-quantile-vs-des", oracles::md1_quantile_vs_des(seed)),
        CheckResult::new(
            "resilient-k0-vs-plain",
            oracles::resilient_k0_vs_plain(&space, &models, w),
        ),
        CheckResult::new(
            "ladder-lift-vs-two-point",
            oracles::ladder_lift_vs_two_point(seed),
        ),
        CheckResult::new(
            "ladder-stream-vs-exhaustive",
            oracles::ladder_stream_vs_exhaustive(seed),
        ),
        CheckResult::new(
            "sched-degenerate-vs-mix",
            oracles::sched_degenerate_vs_mix(),
        ),
        CheckResult::new(
            "work-share-conservation",
            invariants::work_share_conservation(&space, &models, w),
        ),
        CheckResult::new(
            "energy-components",
            invariants::energy_components(&space, &models, w),
        ),
        CheckResult::new(
            "pareto-staircase",
            invariants::pareto_staircase(&space, &models, w),
        ),
        CheckResult::new(
            "merge-idempotence",
            invariants::merge_idempotence(&space, &models, w),
        ),
        CheckResult::new(
            "time-monotonicity",
            invariants::time_monotonicity(&space, &models, w),
        ),
    ];
    for r in &results {
        for v in &r.violations {
            emit(|| Event::CheckViolation {
                check: r.name.to_owned(),
                seed,
                detail: v.clone(),
            });
        }
    }
    let report = CheckReport {
        seed,
        results,
        wall_s: started.elapsed().as_secs_f64(),
    };
    emit(|| Event::CheckSummary {
        seed,
        checks: report.checks(),
        violations: report.violation_count(),
        wall_s: report.wall_s,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scenario_is_well_formed() {
        let (space, models, w) = reference_scenario();
        assert_eq!(space.types.len(), models.len());
        assert!(w > 0.0);
        for m in &models {
            m.validate().expect("synthetic bundles validate");
        }
    }

    #[test]
    fn report_accounting() {
        let report = CheckReport {
            seed: 7,
            results: vec![
                CheckResult::new("a", vec![]),
                CheckResult::new("b", vec!["boom".into(), "bang".into()]),
            ],
            wall_s: 0.1,
        };
        assert_eq!(report.checks(), 2);
        assert_eq!(report.violation_count(), 2);
        assert!(!report.is_clean());
        let o = report.outcome();
        assert_eq!((o.checks, o.violations), (2, 2));
        assert!(report.results[0].passed());
        assert!(!report.results[1].passed());
    }
}
