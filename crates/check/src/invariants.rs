//! Metamorphic invariant checkers: laws the model must satisfy for *any*
//! valid input, independent of what the right answer is.
//!
//! Each checker walks the deterministic sample of cluster points from
//! [`crate::oracles::sample_points`] (or the swept frontier) and reports
//! every violated law. The fuzz driver replays the same per-point laws
//! over random configurations via [`crate::fuzz::check_point`].

use hecmix_core::config::ConfigSpace;
use hecmix_core::mix_match::evaluate;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::sweep::sweep_frontier;

use crate::oracles::sample_points;

/// Work-share conservation: the matched shares of every sampled point sum
/// to the job size, are individually non-negative, and unused types get
/// exactly zero.
#[must_use]
pub fn work_share_conservation(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for point in sample_points(space) {
        let out = match evaluate(&point, models, w_units) {
            Ok(o) => o,
            Err(e) => {
                violations.push(format!("evaluation failed on {point:?}: {e}"));
                continue;
            }
        };
        let total: f64 = out.shares.iter().sum();
        if (total - w_units).abs() > 1e-9 * w_units {
            violations.push(format!(
                "shares of {point:?} sum to {total:.12e}, not {w_units:.12e}"
            ));
        }
        for (i, (share, cfg)) in out.shares.iter().zip(&point.per_type).enumerate() {
            if *share < 0.0 || !share.is_finite() {
                violations.push(format!("share {i} of {point:?} is {share}"));
            }
            if cfg.is_none() && *share != 0.0 {
                violations.push(format!("unused type {i} of {point:?} got {share} units"));
            }
        }
    }
    violations
}

/// Energy decomposition laws: every component is non-negative and finite,
/// the scalar total equals the breakdown's sum, and the cluster breakdown
/// equals the component-wise sum of the per-type breakdowns.
#[must_use]
pub fn energy_components(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for point in sample_points(space) {
        let out = match evaluate(&point, models, w_units) {
            Ok(o) => o,
            Err(e) => {
                violations.push(format!("evaluation failed on {point:?}: {e}"));
                continue;
            }
        };
        let parts = [
            ("core", out.energy.e_core),
            ("mem", out.energy.e_mem),
            ("io", out.energy.e_io),
            ("idle", out.energy.e_idle),
        ];
        for (name, joules) in parts {
            if joules < 0.0 || !joules.is_finite() {
                violations.push(format!("{name} energy of {point:?} is {joules}"));
            }
        }
        if (out.energy_j - out.energy.total()).abs() > 1e-9 * out.energy_j.abs() {
            violations.push(format!(
                "energy total of {point:?} is {:.12e} J but components sum to {:.12e} J",
                out.energy_j,
                out.energy.total()
            ));
        }
        let per_type_sum: f64 = out
            .per_type_energy
            .iter()
            .flatten()
            .map(hecmix_core::energy::EnergyBreakdown::total)
            .sum();
        if (per_type_sum - out.energy_j).abs() > 1e-9 * out.energy_j.abs() {
            violations.push(format!(
                "per-type energies of {point:?} sum to {per_type_sum:.12e} J, cluster says {:.12e} J",
                out.energy_j
            ));
        }
    }
    violations
}

/// Pareto staircase laws on the swept frontier: times strictly ascending,
/// energies strictly descending, and no point dominated by another.
#[must_use]
pub fn pareto_staircase(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let frontier = match sweep_frontier(space, models, w_units) {
        Ok(f) => f,
        Err(e) => return vec![format!("sweep failed: {e}")],
    };
    frontier_staircase_violations(&frontier)
}

/// Staircase laws for an already-built frontier (shared with the fuzz
/// driver and the proptest suite).
#[must_use]
pub fn frontier_staircase_violations(frontier: &ParetoFrontier) -> Vec<String> {
    let mut violations = Vec::new();
    for pair in frontier.points.windows(2) {
        if pair[1].time_s <= pair[0].time_s {
            violations.push(format!(
                "times not strictly ascending: {:.12e} s then {:.12e} s",
                pair[0].time_s, pair[1].time_s
            ));
        }
        if pair[1].energy_j >= pair[0].energy_j {
            violations.push(format!(
                "energies not strictly descending: {:.12e} J then {:.12e} J",
                pair[0].energy_j, pair[1].energy_j
            ));
        }
    }
    for (i, p) in frontier.points.iter().enumerate() {
        for (j, q) in frontier.points.iter().enumerate() {
            if i != j && p.dominates(q) && !q.dominates(p) {
                violations.push(format!(
                    "frontier point {j} ({:.6e} s, {:.6e} J) is dominated by point {i}",
                    q.time_s, q.energy_j
                ));
            }
        }
    }
    violations
}

/// Merge idempotence and identity: `f ∪ f = f` and `f ∪ ∅ = f`. Exact
/// equality — merging may not perturb a frontier it already contains.
#[must_use]
pub fn merge_idempotence(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let frontier = match sweep_frontier(space, models, w_units) {
        Ok(f) => f,
        Err(e) => return vec![format!("sweep failed: {e}")],
    };
    let mut violations = Vec::new();
    if frontier.merge(&frontier) != frontier {
        violations.push("f.merge(f) != f".to_owned());
    }
    let empty = ParetoFrontier::default();
    if frontier.merge(&empty) != frontier || empty.merge(&frontier) != frontier {
        violations.push("merging with the empty frontier is not the identity".to_owned());
    }
    violations
}

/// Time monotonicity in work: doubling the job size strictly increases
/// the matched service time on every sampled point (the rate model makes
/// it exactly proportional; only strict growth is asserted here).
#[must_use]
pub fn time_monotonicity(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for point in sample_points(space) {
        let (small, large) = match (
            evaluate(&point, models, w_units),
            evaluate(&point, models, 2.0 * w_units),
        ) {
            (Ok(s), Ok(l)) => (s, l),
            (Err(e), _) | (_, Err(e)) => {
                violations.push(format!("evaluation failed on {point:?}: {e}"));
                continue;
            }
        };
        if large.time_s <= small.time_s {
            violations.push(format!(
                "time not monotone in work on {point:?}: t({w_units}) = {:.12e} s, t({}) = {:.12e} s",
                small.time_s,
                2.0 * w_units,
                large.time_s
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_scenario;
    use hecmix_core::pareto::ParetoPoint;

    #[test]
    fn invariants_hold_on_reference_scenario() {
        let (space, models, w) = reference_scenario();
        assert!(work_share_conservation(&space, &models, w).is_empty());
        assert!(energy_components(&space, &models, w).is_empty());
        assert!(pareto_staircase(&space, &models, w).is_empty());
        assert!(merge_idempotence(&space, &models, w).is_empty());
        assert!(time_monotonicity(&space, &models, w).is_empty());
    }

    #[test]
    fn staircase_checker_rejects_a_broken_frontier() {
        // Hand-built, deliberately non-monotone "frontier".
        let cfg = hecmix_core::config::ClusterPoint::new(vec![None, None]);
        let broken = ParetoFrontier {
            points: vec![
                ParetoPoint {
                    time_s: 2.0,
                    energy_j: 5.0,
                    config: cfg.clone(),
                },
                ParetoPoint {
                    time_s: 1.0,
                    energy_j: 6.0,
                    config: cfg,
                },
            ],
        };
        assert!(!frontier_staircase_violations(&broken).is_empty());
    }
}
