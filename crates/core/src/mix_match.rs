//! Mix-and-match workload splitting (§I, §II; Eq. 1 and 4).
//!
//! The paper's core technique: service one job on *all* node types
//! simultaneously, splitting the work `W = Σ_t W_t` so that every type
//! finishes at the same instant (`T = T_ARM = T_AMD`, Eq. 1). Finishing
//! together minimizes the energy wasted by nodes idling while waiting for
//! stragglers.
//!
//! Because the per-type execution time is linear in the assigned work
//! (`T_t(W_t) = W_t / R_t` where `R_t` is the type's execution rate in
//! units/s — every term of Eq. 2–11 scales with `W_t`), the matched split
//! has the closed form `W_t = W · R_t / Σ R_u`, the one solver here. The
//! self-check harness tests it against a bisection split over the same
//! time functions (`hecmix_check::reference::match_two_numeric`).

use serde::{Deserialize, Serialize};

use crate::config::{ClusterPoint, NodeConfig};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{Error, Result};
use crate::exec_time::{ExecTimeModel, TimeBreakdown};
use crate::profile::WorkloadModel;
use crate::types::Platform;

/// Alias kept for API symmetry with the paper's terminology: a cluster
/// configuration is a configuration-space point.
pub type ClusterConfig = ClusterPoint;

/// Helpers for building per-type deployments.
pub struct TypeDeployment;

impl TypeDeployment {
    /// `nodes` nodes of `platform`, all cores, maximum frequency.
    #[must_use]
    pub fn maxed(platform: &Platform, nodes: u32) -> Option<NodeConfig> {
        if nodes == 0 {
            None
        } else {
            Some(NodeConfig::maxed(platform, nodes))
        }
    }

    /// Explicit deployment.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // deliberately builds the Option the cluster vec wants
    pub fn new(cfg: NodeConfig) -> Option<NodeConfig> {
        Some(cfg)
    }

    /// The type does not participate.
    #[must_use]
    pub fn unused() -> Option<NodeConfig> {
        None
    }
}

impl ClusterPoint {
    /// Build a cluster configuration from per-type deployments.
    #[must_use]
    pub fn new(per_type: Vec<Option<NodeConfig>>) -> Self {
        Self { per_type }
    }
}

/// Result of the matching step: the per-type work shares and the common
/// finish time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedSplit {
    /// Work units assigned to each type (0 for unused types). Sums to `W`.
    pub shares: Vec<f64>,
    /// The common execution time in seconds.
    pub time_s: f64,
    /// Per-type time breakdowns (`None` for unused types).
    pub per_type: Vec<Option<TimeBreakdown>>,
}

/// Full evaluation of one cluster configuration on one job: matched times
/// plus the energy decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Job service time in seconds (all types finish together).
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Cluster-wide energy decomposition.
    pub energy: EnergyBreakdown,
    /// Work units assigned to each type.
    pub shares: Vec<f64>,
    /// Per-type time breakdowns (`None` for unused types).
    pub per_type_times: Vec<Option<TimeBreakdown>>,
    /// Per-type energy decompositions (`None` for unused types).
    pub per_type_energy: Vec<Option<EnergyBreakdown>>,
}

fn check_inputs(point: &ClusterPoint, models: &[WorkloadModel], w_units: f64) -> Result<()> {
    if point.per_type.len() != models.len() {
        return Err(Error::ProfileMismatch {
            deployments: point.per_type.len(),
            profiles: models.len(),
        });
    }
    if point.types_used() == 0 {
        return Err(Error::EmptyCluster);
    }
    if !(w_units > 0.0) || !w_units.is_finite() {
        return Err(Error::InvalidInput(format!(
            "work must be positive and finite, got {w_units}"
        )));
    }
    for (cfg, model) in point.per_type.iter().zip(models) {
        if let Some(cfg) = cfg {
            ExecTimeModel::new(model).check_config(cfg)?;
        }
    }
    Ok(())
}

/// Split `w_units` of work across the used node types so all finish
/// simultaneously (Eq. 1, 4). Exact closed form: shares are proportional to
/// the types' execution rates.
pub fn mix_and_match(
    point: &ClusterPoint,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<MatchedSplit> {
    check_inputs(point, models, w_units)?;

    let rates: Vec<f64> = point
        .per_type
        .iter()
        .zip(models)
        .map(|(cfg, model)| match cfg {
            Some(cfg) => ExecTimeModel::new(model).rate_units_per_s(cfg),
            None => 0.0,
        })
        .collect();
    let total_rate: f64 = rates.iter().sum();
    if !(total_rate > 0.0) || !total_rate.is_finite() {
        return Err(Error::MatchingFailed(format!(
            "cluster execution rate is {total_rate} units/s"
        )));
    }

    let shares: Vec<f64> = rates.iter().map(|r| w_units * r / total_rate).collect();
    let per_type: Vec<Option<TimeBreakdown>> = point
        .per_type
        .iter()
        .zip(models)
        .zip(&shares)
        .map(|((cfg, model), &share)| {
            cfg.as_ref()
                .map(|cfg| ExecTimeModel::new(model).predict(cfg, share))
        })
        .collect();
    let time_s = w_units / total_rate;
    Ok(MatchedSplit {
        shares,
        time_s,
        per_type,
    })
}

/// Evaluate one cluster configuration end-to-end: match the split, then
/// price the energy of every type over the common job duration.
pub fn evaluate(
    point: &ClusterPoint,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<ClusterOutcome> {
    let split = mix_and_match(point, models, w_units)?;
    Ok(price_split(point, models, &split))
}

/// Evaluate a cluster configuration under an *explicit* (possibly
/// unbalanced) split of the work. Used by the matching ablation: every type
/// idles (and burns its idle floor) until the slowest type finishes.
pub fn evaluate_split(
    point: &ClusterPoint,
    models: &[WorkloadModel],
    shares: &[f64],
) -> Result<ClusterOutcome> {
    let w: f64 = shares.iter().sum();
    check_inputs(point, models, w)?;
    if shares.len() != point.per_type.len() {
        return Err(Error::InvalidInput(
            "one share per node type is required".into(),
        ));
    }
    if shares.iter().any(|s| *s < 0.0 || !s.is_finite()) {
        return Err(Error::InvalidInput(
            "shares must be non-negative and finite".into(),
        ));
    }
    for (cfg, share) in point.per_type.iter().zip(shares) {
        if cfg.is_none() && *share > 0.0 {
            return Err(Error::InvalidInput(
                "work assigned to an unused node type".into(),
            ));
        }
    }
    let per_type: Vec<Option<TimeBreakdown>> = point
        .per_type
        .iter()
        .zip(models)
        .zip(shares)
        .map(|((cfg, model), &share)| {
            cfg.as_ref()
                .map(|cfg| ExecTimeModel::new(model).predict(cfg, share))
        })
        .collect();
    let time_s = per_type
        .iter()
        .flatten()
        .map(|t| t.total)
        .fold(0.0, f64::max);
    let split = MatchedSplit {
        shares: shares.to_vec(),
        time_s,
        per_type,
    };
    Ok(price_split(point, models, &split))
}

fn price_split(
    point: &ClusterPoint,
    models: &[WorkloadModel],
    split: &MatchedSplit,
) -> ClusterOutcome {
    let mut energy = EnergyBreakdown::default();
    let per_type_energy: Vec<Option<EnergyBreakdown>> = point
        .per_type
        .iter()
        .zip(models)
        .zip(&split.per_type)
        .map(|((cfg, model), times)| match (cfg, times) {
            (Some(cfg), Some(times)) => {
                let e = EnergyModel::new(model).energy(cfg, times, split.time_s);
                energy = energy.add(&e);
                Some(e)
            }
            _ => None,
        })
        .collect();
    ClusterOutcome {
        time_s: split.time_s,
        energy_j: energy.total(),
        energy,
        shares: split.shares.clone(),
        per_type_times: split.per_type.clone(),
        per_type_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Frequency, Platform};

    fn bundles() -> (Platform, Platform, Vec<WorkloadModel>) {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        (arm, amd, models)
    }

    #[test]
    fn matched_split_equalizes_times() {
        let (arm, amd, models) = bundles();
        let point = ClusterPoint::new(vec![
            TypeDeployment::maxed(&arm, 8),
            TypeDeployment::maxed(&amd, 1),
        ]);
        let split = mix_and_match(&point, &models, 5e7).unwrap();
        let times: Vec<f64> = split.per_type.iter().flatten().map(|t| t.total).collect();
        assert_eq!(times.len(), 2);
        assert!(
            (times[0] - times[1]).abs() < 1e-9 * times[0],
            "ARM {} vs AMD {}",
            times[0],
            times[1]
        );
        assert!((split.shares.iter().sum::<f64>() - 5e7).abs() < 1e-3);
        assert!((split.time_s - times[0]).abs() < 1e-12);
    }

    #[test]
    fn faster_type_gets_more_work() {
        let (arm, amd, models) = bundles();
        let point = ClusterPoint::new(vec![
            TypeDeployment::maxed(&arm, 1),
            TypeDeployment::maxed(&amd, 1),
        ]);
        let split = mix_and_match(&point, &models, 1e6).unwrap();
        // One AMD node (6 cores at 2.1 GHz, 40 instr/unit) out-rates one
        // ARM node (4 cores at 1.4 GHz, 60 instr/unit).
        assert!(split.shares[1] > split.shares[0]);
    }

    #[test]
    fn homogeneous_point_gets_everything() {
        let (arm, _amd, models) = bundles();
        let point = ClusterPoint::new(vec![TypeDeployment::maxed(&arm, 4), None]);
        let split = mix_and_match(&point, &models, 1e6).unwrap();
        assert!((split.shares[0] - 1e6).abs() < 1e-6);
        assert_eq!(split.shares[1], 0.0);
        assert!(split.per_type[1].is_none());
    }

    #[test]
    fn evaluate_prices_all_components() {
        let (arm, amd, models) = bundles();
        let point = ClusterPoint::new(vec![
            TypeDeployment::maxed(&arm, 2),
            TypeDeployment::maxed(&amd, 1),
        ]);
        let out = evaluate(&point, &models, 1e7).unwrap();
        assert!(out.time_s > 0.0);
        assert!(out.energy_j > 0.0);
        assert!((out.energy_j - out.energy.total()).abs() < 1e-12);
        // Idle energy present for both types over the same duration:
        let e_arm = out.per_type_energy[0].unwrap();
        let e_amd = out.per_type_energy[1].unwrap();
        assert!((e_arm.e_idle - 1.8 * out.time_s * 2.0).abs() < 1e-9);
        assert!((e_amd.e_idle - 45.0 * out.time_s).abs() < 1e-9);
    }

    #[test]
    fn matched_beats_unbalanced_split() {
        // Observation motivating the technique: matching minimizes idle
        // waste, so any other split of the same work on the same hardware
        // costs at least as much energy and takes at least as long.
        let (arm, amd, models) = bundles();
        let point = ClusterPoint::new(vec![
            TypeDeployment::maxed(&arm, 4),
            TypeDeployment::maxed(&amd, 2),
        ]);
        let w = 2e7;
        let matched = evaluate(&point, &models, w).unwrap();
        for frac in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let shares = vec![w * frac, w * (1.0 - frac)];
            let other = evaluate_split(&point, &models, &shares).unwrap();
            assert!(
                other.time_s >= matched.time_s - 1e-9,
                "split {frac} finished faster than matched"
            );
            assert!(
                other.energy_j >= matched.energy_j - 1e-6,
                "split {frac}: {} J < matched {} J",
                other.energy_j,
                matched.energy_j
            );
        }
    }

    #[test]
    fn error_paths() {
        let (arm, _amd, models) = bundles();
        // profile count mismatch
        let point = ClusterPoint::new(vec![TypeDeployment::maxed(&arm, 1)]);
        assert!(matches!(
            mix_and_match(&point, &models, 1.0),
            Err(Error::ProfileMismatch { .. })
        ));
        // empty cluster
        let point = ClusterPoint::new(vec![None, None]);
        assert!(matches!(
            mix_and_match(&point, &models, 1.0),
            Err(Error::EmptyCluster)
        ));
        // bad work
        let point = ClusterPoint::new(vec![TypeDeployment::maxed(&arm, 1), None]);
        assert!(mix_and_match(&point, &models, 0.0).is_err());
        assert!(mix_and_match(&point, &models, f64::NAN).is_err());
        // invalid frequency for the platform
        let bad = ClusterPoint::new(vec![
            Some(NodeConfig::new(1, 4, Frequency::from_ghz(9.9))),
            None,
        ]);
        assert!(mix_and_match(&bad, &models, 1.0).is_err());
        // share on unused type
        let point = ClusterPoint::new(vec![TypeDeployment::maxed(&arm, 1), None]);
        assert!(evaluate_split(&point, &models, &[1.0, 1.0]).is_err());
    }
}
