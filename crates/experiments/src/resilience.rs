//! Degraded-mode experiments: validate the analytical crash predictor
//! against seeded simulator crash runs (the Tables 3–4 discipline applied
//! to failures), summarize `k`-failure resilient frontiers, and price the
//! energy premium of failure-aware dispatch.

use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig, TypeBounds};
use hecmix_core::mix_match::{evaluate, TypeDeployment};
use hecmix_core::resilience::{predict_crash_run, CrashPlan, ResilientTable, TypeRate};
use hecmix_core::stats::relative_error_pct;
use hecmix_queueing::dispatch::{
    menu_from_frontier, run_day, ConfigChoice, DayOutcome, DiurnalProfile, ResilientChoice,
};
use hecmix_sim::{run_cluster_faulted, ClusterSpec, FaultSchedule, RecoveryPolicy, TypeAssignment};
use hecmix_workloads::Workload;

use crate::lab::Lab;

/// One workload's crash validation: model-predicted degraded completion
/// vs a seeded simulator crash run on the paper's 8 ARM + 1 AMD cluster.
#[derive(Debug, Clone)]
pub struct CrashValidationRow {
    /// Workload name.
    pub workload: String,
    /// Job size in work units.
    pub units: u64,
    /// Nominal (fault-free) model completion time, seconds.
    pub nominal_time_s: f64,
    /// Injected crash time, seconds.
    pub crash_s: f64,
    /// Model-predicted degraded completion time, seconds.
    pub predicted_time_s: f64,
    /// Simulator-measured degraded completion time, seconds.
    pub measured_time_s: f64,
    /// Completion-time error, %.
    pub time_err_pct: f64,
    /// Model-predicted degraded total energy, joules.
    pub predicted_energy_j: f64,
    /// Simulator-metered degraded total energy, joules.
    pub measured_energy_j: f64,
    /// Energy error, %.
    pub energy_err_pct: f64,
    /// Units the model expects the dead node to leave undone.
    pub predicted_lost_units: f64,
    /// Units the simulated crash actually left undone (redistributed).
    pub measured_lost_units: u64,
}

/// Validate the crash predictor for one workload: crash ARM node 0 at
/// 35 % of the nominal completion time and compare the analytical
/// degraded-mode prediction with a full fault-injected simulator run.
#[must_use]
pub fn crash_validation_row(lab: &Lab, w: &dyn Workload, units: u64) -> CrashValidationRow {
    let models = lab.models(w);
    let point = ClusterPoint::new(vec![
        TypeDeployment::maxed(&lab.arm.platform, 8),
        TypeDeployment::maxed(&lab.amd.platform, 1),
    ]);
    let nominal = evaluate(&point, &models, units as f64).expect("valid cluster configuration");

    // The analytical side works from per-type (rate, power) pairs — the
    // same quantities the streaming sweep uses.
    let rates: Vec<TypeRate> = point
        .per_type
        .iter()
        .zip(models.iter())
        .map(|(cfg, m)| {
            let cfg = cfg.expect("both types deployed");
            TypeRate::from_model(m, &NodeConfig::new(cfg.nodes, cfg.cores, cfg.freq))
                .expect("valid type configuration")
        })
        .collect();
    let plan = CrashPlan {
        crash_type: 0,
        crash_s: 0.35 * nominal.time_s,
        heartbeat_timeout_s: 0.04 * nominal.time_s,
        redistribute_backoff_s: 0.02 * nominal.time_s,
    };
    let predicted = predict_crash_run(&rates, units as f64, &plan).expect("valid crash plan");

    // The measured side: the same crash injected into the event-driven
    // cluster, mix-and-match shares exactly as the validation tables use.
    let arm_units = nominal.shares[0].round() as u64;
    let amd_units = units - arm_units.min(units);
    let spec = ClusterSpec {
        trace: w.trace(),
        assignments: vec![
            TypeAssignment {
                arch: lab.arm.clone(),
                nodes: 8,
                cores: lab.arm.platform.cores,
                freq: lab.arm.platform.fmax(),
                units: arm_units,
            },
            TypeAssignment {
                arch: lab.amd.clone(),
                nodes: 1,
                cores: lab.amd.platform.cores,
                freq: lab.amd.platform.fmax(),
                units: amd_units,
            },
        ],
        seed: lab.seed() ^ 0xFA17,
    };
    let schedule = FaultSchedule::new().crash(0, 0, plan.crash_s);
    let policy = RecoveryPolicy {
        heartbeat_timeout_s: plan.heartbeat_timeout_s,
        redistribute_backoff_s: plan.redistribute_backoff_s,
    };
    let measured = run_cluster_faulted(&spec, &schedule, &policy);

    CrashValidationRow {
        workload: w.name().to_owned(),
        units,
        nominal_time_s: nominal.time_s,
        crash_s: plan.crash_s,
        predicted_time_s: predicted.time_s,
        measured_time_s: measured.duration_s,
        time_err_pct: relative_error_pct(predicted.time_s, measured.duration_s),
        predicted_energy_j: predicted.energy_j,
        measured_energy_j: measured.measured_energy_j,
        energy_err_pct: relative_error_pct(predicted.energy_j, measured.measured_energy_j),
        predicted_lost_units: predicted.lost_units,
        measured_lost_units: measured.crashes.first().map_or(0, |c| c.leftover_units),
    }
}

/// Crash validation across the three bottleneck classes (CPU-bound EP,
/// network-bound memcached, FP-heavy BlackScholes) at analysis sizes.
#[must_use]
pub fn crash_validation(lab: &Lab) -> Vec<CrashValidationRow> {
    use hecmix_workloads::blackscholes::BlackScholes;
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::memcached::Memcached;
    [
        &Ep::class_a() as &dyn Workload,
        &Memcached::default(),
        &BlackScholes::default(),
    ]
    .iter()
    .map(|w| crash_validation_row(lab, *w, w.analysis_units()))
    .collect()
}

/// One `k` level of a resilient-frontier summary.
#[derive(Debug, Clone)]
pub struct FrontierLevel {
    /// Failure tolerance `k`.
    pub k: u32,
    /// Frontier size.
    pub points: usize,
    /// Fastest worst-case completion on the frontier, seconds.
    pub min_time_s: f64,
    /// Cheapest worst-case energy on the frontier, joules.
    pub min_energy_j: f64,
}

/// The configuration space of the resilience studies: up to 8 ARM +
/// 2 AMD nodes, every core count and P-state.
#[must_use]
pub fn resilience_space(lab: &Lab) -> ConfigSpace {
    ConfigSpace::new(vec![
        TypeBounds {
            platform: lab.arm.platform.clone(),
            max_nodes: 8,
        },
        TypeBounds {
            platform: lab.amd.platform.clone(),
            max_nodes: 2,
        },
    ])
}

/// Sweep the `k = 0..=k_max` resilient frontiers of one workload over
/// [`resilience_space`] and summarize each level.
#[must_use]
pub fn resilient_frontier_levels(
    lab: &Lab,
    w: &dyn Workload,
    units: f64,
    k_max: u32,
) -> Vec<FrontierLevel> {
    let models = lab.models(w);
    let rt = ResilientTable::build(&resilience_space(lab), &models).expect("valid space");
    rt.frontiers(units, k_max)
        .expect("valid work size")
        .into_iter()
        .enumerate()
        .map(|(k, f)| FrontierLevel {
            k: k as u32,
            points: f.len(),
            min_time_s: f.min_time_s().unwrap_or(f64::NAN),
            min_energy_j: f.min_energy_j().unwrap_or(f64::NAN),
        })
        .collect()
}

/// Naive vs failure-aware dispatch over one diurnal day.
#[derive(Debug, Clone)]
pub struct DispatchComparison {
    /// Day under the nominal menu (no failure provisioning).
    pub naive: DayOutcome,
    /// Day under the 1-failure-provisioned menu.
    pub resilient: DayOutcome,
    /// Energy premium of provisioning, % of the naive day.
    pub premium_pct: f64,
}

/// Price failure-aware provisioning: run a diurnal day once with the
/// nominal (`k = 0`) frontier as the menu, and once with the `k = 1`
/// frontier where each entry is annotated with its worst-case one-loss
/// service time. The premium is what one-failure SLO insurance costs in
/// fault-free energy.
#[must_use]
pub fn resilient_dispatch(
    lab: &Lab,
    w: &dyn Workload,
    units: f64,
    profile: &DiurnalProfile,
    slo_response_s: f64,
) -> DispatchComparison {
    let models = lab.models(w);
    let space = resilience_space(lab);
    let rt = ResilientTable::build(&space, &models).expect("valid space");
    let nominal_frontier = rt.frontier(units, 0).expect("valid work size");
    let degraded_frontier = rt.frontier(units, 1).expect("valid work size");

    let naive_menu = menu_from_frontier(&nominal_frontier, &models);
    // Each k = 1 frontier point carries the *deployed* configuration with
    // its worst-case degraded time; its nominal behaviour is the same flat
    // index evaluated without losses.
    let platforms: Vec<_> = models.iter().map(|m| m.platform.clone()).collect();
    let resilient_menu: Vec<ResilientChoice> = degraded_frontier
        .points
        .iter()
        .map(|p| {
            let flat = (1..=rt.table().count())
                .find(|&flat| rt.table().decode(flat) == p.config)
                .expect("frontier config comes from the table");
            let nominal = rt.table().outcome(flat, units);
            ResilientChoice {
                nominal: ConfigChoice::for_config(
                    &p.config,
                    &platforms,
                    &models,
                    nominal.time_s,
                    nominal.energy_j,
                ),
                degraded_service_s: p.time_s,
            }
        })
        .collect();

    let naive =
        run_day(&naive_menu, profile, slo_response_s).expect("naive dispatch menu is well-formed");
    let resilient = run_day(&resilient_menu, profile, slo_response_s)
        .expect("resilient dispatch menu is well-formed");
    let premium_pct = if naive.energy_j > 0.0 {
        100.0 * (resilient.energy_j / naive.energy_j - 1.0)
    } else {
        f64::NAN
    };
    DispatchComparison {
        naive,
        resilient,
        premium_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::blackscholes::BlackScholes;
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::memcached::Memcached;

    // Acceptance criterion: for three workloads spanning the bottleneck
    // classes, the model-predicted k = 1 degraded completion time and
    // energy match a seeded simulator crash run within the paper's 15 %
    // validation band. Small problem sizes keep the simulations fast; the
    // binary artifact runs analysis sizes.

    #[test]
    fn crash_predictor_matches_simulator_ep() {
        let lab = Lab::new();
        let row = crash_validation_row(&lab, &Ep::class_a(), 400_000);
        assert!(
            row.time_err_pct < 15.0,
            "EP time error {}%",
            row.time_err_pct
        );
        assert!(
            row.energy_err_pct < 15.0,
            "EP energy error {}%",
            row.energy_err_pct
        );
        assert!(row.predicted_time_s > row.nominal_time_s);
        assert!(row.measured_lost_units > 0);
    }

    #[test]
    fn crash_predictor_matches_simulator_memcached() {
        let lab = Lab::new();
        let row = crash_validation_row(&lab, &Memcached::default(), 40_000);
        assert!(
            row.time_err_pct < 15.0,
            "memcached time error {}%",
            row.time_err_pct
        );
        assert!(
            row.energy_err_pct < 15.0,
            "memcached energy error {}%",
            row.energy_err_pct
        );
    }

    #[test]
    fn crash_predictor_matches_simulator_blackscholes() {
        let lab = Lab::new();
        let row = crash_validation_row(&lab, &BlackScholes::default(), 40_000);
        assert!(
            row.time_err_pct < 15.0,
            "blackscholes time error {}%",
            row.time_err_pct
        );
        assert!(
            row.energy_err_pct < 15.0,
            "blackscholes energy error {}%",
            row.energy_err_pct
        );
    }

    #[test]
    fn frontier_levels_degrade_monotonically() {
        let lab = Lab::new();
        let levels = resilient_frontier_levels(&lab, &Memcached::default(), 40_000.0, 2);
        assert_eq!(levels.len(), 3);
        for pair in levels.windows(2) {
            assert!(
                pair[1].min_time_s >= pair[0].min_time_s,
                "worst-case completion cannot improve with more failures"
            );
            assert!(pair[1].min_energy_j >= pair[0].min_energy_j);
        }
    }

    #[test]
    fn failure_provisioning_costs_a_premium_not_violations() {
        let lab = Lab::new();
        let profile = DiurnalProfile::new(1.0, 0.6, 8, 600.0).unwrap();
        let cmp = resilient_dispatch(&lab, &Memcached::default(), 40_000.0, &profile, 2.0);
        assert_eq!(cmp.naive.violations, 0, "naive day must be feasible");
        assert_eq!(
            cmp.resilient.violations, 0,
            "provisioned day must stay feasible"
        );
        assert!(
            cmp.premium_pct >= -1e-9,
            "insurance cannot be cheaper than none: {}%",
            cmp.premium_pct
        );
    }
}
