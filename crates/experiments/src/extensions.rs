//! Extension studies beyond the paper (DESIGN.md §6): the three-type mix,
//! the pruned sweep, dispatch policies under diurnal load, and the
//! calibration sensitivity analysis.

use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::stream_frontier_pruned;
use hecmix_core::sweep::{sweep_space, EvaluatedConfig, PruneStats};
use hecmix_queueing::dispatch::{
    best_choice, best_choice_tail, menu_from_frontier, run_day, DayOutcome, DiurnalProfile,
    TailDesConfig, TailTarget,
};
use hecmix_sim::NodeArch;
use hecmix_workloads::Workload;

use crate::figures::mix_frontiers;
use crate::lab::Lab;
use crate::ppr::best_ppr;
use hecmix_core::budget::BudgetMix;

// ---------------------------------------------------------------------
// Three-type mix (A9 + A15 + K10)
// ---------------------------------------------------------------------

/// Outcome of the three-type study.
#[derive(Debug, Clone)]
pub struct ThreeWayResult {
    /// Workload name.
    pub workload: String,
    /// Full space size and pruning statistics.
    pub stats: PruneStats,
    /// The three-type frontier.
    pub frontier: ParetoFrontier,
    /// Frontier points using all three types at once.
    pub three_type_points: usize,
    /// Best energy of any *two*-type frontier on the same hardware bounds.
    pub best_two_type_min_energy_j: f64,
    /// Minimum energy of the three-type frontier.
    pub min_energy_j: f64,
}

/// Evaluate a 6×A9 + 4×A15 + 4×AMD configuration space for one workload,
/// using the pruned sweep (the full space has ~0.7 M points).
#[must_use]
pub fn threeway(lab: &Lab, w: &dyn Workload) -> ThreeWayResult {
    let models = lab.models3(w);
    let bounds = |m: &WorkloadModel, n: u32| TypeBounds {
        platform: m.platform.clone(),
        max_nodes: n,
    };
    let space = ConfigSpace::new(vec![
        bounds(&models[0], 6),
        bounds(&models[1], 4),
        bounds(&models[2], 4),
    ]);
    let units = w.analysis_units() as f64;
    let (frontier, stats) =
        stream_frontier_pruned(&space, &models, units).expect("valid three-type space");
    let three_type_points = frontier
        .points
        .iter()
        .filter(|p| p.config.types_used() == 3)
        .count();

    // Two-type baselines on the same hardware bounds (drop one type each).
    let mut best_two = f64::INFINITY;
    for drop in 0..3usize {
        let types: Vec<TypeBounds> = space
            .types
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, t)| t.clone())
            .collect();
        let ms: Vec<WorkloadModel> = models
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, m)| m.clone())
            .collect();
        let sub_space = ConfigSpace::new(types);
        let (sub_frontier, _) =
            stream_frontier_pruned(&sub_space, &ms, units).expect("valid sub-space");
        if let Some(e) = sub_frontier.min_energy_j() {
            best_two = best_two.min(e);
        }
    }

    ThreeWayResult {
        workload: w.name().to_owned(),
        stats,
        three_type_points,
        best_two_type_min_energy_j: best_two,
        min_energy_j: frontier.min_energy_j().unwrap_or(f64::NAN),
        frontier,
    }
}

// ---------------------------------------------------------------------
// Dispatch policies under a diurnal profile
// ---------------------------------------------------------------------

/// One policy's day.
#[derive(Debug, Clone)]
pub struct PolicyDay {
    /// Policy name.
    pub policy: &'static str,
    /// Day outcome.
    pub outcome: DayOutcome,
}

/// Compare four dispatch policies over a sinusoidal day on the 16 ARM +
/// 14 AMD hardware: AMD pool only, ARM pool only, switching (either pool
/// per slot), and mix-and-match (any heterogeneous configuration).
#[must_use]
pub fn diurnal_study(
    lab: &Lab,
    w: &dyn Workload,
    profile: &DiurnalProfile,
    slo_response_s: f64,
) -> Vec<PolicyDay> {
    let models = lab.models(w);
    let mixes = [
        BudgetMix {
            low_nodes: 0,
            high_nodes: 14,
        },
        BudgetMix {
            low_nodes: 16,
            high_nodes: 0,
        },
        BudgetMix {
            low_nodes: 16,
            high_nodes: 14,
        },
    ];
    let series = mix_frontiers(lab, w, &mixes);
    let amd_menu = menu_from_frontier(&series[0].frontier, &models);
    let arm_menu = menu_from_frontier(&series[1].frontier, &models);
    let mut switching_menu = amd_menu.clone();
    switching_menu.extend(arm_menu.iter().cloned());
    // The mixed cluster can run every configuration the pools can, plus
    // the genuinely heterogeneous ones. (The 2-D energy–deadline frontier
    // alone would not be enough here: a slot's best configuration also
    // depends on its *idle power*, a third dimension, so pool points
    // dominated per-job can still win a quiet slot.)
    let mut mix_menu = menu_from_frontier(&series[2].frontier, &models);
    mix_menu.extend(switching_menu.iter().cloned());

    vec![
        PolicyDay {
            policy: "AMD pool",
            outcome: run_day(&amd_menu, profile, slo_response_s)
                .expect("diurnal study menus and SLO are well-formed"),
        },
        PolicyDay {
            policy: "ARM pool",
            outcome: run_day(&arm_menu, profile, slo_response_s)
                .expect("diurnal study menus and SLO are well-formed"),
        },
        PolicyDay {
            policy: "switching",
            outcome: run_day(&switching_menu, profile, slo_response_s)
                .expect("diurnal study menus and SLO are well-formed"),
        },
        PolicyDay {
            policy: "mix-and-match",
            outcome: run_day(&mix_menu, profile, slo_response_s)
                .expect("diurnal study menus and SLO are well-formed"),
        },
    ]
}

// ---------------------------------------------------------------------
// DVFS ladders: 1-OPP vs full-ladder frontiers and cluster parking
// ---------------------------------------------------------------------

/// Outcome of the DVFS-ladder study: frontier richness from multi-OPP
/// ladders, and the cluster-sleep credit from parking whole clusters in
/// diurnal troughs.
#[derive(Debug, Clone)]
pub struct DvfsLadderResult {
    /// Workload name.
    pub workload: String,
    /// Frontier with every model pinned to the lift of its platform
    /// restricted to the maximum frequency: one OPP at fmax.
    pub one_opp_frontier: ParetoFrontier,
    /// Frontier over the full synthetic multi-OPP ladders.
    pub ladder_frontier: ParetoFrontier,
    /// Diurnal day dispatched from the ladder frontier, always-on floors.
    pub plain_day: DayOutcome,
    /// The same day with cluster parking (deep-sleep floors between jobs).
    pub parked_day: DayOutcome,
}

impl DvfsLadderResult {
    /// True when the ladder frontier is strictly richer than the 1-OPP
    /// one: at least as good at every 1-OPP deadline, strictly more
    /// operating points, and strictly lower minimum energy somewhere.
    #[must_use]
    pub fn ladder_is_strictly_richer(&self) -> bool {
        let never_worse = self.one_opp_frontier.points.iter().all(|p| {
            self.ladder_frontier
                .min_energy_for_deadline(p.time_s)
                .is_some_and(|q| q.energy_j <= p.energy_j * (1.0 + 1e-9))
        });
        let better_somewhere = self.one_opp_frontier.points.iter().any(|p| {
            self.ladder_frontier
                .min_energy_for_deadline(p.time_s)
                .is_some_and(|q| q.energy_j < p.energy_j * (1.0 - 1e-9))
        });
        never_worse && better_somewhere && self.ladder_frontier.len() > self.one_opp_frontier.len()
    }

    /// Whole-day energy saved by cluster parking, joules.
    #[must_use]
    pub fn parking_saving_j(&self) -> f64 {
        self.plain_day.energy_j - self.parked_day.energy_j
    }
}

/// Compare the 1-OPP and full-ladder frontiers on the 16 ARM + 14 AMD
/// hardware, then dispatch the same diurnal day from the ladder frontier
/// twice: with always-on idle floors and with cluster parking backed by
/// each model's power-domain tree.
#[must_use]
pub fn dvfs_ladder_study(
    lab: &Lab,
    w: &dyn Workload,
    profile: &DiurnalProfile,
    slo_response_s: f64,
) -> DvfsLadderResult {
    use hecmix_core::dvfs::NodeDvfs;
    use hecmix_core::rate_table::stream_frontier;
    use hecmix_core::types::Platform;
    use hecmix_queueing::dispatch::ParkableChoice;
    use hecmix_queueing::SleepPolicy;

    let base = lab.models(w);
    let one_opp: Vec<WorkloadModel> = base
        .iter()
        .map(|m| {
            let fmax_only = Platform {
                freqs: vec![m.platform.fmax()],
                ..m.platform.clone()
            };
            m.clone().with_dvfs(NodeDvfs::lift(&fmax_only, &m.power))
        })
        .collect();
    let ladder: Vec<WorkloadModel> = base
        .iter()
        .map(|m| {
            m.clone()
                .with_dvfs(NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1))
        })
        .collect();
    let space = ConfigSpace::new(vec![
        TypeBounds {
            platform: base[0].platform.clone(),
            max_nodes: 16,
        },
        TypeBounds {
            platform: base[1].platform.clone(),
            max_nodes: 14,
        },
    ]);
    let units = w.analysis_units() as f64;
    let one_opp_frontier =
        stream_frontier(&space, &one_opp, units).expect("1-OPP ladder space is well-formed");
    let ladder_frontier =
        stream_frontier(&space, &ladder, units).expect("ladder space is well-formed");

    // Dispatch the same day from the *ladder* frontier twice, so the
    // plain/parked gap isolates the cluster-sleep credit.
    let menu = menu_from_frontier(&ladder_frontier, &ladder);
    let parkable: Vec<ParkableChoice> = ladder_frontier
        .points
        .iter()
        .zip(menu.iter().cloned())
        .map(|(p, choice)| {
            // Deep-sleep floor of the deployment: every powered node's
            // root domain in its deepest (cluster-sleep) state.
            let sleep_power_w: f64 = p
                .config
                .per_type
                .iter()
                .zip(&ladder)
                .filter_map(|(cfg, m)| cfg.map(|c| f64::from(c.nodes) * m.dvfs.domain.asleep_w()))
                .sum();
            let residency_s = ladder
                .iter()
                .map(|m| m.dvfs.domain.residency_s)
                .fold(0.0, f64::max);
            ParkableChoice {
                choice,
                sleep: Some(SleepPolicy {
                    sleep_power_w,
                    residency_s,
                }),
            }
        })
        .collect();
    let plain_day =
        run_day(&menu, profile, slo_response_s).expect("ladder menu and SLO are well-formed");
    let parked_day =
        run_day(&parkable, profile, slo_response_s).expect("parkable menu and SLO are well-formed");

    DvfsLadderResult {
        workload: w.name().to_owned(),
        one_opp_frontier,
        ladder_frontier,
        plain_day,
        parked_day,
    }
}

// ---------------------------------------------------------------------
// Percentile-deadline planning (p99 via DES) vs mean-SLO planning
// ---------------------------------------------------------------------

/// One operating point of the percentile-deadline planning study: the
/// mean-SLO planner and the p99 planner answer the same question, and the
/// gap between their picks is the price of a tail guarantee.
#[derive(Debug, Clone)]
pub struct TailPlanningRow {
    /// Arrival rate, jobs/second.
    pub lambda: f64,
    /// Response deadline, seconds (mean for the baseline, p99 for the
    /// tail planner).
    pub deadline_s: f64,
    /// Configuration the mean-SLO planner picks.
    pub mean_label: String,
    /// Window energy of the mean-SLO pick, joules.
    pub mean_energy_j: f64,
    /// Mean response of the mean-SLO pick, seconds.
    pub mean_response_s: f64,
    /// Configuration the p99 planner picks.
    pub tail_label: String,
    /// Window energy of the p99 pick, joules.
    pub tail_energy_j: f64,
    /// Analytical mean response of the p99 pick, seconds.
    pub tail_mean_response_s: f64,
    /// DES-measured p99 response of the p99 pick, seconds.
    pub tail_p99_s: f64,
    /// Candidates the p99 planner eliminated analytically (no DES run).
    pub screened_out: usize,
    /// DES runs the p99 planner spent (coarse + exact).
    pub des_runs: u32,
    /// True when no configuration meets the p99 deadline and the tail
    /// pick is the smallest-tail fallback.
    pub violated: bool,
}

/// Plan the same (λ, deadline) grid twice over the 16 ARM + 14 AMD
/// frontier menu: once against a *mean*-response SLO ([`best_choice`])
/// and once against a *p99* deadline scored by discrete-event simulation
/// ([`best_choice_tail`]). Utilizations are relative to the fastest menu
/// entry; deadlines are multiples of its service time.
#[must_use]
pub fn tail_planning_study(lab: &Lab, w: &dyn Workload, seed: u64) -> Vec<TailPlanningRow> {
    let models = lab.models(w);
    let units = w.analysis_units() as f64;
    let space = ConfigSpace::two_type(lab.arm.platform.clone(), 16, lab.amd.platform.clone(), 14);
    let (frontier, _) = stream_frontier_pruned(&space, &models, units).expect("valid space");
    let menu = menu_from_frontier(&frontier, &models);
    let t_min = frontier.min_time_s().expect("non-empty frontier");
    let window_s = 20.0_f64.max(100.0 * t_min);
    let des_cfg = TailDesConfig {
        seed,
        ..TailDesConfig::default()
    };

    let mut rows = Vec::new();
    for rho in [0.3, 0.6, 0.8] {
        let lambda = rho / t_min;
        for mult in [3.0, 10.0, 30.0] {
            let deadline_s = mult * t_min;
            let Ok(Some((mi, me, mr, _))) = best_choice(&menu, lambda, window_s, deadline_s) else {
                continue; // saturated at every entry: no comparison to make
            };
            let target = TailTarget::new(0.99, deadline_s).expect("valid percentile target");
            let Ok(Some(tail)) = best_choice_tail(&menu, lambda, window_s, target, &des_cfg) else {
                continue;
            };
            rows.push(TailPlanningRow {
                lambda,
                deadline_s,
                mean_label: menu[mi].label.clone(),
                mean_energy_j: me,
                mean_response_s: mr,
                tail_label: menu[tail.index].label.clone(),
                tail_energy_j: tail.energy_j,
                tail_mean_response_s: tail.mean_response_s,
                tail_p99_s: tail.tail_response_s,
                screened_out: tail.screened_out,
                des_runs: tail.des_runs,
                violated: tail.violated,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// DVFS governor vs the fixed-P-state assumption
// ---------------------------------------------------------------------

/// One row of the governor study.
#[derive(Debug, Clone)]
pub struct GovernorRow {
    /// Workload name.
    pub workload: String,
    /// Duration pinned at fmax, seconds.
    pub pinned_s: f64,
    /// Duration under the ondemand governor (started at fmin), seconds.
    pub governed_s: f64,
    /// Energy pinned at fmax, joules.
    pub pinned_j: f64,
    /// Energy under the governor, joules.
    pub governed_j: f64,
}

/// Quantify the model's fixed-P-state assumption: run every workload on
/// one ARM node pinned at fmax and under an ondemand governor started at
/// fmin. For CPU-bound work the governor converges to fmax (the model's
/// assumption is self-fulfilling); for I/O-bound work it sinks to fmin
/// and saves energy the fixed-frequency model would not predict.
#[must_use]
pub fn governor_study(lab: &Lab) -> Vec<GovernorRow> {
    use hecmix_sim::{run_node, Governor, NodeRunSpec};
    hecmix_workloads::all_workloads()
        .iter()
        .map(|w| {
            let arch = &lab.arm;
            let heavy = w.trace().demand.total_ops() > 1e5;
            let units = if heavy { 300 } else { 300_000 };
            let pinned = run_node(
                arch,
                &w.trace(),
                &NodeRunSpec::new(arch.platform.cores, arch.platform.fmax(), units, 0x60F),
            );
            let governed = run_node(
                arch,
                &w.trace(),
                &NodeRunSpec::new(arch.platform.cores, arch.platform.fmin(), units, 0x60F)
                    .with_governor(Governor::ondemand()),
            );
            GovernorRow {
                workload: w.name().to_owned(),
                pinned_s: pinned.duration_s,
                governed_s: governed.duration_s,
                pinned_j: pinned.measured_energy_j,
                governed_j: governed.measured_energy_j,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 10 analytic-vs-simulation cross-check
// ---------------------------------------------------------------------

/// One configuration's analytic-vs-simulated queueing comparison.
#[derive(Debug, Clone)]
pub struct Fig10DesRow {
    /// Configuration label.
    pub label: String,
    /// Analytic mean response, seconds.
    pub analytic_response_s: f64,
    /// Simulated mean response, seconds.
    pub sim_response_s: f64,
    /// Analytic window energy, joules.
    pub analytic_energy_j: f64,
    /// Simulated window energy (normalized to the expected job count), joules.
    pub sim_energy_j: f64,
}

/// Cross-validate the Fig. 10 analytics against the full job-stream
/// simulation for a handful of configurations on the 4 ARM + 1 AMD
/// cluster at `rho` nominal utilization.
#[must_use]
pub fn fig10_des_crosscheck(lab: &Lab, w: &dyn Workload, rho: f64) -> Vec<Fig10DesRow> {
    use hecmix_core::config::ClusterPoint;
    use hecmix_core::mix_match::{evaluate, TypeDeployment};
    use hecmix_queueing::window_energy;
    use hecmix_sim::{run_job_stream, JobStreamSpec, TypeAssignment};

    let models = lab.models(w);
    let units = w.analysis_units();
    // A few configurations differing in the knobs (all on 4 ARM + 1 AMD).
    let configs = [
        (4u32, lab.arm.platform.cores, 1u32, lab.amd.platform.cores),
        (4, 2, 1, 3),
        (2, lab.arm.platform.cores, 1, lab.amd.platform.cores),
    ];
    configs
        .iter()
        .map(|&(arm_n, arm_c, amd_n, amd_c)| {
            use hecmix_core::config::NodeConfig;
            let point = ClusterPoint::new(vec![
                TypeDeployment::new(NodeConfig::new(arm_n, arm_c, lab.arm.platform.fmax())),
                TypeDeployment::new(NodeConfig::new(amd_n, amd_c, lab.amd.platform.fmax())),
            ]);
            let out = evaluate(&point, &models, units as f64).expect("valid point");
            let idle_w = f64::from(arm_n) * models[0].power.idle_w
                + f64::from(amd_n) * models[1].power.idle_w;
            let lambda = rho / out.time_s;
            let window_s = (80.0 * out.time_s).max(5.0);
            let analytic =
                window_energy(lambda, window_s, out.time_s, out.energy_j, idle_w).expect("stable");
            let arm_units = out.shares[0].round() as u64;
            let sim = run_job_stream(&JobStreamSpec {
                trace: w.trace(),
                assignments: vec![
                    TypeAssignment {
                        arch: lab.arm.clone(),
                        nodes: arm_n,
                        cores: arm_c,
                        freq: lab.arm.platform.fmax(),
                        units: arm_units,
                    },
                    TypeAssignment {
                        arch: lab.amd.clone(),
                        nodes: amd_n,
                        cores: amd_c,
                        freq: lab.amd.platform.fmax(),
                        units: units - arm_units,
                    },
                ],
                lambda,
                window_s,
                seed: 0xF16DE5,
            });
            let sim_energy_j = if sim.jobs_arrived > 0 {
                sim.total_j() * (lambda * window_s) / sim.jobs_arrived as f64
            } else {
                f64::NAN
            };
            Fig10DesRow {
                label: point.label(&lab.platforms()),
                analytic_response_s: analytic.response_s,
                sim_response_s: sim.mean_response_s,
                analytic_energy_j: analytic.total_j(),
                sim_energy_j,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Calibration sensitivity
// ---------------------------------------------------------------------

/// One row of the sensitivity study.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Which hidden constant was perturbed, and on which platform.
    pub parameter: String,
    /// Relative perturbation (e.g. +0.2).
    pub delta: f64,
    /// Does ARM still win EP's PPR?
    pub ep_arm_wins: bool,
    /// Does ARM still win memcached's PPR?
    pub memcached_arm_wins: bool,
    /// Does AMD still win RSA-2048's PPR?
    pub rsa_amd_wins: bool,
    /// Does AMD still win x264's PPR? (The marginal row — reported, not
    /// asserted.)
    pub x264_amd_wins: bool,
    /// Does the EP frontier still show a heterogeneous sweet region?
    pub sweet_region: bool,
    /// memcached ARM-only fastest deadline, milliseconds.
    pub memcached_crossover_ms: f64,
}

/// The perturbations applied to the hidden constants, as
/// `(name, platform, mutator)`.
type Mutator = fn(&mut NodeArch, f64);

fn mutators() -> Vec<(&'static str, &'static str, Mutator)> {
    fn lat(a: &mut NodeArch, k: f64) {
        a.mem.latency_ns *= k;
    }
    fn cont(a: &mut NodeArch, k: f64) {
        a.mem.contention *= k;
    }
    fn core_w(a: &mut NodeArch, k: f64) {
        a.power.core_peak_w *= k;
    }
    fn idle_w(a: &mut NodeArch, k: f64) {
        a.power.idle_w *= k;
    }
    fn int_ipc(a: &mut NodeArch, k: f64) {
        a.isa.int_ipc *= k;
    }
    fn miss(a: &mut NodeArch, k: f64) {
        a.isa.miss_scaling *= k;
    }
    vec![
        ("mem.latency_ns", "ARM", lat),
        ("mem.contention", "ARM", cont),
        ("power.core_peak_w", "ARM", core_w),
        ("power.idle_w", "ARM", idle_w),
        ("isa.int_ipc", "ARM", int_ipc),
        ("isa.miss_scaling", "ARM", miss),
        ("mem.latency_ns", "AMD", lat),
        ("power.core_peak_w", "AMD", core_w),
        ("power.idle_w", "AMD", idle_w),
        ("isa.int_ipc", "AMD", int_ipc),
    ]
}

/// Perturb every hidden constant by ±`delta` and re-check the paper's
/// qualitative claims on the perturbed testbed.
#[must_use]
pub fn sensitivity(delta: f64) -> Vec<SensitivityRow> {
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::memcached::Memcached;
    use hecmix_workloads::rsa::Rsa2048;
    use hecmix_workloads::x264::X264;

    let mut rows = Vec::new();
    for (name, platform, mutate) in mutators() {
        for sign in [1.0 + delta, 1.0 - delta] {
            let mut arm = hecmix_sim::reference_arm_arch();
            let mut amd = hecmix_sim::reference_amd_arch();
            if platform == "ARM" {
                mutate(&mut arm, sign);
            } else {
                mutate(&mut amd, sign);
            }
            let lab = Lab::with_arches(arm, amd, 0x5E51);

            let wins = |w: &dyn Workload| {
                let models = lab.models(w);
                let arm_ppr = best_ppr(w, &models[0]).ppr;
                let amd_ppr = best_ppr(w, &models[1]).ppr;
                arm_ppr > amd_ppr
            };
            let ep_arm_wins = wins(&Ep::class_a());
            let memcached_arm_wins = wins(&Memcached::default());
            let rsa_amd_wins = !wins(&Rsa2048::default());
            let x264_amd_wins = !wins(&X264::default());

            // Sweet region on a small EP space.
            let ep = Ep::class_c();
            let models = lab.models(&ep);
            let space =
                ConfigSpace::two_type(lab.arm.platform.clone(), 3, lab.amd.platform.clone(), 3);
            let evaluated =
                sweep_space(&space, &models, ep.analysis_units() as f64).expect("valid space");
            let frontier = ParetoFrontier::from_points(
                evaluated
                    .iter()
                    .map(EvaluatedConfig::to_pareto_point)
                    .collect(),
            );
            let sweet_region = frontier.sweet_region().is_some_and(|r| r.len() >= 2);

            // memcached ARM-only crossover.
            let mc = Memcached::default();
            let mc_models = lab.models(&mc);
            let arm_space = ConfigSpace::new(vec![TypeBounds {
                platform: lab.arm.platform.clone(),
                max_nodes: 128,
            }]);
            let (arm_frontier, _) =
                stream_frontier_pruned(&arm_space, &mc_models[..1], mc.analysis_units() as f64)
                    .expect("valid space");
            let memcached_crossover_ms = arm_frontier.min_time_s().unwrap_or(f64::NAN) * 1e3;

            rows.push(SensitivityRow {
                parameter: format!("{platform}.{name}"),
                delta: sign - 1.0,
                ep_arm_wins,
                memcached_arm_wins,
                rsa_amd_wins,
                x264_amd_wins,
                sweet_region,
                memcached_crossover_ms,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::memcached::Memcached;

    #[test]
    fn threeway_frontier_uses_all_three_types() {
        let lab = Lab::new();
        let r = threeway(&lab, &Ep::class_c());
        assert!(
            r.stats.evaluated_configs < r.stats.full_space / 10,
            "{:?}",
            r.stats
        );
        assert!(!r.frontier.is_empty());
        assert!(
            r.three_type_points >= 1,
            "expected genuine three-type mixes on the frontier"
        );
        // The richer hardware menu can only match or beat any two-type
        // subset at the relaxed end.
        assert!(r.min_energy_j <= r.best_two_type_min_energy_j + 1e-9);
    }

    #[test]
    fn diurnal_mixing_beats_pools_and_switching() {
        let lab = Lab::new();
        let profile = DiurnalProfile::new(6.0, 0.8, 24, 600.0).unwrap();
        let days = diurnal_study(&lab, &Memcached::default(), &profile, 0.2);
        let get = |name: &str| days.iter().find(|d| d.policy == name).unwrap();
        let amd = get("AMD pool");
        let arm = get("ARM pool");
        let sw = get("switching");
        let mix = get("mix-and-match");
        // Switching never beats mixing; mixing never violates more.
        assert!(mix.outcome.energy_j <= sw.outcome.energy_j + 1e-9);
        assert!(mix.outcome.violations <= sw.outcome.violations);
        // The ARM pool alone violates the SLO at peak hours or burns the
        // clock; the AMD pool burns energy.
        assert!(
            amd.outcome.energy_j > mix.outcome.energy_j,
            "AMD pool should cost more than mixing"
        );
        assert!(
            arm.outcome.violations > 0 || arm.outcome.energy_j >= mix.outcome.energy_j - 1e-9,
            "ARM pool should miss SLOs at peak or cost at least as much"
        );
    }

    #[test]
    fn governor_study_shapes() {
        let lab = Lab::new();
        let rows = governor_study(&lab);
        assert_eq!(rows.len(), 6);
        let get = |name: &str| rows.iter().find(|r| r.workload == name).unwrap();
        // I/O-bound memcached: same duration, clearly less energy governed.
        let mc = get("memcached");
        assert!((mc.governed_s / mc.pinned_s - 1.0).abs() < 0.1, "{mc:?}");
        assert!(mc.governed_j < 0.99 * mc.pinned_j, "{mc:?}");
        // CPU-bound EP: governor converges near the pinned behaviour
        // (modulo the start-up ramp from fmin).
        let ep = get("ep");
        assert!(ep.governed_s < 2.5 * ep.pinned_s, "{ep:?}");
    }

    #[test]
    fn fig10_des_agrees_with_analytics() {
        let lab = Lab::new();
        let rows = fig10_des_crosscheck(&lab, &Memcached::default(), 0.4);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            let e_err = (r.sim_energy_j - r.analytic_energy_j).abs() / r.analytic_energy_j;
            assert!(
                e_err < 0.25,
                "{}: energy off by {:.0}%",
                r.label,
                e_err * 100.0
            );
            let r_err = (r.sim_response_s - r.analytic_response_s).abs() / r.analytic_response_s;
            assert!(
                r_err < 0.40,
                "{}: response off by {:.0}%",
                r.label,
                r_err * 100.0
            );
        }
    }

    #[test]
    fn sensitivity_claims_robust_at_10_percent() {
        // A lighter perturbation for the unit test (the artifact runs 20%).
        for row in sensitivity(0.10) {
            assert!(row.ep_arm_wins, "{}: EP flipped", row.parameter);
            assert!(
                row.memcached_arm_wins,
                "{}: memcached flipped",
                row.parameter
            );
            assert!(row.rsa_amd_wins, "{}: RSA flipped", row.parameter);
            assert!(row.sweet_region, "{}: sweet region vanished", row.parameter);
            assert!(
                (15.0..60.0).contains(&row.memcached_crossover_ms),
                "{}: crossover {} ms",
                row.parameter,
                row.memcached_crossover_ms
            );
        }
    }
}
