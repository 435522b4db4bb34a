//! Differential oracles: two independent implementations of the same
//! quantity are run on the same input and any disagreement beyond an
//! explicitly justified tolerance is reported as a violation.
//!
//! Every function returns the list of violations it found (empty = the
//! oracle held). None of them panic on disagreement — the harness keeps
//! going so one broken layer does not mask another.

use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig};
use hecmix_core::energy::EnergyBreakdown;
use hecmix_core::exec_time::ExecTimeModel;
use hecmix_core::mix_match::{evaluate, match_two_numeric, mix_and_match, TypeDeployment};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{stream_frontier, RateTable};
use hecmix_core::resilience::ResilientTable;
use hecmix_core::sweep::sweep_frontier;
use hecmix_core::types::Platform;
use hecmix_queueing::des::{simulate, CoreLayout, DesConfig, ServiceDist, UNBOUNDED};
use hecmix_queueing::{MD1, MG1};
use hecmix_sim::{
    reference_amd_arch, reference_arm_arch, run_cluster, run_cluster_faulted, ClusterSpec,
    FaultSchedule, RecoveryPolicy, TypeAssignment,
};
use hecmix_workloads::ep::Ep;
use hecmix_workloads::Workload;

/// Deterministic sample of cluster points from a two-type space: every
/// `(n_a, n_b)` combination up to two nodes per type (skipping the empty
/// cluster), all at maxed cores/frequency, plus one throttled singleton.
#[must_use]
pub fn sample_points(space: &ConfigSpace) -> Vec<ClusterPoint> {
    let a = &space.types[0];
    let b = &space.types[1];
    let mut pts = Vec::new();
    for na in 0..=a.max_nodes.min(2) {
        for nb in 0..=b.max_nodes.min(2) {
            if na == 0 && nb == 0 {
                continue;
            }
            pts.push(ClusterPoint::new(vec![
                TypeDeployment::maxed(&a.platform, na),
                TypeDeployment::maxed(&b.platform, nb),
            ]));
        }
    }
    // Lowest frequency, single core: exercises the slow end of the model.
    pts.push(ClusterPoint::new(vec![
        Some(NodeConfig::new(1, 1, a.platform.freqs[0])),
        TypeDeployment::unused(),
    ]));
    pts
}

/// Closed-form mix-and-match split (shares proportional to rates, Eq. 4)
/// vs the bisection solver [`match_two_numeric`] on every two-type sample
/// point. The execution-time model is linear in the share, so both must
/// land on the same split; `1e-3 · w` absolute slack covers the bisection
/// bracket at `tol = 1e-12`.
#[must_use]
pub fn closed_form_vs_numeric(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for point in sample_points(space) {
        let (Some(cfg_a), Some(cfg_b)) = (point.per_type[0], point.per_type[1]) else {
            continue;
        };
        let split = match mix_and_match(&point, models, w_units) {
            Ok(s) => s,
            Err(e) => {
                violations.push(format!("closed form failed on {point:?}: {e}"));
                continue;
            }
        };
        let em_a = ExecTimeModel::new(&models[0]);
        let em_b = ExecTimeModel::new(&models[1]);
        let numeric = match_two_numeric(
            |x| em_a.predict(&cfg_a, x).total,
            |x| em_b.predict(&cfg_b, x).total,
            w_units,
            1e-12,
        );
        match numeric {
            Ok((wa, wb)) => {
                if (wa - split.shares[0]).abs() > 1e-3 * w_units
                    || (wb - split.shares[1]).abs() > 1e-3 * w_units
                {
                    violations.push(format!(
                        "split disagreement on {point:?}: closed form ({:.6e}, {:.6e}) vs numeric ({wa:.6e}, {wb:.6e})",
                        split.shares[0], split.shares[1]
                    ));
                }
            }
            Err(e) => violations.push(format!("bisection failed on {point:?}: {e}")),
        }
    }
    violations
}

/// Exhaustive sweep frontier vs the streaming rate-table frontier.
/// Frontier *membership* can differ at exact ties (the lean kernel and the
/// full evaluator round energy differently in the last bits), so the
/// energy-per-deadline curves are compared both ways at `1e-9` relative.
#[must_use]
pub fn exhaustive_vs_streaming(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let exhaustive = match sweep_frontier(space, models, w_units) {
        Ok(f) => f,
        Err(e) => return vec![format!("exhaustive sweep failed: {e}")],
    };
    let streamed = match stream_frontier(space, models, w_units) {
        Ok(f) => f,
        Err(e) => return vec![format!("streaming sweep failed: {e}")],
    };
    let mut violations = Vec::new();
    for p in &exhaustive.points {
        match streamed.min_energy_for_deadline(p.time_s) {
            Some(got) if (got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j => {}
            Some(got) => violations.push(format!(
                "streamed curve off at deadline {:.6e} s: {:.12e} J vs exhaustive {:.12e} J",
                p.time_s, got.energy_j, p.energy_j
            )),
            None => violations.push(format!(
                "streamed frontier has no point at deadline {:.6e} s",
                p.time_s
            )),
        }
    }
    for p in &streamed.points {
        match exhaustive.min_energy_for_deadline(p.time_s) {
            Some(got) if got.energy_j <= p.energy_j + 1e-9 * p.energy_j => {}
            Some(got) => violations.push(format!(
                "streamed point ({:.6e} s, {:.12e} J) beats the exhaustive curve ({:.12e} J)",
                p.time_s, p.energy_j, got.energy_j
            )),
            None => violations.push(format!(
                "exhaustive frontier has no point at deadline {:.6e} s",
                p.time_s
            )),
        }
    }
    violations
}

/// Analytical model prediction vs direct cluster simulation, on the
/// paper's 8 ARM + 1 AMD validation configuration for EP class A. The
/// model is calibrated to land within single-digit percent of the
/// simulator (Table 4); a 15 % band flags genuine divergence without
/// tripping on characterization noise.
#[must_use]
pub fn model_vs_sim(seed: u64) -> Vec<String> {
    let arm = reference_arm_arch();
    let amd = reference_amd_arch();
    let workload = Ep::class_a();
    let trace = workload.trace();
    let models = hecmix_profile::characterize_pair(&arm, &amd, &trace, seed);
    let units = workload.validation_units();
    let point = ClusterPoint::new(vec![
        TypeDeployment::maxed(&arm.platform, 8),
        TypeDeployment::maxed(&amd.platform, 1),
    ]);
    let predicted = match evaluate(&point, &models, units as f64) {
        Ok(p) => p,
        Err(e) => return vec![format!("model evaluation failed: {e}")],
    };
    let arm_units = predicted.shares[0].round() as u64;
    let spec = ClusterSpec {
        trace,
        assignments: vec![
            TypeAssignment {
                arch: arm.clone(),
                nodes: 8,
                cores: arm.platform.cores,
                freq: arm.platform.fmax(),
                units: arm_units.min(units),
            },
            TypeAssignment {
                arch: amd.clone(),
                nodes: 1,
                cores: amd.platform.cores,
                freq: amd.platform.fmax(),
                units: units - arm_units.min(units),
            },
        ],
        seed,
    };
    let measured = run_cluster(&spec);
    let mut violations = Vec::new();
    let time_err = rel_diff(predicted.time_s, measured.duration_s);
    if time_err > 0.15 {
        violations.push(format!(
            "time prediction off by {:.1} %: model {:.4e} s vs sim {:.4e} s",
            100.0 * time_err,
            predicted.time_s,
            measured.duration_s
        ));
    }
    let energy_err = rel_diff(predicted.energy_j, measured.measured_energy_j);
    if energy_err > 0.15 {
        violations.push(format!(
            "energy prediction off by {:.1} %: model {:.4e} J vs sim {:.4e} J",
            100.0 * energy_err,
            predicted.energy_j,
            measured.measured_energy_j
        ));
    }
    violations
}

/// A faulted cluster run with an *empty* fault schedule must be
/// bit-identical to the plain cluster run: the fault machinery may not
/// perturb the nominal path at all.
#[must_use]
pub fn faulted_empty_vs_plain(seed: u64) -> Vec<String> {
    let arm = reference_arm_arch();
    let amd = reference_amd_arch();
    let spec = ClusterSpec {
        trace: Ep::class_a().trace(),
        assignments: vec![
            TypeAssignment {
                arch: arm.clone(),
                nodes: 2,
                cores: arm.platform.cores,
                freq: arm.platform.fmax(),
                units: 3 << 16,
            },
            TypeAssignment {
                arch: amd.clone(),
                nodes: 1,
                cores: amd.platform.cores,
                freq: amd.platform.fmax(),
                units: 1 << 16,
            },
        ],
        seed,
    };
    let schedule = FaultSchedule::new();
    if !schedule.is_empty() {
        return vec!["FaultSchedule::new() is not empty".into()];
    }
    let plain = run_cluster(&spec);
    let faulted = run_cluster_faulted(&spec, &schedule, &RecoveryPolicy::default());
    let mut violations = Vec::new();
    // Bit-identity, not a tolerance: both paths must execute the same code.
    if faulted.duration_s != plain.duration_s {
        violations.push(format!(
            "duration drifts with empty schedule: {:.17e} vs {:.17e}",
            faulted.duration_s, plain.duration_s
        ));
    }
    if faulted.measured_energy_j != plain.measured_energy_j {
        violations.push(format!(
            "measured energy drifts with empty schedule: {:.17e} vs {:.17e}",
            faulted.measured_energy_j, plain.measured_energy_j
        ));
    }
    if faulted.true_energy_j != plain.true_energy_j {
        violations.push(format!(
            "true energy drifts with empty schedule: {:.17e} vs {:.17e}",
            faulted.true_energy_j, plain.true_energy_j
        ));
    }
    if faulted.per_type.len() != plain.per_type.len() {
        violations.push(format!(
            "per-type shape drifts with empty schedule: {} vs {}",
            faulted.per_type.len(),
            plain.per_type.len()
        ));
    }
    violations
}

/// One single-server request-level DES scenario for the tail oracles:
/// `queue_cap` unbounded, no network cost, one flow — textbook M/G/1.
fn single_server_des(lambda: f64, service: ServiceDist, seed: u64) -> DesConfig {
    DesConfig {
        pps: lambda,
        n_requests: 400_000,
        layout: CoreLayout::Combined { cores: 1 },
        service,
        net_cost_s: 0.0,
        queue_cap: UNBOUNDED,
        flows: 1,
        seed,
    }
}

/// Request-level DES mean wait vs the Pollaczek–Khinchine formula, across
/// service shapes (deterministic scv = 0, exponential scv = 1) and light
/// and heavy load. The constant shape is the paper's M/D/1 queue and also
/// runs at ρ = 0.2 and 0.8, appended so the earlier points keep their run
/// seeds. 400 k requests bound the DES standard error well under the 5 %
/// acceptance band.
#[must_use]
pub fn des_mean_wait_vs_pk(seed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    let service_s = 0.01;
    let shapes: [(&str, ServiceDist, &[f64]); 2] = [
        (
            "constant",
            ServiceDist::Constant(service_s),
            &[0.3, 0.7, 0.2, 0.8],
        ),
        (
            "exponential",
            ServiceDist::Exponential(service_s),
            &[0.3, 0.7],
        ),
    ];
    for (i, (name, dist, rhos)) in shapes.into_iter().enumerate() {
        for (j, &rho) in rhos.iter().enumerate() {
            let lambda = rho / service_s;
            let formula =
                match MG1::new(lambda, dist.mean_s(), dist.scv()).and_then(|q| q.mean_wait_s()) {
                    Ok(wq) => wq,
                    Err(e) => {
                        violations.push(format!("P-K formula failed at ρ={rho} ({name}): {e}"));
                        continue;
                    }
                };
            let run_seed = seed ^ ((i as u64) << 8) ^ (j as u64);
            let sim = match simulate(&single_server_des(lambda, dist, run_seed)) {
                Ok(out) => out,
                Err(e) => {
                    violations.push(format!("DES failed at ρ={rho} ({name}): {e}"));
                    continue;
                }
            };
            let Some(mean_wait) = sim.wait.mean() else {
                violations.push(format!("DES completed nothing at ρ={rho} ({name})"));
                continue;
            };
            let err = rel_diff(formula, mean_wait);
            if err > 0.05 {
                violations.push(format!(
                    "DES mean wait off by {:.1} % at ρ={rho} ({name}): \
                     P-K {:.4e} s vs DES {:.4e} s",
                    100.0 * err,
                    formula,
                    mean_wait
                ));
            }
        }
    }
    violations
}

/// Request-level DES p99 wait vs the analytical M/D/1 waiting-time
/// distribution on the constant-service special case (the one queue whose
/// wait CDF is known in closed form). The p99 order statistic of 400 k
/// samples is noisier than a mean, hence the 10 % band.
#[must_use]
pub fn des_p99_vs_md1_quantile(seed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    let service_s = 0.01;
    for (i, rho) in [0.5, 0.7].into_iter().enumerate() {
        let lambda = rho / service_s;
        let analytic = match MD1::new(lambda, service_s).and_then(|q| q.wait_quantile(0.99)) {
            Ok(t) => t,
            Err(e) => {
                violations.push(format!("M/D/1 wait quantile failed at ρ={rho}: {e}"));
                continue;
            }
        };
        let cfg = single_server_des(lambda, ServiceDist::Constant(service_s), seed ^ i as u64);
        let sim = match simulate(&cfg) {
            Ok(out) => out,
            Err(e) => {
                violations.push(format!("DES failed at ρ={rho}: {e}"));
                continue;
            }
        };
        let Some(p99) = sim.wait.p99() else {
            violations.push(format!("DES completed nothing at ρ={rho}"));
            continue;
        };
        let err = rel_diff(analytic, p99);
        if err > 0.10 {
            violations.push(format!(
                "DES p99 wait off by {:.1} % at ρ={rho}: \
                 analytic {:.4e} s vs DES {:.4e} s",
                100.0 * err,
                analytic,
                p99
            ));
        }
    }
    violations
}

/// A resilient frontier with `k = 0` losses must equal the plain
/// streaming frontier exactly — zero degradation is the nominal table.
#[must_use]
pub fn resilient_k0_vs_plain(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Vec<String> {
    let resilient = match ResilientTable::build(space, models) {
        Ok(t) => t,
        Err(e) => return vec![format!("resilient table build failed: {e}")],
    };
    let k0 = match resilient.frontier(w_units, 0) {
        Ok(f) => f,
        Err(e) => return vec![format!("k=0 frontier failed: {e}")],
    };
    let plain = match RateTable::build(space, models).and_then(|t| t.frontier(w_units)) {
        Ok(f) => f,
        Err(e) => return vec![format!("plain frontier failed: {e}")],
    };
    if k0 == plain {
        Vec::new()
    } else {
        vec![format!(
            "k=0 resilient frontier diverges from the plain frontier: {} vs {} points",
            k0.len(),
            plain.len()
        )]
    }
}

/// A two-point model's lift must price exactly like the two-point table
/// it came from, **bit for bit**: its rate table lists the
/// `(nodes, P-state, cores)` options in that nesting — so every OPP's
/// effective frequency is its P-state — each with the rate of its lone run
/// and the power [`reference::two_point_energy`] prices it at, and every
/// per-type energy of a sampled cluster point is that reference's. The
/// P-state sets are seeded random subsets of the 0.1-GHz multiples up to
/// 4 GHz that always include 0.9 and 1.4 GHz (where `f_top · (f_j /
/// f_top)` misses `f_j` by an ulp), and half the `core_w` entries are moved
/// off their P-states, so the nearest-pair lookup is exercised too.
///
/// [`reference::two_point_energy`]: crate::reference::two_point_energy
#[must_use]
pub fn ladder_lift_vs_two_point(seed: u64) -> Vec<String> {
    use crate::reference::two_point_energy;
    use hecmix_core::dvfs::NodeDvfs;
    use hecmix_core::types::Frequency;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd1f5);
    let mut mk = |base: Platform, i_ps: f64| {
        let freqs = (1..=40u32)
            .filter(|&k| k == 9 || k == 14 || rng.gen_bool(0.15))
            .map(|k| Frequency::from_ghz(f64::from(k) / 10.0))
            .collect();
        let platform = Platform { freqs, ..base };
        let mut model = WorkloadModel::synthetic_cpu_bound(&platform, "lift-oracle", i_ps);
        for entry in &mut model.power.core_w {
            if rng.gen_bool(0.5) {
                entry.0 = Frequency::from_ghz(entry.0.ghz() + rng.gen_range(-0.04..0.04));
            }
        }
        model.dvfs = NodeDvfs::lift(&model.platform, &model.power);
        model
    };
    let models = [
        mk(Platform::reference_arm(), 2.0e9),
        mk(Platform::reference_amd(), 1.6e9),
    ];
    let w = rng.gen_range(1e5..1e7);
    let space = ConfigSpace::two_type(models[0].platform.clone(), 3, models[1].platform.clone(), 2);

    let table = match RateTable::build(&space, &models) {
        Ok(t) => t,
        Err(e) => return vec![format!("lifted rate table failed: {e}")],
    };
    let mut violations = Vec::new();
    for ((bounds, m), opts) in space.types.iter().zip(&models).zip(table.options()) {
        let p = &bounds.platform;
        let expected: Vec<(NodeConfig, usize)> = (1..=bounds.max_nodes)
            .flat_map(|n| {
                p.freqs.iter().enumerate().flat_map(move |(opp, &f)| {
                    (1..=p.cores).map(move |c| (NodeConfig::new(n, c, f), opp))
                })
            })
            .collect();
        if opts.len() != expected.len() {
            violations.push(format!(
                "{}: lifted table has {} options, the P-state space {}",
                p.name,
                opts.len(),
                expected.len()
            ));
        }
        for (o, &(cfg, opp)) in opts.iter().zip(&expected) {
            let tb = ExecTimeModel::new(m).predict(&cfg, 1.0);
            let rate = 1.0 / tb.total;
            let power_w = two_point_energy(m, &cfg, &tb, 1.0 / rate).total() * rate;
            if (o.cfg, o.opp, o.rate.to_bits(), o.power_w.to_bits())
                != (cfg, opp, rate.to_bits(), power_w.to_bits())
            {
                violations.push(format!(
                    "lifted option {:?} (OPP {}) = ({:.17e}, {:.17e}) vs two-point {cfg:?} \
                     (P-state {opp}) = ({rate:.17e}, {power_w:.17e})",
                    o.cfg, o.opp, o.rate, o.power_w
                ));
            }
        }
    }
    for point in sample_points(&space) {
        let out = match evaluate(&point, &models, w) {
            Ok(out) => out,
            Err(e) => {
                violations.push(format!("evaluation of {point:?} failed: {e}"));
                continue;
            }
        };
        for (t, (cfg, tb)) in point.per_type.iter().zip(&out.per_type_times).enumerate() {
            let (Some(cfg), Some(tb), Some(got)) = (cfg, tb, out.per_type_energy[t]) else {
                continue;
            };
            let want = two_point_energy(&models[t], cfg, tb, out.time_s);
            let bits = |e: EnergyBreakdown| [e.e_core, e.e_mem, e.e_io, e.e_idle].map(f64::to_bits);
            if bits(got) != bits(want) {
                violations.push(format!(
                    "type {t} of {point:?}: lifted energy {got:?} vs two-point {want:?}"
                ));
            }
        }
    }
    violations
}

/// Streamed per-`(type, OPP)` rate-table frontier vs the exhaustive sweep
/// on seeded random valid ladders and domain trees: the
/// [`exhaustive_vs_streaming`] comparison over ladder models.
#[must_use]
pub fn ladder_stream_vs_exhaustive(seed: u64) -> Vec<String> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1add);
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let model_a = WorkloadModel::synthetic_cpu_bound(&arm, "ladder-oracle", 2.0e9)
        .with_dvfs(random_node_dvfs(&mut rng));
    let model_b = WorkloadModel::synthetic_cpu_bound(&amd, "ladder-oracle", 1.6e9)
        .with_dvfs(random_node_dvfs(&mut rng));
    let space = ConfigSpace::two_type(arm, 2, amd, 2);
    exhaustive_vs_streaming(&space, &[model_a, model_b], 1e6)
}

/// Degenerate online scheduler vs offline mix-and-match: with a single
/// job class, infinite deadlines, and `α = 1` (pure performance), the
/// scheduler's steady-state placement must reproduce the offline
/// planner's answer on the maxed pool along both axes:
///
/// * **operating points** — every committed unit runs at each type's
///   top-rate option (`best_choice` per node), nothing on lower OPPs;
/// * **shares** — committed work per type matches the rate-proportional
///   [`mix_and_match`] split of the same total on
///   [`NodeConfig::maxed`] nodes.
///
/// Tolerance: the greedy earliest-finish fill quantizes shares at one
/// job, so with 300 equal jobs across a 5-node pool the split can sit a
/// couple of jobs off the continuous optimum per type; 3% of the total
/// covers that with margin while still catching any systematic skew
/// (a wrong rate, a missing option, a biased tie-break).
#[must_use]
pub fn sched_degenerate_vs_mix() -> Vec<String> {
    use hecmix_sched::{JobSpec, Pool, SchedConfig, Scheduler};

    let (_space, models, _w) = crate::reference_scenario();
    let counts = vec![3u32, 2u32];
    let pool = match Pool::new(
        vec![("selfcheck".to_owned(), models.clone())],
        counts.clone(),
    ) {
        Ok(p) => p,
        Err(e) => return vec![format!("pool construction failed: {e}")],
    };
    let job_units = pool.classes[0].peak_rate(); // ~1 s on the fastest node
    let n_jobs = 300u64;
    let jobs: Vec<JobSpec> = (0..n_jobs)
        .map(|id| JobSpec {
            id,
            workload: 0,
            size_units: job_units,
            arrival_s: 0.0,
            deadline_s: f64::INFINITY,
        })
        .collect();
    let sched = match Scheduler::new(
        pool.clone(),
        SchedConfig {
            alpha: 1.0,
            max_outstanding: jobs.len(),
            ..SchedConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => return vec![format!("scheduler construction failed: {e}")],
    };
    let out = match sched.run(&jobs) {
        Ok(o) => o,
        Err(e) => return vec![format!("scheduler run failed: {e}")],
    };
    let mut violations = Vec::new();
    if out.completed != jobs.len() || out.misses != 0 {
        violations.push(format!(
            "degenerate run must complete everything cleanly: {} of {} completed, {} misses",
            out.completed,
            jobs.len(),
            out.misses
        ));
    }
    // Axis 1: only each type's top-rate option may carry work.
    for (t, menu) in pool.classes[0].options.iter().enumerate() {
        let best = menu
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.rate.total_cmp(&b.rate))
            .map(|(k, _)| k)
            .expect("menus are non-empty");
        for (k, &units) in out.units_by_option[0][t].iter().enumerate() {
            if k != best && units > 0.0 {
                violations.push(format!(
                    "type {t}: {units} units placed on option {k} ({} GHz) instead of the \
                     top-rate option {best}",
                    menu[k].cfg.freq.ghz()
                ));
            }
        }
    }
    // Axis 2: per-type shares match the offline split of the same total.
    let point = ClusterPoint {
        per_type: pool
            .platforms
            .iter()
            .zip(&counts)
            .map(|(p, &n)| Some(NodeConfig::maxed(p, n)))
            .collect(),
    };
    let total = job_units * n_jobs as f64;
    match mix_and_match(&point, &models, total) {
        Ok(split) => {
            for (t, (&got, &want)) in out.per_type_units.iter().zip(&split.shares).enumerate() {
                if (got - want).abs() > 0.03 * total {
                    violations.push(format!(
                        "type {t} share off: scheduler committed {got:.3e} units, \
                         mix-and-match assigns {want:.3e} (total {total:.3e})"
                    ));
                }
            }
        }
        Err(e) => violations.push(format!("mix_and_match failed: {e}")),
    }
    violations
}

/// Seeded random valid [`NodeDvfs`](hecmix_core::dvfs::NodeDvfs): 2–4
/// OPPs with strictly increasing
/// frequency and capacity, a 0–2 state idle ladder (power non-increasing,
/// residency non-decreasing), and a random 1–4 leaf domain tree whose
/// sleep floors respect `sleep_w <= idle_w`.
#[must_use]
pub fn random_node_dvfs<R: rand::Rng>(rng: &mut R) -> hecmix_core::dvfs::NodeDvfs {
    use hecmix_core::dvfs::{ActiveState, IdleState, NodeDvfs, OppLadder, PowerDomain};
    use hecmix_core::types::Frequency;

    let n_opp = rng.gen_range(2..=4usize);
    let mut ghz = rng.gen_range(0.3..0.7);
    let mut capacity = rng.gen_range(100.0..300.0);
    let states = (0..n_opp)
        .map(|_| {
            let s = ActiveState {
                freq: Frequency::from_ghz(ghz),
                capacity,
                power_w: rng.gen_range(0.05..1.0),
                stall_w: rng.gen_range(0.0..0.5),
            };
            ghz += rng.gen_range(0.2..0.6);
            capacity += rng.gen_range(50.0..400.0);
            s
        })
        .collect();
    let n_idle = rng.gen_range(0..=2usize);
    let mut idle_w = rng.gen_range(0.5..1.0);
    let mut residency = 0.0;
    let idle_states = (0..n_idle)
        .map(|i| {
            let s = IdleState {
                name: format!("idle{i}"),
                power_w: idle_w,
                residency_s: residency,
            };
            idle_w *= rng.gen_range(0.1..0.9);
            residency += rng.gen_range(0.0..0.01);
            s
        })
        .collect();
    let leaves = rng.gen_range(1..=4u32);
    let children = (0..leaves)
        .map(|c| {
            let leaf_idle = rng.gen_range(0.1..0.5);
            PowerDomain::leaf(
                &format!("core{c}"),
                leaf_idle,
                leaf_idle * rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..0.01),
            )
        })
        .collect();
    let cluster_idle = rng.gen_range(0.2..1.0);
    NodeDvfs {
        ladder: OppLadder {
            states,
            idle_states,
        },
        domain: PowerDomain::cluster(
            "cluster0",
            cluster_idle,
            cluster_idle * rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..0.1),
            children,
        ),
    }
}

/// Symmetric relative difference, safe at zero.
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_scenario;

    #[test]
    fn sample_points_cover_both_shapes() {
        let (space, _, _) = reference_scenario();
        let pts = sample_points(&space);
        assert!(pts.iter().any(|p| p.types_used() == 1));
        assert!(pts.iter().any(|p| p.types_used() == 2));
        assert!(pts.iter().all(|p| p.types_used() >= 1));
    }

    #[test]
    fn rel_diff_basics() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(1.0, 1.1) - 0.1 / 1.1).abs() < 1e-12);
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
    }

    #[test]
    fn cheap_oracles_hold_on_reference_scenario() {
        let (space, models, w) = reference_scenario();
        assert_eq!(
            closed_form_vs_numeric(&space, &models, w),
            Vec::<String>::new()
        );
        assert_eq!(
            exhaustive_vs_streaming(&space, &models, w),
            Vec::<String>::new()
        );
        assert_eq!(
            resilient_k0_vs_plain(&space, &models, w),
            Vec::<String>::new()
        );
        assert_eq!(des_mean_wait_vs_pk(42), Vec::<String>::new());
        assert_eq!(des_p99_vs_md1_quantile(42), Vec::<String>::new());
    }

    #[test]
    fn ladder_oracles_hold_on_several_seeds() {
        for seed in 1..=32u64 {
            assert_eq!(
                ladder_lift_vs_two_point(seed),
                Vec::<String>::new(),
                "seed {seed}"
            );
        }
        for seed in [0u64, 1, 42, 1337] {
            assert_eq!(ladder_stream_vs_exhaustive(seed), Vec::<String>::new());
        }
    }
}
