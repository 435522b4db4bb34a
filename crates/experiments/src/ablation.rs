//! Ablations of the model's design choices (see DESIGN.md §4).
//!
//! Each ablation removes one modeling idea the paper argues for and
//! quantifies what breaks:
//!
//! * [`overlap_ablation`] — replace the `max()` response-time overlap
//!   (Eq. 2–3) with naive addition: predictions against the simulator get
//!   much worse.
//! * [`matching_ablation`] — replace the mix-and-match split with
//!   node-count-proportional and equal splits: energy and time inflate.
//! * [`spimem_ablation`] — replace the linear `SPI_mem(f)` fit with a
//!   constant measured at the baseline frequency: predictions at other
//!   P-states degrade.
//! * [`switching_ablation`] — replace simultaneous mixing with the related
//!   work's threshold *switching* between homogeneous pools (§I): the
//!   energy-vs-deadline curve becomes a step function that wastes energy
//!   between the steps.

use hecmix_core::config::{ClusterPoint, NodeConfig};
use hecmix_core::exec_time::ExecTimeModel;
use hecmix_core::mix_match::{evaluate, evaluate_split, TypeDeployment};
use hecmix_core::profile::SpiMemFit;
use hecmix_core::stats::relative_error_pct;
use hecmix_sim::{run_node, NodeRunSpec};
use hecmix_workloads::Workload;

use crate::figures::mix_frontiers;
use crate::lab::Lab;
use hecmix_core::budget::BudgetMix;

/// Result of the response-time-overlap ablation.
#[derive(Debug, Clone)]
pub struct OverlapAblation {
    /// Workload name.
    pub workload: String,
    /// Mean |error| of the paper's `max()` model across the `(c, f)` grid, %.
    pub max_model_err_pct: f64,
    /// Mean |error| of the additive model across the same grid, %.
    pub additive_err_pct: f64,
}

/// Compare `T = max(T_CPU, T_I/O)` with `T = T_CPU + T_I/O` against
/// simulator measurements on one ARM node across the configuration grid.
#[must_use]
pub fn overlap_ablation(lab: &Lab, w: &dyn Workload, units: u64) -> OverlapAblation {
    let models = lab.models(w);
    let em = ExecTimeModel::new(&models[0]);
    let arch = &lab.arm;
    let (mut errs_max, mut errs_add) = (Vec::new(), Vec::new());
    for cores in 1..=arch.platform.cores {
        for &freq in &arch.platform.freqs {
            let cfg = NodeConfig::new(1, cores, freq);
            let tb = em.predict(&cfg, units as f64);
            let additive = tb.t_cpu + tb.t_io;
            let measured = run_node(
                arch,
                &w.trace(),
                &NodeRunSpec::new(cores, freq, units, 0xAB1 ^ u64::from(cores)),
            )
            .duration_s;
            errs_max.push(relative_error_pct(tb.total, measured));
            errs_add.push(relative_error_pct(additive, measured));
        }
    }
    OverlapAblation {
        workload: w.name().to_owned(),
        max_model_err_pct: hecmix_core::stats::mean(&errs_max),
        additive_err_pct: hecmix_core::stats::mean(&errs_add),
    }
}

/// Result of the work-splitting ablation.
#[derive(Debug, Clone)]
pub struct MatchingAblation {
    /// Workload name.
    pub workload: String,
    /// Matched (mix-and-match) energy, joules.
    pub matched_energy_j: f64,
    /// Energy with work split proportional to node *counts*, joules.
    pub node_proportional_energy_j: f64,
    /// Energy with an equal two-way split, joules.
    pub equal_split_energy_j: f64,
    /// Matched time, seconds.
    pub matched_time_s: f64,
    /// Node-proportional time, seconds.
    pub node_proportional_time_s: f64,
    /// Equal-split time, seconds.
    pub equal_split_time_s: f64,
}

/// Compare the matched split against two naive policies on the paper's
/// 8 ARM + 1 AMD cluster.
#[must_use]
pub fn matching_ablation(lab: &Lab, w: &dyn Workload) -> MatchingAblation {
    let models = lab.models(w);
    let units = w.analysis_units() as f64;
    let point = ClusterPoint::new(vec![
        TypeDeployment::maxed(&lab.arm.platform, 8),
        TypeDeployment::maxed(&lab.amd.platform, 1),
    ]);
    let matched = evaluate(&point, &models, units).expect("valid point");
    // Proportional to node counts: 8/9 to ARM, 1/9 to AMD.
    let prop =
        evaluate_split(&point, &models, &[units * 8.0 / 9.0, units / 9.0]).expect("valid split");
    let equal = evaluate_split(&point, &models, &[units / 2.0, units / 2.0]).expect("valid split");
    MatchingAblation {
        workload: w.name().to_owned(),
        matched_energy_j: matched.energy_j,
        node_proportional_energy_j: prop.energy_j,
        equal_split_energy_j: equal.energy_j,
        matched_time_s: matched.time_s,
        node_proportional_time_s: prop.time_s,
        equal_split_time_s: equal.time_s,
    }
}

/// Result of the `SPI_mem` linearity ablation.
#[derive(Debug, Clone)]
pub struct SpiMemAblation {
    /// Workload name.
    pub workload: String,
    /// Mean |time error| with the linear fit, %, across non-baseline
    /// frequencies.
    pub linear_err_pct: f64,
    /// Mean |time error| with a constant `SPI_mem` (frozen at the baseline
    /// frequency), %.
    pub constant_err_pct: f64,
}

/// Compare the linear `SPI_mem(f)` fit with a constant frozen at `fmax`,
/// for the memory-bound workload on the ARM node.
#[must_use]
pub fn spimem_ablation(lab: &Lab, w: &dyn Workload, units: u64) -> SpiMemAblation {
    let models = lab.models(w);
    let mut frozen = models[0].clone();
    let fmax = frozen.platform.fmax();
    let at_fmax = frozen
        .profile
        .spi_mem
        .eval(f64::from(frozen.platform.cores), fmax);
    frozen.profile.spi_mem = SpiMemFit::constant(at_fmax);

    let em_linear = ExecTimeModel::new(&models[0]);
    let em_frozen = ExecTimeModel::new(&frozen);
    let arch = &lab.arm;
    let (mut errs_lin, mut errs_const) = (Vec::new(), Vec::new());
    // Evaluate away from the frozen point: all lower frequencies.
    for &freq in arch
        .platform
        .freqs
        .iter()
        .take(arch.platform.freqs.len() - 1)
    {
        let cfg = NodeConfig::new(1, arch.platform.cores, freq);
        let measured = run_node(
            arch,
            &w.trace(),
            &NodeRunSpec::new(arch.platform.cores, freq, units, 0x5F1),
        )
        .duration_s;
        errs_lin.push(relative_error_pct(
            em_linear.predict(&cfg, units as f64).total,
            measured,
        ));
        errs_const.push(relative_error_pct(
            em_frozen.predict(&cfg, units as f64).total,
            measured,
        ));
    }
    SpiMemAblation {
        workload: w.name().to_owned(),
        linear_err_pct: hecmix_core::stats::mean(&errs_lin),
        constant_err_pct: hecmix_core::stats::mean(&errs_const),
    }
}

/// One deadline sample of the switching-vs-mixing ablation.
#[derive(Debug, Clone, Copy)]
pub struct SwitchingSample {
    /// Deadline, seconds.
    pub deadline_s: f64,
    /// Best energy using threshold switching between homogeneous pools.
    pub switching_energy_j: f64,
    /// Best energy using simultaneous heterogeneous mixing.
    pub mixing_energy_j: f64,
}

/// The related-work alternative (§I): own a 16 ARM + 14 AMD cluster but
/// *switch* — service each job on either the ARM subset or the AMD
/// subset, never both at once. Compare against mix-and-match on the same
/// hardware.
#[must_use]
pub fn switching_ablation(lab: &Lab, w: &dyn Workload) -> Vec<SwitchingSample> {
    let mixes = [
        BudgetMix {
            low_nodes: 0,
            high_nodes: 14,
        }, // AMD subset
        BudgetMix {
            low_nodes: 16,
            high_nodes: 0,
        }, // ARM subset
        BudgetMix {
            low_nodes: 16,
            high_nodes: 14,
        }, // both at once
    ];
    let series = mix_frontiers(lab, w, &mixes);
    let (amd, arm, mix) = (
        &series[0].frontier,
        &series[1].frontier,
        &series[2].frontier,
    );
    let switching = amd.merge(arm); // best of either pool per deadline

    let mut deadlines: Vec<f64> = mix.points.iter().map(|p| p.time_s).collect();
    deadlines.extend(switching.points.iter().map(|p| p.time_s));
    deadlines.sort_by(f64::total_cmp);
    deadlines.dedup();
    deadlines
        .into_iter()
        .filter_map(|d| {
            let s = switching.min_energy_for_deadline(d)?;
            let m = mix.min_energy_for_deadline(d)?;
            Some(SwitchingSample {
                deadline_s: d,
                switching_energy_j: s.energy_j,
                mixing_energy_j: m.energy_j,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::memcached::Memcached;
    use hecmix_workloads::x264::X264;

    #[test]
    fn overlap_max_beats_additive_for_io_bound() {
        let lab = Lab::new();
        let r = overlap_ablation(&lab, &Memcached::default(), 20_000);
        assert!(
            r.max_model_err_pct < 10.0,
            "max() model should predict well: {:.1}%",
            r.max_model_err_pct
        );
        assert!(
            r.additive_err_pct > 2.0 * r.max_model_err_pct.max(1.0),
            "additive model should be clearly worse: {:.1}% vs {:.1}%",
            r.additive_err_pct,
            r.max_model_err_pct
        );
    }

    #[test]
    fn matching_beats_naive_splits() {
        let lab = Lab::new();
        {
            let w = &Ep::class_c() as &dyn hecmix_workloads::Workload;
            let r = matching_ablation(&lab, w);
            assert!(r.matched_time_s <= r.node_proportional_time_s + 1e-12);
            assert!(r.matched_time_s <= r.equal_split_time_s + 1e-12);
            assert!(r.matched_energy_j <= r.node_proportional_energy_j + 1e-9);
            assert!(r.matched_energy_j <= r.equal_split_energy_j + 1e-9);
            // The gap should be material for at least one naive policy.
            let worst = r.node_proportional_energy_j.max(r.equal_split_energy_j);
            assert!(worst > 1.05 * r.matched_energy_j, "{r:?}");
        }
    }

    #[test]
    fn linear_spimem_beats_constant() {
        let lab = Lab::new();
        let r = spimem_ablation(&lab, &X264::default(), 600);
        assert!(
            r.linear_err_pct < 10.0,
            "linear fit err {:.1}%",
            r.linear_err_pct
        );
        assert!(
            r.constant_err_pct > 1.5 * r.linear_err_pct.max(1.0),
            "constant SPI_mem should degrade: {:.1}% vs {:.1}%",
            r.constant_err_pct,
            r.linear_err_pct
        );
    }

    #[test]
    fn mixing_dominates_switching() {
        let lab = Lab::new();
        let samples = switching_ablation(&lab, &Ep::class_c());
        assert!(!samples.is_empty());
        let mut strictly_better = 0;
        for s in &samples {
            assert!(
                s.mixing_energy_j <= s.switching_energy_j + 1e-9,
                "mixing worse at {:.3}s: {} vs {}",
                s.deadline_s,
                s.mixing_energy_j,
                s.switching_energy_j
            );
            if s.mixing_energy_j < 0.95 * s.switching_energy_j {
                strictly_better += 1;
            }
        }
        assert!(
            strictly_better >= 3,
            "mixing should strictly win on a range of deadlines"
        );
    }
}
