//! One-stop characterization: archetype + workload → model inputs.

use hecmix_core::dvfs::NodeDvfs;
use hecmix_core::profile::WorkloadModel;
use hecmix_sim::{NodeArch, WorkloadTrace};

use crate::characterize::{characterize_workload, CharacterizeOptions};
use crate::power::characterize_power;

/// Characterize `trace` on `arch`, producing the complete measurement
/// bundle the analytical model consumes (the paper's baseline runs on one
/// node of each type, §III-A).
#[must_use]
pub fn characterize_node(arch: &NodeArch, trace: &WorkloadTrace, seed: u64) -> WorkloadModel {
    let mut opts = CharacterizeOptions::for_trace(trace);
    opts.seed = seed;
    let profile = characterize_workload(arch, trace, &opts);
    let power = characterize_power(arch, seed ^ 0x70FF);
    WorkloadModel {
        workload: trace.name.clone(),
        platform: arch.platform.clone(),
        profile,
        dvfs: NodeDvfs::lift(&arch.platform, &power),
        power,
    }
}

/// Characterize a workload on both node types of a two-type cluster,
/// returning the bundles in `[low-power, high-performance]` order (the
/// order used throughout the experiments).
#[must_use]
pub fn characterize_pair(
    low: &NodeArch,
    high: &NodeArch,
    trace: &WorkloadTrace,
    seed: u64,
) -> Vec<WorkloadModel> {
    vec![
        characterize_node(low, trace, seed),
        characterize_node(high, trace, seed ^ 0xA11A),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::config::NodeConfig;
    use hecmix_core::exec_time::ExecTimeModel;
    use hecmix_core::stats::relative_error_pct;
    use hecmix_sim::{reference_amd_arch, reference_arm_arch, run_node, NodeRunSpec};
    use hecmix_workloads::ep::Ep;
    use hecmix_workloads::Workload;

    #[test]
    fn end_to_end_prediction_matches_measurement() {
        // The crux of the paper's validation: characterize once, predict a
        // *different* run, compare against the simulator's measurement.
        // Table 3 reports errors under ~15 %.
        let arch = reference_arm_arch();
        let trace = Ep::class_a().trace();
        let model = characterize_node(&arch, &trace, 99);
        model.validate().unwrap();

        let em = ExecTimeModel::new(&model);
        for (cores, f_idx, units) in [(4u32, 4usize, 600_000u64), (2, 2, 300_000), (1, 0, 100_000)]
        {
            let freq = arch.platform.freqs[f_idx];
            let cfg = NodeConfig::new(1, cores, freq);
            let predicted = em.predict(&cfg, units as f64).total;
            let measured =
                run_node(&arch, &trace, &NodeRunSpec::new(cores, freq, units, 12345)).duration_s;
            let err = relative_error_pct(predicted, measured);
            assert!(
                err < 15.0,
                "cores={cores} f={freq}: predicted {predicted}s measured {measured}s err {err}%"
            );
        }
    }

    #[test]
    fn pair_order_is_low_then_high() {
        let models = characterize_pair(
            &reference_arm_arch(),
            &reference_amd_arch(),
            &Ep::class_a().trace(),
            5,
        );
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].platform.name, "ARM Cortex-A9");
        assert_eq!(models[1].platform.name, "AMD K10");
        for m in &models {
            m.validate().unwrap();
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let arch = reference_arm_arch();
        let trace = Ep::class_a().trace();
        let a = characterize_node(&arch, &trace, 7);
        let b = characterize_node(&arch, &trace, 7);
        assert_eq!(a, b);
    }
}
