//! Property tests: the streaming rate-table engine is equivalent to the
//! exhaustive `evaluate`-based sweep on the energy–deadline plane.
//!
//! Random configuration spaces (2–3 types, mixed ARM/AMD pools, CPU- and
//! I/O-bound workloads, random per-type instruction demand and work sizes)
//! are swept both ways; the curves must agree to 1e-9 relative tolerance,
//! and the lean `(Σr, Σb)` kernel must reproduce the full mix-and-match
//! evaluation point by point.

use proptest::collection::vec;
use proptest::prelude::*;

use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::mix_match::evaluate;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{stream_frontier, stream_frontier_pruned, RateTable};
use hecmix_core::sweep::{sweep_space, EvaluatedConfig};
use hecmix_core::types::Platform;

/// Keep random spaces small enough that the exhaustive reference sweep
/// stays cheap in debug builds.
const MAX_SPACE: u64 = 20_000;

fn space_and_models() -> impl Strategy<Value = (ConfigSpace, Vec<WorkloadModel>, f64)> {
    (
        2usize..=3,
        vec((any::<bool>(), 1u32..=2, 20.0f64..200.0), 3),
        any::<bool>(),
        1e4f64..1e7,
    )
        .prop_filter_map(
            "space too large for the exhaustive reference",
            |(ntypes, raw, io_bound, w)| {
                let arm = Platform::reference_arm();
                let amd = Platform::reference_amd();
                let mut types = Vec::new();
                let mut models = Vec::new();
                for (use_amd, max_nodes, instr) in raw.into_iter().take(ntypes) {
                    let p = if use_amd { &amd } else { &arm };
                    types.push(TypeBounds {
                        platform: p.clone(),
                        max_nodes,
                    });
                    models.push(if io_bound {
                        WorkloadModel::synthetic_io_bound(p, "kv", instr, 512.0)
                    } else {
                        WorkloadModel::synthetic_cpu_bound(p, "ep", instr)
                    });
                }
                let space = ConfigSpace::new(types);
                (space.count() <= MAX_SPACE).then_some((space, models, w))
            },
        )
}

fn exhaustive_frontier(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w: f64,
) -> (Vec<EvaluatedConfig>, ParetoFrontier) {
    let evaluated = sweep_space(space, models, w).expect("valid random space");
    let frontier = ParetoFrontier::from_points(
        evaluated
            .iter()
            .map(EvaluatedConfig::to_pareto_point)
            .collect(),
    );
    (evaluated, frontier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming fold over the full rate table yields the same
    /// energy-per-deadline curve as evaluating every point.
    #[test]
    fn streaming_fold_matches_exhaustive_curve((space, models, w) in space_and_models()) {
        let (_, exhaustive) = exhaustive_frontier(&space, &models, w);
        let streamed = stream_frontier(&space, &models, w).unwrap();
        prop_assert_eq!(streamed.is_empty(), exhaustive.is_empty());
        for p in &exhaustive.points {
            let got = streamed.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!(
                (got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j,
                "deadline {}: streamed {} J vs exhaustive {} J",
                p.time_s, got.energy_j, p.energy_j
            );
        }
        for p in &streamed.points {
            let got = exhaustive.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!(
                got.energy_j <= p.energy_j + 1e-9 * p.energy_j,
                "streamed point below the exhaustive frontier: {} J vs {} J",
                p.energy_j, got.energy_j
            );
        }
    }

    /// The lean kernel agrees with the full mix-and-match evaluation on
    /// every single configuration: bit-identical time (same rate sums in
    /// the same order) and energy to 1e-9 relative tolerance.
    #[test]
    fn lean_kernel_matches_full_evaluate((space, models, w) in space_and_models()) {
        let table = RateTable::build(&space, &models).unwrap();
        prop_assert_eq!(table.count(), space.count());
        let swept = sweep_space(&space, &models, w).unwrap();
        prop_assert_eq!(swept.len() as u64, table.count());
        for (k, e) in swept.iter().enumerate() {
            let flat = k as u64 + 1;
            let point = &e.config;
            prop_assert_eq!(&table.decode(flat), point);
            let lean = table.outcome(flat, w);
            let full = evaluate(point, &models, w).unwrap();
            prop_assert_eq!(lean.time_s, full.time_s);
            prop_assert!(
                (lean.energy_j - full.energy_j).abs() <= 1e-9 * full.energy_j,
                "flat {}: lean {} J vs full {} J",
                flat, lean.energy_j, full.energy_j
            );
        }
    }

    /// Dominance pruning plus streaming preserves the curve and never
    /// invents points below the exhaustive frontier.
    #[test]
    fn pruned_streaming_matches_exhaustive_curve((space, models, w) in space_and_models()) {
        let (_, exhaustive) = exhaustive_frontier(&space, &models, w);
        let (pruned, stats) = stream_frontier_pruned(&space, &models, w).unwrap();
        prop_assert!(stats.evaluated_configs <= stats.full_space);
        prop_assert!(stats.kept_options <= stats.total_options);
        for p in &exhaustive.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!(
                (got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j,
                "deadline {}: pruned {} J vs exhaustive {} J",
                p.time_s, got.energy_j, p.energy_j
            );
        }
        for p in &pruned.points {
            let got = exhaustive.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
    }
}
