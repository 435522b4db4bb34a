//! Property tests for the degraded-mode sweep: over random 2/3-type
//! spaces, the `k`-failure resilient frontier never beats the nominal
//! (`k = 0`) frontier, and every degraded outcome is an ordinary point of
//! the nominal sweep (same table, reduced configuration) — so all
//! comparisons here are exact, with no floating-point tolerance.

use proptest::collection::vec;
use proptest::prelude::*;

use hecmix_core::config::{ConfigSpace, TypeBounds};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::resilience::ResilientTable;
use hecmix_core::types::Platform;

/// Keep random spaces small enough that sweeping k = 0..=2 frontiers per
/// case stays cheap in debug builds.
const MAX_SPACE: u64 = 20_000;

fn space_and_models() -> impl Strategy<Value = (ConfigSpace, Vec<WorkloadModel>, f64, u32)> {
    (
        2usize..=3,
        vec((any::<bool>(), 1u32..=3, 20.0f64..200.0), 3),
        any::<bool>(),
        1e4f64..1e7,
        1u32..=2,
    )
        .prop_filter_map(
            "space too large for per-case multi-k sweeps",
            |(ntypes, raw, io_bound, w, k)| {
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
                (space.count() <= MAX_SPACE).then_some((space, models, w, k))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance property: the nominal frontier weakly dominates every
    /// point of the k-failure frontier — losing nodes never improves time
    /// or energy. Exact comparison: a degraded configuration is just
    /// another configuration of the same space, evaluated by the same
    /// kernel.
    #[test]
    fn nominal_frontier_weakly_dominates_k_frontier(
        (space, models, w, k) in space_and_models()
    ) {
        let rt = ResilientTable::build(&space, &models).unwrap();
        let nominal = rt.frontier(w, 0).unwrap();
        let degraded = rt.frontier(w, k).unwrap();
        for p in &degraded.points {
            let best = nominal.min_energy_for_deadline(p.time_s);
            prop_assert!(
                best.is_some(),
                "k={} point at t={} is faster than the whole nominal frontier", k, p.time_s
            );
            prop_assert!(
                best.unwrap().energy_j <= p.energy_j,
                "k={} point ({}, {}) beats the nominal frontier ({} J at that deadline)",
                k, p.time_s, p.energy_j, best.unwrap().energy_j
            );
        }
    }

    /// Structural properties of every degraded point: the deployed
    /// configuration survives k losses (more than k nodes), its degraded
    /// outcome matches the frontier point bit for bit, and the degraded
    /// flat index decodes to a node-wise reduced version of the deployed
    /// configuration.
    #[test]
    fn k_frontier_points_are_reachable_degradations(
        (space, models, w, k) in space_and_models()
    ) {
        let rt = ResilientTable::build(&space, &models).unwrap();
        let degraded = rt.frontier(w, k).unwrap();
        // Find each frontier config's flat index by scanning the table
        // (spaces are capped small, so this stays cheap).
        for p in &degraded.points {
            let flat = (1..=rt.table().count())
                .find(|&flat| rt.table().decode(flat) == p.config)
                .expect("frontier config must come from the table");
            let total: u32 = p.config.per_type.iter().flatten().map(|c| c.nodes).sum();
            prop_assert!(total > k);
            let out = rt.degraded_outcome(flat, k, w).unwrap();
            prop_assert_eq!(out.time_s, p.time_s);
            prop_assert_eq!(out.energy_j, p.energy_j);
            let reduced = rt.table().decode(rt.degraded_flat(flat, k).unwrap());
            let rtotal: u32 = reduced.per_type.iter().flatten().map(|c| c.nodes).sum();
            prop_assert_eq!(rtotal, total - k);
        }
    }

    /// Monotonicity in k: tolerating more failures can only cost more.
    /// Each k+1 worst case extends a k worst case by one more lost node
    /// (greedy prefix), so the k-frontier weakly dominates the (k+1)-one.
    #[test]
    fn tolerance_is_monotonically_costly(
        (space, models, w, _k) in space_and_models()
    ) {
        let rt = ResilientTable::build(&space, &models).unwrap();
        let fs = rt.frontiers(w, 2).unwrap();
        for k in 0..fs.len() - 1 {
            for p in &fs[k + 1].points {
                if let Some(best) = fs[k].min_energy_for_deadline(p.time_s) {
                    prop_assert!(best.energy_j <= p.energy_j);
                } else {
                    prop_assert!(false, "k+1 frontier faster than k frontier");
                }
            }
        }
    }
}
