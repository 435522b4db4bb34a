//! Property tests feeding every oracle (ISSUE 4, satellite 5): random
//! synthetic model pairs, random two-type spaces, random cluster points,
//! and random seeds are pushed through the differential oracles and the
//! per-point laws — all of which must hold for *any* valid input.

use proptest::prelude::*;

use hecmix_check::fuzz::check_point;
use hecmix_check::{oracles, reference};
use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig, TypeBounds};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::RateTable;
use hecmix_core::resilience::ResilientTable;
use hecmix_core::types::{Frequency, Platform};

/// Random two-type scenario: reference platforms with random node caps,
/// random per-type instruction demand, CPU- or I/O-bound profiles, and a
/// random job size.
fn scenario() -> impl Strategy<Value = (ConfigSpace, Vec<WorkloadModel>, f64)> {
    (
        1.0f64..4.0,
        1.0f64..4.0,
        any::<bool>(),
        1u32..=3,
        1u32..=2,
        1e3f64..1e7,
    )
        .prop_map(|(ia, ib, io_bound, max_a, max_b, w)| {
            let arm = Platform::reference_arm();
            let amd = Platform::reference_amd();
            let mk = |p: &Platform, i_ps: f64| {
                if io_bound {
                    WorkloadModel::synthetic_io_bound(p, "prop", i_ps * 1e9, 500.0)
                } else {
                    WorkloadModel::synthetic_cpu_bound(p, "prop", i_ps * 1e9)
                }
            };
            let models = vec![mk(&arm, ia), mk(&amd, ib)];
            (ConfigSpace::two_type(arm, max_a, amd, max_b), models, w)
        })
}

/// Raw per-type slot draw, clamped into a space's bounds by [`mk_slot`].
fn raw_slot() -> impl Strategy<Value = (bool, u32, u32, usize)> {
    (any::<bool>(), 1u32..=4, 1u32..=8, 0usize..16)
}

fn mk_slot(raw: (bool, u32, u32, usize), bounds: &TypeBounds) -> Option<NodeConfig> {
    let (used, nodes, cores, fidx) = raw;
    used.then(|| {
        NodeConfig::new(
            nodes.clamp(1, bounds.max_nodes),
            cores.clamp(1, bounds.platform.cores),
            bounds.platform.freqs[fidx % bounds.platform.freqs.len()],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_model_only_oracles_hold((space, models, w) in scenario()) {
        prop_assert_eq!(
            oracles::closed_form_vs_numeric(&space, &models, w),
            Vec::<String>::new()
        );
        prop_assert_eq!(
            oracles::exhaustive_vs_streaming(&space, &models, w),
            Vec::<String>::new()
        );
        prop_assert_eq!(
            oracles::resilient_k0_vs_plain(&space, &models, w),
            Vec::<String>::new()
        );
    }

    #[test]
    fn prop_per_point_laws_hold(
        (space, models, w) in scenario(),
        raw_a in raw_slot(),
        raw_b in raw_slot(),
    ) {
        let mut per_type = vec![
            mk_slot(raw_a, &space.types[0]),
            mk_slot(raw_b, &space.types[1]),
        ];
        if per_type.iter().all(Option::is_none) {
            per_type[0] = mk_slot((true, raw_a.1, raw_a.2, raw_a.3), &space.types[0]);
        }
        let point = ClusterPoint::new(per_type);
        prop_assert_eq!(check_point(&point, &models, w, None), None);
    }
}

/// Random valid [`NodeDvfs`]: 2–4 OPPs built from positive frequency and
/// capacity increments (so monotonicity holds by construction), a 0–2
/// state idle ladder with multiplicative power decay and non-decreasing
/// residency, and a 1–4 leaf cluster domain whose sleep floors are a
/// fraction of their idle floors.
fn node_dvfs() -> impl Strategy<Value = hecmix_core::dvfs::NodeDvfs> {
    use hecmix_core::dvfs::{ActiveState, IdleState, NodeDvfs, OppLadder, PowerDomain};
    use hecmix_core::types::Frequency;
    (
        0.3f64..0.7,
        100.0f64..300.0,
        proptest::collection::vec(
            (0.2f64..0.6, 50.0f64..400.0, 0.05f64..1.0, 0.0f64..0.5),
            2..=4,
        ),
        proptest::collection::vec((0.1f64..0.9, 0.0f64..0.01), 0..=2),
        proptest::collection::vec((0.1f64..0.5, 0.0f64..1.0, 0.0f64..0.01), 1..=4),
        (0.2f64..1.0, 0.0f64..1.0, 0.0f64..0.1),
    )
        .prop_map(|(ghz0, cap0, opps, idles, leaves, cluster)| {
            let (mut ghz, mut cap) = (ghz0, cap0);
            let states = opps
                .into_iter()
                .map(|(dghz, dcap, power_w, stall_w)| {
                    let s = ActiveState {
                        freq: Frequency::from_ghz(ghz),
                        capacity: cap,
                        power_w,
                        stall_w,
                    };
                    ghz += dghz;
                    cap += dcap;
                    s
                })
                .collect();
            let (mut idle_w, mut residency) = (1.0, 0.0);
            let idle_states = idles
                .into_iter()
                .enumerate()
                .map(|(i, (decay, dres))| {
                    idle_w *= decay;
                    residency += dres;
                    IdleState {
                        name: format!("idle{i}"),
                        power_w: idle_w,
                        residency_s: residency,
                    }
                })
                .collect();
            let children = leaves
                .into_iter()
                .enumerate()
                .map(|(c, (leaf_idle, sleep_frac, res))| {
                    PowerDomain::leaf(&format!("core{c}"), leaf_idle, leaf_idle * sleep_frac, res)
                })
                .collect();
            let (cluster_idle, cluster_sleep_frac, cluster_res) = cluster;
            NodeDvfs {
                ladder: OppLadder {
                    states,
                    idle_states,
                },
                domain: PowerDomain::cluster(
                    "cluster0",
                    cluster_idle,
                    cluster_idle * cluster_sleep_frac,
                    cluster_res,
                    children,
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Any valid random ladder and domain tree must (a) pass validation
    // and (b) make the streamed per-(type, OPP) frontier agree with the
    // exhaustive sweep over the same ladders.
    #[test]
    fn prop_ladder_stream_matches_exhaustive(
        dvfs_a in node_dvfs(),
        dvfs_b in node_dvfs(),
        w in 1e4f64..1e7,
    ) {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let models = [
            WorkloadModel::synthetic_cpu_bound(&arm, "prop", 2.0e9).with_dvfs(dvfs_a),
            WorkloadModel::synthetic_cpu_bound(&amd, "prop", 1.6e9).with_dvfs(dvfs_b),
        ];
        prop_assert!(models[0].validate().is_ok());
        prop_assert!(models[1].validate().is_ok());
        let space = ConfigSpace::two_type(arm, 2, amd, 2);
        prop_assert_eq!(
            oracles::exhaustive_vs_streaming(&space, &models, w),
            Vec::<String>::new()
        );
    }
}

/// One to three types from the reference platforms plus a third, at
/// these node caps (a cap of 0 leaves a type out, but never every type),
/// with CPU- or I/O-bound profiles of instruction demand `10^demand`.
fn fold_space(
    types: usize,
    mut caps: [u32; 3],
    demand: [f64; 3],
    io_bound: bool,
) -> (ConfigSpace, Vec<WorkloadModel>) {
    let mid = Platform {
        name: "ARM Cortex-A15".to_owned(),
        freqs: vec![Frequency::from_ghz(0.6), Frequency::from_ghz(1.8)],
        peak_power_w: 9.0,
        idle_power_w: 2.6,
        ..Platform::reference_arm()
    };
    let platforms = [Platform::reference_arm(), Platform::reference_amd(), mid];
    if caps[..types].iter().all(|&c| c == 0) {
        caps[0] = 1;
    }
    let bounds = (0..types)
        .map(|t| TypeBounds {
            platform: platforms[t].clone(),
            max_nodes: caps[t],
        })
        .collect();
    let models = (0..types)
        .map(|t| {
            let i_ps = 10f64.powf(demand[t]);
            if io_bound {
                WorkloadModel::synthetic_io_bound(&platforms[t], "fold", i_ps, 512.0)
            } else {
                WorkloadModel::synthetic_cpu_bound(&platforms[t], "fold", i_ps)
            }
        })
        .collect();
    (ConfigSpace::new(bounds), models)
}

/// Random one- to three-type table: [`fold_space`] at random caps,
/// demands and profile kind, pruned or not, and a random job size.
/// Unpruned spaces get smaller caps so the per-point reference stays
/// quick.
fn fold_scenario() -> impl Strategy<Value = (RateTable, f64)> {
    (
        1usize..=3,
        (0u32..=40, 0u32..=40, 0u32..=40),
        (2.0f64..9.0, 2.0f64..9.0, 2.0f64..9.0),
        any::<bool>(),
        any::<bool>(),
        1e3f64..1e8,
    )
        .prop_map(|(types, caps, demand, io_bound, pruned, w)| {
            let limit = if pruned { 40 } else { [40, 6, 3][types - 1] };
            let caps = [caps.0, caps.1, caps.2].map(|c| c * limit / 40);
            let (space, models) = fold_space(types, caps, [demand.0, demand.1, demand.2], io_bound);
            let table = if pruned {
                RateTable::build_pruned(&space, &models)
            } else {
                RateTable::build(&space, &models)
            };
            (table.expect("valid scenario"), w)
        })
}

/// Random full table for the k-degraded fold: [`fold_space`] at the
/// unpruned caps of [`fold_scenario`], or at caps of at most one node
/// (where no configuration tolerates `k ≥` the type count), a random job
/// size and `k ∈ 0..=3`.
fn degraded_scenario() -> impl Strategy<Value = (ResilientTable, f64, u32)> {
    (
        1usize..=3,
        (0u32..=40, 0u32..=40, 0u32..=40),
        (2.0f64..9.0, 2.0f64..9.0, 2.0f64..9.0),
        any::<bool>(),
        any::<bool>(),
        1e3f64..1e8,
        0u32..=3,
    )
        .prop_map(|(types, caps, demand, io_bound, tiny, w, k)| {
            let limit = if tiny { 1 } else { [40, 6, 3][types - 1] };
            let caps = [caps.0, caps.1, caps.2].map(|c| (c * limit).div_ceil(40));
            let (space, models) = fold_space(types, caps, [demand.0, demand.1, demand.2], io_bound);
            let table = ResilientTable::build(&space, &models).expect("valid scenario");
            (table, w, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The row-by-row fold (column sums, dominated blocks, in-row dominance
    // skips, hinted inserts) must return exactly the per-point fold's
    // frontier: same bits, same configurations. A table's flat indices
    // decode to distinct configurations, so equal configurations mean
    // equal flat indices.
    #[test]
    fn prop_row_fold_equals_per_point_fold((table, w) in fold_scenario()) {
        let fast = table.frontier(w).unwrap();
        let slow = reference::per_point_fold(&table, w);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.points.iter().zip(&slow) {
            prop_assert_eq!(f.time_s.to_bits(), s.time_s.to_bits());
            prop_assert_eq!(f.energy_j.to_bits(), s.energy_j.to_bits());
            prop_assert_eq!(&f.config, &table.decode(s.flat));
        }
    }

    // The k-degraded row fold (row constants per lost-node count, type 0's
    // loss per cell, in-row dominance skips) must return
    // exactly the per-point degraded fold's frontier, empty when no
    // configuration tolerates `k`.
    #[test]
    fn prop_degraded_row_fold_equals_per_point_fold((table, w, k) in degraded_scenario()) {
        let fast = table.frontier(w, k).unwrap();
        let slow = reference::per_point_degraded_fold(&table, w, k);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.points.iter().zip(&slow) {
            prop_assert_eq!(f.time_s.to_bits(), s.time_s.to_bits());
            prop_assert_eq!(f.energy_j.to_bits(), s.energy_j.to_bits());
            prop_assert_eq!(&f.config, &table.table().decode(s.flat));
        }
    }
}

proptest! {
    // The simulator-backed oracles characterize and run the testbed per
    // case; a handful of random seeds keeps the suite fast while still
    // exercising seed-dependent paths.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn prop_sim_backed_oracles_hold(seed in 0u64..(1u64 << 32)) {
        prop_assert_eq!(oracles::model_vs_sim(seed), Vec::<String>::new());
        prop_assert_eq!(oracles::late_crash_vs_plain(seed), Vec::<String>::new());
        prop_assert_eq!(oracles::des_mean_wait_vs_pk(seed), Vec::<String>::new());
    }
}

mod invariant_props {
    use super::*;
    use hecmix_check::invariants;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_invariants_hold((space, models, w) in scenario()) {
            prop_assert_eq!(
                invariants::work_share_conservation(&space, &models, w),
                Vec::<String>::new()
            );
            prop_assert_eq!(
                invariants::energy_components(&space, &models, w),
                Vec::<String>::new()
            );
            prop_assert_eq!(
                invariants::pareto_staircase(&space, &models, w),
                Vec::<String>::new()
            );
            prop_assert_eq!(
                invariants::merge_idempotence(&space, &models, w),
                Vec::<String>::new()
            );
            prop_assert_eq!(
                invariants::time_monotonicity(&space, &models, w),
                Vec::<String>::new()
            );
        }
    }
}
