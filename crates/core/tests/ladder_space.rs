//! A ladder whose OPP count differs from its platform's P-state count:
//! the options, the space size and the node stride all come from the
//! ladder, never from the platform.
//!
//! The sink registry is process-global, so only one test here installs a
//! sink; no other test in this binary emits `sweep_pruned`.

use std::sync::Arc;

use hecmix_core::config::{ConfigSpace, NodeConfig};
use hecmix_core::dvfs::{ActiveState, IdleState, NodeDvfs, OppLadder, PowerDomain};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::{stream_frontier_pruned, RateTable};
use hecmix_core::resilience::ResilientTable;
use hecmix_core::types::{Frequency, Platform};
use hecmix_obs::{Event, RingSink};

/// ARM with a 3-OPP big.LITTLE-shaped ladder (the platform has 5
/// P-states) and a two-point AMD model, under caps of 3 and 2 nodes.
fn big_little_space() -> (ConfigSpace, Vec<WorkloadModel>) {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let opp = |ghz: f64, capacity: f64, power_w: f64, stall_w: f64| ActiveState {
        freq: Frequency::from_ghz(ghz),
        capacity,
        power_w,
        stall_w,
    };
    let ladder = OppLadder {
        states: vec![
            opp(0.6, 178.0, 0.12, 0.07),
            opp(1.0, 476.0, 0.33, 0.2),
            opp(1.4, 1024.0, 0.8, 0.48),
        ],
        idle_states: vec![IdleState {
            name: "WFI".into(),
            power_w: 0.05,
            residency_s: 0.0,
        }],
    };
    let domain = PowerDomain::leaf("node", 1.8, 0.2, 1e-3);
    let models = vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0).with_dvfs(NodeDvfs { ladder, domain }),
        WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
    ];
    models.iter().for_each(|m| m.validate().unwrap());
    (ConfigSpace::two_type(arm, 3, amd, 2), models)
}

#[test]
fn losing_a_node_steps_back_one_ladder_stride() {
    let (space, models) = big_little_space();
    let rt = ResilientTable::build(&space, &models).unwrap();
    // Flat 13 is ARM option 12 with AMD unused: 2 nodes at OPP 0 with one
    // core, 3 OPPs × 4 cores past option 0.
    let opp0 = models[0].dvfs.ladder.effective_freq(0);
    let deployed = rt.table().decode(13);
    assert_eq!(
        deployed.per_type,
        vec![Some(NodeConfig::new(2, 1, opp0)), None]
    );
    assert_eq!(rt.degraded_flat(13, 1), Some(1));
    assert_eq!(
        rt.table().decode(1).per_type,
        vec![Some(NodeConfig::new(1, 1, opp0)), None]
    );
}

#[test]
fn space_size_counts_ladder_options() {
    let (space, models) = big_little_space();
    // The platform P-states would give (3·5·4 + 1)(2·3·6 + 1) − 1.
    assert_eq!(space.count(), 2256);
    assert_eq!(RateTable::build(&space, &models).unwrap().count(), 1368);

    let ring = Arc::new(RingSink::new(4096));
    hecmix_obs::install(ring.clone());
    let (_, ladder) = stream_frontier_pruned(&space, &models, 1e6).unwrap();
    let two_point = [
        WorkloadModel::synthetic_cpu_bound(&space.types[0].platform, "ep", 60.0),
        models[1].clone(),
    ];
    let (_, plain) = stream_frontier_pruned(&space, &two_point, 1e6).unwrap();
    hecmix_obs::uninstall();

    assert_eq!(ladder.full_space, 1368);
    assert_eq!(ladder.total_options, 37 + 37);
    assert_eq!(plain.full_space, space.count());
    let pruned: Vec<(u64, u64)> = ring
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::SweepPruned {
                total_points,
                kept_points,
            } => Some((total_points, kept_points)),
            _ => None,
        })
        .collect();
    assert_eq!(
        pruned,
        vec![
            (1368, ladder.evaluated_configs),
            (space.count(), plain.evaluated_configs)
        ]
    );
}
