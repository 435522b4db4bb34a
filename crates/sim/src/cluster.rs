//! Cluster-level simulation: heterogeneous multi-node job execution.
//!
//! Scale-out workloads have negligible inter-node communication (§II-A), so
//! nodes run independently: the cluster's job time is the slowest node's
//! finish time, and every node burns its idle floor until then. Nodes are
//! simulated concurrently with rayon. A plain run is the fault-free case of
//! [`run_cluster_faulted`], which does the flattening, seeding and
//! aggregation for both.

use hecmix_core::types::Frequency;

use crate::arch::NodeArch;
use crate::counters::NodeCounters;
use crate::faults::{run_cluster_faulted, CrashRecord, FaultSchedule, RecoveryPolicy};
use crate::power::EnergyAccount;
use crate::trace::WorkloadTrace;

/// Work assignment for one node type.
#[derive(Debug, Clone)]
pub struct TypeAssignment {
    /// The node archetype.
    pub arch: NodeArch,
    /// Number of nodes of this type.
    pub nodes: u32,
    /// Cores enabled per node.
    pub cores: u32,
    /// Core clock frequency.
    pub freq: Frequency,
    /// Total work units for this *type* (distributed equally across its
    /// nodes, remainder to the first nodes — the paper distributes the
    /// share equally among same-type nodes).
    pub units: u64,
}

/// A whole-cluster run: one trace, one assignment per type.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The workload.
    pub trace: WorkloadTrace,
    /// Per-type assignments.
    pub assignments: Vec<TypeAssignment>,
    /// Base noise seed; each node derives its own stream.
    pub seed: u64,
}

/// Aggregated measurement of a cluster run, plain or under a fault
/// schedule.
#[derive(Debug, Clone)]
pub struct ClusterMeasurement {
    /// Job duration: completion time of the last work unit anywhere (the
    /// slowest node's finish time), seconds. A crash with nothing left to
    /// redo does not extend the job.
    pub duration_s: f64,
    /// Total measured energy across all nodes (meter readings), joules.
    /// Includes the idle energy of early finishers waiting for the job.
    pub measured_energy_j: f64,
    /// Ground-truth total energy including idle top-ups, joules.
    pub true_energy_j: f64,
    /// Per-type results (crashed nodes included up to their crash).
    pub per_type: Vec<TypeMeasurement>,
    /// One record per scheduled crash, in processing (time) order; empty
    /// for a plain run.
    pub crashes: Vec<CrashRecord>,
    /// Units lost for good because no survivor could take them.
    pub abandoned_units: u64,
    /// Work units completed across the cluster.
    pub completed_units: f64,
}

/// Aggregated per-type measurement.
#[derive(Debug, Clone)]
pub struct TypeMeasurement {
    /// Slowest node of this type, seconds.
    pub duration_s: f64,
    /// Measured energy of all nodes of the type (including idle top-up
    /// until the cluster finished), joules.
    pub measured_energy_j: f64,
    /// Summed counters across the type's nodes.
    pub counters: NodeCounters,
    /// Summed exact energy account (before idle top-up).
    pub energy: EnergyAccount,
    /// Per-node durations (for straggler analysis).
    pub node_durations_s: Vec<f64>,
}

/// Run a heterogeneous cluster job to completion: the empty fault
/// schedule of [`run_cluster_faulted`].
///
/// Every node simulates independently; after all finish, nodes that ended
/// early are charged their idle floor until the cluster-wide finish time
/// (they cannot be powered off mid-job).
#[must_use]
pub fn run_cluster(spec: &ClusterSpec) -> ClusterMeasurement {
    run_cluster_faulted(spec, &FaultSchedule::new(), &RecoveryPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{reference_amd_arch, reference_arm_arch};
    use crate::trace::UnitDemand;
    use crate::WorkloadTrace;

    fn ep_demand() -> UnitDemand {
        UnitDemand {
            int_ops: 10.0,
            fp_ops: 8.0,
            simd_ops: 0.0,
            wide_mul_ops: 0.0,
            mem_ops: 2.0,
            llc_miss_rate: 0.005,
            branch_ops: 2.0,
            branch_miss_rate: 0.02,
            io_bytes: 0.0,
        }
    }

    #[test]
    fn homogeneous_cluster_scales() {
        let arm = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let run = |nodes: u32, units: u64| {
            run_cluster(&ClusterSpec {
                trace: trace.clone(),
                assignments: vec![TypeAssignment {
                    arch: arm.clone(),
                    nodes,
                    cores: 4,
                    freq: arm.platform.fmax(),
                    units,
                }],
                seed: 11,
            })
        };
        let one = run(1, 100_000);
        let four = run(4, 100_000);
        let speedup = one.duration_s / four.duration_s;
        assert!(speedup > 3.5 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn heterogeneous_cluster_finishes_at_slowest_type() {
        let arm = reference_arm_arch();
        let amd = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let m = run_cluster(&ClusterSpec {
            trace,
            assignments: vec![
                TypeAssignment {
                    arch: arm.clone(),
                    nodes: 2,
                    cores: 4,
                    freq: arm.platform.fmax(),
                    units: 50_000,
                },
                TypeAssignment {
                    arch: amd.clone(),
                    nodes: 1,
                    cores: 6,
                    freq: amd.platform.fmax(),
                    units: 200_000,
                },
            ],
            seed: 3,
        });
        assert_eq!(m.per_type.len(), 2);
        let slowest = m.per_type.iter().map(|t| t.duration_s).fold(0.0, f64::max);
        assert!((m.duration_s - slowest).abs() < 1e-12);
        assert!(m.measured_energy_j > 0.0);
        // True energy includes the idle top-up so it exceeds the sum of
        // the raw per-type accounts.
        let raw: f64 = m.per_type.iter().map(|t| t.energy.total_j()).sum();
        assert!(m.true_energy_j >= raw);
    }

    #[test]
    fn unbalanced_split_wastes_idle_energy() {
        // Same total work, same hardware; a skewed split must take longer
        // and burn at least as much energy (this is the paper's argument
        // for matching).
        let arm = reference_arm_arch();
        let amd = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let run = |arm_units: u64, amd_units: u64| {
            run_cluster(&ClusterSpec {
                trace: trace.clone(),
                assignments: vec![
                    TypeAssignment {
                        arch: arm.clone(),
                        nodes: 2,
                        cores: 4,
                        freq: arm.platform.fmax(),
                        units: arm_units,
                    },
                    TypeAssignment {
                        arch: amd.clone(),
                        nodes: 1,
                        cores: 6,
                        freq: amd.platform.fmax(),
                        units: amd_units,
                    },
                ],
                seed: 13,
            })
        };
        let total = 240_000u64;
        // Find a near-balanced split by rate ratio (AMD node ≈ 4.4× one
        // ARM node for this mix): give AMD ~69%.
        let balanced = run(total * 31 / 100, total * 69 / 100);
        let skewed = run(total * 80 / 100, total * 20 / 100);
        assert!(skewed.duration_s > balanced.duration_s * 1.2);
        assert!(skewed.true_energy_j > balanced.true_energy_j);
    }

    #[test]
    fn zero_node_types_are_skipped() {
        let arm = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let m = run_cluster(&ClusterSpec {
            trace,
            assignments: vec![
                TypeAssignment {
                    arch: arm.clone(),
                    nodes: 1,
                    cores: 4,
                    freq: arm.platform.fmax(),
                    units: 10_000,
                },
                TypeAssignment {
                    arch: reference_amd_arch(),
                    nodes: 0,
                    cores: 6,
                    freq: reference_amd_arch().platform.fmax(),
                    units: 0,
                },
            ],
            seed: 1,
        });
        assert!(m.duration_s > 0.0);
        assert!(m.per_type[1].node_durations_s.is_empty());
        assert_eq!(m.per_type[1].measured_energy_j, 0.0);
    }

    #[test]
    fn remainder_units_distributed() {
        let arm = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let m = run_cluster(&ClusterSpec {
            trace,
            assignments: vec![TypeAssignment {
                arch: arm.clone(),
                nodes: 3,
                cores: 4,
                freq: arm.platform.fmax(),
                units: 100_001,
            }],
            seed: 5,
        });
        let done: f64 = m.per_type[0].counters.units_done();
        assert!((done - 100_001.0).abs() < 1e-6);
    }
}
