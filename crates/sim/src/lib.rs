//! # hecmix-sim — the measured-hardware substrate
//!
//! The ICPP 2014 paper validates its analytical model against *direct
//! measurements* on a physical testbed: ARM Cortex-A9 and AMD Opteron K10
//! nodes instrumented with Linux `perf` hardware event counters and a
//! Yokogawa WT210 power meter. That hardware is not available to this
//! reproduction, so this crate provides the substitute: a discrete-event
//! micro-architectural cluster simulator that plays the role of the real
//! machines.
//!
//! Crucially, the simulator is **not** the analytical model re-run. It
//! works from different primitives:
//!
//! * workloads are abstract *operation mixes* (integer/floating-point/wide-
//!   multiply operations, memory references with locality, network bytes)
//!   — see [`trace::UnitDemand`];
//! * each node archetype expands the mix into ISA-specific instructions and
//!   issue cycles ([`arch::IsaModel`]), suffers cache misses against its own
//!   cache hierarchy, waits on a shared memory controller whose latency
//!   grows with the number of contending cores ([`arch::MemoryModel`]), and
//!   drains network bytes through a DMA-driven NIC at the platform's line
//!   rate;
//! * cores, the NIC and the request-arrival process interact through an
//!   event queue ([`engine`]) with per-chunk stochastic jitter
//!   ([`noise`]), so CPU utilization, I/O backpressure and memory
//!   contention are *emergent*, not prescribed;
//! * observables come out through perf-like counters ([`counters`]) and a
//!   sampling power meter with calibrated measurement noise ([`power`]);
//! * a cluster job runs its nodes independently and tops up early
//!   finishers' idle floor ([`cluster`]); the plain run is the empty
//!   schedule of the fault-injecting runner ([`faults`]), so paper
//!   validations and crash experiments share one path.
//!
//! The analytical model in `hecmix-core` is then fed with parameters
//! *measured on this substrate* (by `hecmix-profile`) and validated against
//! *end-to-end runs of this substrate* — the same two-sided methodology the
//! paper applies to its physical cluster (§II-D, §III).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod calibration;
pub mod cluster;
pub mod counters;
pub mod engine;
pub mod faults;
pub mod jobs;
pub mod node;
pub mod noise;
pub mod power;
pub mod trace;

pub use arch::{ArchPower, IsaModel, MemoryModel, NodeArch};
pub use calibration::{reference_a15_arch, reference_amd_arch, reference_arm_arch};
pub use cluster::{run_cluster, ClusterMeasurement, ClusterSpec, TypeAssignment};
pub use counters::{CoreCounters, NodeCounters};
pub use faults::{
    run_cluster_faulted, CrashRecord, FaultEvent, FaultKind, FaultSchedule, NodeFault,
    RecoveryPolicy, WorkInjection,
};
pub use jobs::{run_job_stream, JobStreamMeasurement, JobStreamSpec};
pub use node::{
    run_node, run_node_faulted, FaultedNodeMeasurement, Governor, NodeMeasurement, NodeRunSpec,
};
pub use noise::Noise;
pub use trace::{ArrivalProcess, UnitDemand, WorkloadTrace};
