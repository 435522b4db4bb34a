//! # hecmix-core
//!
//! Trace-driven analytical model of the execution time and energy of
//! heterogeneous clusters, reproducing *"Modeling the Energy Efficiency of
//! Heterogeneous Clusters"* (Ramapantulu, Tudor, Loghin, Vu, Teo — ICPP 2014).
//!
//! The paper's question: given a service-time deadline, is a **mix** of
//! high-performance (e.g. AMD Opteron K10) and low-power (e.g. ARM Cortex-A9)
//! nodes more energy-efficient than a homogeneous cluster? Its answer is a
//! *mix-and-match* technique: split one job across both node types so that
//! every node finishes at the same instant (minimizing idle-energy waste),
//! sweep all cluster configurations, and keep the energy–deadline Pareto
//! frontier.
//!
//! This crate implements the paper's analytical machinery:
//!
//! * [`types`] — node platforms, per-node configurations, frequencies.
//! * [`profile`] — the trace-driven model inputs (Table 2 of the paper):
//!   per-workload, per-ISA instruction counts, work/stall cycles per
//!   instruction, the linear `SPI_mem(f)` fits, I/O demand and power
//!   characterization.
//! * [`exec_time`] — the execution-time model, Eq. (1)–(11).
//! * [`energy`] — the energy model, Eq. (12)–(19).
//! * [`mix_match`] — the workload split that equalizes per-type finish times
//!   (Eq. (1) and (4)), generalized to any number of node types.
//! * [`config`] — the `(n_t, c_t, f_t)` configuration space (36,380
//!   configurations for 10 ARM + 10 AMD nodes, §IV-B footnote 2).
//! * [`dvfs`] — the OPP ladder and power-domain tree every model carries
//!   (a two-point model carries its lift), and the one enumeration of a
//!   type's options.
//! * [`pareto`] — energy–deadline Pareto frontiers, sweet/overlap region
//!   classification (§IV-B).
//! * [`budget`] — peak-power budgets and the ARM:AMD substitution ladder
//!   (§IV-C/D, 8:1 ratio with switch power amortization).
//! * [`sweep`] — rayon-parallel exhaustive evaluation of whole
//!   configuration spaces (the reference path, full per-point outcomes).
//! * [`rate_table`] — the streaming sweep engine: per-type `(r, b)` rate
//!   tables, a lean time/energy kernel, and a row-by-row fold that derives
//!   frontiers of million-point spaces without materializing them.
//!
//! The *measured* quantities the model consumes are produced by the
//! `hecmix-profile` crate, which characterizes workloads on the simulated
//! hardware substrate in `hecmix-sim` exactly the way the paper uses `perf`
//! and a Yokogawa WT210 power meter on its physical testbed.
//!
//! ## Quick start
//!
//! ```
//! use hecmix_core::prelude::*;
//!
//! // Reference platforms (Table 1 of the paper) with calibrated-synthetic
//! // measurements for a CPU-bound workload:
//! let arm = Platform::reference_arm();
//! let amd = Platform::reference_amd();
//! let models = vec![
//!     WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
//!     WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
//! ];
//!
//! // One job of 50 million work units split across 2 ARM + 1 AMD nodes,
//! // every node at max cores / max frequency:
//! let cluster = ClusterConfig::new(vec![
//!     TypeDeployment::maxed(&arm, 2),
//!     TypeDeployment::maxed(&amd, 1),
//! ]);
//! let outcome = evaluate(&cluster, &models, 50_000_000.0).unwrap();
//! assert!(outcome.time_s > 0.0 && outcome.energy_j > 0.0);
//! // Mix and match: both node types finish at the same instant.
//! let t = outcome.per_type_times.iter().flatten().map(|t| t.total).collect::<Vec<_>>();
//! assert!((t[0] - t[1]).abs() < 1e-9 * t[0]);
//! ```

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values;
// rewriting with `partial_cmp` would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod config;
pub mod dvfs;
pub mod energy;
pub mod error;
pub mod exec_time;
pub mod mix_match;
pub mod pareto;
pub mod persist;
pub mod profile;
pub mod rate_table;
pub mod resilience;
pub mod stats;
pub mod sweep;
pub mod types;

pub use error::{Error, Result};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::budget::{BudgetMix, PowerBudget, SubstitutionRatio};
    pub use crate::config::{ConfigSpace, NodeConfig};
    pub use crate::dvfs::{ActiveState, IdleState, NodeDvfs, OppLadder, PowerDomain};
    pub use crate::energy::{EnergyBreakdown, EnergyModel};
    pub use crate::error::{Error, Result};
    pub use crate::exec_time::{ExecTimeModel, TimeBreakdown};
    pub use crate::mix_match::{
        evaluate, mix_and_match, ClusterConfig, ClusterOutcome, TypeDeployment,
    };
    pub use crate::pareto::{ParetoFrontier, ParetoPoint, Region, RegionKind};
    pub use crate::profile::{
        IoProfile, LinearFit, PowerProfile, SpiMemFit, WorkloadModel, WorkloadProfile,
    };
    pub use crate::rate_table::{
        stream_frontier, stream_frontier_pruned, RateOption, RateTable, SweepOutcome,
    };
    pub use crate::resilience::{
        predict_crash_run, CrashPlan, DegradedPrediction, ResilientTable, TypeRate,
    };
    pub use crate::sweep::{sweep_space, EvaluatedConfig, PruneStats};
    pub use crate::types::{Frequency, Platform, PlatformId};
}
