//! `hecmix-sched` — online energy-aware task scheduling on heterogeneous
//! pools.
//!
//! The paper plans one batch workload at a time onto a static mix; this
//! crate multiplexes a *stream* of jobs over a shared heterogeneous pool:
//!
//! * [`pool`] — the node inventory plus per-workload placement menus,
//!   derived from single-node rows of the core rate tables (one entry per
//!   (type, OPP), bit-identical to the offline planner's numbers);
//! * [`job`] — job specs, the hardened trace loader, and seeded diurnal
//!   Poisson synthesis over
//!   [`hecmix_queueing::dispatch::DiurnalProfile::lambda_at_time`];
//! * [`sched`] — the deterministic event-loop scheduler: bounded
//!   admission, HEATS-style `α·performance + (1−α)·energy` placement with
//!   per-node reservations and backfill, deadline-miss accounting, and
//!   fault/power-cap migration with exact work-conserving charge rollback
//!   (reusing [`hecmix_sim::faults`]). It runs as a resumable [`Session`]
//!   that takes one arrival at a time: [`Scheduler::run_faulted`] feeds a
//!   whole stream, and the live `/submit` path of `hecmix-serve` feeds
//!   one from the wall clock;
//! * [`baseline`] — the paper's static whole-pool mix-and-match
//!   discipline run FIFO over the same stream, the comparison target of
//!   the `scheduler` experiments artifact.
//!
//! Determinism is a hard invariant: same `(pool, config, trace, faults)`
//! ⇒ bit-identical decisions and telemetry, pinned by the replay tests.

#![warn(missing_docs)]

pub mod baseline;
pub mod job;
pub mod pool;
pub mod sched;

pub use baseline::{run_static_mix_and_match, BaselineOutcome};
pub use job::{format_trace, parse_trace, synthesize_diurnal, DiurnalTraceSpec, JobSpec};
pub use pool::{Pool, WorkloadClass};
pub use sched::{Admission, Candidate, JobResult, SchedConfig, SchedOutcome, Scheduler, Session};
