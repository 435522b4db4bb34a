//! Structured observability for the hecmix stack.
//!
//! The paper's argument rests on *measured* quantities — per-phase cycle
//! counts, power-state residency, model-vs-measurement error bands — yet
//! without a telemetry layer the discrete-event engine, the streaming sweep,
//! and the diurnal dispatcher all compute invisibly. This crate provides:
//!
//! - [`Event`]: a closed schema of structured events emitted by the
//!   simulator (phase transitions, memory contention, DVFS switches, fault
//!   lifecycle), the sweep engine (chunk/scan/merge counters, timers), the
//!   dispatcher (per-slot decisions), and the experiment runner (CSV
//!   warnings, artifact manifests).
//! - [`Sink`]: where events go. [`JsonlSink`] appends one JSON object per
//!   line to a file; [`RingSink`] keeps the last N events in memory for
//!   tests; the default is no sink at all.
//! - A process-global registry ([`install`]/[`uninstall`]/[`emit`]) guarded
//!   by a single relaxed [`AtomicBool`] so that the disabled path costs one
//!   predictable branch — event construction is behind a closure and never
//!   runs unless a sink is installed.
//! - [`ScopedTimer`]: wall-clock spans emitted on drop.
//! - [`RunManifest`]: the reproducibility sidecar written next to every
//!   experiment CSV (seed, argv, git revision, wall time, shape).
//!
//! JSON encoding is hand-rolled (the offline workspace has no serde_json);
//! the subset emitted here is flat objects of strings, numbers, bools, and
//! arrays thereof, which [`json`] covers.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub mod json;
pub mod manifest;

pub use manifest::{RunManifest, SelfCheckOutcome};

/// One structured telemetry event. Variants group by emitting subsystem;
/// every variant serializes to a flat JSON object with a `"kind"` tag (see
/// [`Event::to_json`], the schema documented in DESIGN.md §9).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ---- hecmix-sim: node engine ----
    /// A core parked (left the active set) or a node-level phase stalled.
    /// `reason` is one of `"nic-backpressure"`, `"starved"`.
    CorePark {
        /// Node RNG seed (identifies the node within a cluster run).
        seed: u64,
        /// Core index that parked.
        core: u32,
        /// Simulated time of the transition, seconds.
        t_s: f64,
        /// Why the core parked.
        reason: &'static str,
    },
    /// A parked core resumed execution.
    CoreResume {
        /// Node RNG seed.
        seed: u64,
        /// Core index that resumed.
        core: u32,
        /// Simulated time, seconds.
        t_s: f64,
    },
    /// Memory-contention stall accounting for one executed chunk.
    MemContention {
        /// Node RNG seed.
        seed: u64,
        /// Simulated start time of the chunk, seconds.
        t_s: f64,
        /// Cores contending for the memory controller during the chunk.
        contending: u32,
        /// Total stall attributed to the chunk, nanoseconds.
        stall_ns: u64,
    },
    /// The ondemand governor switched the operating frequency.
    DvfsSwitch {
        /// Node RNG seed.
        seed: u64,
        /// Simulated time of the switch, seconds.
        t_s: f64,
        /// Frequency before the switch, GHz.
        from_ghz: f64,
        /// Frequency after the switch, GHz.
        to_ghz: f64,
    },
    /// The node stepped to a different OPP of its DVFS ladder (the
    /// ladder-indexed companion of [`Event::DvfsSwitch`]).
    OppChange {
        /// Node RNG seed.
        seed: u64,
        /// Simulated time of the change, seconds.
        t_s: f64,
        /// OPP index before the change.
        from_opp: u32,
        /// OPP index after the change.
        to_opp: u32,
        /// Frequency after the change, GHz.
        to_ghz: f64,
    },
    /// A power domain entered its deep idle state (all children idle and
    /// the residency horizon passed).
    DomainSleep {
        /// Node RNG seed.
        seed: u64,
        /// Simulated time the domain entered the deep state, seconds.
        t_s: f64,
        /// Domain name.
        domain: &'static str,
        /// Floor power while slept, watts.
        sleep_w: f64,
    },
    /// A power domain left its deep idle state.
    DomainWake {
        /// Node RNG seed.
        seed: u64,
        /// Simulated wake time, seconds.
        t_s: f64,
        /// Domain name.
        domain: &'static str,
        /// Seconds spent in the deep state this residency.
        slept_s: f64,
    },

    // ---- hecmix-sim: fault lifecycle ----
    /// A faulted cluster run started.
    FaultedRunStart {
        /// Total work units across the cluster.
        total_units: u64,
        /// Number of scheduled crashes.
        crashes: usize,
    },
    /// A node crashed.
    Crash {
        /// Node type index in the cluster spec.
        type_idx: usize,
        /// Node index within its type.
        node_idx: usize,
        /// Simulated crash time, seconds.
        crash_s: f64,
        /// Units the node had not completed at the crash.
        leftover_units: u64,
        /// Units in flight (charged but rolled back) at the crash.
        lost_in_flight_units: u64,
    },
    /// The heartbeat monitor detected a crash.
    HeartbeatTimeout {
        /// Crashed node type index.
        type_idx: usize,
        /// Crashed node index within its type.
        node_idx: usize,
        /// Simulated detection time, seconds.
        detected_s: f64,
    },
    /// Leftover work was redistributed (or abandoned) after detection.
    Redistribution {
        /// Crashed node type index.
        type_idx: usize,
        /// Crashed node index within its type.
        node_idx: usize,
        /// Simulated redistribution time, seconds.
        redistributed_s: f64,
        /// Units moved to survivors.
        moved_units: u64,
        /// Units abandoned (no capacity to absorb them).
        abandoned_units: u64,
    },
    /// One survivor's share of a redistribution.
    RedistributionShare {
        /// Receiving node type index.
        to_type: usize,
        /// Receiving node index within its type.
        to_node: usize,
        /// Units received.
        units: u64,
    },
    /// A faulted cluster run completed.
    FaultedRunEnd {
        /// Makespan, seconds.
        duration_s: f64,
        /// Units actually completed.
        completed_units: u64,
        /// Units abandoned across all crashes.
        abandoned_units: u64,
    },

    // ---- hecmix-core: streaming sweep ----
    /// Per-type dominance pruning shrank the configuration space before a
    /// sweep.
    SweepPruned {
        /// Points in the unpruned space.
        total_points: u64,
        /// Points surviving the pruning.
        kept_points: u64,
    },
    /// A streaming frontier sweep started.
    SweepStart {
        /// Points in the (possibly pruned) configuration space.
        points: u64,
        /// Worker threads (1 = sequential path).
        workers: usize,
    },
    /// One worker's totals for a sweep.
    SweepWorker {
        /// Worker index.
        worker: usize,
        /// Chunks claimed from the shared cursor.
        chunks: u64,
        /// Points scanned.
        scanned: u64,
        /// Points kept in the worker's partial frontier.
        kept: usize,
    },
    /// One pairwise merge of partial frontiers.
    SweepMerge {
        /// Entries on the left input.
        left: usize,
        /// Entries on the right input.
        right: usize,
        /// Entries surviving the merge.
        merged: usize,
    },
    /// A streaming frontier sweep finished.
    SweepEnd {
        /// Points scanned in total.
        points: u64,
        /// Frontier size.
        frontier: usize,
        /// Wall time of the sweep, seconds.
        wall_s: f64,
    },

    // ---- hecmix-queueing: dispatch ----
    /// One slot's provisioning decision in a diurnal dispatch run.
    DispatchDecision {
        /// Slot index within the day.
        slot: usize,
        /// Offered load for the slot, jobs/s.
        lambda: f64,
        /// Chosen configuration index in the menu.
        choice: usize,
        /// Slot energy, joules.
        energy_j: f64,
        /// Mean response time under the choice, seconds.
        response_s: f64,
        /// Whether the SLO was violated.
        violated: bool,
        /// True when chosen from the resilient (degraded-capacity) menu.
        resilient: bool,
    },

    // ---- hecmix-experiments ----
    /// A CSV cell held a non-finite value and was replaced by the `NA`
    /// sentinel.
    CsvNonFinite {
        /// Artifact (CSV stem) being written.
        artifact: String,
        /// Row index (0-based, excluding header).
        row: usize,
        /// Column name.
        column: String,
    },
    /// An artifact (CSV + manifest sidecar) was written.
    ArtifactWritten {
        /// Artifact (CSV stem).
        artifact: String,
        /// Data rows written.
        rows: usize,
    },

    // ---- self-check (hecmix-check) ----
    /// A differential oracle or metamorphic invariant found a disagreement
    /// between two computational paths that must agree.
    CheckViolation {
        /// Oracle or invariant name (e.g. `closed_form_vs_numeric`).
        check: String,
        /// Seed of the self-check run that found it.
        seed: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Summary of one self-check run: how many checks ran and how many
    /// violations they reported.
    CheckSummary {
        /// Seed of the self-check run.
        seed: u64,
        /// Number of oracle/invariant checks executed.
        checks: u64,
        /// Number of violations found across all checks.
        violations: u64,
        /// Wall time of the whole self-check run, seconds.
        wall_s: f64,
    },

    // ---- hecmix-serve: planning daemon ----
    /// A request was dequeued by a worker and its handler started.
    RequestStart {
        /// Request path (e.g. `/plan`).
        path: String,
        /// Queue depth observed when the request was dequeued.
        queue_depth: usize,
    },
    /// A request finished and its response was written.
    RequestDone {
        /// Request path.
        path: String,
        /// HTTP status code of the response.
        status: u16,
        /// Handler wall time, seconds.
        wall_s: f64,
        /// Whether the hot computation was served from the plan cache.
        cached: bool,
    },
    /// Admission control rejected a connection (bounded queue full).
    RequestRejected {
        /// Queue depth at rejection (== capacity).
        queue_depth: usize,
        /// `Retry-After` value sent with the 503, seconds.
        retry_after_s: u64,
    },
    /// A plan-cache lookup hit.
    CacheHit {
        /// Cache key (content hash of models + query shape).
        key: u64,
    },
    /// A plan-cache lookup missed and the value was computed.
    CacheMiss {
        /// Cache key.
        key: u64,
    },
    /// A plan-cache entry was evicted (LRU capacity pressure).
    CacheEvict {
        /// Evicted entry's key.
        key: u64,
    },
    /// A request joined an in-flight compute for the same cache key
    /// instead of starting its own (single-flight coalescing).
    RequestCoalesced {
        /// Request path.
        path: String,
        /// Cache key of the shared in-flight compute.
        key: u64,
    },
    /// `POST /reload` started re-computing the hot key set against the new
    /// model store before swapping it in.
    CacheWarmStart {
        /// Cached entries snapshotted for warming.
        keys: usize,
    },
    /// Background cache warming finished; the store and warmed entries
    /// were swapped in.
    CacheWarmDone {
        /// Cached entries snapshotted for warming.
        keys: usize,
        /// Entries successfully recomputed and reinserted.
        warmed: usize,
        /// Wall time of the warming pass, seconds.
        wall_s: f64,
    },
    /// One event-loop iteration woke with work to do (ready sources
    /// and/or mailbox messages). Quiet timeout ticks are not emitted.
    EventLoopWakeup {
        /// I/O thread index.
        io_thread: usize,
        /// Readiness events delivered by the poller.
        events: usize,
        /// Mailbox messages (new connections, compute responses).
        messages: usize,
    },

    // ---- hecmix-serve: replica fleet (gateway) ----
    /// The gateway's view of a replica flipped between healthy and
    /// unhealthy (active probe or passive forward failure).
    ReplicaHealthChange {
        /// Replica index in the fleet.
        replica: usize,
        /// Replica upstream address.
        addr: String,
        /// New health state.
        healthy: bool,
        /// What triggered the flip (e.g. `probe connect refused`).
        reason: String,
        /// Consecutive probe/forward outcomes that crossed the threshold.
        consecutive: u32,
    },
    /// A per-replica circuit breaker changed state
    /// (`closed` → `open` → `half_open` → `closed`).
    BreakerTransition {
        /// Replica index in the fleet.
        replica: usize,
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
        /// Consecutive failures recorded when the transition fired.
        failures: u32,
    },
    /// The gateway is retrying a forwarded request after a failed or
    /// shed upstream attempt.
    RequestRetry {
        /// Request path.
        path: String,
        /// Replica the retry is aimed at.
        replica: usize,
        /// Attempt number (1 = first retry).
        attempt: u32,
        /// Backoff slept before this attempt, milliseconds.
        backoff_ms: u64,
        /// Why the previous attempt failed.
        why: String,
    },
    /// The gateway fired a hedged duplicate because the primary attempt
    /// outlived the adaptive tail-latency delay.
    RequestHedged {
        /// Request path.
        path: String,
        /// Replica the primary attempt went to.
        primary: usize,
        /// Replica the hedge went to.
        hedge: usize,
        /// Hedge delay that expired, milliseconds.
        delay_ms: u64,
    },
    /// After a replica was marked down, its displaced hot keys were
    /// re-driven through the ring so the new owners' caches are warm.
    FailoverRewarm {
        /// Replica whose hash range was re-mapped.
        from_replica: usize,
        /// Displaced hot keys replayed.
        keys: usize,
        /// Keys successfully re-warmed on their new owners.
        rewarmed: usize,
        /// Wall time of the rewarm pass, seconds.
        wall_s: f64,
    },

    // ---- hecmix-queueing: request-level DES + tail planning ----
    /// One request-level discrete-event simulation completed
    /// (`hecmix_queueing::des::simulate` or `des::sojourn_quantile`).
    DesRun {
        /// Offered Poisson arrival rate, requests/second.
        pps: f64,
        /// Requests generated.
        requests: u64,
        /// Requests that completed.
        completed: u64,
        /// Requests dropped at full per-core queues.
        dropped: u64,
        /// Median sojourn time of completed requests, seconds (NaN when
        /// nothing completed).
        p50_s: f64,
        /// 99th-percentile sojourn time, seconds (NaN when nothing
        /// completed).
        p99_s: f64,
        /// Simulated horizon (last departure), seconds.
        duration_s: f64,
        /// RNG seed of the run.
        seed: u64,
    },
    /// A percentile-deadline plan was decided
    /// (`hecmix_queueing::dispatch::best_choice_tail`).
    TailPlan {
        /// Arrival rate planned for, jobs/second.
        lambda: f64,
        /// Target quantile (0.99 = p99).
        percentile: f64,
        /// Deadline on that quantile, seconds.
        deadline_s: f64,
        /// Menu entries considered.
        candidates: usize,
        /// Entries rejected by the analytical mean-response screen.
        screened_out: usize,
        /// DES runs spent (coarse + exact).
        des_runs: u64,
        /// Index of the chosen entry.
        chosen: usize,
        /// DES-measured percentile response of the chosen entry, seconds.
        tail_s: f64,
        /// True when the choice is a smallest-tail fallback that still
        /// misses the deadline.
        violated: bool,
    },

    // ---- hecmix-sched: online energy-aware task scheduler ----
    /// A job entered the scheduler's admission stage (replay or live
    /// `/submit`). Emitted for every job, admitted or not.
    JobSubmitted {
        /// Job id (trace order or daemon-assigned).
        job: u64,
        /// Workload name.
        workload: String,
        /// Job size in work units.
        size_units: f64,
        /// Arrival time on the scheduler clock, seconds.
        arrival_s: f64,
        /// Absolute completion deadline, seconds (infinite = none).
        deadline_s: f64,
        /// False when bounded admission rejected the job.
        admitted: bool,
    },
    /// A task was placed (initially or after a migration) on one node at
    /// one OPP by the α-score.
    TaskPlaced {
        /// Job id.
        job: u64,
        /// Node type index in the pool.
        type_idx: usize,
        /// Node index within its type.
        node_idx: u32,
        /// Option index into the per-(type, OPP) candidate list.
        opt: usize,
        /// Scheduled start, seconds.
        start_s: f64,
        /// Predicted finish, seconds.
        finish_s: f64,
        /// Work units this placement will retire.
        units: f64,
        /// Predicted active energy of the placement, joules.
        energy_j: f64,
    },
    /// A fault (crash/straggler/power-cap) forced a task off its
    /// reservation; committed chunks stay charged, the in-flight chunk is
    /// rolled back, and the remainder is re-placed.
    TaskMigrated {
        /// Job id.
        job: u64,
        /// Node type the task was driven from.
        from_type: usize,
        /// Node index the task was driven from.
        from_node: u32,
        /// Node type it re-placed onto.
        to_type: usize,
        /// Node index it re-placed onto.
        to_node: u32,
        /// Migration time on the scheduler clock, seconds.
        at_s: f64,
        /// What displaced it: `"crash"`, `"straggler"`, `"power_cap"`,
        /// `"nic_degrade"`.
        reason: &'static str,
        /// Work units of the rolled-back in-flight chunk (recomputed
        /// elsewhere; their energy charge was refunded).
        lost_units: f64,
    },
    /// A job finished after its deadline.
    DeadlineMiss {
        /// Job id.
        job: u64,
        /// The deadline it missed, seconds.
        deadline_s: f64,
        /// Actual finish, seconds.
        finish_s: f64,
    },
    /// Periodic scheduler heartbeat (virtual time in replay, wall time
    /// behind `/submit`).
    SchedTick {
        /// Scheduler clock, seconds.
        t_s: f64,
        /// Tasks executing at the tick.
        running: usize,
        /// Jobs admitted but not yet finished.
        outstanding: usize,
    },

    // ---- generic ----
    /// A named wall-clock span measured by [`ScopedTimer`].
    Timer {
        /// Span name.
        name: &'static str,
        /// Wall time, seconds.
        wall_s: f64,
    },
    /// A human-directed warning that is part of normal (degraded) operation.
    Warning {
        /// Message text.
        message: String,
    },
}

impl Event {
    /// The `"kind"` tag used in the JSON encoding.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CorePark { .. } => "core_park",
            Event::CoreResume { .. } => "core_resume",
            Event::MemContention { .. } => "mem_contention",
            Event::DvfsSwitch { .. } => "dvfs_switch",
            Event::OppChange { .. } => "opp_change",
            Event::DomainSleep { .. } => "domain_sleep",
            Event::DomainWake { .. } => "domain_wake",
            Event::FaultedRunStart { .. } => "faulted_run_start",
            Event::Crash { .. } => "crash",
            Event::HeartbeatTimeout { .. } => "heartbeat_timeout",
            Event::Redistribution { .. } => "redistribution",
            Event::RedistributionShare { .. } => "redistribution_share",
            Event::FaultedRunEnd { .. } => "faulted_run_end",
            Event::SweepPruned { .. } => "sweep_pruned",
            Event::SweepStart { .. } => "sweep_start",
            Event::SweepWorker { .. } => "sweep_worker",
            Event::SweepMerge { .. } => "sweep_merge",
            Event::SweepEnd { .. } => "sweep_end",
            Event::DispatchDecision { .. } => "dispatch_decision",
            Event::CsvNonFinite { .. } => "csv_non_finite",
            Event::ArtifactWritten { .. } => "artifact_written",
            Event::CheckViolation { .. } => "check_violation",
            Event::CheckSummary { .. } => "check_summary",
            Event::RequestStart { .. } => "request_start",
            Event::RequestDone { .. } => "request_done",
            Event::RequestRejected { .. } => "request_rejected",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CacheEvict { .. } => "cache_evict",
            Event::RequestCoalesced { .. } => "request_coalesced",
            Event::CacheWarmStart { .. } => "cache_warm_start",
            Event::CacheWarmDone { .. } => "cache_warm_done",
            Event::EventLoopWakeup { .. } => "eventloop_wakeup",
            Event::ReplicaHealthChange { .. } => "replica_health_change",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::RequestRetry { .. } => "request_retry",
            Event::RequestHedged { .. } => "request_hedged",
            Event::FailoverRewarm { .. } => "failover_rewarm",
            Event::DesRun { .. } => "des_run",
            Event::TailPlan { .. } => "tail_plan",
            Event::JobSubmitted { .. } => "job_submitted",
            Event::TaskPlaced { .. } => "task_placed",
            Event::TaskMigrated { .. } => "task_migrated",
            Event::DeadlineMiss { .. } => "deadline_miss",
            Event::SchedTick { .. } => "sched_tick",
            Event::Timer { .. } => "timer",
            Event::Warning { .. } => "warning",
        }
    }

    /// Encode as a single-line JSON object (the JSONL record format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = json::Object::new();
        o.str("kind", self.kind());
        match self {
            Event::CorePark {
                seed,
                core,
                t_s,
                reason,
            } => {
                o.u64("seed", *seed);
                o.u64("core", u64::from(*core));
                o.f64("t_s", *t_s);
                o.str("reason", reason);
            }
            Event::CoreResume { seed, core, t_s } => {
                o.u64("seed", *seed);
                o.u64("core", u64::from(*core));
                o.f64("t_s", *t_s);
            }
            Event::MemContention {
                seed,
                t_s,
                contending,
                stall_ns,
            } => {
                o.u64("seed", *seed);
                o.f64("t_s", *t_s);
                o.u64("contending", u64::from(*contending));
                o.u64("stall_ns", *stall_ns);
            }
            Event::DvfsSwitch {
                seed,
                t_s,
                from_ghz,
                to_ghz,
            } => {
                o.u64("seed", *seed);
                o.f64("t_s", *t_s);
                o.f64("from_ghz", *from_ghz);
                o.f64("to_ghz", *to_ghz);
            }
            Event::OppChange {
                seed,
                t_s,
                from_opp,
                to_opp,
                to_ghz,
            } => {
                o.u64("seed", *seed);
                o.f64("t_s", *t_s);
                o.u64("from_opp", u64::from(*from_opp));
                o.u64("to_opp", u64::from(*to_opp));
                o.f64("to_ghz", *to_ghz);
            }
            Event::DomainSleep {
                seed,
                t_s,
                domain,
                sleep_w,
            } => {
                o.u64("seed", *seed);
                o.f64("t_s", *t_s);
                o.str("domain", domain);
                o.f64("sleep_w", *sleep_w);
            }
            Event::DomainWake {
                seed,
                t_s,
                domain,
                slept_s,
            } => {
                o.u64("seed", *seed);
                o.f64("t_s", *t_s);
                o.str("domain", domain);
                o.f64("slept_s", *slept_s);
            }
            Event::FaultedRunStart {
                total_units,
                crashes,
            } => {
                o.u64("total_units", *total_units);
                o.u64("crashes", *crashes as u64);
            }
            Event::Crash {
                type_idx,
                node_idx,
                crash_s,
                leftover_units,
                lost_in_flight_units,
            } => {
                o.u64("type_idx", *type_idx as u64);
                o.u64("node_idx", *node_idx as u64);
                o.f64("crash_s", *crash_s);
                o.u64("leftover_units", *leftover_units);
                o.u64("lost_in_flight_units", *lost_in_flight_units);
            }
            Event::HeartbeatTimeout {
                type_idx,
                node_idx,
                detected_s,
            } => {
                o.u64("type_idx", *type_idx as u64);
                o.u64("node_idx", *node_idx as u64);
                o.f64("detected_s", *detected_s);
            }
            Event::Redistribution {
                type_idx,
                node_idx,
                redistributed_s,
                moved_units,
                abandoned_units,
            } => {
                o.u64("type_idx", *type_idx as u64);
                o.u64("node_idx", *node_idx as u64);
                o.f64("redistributed_s", *redistributed_s);
                o.u64("moved_units", *moved_units);
                o.u64("abandoned_units", *abandoned_units);
            }
            Event::RedistributionShare {
                to_type,
                to_node,
                units,
            } => {
                o.u64("to_type", *to_type as u64);
                o.u64("to_node", *to_node as u64);
                o.u64("units", *units);
            }
            Event::FaultedRunEnd {
                duration_s,
                completed_units,
                abandoned_units,
            } => {
                o.f64("duration_s", *duration_s);
                o.u64("completed_units", *completed_units);
                o.u64("abandoned_units", *abandoned_units);
            }
            Event::SweepPruned {
                total_points,
                kept_points,
            } => {
                o.u64("total_points", *total_points);
                o.u64("kept_points", *kept_points);
            }
            Event::SweepStart { points, workers } => {
                o.u64("points", *points);
                o.u64("workers", *workers as u64);
            }
            Event::SweepWorker {
                worker,
                chunks,
                scanned,
                kept,
            } => {
                o.u64("worker", *worker as u64);
                o.u64("chunks", *chunks);
                o.u64("scanned", *scanned);
                o.u64("kept", *kept as u64);
            }
            Event::SweepMerge {
                left,
                right,
                merged,
            } => {
                o.u64("left", *left as u64);
                o.u64("right", *right as u64);
                o.u64("merged", *merged as u64);
            }
            Event::SweepEnd {
                points,
                frontier,
                wall_s,
            } => {
                o.u64("points", *points);
                o.u64("frontier", *frontier as u64);
                o.f64("wall_s", *wall_s);
            }
            Event::DispatchDecision {
                slot,
                lambda,
                choice,
                energy_j,
                response_s,
                violated,
                resilient,
            } => {
                o.u64("slot", *slot as u64);
                o.f64("lambda", *lambda);
                o.u64("choice", *choice as u64);
                o.f64("energy_j", *energy_j);
                o.f64("response_s", *response_s);
                o.bool("violated", *violated);
                o.bool("resilient", *resilient);
            }
            Event::CsvNonFinite {
                artifact,
                row,
                column,
            } => {
                o.str("artifact", artifact);
                o.u64("row", *row as u64);
                o.str("column", column);
            }
            Event::ArtifactWritten { artifact, rows } => {
                o.str("artifact", artifact);
                o.u64("rows", *rows as u64);
            }
            Event::CheckViolation {
                check,
                seed,
                detail,
            } => {
                o.str("check", check);
                o.u64("seed", *seed);
                o.str("detail", detail);
            }
            Event::CheckSummary {
                seed,
                checks,
                violations,
                wall_s,
            } => {
                o.u64("seed", *seed);
                o.u64("checks", *checks);
                o.u64("violations", *violations);
                o.f64("wall_s", *wall_s);
            }
            Event::RequestStart { path, queue_depth } => {
                o.str("path", path);
                o.u64("queue_depth", *queue_depth as u64);
            }
            Event::RequestDone {
                path,
                status,
                wall_s,
                cached,
            } => {
                o.str("path", path);
                o.u64("status", u64::from(*status));
                o.f64("wall_s", *wall_s);
                o.bool("cached", *cached);
            }
            Event::RequestRejected {
                queue_depth,
                retry_after_s,
            } => {
                o.u64("queue_depth", *queue_depth as u64);
                o.u64("retry_after_s", *retry_after_s);
            }
            Event::CacheHit { key } => {
                o.u64("key", *key);
            }
            Event::CacheMiss { key } => {
                o.u64("key", *key);
            }
            Event::CacheEvict { key } => {
                o.u64("key", *key);
            }
            Event::RequestCoalesced { path, key } => {
                o.str("path", path);
                o.u64("key", *key);
            }
            Event::CacheWarmStart { keys } => {
                o.u64("keys", *keys as u64);
            }
            Event::CacheWarmDone {
                keys,
                warmed,
                wall_s,
            } => {
                o.u64("keys", *keys as u64);
                o.u64("warmed", *warmed as u64);
                o.f64("wall_s", *wall_s);
            }
            Event::EventLoopWakeup {
                io_thread,
                events,
                messages,
            } => {
                o.u64("io_thread", *io_thread as u64);
                o.u64("events", *events as u64);
                o.u64("messages", *messages as u64);
            }
            Event::ReplicaHealthChange {
                replica,
                addr,
                healthy,
                reason,
                consecutive,
            } => {
                o.u64("replica", *replica as u64);
                o.str("addr", addr);
                o.bool("healthy", *healthy);
                o.str("reason", reason);
                o.u64("consecutive", u64::from(*consecutive));
            }
            Event::BreakerTransition {
                replica,
                from,
                to,
                failures,
            } => {
                o.u64("replica", *replica as u64);
                o.str("from", from);
                o.str("to", to);
                o.u64("failures", u64::from(*failures));
            }
            Event::RequestRetry {
                path,
                replica,
                attempt,
                backoff_ms,
                why,
            } => {
                o.str("path", path);
                o.u64("replica", *replica as u64);
                o.u64("attempt", u64::from(*attempt));
                o.u64("backoff_ms", *backoff_ms);
                o.str("why", why);
            }
            Event::RequestHedged {
                path,
                primary,
                hedge,
                delay_ms,
            } => {
                o.str("path", path);
                o.u64("primary", *primary as u64);
                o.u64("hedge", *hedge as u64);
                o.u64("delay_ms", *delay_ms);
            }
            Event::FailoverRewarm {
                from_replica,
                keys,
                rewarmed,
                wall_s,
            } => {
                o.u64("from_replica", *from_replica as u64);
                o.u64("keys", *keys as u64);
                o.u64("rewarmed", *rewarmed as u64);
                o.f64("wall_s", *wall_s);
            }
            Event::DesRun {
                pps,
                requests,
                completed,
                dropped,
                p50_s,
                p99_s,
                duration_s,
                seed,
            } => {
                o.f64("pps", *pps);
                o.u64("requests", *requests);
                o.u64("completed", *completed);
                o.u64("dropped", *dropped);
                o.f64("p50_s", *p50_s);
                o.f64("p99_s", *p99_s);
                o.f64("duration_s", *duration_s);
                o.u64("seed", *seed);
            }
            Event::TailPlan {
                lambda,
                percentile,
                deadline_s,
                candidates,
                screened_out,
                des_runs,
                chosen,
                tail_s,
                violated,
            } => {
                o.f64("lambda", *lambda);
                o.f64("percentile", *percentile);
                o.f64("deadline_s", *deadline_s);
                o.u64("candidates", *candidates as u64);
                o.u64("screened_out", *screened_out as u64);
                o.u64("des_runs", *des_runs);
                o.u64("chosen", *chosen as u64);
                o.f64("tail_s", *tail_s);
                o.bool("violated", *violated);
            }
            Event::JobSubmitted {
                job,
                workload,
                size_units,
                arrival_s,
                deadline_s,
                admitted,
            } => {
                o.u64("job", *job);
                o.str("workload", workload);
                o.f64("size_units", *size_units);
                o.f64("arrival_s", *arrival_s);
                o.f64("deadline_s", *deadline_s);
                o.bool("admitted", *admitted);
            }
            Event::TaskPlaced {
                job,
                type_idx,
                node_idx,
                opt,
                start_s,
                finish_s,
                units,
                energy_j,
            } => {
                o.u64("job", *job);
                o.u64("type_idx", *type_idx as u64);
                o.u64("node_idx", u64::from(*node_idx));
                o.u64("opt", *opt as u64);
                o.f64("start_s", *start_s);
                o.f64("finish_s", *finish_s);
                o.f64("units", *units);
                o.f64("energy_j", *energy_j);
            }
            Event::TaskMigrated {
                job,
                from_type,
                from_node,
                to_type,
                to_node,
                at_s,
                reason,
                lost_units,
            } => {
                o.u64("job", *job);
                o.u64("from_type", *from_type as u64);
                o.u64("from_node", u64::from(*from_node));
                o.u64("to_type", *to_type as u64);
                o.u64("to_node", u64::from(*to_node));
                o.f64("at_s", *at_s);
                o.str("reason", reason);
                o.f64("lost_units", *lost_units);
            }
            Event::DeadlineMiss {
                job,
                deadline_s,
                finish_s,
            } => {
                o.u64("job", *job);
                o.f64("deadline_s", *deadline_s);
                o.f64("finish_s", *finish_s);
            }
            Event::SchedTick {
                t_s,
                running,
                outstanding,
            } => {
                o.f64("t_s", *t_s);
                o.u64("running", *running as u64);
                o.u64("outstanding", *outstanding as u64);
            }
            Event::Timer { name, wall_s } => {
                o.str("name", name);
                o.f64("wall_s", *wall_s);
            }
            Event::Warning { message } => {
                o.str("message", message);
            }
        }
        o.finish()
    }
}

/// Destination for [`Event`]s. Implementations must be `Send + Sync`: the
/// sweep engine records from scoped worker threads concurrently.
pub trait Sink: Send + Sync {
    /// Record one event. Must be cheap enough to call from hot-ish paths;
    /// the engine only calls it when a sink is installed.
    fn record(&self, event: &Event);

    /// Flush any buffered output. Called by [`uninstall`] and available to
    /// callers that need durable output mid-run.
    fn flush(&self) {}
}

/// Sink that discards everything. Installing it still flips the enabled
/// flag — useful for measuring instrumentation overhead in benches.
#[derive(Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Sink that appends one JSON object per line to a file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing JSONL to it.
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        // Format the complete line (newline included) *before* taking the
        // lock, then emit it as a single `write_all`. Formatting inside a
        // `writeln!` would issue several smaller writes; if one of them
        // errored or the process died mid-call, a torn partial line could
        // reach the file. One buffered `write_all` of a finished line keeps
        // every record atomic and shrinks the critical section to a memcpy
        // — with many server workers recording concurrently, the lock is
        // held for nanoseconds, not for the formatting.
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Telemetry is best-effort: an I/O error here must not abort the run.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Sink that keeps the most recent `capacity` events in memory. Intended
/// for tests asserting on emitted telemetry.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (older events are dropped).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink capacity must be positive");
        Self {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("ring sink poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all buffered events.
    pub fn clear(&self) {
        self.buf.lock().expect("ring sink poisoned").clear();
    }
}

impl Sink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.lock().expect("ring sink poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Fast-path gate: `false` means [`emit`]'s closure is never run. Relaxed
/// ordering is deliberate — a stale read merely delays the first events of
/// a freshly installed sink by one check, it cannot corrupt anything.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Whether a sink is currently installed. Inlined single relaxed atomic
/// load — this is the only cost instrumentation adds when tracing is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `sink` as the process-global event destination, replacing any
/// previous sink (the replaced sink is flushed).
pub fn install(sink: Arc<dyn Sink>) {
    let mut slot = SINK.write().expect("sink registry poisoned");
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove and flush the installed sink, returning it (if any). Telemetry
/// is disabled until the next [`install`].
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().expect("sink registry poisoned");
    ENABLED.store(false, Ordering::Relaxed);
    let old = slot.take();
    if let Some(ref sink) = old {
        sink.flush();
    }
    old
}

/// Emit an event. `build` runs only when a sink is installed, so callers
/// may close over hot-loop state freely: the disabled cost is the
/// [`enabled`] branch, nothing else.
#[inline]
pub fn emit<F: FnOnce() -> Event>(build: F) {
    if !enabled() {
        return;
    }
    emit_cold(build());
}

#[cold]
fn emit_cold(event: Event) {
    if let Some(sink) = SINK.read().expect("sink registry poisoned").as_ref() {
        sink.record(&event);
    }
}

/// Wall-clock span that emits [`Event::Timer`] on drop. The [`Instant`] is
/// only captured when telemetry is enabled; a disabled timer is a `None`
/// and drops for free.
#[must_use = "a scoped timer measures until it is dropped"]
pub struct ScopedTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Start a span named `name` (no-op when telemetry is disabled).
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            start: enabled().then(Instant::now),
        }
    }

    /// Elapsed seconds so far, if the timer is live.
    #[must_use]
    pub fn elapsed_s(&self) -> Option<f64> {
        self.start.map(|s| s.elapsed().as_secs_f64())
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let wall_s = start.elapsed().as_secs_f64();
            emit(|| Event::Timer {
                name: self.name,
                wall_s,
            });
        }
    }
}

// NOTE on testing: the registry is process-global, so tests that install a
// sink live in dedicated integration-test binaries (one installing test per
// process) rather than in this module, where the harness would interleave
// them with unrelated unit tests. Pure-value tests are fine here.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_single_line_and_tagged() {
        let e = Event::Crash {
            type_idx: 1,
            node_idx: 3,
            crash_s: 12.5,
            leftover_units: 400,
            lost_in_flight_units: 7,
        };
        let j = e.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"kind\":\"crash\""), "{j}");
        assert!(j.contains("\"leftover_units\":400"), "{j}");
    }

    #[test]
    fn dvfs_domain_events_encode_their_fields() {
        let e = Event::OppChange {
            seed: 7,
            t_s: 1.25,
            from_opp: 0,
            to_opp: 2,
            to_ghz: 1.4,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"opp_change\""));
        assert!(j.contains("\"from_opp\":0"));
        assert!(j.contains("\"to_opp\":2"));
        let e = Event::DomainSleep {
            seed: 7,
            t_s: 2.0,
            domain: "cluster0",
            sleep_w: 0.25,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"domain_sleep\""));
        assert!(j.contains("\"domain\":\"cluster0\""));
        let e = Event::DomainWake {
            seed: 7,
            t_s: 3.0,
            domain: "cluster0",
            slept_s: 1.0,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"domain_wake\""));
        assert!(j.contains("\"slept_s\":1"));
    }

    #[test]
    fn every_variant_kind_is_unique() {
        let variants = [
            Event::CorePark {
                seed: 0,
                core: 0,
                t_s: 0.0,
                reason: "starved",
            },
            Event::CoreResume {
                seed: 0,
                core: 0,
                t_s: 0.0,
            },
            Event::MemContention {
                seed: 0,
                t_s: 0.0,
                contending: 1,
                stall_ns: 0,
            },
            Event::DvfsSwitch {
                seed: 0,
                t_s: 0.0,
                from_ghz: 1.0,
                to_ghz: 2.0,
            },
            Event::OppChange {
                seed: 0,
                t_s: 0.0,
                from_opp: 0,
                to_opp: 1,
                to_ghz: 2.0,
            },
            Event::DomainSleep {
                seed: 0,
                t_s: 0.0,
                domain: "cluster0",
                sleep_w: 0.2,
            },
            Event::DomainWake {
                seed: 0,
                t_s: 0.0,
                domain: "cluster0",
                slept_s: 0.5,
            },
            Event::FaultedRunStart {
                total_units: 0,
                crashes: 0,
            },
            Event::Crash {
                type_idx: 0,
                node_idx: 0,
                crash_s: 0.0,
                leftover_units: 0,
                lost_in_flight_units: 0,
            },
            Event::HeartbeatTimeout {
                type_idx: 0,
                node_idx: 0,
                detected_s: 0.0,
            },
            Event::Redistribution {
                type_idx: 0,
                node_idx: 0,
                redistributed_s: 0.0,
                moved_units: 0,
                abandoned_units: 0,
            },
            Event::RedistributionShare {
                to_type: 0,
                to_node: 0,
                units: 0,
            },
            Event::FaultedRunEnd {
                duration_s: 0.0,
                completed_units: 0,
                abandoned_units: 0,
            },
            Event::SweepPruned {
                total_points: 0,
                kept_points: 0,
            },
            Event::SweepStart {
                points: 0,
                workers: 1,
            },
            Event::SweepWorker {
                worker: 0,
                chunks: 0,
                scanned: 0,
                kept: 0,
            },
            Event::SweepMerge {
                left: 0,
                right: 0,
                merged: 0,
            },
            Event::SweepEnd {
                points: 0,
                frontier: 0,
                wall_s: 0.0,
            },
            Event::DispatchDecision {
                slot: 0,
                lambda: 1.0,
                choice: 0,
                energy_j: 0.0,
                response_s: 0.0,
                violated: false,
                resilient: false,
            },
            Event::CsvNonFinite {
                artifact: String::new(),
                row: 0,
                column: String::new(),
            },
            Event::ArtifactWritten {
                artifact: String::new(),
                rows: 0,
            },
            Event::CheckViolation {
                check: String::new(),
                seed: 0,
                detail: String::new(),
            },
            Event::CheckSummary {
                seed: 0,
                checks: 0,
                violations: 0,
                wall_s: 0.0,
            },
            Event::RequestStart {
                path: String::new(),
                queue_depth: 0,
            },
            Event::RequestDone {
                path: String::new(),
                status: 200,
                wall_s: 0.0,
                cached: false,
            },
            Event::RequestRejected {
                queue_depth: 0,
                retry_after_s: 1,
            },
            Event::CacheHit { key: 0 },
            Event::CacheMiss { key: 0 },
            Event::CacheEvict { key: 0 },
            Event::RequestCoalesced {
                path: String::new(),
                key: 0,
            },
            Event::CacheWarmStart { keys: 0 },
            Event::CacheWarmDone {
                keys: 0,
                warmed: 0,
                wall_s: 0.0,
            },
            Event::EventLoopWakeup {
                io_thread: 0,
                events: 0,
                messages: 0,
            },
            Event::ReplicaHealthChange {
                replica: 0,
                addr: String::new(),
                healthy: false,
                reason: String::new(),
                consecutive: 0,
            },
            Event::BreakerTransition {
                replica: 0,
                from: "closed",
                to: "open",
                failures: 0,
            },
            Event::RequestRetry {
                path: String::new(),
                replica: 0,
                attempt: 1,
                backoff_ms: 0,
                why: String::new(),
            },
            Event::RequestHedged {
                path: String::new(),
                primary: 0,
                hedge: 1,
                delay_ms: 0,
            },
            Event::FailoverRewarm {
                from_replica: 0,
                keys: 0,
                rewarmed: 0,
                wall_s: 0.0,
            },
            Event::DesRun {
                pps: 0.0,
                requests: 0,
                completed: 0,
                dropped: 0,
                p50_s: 0.0,
                p99_s: 0.0,
                duration_s: 0.0,
                seed: 0,
            },
            Event::TailPlan {
                lambda: 0.0,
                percentile: 0.0,
                deadline_s: 0.0,
                candidates: 0,
                screened_out: 0,
                des_runs: 0,
                chosen: 0,
                tail_s: 0.0,
                violated: false,
            },
            Event::JobSubmitted {
                job: 0,
                workload: String::new(),
                size_units: 0.0,
                arrival_s: 0.0,
                deadline_s: 0.0,
                admitted: true,
            },
            Event::TaskPlaced {
                job: 0,
                type_idx: 0,
                node_idx: 0,
                opt: 0,
                start_s: 0.0,
                finish_s: 0.0,
                units: 0.0,
                energy_j: 0.0,
            },
            Event::TaskMigrated {
                job: 0,
                from_type: 0,
                from_node: 0,
                to_type: 0,
                to_node: 0,
                at_s: 0.0,
                reason: "crash",
                lost_units: 0.0,
            },
            Event::DeadlineMiss {
                job: 0,
                deadline_s: 0.0,
                finish_s: 0.0,
            },
            Event::SchedTick {
                t_s: 0.0,
                running: 0,
                outstanding: 0,
            },
            Event::Timer {
                name: "x",
                wall_s: 0.0,
            },
            Event::Warning {
                message: String::new(),
            },
        ];
        let mut kinds: Vec<&str> = variants.iter().map(Event::kind).collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "duplicate kind tags");
    }

    #[test]
    fn ring_sink_drops_oldest() {
        let ring = RingSink::new(2);
        for i in 0..3u64 {
            ring.record(&Event::Timer {
                name: "t",
                wall_s: i as f64,
            });
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0],
            Event::Timer {
                name: "t",
                wall_s: 1.0
            }
        );
    }

    #[test]
    fn disabled_emit_never_builds() {
        // No sink is installed in this process; the closure must not run.
        assert!(!enabled());
        emit(|| unreachable!("event built while telemetry disabled"));
        let t = ScopedTimer::start("idle");
        assert!(t.elapsed_s().is_none());
    }
}
