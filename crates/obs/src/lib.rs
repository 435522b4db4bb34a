//! Structured observability for the hecmix stack.
//!
//! The paper's argument rests on *measured* quantities — per-phase cycle
//! counts, power-state residency, model-vs-measurement error bands — yet
//! without a telemetry layer the discrete-event engine, the streaming sweep,
//! and the diurnal dispatcher all compute invisibly. This crate provides:
//!
//! - [`Event`]: a closed schema of structured events emitted by the
//!   simulator (phase transitions, memory contention, DVFS switches, fault
//!   lifecycle), the sweep engine (space sizes, frontier sizes, timers), the
//!   dispatcher (per-slot decisions), and the experiment runner (CSV
//!   warnings, artifact manifests). Each variant is declared once, in the
//!   `events!` table, which also yields the machine-readable
//!   [`Event::SCHEMA`] that [`Event::check_json`] validates records against.
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

/// The JSON type an [`Event`] field encodes to, as listed in
/// [`Event::SCHEMA`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A non-negative integer (`u16`, `u32`, `u64` or `usize` in Rust).
    U64,
    /// A number; NaN and ±∞ encode as `null`.
    F64,
    /// `true` or `false`.
    Bool,
    /// A string (`&'static str` or `String` in Rust).
    Str,
}

/// A Rust type an [`Event`] field may have: its JSON type and its encoder.
trait Field {
    const TYPE: FieldType;
    fn put(&self, o: &mut json::Object, key: &str);
}

macro_rules! fields {
    ($($ty:ty => $json:ident, |$o:ident, $k:ident, $v:ident| $put:expr;)*) => {$(
        impl Field for $ty {
            const TYPE: FieldType = FieldType::$json;
            fn put(&self, $o: &mut json::Object, $k: &str) {
                let $v = self;
                $put;
            }
        }
    )*};
}

fields! {
    u16 => U64, |o, k, v| o.u64(k, u64::from(*v));
    u32 => U64, |o, k, v| o.u64(k, u64::from(*v));
    u64 => U64, |o, k, v| o.u64(k, *v);
    usize => U64, |o, k, v| o.u64(k, *v as u64);
    f64 => F64, |o, k, v| o.f64(k, *v);
    bool => Bool, |o, k, v| o.bool(k, *v);
    &'static str => Str, |o, k, v| o.str(k, v);
    String => Str, |o, k, v| o.str(k, v);
}

/// The one definition of the event schema. Each `Variant = "kind" { field:
/// Type, … }` entry of the table below yields the [`Event`] variant, its
/// [`Event::kind`] tag, its [`Event::to_json`] encoding (`"kind"` first,
/// then the fields in declaration order) and its [`Event::SCHEMA`] row.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
        },
    )*) => {
        /// One structured telemetry event. Variants group by emitting
        /// subsystem; every variant serializes to a flat JSON object with a
        /// `"kind"` tag (see [`Event::to_json`] and [`Event::SCHEMA`], the
        /// schema documented in DESIGN.md §9).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl Event {
            /// Every kind with its fields' names and JSON types, in the
            /// order [`Event::to_json`] writes them after `"kind"`.
            pub const SCHEMA: &'static [(&'static str, &'static [(&'static str, FieldType)])] =
                &[$(($kind, &[$((stringify!($field), <$ty as Field>::TYPE),)*]),)*];

            /// The `"kind"` tag used in the JSON encoding.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// Encode as a single-line JSON object (the JSONL record format).
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut o = json::Object::new();
                o.str("kind", self.kind());
                match self {
                    $(Event::$variant { $($field,)* } => {
                        $(Field::put($field, &mut o, stringify!($field));)*
                    })*
                }
                o.finish()
            }
        }
    };
}

events! {
    // ---- hecmix-sim: node engine ----
    /// A core parked (left the active set) or a node-level phase stalled.
    /// `reason` is one of `"nic-backpressure"`, `"starved"`.
    CorePark = "core_park" {
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
    CoreResume = "core_resume" {
        /// Node RNG seed.
        seed: u64,
        /// Core index that resumed.
        core: u32,
        /// Simulated time, seconds.
        t_s: f64,
    },
    /// Memory-contention stall accounting for one executed chunk.
    MemContention = "mem_contention" {
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
    DvfsSwitch = "dvfs_switch" {
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
    OppChange = "opp_change" {
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

    // ---- hecmix-sim: fault lifecycle ----
    /// A cluster run under a non-empty fault schedule started.
    FaultedRunStart = "faulted_run_start" {
        /// Total work units across the cluster.
        total_units: u64,
        /// Number of scheduled crashes.
        crashes: usize,
    },
    /// A node crashed.
    Crash = "crash" {
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
    HeartbeatTimeout = "heartbeat_timeout" {
        /// Crashed node type index.
        type_idx: usize,
        /// Crashed node index within its type.
        node_idx: usize,
        /// Simulated detection time, seconds.
        detected_s: f64,
    },
    /// Leftover work was redistributed (or abandoned) after detection.
    Redistribution = "redistribution" {
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
    RedistributionShare = "redistribution_share" {
        /// Receiving node type index.
        to_type: usize,
        /// Receiving node index within its type.
        to_node: usize,
        /// Units received.
        units: u64,
    },
    /// A faulted cluster run completed.
    FaultedRunEnd = "faulted_run_end" {
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
    SweepPruned = "sweep_pruned" {
        /// Points in the unpruned space.
        total_points: u64,
        /// Points surviving the pruning.
        kept_points: u64,
    },
    /// A streaming frontier sweep started.
    SweepStart = "sweep_start" {
        /// Points in the (possibly pruned) configuration space.
        points: u64,
    },
    /// A streaming frontier sweep finished.
    SweepEnd = "sweep_end" {
        /// Points in the swept table. Folds skip dominated points without
        /// visiting them, so this is not a count of points visited.
        points: u64,
        /// Frontier size.
        frontier: usize,
        /// Wall time of the sweep, seconds.
        wall_s: f64,
    },

    // ---- hecmix-queueing: dispatch ----
    /// One slot's provisioning decision in a diurnal dispatch run.
    DispatchDecision = "dispatch_decision" {
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
    CsvNonFinite = "csv_non_finite" {
        /// Artifact (CSV stem) being written.
        artifact: String,
        /// Row index (0-based, excluding header).
        row: usize,
        /// Column name.
        column: String,
    },
    /// An artifact (CSV + manifest sidecar) was written.
    ArtifactWritten = "artifact_written" {
        /// Artifact (CSV stem).
        artifact: String,
        /// Data rows written.
        rows: usize,
    },

    // ---- self-check (hecmix-check) ----
    /// A differential oracle or metamorphic invariant found a disagreement
    /// between two computational paths that must agree.
    CheckViolation = "check_violation" {
        /// Oracle or invariant name (e.g. `closed_form_vs_numeric`).
        check: String,
        /// Seed of the self-check run that found it.
        seed: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Summary of one self-check run: how many checks ran and how many
    /// violations they reported.
    CheckSummary = "check_summary" {
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
    RequestStart = "request_start" {
        /// Request path (e.g. `/plan`).
        path: String,
        /// Queue depth observed when the request was dequeued.
        queue_depth: usize,
    },
    /// A request finished and its response was written.
    RequestDone = "request_done" {
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
    RequestRejected = "request_rejected" {
        /// Queue depth at rejection (== capacity).
        queue_depth: usize,
        /// `Retry-After` value sent with the 503, seconds.
        retry_after_s: u64,
    },
    /// A plan-cache lookup hit.
    CacheHit = "cache_hit" {
        /// Cache key (content hash of models + query shape).
        key: u64,
    },
    /// A plan-cache lookup missed and the value was computed.
    CacheMiss = "cache_miss" {
        /// Cache key.
        key: u64,
    },
    /// A plan-cache entry was evicted (LRU capacity pressure).
    CacheEvict = "cache_evict" {
        /// Evicted entry's key.
        key: u64,
    },
    /// A request joined an in-flight compute for the same cache key
    /// instead of starting its own (single-flight coalescing).
    RequestCoalesced = "request_coalesced" {
        /// Request path.
        path: String,
        /// Cache key of the shared in-flight compute.
        key: u64,
    },
    /// `POST /reload` started re-computing the hot key set against the new
    /// model store before swapping it in.
    CacheWarmStart = "cache_warm_start" {
        /// Cached entries snapshotted for warming.
        keys: usize,
    },
    /// Background cache warming finished; the store and warmed entries
    /// were swapped in.
    CacheWarmDone = "cache_warm_done" {
        /// Cached entries snapshotted for warming.
        keys: usize,
        /// Entries successfully recomputed and reinserted.
        warmed: usize,
        /// Wall time of the warming pass, seconds.
        wall_s: f64,
    },
    /// One event-loop iteration woke with work to do (ready sources
    /// and/or mailbox messages). Quiet timeout ticks are not emitted.
    EventLoopWakeup = "eventloop_wakeup" {
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
    ReplicaHealthChange = "replica_health_change" {
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
    BreakerTransition = "breaker_transition" {
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
    RequestRetry = "request_retry" {
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
    RequestHedged = "request_hedged" {
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
    FailoverRewarm = "failover_rewarm" {
        /// Replica whose hash range was re-mapped.
        from_replica: usize,
        /// Displaced hot keys replayed.
        keys: usize,
        /// Keys successfully re-warmed on their new owners.
        rewarmed: usize,
        /// Wall time of the rewarm pass, seconds.
        wall_s: f64,
    },

    // ---- request-level DES (hecmix-check) + tail planning (hecmix-queueing) ----
    /// One request-level discrete-event simulation completed
    /// (`hecmix_check::reference::des::simulate`).
    DesRun = "des_run" {
        /// Offered Poisson arrival rate, requests/second.
        pps: f64,
        /// Requests generated; every one is served.
        requests: u64,
        /// Median sojourn time, seconds.
        p50_s: f64,
        /// 99th-percentile sojourn time, seconds.
        p99_s: f64,
        /// Simulated horizon (last departure), seconds.
        duration_s: f64,
        /// RNG seed of the run.
        seed: u64,
    },
    /// A percentile-deadline plan was decided
    /// (`hecmix_queueing::dispatch::best_choice_tail`).
    TailPlan = "tail_plan" {
        /// Arrival rate planned for, jobs/second.
        lambda: f64,
        /// Target quantile (0.99 = p99).
        percentile: f64,
        /// Deadline on that quantile, seconds.
        deadline_s: f64,
        /// Menu entries considered.
        candidates: usize,
        /// Stable entries whose service time alone exceeds the deadline.
        screened_out: usize,
        /// DES runs spent: always 0, since the planner scores entries in
        /// closed form.
        des_runs: u64,
        /// Index of the chosen entry.
        chosen: usize,
        /// Exact M/D/1 percentile response of the chosen entry, seconds.
        tail_s: f64,
        /// True when the choice is a smallest-tail fallback that still
        /// misses the deadline.
        violated: bool,
    },

    // ---- hecmix-sched: online energy-aware task scheduler ----
    /// A job entered the scheduler's admission stage (replay or live
    /// `/submit`). Emitted for every job, admitted or not.
    JobSubmitted = "job_submitted" {
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
    TaskPlaced = "task_placed" {
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
    TaskMigrated = "task_migrated" {
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
    DeadlineMiss = "deadline_miss" {
        /// Job id.
        job: u64,
        /// The deadline it missed, seconds.
        deadline_s: f64,
        /// Actual finish, seconds.
        finish_s: f64,
    },
    /// Periodic scheduler heartbeat (virtual time in replay, wall time
    /// behind `/submit`).
    SchedTick = "sched_tick" {
        /// Scheduler clock, seconds.
        t_s: f64,
        /// Tasks executing at the tick.
        running: usize,
        /// Jobs admitted but not yet finished.
        outstanding: usize,
    },

    // ---- generic ----
    /// A named wall-clock span measured by [`ScopedTimer`].
    Timer = "timer" {
        /// Span name.
        name: &'static str,
        /// Wall time, seconds.
        wall_s: f64,
    },
    /// A human-directed warning that is part of normal (degraded) operation.
    Warning = "warning" {
        /// Message text.
        message: String,
    },
}

impl Event {
    /// Check one parsed JSONL record against [`Event::SCHEMA`] and return
    /// its kind. The kind must be known; the keys must be exactly `"kind"`
    /// and then the kind's fields, in schema order; and each value must have
    /// its field's JSON type: an exact integer ([`json::Value::as_u64`]) for
    /// [`FieldType::U64`], a number for [`FieldType::F64`], a boolean or a
    /// string for the other two.
    ///
    /// Each `(kind, field)` pair in `loose` is checked one step weaker, for
    /// values the encoder writes but a strict reader cannot take back: a
    /// `U64` field may be any number (a 64-bit hash at or above 2⁵³ does not
    /// parse exactly), and an `F64` field may be `null` (a non-finite value).
    ///
    /// # Errors
    /// Describes the first way the record departs from the schema.
    pub fn check_json(
        record: &json::Value,
        loose: &[(&str, &str)],
    ) -> Result<&'static str, String> {
        let json::Value::Object(pairs) = record else {
            return Err("record is not an object".to_owned());
        };
        let kind = match pairs.first() {
            Some((key, value)) if key == "kind" => value.as_str(),
            _ => None,
        }
        .ok_or("record does not start with a string `kind`")?;
        let &(kind, fields) = Event::SCHEMA
            .iter()
            .find(|(k, _)| *k == kind)
            .ok_or_else(|| format!("unknown kind `{kind}`"))?;
        let keys: Vec<&str> = pairs[1..].iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = fields.iter().map(|&(f, _)| f).collect();
        if keys != want {
            return Err(format!("{kind}: keys {keys:?}, schema {want:?}"));
        }
        for (&(field, ty), (_, value)) in fields.iter().zip(&pairs[1..]) {
            let loose = loose.contains(&(kind, field));
            let ok = match ty {
                FieldType::U64 => value.as_u64().is_some() || (loose && value.as_f64().is_some()),
                FieldType::F64 => {
                    value.as_f64().is_some() || (loose && *value == json::Value::Null)
                }
                FieldType::Bool => value.as_bool().is_some(),
                FieldType::Str => value.as_str().is_some(),
            };
            if !ok {
                return Err(format!("{kind}.{field}: {value:?} is not {ty:?}"));
            }
        }
        Ok(kind)
    }
}

/// Destination for [`Event`]s. Implementations must be `Send + Sync`: one
/// sink is process-wide, and a daemon's I/O loops, compute workers and
/// fleet threads record into it concurrently.
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
    fn opp_change_event_encodes_its_fields() {
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
    }

    #[test]
    fn schema_kinds_are_unique_and_fields_never_shadow_the_tag() {
        let mut kinds: Vec<&str> = Event::SCHEMA.iter().map(|&(kind, _)| kind).collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "duplicate kind tags");
        for &(kind, fields) in Event::SCHEMA {
            assert!(
                fields.iter().all(|&(field, _)| field != "kind"),
                "{kind} has a field named `kind`"
            );
        }
    }

    fn pinned_events() -> [(Event, &'static str); 4] {
        [
            (
                Event::TaskMigrated {
                    job: u64::MAX,
                    from_type: usize::MAX,
                    from_node: u32::MAX,
                    to_type: 0,
                    to_node: 7,
                    at_s: f64::NAN,
                    reason: "a\"b\\c\nd\u{1}e\u{2028}f — é",
                    lost_units: f64::INFINITY,
                },
                concat!(
                    r#"{"kind":"task_migrated","job":18446744073709551615,"#,
                    r#""from_type":18446744073709551615,"from_node":4294967295,"#,
                    r#""to_type":0,"to_node":7,"at_s":null,"reason":"a\"b\\c\nd\u0001e"#,
                    "\u{2028}",
                    r#"f — é","lost_units":null}"#,
                ),
            ),
            (
                Event::TaskPlaced {
                    job: 0,
                    type_idx: 1,
                    node_idx: 2,
                    opt: usize::MAX,
                    start_s: -0.0,
                    finish_s: 1e21,
                    units: 1.5e-300,
                    energy_j: f64::NEG_INFINITY,
                },
                concat!(
                    r#"{"kind":"task_placed","job":0,"type_idx":1,"node_idx":2,"#,
                    r#""opt":18446744073709551615,"start_s":-0.0,"finish_s":1e21,"#,
                    r#""units":1.5e-300,"energy_j":null}"#,
                ),
            ),
            (
                Event::RequestDone {
                    path: "/p\"q\\r\ns\u{1}t\u{2028}u héllo 日本".to_owned(),
                    status: u16::MAX,
                    wall_s: 0.1,
                    cached: true,
                },
                concat!(
                    r#"{"kind":"request_done","path":"/p\"q\\r\ns\u0001t"#,
                    "\u{2028}",
                    r#"u héllo 日本","status":65535,"wall_s":0.1,"cached":true}"#,
                ),
            ),
            (
                Event::JobSubmitted {
                    job: 1 << 53,
                    workload: String::new(),
                    size_units: 1e-7,
                    arrival_s: 123_456_789.125,
                    deadline_s: f64::INFINITY,
                    admitted: false,
                },
                concat!(
                    r#"{"kind":"job_submitted","job":9007199254740992,"workload":"","#,
                    r#""size_units":1e-7,"arrival_s":123456789.125,"deadline_s":null,"#,
                    r#""admitted":false}"#,
                ),
            ),
        ]
    }

    /// The encoding of every Rust field type the table carries (u16, u32,
    /// u64, usize, f64, bool, `&'static str`, `String`) at its edge values,
    /// byte for byte: trace readers parse these lines.
    #[test]
    fn encoder_pins_every_field_type() {
        for (event, line) in pinned_events() {
            assert_eq!(event.to_json(), line);
        }
    }

    #[test]
    fn check_json_reads_back_what_the_encoder_writes() {
        // Values a strict reader cannot take back: integers at or above
        // 2^53, and non-finite floats (encoded as null).
        let loose = [
            ("task_migrated", "job"),
            ("task_migrated", "from_type"),
            ("task_migrated", "at_s"),
            ("task_migrated", "lost_units"),
            ("task_placed", "opt"),
            ("task_placed", "energy_j"),
            ("job_submitted", "job"),
            ("job_submitted", "deadline_s"),
        ];
        for (event, line) in pinned_events() {
            let record = json::parse(line).unwrap();
            assert_eq!(Event::check_json(&record, &loose), Ok(event.kind()));
            let strict = Event::check_json(&record, &[]);
            assert_eq!(strict.is_ok(), event.kind() == "request_done", "{strict:?}");
        }
    }

    #[test]
    fn check_json_names_each_departure_from_the_schema() {
        let check = |text: &str, loose: &[(&str, &str)]| {
            Event::check_json(&json::parse(text).unwrap(), loose)
        };
        let ok = r#"{"kind":"request_done","path":"/","status":200,"wall_s":0.5,"cached":true}"#;
        assert_eq!(check(ok, &[]), Ok("request_done"));
        for (bad, why) in [
            ("[1]".to_owned(), "not an object"),
            (r#"{"kind":7}"#.to_owned(), "kind not a string"),
            (ok.replace("request_done", "nope"), "unknown kind"),
            (
                ok.replace(
                    r#""kind":"request_done","path":"/""#,
                    r#""path":"/","kind":"request_done""#,
                ),
                "kind not first",
            ),
            (ok.replace(r#","cached":true"#, ""), "missing key"),
            (
                ok.replace(r#""path":"/","status":200"#, r#""status":200,"path":"/""#),
                "keys out of order",
            ),
            (ok.replace("true}", r#"true,"x":1}"#), "extra key"),
            (ok.replace("200", "200.5"), "integer field holds a fraction"),
            (ok.replace("0.5", "null"), "float field holds null"),
            (ok.replace(r#""/""#, "1"), "string field holds a number"),
            (ok.replace("true", "1"), "bool field holds a number"),
        ] {
            assert!(check(&bad, &[]).is_err(), "{why}: {bad}");
        }
        // A loose pair relaxes only its own field, and only one step.
        let null_wall = ok.replace("0.5", "null");
        assert_eq!(
            check(&null_wall, &[("request_done", "wall_s")]),
            Ok("request_done")
        );
        assert!(check(&null_wall, &[("request_start", "wall_s")]).is_err());
        let str_wall = ok.replace("0.5", r#""x""#);
        assert!(check(&str_wall, &[("request_done", "wall_s")]).is_err());
        let hit = Event::CacheHit { key: u64::MAX }.to_json();
        assert!(check(&hit, &[]).is_err());
        assert_eq!(check(&hit, &[("cache_hit", "key")]), Ok("cache_hit"));
    }

    #[test]
    fn design_section_9_documents_every_kind() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 9. ").expect("DESIGN.md has a §9");
        let end = start + design[start..].find("\n## 10. ").expect("§10 follows §9");
        let section = &design[start..end];
        let missing: Vec<&str> = Event::SCHEMA
            .iter()
            .map(|&(kind, _)| kind)
            .filter(|kind| !section.contains(&format!("`{kind}`")))
            .collect();
        assert!(missing.is_empty(), "DESIGN.md §9 omits {missing:?}");
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
