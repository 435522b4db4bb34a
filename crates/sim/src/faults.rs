//! Seeded fault injection and degraded-mode cluster recovery.
//!
//! A [`FaultSchedule`] names *what goes wrong, where and when*: a node
//! crashing outright, turning into a straggler, losing NIC bandwidth, or
//! being power-capped to a lower P-state. The schedule is data, not
//! randomness at run time — the same schedule and seed reproduce the run
//! bit for bit, which is what makes crash experiments diffable and lets
//! the analytical predictor in `hecmix-core::resilience` be validated
//! against them.
//!
//! [`run_cluster_faulted`] executes a cluster job under a schedule with a
//! work-conserving recovery protocol; [`crate::cluster::run_cluster`] is
//! its empty schedule:
//!
//! 1. a crashed node's in-flight chunks are rolled back (the work was lost
//!    mid-execution and must be redone) and its queued units stay undone;
//! 2. the crash is *detected* after a heartbeat timeout
//!    ([`RecoveryPolicy::heartbeat_timeout_s`]);
//! 3. after a redistribution backoff the leftover units are re-delivered
//!    to the surviving nodes, apportioned by each survivor's observed
//!    processing rate (largest-remainder rounding so no unit is dropped);
//! 4. survivors that crash *later* carry their injected share into their
//!    own leftover, so cascading failures re-redistribute transitively.
//!
//! The implementation re-simulates the deterministic per-node runs as
//! redistribution targets accumulate injected work (each round is a full,
//! self-consistent event simulation), processing crashes in time order
//! until the schedule is exhausted. If a crash leaves no eligible
//! survivors, its units are reported as [`ClusterMeasurement::abandoned_units`]
//! rather than silently lost.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::cluster::{ClusterMeasurement, ClusterSpec, TypeMeasurement};
use crate::counters::NodeCounters;
use crate::node::{run_node_faulted, FaultedNodeMeasurement, NodeRunSpec};
use crate::power::EnergyAccount;

/// What goes wrong with a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node dies: in-flight work is lost, queued work stays undone,
    /// and the node draws no power from the crash on.
    Crash,
    /// Every chunk executed after the fault stretches by this factor
    /// (≥ 1); the extra cycles are stall time at stall power.
    Straggler {
        /// Chunk-duration multiplier, `≥ 1`.
        slowdown: f64,
    },
    /// The NIC drains at this fraction of its line rate (in `(0, 1]`).
    NicDegrade {
        /// Remaining fraction of the nominal bandwidth.
        bandwidth_factor: f64,
    },
    /// The node is capped to the highest P-state at or below this clock
    /// (e.g. a thermal or power-budget throttle).
    PowerCap {
        /// Maximum allowed clock in GHz.
        max_freq_ghz: f64,
    },
}

/// One fault applied to one node at one time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// When the fault strikes, seconds from job start.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Work units re-delivered to a surviving node by the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkInjection {
    /// Delivery time, seconds from job start.
    pub at_s: f64,
    /// Units added to the node's queue.
    pub units: u64,
}

/// A fault bound to a specific node of a cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Index into [`ClusterSpec::assignments`].
    pub type_idx: usize,
    /// Node index within the type (`0 ..< nodes`).
    pub node_idx: u32,
    /// The fault.
    pub fault: NodeFault,
}

/// A deterministic fault schedule for one cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The scheduled faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

fn assert_time(at_s: f64) {
    assert!(
        at_s.is_finite() && at_s >= 0.0,
        "fault time must be finite and non-negative, got {at_s}"
    );
}

impl FaultSchedule {
    /// An empty schedule (a faulted run under it is the plain run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a crash of node `(type_idx, node_idx)` at `at_s`.
    #[must_use]
    pub fn crash(mut self, type_idx: usize, node_idx: u32, at_s: f64) -> Self {
        assert_time(at_s);
        self.events.push(FaultEvent {
            type_idx,
            node_idx,
            fault: NodeFault {
                at_s,
                kind: FaultKind::Crash,
            },
        });
        self
    }

    /// Add a straggler slowdown (`slowdown ≥ 1`).
    #[must_use]
    pub fn straggler(mut self, type_idx: usize, node_idx: u32, at_s: f64, slowdown: f64) -> Self {
        assert_time(at_s);
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "straggler slowdown must be ≥ 1, got {slowdown}"
        );
        self.events.push(FaultEvent {
            type_idx,
            node_idx,
            fault: NodeFault {
                at_s,
                kind: FaultKind::Straggler { slowdown },
            },
        });
        self
    }

    /// Add a NIC degradation (`bandwidth_factor` in `(0, 1]`).
    #[must_use]
    pub fn nic_degrade(
        mut self,
        type_idx: usize,
        node_idx: u32,
        at_s: f64,
        bandwidth_factor: f64,
    ) -> Self {
        assert_time(at_s);
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth factor must be in (0, 1], got {bandwidth_factor}"
        );
        self.events.push(FaultEvent {
            type_idx,
            node_idx,
            fault: NodeFault {
                at_s,
                kind: FaultKind::NicDegrade { bandwidth_factor },
            },
        });
        self
    }

    /// Add a power cap to `max_freq_ghz`.
    #[must_use]
    pub fn power_cap(
        mut self,
        type_idx: usize,
        node_idx: u32,
        at_s: f64,
        max_freq_ghz: f64,
    ) -> Self {
        assert_time(at_s);
        assert!(
            max_freq_ghz.is_finite() && max_freq_ghz > 0.0,
            "power cap must be a positive clock, got {max_freq_ghz}"
        );
        self.events.push(FaultEvent {
            type_idx,
            node_idx,
            fault: NodeFault {
                at_s,
                kind: FaultKind::PowerCap { max_freq_ghz },
            },
        });
        self
    }

    /// Seeded random crashes: `count` distinct nodes drawn uniformly from
    /// `nodes_per_type` (node counts per type index), each crashing at a
    /// uniform time in `(0, window_s)`. Equal seeds give equal schedules.
    ///
    /// # Panics
    /// Panics when `count` exceeds the total node count or `window_s` is
    /// not positive.
    #[must_use]
    pub fn random_crashes(seed: u64, nodes_per_type: &[u32], count: usize, window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "crash window must be positive, got {window_s}"
        );
        let mut pool: Vec<(usize, u32)> = nodes_per_type
            .iter()
            .enumerate()
            .flat_map(|(t, &n)| (0..n).map(move |i| (t, i)))
            .collect();
        assert!(
            count <= pool.len(),
            "cannot crash {count} of {} nodes",
            pool.len()
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::new();
        for _ in 0..count {
            let pick = rng.gen_range(0..pool.len());
            let (t, i) = pool.swap_remove(pick);
            let at_s = rng.gen_range(0.0..window_s).max(f64::MIN_POSITIVE);
            schedule = schedule.crash(t, i, at_s);
        }
        schedule
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Heartbeat/redistribution timing of the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Missed-heartbeat window: a crash at `t` is detected at
    /// `t + heartbeat_timeout_s`.
    pub heartbeat_timeout_s: f64,
    /// Delay between detection and survivors receiving the re-delivered
    /// units (requeue + transfer).
    pub redistribute_backoff_s: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            heartbeat_timeout_s: 0.25,
            redistribute_backoff_s: 0.05,
        }
    }
}

/// What happened around one crash.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Crashed node's type index.
    pub type_idx: usize,
    /// Crashed node's index within the type.
    pub node_idx: u32,
    /// Crash time, seconds.
    pub crash_s: f64,
    /// Detection time (`crash + heartbeat timeout`), seconds.
    pub detected_s: f64,
    /// Redistribution time (`detection + backoff`), seconds.
    pub redistributed_s: f64,
    /// Units the node left undone (queued + rolled-back in-flight).
    pub leftover_units: u64,
    /// Of the leftover, units that were mid-execution when the node died.
    pub lost_in_flight_units: u64,
    /// Redistribution targets as `(type_idx, node_idx, units)`.
    pub receivers: Vec<(usize, u32, u64)>,
    /// Units no survivor could absorb (no eligible receivers).
    pub abandoned_units: u64,
}

/// Internal per-node run description.
struct NodeJob {
    type_idx: usize,
    node_idx: u32,
    units: u64,
    cores: u32,
    freq: hecmix_core::types::Frequency,
    seed: u64,
    faults: Vec<NodeFault>,
    injections: Vec<WorkInjection>,
    /// Scheduled crash time (the earliest, if several were scheduled).
    crash_s: Option<f64>,
}

/// Emit the telemetry lifecycle of one finalized [`CrashRecord`]: the
/// crash itself, its heartbeat detection, the redistribution summary, and
/// one share event per receiver. A record with nothing left to move still
/// gets its redistribution event (`moved = abandoned = 0`), so a JSONL
/// trace replays to exactly the run's totals.
fn emit_crash_events(rec: &CrashRecord) {
    if !hecmix_obs::enabled() {
        return;
    }
    hecmix_obs::emit(|| hecmix_obs::Event::Crash {
        type_idx: rec.type_idx,
        node_idx: rec.node_idx as usize,
        crash_s: rec.crash_s,
        leftover_units: rec.leftover_units,
        lost_in_flight_units: rec.lost_in_flight_units,
    });
    hecmix_obs::emit(|| hecmix_obs::Event::HeartbeatTimeout {
        type_idx: rec.type_idx,
        node_idx: rec.node_idx as usize,
        detected_s: rec.detected_s,
    });
    hecmix_obs::emit(|| hecmix_obs::Event::Redistribution {
        type_idx: rec.type_idx,
        node_idx: rec.node_idx as usize,
        redistributed_s: rec.redistributed_s,
        moved_units: rec.receivers.iter().map(|r| r.2).sum(),
        abandoned_units: rec.abandoned_units,
    });
    for &(to_type, to_node, units) in &rec.receivers {
        hecmix_obs::emit(|| hecmix_obs::Event::RedistributionShare {
            to_type,
            to_node: to_node as usize,
            units,
        });
    }
}

/// Run a heterogeneous cluster job under a fault schedule.
///
/// Deterministic: the same spec, schedule and policy reproduce identical
/// counters and energy. The `faulted_run_start`/`faulted_run_end` events
/// fire only for a non-empty schedule, so a plain run emits its nodes'
/// events alone.
///
/// # Panics
/// Panics when a schedule event names a type or node outside the spec, or
/// when a node spec is invalid (bad core count or frequency, invalid
/// demand).
#[must_use]
pub fn run_cluster_faulted(
    spec: &ClusterSpec,
    schedule: &FaultSchedule,
    policy: &RecoveryPolicy,
) -> ClusterMeasurement {
    assert!(
        policy.heartbeat_timeout_s >= 0.0 && policy.redistribute_backoff_s >= 0.0,
        "recovery delays must be non-negative"
    );
    let mut jobs: Vec<NodeJob> = Vec::new();
    for (type_idx, a) in spec.assignments.iter().enumerate() {
        if a.nodes == 0 {
            continue;
        }
        let per_node = a.units / u64::from(a.nodes);
        let remainder = a.units % u64::from(a.nodes);
        for i in 0..a.nodes {
            jobs.push(NodeJob {
                type_idx,
                node_idx: i,
                units: per_node + u64::from(i < remainder as u32),
                cores: a.cores,
                freq: a.freq,
                seed: spec
                    .seed
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add((type_idx as u64) << 32 | u64::from(i)),
                faults: Vec::new(),
                injections: Vec::new(),
                crash_s: None,
            });
        }
    }
    for ev in &schedule.events {
        let job = jobs
            .iter_mut()
            .find(|j| j.type_idx == ev.type_idx && j.node_idx == ev.node_idx)
            .unwrap_or_else(|| {
                panic!(
                    "fault targets node ({}, {}) absent from the spec",
                    ev.type_idx, ev.node_idx
                )
            });
        job.faults.push(ev.fault);
        if ev.fault.kind == FaultKind::Crash {
            job.crash_s = Some(match job.crash_s {
                Some(c) => c.min(ev.fault.at_s),
                None => ev.fault.at_s,
            });
        }
    }
    // Per-node fault order must be deterministic regardless of schedule
    // event order (stable: equal times keep insertion order).
    for j in &mut jobs {
        j.faults.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    }

    // A workless node runs too: with no events its run ends at t = 0 with
    // zero counters and energy, and it idles until top-up.
    let run_all = |jobs: &[NodeJob]| -> Vec<FaultedNodeMeasurement> {
        jobs.par_iter()
            .map(|j| {
                let arch = &spec.assignments[j.type_idx].arch;
                run_node_faulted(
                    arch,
                    &spec.trace,
                    &NodeRunSpec::new(j.cores, j.freq, j.units, j.seed),
                    &j.faults,
                    &j.injections,
                )
            })
            .collect()
    };

    // Crashes in processing order: (time, type, node) — total and stable.
    let mut crash_order: Vec<usize> = (0..jobs.len())
        .filter(|&i| jobs[i].crash_s.is_some())
        .collect();
    crash_order.sort_by(|&a, &b| {
        jobs[a]
            .crash_s
            .unwrap()
            .total_cmp(&jobs[b].crash_s.unwrap())
            .then(jobs[a].type_idx.cmp(&jobs[b].type_idx))
            .then(jobs[a].node_idx.cmp(&jobs[b].node_idx))
    });

    let traced = !schedule.is_empty();
    if traced {
        hecmix_obs::emit(|| hecmix_obs::Event::FaultedRunStart {
            total_units: spec.assignments.iter().map(|a| a.units).sum(),
            crashes: crash_order.len(),
        });
    }
    let mut results = run_all(&jobs);
    let mut crashes: Vec<CrashRecord> = Vec::new();
    let mut abandoned_total: u64 = 0;
    let mut next_crash = 0;
    while next_crash < crash_order.len() {
        let ci = crash_order[next_crash];
        next_crash += 1;
        let crash_s = jobs[ci].crash_s.expect("ordered crash list");
        let leftover = results[ci].leftover_units;
        let lost = results[ci].lost_in_flight_units;
        let detected_s = crash_s + policy.heartbeat_timeout_s;
        let redistributed_s = detected_s + policy.redistribute_backoff_s;
        // Eligible survivors: never crash, or crash strictly after the
        // redistribution lands (so every injected unit either completes or
        // shows up in that node's own later leftover — nothing leaks).
        let receivers_idx: Vec<usize> = (0..jobs.len())
            .filter(|&i| i != ci && jobs[i].crash_s.is_none_or(|c| c > redistributed_s))
            .collect();
        let mut record = CrashRecord {
            type_idx: jobs[ci].type_idx,
            node_idx: jobs[ci].node_idx,
            crash_s,
            detected_s,
            redistributed_s,
            leftover_units: leftover,
            lost_in_flight_units: lost,
            receivers: Vec::new(),
            abandoned_units: 0,
        };
        if leftover == 0 {
            // Nothing to redistribute: the current round's results remain
            // valid for every other node — keep processing.
            emit_crash_events(&record);
            crashes.push(record);
            continue;
        }
        if receivers_idx.is_empty() {
            record.abandoned_units = leftover;
            abandoned_total += leftover;
            emit_crash_events(&record);
            crashes.push(record);
            continue;
        }
        // Apportion by observed processing rate (units done per second of
        // useful work), falling back to equal shares when nothing has run
        // yet; largest-remainder rounding conserves every unit.
        let weights: Vec<f64> = receivers_idx
            .iter()
            .map(|&i| {
                let r = &results[i];
                if r.work_end_s > 0.0 {
                    r.measurement.counters.units_done() / r.work_end_s
                } else {
                    0.0
                }
            })
            .collect();
        let total_w: f64 = weights.iter().sum();
        let weights: Vec<f64> = if total_w > 0.0 {
            weights.iter().map(|w| w / total_w).collect()
        } else {
            vec![1.0 / receivers_idx.len() as f64; receivers_idx.len()]
        };
        let mut shares: Vec<u64> = weights
            .iter()
            .map(|w| (w * leftover as f64).floor() as u64)
            .collect();
        let mut assigned: u64 = shares.iter().sum();
        // Largest remainder first; ties by receiver order (deterministic).
        let mut by_rem: Vec<usize> = (0..shares.len()).collect();
        by_rem.sort_by(|&a, &b| {
            let ra = weights[a] * leftover as f64 - shares[a] as f64;
            let rb = weights[b] * leftover as f64 - shares[b] as f64;
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let mut k = 0;
        while assigned < leftover {
            let idx = by_rem[k % by_rem.len()];
            shares[idx] += 1;
            assigned += 1;
            k += 1;
        }
        for (&i, &share) in receivers_idx.iter().zip(&shares) {
            if share == 0 {
                continue;
            }
            jobs[i].injections.push(WorkInjection {
                at_s: redistributed_s,
                units: share,
            });
            record
                .receivers
                .push((jobs[i].type_idx, jobs[i].node_idx, share));
        }
        emit_crash_events(&record);
        crashes.push(record);
        // Injections changed the downstream runs: re-simulate.
        results = run_all(&jobs);
    }

    // ---- Aggregate, with per-node alive windows.
    let duration_s = results.iter().map(|r| r.work_end_s).fold(0.0, f64::max);
    let mut per_type: Vec<TypeMeasurement> = spec
        .assignments
        .iter()
        .map(|a| TypeMeasurement {
            duration_s: 0.0,
            measured_energy_j: 0.0,
            counters: NodeCounters::new((a.cores as usize).max(1)),
            energy: EnergyAccount::default(),
            node_durations_s: Vec::new(),
        })
        .collect();
    // Per-type idle top-ups, accumulated in node order.
    let mut type_topup = vec![0.0f64; spec.assignments.len()];
    for (j, r) in jobs.iter().zip(&results) {
        let t = &mut per_type[j.type_idx];
        let arch = &spec.assignments[j.type_idx].arch;
        let m = &r.measurement;
        // A survivor idles until the job ends; a crashed node is powered
        // only until it dies (never past the job's end).
        let alive_s = match r.crashed_at_s {
            Some(c) => c.min(duration_s),
            None => duration_s,
        };
        let idle_topup = arch.power.idle_w * (alive_s - m.duration_s).max(0.0);
        t.duration_s = t.duration_s.max(m.duration_s);
        t.measured_energy_j += m.measured_energy_j + idle_topup;
        t.energy.merge(&m.energy);
        t.node_durations_s.push(m.duration_s);
        for (dst, src) in t.counters.cores.iter_mut().zip(&m.counters.cores) {
            dst.merge(src);
        }
        t.counters.io_bytes += m.counters.io_bytes;
        t.counters.io_busy_s += m.counters.io_busy_s;
        t.counters.mem_busy_s += m.counters.mem_busy_s;
        t.counters.duration_s = t.counters.duration_s.max(m.counters.duration_s);
        type_topup[j.type_idx] += idle_topup;
    }
    let measured_energy_j = per_type.iter().map(|t| t.measured_energy_j).sum();
    let true_energy_j = per_type
        .iter()
        .zip(&type_topup)
        .map(|(t, topup)| t.energy.total_j() + topup)
        .sum();
    let completed_units: f64 = per_type.iter().map(|t| t.counters.units_done()).sum();
    if traced {
        hecmix_obs::emit(|| hecmix_obs::Event::FaultedRunEnd {
            duration_s,
            completed_units: completed_units as u64,
            abandoned_units: abandoned_total,
        });
    }

    ClusterMeasurement {
        duration_s,
        measured_energy_j,
        true_energy_j,
        per_type,
        crashes,
        abandoned_units: abandoned_total,
        completed_units,
    }
}
