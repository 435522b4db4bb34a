//! The online scheduler: streaming admission, HEATS-style α-placement,
//! per-node reservations with backfill, and fault-driven migration.
//!
//! ## Event loop
//!
//! The engine is a deterministic virtual-time discrete-event loop. Every
//! event carries a `(time, priority, sequence)` key and the heap pops in
//! strictly ascending key order; at equal times completions run before
//! faults, faults before arrivals, arrivals before ticks. The sequence
//! number is the push order, itself a pure function of the input stream,
//! so two runs over the same `(pool, config, jobs, faults)` replay the
//! same decisions bit for bit — there is no wall clock, no `HashMap`
//! iteration, and no randomness anywhere in the loop.
//!
//! ## Placement score
//!
//! A job is one indivisible task. On admission (and again on every
//! migration) the engine enumerates all live candidate slots — every
//! (node, operating point) pair of the job's class menu that survives the
//! node's power cap — computes the earliest backfill start on each node's
//! reservation timeline, and scores each candidate with the HEATS-style
//! blend
//!
//! ```text
//! score = α · span/span_min + (1 − α) · energy/energy_min
//! ```
//!
//! where `span` is time-to-finish from the decision instant and `energy`
//! the task's active energy on that slot. Deadline-feasible candidates are
//! preferred; if none exists the earliest-finishing slot is taken and the
//! miss is recorded at completion. `α = 1` is pure performance (the
//! degenerate case the selfcheck oracle pins against mix-and-match),
//! `α = 0` pure energy.
//!
//! ## Migration and charge rollback
//!
//! Faults reuse [`hecmix_sim::faults`] verbatim. A running task charges
//! energy and work in whole chunks of `chunk_frac · size`; when a fault
//! interrupts it, the committed chunks keep their charge and the
//! in-flight partial chunk is rolled back — its units *and* its energy —
//! exactly mirroring the crash accounting of `run_cluster_faulted`. The
//! remainder re-enters placement at the fault instant. `Crash` kills the
//! node (no power drawn after), `Straggler` multiplies service times,
//! `NicDegrade` is modeled as a uniform service-rate degradation at the
//! same active power, and `PowerCap` evicts only the reservations whose
//! operating point's clock (not its capacity-scaled effective frequency)
//! now exceeds the cap.
//!
//! Idle gaps on every node are priced ex post with
//! [`hecmix_queueing::idle_gap_energy_j`] — the per-gap counterpart of the
//! expected-value slot pricing of a parkable dispatch menu
//! ([`hecmix_queueing::window_energy_sleep`]) — so parking economics carry
//! over unchanged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hecmix_core::error::{Error, Result};
use hecmix_queueing::idle_gap_energy_j;
use hecmix_sim::faults::{FaultKind, FaultSchedule};

use crate::job::JobSpec;
use crate::pool::Pool;

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Performance/energy blend: `1` = pure performance, `0` = pure
    /// energy. Must lie in `[0, 1]`.
    pub alpha: f64,
    /// Admission bound: a job arriving while this many admitted jobs are
    /// still outstanding is rejected (≥ 1).
    pub max_outstanding: usize,
    /// Commit granularity as a fraction of the job size, in `(0, 1]`.
    /// Work and energy are charged in whole chunks; the in-flight chunk
    /// rolls back on interruption.
    pub chunk_frac: f64,
    /// Telemetry tick period in seconds; `0` disables ticks.
    pub tick_s: f64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            max_outstanding: 256,
            chunk_frac: 1.0 / 64.0,
            tick_s: 0.0,
        }
    }
}

impl SchedConfig {
    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(Error::InvalidInput(format!(
                "alpha must lie in [0, 1], got {}",
                self.alpha
            )));
        }
        if self.max_outstanding == 0 {
            return Err(Error::InvalidInput(
                "admission bound must be at least 1".into(),
            ));
        }
        if !(self.chunk_frac > 0.0 && self.chunk_frac <= 1.0) {
            return Err(Error::InvalidInput(format!(
                "chunk fraction must lie in (0, 1], got {}",
                self.chunk_frac
            )));
        }
        if !self.tick_s.is_finite() || self.tick_s < 0.0 {
            return Err(Error::InvalidInput(format!(
                "tick period must be non-negative and finite, got {}",
                self.tick_s
            )));
        }
        Ok(())
    }
}

/// Per-job outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job's id from the input stream.
    pub id: u64,
    /// Whether the admission bound let the job in.
    pub admitted: bool,
    /// Completion time; `None` if rejected or stranded by faults.
    pub finish_s: Option<f64>,
    /// Whether a finite deadline was missed (completed late or stranded).
    pub missed: bool,
    /// Number of times the task was re-placed by fault handling.
    pub migrations: u32,
}

/// Aggregate outcome of one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedOutcome {
    /// Jobs seen in the stream.
    pub submitted: usize,
    /// Jobs admitted by the bound.
    pub admitted: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Admitted jobs stranded with no live placement (e.g. the whole pool
    /// crashed).
    pub failed: usize,
    /// Completed-late plus stranded jobs with finite deadlines.
    pub misses: usize,
    /// Fault-driven re-placements across all jobs.
    pub migrations: usize,
    /// Energy charged to committed work, joules.
    pub active_energy_j: f64,
    /// Idle/sleep-gap energy across all nodes up to the makespan, joules.
    pub idle_energy_j: f64,
    /// End of the last committed busy segment (or last arrival), seconds.
    pub makespan_s: f64,
    /// Committed work units per node type (summed over classes).
    pub per_type_units: Vec<f64>,
    /// Committed work units per `[class][type][operating point]` — the
    /// steady-state placement histogram the selfcheck oracle compares
    /// against mix-and-match shares.
    pub units_by_option: Vec<Vec<Vec<f64>>>,
    /// Per-job results, in input order.
    pub jobs: Vec<JobResult>,
}

impl SchedOutcome {
    /// Total energy, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.active_energy_j + self.idle_energy_j
    }

    /// Deadline misses as a fraction of admitted jobs (0 when none were
    /// admitted).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.misses as f64 / self.admitted as f64
        }
    }
}

/// The scheduler: a pool plus knobs. Stateless across runs — every run
/// replays a whole stream.
#[derive(Debug, Clone)]
pub struct Scheduler {
    pool: Pool,
    cfg: SchedConfig,
}

impl Scheduler {
    /// Build a scheduler, validating the knobs.
    pub fn new(pool: Pool, cfg: SchedConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self { pool, cfg })
    }

    /// The pool this scheduler places onto.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Run a job stream with no faults.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<SchedOutcome> {
        self.run_faulted(jobs, &FaultSchedule::default())
    }

    /// Run a job stream under a fault schedule. An empty schedule is
    /// bit-identical to [`Scheduler::run`] — pinned by the determinism
    /// tests, mirroring `run_cluster_faulted` vs `run_cluster`.
    pub fn run_faulted(&self, jobs: &[JobSpec], faults: &FaultSchedule) -> Result<SchedOutcome> {
        for j in jobs {
            j.validate(self.pool.classes.len())?;
        }
        self.check_faults(faults)?;
        Engine::new(&self.pool, &self.cfg, jobs, faults).run()
    }

    fn check_faults(&self, faults: &FaultSchedule) -> Result<()> {
        for (i, e) in faults.events.iter().enumerate() {
            if e.type_idx >= self.pool.counts.len() || e.node_idx >= self.pool.counts[e.type_idx] {
                return Err(Error::InvalidInput(format!(
                    "fault {i} targets node ({}, {}) outside the pool",
                    e.type_idx, e.node_idx
                )));
            }
            if !e.fault.at_s.is_finite() || e.fault.at_s < 0.0 {
                return Err(Error::InvalidInput(format!(
                    "fault {i} has invalid time {}",
                    e.fault.at_s
                )));
            }
            let ok = match e.fault.kind {
                FaultKind::Crash => true,
                FaultKind::Straggler { slowdown } => slowdown.is_finite() && slowdown >= 1.0,
                FaultKind::NicDegrade { bandwidth_factor } => {
                    bandwidth_factor > 0.0 && bandwidth_factor <= 1.0
                }
                FaultKind::PowerCap { max_freq_ghz } => {
                    max_freq_ghz.is_finite() && max_freq_ghz > 0.0
                }
            };
            if !ok {
                return Err(Error::InvalidInput(format!(
                    "fault {i} has invalid parameters: {:?}",
                    e.fault.kind
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- engine

/// Heap priorities: at equal times, completions free capacity before
/// faults strike, faults reshape the pool before new arrivals place, and
/// ticks observe the settled state.
const PRIO_COMPLETION: u8 = 0;
const PRIO_FAULT: u8 = 1;
const PRIO_ARRIVAL: u8 = 2;
const PRIO_TICK: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum EvKind {
    Completion { resv: usize },
    Fault { event: usize },
    Arrival { job: usize },
    Tick,
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    t: f64,
    prio: u8,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then(self.prio.cmp(&other.prio))
            .then(self.seq.cmp(&other.seq))
    }
}

/// One committed reservation: a task (or task remainder) bound to a slot.
#[derive(Debug, Clone, Copy)]
struct Resv {
    job: usize,
    class: usize,
    type_idx: usize,
    node_idx: u32,
    opt: usize,
    units: f64,
    start_s: f64,
    end_s: f64,
    /// Effective rate on this node at placement time (menu rate divided
    /// by the node's accumulated slowdown), units/s.
    eff_rate: f64,
    power_w: f64,
    /// Commit granularity in units, frozen at placement.
    chunk_units: f64,
    active: bool,
}

#[derive(Debug, Clone)]
struct NodeState {
    type_idx: usize,
    alive: bool,
    crash_s: f64,
    /// Accumulated service slowdown (`≥ 1`): stragglers multiply it, NIC
    /// degradation divides by the remaining bandwidth fraction.
    slow: f64,
    /// Highest allowed operating-point clock, GHz.
    cap_ghz: f64,
    /// Active reservation ids, sorted by start time.
    resv: Vec<usize>,
    /// Committed busy segments, disjoint and chronological.
    segments: Vec<(f64, f64)>,
}

/// One candidate slot for a placement decision: a (node, operating-point)
/// pair with its projected start/finish and active energy. Built by the
/// replay engine (with backfill over reservations) and by the live
/// `/submit` path in `hecmix-serve` (with per-node FIFO tails); both feed
/// the same [`select_candidate`] chooser.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Node type index in the pool.
    pub type_idx: usize,
    /// Node index within its type.
    pub node_idx: u32,
    /// Option index into the class's per-type menu.
    pub opt: usize,
    /// Earliest start on this slot, seconds.
    pub start_s: f64,
    /// Projected finish, seconds.
    pub finish_s: f64,
    /// Active energy of running the task here, joules.
    pub energy_j: f64,
    /// Effective service rate (units/s) after any straggler slowdown.
    pub eff_rate: f64,
    /// Active power drawn while the task runs, watts.
    pub power_w: f64,
}

/// The HEATS-style α-score chooser, shared verbatim by the replay engine
/// and the live `/submit` path: normalize each candidate's span (finish
/// minus `ready`) and energy by the respective minima over the candidate
/// set, blend them as `α·span + (1−α)·energy`, prefer deadline-feasible
/// candidates, and fall back to the earliest finisher when nothing meets
/// the deadline. Ties break deterministically on (type, node, option).
/// Returns `None` when `cands` is empty.
#[must_use]
pub fn select_candidate(
    cands: &[Candidate],
    ready: f64,
    deadline: f64,
    alpha: f64,
) -> Option<Candidate> {
    if cands.is_empty() {
        return None;
    }
    let min_span = cands
        .iter()
        .map(|c| c.finish_s - ready)
        .fold(f64::INFINITY, f64::min);
    let min_energy = cands
        .iter()
        .map(|c| c.energy_j)
        .fold(f64::INFINITY, f64::min);
    let score = |c: &Candidate| {
        alpha * (c.finish_s - ready) / min_span + (1.0 - alpha) * c.energy_j / min_energy
    };
    // Deterministic tie-break: lowest type, then node, then option.
    let slot_key = |c: &Candidate| (c.type_idx, c.node_idx, c.opt);
    let feasible = cands.iter().filter(|c| c.finish_s <= deadline);
    let best = feasible
        .min_by(|a, b| {
            score(a)
                .total_cmp(&score(b))
                .then(slot_key(a).cmp(&slot_key(b)))
        })
        .copied()
        .unwrap_or_else(|| {
            // No slot meets the deadline (or it is already past): finish
            // as early as possible and record the miss later.
            *cands
                .iter()
                .min_by(|a, b| {
                    a.finish_s
                        .total_cmp(&b.finish_s)
                        .then(slot_key(a).cmp(&slot_key(b)))
                })
                .expect("candidate set is non-empty")
        });
    Some(best)
}

struct Engine<'a> {
    pool: &'a Pool,
    cfg: &'a SchedConfig,
    jobs: &'a [JobSpec],
    faults: &'a FaultSchedule,
    offsets: Vec<usize>,
    nodes: Vec<NodeState>,
    slab: Vec<Resv>,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    outstanding: usize,
    arrivals_left: usize,
    faults_left: usize,
    results: Vec<JobResult>,
    out: SchedOutcome,
}

impl<'a> Engine<'a> {
    fn new(
        pool: &'a Pool,
        cfg: &'a SchedConfig,
        jobs: &'a [JobSpec],
        faults: &'a FaultSchedule,
    ) -> Self {
        let mut offsets = Vec::with_capacity(pool.counts.len());
        let mut total = 0usize;
        for &c in &pool.counts {
            offsets.push(total);
            total += c as usize;
        }
        let mut nodes = Vec::with_capacity(total);
        for (t, &c) in pool.counts.iter().enumerate() {
            for _ in 0..c {
                nodes.push(NodeState {
                    type_idx: t,
                    alive: true,
                    crash_s: f64::INFINITY,
                    slow: 1.0,
                    cap_ghz: f64::INFINITY,
                    resv: Vec::new(),
                    segments: Vec::new(),
                });
            }
        }
        let units_by_option = pool
            .classes
            .iter()
            .map(|c| c.options.iter().map(|menu| vec![0.0; menu.len()]).collect())
            .collect();
        let results = jobs
            .iter()
            .map(|j| JobResult {
                id: j.id,
                admitted: false,
                finish_s: None,
                missed: false,
                migrations: 0,
            })
            .collect();
        Engine {
            pool,
            cfg,
            jobs,
            faults,
            offsets,
            nodes,
            slab: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            outstanding: 0,
            arrivals_left: jobs.len(),
            faults_left: faults.events.len(),
            results,
            out: SchedOutcome {
                submitted: 0,
                admitted: 0,
                rejected: 0,
                completed: 0,
                failed: 0,
                misses: 0,
                migrations: 0,
                active_energy_j: 0.0,
                idle_energy_j: 0.0,
                makespan_s: 0.0,
                per_type_units: vec![0.0; pool.counts.len()],
                units_by_option,
                jobs: Vec::new(),
            },
        }
    }

    fn push(&mut self, t: f64, prio: u8, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { t, prio, seq, kind }));
    }

    fn node(&self, type_idx: usize, node_idx: u32) -> usize {
        self.offsets[type_idx] + node_idx as usize
    }

    fn run(mut self) -> Result<SchedOutcome> {
        for (i, j) in self.jobs.iter().enumerate() {
            self.push(j.arrival_s, PRIO_ARRIVAL, EvKind::Arrival { job: i });
        }
        // Fault push order is normalized to (time, node, input position) so
        // the replay does not depend on the schedule's vector order.
        let mut order: Vec<usize> = (0..self.faults.events.len()).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.faults.events[a], &self.faults.events[b]);
            ea.fault
                .at_s
                .total_cmp(&eb.fault.at_s)
                .then(ea.type_idx.cmp(&eb.type_idx))
                .then(ea.node_idx.cmp(&eb.node_idx))
                .then(a.cmp(&b))
        });
        for i in order {
            let t = self.faults.events[i].fault.at_s;
            self.push(t, PRIO_FAULT, EvKind::Fault { event: i });
        }
        if self.cfg.tick_s > 0.0 && (self.arrivals_left > 0 || self.faults_left > 0) {
            self.push(self.cfg.tick_s, PRIO_TICK, EvKind::Tick);
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            match ev.kind {
                EvKind::Completion { resv } => {
                    if self.slab[resv].active {
                        self.complete(resv);
                    }
                }
                EvKind::Fault { event } => {
                    self.faults_left -= 1;
                    self.apply_fault(event, ev.t);
                }
                EvKind::Arrival { job } => {
                    self.arrivals_left -= 1;
                    self.admit(job, ev.t);
                }
                EvKind::Tick => {
                    let running = self
                        .slab
                        .iter()
                        .filter(|r| r.active && r.start_s <= ev.t && ev.t < r.end_s)
                        .count();
                    let outstanding = self.outstanding;
                    hecmix_obs::emit(|| hecmix_obs::Event::SchedTick {
                        t_s: ev.t,
                        running,
                        outstanding,
                    });
                    if self.arrivals_left > 0 || self.faults_left > 0 || self.outstanding > 0 {
                        self.push(ev.t + self.cfg.tick_s, PRIO_TICK, EvKind::Tick);
                    }
                }
            }
        }
        self.settle()
    }

    fn admit(&mut self, job: usize, t: f64) {
        let spec = &self.jobs[job];
        self.out.submitted += 1;
        let admitted = self.outstanding < self.cfg.max_outstanding;
        let (workload, size_units, arrival_s, deadline_s) = (
            self.pool.classes[spec.workload].name.clone(),
            spec.size_units,
            spec.arrival_s,
            spec.deadline_s,
        );
        let id = spec.id;
        hecmix_obs::emit(|| hecmix_obs::Event::JobSubmitted {
            job: id,
            workload,
            size_units,
            arrival_s,
            deadline_s,
            admitted,
        });
        if !admitted {
            self.out.rejected += 1;
            return;
        }
        self.out.admitted += 1;
        self.outstanding += 1;
        self.results[job].admitted = true;
        if self
            .place(job, spec.workload, spec.size_units, t, spec.deadline_s)
            .is_none()
        {
            self.strand(job);
        }
    }

    /// Mark an admitted job as unplaceable (whole pool dead or capped out
    /// of every option): it leaves the system unfinished.
    fn strand(&mut self, job: usize) {
        self.outstanding -= 1;
        self.out.failed += 1;
        if self.jobs[job].deadline_s.is_finite() {
            self.out.misses += 1;
            self.results[job].missed = true;
        }
    }

    /// Earliest gap of length `dur` on `node`, at or after `ready`.
    fn earliest_start(&self, node: &NodeState, ready: f64, dur: f64) -> f64 {
        let mut start = ready;
        for &rid in &node.resv {
            let r = &self.slab[rid];
            if start + dur <= r.start_s {
                break;
            }
            if r.end_s > start {
                start = r.end_s;
            }
        }
        start
    }

    /// Clock of menu option `opt` of `class` on type `t`, GHz: the OPP's
    /// real frequency, which a power cap bounds (an option's `cfg.freq` is
    /// its capacity-scaled effective frequency).
    fn opp_ghz(&self, class: usize, t: usize, opt: usize) -> f64 {
        let c = &self.pool.classes[class];
        c.models[t].dvfs.ladder.states[c.options[t][opt].opp]
            .freq
            .ghz()
    }

    /// Enumerate candidates, score, reserve, and emit `task_placed`.
    /// Returns the chosen `(type, node)` or `None` if no live slot exists.
    fn place(
        &mut self,
        job: usize,
        class: usize,
        units: f64,
        ready: f64,
        deadline: f64,
    ) -> Option<(usize, u32)> {
        let mut cands: Vec<Candidate> = Vec::new();
        for (t, &count) in self.pool.counts.iter().enumerate() {
            let menu = &self.pool.classes[class].options[t];
            for n in 0..count {
                let node = &self.nodes[self.node(t, n)];
                if !node.alive {
                    continue;
                }
                for (k, o) in menu.iter().enumerate() {
                    if self.opp_ghz(class, t, k) > node.cap_ghz + 1e-12 {
                        continue;
                    }
                    let eff_rate = o.rate / node.slow;
                    let dur = units / eff_rate;
                    if !dur.is_finite() {
                        continue;
                    }
                    let start_s = self.earliest_start(node, ready, dur);
                    cands.push(Candidate {
                        type_idx: t,
                        node_idx: n,
                        opt: k,
                        start_s,
                        finish_s: start_s + dur,
                        energy_j: dur * o.power_w,
                        eff_rate,
                        power_w: o.power_w,
                    });
                }
            }
        }
        let best = select_candidate(&cands, ready, deadline, self.cfg.alpha)?;
        let rid = self.slab.len();
        self.slab.push(Resv {
            job,
            class,
            type_idx: best.type_idx,
            node_idx: best.node_idx,
            opt: best.opt,
            units,
            start_s: best.start_s,
            end_s: best.finish_s,
            eff_rate: best.eff_rate,
            power_w: best.power_w,
            chunk_units: self.cfg.chunk_frac * units,
            active: true,
        });
        let ni = self.node(best.type_idx, best.node_idx);
        let slab = &self.slab;
        let pos = self.nodes[ni]
            .resv
            .partition_point(|&o| (slab[o].start_s, o) < (best.start_s, rid));
        self.nodes[ni].resv.insert(pos, rid);
        self.push(
            best.finish_s,
            PRIO_COMPLETION,
            EvKind::Completion { resv: rid },
        );
        let id = self.jobs[job].id;
        hecmix_obs::emit(|| hecmix_obs::Event::TaskPlaced {
            job: id,
            type_idx: best.type_idx,
            node_idx: best.node_idx,
            opt: best.opt,
            start_s: best.start_s,
            finish_s: best.finish_s,
            units,
            energy_j: best.energy_j,
        });
        Some((best.type_idx, best.node_idx))
    }

    /// Charge `units` of committed work from reservation `rid`, covering
    /// the segment `[start, start + units/eff_rate)`.
    fn charge(&mut self, rid: usize, units: f64) {
        if units.is_nan() || units <= 0.0 {
            return;
        }
        let r = self.slab[rid];
        let dur = units / r.eff_rate;
        self.out.active_energy_j += dur * r.power_w;
        self.out.per_type_units[r.type_idx] += units;
        self.out.units_by_option[r.class][r.type_idx][r.opt] += units;
        let ni = self.node(r.type_idx, r.node_idx);
        self.nodes[ni].segments.push((r.start_s, r.start_s + dur));
    }

    fn detach(&mut self, rid: usize) {
        let r = self.slab[rid];
        let ni = self.node(r.type_idx, r.node_idx);
        self.nodes[ni].resv.retain(|&o| o != rid);
        self.slab[rid].active = false;
    }

    fn complete(&mut self, rid: usize) {
        let r = self.slab[rid];
        self.charge(rid, r.units);
        self.detach(rid);
        self.outstanding -= 1;
        self.out.completed += 1;
        let jr = &mut self.results[r.job];
        jr.finish_s = Some(r.end_s);
        let deadline = self.jobs[r.job].deadline_s;
        if r.end_s > deadline {
            self.out.misses += 1;
            jr.missed = true;
            let id = self.jobs[r.job].id;
            hecmix_obs::emit(|| hecmix_obs::Event::DeadlineMiss {
                job: id,
                deadline_s: deadline,
                finish_s: r.end_s,
            });
        }
    }

    fn apply_fault(&mut self, event: usize, t: f64) {
        let e = &self.faults.events[event];
        let ni = self.node(e.type_idx, e.node_idx);
        let reason: &'static str;
        match e.fault.kind {
            FaultKind::Crash => {
                if !self.nodes[ni].alive {
                    return;
                }
                self.nodes[ni].alive = false;
                self.nodes[ni].crash_s = t;
                reason = "crash";
            }
            FaultKind::Straggler { slowdown } => {
                self.nodes[ni].slow *= slowdown;
                reason = "straggler";
            }
            FaultKind::NicDegrade { bandwidth_factor } => {
                self.nodes[ni].slow /= bandwidth_factor;
                reason = "nic_degrade";
            }
            FaultKind::PowerCap { max_freq_ghz } => {
                let n = &mut self.nodes[ni];
                n.cap_ghz = n.cap_ghz.min(max_freq_ghz);
                reason = "power_cap";
            }
        }
        if !self.nodes[ni].alive && self.nodes[ni].resv.is_empty() && reason != "crash" {
            return; // faults after a crash are no-ops on a dead node
        }
        // Displace affected reservations in timeline order. PowerCap only
        // evicts slots whose operating point now exceeds the cap; every
        // other fault invalidates the whole timeline (rates changed or the
        // node is gone).
        let cap = self.nodes[ni].cap_ghz;
        let displaced: Vec<usize> = self.nodes[ni]
            .resv
            .iter()
            .copied()
            .filter(|&rid| {
                let r = &self.slab[rid];
                match e.fault.kind {
                    FaultKind::PowerCap { .. } => {
                        self.opp_ghz(r.class, r.type_idx, r.opt) > cap + 1e-12
                    }
                    _ => true,
                }
            })
            .collect();
        for rid in displaced {
            self.interrupt(rid, t, reason);
        }
    }

    /// Interrupt reservation `rid` at time `t`: commit whole chunks, roll
    /// back the in-flight chunk (units and energy), and re-place the
    /// remainder.
    fn interrupt(&mut self, rid: usize, t: f64, reason: &'static str) {
        let r = self.slab[rid];
        self.detach(rid);
        let (committed, lost) = if t <= r.start_s {
            (0.0, 0.0) // queued, nothing ran
        } else {
            let done = (t - r.start_s) * r.eff_rate;
            let committed = ((done / r.chunk_units).floor() * r.chunk_units).min(r.units);
            (committed, done - committed)
        };
        self.charge(rid, committed);
        let remaining = r.units - committed;
        if remaining.is_nan() || remaining <= 0.0 {
            // Rounding put the whole task into committed chunks: it is
            // effectively complete at the fault instant.
            self.outstanding -= 1;
            self.out.completed += 1;
            let jr = &mut self.results[r.job];
            jr.finish_s = Some(t);
            if t > self.jobs[r.job].deadline_s {
                self.out.misses += 1;
                jr.missed = true;
            }
            return;
        }
        self.results[r.job].migrations += 1;
        self.out.migrations += 1;
        let placed = self.place(r.job, r.class, remaining, t, self.jobs[r.job].deadline_s);
        match placed {
            Some((to_type, to_node)) => {
                let id = self.jobs[r.job].id;
                hecmix_obs::emit(|| hecmix_obs::Event::TaskMigrated {
                    job: id,
                    from_type: r.type_idx,
                    from_node: r.node_idx,
                    to_type,
                    to_node,
                    at_s: t,
                    reason,
                    lost_units: lost,
                });
            }
            None => self.strand(r.job),
        }
    }

    /// Price idle gaps and finalize the outcome.
    fn settle(mut self) -> Result<SchedOutcome> {
        let mut makespan = 0.0f64;
        for n in &self.nodes {
            for &(_, e) in &n.segments {
                makespan = makespan.max(e);
            }
        }
        for j in self.jobs {
            makespan = makespan.max(j.arrival_s);
        }
        for n in &mut self.nodes {
            // Segments are appended in charge order (event time order) and
            // are disjoint, but sort defensively before gap pricing.
            n.segments.sort_by(|a, b| a.0.total_cmp(&b.0));
            let horizon = if n.alive { makespan } else { n.crash_s };
            let idle_w = self.pool.idle_w[n.type_idx];
            let sleep = &self.pool.sleep[n.type_idx];
            let mut prev = 0.0f64;
            for &(s, e) in &n.segments {
                if s >= horizon {
                    break;
                }
                self.out.idle_energy_j += idle_gap_energy_j(s - prev, idle_w, sleep);
                prev = prev.max(e.min(horizon));
            }
            self.out.idle_energy_j += idle_gap_energy_j(horizon - prev, idle_w, sleep);
        }
        self.out.makespan_s = makespan;
        self.out.jobs = self.results;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::profile::WorkloadModel;
    use hecmix_core::types::Platform;

    fn pool() -> Pool {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        Pool::new(
            vec![(
                "ep".to_owned(),
                vec![
                    WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
                    WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
                ],
            )],
            vec![2, 1],
        )
        .unwrap()
    }

    fn job(id: u64, size: f64, arrival: f64, deadline: f64) -> JobSpec {
        JobSpec {
            id,
            workload: 0,
            size_units: size,
            arrival_s: arrival,
            deadline_s: deadline,
        }
    }

    #[test]
    fn config_validation() {
        let ok = SchedConfig::default();
        assert!(Scheduler::new(pool(), ok).is_ok());
        for bad in [
            SchedConfig { alpha: -0.1, ..ok },
            SchedConfig {
                alpha: f64::NAN,
                ..ok
            },
            SchedConfig {
                max_outstanding: 0,
                ..ok
            },
            SchedConfig {
                chunk_frac: 0.0,
                ..ok
            },
            SchedConfig {
                chunk_frac: 1.5,
                ..ok
            },
            SchedConfig { tick_s: -1.0, ..ok },
        ] {
            assert!(Scheduler::new(pool(), bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn single_job_runs_and_charges_energy() {
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        let out = s.run(&[job(0, 1e4, 0.0, f64::INFINITY)]).unwrap();
        assert_eq!(
            (out.submitted, out.admitted, out.completed, out.misses),
            (1, 1, 1, 0)
        );
        assert!(out.active_energy_j > 0.0);
        assert!(out.idle_energy_j > 0.0, "the other nodes idled");
        let total: f64 = out.per_type_units.iter().sum();
        assert!((total - 1e4).abs() < 1e-6);
        assert!(out.jobs[0].finish_s.unwrap() > 0.0);
        assert!((out.makespan_s - out.jobs[0].finish_s.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn admission_bound_rejects_excess_jobs() {
        let cfg = SchedConfig {
            max_outstanding: 2,
            ..SchedConfig::default()
        };
        let s = Scheduler::new(pool(), cfg).unwrap();
        // Four simultaneous arrivals, bound 2: two admitted, two rejected.
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 1e5, 0.0, f64::INFINITY)).collect();
        let out = s.run(&jobs).unwrap();
        assert_eq!((out.admitted, out.rejected), (2, 2));
        assert_eq!(out.completed, 2);
        assert!(out.jobs[2].finish_s.is_none() && !out.jobs[2].admitted);
    }

    #[test]
    fn alpha_extremes_select_performance_or_energy() {
        // α = 1 on an empty pool must take the globally fastest slot;
        // α = 0 the globally cheapest (by task energy).
        let p = pool();
        let menu0 = &p.classes[0].options;
        let fastest = menu0
            .iter()
            .flatten()
            .map(|o| o.rate)
            .fold(0.0f64, f64::max);
        let cheapest = menu0
            .iter()
            .flatten()
            .map(|o| o.power_w / o.rate) // J per unit
            .fold(f64::INFINITY, f64::min);
        let run = |alpha: f64| {
            let s = Scheduler::new(
                pool(),
                SchedConfig {
                    alpha,
                    ..SchedConfig::default()
                },
            )
            .unwrap();
            s.run(&[job(0, 1e4, 0.0, f64::INFINITY)]).unwrap()
        };
        let perf = run(1.0);
        let dur = perf.jobs[0].finish_s.unwrap();
        assert!((dur - 1e4 / fastest).abs() < 1e-9 * dur);
        let eco = run(0.0);
        assert!((eco.active_energy_j - 1e4 * cheapest).abs() < 1e-9 * eco.active_energy_j);
    }

    #[test]
    fn deadline_misses_are_counted_not_fatal() {
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        // Impossible deadline: still runs, recorded as a miss.
        let out = s.run(&[job(0, 1e6, 0.0, 1e-3)]).unwrap();
        assert_eq!((out.completed, out.misses), (1, 1));
        assert!(out.jobs[0].missed);
        assert!((out.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backfill_queues_on_busy_nodes() {
        // One node, three jobs: later jobs queue behind earlier ones and
        // finish in order.
        let arm = Platform::reference_arm();
        let p = Pool::new(
            vec![(
                "ep".to_owned(),
                vec![WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0)],
            )],
            vec![1],
        )
        .unwrap();
        let s = Scheduler::new(p, SchedConfig::default()).unwrap();
        let jobs: Vec<JobSpec> = (0..3).map(|i| job(i, 1e4, 0.0, f64::INFINITY)).collect();
        let out = s.run(&jobs).unwrap();
        assert_eq!(out.completed, 3);
        let f: Vec<f64> = out.jobs.iter().map(|j| j.finish_s.unwrap()).collect();
        assert!(f[0] < f[1] && f[1] < f[2]);
        // Serial on one node: finish times are multiples of one duration.
        assert!((f[2] - 3.0 * f[0]).abs() < 1e-6 * f[2]);
    }

    #[test]
    fn crash_migrates_and_conserves_work() {
        use hecmix_sim::faults::FaultSchedule;
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        let jobs = vec![job(0, 1e5, 0.0, f64::INFINITY)];
        let clean = s.run(&jobs).unwrap();
        let (t0, n0) = {
            // Find where the task landed so the crash hits it mid-run.
            let mut hit = None;
            for (t, per_t) in clean.per_type_units.iter().enumerate() {
                if *per_t > 0.0 {
                    hit = Some(t);
                }
            }
            (hit.unwrap(), 0u32)
        };
        // 0.37 of the run is not a whole number of 1/64 chunks, so the
        // in-flight partial chunk is genuinely lost and redone.
        let mid = clean.jobs[0].finish_s.unwrap() * 0.37;
        let faults = FaultSchedule::default().crash(t0, n0, mid);
        let out = s.run_faulted(&jobs, &faults).unwrap();
        assert_eq!(out.completed, 1);
        assert_eq!(out.migrations, 1);
        assert_eq!(out.jobs[0].migrations, 1);
        // All units still execute exactly once.
        let total: f64 = out.per_type_units.iter().sum();
        assert!((total - 1e5).abs() < 1e-6 * 1e5, "got {total}");
        // The migrated run takes longer than the clean one.
        assert!(out.jobs[0].finish_s.unwrap() > clean.jobs[0].finish_s.unwrap());
    }

    #[test]
    fn whole_pool_crash_strands_jobs() {
        use hecmix_sim::faults::FaultSchedule;
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        let jobs = vec![job(0, 1e6, 0.0, 100.0)];
        let mut faults = FaultSchedule::default();
        for (t, &c) in s.pool().counts.clone().iter().enumerate() {
            for n in 0..c {
                faults = faults.crash(t, n, 1e-3);
            }
        }
        let out = s.run_faulted(&jobs, &faults).unwrap();
        assert_eq!((out.completed, out.failed, out.misses), (0, 1, 1));
        assert!(out.jobs[0].finish_s.is_none() && out.jobs[0].missed);
        // Crashed nodes stop drawing power: almost no idle energy accrues.
        assert!(out.idle_energy_j < 1.0, "{}", out.idle_energy_j);
    }

    #[test]
    fn power_cap_evicts_only_overclocked_slots() {
        use hecmix_sim::faults::FaultSchedule;
        let p = pool();
        let fmin_ghz = p.platforms[0]
            .freqs
            .iter()
            .map(|f| f.ghz())
            .fold(f64::INFINITY, f64::min);
        // Pure-performance placement lands on the fastest slot; capping
        // every node of that type to fmin forces re-placement.
        let s = Scheduler::new(
            p,
            SchedConfig {
                alpha: 1.0,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let jobs = vec![job(0, 1e5, 0.0, f64::INFINITY)];
        let clean = s.run(&jobs).unwrap();
        let hit_type = clean.per_type_units.iter().position(|&u| u > 0.0).unwrap();
        let mid = clean.jobs[0].finish_s.unwrap() * 0.25;
        let mut faults = FaultSchedule::default();
        for n in 0..s.pool().counts[hit_type] {
            faults = faults.power_cap(hit_type, n, mid, fmin_ghz);
        }
        let out = s.run_faulted(&jobs, &faults).unwrap();
        assert_eq!(out.completed, 1);
        assert!(out.migrations >= 1);
        assert!(out.jobs[0].finish_s.unwrap() > clean.jobs[0].finish_s.unwrap());
    }

    /// One ARM node whose big.LITTLE-shaped ladder runs its 0.6 and
    /// 1.0 GHz OPPs at effective frequencies of 0.243 and 0.651 GHz.
    fn big_little_node() -> Pool {
        use hecmix_core::dvfs::{ActiveState, NodeDvfs, OppLadder, PowerDomain};
        use hecmix_core::types::Frequency;
        let arm = Platform::reference_arm();
        let m = WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0);
        let opp = |ghz: f64, capacity: f64, power_w: f64, stall_w: f64| ActiveState {
            freq: Frequency::from_ghz(ghz),
            capacity,
            power_w,
            stall_w,
        };
        let dvfs = NodeDvfs {
            ladder: OppLadder::new(vec![
                opp(0.6, 178.0, 0.12, 0.07),
                opp(1.0, 476.0, 0.33, 0.2),
                opp(1.4, 1024.0, 0.8, 0.48),
            ])
            .unwrap(),
            domain: PowerDomain::leaf("node", m.power.idle_w, m.power.idle_w, 0.0),
        };
        Pool::new(vec![("ep".to_owned(), vec![m.with_dvfs(dvfs)])], vec![1]).unwrap()
    }

    #[test]
    fn power_cap_bounds_the_opp_clock_not_its_effective_frequency() {
        use hecmix_sim::faults::FaultSchedule;
        let p = big_little_node();
        assert!(p.classes[0].options[0][0].cfg.freq.ghz() < 0.5);
        assert!(p.classes[0].options[0][1].cfg.freq.ghz() < 0.7);
        let jobs = [job(0, 1e4, 0.0, f64::INFINITY)];
        // A 0.5 GHz cap admits no OPP: the lowest one clocks 0.6 GHz.
        let s = Scheduler::new(
            p.clone(),
            SchedConfig {
                alpha: 0.0,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let out = s
            .run_faulted(&jobs, &FaultSchedule::default().power_cap(0, 0, 0.0, 0.5))
            .unwrap();
        assert_eq!((out.completed, out.failed), (0, 1));
        assert!(out.units_by_option[0][0].iter().all(|&u| u == 0.0));
        // A 0.7 GHz cap admits OPP 0 only, even for the fastest placement.
        let s = Scheduler::new(
            p,
            SchedConfig {
                alpha: 1.0,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let out = s
            .run_faulted(&jobs, &FaultSchedule::default().power_cap(0, 0, 0.0, 0.7))
            .unwrap();
        assert_eq!(out.completed, 1);
        let units = &out.units_by_option[0][0];
        assert!(
            units[0] > 0.0 && units[1] == 0.0 && units[2] == 0.0,
            "{units:?}"
        );
    }

    #[test]
    fn straggler_stretches_service() {
        use hecmix_sim::faults::FaultSchedule;
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        let jobs = vec![job(0, 1e5, 0.0, f64::INFINITY)];
        let clean = s.run(&jobs).unwrap();
        let hit_type = clean.per_type_units.iter().position(|&u| u > 0.0).unwrap();
        let mid = clean.jobs[0].finish_s.unwrap() * 0.5;
        // Slow down every node so re-placement cannot escape the fault.
        let mut faults = FaultSchedule::default();
        for (t, &c) in s.pool().counts.clone().iter().enumerate() {
            for n in 0..c {
                faults = faults.straggler(t, n, mid, 4.0);
            }
        }
        let _ = hit_type;
        let out = s.run_faulted(&jobs, &faults).unwrap();
        assert_eq!(out.completed, 1);
        assert!(out.jobs[0].finish_s.unwrap() > clean.jobs[0].finish_s.unwrap());
        let total: f64 = out.per_type_units.iter().sum();
        assert!((total - 1e5).abs() < 1e-6 * 1e5);
    }

    #[test]
    fn invalid_inputs_rejected() {
        use hecmix_sim::faults::{FaultEvent, FaultSchedule, NodeFault};
        let s = Scheduler::new(pool(), SchedConfig::default()).unwrap();
        assert!(s.run(&[job(0, -1.0, 0.0, 1.0)]).is_err());
        assert!(s.run(&[job(0, 1.0, 0.0, 0.0)]).is_err());
        assert!(s
            .run(&[JobSpec {
                workload: 9,
                ..job(0, 1.0, 0.0, 1.0)
            }])
            .is_err());
        // Fault targeting a node outside the pool.
        let faults = FaultSchedule {
            events: vec![FaultEvent {
                type_idx: 7,
                node_idx: 0,
                fault: NodeFault {
                    at_s: 1.0,
                    kind: FaultKind::Crash,
                },
            }],
        };
        assert!(s.run_faulted(&[], &faults).is_err());
        // Malformed straggler built by hand.
        let faults = FaultSchedule {
            events: vec![FaultEvent {
                type_idx: 0,
                node_idx: 0,
                fault: NodeFault {
                    at_s: 1.0,
                    kind: FaultKind::Straggler { slowdown: 0.5 },
                },
            }],
        };
        assert!(s.run_faulted(&[], &faults).is_err());
    }
}
