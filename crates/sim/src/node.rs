//! Event-driven simulation of one node executing a workload share.
//!
//! Cores pull *chunks* of work units from a shared queue. For each chunk,
//! the ISA model expands the abstract demand into instructions, issue
//! cycles and cache misses; misses wait on the memory controller, whose
//! latency depends on how many cores are busy *at that moment*; the chunk's
//! duration is the slower of the core path and the memory path (out-of-order
//! overlap), perturbed by run-to-run jitter. Completed chunks hand their
//! network bytes to the NIC, which drains them by DMA in the background;
//! cores block when the NIC backlog grows too deep (I/O backpressure) or
//! when an open arrival process has not yet delivered more work.
//!
//! CPU utilization, I/O-boundness and memory contention therefore *emerge*
//! from the event interleaving — nothing in this module evaluates the
//! analytical model's equations.

use hecmix_core::types::Frequency;

use crate::arch::NodeArch;
use crate::counters::NodeCounters;
use crate::engine::EventQueue;
use crate::faults::{FaultKind, NodeFault, WorkInjection};
use crate::noise::Noise;
use crate::power::{EnergyAccount, PowerMeter};
use crate::trace::{ArrivalProcess, WorkloadTrace};

/// DVFS policy for a run. The paper (and the model) pin each node to one
/// P-state per configuration; [`Governor::Ondemand`] reproduces what a
/// stock Linux `ondemand` governor would do instead, so experiments can
/// quantify the fixed-frequency assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Governor {
    /// Stay at the configured P-state for the whole run.
    Fixed,
    /// A stock ondemand configuration: sample utilization every 10 ms,
    /// step the P-state up when utilization exceeds 80 % and down when it
    /// falls below 30 %.
    Ondemand,
}

/// [`Governor::Ondemand`]'s sampling interval, seconds.
const ONDEMAND_INTERVAL_S: f64 = 0.010;
/// Utilization above which [`Governor::Ondemand`] raises the frequency.
const ONDEMAND_UP_THRESHOLD: f64 = 0.8;
/// Utilization below which [`Governor::Ondemand`] lowers the frequency.
const ONDEMAND_DOWN_THRESHOLD: f64 = 0.3;

/// Per-node run parameters.
#[derive(Debug, Clone, Copy)]
pub struct NodeRunSpec {
    /// Enabled cores (`1 ..= platform.cores`).
    pub cores: u32,
    /// Core clock frequency (one of the platform P-states); the starting
    /// P-state when a governor is active.
    pub freq: Frequency,
    /// Work units assigned to this node.
    pub units: u64,
    /// Noise seed (vary for repeated "runs" of the same experiment).
    pub seed: u64,
    /// Chunk size override in units; `None` picks a size that gives each
    /// core a few hundred chunks.
    pub chunk_units: Option<u64>,
    /// DVFS policy.
    pub governor: Governor,
}

impl NodeRunSpec {
    /// A spec with default chunking and a pinned frequency.
    #[must_use]
    pub fn new(cores: u32, freq: Frequency, units: u64, seed: u64) -> Self {
        Self {
            cores,
            freq,
            units,
            seed,
            chunk_units: None,
            governor: Governor::Fixed,
        }
    }

    /// Switch to a DVFS governor.
    #[must_use]
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }
}

/// Everything measured from one node run.
#[derive(Debug, Clone)]
pub struct NodeMeasurement {
    /// Hardware event counters.
    pub counters: NodeCounters,
    /// Exact (ground-truth) energy account.
    pub energy: EnergyAccount,
    /// Energy as read by the external power meter (with measurement error).
    pub measured_energy_j: f64,
    /// Wall-clock duration of the run in seconds.
    pub duration_s: f64,
}

/// One node run under fault injection: the plain measurement plus the
/// recovery-relevant facts.
#[derive(Debug, Clone)]
pub struct FaultedNodeMeasurement {
    /// Counters/energy/duration of the run. For a crashed node the
    /// duration (and its idle floor) covers only useful work — the cluster
    /// layer charges the idle window between last work and the crash.
    pub measurement: NodeMeasurement,
    /// Time the last work event (chunk or NIC transfer) completed.
    pub work_end_s: f64,
    /// Crash time, when a crash fault fired.
    pub crashed_at_s: Option<f64>,
    /// Units left undone at the crash: still queued plus rolled-back
    /// in-flight chunks. Zero for nodes that did not crash.
    pub leftover_units: u64,
    /// Of the leftover, units that were mid-execution when the node died.
    pub lost_in_flight_units: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    CoreDone(u32),
    NicDone,
    WakeArrival,
    GovernorTick,
    /// Index into the fault list.
    Fault(usize),
    /// Index into the injection list.
    Inject(usize),
}

/// Exact deltas one chunk added to the counters and energy account,
/// recorded (in fault mode only) so a crash can roll back in-flight work.
/// The noise draws are consumed at chunk start, so the deltas cannot be
/// recomputed after the fact — they must be remembered.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCharge {
    instructions: f64,
    cycles: f64,
    work_cycles: f64,
    core_stall_cycles: f64,
    mem_stall_cycles: f64,
    llc_misses: f64,
    busy_s: f64,
    units_done: f64,
    core_work_j: f64,
    core_stall_j: f64,
    mem_j: f64,
    mem_busy_s: f64,
}

/// NIC backlog (in chunks of pending transfer) above which cores stop
/// starting new chunks. Small enough that an I/O-bound run is promptly
/// limited by the line rate; large enough to keep the pipeline full.
const NIC_BACKLOG_CHUNKS: f64 = 4.0;

struct NodeSim<'a> {
    arch: &'a NodeArch,
    trace: &'a WorkloadTrace,
    spec: NodeRunSpec,
    chunk: u64,
    queue: EventQueue<Ev>,
    noise: Noise,
    counters: NodeCounters,
    energy: EnergyAccount,
    /// Units not yet handed to a core.
    pending_units: u64,
    /// Units arrived (for open arrivals) but not yet consumed; `f64`
    /// because arrival is a fluid process.
    consumed_units: f64,
    /// Per-core busy flag (holds the chunk size being executed).
    core_busy: Vec<Option<u64>>,
    /// Cores currently executing (memory contention driver).
    busy_cores: u32,
    /// NIC state.
    nic_busy: bool,
    nic_queue_bytes: f64,
    nic_chunk_backlog: f64,
    nic_pending_bytes: f64,
    /// Cores parked on backpressure or arrival starvation.
    parked: Vec<u32>,
    wake_scheduled: bool,
    /// Whole-run stall bias (drawn once per run from the seed).
    run_factor: f64,
    /// Current P-state index into `arch.platform.freqs`.
    freq_idx: usize,
    /// Busy core-seconds accumulated since the last governor tick.
    busy_since_tick: f64,
    last_tick: f64,
    // ---- Fault-injection state (inert on the plain path). ----
    /// Scheduled faults for this node, sorted by time.
    faults: &'a [NodeFault],
    /// Work re-delivered by the recovery protocol.
    injections: &'a [WorkInjection],
    /// True when faults or injections are present: enables charge
    /// recording and work-end bookkeeping.
    fault_mode: bool,
    /// Chunk-duration multiplier from straggler faults (compounding).
    slow_factor: f64,
    /// NIC bandwidth multiplier from degradation faults (compounding).
    nic_bandwidth_factor: f64,
    /// Highest P-state index a power cap allows.
    freq_cap_idx: usize,
    /// Set when a crash fault fired; stops the run loop.
    crashed: bool,
    /// Time of the last completed work event (chunk or NIC transfer).
    last_activity: f64,
    /// Units rolled back out of in-flight chunks at the crash.
    lost_in_flight: u64,
    /// Per-core charge of the chunk currently executing (fault mode only).
    charges: Vec<Option<ChunkCharge>>,
    /// Units injected so far (consumed by `arrived_by`).
    injected_units: u64,
    /// Start/duration of the in-flight NIC transfer, for crash rollback.
    nic_start_s: f64,
    nic_dur_s: f64,
}

impl<'a> NodeSim<'a> {
    fn new(
        arch: &'a NodeArch,
        trace: &'a WorkloadTrace,
        spec: NodeRunSpec,
        faults: &'a [NodeFault],
        injections: &'a [WorkInjection],
    ) -> Self {
        assert!(
            spec.cores >= 1 && spec.cores <= arch.platform.cores,
            "core count {} out of range for {}",
            spec.cores,
            arch.platform.name
        );
        assert!(
            arch.platform.supports_frequency(spec.freq),
            "{} is not a P-state of {}",
            spec.freq,
            arch.platform.name
        );
        assert!(trace.demand.is_valid(), "invalid workload demand");
        for f in faults {
            assert!(
                f.at_s.is_finite() && f.at_s >= 0.0,
                "fault time must be finite and non-negative"
            );
        }
        for inj in injections {
            assert!(
                inj.at_s.is_finite() && inj.at_s >= 0.0,
                "injection time must be finite and non-negative"
            );
        }
        // Chunking covers all work the node may ever see, so a node that
        // starts empty and receives redistributed units later does not end
        // up with degenerate one-unit chunks.
        let total_units = spec.units + injections.iter().map(|i| i.units).sum::<u64>();
        let chunk = spec.chunk_units.unwrap_or_else(|| {
            // A few hundred chunks per core keeps event counts low while
            // letting contention and backpressure interleave.
            (total_units / (u64::from(spec.cores) * 256)).max(1)
        });
        let mut noise = Noise::new(spec.seed);
        let run_factor = noise.factor(arch.run_sigma);
        let freq_idx = arch
            .platform
            .freqs
            .iter()
            .position(|f| (f.hz() - spec.freq.hz()).abs() < 1e3)
            .expect("validated above");
        Self {
            arch,
            trace,
            spec,
            chunk,
            queue: EventQueue::new(),
            noise,
            counters: NodeCounters::new(spec.cores as usize),
            energy: EnergyAccount::default(),
            pending_units: spec.units,
            consumed_units: 0.0,
            core_busy: vec![None; spec.cores as usize],
            busy_cores: 0,
            nic_busy: false,
            nic_queue_bytes: 0.0,
            nic_chunk_backlog: 0.0,
            nic_pending_bytes: 0.0,
            parked: Vec::new(),
            wake_scheduled: false,
            run_factor,
            freq_idx,
            busy_since_tick: 0.0,
            last_tick: 0.0,
            faults,
            injections,
            fault_mode: !faults.is_empty() || !injections.is_empty(),
            slow_factor: 1.0,
            nic_bandwidth_factor: 1.0,
            freq_cap_idx: arch.platform.freqs.len() - 1,
            crashed: false,
            last_activity: 0.0,
            lost_in_flight: 0,
            charges: vec![None; spec.cores as usize],
            injected_units: 0,
            nic_start_s: 0.0,
            nic_dur_s: 0.0,
        }
    }

    /// The frequency the node is running at right now.
    fn cur_freq(&self) -> Frequency {
        self.arch.platform.freqs[self.freq_idx]
    }

    /// Governor tick (scheduled only under [`Governor::Ondemand`]):
    /// measure utilization since the last tick, step the P-state, and
    /// reschedule while the run is still active.
    fn governor_tick(&mut self) {
        let now = self.queue.now();
        let window = (now - self.last_tick).max(1e-12);
        // Two utilization signals: busy time of chunks *completed* in the
        // window, and the cores busy right now (a long chunk spanning
        // several windows contributes nothing to the former until it
        // retires — sampling only completions would read a saturated core
        // as idle and drive the governor the wrong way).
        let completed = (self.busy_since_tick / (window * f64::from(self.spec.cores))).min(1.0);
        let instantaneous = f64::from(self.busy_cores) / f64::from(self.spec.cores);
        let util = completed.max(instantaneous);
        self.busy_since_tick = 0.0;
        self.last_tick = now;
        let prev_idx = self.freq_idx;
        if util > ONDEMAND_UP_THRESHOLD && self.freq_idx + 1 < self.arch.platform.freqs.len() {
            self.freq_idx += 1;
        } else if util < ONDEMAND_DOWN_THRESHOLD && self.freq_idx > 0 {
            self.freq_idx -= 1;
        }
        // A power-cap fault bounds what the governor may pick.
        self.freq_idx = self.freq_idx.min(self.freq_cap_idx);
        if self.freq_idx != prev_idx {
            hecmix_obs::emit(|| hecmix_obs::Event::DvfsSwitch {
                seed: self.spec.seed,
                t_s: now,
                from_ghz: self.arch.platform.freqs[prev_idx].ghz(),
                to_ghz: self.arch.platform.freqs[self.freq_idx].ghz(),
            });
            // The platform P-state list *is* the sim's OPP ladder; emit
            // the ladder-indexed companion event for DVFS consumers.
            hecmix_obs::emit(|| hecmix_obs::Event::OppChange {
                seed: self.spec.seed,
                t_s: now,
                from_opp: prev_idx as u32,
                to_opp: self.freq_idx as u32,
                to_ghz: self.arch.platform.freqs[self.freq_idx].ghz(),
            });
        }
        let active = self.pending_units > 0
            || self.busy_cores > 0
            || self.nic_busy
            || self.nic_queue_bytes > 0.0;
        if active {
            self.queue
                .schedule_in(ONDEMAND_INTERVAL_S, Ev::GovernorTick);
        }
    }

    /// Units that have arrived by time `t` under the arrival process.
    /// Redistributed units arrive in full at their injection event.
    fn arrived_by(&self, t: f64) -> f64 {
        let injected = self.injected_units as f64;
        match self.trace.arrivals {
            ArrivalProcess::Saturated => self.spec.units as f64 + injected,
            ArrivalProcess::Open { rate_per_node } => {
                (rate_per_node * t).min(self.spec.units as f64) + injected
            }
        }
    }

    /// Try to start the next chunk on `core`. Returns false if the core
    /// must park (no work, starved arrivals, or NIC backpressure).
    fn try_start(&mut self, core: u32) -> bool {
        if self.pending_units == 0 {
            return false;
        }
        // Backpressure: too many un-sent responses.
        if self.nic_chunk_backlog >= NIC_BACKLOG_CHUNKS {
            self.park(core, "nic-backpressure");
            return false;
        }
        let now = self.queue.now();
        let want = self.chunk.min(self.pending_units) as f64;
        let arrived = self.arrived_by(now);
        // Tolerance of a millionth of a unit guards against the wake event
        // firing at exactly t_ready with `rate·t` rounding a hair short,
        // which would otherwise re-park and re-schedule a zero-delay wake
        // forever.
        if arrived + 1e-6 < self.consumed_units + want {
            // Starved: wake when enough units will have arrived.
            if let ArrivalProcess::Open { rate_per_node } = self.trace.arrivals {
                if !self.wake_scheduled {
                    let t_ready = (self.consumed_units + want) / rate_per_node;
                    self.queue.schedule(t_ready.max(now), Ev::WakeArrival);
                    self.wake_scheduled = true;
                }
            }
            self.park(core, "starved");
            return false;
        }

        let units = self.chunk.min(self.pending_units);
        self.pending_units -= units;
        self.consumed_units += units as f64;
        self.busy_cores += 1;
        self.core_busy[core as usize] = Some(units);

        let dur = self.execute_chunk(core, units);
        self.queue.schedule_in(dur, Ev::CoreDone(core));
        true
    }

    fn park(&mut self, core: u32, reason: &'static str) {
        if !self.parked.contains(&core) {
            self.parked.push(core);
            hecmix_obs::emit(|| hecmix_obs::Event::CorePark {
                seed: self.spec.seed,
                core,
                t_s: self.queue.now(),
                reason,
            });
        }
    }

    fn unpark_all(&mut self) {
        let parked = std::mem::take(&mut self.parked);
        for core in parked {
            if self.try_start(core) {
                hecmix_obs::emit(|| hecmix_obs::Event::CoreResume {
                    seed: self.spec.seed,
                    core,
                    t_s: self.queue.now(),
                });
            }
        }
    }

    /// Compute one chunk's timing/energy/counters. Returns its duration.
    fn execute_chunk(&mut self, core: u32, units: u64) -> f64 {
        let freq = self.cur_freq();
        let f_hz = freq.hz();
        let cost = self.arch.isa.expand(&self.trace.demand, units as f64);

        // Per-chunk jitter on the two stall paths (work cycles are
        // architectural and repeatable; stalls are not).
        let jc = self.noise.factor(self.arch.jitter_sigma) * self.run_factor;
        let jm = self.noise.factor(self.arch.jitter_sigma) * self.run_factor;

        let work = cost.work_cycles;
        let core_stall = cost.core_stall_cycles * jc;

        // Memory path: misses wait on the controller, whose latency grows
        // with the number of cores busy right now.
        let contending = f64::from(self.busy_cores.max(1));
        let stall_ns = self.arch.mem.stall_ns_per_miss(contending);
        let mem_service_s = cost.llc_misses * stall_ns * 1e-9 * jm;
        hecmix_obs::emit(|| hecmix_obs::Event::MemContention {
            seed: self.spec.seed,
            t_s: self.queue.now(),
            contending: self.busy_cores.max(1),
            stall_ns: (mem_service_s * 1e9) as u64,
        });
        let mem_stall_cycles_raw = mem_service_s * f_hz;

        // Out-of-order overlap: the chunk takes the slower of the two paths.
        let core_path = work + core_stall;
        let mem_path = work + mem_stall_cycles_raw;
        let mut cycles = core_path.max(mem_path);
        // Straggler fault: the whole chunk stretches; the extra cycles are
        // stalls (the architectural work is unchanged), which keeps the
        // counters' conservation bracket intact.
        let mut core_stall_recorded = core_stall;
        if self.slow_factor > 1.0 {
            let extra = cycles * (self.slow_factor - 1.0);
            cycles += extra;
            core_stall_recorded += extra;
        }
        let dur = cycles / f_hz;

        // PMU view: stall-event counters record the *raw* stall cycles of
        // each cause. Out-of-order overlap means the per-cause counters can
        // sum to more than the elapsed cycles — exactly how real stall
        // events behave, and what the model's Eq. 9 consumes as SPI_mem.
        let mem_stall_recorded = mem_stall_cycles_raw;

        let c = &mut self.counters.cores[core as usize];
        c.instructions += cost.instructions;
        c.cycles += cycles;
        c.work_cycles += work;
        c.core_stall_cycles += core_stall_recorded;
        c.mem_stall_cycles += mem_stall_recorded;
        c.llc_misses += cost.llc_misses;
        c.busy_s += dur;
        c.units_done += units as f64;

        // Energy: active power for work cycles, stall power for the rest.
        let p_act = self.arch.power.core_active_w(freq, self.arch.f_nom());
        let p_stall = self.arch.power.core_stall_w(freq, self.arch.f_nom());
        let core_work_j = p_act * (work / f_hz);
        let core_stall_j = p_stall * ((cycles - work) / f_hz);
        let mem_j = self.arch.power.mem_w * mem_service_s;
        self.energy.core_work_j += core_work_j;
        self.energy.core_stall_j += core_stall_j;
        // DRAM active while servicing this chunk's misses.
        self.energy.mem_j += mem_j;
        self.counters.mem_busy_s += mem_service_s;
        self.busy_since_tick += dur;

        if self.fault_mode {
            // Remember the exact deltas so a crash can roll this chunk back.
            self.charges[core as usize] = Some(ChunkCharge {
                instructions: cost.instructions,
                cycles,
                work_cycles: work,
                core_stall_cycles: core_stall_recorded,
                mem_stall_cycles: mem_stall_recorded,
                llc_misses: cost.llc_misses,
                busy_s: dur,
                units_done: units as f64,
                core_work_j,
                core_stall_j,
                mem_j,
                mem_busy_s: mem_service_s,
            });
        }

        dur
    }

    /// Enqueue a finished chunk's bytes on the NIC.
    fn enqueue_io(&mut self, units: u64) {
        let bytes = self.trace.demand.io_bytes * units as f64;
        if bytes <= 0.0 {
            return;
        }
        self.nic_queue_bytes += bytes;
        self.nic_chunk_backlog += 1.0;
        if !self.nic_busy {
            self.start_nic();
        }
    }

    fn start_nic(&mut self) {
        debug_assert!(!self.nic_busy && self.nic_queue_bytes > 0.0);
        self.nic_busy = true;
        // Drain one chunk's worth per NIC service event.
        let per_chunk = self.nic_queue_bytes / self.nic_chunk_backlog.max(1.0);
        let bytes = per_chunk.min(self.nic_queue_bytes);
        let dur = bytes * 8.0 / (self.arch.platform.io_bandwidth_bps * self.nic_bandwidth_factor);
        self.nic_pending_bytes = bytes;
        self.nic_start_s = self.queue.now();
        self.nic_dur_s = dur;
        self.queue.schedule_in(dur, Ev::NicDone);
        self.counters.io_busy_s += dur;
        self.energy.io_j += self.arch.power.io_w * dur;
    }

    /// Schedule the initial events and drive the queue dry (or to a crash).
    fn run_loop(&mut self) {
        if self.spec.governor == Governor::Ondemand {
            self.queue.schedule(ONDEMAND_INTERVAL_S, Ev::GovernorTick);
        }
        for (i, f) in self.faults.iter().enumerate() {
            self.queue.schedule(f.at_s, Ev::Fault(i));
        }
        for (i, inj) in self.injections.iter().enumerate() {
            self.queue.schedule(inj.at_s, Ev::Inject(i));
        }
        // Kick all cores at t = 0.
        for core in 0..self.spec.cores {
            self.try_start(core);
        }
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Ev::CoreDone(core) => {
                    let units = self.core_busy[core as usize]
                        .take()
                        .expect("completion for an idle core");
                    self.charges[core as usize] = None;
                    self.busy_cores -= 1;
                    self.last_activity = t;
                    self.enqueue_io(units);
                    self.try_start(core);
                }
                Ev::NicDone => {
                    self.nic_busy = false;
                    self.nic_queue_bytes = (self.nic_queue_bytes - self.nic_pending_bytes).max(0.0);
                    self.nic_chunk_backlog = (self.nic_chunk_backlog - 1.0).max(0.0);
                    self.counters.io_bytes += self.nic_pending_bytes;
                    self.nic_pending_bytes = 0.0;
                    self.last_activity = t;
                    if self.nic_queue_bytes > 0.0 {
                        self.start_nic();
                    }
                    // Backpressure may have lifted.
                    self.unpark_all();
                }
                Ev::WakeArrival => {
                    self.wake_scheduled = false;
                    self.unpark_all();
                }
                Ev::GovernorTick => self.governor_tick(),
                Ev::Fault(i) => {
                    self.apply_fault(self.faults[i]);
                    if self.crashed {
                        break;
                    }
                }
                Ev::Inject(i) => {
                    let units = self.injections[i].units;
                    self.pending_units += units;
                    self.injected_units += units;
                    self.kick_all_idle();
                }
            }
        }
        if !self.crashed {
            debug_assert_eq!(self.pending_units, 0, "work left but no events pending");
            debug_assert!(!self.nic_busy && self.nic_queue_bytes <= 1e-9);
        }
    }

    fn apply_fault(&mut self, fault: NodeFault) {
        match fault.kind {
            FaultKind::Crash => self.crash(),
            FaultKind::Straggler { slowdown } => self.slow_factor *= slowdown,
            FaultKind::NicDegrade { bandwidth_factor } => {
                self.nic_bandwidth_factor *= bandwidth_factor;
            }
            FaultKind::PowerCap { max_freq_ghz } => {
                // Highest P-state at or below the cap (lowest if none fit).
                let cap = self
                    .arch
                    .platform
                    .freqs
                    .iter()
                    .rposition(|f| f.ghz() <= max_freq_ghz + 1e-9)
                    .unwrap_or(0);
                self.freq_cap_idx = self.freq_cap_idx.min(cap);
                self.freq_idx = self.freq_idx.min(self.freq_cap_idx);
            }
        }
    }

    /// The node dies right now: in-flight chunks are rolled back (their
    /// noise draws are spent, but the recorded charges restore counters and
    /// energy exactly), a partial NIC transfer is refunded pro rata, and
    /// the rolled-back units join the queue as lost work to re-deliver.
    fn crash(&mut self) {
        self.crashed = true;
        let now = self.queue.now();
        for core in 0..self.core_busy.len() {
            if self.core_busy[core].take().is_some() {
                let ch = self.charges[core]
                    .take()
                    .expect("in-flight chunk without a recorded charge");
                self.busy_cores -= 1;
                self.lost_in_flight += ch.units_done as u64;
                let c = &mut self.counters.cores[core];
                c.instructions -= ch.instructions;
                c.cycles -= ch.cycles;
                c.work_cycles -= ch.work_cycles;
                c.core_stall_cycles -= ch.core_stall_cycles;
                c.mem_stall_cycles -= ch.mem_stall_cycles;
                c.llc_misses -= ch.llc_misses;
                c.busy_s -= ch.busy_s;
                c.units_done -= ch.units_done;
                self.energy.core_work_j -= ch.core_work_j;
                self.energy.core_stall_j -= ch.core_stall_j;
                self.energy.mem_j -= ch.mem_j;
                self.counters.mem_busy_s -= ch.mem_busy_s;
            }
        }
        if self.nic_busy {
            // Refund the untransferred tail of the in-flight NIC transfer;
            // its bytes were never counted (that happens at NicDone).
            let elapsed = now - self.nic_start_s;
            let remaining = (self.nic_dur_s - elapsed).clamp(0.0, self.nic_dur_s);
            self.counters.io_busy_s -= remaining;
            self.energy.io_j -= self.arch.power.io_w * remaining;
            self.nic_busy = false;
        }
    }

    /// Restart every idle core (used after a work injection; parked cores
    /// are retried too and will re-park themselves if still blocked).
    fn kick_all_idle(&mut self) {
        self.parked.clear();
        for core in 0..self.spec.cores {
            if self.core_busy[core as usize].is_none() {
                self.try_start(core);
            }
        }
    }

    fn finalize(mut self) -> NodeMeasurement {
        // The plain path keeps its historical duration (queue drain time,
        // including a trailing governor tick); under faults stray events
        // must not inflate it, so work-end time is used instead.
        let duration = if self.fault_mode {
            self.last_activity
        } else {
            self.queue.now()
        };
        self.counters.duration_s = duration;
        self.energy.idle_j = self.arch.power.idle_w * duration;

        let mut meter = PowerMeter::new(
            Noise::new(self.spec.seed ^ 0x9E3779B97F4A7C15),
            self.arch.power.meter_sigma,
        );
        let measured_energy_j = meter.read_j(&self.energy);
        NodeMeasurement {
            counters: self.counters,
            energy: self.energy,
            measured_energy_j,
            duration_s: duration,
        }
    }

    fn run(mut self) -> FaultedNodeMeasurement {
        self.run_loop();
        let work_end_s = self.last_activity;
        let crashed_at_s = self.crashed.then(|| self.queue.now());
        let leftover_units = self.pending_units + self.lost_in_flight;
        let lost_in_flight_units = self.lost_in_flight;
        FaultedNodeMeasurement {
            measurement: self.finalize(),
            work_end_s,
            crashed_at_s,
            leftover_units,
            lost_in_flight_units,
        }
    }
}

/// Run one node to completion.
///
/// # Panics
/// Panics when the spec is inconsistent with the archetype (bad core count
/// or frequency) or the trace demand is invalid.
#[must_use]
pub fn run_node(arch: &NodeArch, trace: &WorkloadTrace, spec: &NodeRunSpec) -> NodeMeasurement {
    run_node_faulted(arch, trace, spec, &[], &[]).measurement
}

/// Run one node under a fault schedule, with extra work injected mid-run.
///
/// With empty `faults` and `injections` fault mode stays off, so the
/// measurement is the plain [`run_node`] one; `work_end_s` then equals its
/// duration unless an `Ondemand` governor tick drains the queue after the
/// last work event.
///
/// # Panics
/// Panics when the spec is inconsistent with the archetype, the trace
/// demand is invalid, or any fault/injection time is negative or
/// non-finite.
#[must_use]
pub fn run_node_faulted(
    arch: &NodeArch,
    trace: &WorkloadTrace,
    spec: &NodeRunSpec,
    faults: &[NodeFault],
    injections: &[WorkInjection],
) -> FaultedNodeMeasurement {
    NodeSim::new(arch, trace, *spec, faults, injections).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{reference_amd_arch, reference_arm_arch};
    use crate::trace::UnitDemand;

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

    fn io_demand() -> UnitDemand {
        UnitDemand {
            int_ops: 300.0,
            fp_ops: 0.0,
            simd_ops: 0.0,
            wide_mul_ops: 0.0,
            mem_ops: 150.0,
            llc_miss_rate: 0.02,
            branch_ops: 50.0,
            branch_miss_rate: 0.03,
            io_bytes: 1024.0,
        }
    }

    #[test]
    fn cpu_bound_run_completes_all_units() {
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let spec = NodeRunSpec::new(4, arch.platform.fmax(), 100_000, 1);
        let m = run_node(&arch, &trace, &spec);
        assert!((m.counters.units_done() - 100_000.0).abs() < 1e-6);
        assert!(m.duration_s > 0.0);
        assert!(m.energy.total_j() > 0.0);
        // CPU-bound: cores essentially always busy.
        assert!(
            m.counters.cpu_utilization() > 0.95,
            "{}",
            m.counters.cpu_utilization()
        );
        // All cores contributed.
        assert!(m.counters.cores.iter().all(|c| c.units_done > 0.0));
        // Counter conservation on every core.
        assert!(m.counters.cores.iter().all(|c| c.is_conserved()));
    }

    #[test]
    fn deterministic_for_seed() {
        let arch = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let spec = NodeRunSpec::new(6, arch.platform.fmax(), 50_000, 7);
        let a = run_node(&arch, &trace, &spec);
        let b = run_node(&arch, &trace, &spec);
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.measured_energy_j, b.measured_energy_j);
        let mut c = spec;
        c.seed = 8;
        let d = run_node(&arch, &trace, &c);
        assert_ne!(a.duration_s, d.duration_s);
    }

    #[test]
    fn more_cores_run_faster_cpu_bound() {
        let arch = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let one = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(1, arch.platform.fmax(), 60_000, 3),
        );
        let six = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(6, arch.platform.fmax(), 60_000, 3),
        );
        assert!(
            six.duration_s < one.duration_s / 4.0,
            "{} vs {}",
            six.duration_s,
            one.duration_s
        );
    }

    #[test]
    fn higher_frequency_runs_faster_but_draws_more_power() {
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let slow = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, hecmix_core::types::Frequency::from_ghz(0.5), 60_000, 3),
        );
        let fast = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, arch.platform.fmax(), 60_000, 3),
        );
        assert!(fast.duration_s < slow.duration_s);
        let p_fast = fast.energy.total_j() / fast.duration_s;
        let p_slow = slow.energy.total_j() / slow.duration_s;
        assert!(p_fast > p_slow);
    }

    #[test]
    fn io_bound_run_limited_by_line_rate() {
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("kv", io_demand());
        let units = 20_000u64;
        let spec = NodeRunSpec::new(4, arch.platform.fmax(), units, 5);
        let m = run_node(&arch, &trace, &spec);
        let wire_s = units as f64 * 1024.0 * 8.0 / 1e8;
        // Duration is essentially the wire time (within jitter/pipelining).
        assert!(
            m.duration_s >= wire_s * 0.98,
            "{} vs wire {}",
            m.duration_s,
            wire_s
        );
        assert!(
            m.duration_s <= wire_s * 1.2,
            "{} vs wire {}",
            m.duration_s,
            wire_s
        );
        // Cores are mostly idle: utilization well below 1.
        assert!(
            m.counters.cpu_utilization() < 0.7,
            "{}",
            m.counters.cpu_utilization()
        );
        // All bytes got transferred.
        assert!((m.counters.io_bytes - units as f64 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn open_arrivals_pace_the_run() {
        let arch = reference_amd_arch();
        let mut trace = WorkloadTrace::batch("paced", ep_demand());
        let rate = 100_000.0; // units/s
        trace.arrivals = ArrivalProcess::Open {
            rate_per_node: rate,
        };
        let units = 50_000u64;
        let m = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(6, arch.platform.fmax(), units, 2),
        );
        let arrival_window = units as f64 / rate;
        assert!(m.duration_s >= arrival_window * 0.99);
        assert!(m.duration_s <= arrival_window * 1.1);
    }

    #[test]
    fn energy_components_positive_and_idle_floor_scales() {
        let arch = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let m = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(6, arch.platform.fmax(), 50_000, 9),
        );
        assert!(m.energy.core_work_j > 0.0);
        assert!(m.energy.core_stall_j > 0.0);
        assert!(m.energy.mem_j > 0.0);
        assert!((m.energy.idle_j - 45.0 * m.duration_s).abs() < 1e-9);
        // Meter reading close to truth.
        assert!((m.measured_energy_j / m.energy.total_j() - 1.0).abs() < 0.07);
    }

    #[test]
    fn memory_contention_slows_multicore_runs() {
        // A very memory-heavy demand: per-unit time grows with core count.
        let arch = reference_arm_arch();
        let mut d = ep_demand();
        d.mem_ops = 200.0;
        d.llc_miss_rate = 0.2;
        let trace = WorkloadTrace::batch("memhog", d);
        let units = 20_000u64;
        let one = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(1, arch.platform.fmax(), units, 4),
        );
        let four = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, arch.platform.fmax(), units, 4),
        );
        let speedup = one.duration_s / four.duration_s;
        assert!(
            speedup < 3.2,
            "memory-bound speedup should be sublinear: {speedup}"
        );
        assert!(speedup > 1.2, "but still a speedup: {speedup}");
    }

    #[test]
    fn ondemand_races_to_fmax_for_cpu_bound() {
        // Start at fmin: a CPU-bound run saturates the cores, so the
        // governor climbs to fmax and the run finishes close to the
        // pinned-fmax time.
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        // Long enough that the ~40 ms P-state ramp is amortized.
        let units = 5_000_000u64;
        let governed = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, hecmix_core::types::Frequency::from_ghz(0.2), units, 3)
                .with_governor(Governor::Ondemand),
        );
        let pinned_max = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, arch.platform.fmax(), units, 3),
        );
        let pinned_min = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, hecmix_core::types::Frequency::from_ghz(0.2), units, 3),
        );
        assert!(
            governed.duration_s < pinned_min.duration_s * 0.4,
            "governor should escape fmin: {} vs {}",
            governed.duration_s,
            pinned_min.duration_s
        );
        assert!(
            governed.duration_s < pinned_max.duration_s * 2.0,
            "and approach fmax (modulo the ramp): {} vs {}",
            governed.duration_s,
            pinned_max.duration_s
        );
    }

    #[test]
    fn ondemand_drops_to_fmin_when_io_bound() {
        // An I/O-bound run leaves cores nearly idle: the governor sinks to
        // the lowest P-state and saves energy vs a pinned-fmax run without
        // extending the (wire-limited) duration.
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("kv", io_demand());
        let units = 20_000u64;
        let governed = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, arch.platform.fmax(), units, 5).with_governor(Governor::Ondemand),
        );
        let pinned = run_node(
            &arch,
            &trace,
            &NodeRunSpec::new(4, arch.platform.fmax(), units, 5),
        );
        assert!(
            (governed.duration_s / pinned.duration_s - 1.0).abs() < 0.05,
            "I/O-bound duration should not change: {} vs {}",
            governed.duration_s,
            pinned.duration_s
        );
        assert!(
            governed.energy.core_work_j + governed.energy.core_stall_j
                < 0.8 * (pinned.energy.core_work_j + pinned.energy.core_stall_j),
            "governor should cut core energy when cores idle"
        );
    }

    #[test]
    fn fixed_governor_is_the_default_and_identical() {
        let arch = reference_amd_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let spec = NodeRunSpec::new(6, arch.platform.fmax(), 50_000, 7);
        let a = run_node(&arch, &trace, &spec);
        let b = run_node(&arch, &trace, &spec.with_governor(Governor::Fixed));
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.measured_energy_j, b.measured_energy_j);
    }

    #[test]
    #[should_panic(expected = "P-state")]
    fn rejects_bad_frequency() {
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let spec = NodeRunSpec::new(4, hecmix_core::types::Frequency::from_ghz(3.0), 10, 1);
        let _ = run_node(&arch, &trace, &spec);
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn rejects_bad_cores() {
        let arch = reference_arm_arch();
        let trace = WorkloadTrace::batch("ep", ep_demand());
        let spec = NodeRunSpec::new(9, arch.platform.fmax(), 10, 1);
        let _ = run_node(&arch, &trace, &spec);
    }
}
