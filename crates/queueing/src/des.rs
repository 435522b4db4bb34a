//! Request-level discrete-event serving simulator (ROADMAP item 1).
//!
//! The analytical queueing layer ([`crate::MD1`], [`crate::MG1`]) predicts
//! *mean* delay; interactive sizing is about tails. This module simulates a
//! serving configuration at the request level — open-loop Poisson arrivals
//! at a configurable packet rate, RSS-style flow→core indirection, per-core
//! bounded FIFO queues with drop accounting, dedicated network cores vs
//! combined layouts, and constant/exponential/bimodal service-time
//! distributions — and emits the full sojourn-time CDF
//! (p50/p95/p99/p999) per configuration.
//!
//! Runs are seeded and bit-replayable like `hecmix-sim`: the same
//! [`DesConfig`] (including `seed`) reproduces the exact per-request
//! latency samples, so CDFs compare bit-for-bit across machines.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hecmix_core::{Error, Result};

/// Number of entries in the RSS-style flow→core indirection table.
///
/// Real NICs hash the flow tuple into a small indirection table (128
/// entries on many devices) whose slots name the receive core; we model
/// the same two-level mapping so flow skew and core imbalance are visible.
pub const RSS_TABLE_ENTRIES: usize = 128;

/// Per-request service-time distribution at the application stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceDist {
    /// Every request takes exactly this many seconds (M/D/c-style).
    Constant(f64),
    /// Exponentially distributed with this mean, seconds (M/M/c-style).
    Exponential(f64),
    /// Two-point mixture: most requests are `fast_s`, a `slow_weight`
    /// fraction take `slow_s` (models the GET/SET or hit/miss split of
    /// the interactive workloads).
    Bimodal {
        /// Service time of the fast class, seconds.
        fast_s: f64,
        /// Service time of the slow class, seconds.
        slow_s: f64,
        /// Probability a request is slow, in `[0, 1]`.
        slow_weight: f64,
    },
}

impl ServiceDist {
    /// Validate the distribution parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: &str, v: f64| {
            Err(Error::InvalidInput(format!(
                "ServiceDist needs positive finite times, got {what}={v}"
            )))
        };
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => {
                if !(s > 0.0) || !s.is_finite() {
                    return bad("service_s", s);
                }
            }
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                if !(fast_s > 0.0) || !fast_s.is_finite() {
                    return bad("fast_s", fast_s);
                }
                if !(slow_s > 0.0) || !slow_s.is_finite() {
                    return bad("slow_s", slow_s);
                }
                if !(0.0..=1.0).contains(&slow_weight) || !slow_weight.is_finite() {
                    return Err(Error::InvalidInput(format!(
                        "ServiceDist bimodal slow_weight must lie in [0, 1], got {slow_weight}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Mean service time, seconds.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => s,
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => (1.0 - slow_weight) * fast_s + slow_weight * slow_s,
        }
    }

    /// Squared coefficient of variation (`Var[S]/E[S]²`) — plugs straight
    /// into the [`crate::MG1`] Pollaczek–Khinchine screen.
    #[must_use]
    pub fn scv(&self) -> f64 {
        match *self {
            ServiceDist::Constant(_) => 0.0,
            ServiceDist::Exponential(_) => 1.0,
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                let mean = (1.0 - slow_weight) * fast_s + slow_weight * slow_s;
                let ex2 = (1.0 - slow_weight) * fast_s * fast_s + slow_weight * slow_s * slow_s;
                let var = (ex2 - mean * mean).max(0.0);
                if mean > 0.0 {
                    var / (mean * mean)
                } else {
                    0.0
                }
            }
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            ServiceDist::Constant(s) => s,
            ServiceDist::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * mean
            }
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                if rng.gen_bool(slow_weight) {
                    slow_s
                } else {
                    fast_s
                }
            }
        }
    }
}

/// How cores are split between network and application processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreLayout {
    /// Every core does both network and application work for its flows;
    /// one queue per core.
    Combined {
        /// Number of cores.
        cores: u32,
    },
    /// Dedicated network cores strip protocol headers (cost
    /// [`DesConfig::net_cost_s`] each), then hand requests to application
    /// cores through a second flow-hashed stage; one bounded queue per
    /// core at each stage.
    Dedicated {
        /// Cores running network processing (stage 1).
        net_cores: u32,
        /// Cores running application processing (stage 2).
        app_cores: u32,
    },
}

impl CoreLayout {
    fn validate(&self) -> Result<()> {
        let ok = match *self {
            CoreLayout::Combined { cores } => cores >= 1,
            CoreLayout::Dedicated {
                net_cores,
                app_cores,
            } => net_cores >= 1 && app_cores >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidInput(format!(
                "CoreLayout needs at least one core per stage, got {self:?}"
            )))
        }
    }
}

/// One request-level simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Open-loop Poisson arrival rate, requests (packets) per second.
    pub pps: f64,
    /// Number of arrivals to generate.
    pub n_requests: u64,
    /// Core layout (combined, or dedicated network vs application cores).
    pub layout: CoreLayout,
    /// Application-stage service-time distribution.
    pub service: ServiceDist,
    /// Per-request network-processing cost, seconds (stage-1 work in
    /// dedicated layouts; folded into the single stage when combined).
    pub net_cost_s: f64,
    /// Maximum requests in system *per core* (in service + queued);
    /// arrivals beyond it are dropped. Use [`UNBOUNDED`] for no cap.
    pub queue_cap: usize,
    /// Number of distinct flows; each request belongs to one flow and
    /// flows pin to cores through the RSS indirection table.
    pub flows: u32,
    /// RNG seed; same config + seed ⇒ bit-identical latency samples.
    pub seed: u64,
}

/// Sentinel for [`DesConfig::queue_cap`]: never drop.
pub const UNBOUNDED: usize = usize::MAX;

/// Largest fraction of the mean per-request service that the arrival
/// clock's f64 spacing may reach (see [`DesConfig::validate`]).
const CLOCK_RESOLUTION: f64 = 1e-3;

impl DesConfig {
    /// Validate every field (positive finite rate, at least one request,
    /// valid layout/distribution, non-negative finite net cost, at least
    /// one flow and a queue capacity of at least one), and that the
    /// arrival clock can resolve the service times.
    ///
    /// The clock runs to about `n_requests / pps` seconds, where its f64
    /// spacing is about `f64::EPSILON · n_requests / pps`. Every sojourn
    /// is a difference `(t + s) − t` on that clock, so once the spacing
    /// nears the service time a sojourn rounds to 0, and a clock past
    /// `f64::MAX` turns it into NaN. The config is rejected when the
    /// spacing exceeds 0.1 % of the mean per-request service
    /// (`net_cost_s` plus the mean application service): at 200 000
    /// requests, only below a utilisation of about 4·10⁻⁸.
    pub fn validate(&self) -> Result<()> {
        if !(self.pps > 0.0) || !self.pps.is_finite() {
            return Err(Error::InvalidInput(format!(
                "DesConfig needs a positive finite pps, got {}",
                self.pps
            )));
        }
        if self.n_requests == 0 {
            return Err(Error::InvalidInput(
                "DesConfig needs n_requests >= 1".into(),
            ));
        }
        self.layout.validate()?;
        self.service.validate()?;
        if !(self.net_cost_s >= 0.0) || !self.net_cost_s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "DesConfig needs a non-negative finite net_cost_s, got {}",
                self.net_cost_s
            )));
        }
        if self.queue_cap == 0 {
            return Err(Error::InvalidInput(
                "DesConfig needs queue_cap >= 1 (use UNBOUNDED for no cap)".into(),
            ));
        }
        if self.flows == 0 {
            return Err(Error::InvalidInput("DesConfig needs flows >= 1".into()));
        }
        let horizon_s = self.n_requests as f64 / self.pps;
        let service_s = self.net_cost_s + self.service.mean_s();
        if !horizon_s.is_finite() || f64::EPSILON * horizon_s > CLOCK_RESOLUTION * service_s {
            return Err(Error::InvalidInput(format!(
                "DesConfig arrival clock cannot resolve a {service_s:e} s service over \
                 {} requests at pps {:e} (horizon {horizon_s:e} s); raise pps or lower \
                 n_requests",
                self.n_requests, self.pps
            )));
        }
        Ok(())
    }
}

/// An empirical latency distribution: the sorted per-request samples plus
/// exact order-statistic quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCdf {
    samples: Vec<f64>,
}

impl LatencyCdf {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        // Samples equal under `total_cmp` have equal bits, so the unstable
        // sort's order is the stable one, without its scratch buffer.
        samples.sort_unstable_by(f64::total_cmp);
        Self { samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no request completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted samples (the full empirical CDF).
    #[must_use]
    pub fn sorted(&self) -> &[f64] {
        &self.samples
    }

    /// Exact order-statistic quantile: the smallest sample `x` with at
    /// least `q·n` samples `≤ x`. Returns `None` on an empty CDF or
    /// `q` outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        Some(self.samples[quantile_index(self.samples.len(), q)?])
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Arithmetic mean of the samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// Zero-based index of the exact order-statistic `q`-quantile among `n`
/// samples, the ⌈q·n⌉-th smallest; `None` when `n` is zero or `q` lies
/// outside `(0, 1]`. [`LatencyCdf::quantile`] reads this index of the
/// sorted samples, [`sojourn_quantile`] selects it.
fn quantile_index(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0) || q > 1.0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The `q`-quantile of unsorted `samples`, selected in linear time (the
/// slice is left partitioned around it). Samples equal under `total_cmp`
/// have equal bits, so this is exactly the element a full sort puts there.
fn select_quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    let i = quantile_index(samples.len(), q)?;
    Some(*samples.select_nth_unstable_by(i, f64::total_cmp).1)
}

/// Result of one request-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesOutcome {
    /// Requests generated.
    pub offered: u64,
    /// Requests that completed both stages.
    pub completed: u64,
    /// Requests dropped at a full per-core queue (either stage).
    pub dropped: u64,
    /// Sojourn time (arrival → final departure) of completed requests.
    pub sojourn: LatencyCdf,
    /// Queueing-only wait (sojourn minus all service) of completed
    /// requests.
    pub wait: LatencyCdf,
    /// Simulated horizon: the last departure time, seconds.
    pub duration_s: f64,
}

/// Per-core single-server FIFO.
///
/// Requests are fed in non-decreasing arrival order, and a FIFO server
/// starts each one at `max(arrival, last departure)`, so an unbounded
/// queue needs nothing but its last departure. A bounded queue also keeps
/// the departure times still in system in a deque, popped from the front
/// as they pass, so its in-system count at each arrival is exact.
struct CoreQueue {
    /// Departure time of the last admitted request (0 before the first).
    last_depart: f64,
    /// Capacity and scheduled departures of a bounded queue; `None` for
    /// [`UNBOUNDED`].
    bounded: Option<(usize, VecDeque<f64>)>,
}

impl CoreQueue {
    fn new(cap: usize) -> Self {
        Self {
            last_depart: 0.0,
            bounded: (cap != UNBOUNDED).then(|| (cap, VecDeque::new())),
        }
    }

    /// Offer an arrival at time `t` needing `service` seconds. Returns the
    /// departure time, or `None` if the core's queue is full.
    fn offer(&mut self, t: f64, service: f64) -> Option<f64> {
        let depart = self.last_depart.max(t) + service;
        if let Some((cap, in_system)) = &mut self.bounded {
            while in_system.front().is_some_and(|&d| d <= t) {
                in_system.pop_front();
            }
            if in_system.len() >= *cap {
                return None;
            }
            in_system.push_back(depart);
        }
        self.last_depart = depart;
        Some(depart)
    }
}

/// An RSS-style indirection table: a flow hash picks one of
/// [`RSS_TABLE_ENTRIES`] slots, and slot `i` names core `i mod cores`
/// (slots assigned round-robin over the cores).
struct RssTable([usize; RSS_TABLE_ENTRIES]);

impl RssTable {
    fn new(cores: u32) -> Self {
        Self(std::array::from_fn(|slot| slot % cores as usize))
    }

    /// The core serving flow hash `hash`.
    fn core(&self, hash: usize) -> usize {
        self.0[hash % RSS_TABLE_ENTRIES]
    }
}

/// What one run of the simulation core counted.
struct RunTotals {
    completed: u64,
    dropped: u64,
    duration_s: f64,
}

/// The simulation core behind [`simulate`] and [`sojourn_quantile`], for
/// a `cfg` that passed [`DesConfig::validate`].
///
/// Each arrival is drawn — time, flow, then application service, the
/// order that fixes the RNG stream — and offered at once, so no arrival is
/// buffered. Arrivals come in time order, so each stage is simulated with
/// per-core queues instead of a global event heap. Stage-1 departures of a
/// dedicated layout are not ordered across network cores, so each
/// application core's handoff is sorted by `(time, sequence)` first.
/// Every completed request's `(sojourn, wait)` goes to `complete`.
fn run(cfg: &DesConfig, mut complete: impl FnMut(f64, f64)) -> RunTotals {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut clock = 0.0f64;
    let mut next_arrival = || {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        clock += -u.ln() / cfg.pps; // exponential inter-arrival
        let flow = rng.gen_range(0..cfg.flows);
        (clock, flow as usize, cfg.service.sample(&mut rng))
    };
    let new_queues = |cores: u32| -> Vec<CoreQueue> {
        (0..cores).map(|_| CoreQueue::new(cfg.queue_cap)).collect()
    };
    let mut totals = RunTotals {
        completed: 0,
        dropped: 0,
        duration_s: 0.0,
    };

    match cfg.layout {
        CoreLayout::Combined { cores } => {
            let rss = RssTable::new(cores);
            let mut queues = new_queues(cores);
            for _ in 0..cfg.n_requests {
                let (t, flow, app_service) = next_arrival();
                let service = cfg.net_cost_s + app_service;
                match queues[rss.core(flow)].offer(t, service) {
                    None => totals.dropped += 1,
                    Some(depart) => {
                        complete(depart - t, depart - t - service);
                        totals.completed += 1;
                        totals.duration_s = totals.duration_s.max(depart);
                    }
                }
            }
        }
        CoreLayout::Dedicated {
            net_cores,
            app_cores,
        } => {
            // Stage 1: network cores, constant per-request cost.
            let net_rss = RssTable::new(net_cores);
            let app_rss = RssTable::new(app_cores);
            let mut net = new_queues(net_cores);
            // (app arrival, sequence, original arrival, app service)
            let mut handoff: Vec<Vec<(f64, u64, f64, f64)>> = vec![Vec::new(); app_cores as usize];
            for seq in 0..cfg.n_requests {
                let (t, flow, app_service) = next_arrival();
                match net[net_rss.core(flow)].offer(t, cfg.net_cost_s) {
                    None => totals.dropped += 1,
                    Some(net_depart) => {
                        // Second flow-hashed stage: offset the table walk
                        // so net and app assignments decorrelate.
                        let app = app_rss.core(flow / net_cores as usize + flow);
                        handoff[app].push((net_depart, seq, t, app_service));
                    }
                }
            }
            // Stage 2: application cores, each fed in (time, sequence)
            // order; the keys are unique, so an unstable sort is exact.
            for (app, list) in new_queues(app_cores).iter_mut().zip(&mut handoff) {
                list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(at, _seq, t0, app_service) in list.iter() {
                    match app.offer(at, app_service) {
                        None => totals.dropped += 1,
                        Some(depart) => {
                            complete(depart - t0, depart - t0 - cfg.net_cost_s - app_service);
                            totals.completed += 1;
                            totals.duration_s = totals.duration_s.max(depart);
                        }
                    }
                }
            }
        }
    }
    totals
}

/// Emit the `des_run` event of a finished run. `tails` yields the sojourn
/// p50 and p99 and is only called when a sink is installed.
fn emit_des_run(
    cfg: &DesConfig,
    totals: &RunTotals,
    tails: impl FnOnce() -> (Option<f64>, Option<f64>),
) {
    hecmix_obs::emit(|| {
        let (p50, p99) = tails();
        hecmix_obs::Event::DesRun {
            pps: cfg.pps,
            requests: cfg.n_requests,
            completed: totals.completed,
            dropped: totals.dropped,
            p50_s: p50.unwrap_or(f64::NAN),
            p99_s: p99.unwrap_or(f64::NAN),
            duration_s: totals.duration_s,
            seed: cfg.seed,
        }
    });
}

/// Run the request-level simulation and keep both latency CDFs.
///
/// Arrivals are drawn and offered one at a time, so memory is the sojourn
/// and wait samples (plus the stage-2 handoff of a dedicated layout).
/// Both are sorted in full for the CDFs; a caller that needs one quantile
/// of the sojourn should use [`sojourn_quantile`]. Same `cfg` ⇒
/// bit-identical [`DesOutcome`].
///
/// # Errors
/// [`Error::InvalidInput`] when `cfg` fails [`DesConfig::validate`].
pub fn simulate(cfg: &DesConfig) -> Result<DesOutcome> {
    cfg.validate()?;
    let n = cfg.n_requests as usize;
    let mut sojourn = Vec::with_capacity(n);
    let mut wait = Vec::with_capacity(n);
    let totals = run(cfg, |s, w| {
        sojourn.push(s);
        wait.push(w);
    });
    let out = DesOutcome {
        offered: cfg.n_requests,
        completed: totals.completed,
        dropped: totals.dropped,
        sojourn: LatencyCdf::from_samples(sojourn),
        wait: LatencyCdf::from_samples(wait),
        duration_s: totals.duration_s,
    };
    emit_des_run(cfg, &totals, || (out.sojourn.p50(), out.sojourn.p99()));
    Ok(out)
}

/// The `q`-quantile of the sojourn time: the same run and `des_run` event
/// as [`simulate`], bit-identical to `simulate(cfg)?.sojourn.quantile(q)`,
/// at a fraction of the cost. Only the sojourn samples are kept, and the
/// one order statistic is selected in linear time instead of sorting.
/// `Ok(None)` when nothing completed or `q` lies outside `(0, 1]`.
///
/// # Errors
/// [`Error::InvalidInput`] when `cfg` fails [`DesConfig::validate`].
pub fn sojourn_quantile(cfg: &DesConfig, q: f64) -> Result<Option<f64>> {
    cfg.validate()?;
    let mut sojourn = Vec::with_capacity(cfg.n_requests as usize);
    let totals = run(cfg, |s, _| sojourn.push(s));
    let value = select_quantile(&mut sojourn, q);
    emit_des_run(cfg, &totals, || {
        (
            select_quantile(&mut sojourn, 0.50),
            select_quantile(&mut sojourn, 0.99),
        )
    });
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MD1, MG1};

    fn single_server(pps: f64, service: ServiceDist, n: u64, seed: u64) -> DesConfig {
        DesConfig {
            pps,
            n_requests: n,
            layout: CoreLayout::Combined { cores: 1 },
            service,
            net_cost_s: 0.0,
            queue_cap: UNBOUNDED,
            flows: 1,
            seed,
        }
    }

    const BIMODAL: ServiceDist = ServiceDist::Bimodal {
        fast_s: 50e-6,
        slow_s: 500e-6,
        slow_weight: 0.1,
    };

    /// 2 network × 4 application cores, cap 64, bimodal service.
    fn dedicated_2x4(pps: f64) -> DesConfig {
        DesConfig {
            pps,
            n_requests: 50_000,
            layout: CoreLayout::Dedicated {
                net_cores: 2,
                app_cores: 4,
            },
            service: BIMODAL,
            net_cost_s: 5e-6,
            queue_cap: 64,
            flows: 256,
            seed: 99,
        }
    }

    /// FNV-1a over the little-endian bytes of every sample's bits.
    fn fnv1a(samples: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in samples.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn seeded_runs_are_bit_identical() {
        let cfg = dedicated_2x4(5_000.0);
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        // Bit-identical, not approximately equal: full sample vectors.
        assert_eq!(a, b);
        let c = simulate(&DesConfig { seed: 100, ..cfg }).unwrap();
        assert_ne!(a.sojourn, c.sojourn, "different seed must differ");
    }

    #[test]
    fn des_stream_is_pinned() {
        // Expected bits were captured from the simulator that drew every
        // arrival up front; a change to the RNG draw order or to the queue
        // arithmetic moves them.
        struct Pin {
            completed: u64,
            dropped: u64,
            duration_s: u64,
            /// Sojourn p50, p99 and p999.
            sojourn: [u64; 3],
            wait_p99: u64,
            sojourn_fnv: u64,
        }
        let qs = [0.5, 0.99, 0.999];
        // The tail planner's shape: one core, constant service, unbounded.
        let planner = single_server(0.7 / 100e-6, ServiceDist::Constant(100e-6), 200_000, 7);
        let pins = [
            (
                planner,
                Pin {
                    completed: 200_000,
                    dropped: 0,
                    duration_s: 0x403c_753a_59bb_9655,
                    sojourn: [
                        0x3f26_e0b6_d52e_0000,
                        0x3f49_81e8_c66f_8000,
                        0x3f53_127e_7bac_c000,
                    ],
                    wait_p99: 0x3f46_3b0c_690b_f79a,
                    sojourn_fnv: 0x703d_a7c4_6ee3_38a3,
                },
            ),
            // Loaded until the cap-64 queues drop.
            (
                dedicated_2x4(40_000.0),
                Pin {
                    completed: 49_687,
                    dropped: 313,
                    duration_s: 0x3ff3_f07b_fea8_e592,
                    sojourn: [
                        0x3f5e_da13_4b55_e600,
                        0x3f7c_401b_0354_4e00,
                        0x3f82_86f6_d896_93e0,
                    ],
                    wait_p99: 0x3f7b_a19a_ced1_d220,
                    sojourn_fnv: 0x1856_5c1b_b355_c48c,
                },
            ),
        ];
        for (cfg, pin) in &pins {
            let out = simulate(cfg).unwrap();
            assert_eq!(out.completed, pin.completed, "{cfg:?}");
            assert_eq!(out.dropped, pin.dropped, "{cfg:?}");
            assert_eq!(out.duration_s.to_bits(), pin.duration_s, "{cfg:?}");
            let sojourn = qs.map(|q| out.sojourn.quantile(q).unwrap().to_bits());
            assert_eq!(sojourn, pin.sojourn, "{cfg:?}");
            assert_eq!(out.wait.p99().unwrap().to_bits(), pin.wait_p99, "{cfg:?}");
            assert_eq!(fnv1a(out.sojourn.sorted()), pin.sojourn_fnv, "{cfg:?}");
        }
        let selected = qs.map(|q| sojourn_quantile(&planner, q).unwrap().unwrap().to_bits());
        assert_eq!(selected, pins[0].1.sojourn);
    }

    #[test]
    fn selected_quantile_equals_sorted_quantile() {
        let layouts = [
            CoreLayout::Combined { cores: 1 },
            CoreLayout::Combined { cores: 3 },
            CoreLayout::Dedicated {
                net_cores: 2,
                app_cores: 4,
            },
        ];
        let services = [
            ServiceDist::Constant(100e-6),
            ServiceDist::Exponential(100e-6),
            BIMODAL,
        ];
        let mut drops = 0;
        for layout in layouts {
            let app_cores = match layout {
                CoreLayout::Combined { cores } => cores,
                CoreLayout::Dedicated { app_cores, .. } => app_cores,
            };
            for queue_cap in [8, UNBOUNDED] {
                for service in services {
                    let cfg = DesConfig {
                        pps: 0.9 * f64::from(app_cores) / (service.mean_s() + 5e-6),
                        n_requests: 4_000,
                        layout,
                        service,
                        net_cost_s: 5e-6,
                        queue_cap,
                        flows: 64,
                        seed: 3,
                    };
                    let out = simulate(&cfg).unwrap();
                    drops += out.dropped;
                    for q in [1e-6, 0.5, 0.99, 0.999, 1.0] {
                        let sorted = out.sojourn.quantile(q).map(f64::to_bits);
                        assert!(sorted.is_some());
                        let selected = sojourn_quantile(&cfg, q).unwrap().map(f64::to_bits);
                        assert_eq!(selected, sorted, "{cfg:?} at q={q}");
                    }
                    for q in [0.0, 1.1, f64::NAN] {
                        assert_eq!(out.sojourn.quantile(q), None);
                        assert_eq!(sojourn_quantile(&cfg, q).unwrap(), None);
                    }
                }
            }
        }
        assert!(drops > 0, "the cap-8 runs must exercise dropping");
    }

    #[test]
    fn percentiles_are_monotone_in_utilization() {
        let service = 100e-6;
        let mut prev = 0.0f64;
        for rho in [0.3, 0.5, 0.7, 0.85] {
            let cfg = single_server(
                rho / service,
                ServiceDist::Exponential(service),
                200_000,
                11,
            );
            let out = simulate(&cfg).unwrap();
            let p99 = out.sojourn.p99().unwrap();
            assert!(
                p99 > prev,
                "p99 must grow with ρ: {p99} at ρ={rho} vs {prev}"
            );
            prev = p99;
        }
    }

    #[test]
    fn deterministic_service_has_smaller_tail_than_exponential() {
        // At equal ρ the M/D/1 sojourn tail sits strictly below M/M/1 —
        // service variance is the whole difference.
        let service = 100e-6;
        let rho = 0.7;
        let md = simulate(&single_server(
            rho / service,
            ServiceDist::Constant(service),
            200_000,
            3,
        ))
        .unwrap();
        let mm = simulate(&single_server(
            rho / service,
            ServiceDist::Exponential(service),
            200_000,
            3,
        ))
        .unwrap();
        assert!(
            md.sojourn.p99().unwrap() < mm.sojourn.p99().unwrap(),
            "M/D/1 p99 {} must undercut M/M/1 p99 {}",
            md.sojourn.p99().unwrap(),
            mm.sojourn.p99().unwrap()
        );
    }

    #[test]
    fn mean_wait_matches_pollaczek_khinchine() {
        // Single combined core, no net cost, unbounded: textbook M/G/1.
        for (dist, name) in [
            (ServiceDist::Constant(100e-6), "M/D/1"),
            (ServiceDist::Exponential(100e-6), "M/M/1"),
            (
                ServiceDist::Bimodal {
                    fast_s: 50e-6,
                    slow_s: 500e-6,
                    slow_weight: 0.1,
                },
                "bimodal",
            ),
        ] {
            let rho = 0.6;
            let lambda = rho / dist.mean_s();
            let out = simulate(&single_server(lambda, dist, 400_000, 17)).unwrap();
            let pk = MG1::new(lambda, dist.mean_s(), dist.scv())
                .unwrap()
                .mean_wait_s()
                .unwrap();
            let sim = out.wait.mean().unwrap();
            let rel = (sim - pk).abs() / pk;
            assert!(rel < 0.05, "{name}: sim {sim} vs P-K {pk} (rel {rel})");
        }
    }

    #[test]
    fn wait_p99_matches_md1_distribution() {
        let service = 100e-6;
        let rho = 0.7;
        let lambda = rho / service;
        let out = simulate(&single_server(
            lambda,
            ServiceDist::Constant(service),
            400_000,
            23,
        ))
        .unwrap();
        let analytic = MD1::new(lambda, service)
            .unwrap()
            .wait_quantile(0.99)
            .unwrap();
        let sim = out.wait.p99().unwrap();
        let rel = (sim - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "sim p99 {sim} vs analytic {analytic} (rel {rel})"
        );
    }

    #[test]
    fn bounded_queues_drop_and_unbounded_does_not() {
        let service = 100e-6;
        let saturated = DesConfig {
            queue_cap: 8,
            ..single_server(1.5 / service, ServiceDist::Constant(service), 50_000, 5)
        };
        let out = simulate(&saturated).unwrap();
        assert!(out.dropped > 0, "ρ=1.5 with cap 8 must drop");
        assert_eq!(out.offered, out.completed + out.dropped);
        // Every sojourn is bounded by cap × service (+ slack for the
        // in-service request).
        let worst = out.sojourn.sorted().last().copied().unwrap();
        assert!(worst <= 9.0 * service + 1e-12, "worst sojourn {worst}");

        let open = single_server(0.5 / service, ServiceDist::Constant(service), 50_000, 5);
        let out = simulate(&open).unwrap();
        assert_eq!(out.dropped, 0);
        assert_eq!(out.completed, out.offered);

        // ρ = 2 has no stationary distribution, but an unbounded
        // finite-horizon run is still well-defined: the queue just grows,
        // nothing is dropped and the server stays busy throughout.
        let overloaded = single_server(2.0 / service, ServiceDist::Constant(service), 20_000, 7);
        let out = simulate(&overloaded).unwrap();
        assert_eq!(out.dropped, 0);
        assert_eq!(out.completed, out.offered);
        let wait = out.wait.mean().unwrap();
        assert!(wait.is_finite() && wait > 0.0, "mean wait {wait}");
        assert!(out.sojourn.sorted().iter().all(|s| s.is_finite()));
        let busy = out.completed as f64 * service / out.duration_s;
        assert!((busy - 1.0).abs() < 0.05, "busy fraction {busy}");
    }

    #[test]
    fn dedicated_layout_spreads_flows_and_adds_net_cost() {
        let cfg = DesConfig {
            pps: 1_000.0,
            n_requests: 20_000,
            layout: CoreLayout::Dedicated {
                net_cores: 2,
                app_cores: 2,
            },
            service: ServiceDist::Constant(100e-6),
            net_cost_s: 20e-6,
            queue_cap: UNBOUNDED,
            flows: 512,
            seed: 8,
        };
        let out = simulate(&cfg).unwrap();
        assert_eq!(out.completed, cfg.n_requests);
        // Minimum sojourn is the full pipeline cost.
        let min = out.sojourn.sorted()[0];
        assert!(min >= 120e-6 - 1e-12, "min sojourn {min}");
        // Light load: sojourns should mostly be near the no-wait cost.
        assert!(out.sojourn.p50().unwrap() < 200e-6);
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let ok = single_server(100.0, ServiceDist::Constant(1e-3), 10, 1);
        assert!(simulate(&ok).is_ok());
        assert!(simulate(&DesConfig { pps: 0.0, ..ok }).is_err());
        assert!(simulate(&DesConfig {
            pps: f64::INFINITY,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            n_requests: 0,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            layout: CoreLayout::Combined { cores: 0 },
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            service: ServiceDist::Constant(-1.0),
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            service: ServiceDist::Bimodal {
                fast_s: 1e-3,
                slow_s: 1e-2,
                slow_weight: 1.5
            },
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            net_cost_s: f64::NAN,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig { queue_cap: 0, ..ok }).is_err());
        assert!(simulate(&DesConfig { flows: 0, ..ok }).is_err());
        // The arrival clock must resolve the 1 ms service: at pps 1e-10
        // its spacing near n/pps = 1e11 s is ~2e-5 s, past 0.1 % of the
        // service; at pps 1e-310, n/pps overflows to infinity.
        for pps in [1e-10, 1e-310] {
            let coarse = DesConfig { pps, ..ok };
            assert!(matches!(simulate(&coarse), Err(Error::InvalidInput(_))));
            assert!(matches!(
                sojourn_quantile(&coarse, 0.99),
                Err(Error::InvalidInput(_))
            ));
        }
        assert!(simulate(&DesConfig { pps: 1e-8, ..ok }).is_ok());
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let cdf = LatencyCdf::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.001), Some(1.0));
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.1), None);
        assert_eq!(LatencyCdf::from_samples(vec![]).p99(), None);
        assert_eq!(cdf.mean(), Some(50.5));
    }
}
