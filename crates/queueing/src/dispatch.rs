//! Dispatch policies under time-varying load.
//!
//! The paper's introduction motivates heterogeneity with the "cyclic
//! variation in arrival rates" a datacenter sees. This module extends the
//! §IV-E analysis from one arrival rate to a *diurnal profile*: a day is
//! divided into slots, each with its own `λ`, and a dispatch policy picks
//! a cluster configuration per slot. Policies differ in the *menu* of
//! configurations they may choose from:
//!
//! * a homogeneous high-performance pool (related work's busy-hour mode);
//! * a homogeneous low-power pool (the quiet-hour mode);
//! * **switching** — the union of the two pools, one of them per slot
//!   (the KnightShift-style state of the art the paper argues against);
//! * **mix-and-match** — every heterogeneous configuration of the same
//!   hardware.
//!
//! Each slot is evaluated with the M/D/1 window-energy model; a slot whose
//! best feasible configuration still misses the response-time SLO counts
//! as a violation (the policy then picks the fastest configuration and
//! eats the miss, as an operator would).
//!
//! One planner, [`best_choice`] and [`run_day`], serves every menu kind;
//! an entry's [`SlotPricer`] says how it prices a slot: plain
//! ([`ConfigChoice`]), parking clusters in idle gaps ([`ParkableChoice`]),
//! or judged after worst-case node losses ([`ResilientChoice`]).
//! [`best_choice_tail`] plans against a percentile deadline instead.

use serde::{Deserialize, Serialize};

use hecmix_core::config::ClusterPoint;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_core::{Error, Result};

use crate::des::{self, DesConfig, ServiceDist};
use crate::{window_energy, window_energy_sleep, SleepPolicy, MD1};

/// One configuration a policy may choose: the outcome of a cluster
/// configuration for one job, plus the idle power of its powered nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigChoice {
    /// Display label (e.g. `ARM 16(4c@1.40 GHz) + AMD 2(6c@2.10 GHz)`).
    pub label: String,
    /// Job service time, seconds.
    pub service_s: f64,
    /// Energy per job, joules.
    pub job_energy_j: f64,
    /// Idle power of the powered nodes, watts (unused nodes are off).
    pub idle_power_w: f64,
}

impl ConfigChoice {
    /// The entry for `config` serving one job in `service_s` for
    /// `job_energy_j`. `platforms` and `models` are in type order: the
    /// label names the platforms, and the idle draw is each powered type's
    /// nodes × its model's `idle_w`, summed in type order.
    #[must_use]
    pub fn for_config(
        config: &ClusterPoint,
        platforms: &[Platform],
        models: &[WorkloadModel],
        service_s: f64,
        job_energy_j: f64,
    ) -> Self {
        Self {
            label: config.label(platforms),
            service_s,
            job_energy_j,
            idle_power_w: config
                .per_type
                .iter()
                .zip(models)
                .filter_map(|(cfg, m)| cfg.map(|c| f64::from(c.nodes) * m.power.idle_w))
                .sum(),
        }
    }
}

/// The dispatch menu of a frontier: one [`ConfigChoice::for_config`] entry
/// per point, with the point's makespan as its service time.
#[must_use]
pub fn menu_from_frontier(
    frontier: &ParetoFrontier,
    models: &[WorkloadModel],
) -> Vec<ConfigChoice> {
    let platforms: Vec<Platform> = models.iter().map(|m| m.platform.clone()).collect();
    frontier
        .points
        .iter()
        .map(|p| ConfigChoice::for_config(&p.config, &platforms, models, p.time_s, p.energy_j))
        .collect()
}

/// How a menu entry prices one slot for the mean-SLO planner
/// ([`best_choice`], [`run_day`]).
pub trait SlotPricer {
    /// Whether the entries are provisioned against degraded capacity;
    /// reported as `resilient` in each `dispatch_decision` event.
    const RESILIENT: bool = false;

    /// Reject an entry with a non-finite or out-of-range parameter.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] naming the entry.
    fn validate(&self) -> Result<()>;

    /// `(window energy, response the SLO judges, fallback rank)` at
    /// arrival rate `lambda` over `window_s` seconds, or `None` when the
    /// entry is saturated. The fallback picks the entry of least rank and
    /// reports its rank as its response.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)>;
}

impl SlotPricer for ConfigChoice {
    fn validate(&self) -> Result<()> {
        validate_choice("menu entry", self)
    }

    /// Priced by [`window_energy`]; the rank is the mean response.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let we = window_energy(
            lambda,
            window_s,
            self.service_s,
            self.job_energy_j,
            self.idle_power_w,
        )
        .ok()?;
        Some((we.total_j(), we.response_s, we.response_s))
    }
}

/// A sinusoidal diurnal arrival profile:
/// `λ(slot) = base · (1 + amplitude · sin(2π · slot / slots))`, clipped
/// at a small positive floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Mean arrival rate over the day, jobs/second.
    pub base_lambda: f64,
    /// Relative swing in `[0, 1)`: 0 = flat, 0.9 = strong day/night cycle.
    pub amplitude: f64,
    /// Number of slots per day (e.g. 24).
    pub slots: u32,
    /// Slot length in seconds.
    pub slot_s: f64,
}

impl DiurnalProfile {
    /// Validate and construct. `base_lambda` and `slot_s` must be finite
    /// and positive — an infinite slot length would pass a `> 0` check but
    /// poison the per-slot window-energy accounting downstream.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] on a non-finite or non-positive rate or
    /// slot length, an amplitude outside `[0, 1)`, or zero slots.
    pub fn new(base_lambda: f64, amplitude: f64, slots: u32, slot_s: f64) -> Result<Self> {
        if !(base_lambda > 0.0)
            || !base_lambda.is_finite()
            || !(0.0..1.0).contains(&amplitude)
            || slots == 0
            || !(slot_s > 0.0)
            || !slot_s.is_finite()
        {
            return Err(Error::InvalidInput(format!(
                "bad diurnal profile: λ={base_lambda}, amp={amplitude}, slots={slots}, slot_s={slot_s}"
            )));
        }
        Ok(Self {
            base_lambda,
            amplitude,
            slots,
            slot_s,
        })
    }

    /// Arrival rate during `slot`.
    #[must_use]
    pub fn lambda_at(&self, slot: u32) -> f64 {
        let phase = std::f64::consts::TAU * f64::from(slot % self.slots) / f64::from(self.slots);
        (self.base_lambda * (1.0 + self.amplitude * phase.sin())).max(1e-9)
    }

    /// Length of one day, seconds.
    #[must_use]
    pub fn day_s(&self) -> f64 {
        f64::from(self.slots) * self.slot_s
    }

    /// Continuous arrival rate at an arbitrary instant: piecewise-linear
    /// interpolation between *slot midpoints*, wrapping around the day
    /// boundary (the last slot's midpoint connects to the first slot's —
    /// hour 23 interpolates into hour 0, not into a phantom hour 24).
    ///
    /// The per-slot [`Self::lambda_at`] used by [`run_day`] treats each
    /// slot as a constant plateau and wraps by `slot % slots`;
    /// this is its continuous counterpart for trace replay (`hecmix-sched`
    /// synthesizes Poisson arrivals against it). At every slot midpoint
    /// the two agree exactly. Times outside `[0, day)` wrap via
    /// `rem_euclid`, so negative instants are safe too.
    #[must_use]
    pub fn lambda_at_time(&self, t_s: f64) -> f64 {
        let day = self.day_s();
        let t = t_s.rem_euclid(day);
        // Position in midpoint coordinates: slot k's midpoint sits at
        // (k + 0.5)·slot_s, i.e. midpoint coordinate k. For t inside the
        // first half of slot 0 this goes negative, which must select the
        // wrap segment (slots-1 → 0) — the day-boundary off-by-one a
        // plain `floor` + cast would get wrong (casting -0.3 to u32
        // saturates to 0 and would interpolate 0 → 1 instead).
        let pos = t / self.slot_s - 0.5;
        let lo = pos.floor();
        let frac = pos - lo;
        let slots = f64::from(self.slots);
        let s0 = lo.rem_euclid(slots) as u32;
        let s1 = (s0 + 1) % self.slots;
        let (a, b) = (self.lambda_at(s0), self.lambda_at(s1));
        (a + (b - a) * frac).max(1e-9)
    }
}

/// Result of one slot under a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// Slot index.
    pub slot: u32,
    /// Arrival rate in the slot.
    pub lambda: f64,
    /// Index of the chosen configuration in the menu.
    pub choice: usize,
    /// Energy over the slot, joules.
    pub energy_j: f64,
    /// Mean response time in the slot, seconds.
    pub response_s: f64,
    /// Whether the SLO was violated in this slot.
    pub violated: bool,
}

/// Aggregated day under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayOutcome {
    /// Total energy over the day, joules.
    pub energy_j: f64,
    /// Slots that missed the SLO (including saturated ones).
    pub violations: u32,
    /// Per-slot detail.
    pub slots: Vec<SlotOutcome>,
}

/// Validate the per-slot scalars every dispatch entry point shares: a
/// non-finite or non-positive `λ`, window, or SLO must be rejected up
/// front — a NaN deadline compares false against every response time and
/// would silently select an arbitrary configuration (the same hardening
/// PR 2 applied to the `rate_table` sweep entry points).
fn validate_slot_inputs(lambda: f64, window_s: f64, slo_response_s: f64) -> Result<()> {
    if !(lambda > 0.0) || !lambda.is_finite() {
        return Err(Error::InvalidInput(format!(
            "arrival rate must be finite and positive, got {lambda}"
        )));
    }
    if !(window_s > 0.0) || !window_s.is_finite() {
        return Err(Error::InvalidInput(format!(
            "window length must be finite and positive, got {window_s}"
        )));
    }
    if !(slo_response_s > 0.0) || !slo_response_s.is_finite() {
        return Err(Error::InvalidInput(format!(
            "SLO response time must be finite and positive, got {slo_response_s}"
        )));
    }
    Ok(())
}

/// Validate one menu entry (`what` names it in errors): service time must
/// be finite and positive, energies and idle power finite and non-negative.
fn validate_choice(what: &str, c: &ConfigChoice) -> Result<()> {
    if !(c.service_s > 0.0) || !c.service_s.is_finite() {
        return Err(Error::InvalidInput(format!(
            "{what} `{}`: service time must be finite and positive, got {}",
            c.label, c.service_s
        )));
    }
    if !(c.job_energy_j >= 0.0) || !c.job_energy_j.is_finite() {
        return Err(Error::InvalidInput(format!(
            "{what} `{}`: job energy must be finite and non-negative, got {}",
            c.label, c.job_energy_j
        )));
    }
    if !(c.idle_power_w >= 0.0) || !c.idle_power_w.is_finite() {
        return Err(Error::InvalidInput(format!(
            "{what} `{}`: idle power must be finite and non-negative, got {}",
            c.label, c.idle_power_w
        )));
    }
    Ok(())
}

/// For one slot, pick the cheapest menu entry whose judged response meets
/// the SLO; fall back to the entry of least rank (counted as a violation)
/// when none does. Returns `Ok((index, energy, response, violated))`, or
/// `Ok(None)` only when every entry is saturated at this `λ`.
///
/// # Errors
/// [`Error::InvalidInput`] when `lambda`, `window_s`, or `slo_response_s`
/// is non-finite or non-positive, or a menu entry fails
/// [`SlotPricer::validate`].
pub fn best_choice<P: SlotPricer>(
    menu: &[P],
    lambda: f64,
    window_s: f64,
    slo_response_s: f64,
) -> Result<Option<(usize, f64, f64, bool)>> {
    validate_slot_inputs(lambda, window_s, slo_response_s)?;
    for entry in menu {
        entry.validate()?;
    }
    let mut best_ok: Option<(usize, f64, f64)> = None; // (idx, energy, response)
    let mut best_fallback: Option<(usize, f64, f64)> = None; // (idx, energy, rank)
    for (idx, entry) in menu.iter().enumerate() {
        let Some((e, response_s, rank)) = entry.price(lambda, window_s) else {
            continue; // saturated
        };
        if response_s <= slo_response_s && best_ok.as_ref().is_none_or(|(_, be, _)| e < *be) {
            best_ok = Some((idx, e, response_s));
        }
        if best_fallback.as_ref().is_none_or(|(_, _, br)| rank < *br) {
            best_fallback = Some((idx, e, rank));
        }
    }
    Ok(match (best_ok, best_fallback) {
        (Some((i, e, r)), _) => Some((i, e, r, false)),
        (None, Some((i, e, r))) => Some((i, e, r, true)),
        (None, None) => None,
    })
}

/// A percentile deadline: "the `percentile` quantile of the response time
/// must not exceed `deadline_s`" (e.g. p99 ≤ 200 ms), as opposed to the
/// mean-response SLO [`best_choice`] plans against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailTarget {
    /// The quantile, in `(0, 1)` — 0.99 for a p99 deadline.
    pub percentile: f64,
    /// Deadline on that quantile of the response time, seconds.
    pub deadline_s: f64,
}

impl TailTarget {
    /// Validate and construct.
    pub fn new(percentile: f64, deadline_s: f64) -> Result<Self> {
        if !(percentile > 0.0) || !(percentile < 1.0) {
            return Err(Error::InvalidInput(format!(
                "tail percentile must lie in (0, 1), got {percentile}"
            )));
        }
        if !(deadline_s > 0.0) || !deadline_s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "tail deadline must be finite and positive, got {deadline_s}"
            )));
        }
        Ok(Self {
            percentile,
            deadline_s,
        })
    }
}

/// Knobs of the coarse-then-exact DES scoring pass in
/// [`best_choice_tail`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailDesConfig {
    /// Requests per coarse screening run.
    pub coarse_requests: u64,
    /// Requests per exact confirmation run.
    pub exact_requests: u64,
    /// Relative band around the deadline: a coarse tail beyond
    /// `deadline·(1 + band)` rejects the candidate without an exact run.
    pub band: f64,
    /// Base RNG seed; per-candidate seeds derive from it, so a plan is
    /// replayable bit-for-bit.
    pub seed: u64,
}

impl Default for TailDesConfig {
    fn default() -> Self {
        Self {
            coarse_requests: 20_000,
            exact_requests: 200_000,
            band: 0.1,
            seed: 42,
        }
    }
}

impl TailDesConfig {
    fn validate(&self) -> Result<()> {
        if self.coarse_requests == 0
            || self.exact_requests == 0
            || !(self.band >= 0.0)
            || !self.band.is_finite()
        {
            return Err(Error::InvalidInput(format!(
                "TailDesConfig needs coarse/exact requests >= 1 and a finite \
                 non-negative band, got {self:?}"
            )));
        }
        Ok(())
    }
}

/// What [`best_choice_tail`] decided for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailChoiceOutcome {
    /// Index of the chosen configuration in the menu.
    pub index: usize,
    /// Window energy of the chosen configuration, joules.
    pub energy_j: f64,
    /// DES-measured percentile response time of the chosen
    /// configuration, seconds.
    pub tail_response_s: f64,
    /// Analytical M/D/1 mean response of the chosen configuration,
    /// seconds.
    pub mean_response_s: f64,
    /// True when no configuration meets the percentile deadline and the
    /// returned one is the smallest-tail fallback.
    pub violated: bool,
    /// Candidates eliminated by the analytical mean-response screen
    /// without any DES run.
    pub screened_out: usize,
    /// DES runs spent (coarse + exact).
    pub des_runs: u32,
}

/// DES-measured `percentile` response time of one menu entry treated as a
/// single deterministic server at `lambda` (the same abstraction the
/// M/D/1 window-energy model uses: the cluster's mix-and-match schedule
/// serves one job at a time in `service_s`).
fn des_tail(
    lambda: f64,
    service_s: f64,
    percentile: f64,
    n_requests: u64,
    seed: u64,
) -> Result<f64> {
    des::sojourn_quantile(
        &DesConfig {
            pps: lambda,
            n_requests,
            layout: des::CoreLayout::Combined { cores: 1 },
            service: ServiceDist::Constant(service_s),
            net_cost_s: 0.0,
            queue_cap: des::UNBOUNDED,
            flows: 1,
            seed,
        },
        percentile,
    )?
    .ok_or_else(|| {
        Error::InvalidInput(format!(
            "DES produced no completions for percentile {percentile}"
        ))
    })
}

/// Seed for the exact confirmation run of candidate `idx` (decorrelated
/// from its coarse run by an odd 64-bit constant).
fn exact_seed(base: u64, idx: usize) -> u64 {
    base ^ (idx as u64) ^ 0x9e37_79b9_7f4a_7c15
}

/// Percentile-deadline slot choice (ROADMAP item 1): pick the cheapest
/// menu entry whose DES-measured `target.percentile` response time meets
/// `target.deadline_s`.
///
/// Candidates are screened coarse-then-exact (the ROADMAP item 4
/// pattern):
///
/// 1. the analytical M/D/1 *mean* response is a lower bound on any upper
///    quantile's response (the response distribution's p50+ quantiles sit
///    at or above the mean for these service shapes — a stated heuristic,
///    not a theorem), so a candidate whose mean already misses the
///    deadline is rejected with no DES run;
/// 2. survivors are walked cheapest-first; a coarse DES run
///    ([`TailDesConfig::coarse_requests`]) rejects a candidate whose tail
///    overshoots `deadline·(1 + band)`, otherwise an exact run
///    ([`TailDesConfig::exact_requests`]) decides.
///
/// The first candidate whose exact tail meets the deadline wins (cheapest
/// by construction). When none passes, the smallest observed tail is
/// returned with `violated = true`; `Ok(None)` only when every entry is
/// saturated at `lambda`.
///
/// # Errors
/// [`Error::InvalidInput`] for non-finite or non-positive slot scalars, a
/// malformed menu entry, or a malformed `des_cfg`.
pub fn best_choice_tail(
    menu: &[ConfigChoice],
    lambda: f64,
    window_s: f64,
    target: TailTarget,
    des_cfg: &TailDesConfig,
) -> Result<Option<TailChoiceOutcome>> {
    validate_slot_inputs(lambda, window_s, target.deadline_s)?;
    let target = TailTarget::new(target.percentile, target.deadline_s)?;
    des_cfg.validate()?;
    for c in menu {
        c.validate()?;
    }

    // Analytical screen: saturated entries are out entirely; entries whose
    // M/D/1 mean response already misses the deadline are out without a
    // DES run, and the fastest of them is kept for the fallback.
    let mut screened_out = 0usize;
    let mut fastest_screened: Option<(usize, f64, f64)> = None; // (idx, energy, mean response)
    let mut survivors: Vec<(usize, f64, f64)> = Vec::new(); // (idx, energy, mean response)
    for (idx, c) in menu.iter().enumerate() {
        let Some((energy_j, response_s, _)) = c.price(lambda, window_s) else {
            continue; // saturated
        };
        if response_s > target.deadline_s {
            screened_out += 1;
            if fastest_screened
                .as_ref()
                .is_none_or(|(_, _, r)| response_s < *r)
            {
                fastest_screened = Some((idx, energy_j, response_s));
            }
            continue;
        }
        survivors.push((idx, energy_j, response_s));
    }
    if survivors.is_empty() && screened_out == 0 {
        return Ok(None); // everything saturated
    }
    survivors.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut des_runs = 0u32;
    let mut fallback: Option<TailChoiceOutcome> = None; // smallest observed tail
    let mut chosen: Option<TailChoiceOutcome> = None;
    for &(idx, energy_j, mean_response_s) in &survivors {
        let c = &menu[idx];
        let coarse = des_tail(
            lambda,
            c.service_s,
            target.percentile,
            des_cfg.coarse_requests,
            des_cfg.seed ^ idx as u64,
        )?;
        des_runs += 1;
        let outcome = |tail: f64, violated: bool, des_runs: u32| TailChoiceOutcome {
            index: idx,
            energy_j,
            tail_response_s: tail,
            mean_response_s,
            violated,
            screened_out,
            des_runs,
        };
        if coarse > target.deadline_s * (1.0 + des_cfg.band) {
            // Clearly over even at coarse resolution.
            if fallback.as_ref().is_none_or(|f| coarse < f.tail_response_s) {
                fallback = Some(outcome(coarse, true, des_runs));
            }
            continue;
        }
        let exact = des_tail(
            lambda,
            c.service_s,
            target.percentile,
            des_cfg.exact_requests,
            exact_seed(des_cfg.seed, idx),
        )?;
        des_runs += 1;
        if exact <= target.deadline_s {
            chosen = Some(outcome(exact, false, des_runs));
            break; // cheapest-first walk: first pass wins
        }
        if fallback.as_ref().is_none_or(|f| exact < f.tail_response_s) {
            fallback = Some(outcome(exact, true, des_runs));
        }
    }
    // The fallback snapshot may carry a stale run count; pin it to the
    // final tally below.
    if let Some(f) = fallback.as_mut() {
        f.des_runs = des_runs;
    }

    // Every survivor got a DES run, so nothing chosen and no fallback
    // means every stable entry was screened out analytically: report the
    // fastest of them as the violating fallback, with its DES tail
    // measured once.
    let result = match (chosen, fallback) {
        (Some(c), _) => Some(c),
        (None, Some(f)) => Some(f),
        (None, None) => match fastest_screened {
            None => None,
            Some((idx, energy_j, mean_response_s)) => {
                let tail = des_tail(
                    lambda,
                    menu[idx].service_s,
                    target.percentile,
                    des_cfg.exact_requests,
                    exact_seed(des_cfg.seed, idx),
                )?;
                des_runs += 1;
                Some(TailChoiceOutcome {
                    index: idx,
                    energy_j,
                    tail_response_s: tail,
                    mean_response_s,
                    violated: true,
                    screened_out,
                    des_runs,
                })
            }
        },
    };
    if let Some(ref out) = result {
        hecmix_obs::emit(|| hecmix_obs::Event::TailPlan {
            lambda,
            percentile: target.percentile,
            deadline_s: target.deadline_s,
            candidates: menu.len(),
            screened_out,
            des_runs: u64::from(out.des_runs),
            chosen: out.index,
            tail_s: out.tail_response_s,
            violated: out.violated,
        });
    }
    Ok(result)
}

/// Run a whole day under one menu. A slot where even the fastest
/// configuration is saturated contributes zero energy but counts as a
/// violation (the queue is unstable — energy accounting is moot).
///
/// # Errors
/// [`Error::InvalidInput`] from [`best_choice`] for a bad SLO or menu.
pub fn run_day<P: SlotPricer>(
    menu: &[P],
    profile: &DiurnalProfile,
    slo_response_s: f64,
) -> Result<DayOutcome> {
    let mut slots = Vec::with_capacity(profile.slots as usize);
    let mut energy_j = 0.0;
    let mut violations = 0;
    for slot in 0..profile.slots {
        let lambda = profile.lambda_at(slot);
        match best_choice(menu, lambda, profile.slot_s, slo_response_s)? {
            Some((choice, e, response_s, violated)) => {
                hecmix_obs::emit(|| hecmix_obs::Event::DispatchDecision {
                    slot: slot as usize,
                    lambda,
                    choice,
                    energy_j: e,
                    response_s,
                    violated,
                    resilient: P::RESILIENT,
                });
                energy_j += e;
                violations += u32::from(violated);
                slots.push(SlotOutcome {
                    slot,
                    lambda,
                    choice,
                    energy_j: e,
                    response_s,
                    violated,
                });
            }
            None => {
                violations += 1;
                slots.push(SlotOutcome {
                    slot,
                    lambda,
                    choice: usize::MAX,
                    energy_j: 0.0,
                    response_s: f64::INFINITY,
                    violated: true,
                });
            }
        }
    }
    Ok(DayOutcome {
        energy_j,
        violations,
        slots,
    })
}

/// A menu entry whose powered nodes may park their whole power domains
/// during idle gaps: the configuration plus an optional cluster-sleep
/// capability (from the model bundle's DVFS power-domain tree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkableChoice {
    /// The configuration as dispatched.
    pub choice: ConfigChoice,
    /// Cluster-sleep capability; `None` keeps the always-on idle floor.
    pub sleep: Option<SleepPolicy>,
}

impl SlotPricer for ParkableChoice {
    fn validate(&self) -> Result<()> {
        validate_choice("parkable menu entry", &self.choice)?;
        self.sleep
            .as_ref()
            .map_or(Ok(()), |sleep| sleep.validate(self.choice.idle_power_w))
    }

    /// With a sleep capability, priced by [`window_energy_sleep`]: in
    /// low-`λ` troughs (long exponential idle gaps) whole clusters earn
    /// their deep-sleep credit. Responses are unchanged — parking happens
    /// strictly between jobs. Without one, priced as its
    /// [`ConfigChoice`].
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let Some(sleep) = &self.sleep else {
            return self.choice.price(lambda, window_s);
        };
        let c = &self.choice;
        let we = window_energy_sleep(
            lambda,
            window_s,
            c.service_s,
            c.job_energy_j,
            c.idle_power_w,
            sleep,
        )
        .ok()?;
        Some((we.total_j(), we.response_s, we.response_s))
    }
}

/// A menu entry annotated with its worst-case `k`-failure service time:
/// the same deployment after losing its `k` most valuable nodes (from
/// `hecmix_core::resilience::ResilientTable::degraded_outcome`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientChoice {
    /// The configuration as it runs when nothing fails.
    pub nominal: ConfigChoice,
    /// Job service time after the worst-case `k` node losses, seconds
    /// (`≥ nominal.service_s`).
    pub degraded_service_s: f64,
}

impl SlotPricer for ResilientChoice {
    const RESILIENT: bool = true;

    fn validate(&self) -> Result<()> {
        validate_choice("resilient menu entry", &self.nominal)?;
        if !(self.degraded_service_s >= self.nominal.service_s)
            || !self.degraded_service_s.is_finite()
        {
            return Err(Error::InvalidInput(format!(
                "resilient menu entry `{}`: degraded service time must be finite and ≥ nominal ({}), got {}",
                self.nominal.label, self.nominal.service_s, self.degraded_service_s
            )));
        }
        Ok(())
    }

    /// Failure-aware pricing: the SLO judges the M/D/1 mean response of
    /// the *degraded* service time — the slot must still meet its SLO
    /// after the worst-case `k` node losses — while energy and saturation
    /// are *nominal*, since that is what the cluster spends in the
    /// (overwhelmingly common) fault-free slot. A degraded queue that
    /// saturates judges as ∞, so the entry survives only as a fallback,
    /// ranked by its nominal response.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let (energy_j, nominal_response_s, _) = self.nominal.price(lambda, window_s)?;
        let degraded_response_s = MD1::new(lambda, self.degraded_service_s)
            .and_then(|q| q.mean_response_s())
            .unwrap_or(f64::INFINITY);
        let rank = if degraded_response_s.is_finite() {
            degraded_response_s
        } else {
            nominal_response_s
        };
        Some((energy_j, degraded_response_s, rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn menu() -> Vec<ConfigChoice> {
        vec![
            // A fast, expensive configuration (AMD-heavy).
            ConfigChoice {
                label: "fast".into(),
                service_s: 0.025,
                job_energy_j: 20.0,
                idle_power_w: 700.0,
            },
            // A slow, cheap one (ARM-only).
            ConfigChoice {
                label: "cheap".into(),
                service_s: 0.40,
                job_energy_j: 7.5,
                idle_power_w: 25.0,
            },
        ]
    }

    #[test]
    fn diurnal_profile_shape() {
        let p = DiurnalProfile::new(1.0, 0.5, 24, 3600.0).unwrap();
        let lambdas: Vec<f64> = (0..24).map(|s| p.lambda_at(s)).collect();
        let max = lambdas.iter().cloned().fold(0.0f64, f64::max);
        let min = lambdas.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.5).abs() < 0.01, "peak {max}");
        assert!((min - 0.5).abs() < 0.01, "trough {min}");
        // Periodic.
        assert_eq!(p.lambda_at(0), p.lambda_at(24));
        // Degenerate profiles rejected.
        assert!(DiurnalProfile::new(0.0, 0.5, 24, 3600.0).is_err());
        assert!(DiurnalProfile::new(1.0, 1.0, 24, 3600.0).is_err());
        assert!(DiurnalProfile::new(1.0, 0.5, 0, 3600.0).is_err());
        // Non-finite rate/slot length must be rejected at construction,
        // not only when a run_day* entry point later touches them.
        assert!(DiurnalProfile::new(f64::INFINITY, 0.5, 24, 3600.0).is_err());
        assert!(DiurnalProfile::new(f64::NAN, 0.5, 24, 3600.0).is_err());
        assert!(DiurnalProfile::new(1.0, 0.5, 24, f64::INFINITY).is_err());
        assert!(DiurnalProfile::new(1.0, 0.5, 24, f64::NAN).is_err());
    }

    #[test]
    fn diurnal_interpolation_wraps_the_day_boundary() {
        // Day-wrap audit (ISSUE 10, satellite 2): the continuous profile
        // must interpolate hour 23 into hour 0, with no discontinuity and
        // no off-by-one at either end of the day.
        let p = DiurnalProfile::new(1.0, 0.5, 24, 3600.0).unwrap();
        let day = p.day_s();

        // Exact agreement with the discrete profile at every midpoint,
        // including slot 0 and the last slot.
        for s in 0..24u32 {
            let mid = (f64::from(s) + 0.5) * p.slot_s;
            assert!(
                (p.lambda_at_time(mid) - p.lambda_at(s)).abs() < 1e-12,
                "midpoint of slot {s}"
            );
        }

        // The 23 → 0 wrap segment is linear between the two midpoints:
        // t = 0 lies exactly halfway between midpoint(23) and midpoint(0).
        let expected_at_zero = 0.5 * (p.lambda_at(23) + p.lambda_at(0));
        assert!((p.lambda_at_time(0.0) - expected_at_zero).abs() < 1e-12);
        // Same point approached from the end of the day.
        assert!((p.lambda_at_time(day) - expected_at_zero).abs() < 1e-9);

        // Continuity across the boundary: a tiny step over midnight moves
        // the rate by no more than the wrap segment's slope allows.
        let slope = (p.lambda_at(0) - p.lambda_at(23)).abs() / p.slot_s;
        let eps = 1e-3;
        let before = p.lambda_at_time(day - eps);
        let after = p.lambda_at_time(day + eps);
        assert!(
            (after - before).abs() <= slope * 2.0 * eps + 1e-9,
            "jump across midnight: {before} -> {after}"
        );

        // Periodic and defined for negative instants.
        assert!((p.lambda_at_time(-1.0) - p.lambda_at_time(day - 1.0)).abs() < 1e-9);
        assert!((p.lambda_at_time(2.0 * day + 7.0) - p.lambda_at_time(7.0)).abs() < 1e-9);

        // The discrete lookup run_day uses wraps too (hour 24 == hour 0) —
        // pinned here next to the continuous case.
        assert_eq!(p.lambda_at(24), p.lambda_at(0));
    }

    #[test]
    fn idle_gap_energy_prices_sleep_only_past_residency() {
        use crate::idle_gap_energy_j;
        let sleep = SleepPolicy {
            sleep_power_w: 2.0,
            residency_s: 10.0,
        };
        // Short gap: always-on idle floor.
        assert!((idle_gap_energy_j(5.0, 8.0, &sleep) - 40.0).abs() < 1e-12);
        // Long gap: whole gap at the deep floor.
        assert!((idle_gap_energy_j(20.0, 8.0, &sleep) - 40.0).abs() < 1e-12);
        // Exactly at residency: parks (>=, matching the simulator).
        assert!((idle_gap_energy_j(10.0, 8.0, &sleep) - 20.0).abs() < 1e-12);
        // A domain asleep at the idle floor: exactly the idle floor.
        let floor = SleepPolicy {
            sleep_power_w: 8.0,
            residency_s: 0.0,
        };
        for gap in [1e-9, 0.3, 10.0, 7e5] {
            assert_eq!(
                idle_gap_energy_j(gap, 8.0, &floor).to_bits(),
                (8.0 * gap).to_bits()
            );
        }
        // Degenerate gaps are free, not errors.
        assert_eq!(idle_gap_energy_j(0.0, 8.0, &floor), 0.0);
        assert_eq!(idle_gap_energy_j(-3.0, 8.0, &sleep), 0.0);
        assert_eq!(idle_gap_energy_j(f64::NAN, 8.0, &floor), 0.0);
    }

    fn parkable_menu() -> Vec<ParkableChoice> {
        menu()
            .into_iter()
            .map(|choice| {
                let sleep = Some(SleepPolicy {
                    sleep_power_w: choice.idle_power_w * 0.1,
                    residency_s: 0.05,
                });
                ParkableChoice { choice, sleep }
            })
            .collect()
    }

    #[test]
    fn parking_day_never_costs_more_than_plain_day() {
        let profile = DiurnalProfile::new(1.0, 0.1, 24, 3600.0).unwrap();
        let slo = 1.0;
        let plain = run_day(&menu(), &profile, slo).unwrap();
        let parked = run_day(&parkable_menu(), &profile, slo).unwrap();
        assert!(parked.energy_j < plain.energy_j, "no cluster-sleep savings");
        assert!(parked.violations <= plain.violations);
        // A sleep-less parkable menu, and a resilient menu that loses no
        // capacity, reproduce the plain day exactly — saturated slots too.
        let no_sleep: Vec<ParkableChoice> = menu()
            .into_iter()
            .map(|choice| ParkableChoice {
                choice,
                sleep: None,
            })
            .collect();
        let no_loss: Vec<ResilientChoice> = menu()
            .into_iter()
            .map(|nominal| ResilientChoice {
                degraded_service_s: nominal.service_s,
                nominal,
            })
            .collect();
        let peaked = DiurnalProfile::new(30.0, 0.5, 24, 3600.0).unwrap();
        for profile in [profile, peaked] {
            let plain = run_day(&menu(), &profile, slo).unwrap();
            assert_eq!(run_day(&no_sleep, &profile, slo).unwrap(), plain);
            assert_eq!(run_day(&no_loss, &profile, slo).unwrap(), plain);
        }
    }

    #[test]
    fn parking_savings_concentrate_in_troughs() {
        let profile = DiurnalProfile::new(1.0, 0.9, 24, 3600.0).unwrap();
        let slo = 5.0;
        // Pin the menu to the single cheap configuration so every slot
        // runs the same hardware and the sleep credit depends only on λ.
        let plain_menu = vec![menu().remove(1)];
        let park_menu = vec![parkable_menu().remove(1)];
        let plain = run_day(&plain_menu, &profile, slo).unwrap();
        let parked = run_day(&park_menu, &profile, slo).unwrap();
        // Idle gaps are long when λ is small, so the deep-sleep credit
        // must be larger in the trough than at the peak.
        let (mut trough_saving, mut peak_saving) = (0.0f64, 0.0f64);
        for (p, q) in plain.slots.iter().zip(&parked.slots) {
            let saving = p.energy_j - q.energy_j;
            if p.lambda < 0.2 {
                trough_saving = trough_saving.max(saving);
            } else if p.lambda > 1.5 {
                peak_saving = peak_saving.max(saving);
            }
        }
        assert!(
            trough_saving > peak_saving && peak_saving > 0.0,
            "trough {trough_saving} vs peak {peak_saving}"
        );
    }

    #[test]
    fn parking_rejects_invalid_sleep_policies() {
        let mut m = parkable_menu();
        m[0].sleep = Some(SleepPolicy {
            sleep_power_w: m[0].choice.idle_power_w + 1.0,
            residency_s: 0.0,
        });
        assert!(best_choice(&m, 0.5, 3600.0, 1.0).is_err());
        let mut m = parkable_menu();
        m[1].sleep = Some(SleepPolicy {
            sleep_power_w: f64::NAN,
            residency_s: 0.0,
        });
        assert!(best_choice(&m, 0.5, 3600.0, 1.0).is_err());
    }

    #[test]
    fn best_choice_prefers_cheap_when_slack() {
        let m = menu();
        // λ low, SLO loose: the cheap configuration wins.
        let (idx, _, _, violated) = best_choice(&m, 0.5, 3600.0, 1.0).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert!(!violated);
        // SLO tight (50 ms): only the fast configuration qualifies.
        let (idx, _, _, violated) = best_choice(&m, 0.5, 3600.0, 0.05).unwrap().unwrap();
        assert_eq!(idx, 0);
        assert!(!violated);
    }

    #[test]
    fn best_choice_falls_back_and_flags_violation() {
        let m = menu();
        // SLO impossible (1 ms): fastest config chosen, violation flagged.
        let (idx, _, _, violated) = best_choice(&m, 0.5, 3600.0, 0.001).unwrap().unwrap();
        assert_eq!(idx, 0);
        assert!(violated);
        // λ beyond every config's saturation: nothing to pick.
        assert!(best_choice(&m, 1000.0, 3600.0, 1.0).unwrap().is_none());
    }

    #[test]
    fn day_accounting() {
        let m = menu();
        let p = DiurnalProfile::new(1.0, 0.8, 24, 600.0).unwrap();
        let day = run_day(&m, &p, 0.5).unwrap();
        assert_eq!(day.slots.len(), 24);
        assert_eq!(day.violations, 0);
        assert!(day.energy_j > 0.0);
        let sum: f64 = day.slots.iter().map(|s| s.energy_j).sum();
        assert!((sum - day.energy_j).abs() < 1e-9);
        // The policy switches with load: both menu entries get used.
        let used: std::collections::HashSet<usize> = day.slots.iter().map(|s| s.choice).collect();
        assert!(used.contains(&0) && used.contains(&1), "{used:?}");
    }

    #[test]
    fn richer_menu_never_costs_more() {
        // A menu that is a superset can only do better or equal.
        let small = vec![menu()[0].clone()];
        let big = menu();
        let p = DiurnalProfile::new(1.0, 0.6, 24, 600.0).unwrap();
        let day_small = run_day(&small, &p, 0.5).unwrap();
        let day_big = run_day(&big, &p, 0.5).unwrap();
        assert!(day_big.energy_j <= day_small.energy_j + 1e-9);
        assert!(day_big.violations <= day_small.violations);
    }

    fn resilient_menu() -> Vec<ResilientChoice> {
        // Degraded service times: the fast entry barely degrades (big
        // cluster), the cheap one doubles (a one-node loss hurts).
        vec![
            ResilientChoice {
                nominal: menu()[0].clone(),
                degraded_service_s: 0.030,
            },
            ResilientChoice {
                nominal: menu()[1].clone(),
                degraded_service_s: 0.80,
            },
        ]
    }

    #[test]
    fn resilient_choice_provisions_against_degraded_service() {
        let m = resilient_menu();
        // At an SLO of 1.5 s both degraded queues are fine at low λ (the
        // cheap entry's degraded response is ≈ 1.07 s): the cheap entry
        // still wins, and energy is the nominal one.
        let (idx, e, _, violated) = best_choice(&m, 0.5, 3600.0, 1.5).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert!(!violated);
        let (nidx, ne, _, _) = best_choice(&menu(), 0.5, 3600.0, 1.5).unwrap().unwrap();
        assert_eq!(nidx, 1);
        assert!((e - ne).abs() < 1e-9, "resilient energy must be nominal");

        // An SLO of 0.9 s passes nominally for the cheap entry but fails
        // after a failure (degraded response > 0.9): the resilient policy
        // must pay for the fast entry where the naive one would not.
        let (idx, _, _, violated) = best_choice(&m, 1.1, 3600.0, 0.9).unwrap().unwrap();
        assert_eq!(idx, 0);
        assert!(!violated);
        let (nidx, _, _, _) = best_choice(&menu(), 1.1, 3600.0, 0.9).unwrap().unwrap();
        assert_eq!(nidx, 1, "nominal policy is happy with the cheap entry");

        // Whole-day: provisioning for failures can only cost more energy.
        let p = DiurnalProfile::new(1.0, 0.6, 24, 600.0).unwrap();
        let naive = run_day(&menu(), &p, 0.5).unwrap();
        let resilient = run_day(&m, &p, 0.5).unwrap();
        assert!(resilient.energy_j >= naive.energy_j - 1e-9);
        assert_eq!(resilient.violations, 0);
    }

    #[test]
    fn resilient_fallback_prefers_surviving_entries() {
        // λ saturates the cheap entry's degraded queue (1/0.8 = 1.25) but
        // not its nominal one; SLO impossible for everyone. The fallback
        // must rank the fast entry first (finite degraded response).
        let m = resilient_menu();
        let (idx, _, _, violated) = best_choice(&m, 2.0, 3600.0, 1e-4).unwrap().unwrap();
        assert_eq!(idx, 0);
        assert!(violated);
    }

    fn quick_des() -> TailDesConfig {
        TailDesConfig {
            coarse_requests: 5_000,
            exact_requests: 20_000,
            ..TailDesConfig::default()
        }
    }

    #[test]
    fn tail_choice_prefers_cheap_when_deadline_is_loose() {
        let m = menu();
        // λ = 1, p99 ≤ 2 s: the cheap entry (ρ = 0.4) has plenty of room.
        let out = best_choice_tail(
            &m,
            1.0,
            3600.0,
            TailTarget::new(0.99, 2.0).unwrap(),
            &quick_des(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.index, 1);
        assert!(!out.violated);
        assert!(out.tail_response_s <= 2.0, "tail {}", out.tail_response_s);
        // The DES-confirmed tail sits above the analytic mean.
        assert!(out.tail_response_s >= out.mean_response_s);
    }

    #[test]
    fn tail_choice_screens_analytically_before_simulating() {
        let m = menu();
        // p99 ≤ 50 ms: the cheap entry's *mean* response (≈ 533 ms at
        // λ = 1) already misses, so it must be rejected with zero DES
        // runs; only the fast entry gets simulated.
        let out = best_choice_tail(
            &m,
            1.0,
            3600.0,
            TailTarget::new(0.99, 0.05).unwrap(),
            &quick_des(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.index, 0);
        assert!(!out.violated);
        assert_eq!(out.screened_out, 1, "cheap entry screened analytically");
        assert_eq!(out.des_runs, 2, "one coarse + one exact for the fast entry");
    }

    #[test]
    fn tail_choice_falls_back_and_flags_violation() {
        let m = menu();
        // p99 ≤ 1 ms is impossible (fast service alone is 25 ms): the
        // fastest entry comes back flagged.
        let out = best_choice_tail(
            &m,
            0.5,
            3600.0,
            TailTarget::new(0.99, 0.001).unwrap(),
            &quick_des(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.index, 0);
        assert!(out.violated);
        assert!(out.tail_response_s > 0.001);
        // Saturated everywhere: nothing to pick.
        assert!(best_choice_tail(
            &m,
            1000.0,
            3600.0,
            TailTarget::new(0.99, 1.0).unwrap(),
            &quick_des(),
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn tail_choice_is_deterministic() {
        let m = menu();
        let run = || {
            best_choice_tail(
                &m,
                1.2,
                3600.0,
                TailTarget::new(0.99, 1.5).unwrap(),
                &quick_des(),
            )
            .unwrap()
            .unwrap()
        };
        assert_eq!(run(), run(), "same seed must replay bit-for-bit");
    }

    #[test]
    fn tail_choice_rejects_bad_inputs() {
        let m = menu();
        assert!(TailTarget::new(0.0, 1.0).is_err());
        assert!(TailTarget::new(1.0, 1.0).is_err());
        assert!(TailTarget::new(0.99, f64::NAN).is_err());
        let t = TailTarget::new(0.99, 1.0).unwrap();
        assert!(best_choice_tail(&m, f64::NAN, 3600.0, t, &quick_des()).is_err());
        let bad = TailDesConfig {
            coarse_requests: 0,
            ..quick_des()
        };
        assert!(best_choice_tail(&m, 1.0, 3600.0, t, &bad).is_err());
    }
}
