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
//! One slot planner serves every menu kind and both kinds of deadline. An
//! entry's [`SlotPricer`] prices a slot and names the service time its
//! deadline judges: plain ([`ConfigChoice`]), parking clusters in idle
//! gaps ([`ParkableChoice`]), or judged after worst-case node losses
//! ([`ResilientChoice`]). The planner judges each entry by one statistic
//! of that service time's M/D/1 queue: the mean response for
//! [`best_choice`] and [`run_day`], the exact response quantile
//! ([`MD1::response_quantile`]) for [`best_choice_tail`].

use serde::{Deserialize, Serialize};

use hecmix_core::config::{ClusterPoint, Labeler};
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::{Error, Result};

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
    /// `job_energy_j`. `labels` names the types, and `models` are in type
    /// order: the idle draw is each powered type's nodes × its model's
    /// `idle_w`, summed in type order.
    #[must_use]
    pub fn for_config(
        config: &ClusterPoint,
        labels: &mut Labeler<'_>,
        models: &[WorkloadModel],
        service_s: f64,
        job_energy_j: f64,
    ) -> Self {
        Self {
            label: labels.label(config),
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
/// per point, with the point's makespan as its service time, all labelled
/// by one [`Labeler`] over the models' platform names.
#[must_use]
pub fn menu_from_frontier(
    frontier: &ParetoFrontier,
    models: &[WorkloadModel],
) -> Vec<ConfigChoice> {
    let mut labels = Labeler::new(models.iter().map(|m| m.platform.name.as_str()));
    frontier
        .points
        .iter()
        .map(|p| ConfigChoice::for_config(&p.config, &mut labels, models, p.time_s, p.energy_j))
        .collect()
}

/// How a menu entry prices one slot for the slot planner ([`best_choice`],
/// [`run_day`], [`best_choice_tail`]).
pub trait SlotPricer {
    /// Whether the entries are provisioned against degraded capacity;
    /// reported as `resilient` in each `dispatch_decision` event.
    const RESILIENT: bool = false;

    /// Reject an entry with a non-finite or out-of-range parameter.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] naming the entry.
    fn validate(&self) -> Result<()>;

    /// `(window energy, service time, service time the deadline judges)`
    /// at arrival rate `lambda` over `window_s` seconds, or `None` when the
    /// entry is saturated. The planner judges the M/D/1 queue of the
    /// judged service time; an entry whose judged queue saturates can only
    /// be a fallback, ranked by its nominal queue.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)>;
}

impl SlotPricer for ConfigChoice {
    fn validate(&self) -> Result<()> {
        validate_choice("menu entry", self)
    }

    /// Priced by [`window_energy`]; the deadline judges the service time.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let we = window_energy(
            lambda,
            window_s,
            self.service_s,
            self.job_energy_j,
            self.idle_power_w,
        )
        .ok()?;
        Some((we.total_j(), self.service_s, self.service_s))
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

/// What [`plan`] picks: `(index, window energy, response, violated,
/// screened_out)`.
type Pick = (usize, f64, f64, bool, usize);

/// The slot planner. `stat` is the statistic of an M/D/1 queue that the
/// deadline judges. The cheapest stable entry whose judged response meets
/// `deadline_s` wins (ties to the lower index). When none does, the entry
/// of least `(rank, window energy)` (ties to the lower index) is flagged
/// as violated and reports its rank as its response; the rank is the
/// judged response, or the nominal one when the judged queue saturates.
/// `screened_out` counts the stable entries whose judged service time
/// alone exceeds the deadline. `None` only when every entry is saturated.
fn plan<P: SlotPricer>(
    menu: &[P],
    lambda: f64,
    window_s: f64,
    deadline_s: f64,
    stat: impl Fn(&MD1) -> Result<f64>,
) -> Result<Option<Pick>> {
    for entry in menu {
        entry.validate()?;
    }
    // The statistic of a service time's queue, ∞ when it saturates.
    let judge = |service_s| {
        MD1::new(lambda, service_s)
            .and_then(|q| stat(&q))
            .unwrap_or(f64::INFINITY)
    };
    let mut best_ok: Option<(usize, f64, f64)> = None; // (idx, energy, response)
    let mut best_fallback: Option<(usize, f64, f64)> = None; // (idx, energy, rank)
    let mut screened_out = 0;
    for (idx, entry) in menu.iter().enumerate() {
        let Some((e, service_s, judged_s)) = entry.price(lambda, window_s) else {
            continue; // saturated
        };
        screened_out += usize::from(judged_s > deadline_s);
        let response_s = judge(judged_s);
        if response_s <= deadline_s && best_ok.is_none_or(|(_, be, _)| e < be) {
            best_ok = Some((idx, e, response_s));
        }
        let rank = if response_s.is_finite() {
            response_s
        } else {
            judge(service_s)
        };
        if best_fallback.is_none_or(|(_, be, br)| (rank, e) < (br, be)) {
            best_fallback = Some((idx, e, rank));
        }
    }
    Ok(match (best_ok, best_fallback) {
        (Some((i, e, r)), _) => Some((i, e, r, false, screened_out)),
        (None, Some((i, e, r))) => Some((i, e, r, true, screened_out)),
        (None, None) => None,
    })
}

/// For one slot, pick the cheapest menu entry whose judged mean response
/// meets the SLO; fall back to the entry of least `(rank, window energy)`
/// (counted as a violation, its rank reported as its response) when none
/// does. Returns `Ok((index, energy, response, violated))`, or `Ok(None)`
/// only when every entry is saturated at this `λ`.
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
    let pick = plan(menu, lambda, window_s, slo_response_s, MD1::mean_response_s)?;
    Ok(pick.map(|(i, e, r, violated, _)| (i, e, r, violated)))
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

/// The simulation budget [`best_choice_tail`] accepts. It is empty: the
/// planner scores entries with the exact M/D/1 quantile and runs no
/// simulator, and the parameter stays so existing callers keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TailDesConfig {}

/// What [`best_choice_tail`] decided for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailChoiceOutcome {
    /// Index of the chosen configuration in the menu.
    pub index: usize,
    /// Window energy of the chosen configuration, joules.
    pub energy_j: f64,
    /// Exact M/D/1 percentile response time of the chosen configuration
    /// ([`MD1::response_quantile`]), seconds.
    pub tail_response_s: f64,
    /// Analytical M/D/1 mean response of the chosen configuration,
    /// seconds.
    pub mean_response_s: f64,
    /// True when no configuration meets the percentile deadline and the
    /// returned one is the smallest-tail fallback.
    pub violated: bool,
    /// Stable candidates whose service time alone exceeds the deadline, so
    /// that none of their responses can meet it.
    pub screened_out: usize,
}

/// Percentile-deadline slot choice: the planner of [`best_choice`], judging
/// each entry by its exact M/D/1 `target.percentile` response time
/// ([`MD1::response_quantile`]) against `target.deadline_s`.
///
/// The cheapest entry whose tail meets the deadline wins. When none does,
/// the entry of least `(tail, window energy)` is returned with
/// `violated = true`; `Ok(None)` only when every entry is saturated at
/// `lambda`. `screened_out` counts the stable entries whose service time
/// alone exceeds the deadline: every response is at least its service
/// time. No simulator runs, so a plan is a pure function of its inputs.
///
/// # Errors
/// [`Error::InvalidInput`] for non-finite or non-positive slot scalars or
/// a malformed menu entry.
pub fn best_choice_tail(
    menu: &[ConfigChoice],
    lambda: f64,
    window_s: f64,
    target: TailTarget,
    _des_cfg: &TailDesConfig,
) -> Result<Option<TailChoiceOutcome>> {
    validate_slot_inputs(lambda, window_s, target.deadline_s)?;
    let target = TailTarget::new(target.percentile, target.deadline_s)?;
    let tail = |q: &MD1| q.response_quantile(target.percentile);
    let Some((index, energy_j, tail_response_s, violated, screened_out)) =
        plan(menu, lambda, window_s, target.deadline_s, tail)?
    else {
        return Ok(None);
    };
    hecmix_obs::emit(|| hecmix_obs::Event::TailPlan {
        lambda,
        percentile: target.percentile,
        deadline_s: target.deadline_s,
        candidates: menu.len(),
        screened_out,
        des_runs: 0,
        chosen: index,
        tail_s: tail_response_s,
        violated,
    });
    Ok(Some(TailChoiceOutcome {
        index,
        energy_j,
        tail_response_s,
        mean_response_s: MD1::new(lambda, menu[index].service_s)?.mean_response_s()?,
        violated,
        screened_out,
    }))
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
/// during idle gaps: the configuration plus its cluster-sleep capability
/// (from the model bundle's DVFS power-domain tree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkableChoice {
    /// The configuration as dispatched.
    pub choice: ConfigChoice,
    /// Cluster-sleep capability of the powered nodes.
    pub sleep: SleepPolicy,
}

impl SlotPricer for ParkableChoice {
    fn validate(&self) -> Result<()> {
        validate_choice("parkable menu entry", &self.choice)?;
        self.sleep.validate(self.choice.idle_power_w)
    }

    /// Priced by [`window_energy_sleep`]: in low-`λ` troughs (long
    /// exponential idle gaps) whole clusters earn their deep-sleep credit.
    /// The deadline judges the service time, because parking happens
    /// strictly between jobs.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let c = &self.choice;
        let we = window_energy_sleep(
            lambda,
            window_s,
            c.service_s,
            c.job_energy_j,
            c.idle_power_w,
            &self.sleep,
        )
        .ok()?;
        Some((we.total_j(), c.service_s, c.service_s))
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

    /// Failure-aware pricing: the deadline judges the *degraded* service
    /// time — the slot must still meet it after the worst-case `k` node
    /// losses — while energy and saturation are *nominal*, since that is
    /// what the cluster spends in the (overwhelmingly common) fault-free
    /// slot.
    fn price(&self, lambda: f64, window_s: f64) -> Option<(f64, f64, f64)> {
        let (energy_j, service_s, _) = self.nominal.price(lambda, window_s)?;
        Some((energy_j, service_s, self.degraded_service_s))
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
        // Long gap: the first 10 s idle, the other 10 s at the deep floor.
        assert!((idle_gap_energy_j(20.0, 8.0, &sleep) - 100.0).abs() < 1e-12);
        // Exactly at residency: no credit, as in `window_energy_sleep`'s
        // E[(G − r)⁺], which counts only the time past the residency.
        assert!((idle_gap_energy_j(10.0, 8.0, &sleep) - 80.0).abs() < 1e-12);
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
                let sleep = SleepPolicy {
                    sleep_power_w: choice.idle_power_w * 0.1,
                    residency_s: 0.05,
                };
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
        // A resilient menu that loses no capacity reproduces the plain day
        // exactly — saturated slots too.
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
        m[0].sleep = SleepPolicy {
            sleep_power_w: m[0].choice.idle_power_w + 1.0,
            residency_s: 0.0,
        };
        assert!(best_choice(&m, 0.5, 3600.0, 1.0).is_err());
        let mut m = parkable_menu();
        m[1].sleep = SleepPolicy {
            sleep_power_w: f64::NAN,
            residency_s: 0.0,
        };
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

    #[test]
    fn best_choice_breaks_fallback_rank_ties_by_energy() {
        // Equal service times give equal mean responses, so the fallback
        // ranks tie; the cheaper entry, the second, must win.
        let mut m = menu();
        m[0].service_s = m[1].service_s;
        let (idx, e, _, violated) = best_choice(&m, 0.5, 3600.0, 0.001).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert!(violated);
        let (e0, ..) = m[0].price(0.5, 3600.0).unwrap();
        assert!(e < e0, "{e} vs {e0}");
    }

    #[test]
    fn mean_slo_choices_are_pinned() {
        fn choose<P: SlotPricer>(menu: &[P], lambda: f64, slo_s: f64) -> (usize, u64, u64, bool) {
            let (idx, e, r, violated) = best_choice(menu, lambda, 3600.0, slo_s).unwrap().unwrap();
            (idx, e.to_bits(), r.to_bits(), violated)
        }
        // A loose SLO passes the cheap entry; an impossible one falls back
        // to the fast entry's smaller mean response.
        let (pass, miss) = ((0.5, 1.0), (0.5, 0.001));
        let plain = menu();
        assert_eq!(
            choose(&plain, pass.0, pass.1),
            (1, 0x40f4_dfc0_0000_0000, 0x3fdc_cccc_cccc_cccd, false)
        );
        assert_eq!(
            choose(&plain, miss.0, miss.1),
            (0, 0x4143_42aa_0000_0000, 0x3f99_c314_1754_e6ba, true)
        );
        let parkable = parkable_menu();
        assert_eq!(
            choose(&parkable, pass.0, pass.1),
            (1, 0x40d5_c6fa_bb9b_2586, 0x3fdc_cccc_cccc_cccd, false)
        );
        assert_eq!(
            choose(&parkable, miss.0, miss.1),
            (0, 0x4114_c2cc_9f42_240e, 0x3f99_c314_1754_e6ba, true)
        );
        // Resilient entries report their degraded mean response.
        let mut resilient = resilient_menu();
        assert_eq!(
            choose(&resilient, 0.5, 1.5),
            (1, 0x40f4_dfc0_0000_0000, 0x3ff1_1111_1111_1112, false)
        );
        assert_eq!(
            choose(&resilient, 2.0, 1e-4),
            (0, 0x4143_5d08_0000_0000, 0x3f9f_b34f_1670_db9d, true)
        );
        // At λ = 2 the cheap entry's degraded queue saturates, so it ranks
        // by its nominal 1.2 s mean response, and that beats the fast
        // entry's degraded 2.475 s.
        resilient[0].degraded_service_s = 0.45;
        assert_eq!(
            choose(&resilient, 2.0, 1e-4),
            (1, 0x40f1_9400_0000_0000, 0x3ff3_3333_3333_3335, true)
        );
    }

    fn plan_tail(menu: &[ConfigChoice], lambda: f64, deadline_s: f64) -> Option<TailChoiceOutcome> {
        best_choice_tail(
            menu,
            lambda,
            3600.0,
            TailTarget::new(0.99, deadline_s).unwrap(),
            &TailDesConfig::default(),
        )
        .unwrap()
    }

    /// The exact p99 response of `c` at `lambda`.
    fn p99(c: &ConfigChoice, lambda: f64) -> f64 {
        MD1::new(lambda, c.service_s)
            .unwrap()
            .response_quantile(0.99)
            .unwrap()
    }

    #[test]
    fn tail_choice_prefers_cheap_when_deadline_is_loose() {
        // λ = 1, p99 ≤ 2 s: the cheap entry (ρ = 0.4) has plenty of room.
        let out = plan_tail(&menu(), 1.0, 2.0).unwrap();
        assert_eq!(out.index, 1);
        assert!(!out.violated);
        assert!(out.tail_response_s <= 2.0, "tail {}", out.tail_response_s);
        // The exact tail sits above the analytic mean.
        assert!(out.tail_response_s >= out.mean_response_s);
    }

    #[test]
    fn tail_choice_screens_entries_slower_than_the_deadline() {
        // p99 ≤ 50 ms: the cheap entry's 400 ms service alone misses, so
        // it is counted as screened out; the fast entry's tail decides.
        let m = menu();
        let out = plan_tail(&m, 1.0, 0.05).unwrap();
        assert_eq!(out.index, 0);
        assert!(!out.violated);
        assert_eq!(out.screened_out, 1, "cheap entry screened by service time");
        assert_eq!(out.tail_response_s.to_bits(), p99(&m[0], 1.0).to_bits());
    }

    #[test]
    fn tail_choice_keeps_entries_whose_mean_misses_but_tail_meets() {
        // At ρ = 0.005 the wait's atom at zero covers the 99th percentile,
        // so the cheap entry's p99 response is its 0.4 s service time while
        // its mean response (≈ 0.401 s) misses a 0.4005 s deadline. A screen
        // on the mean threw it out and paid for the fast entry instead.
        let out = plan_tail(&menu(), 0.0125, 0.4005).unwrap();
        assert_eq!(out.index, 1);
        assert!(!out.violated);
        assert_eq!(out.tail_response_s, 0.4);
        assert!(out.mean_response_s > 0.4005);
        assert_eq!(out.screened_out, 0);
    }

    #[test]
    fn tail_choice_falls_back_and_flags_violation() {
        let m = menu();
        // p99 ≤ 1 ms is impossible (fast service alone is 25 ms): the
        // smallest tail, the fast entry's, comes back flagged.
        let out = plan_tail(&m, 0.5, 0.001).unwrap();
        assert_eq!(out.index, 0);
        assert!(out.violated);
        assert_eq!(out.screened_out, 2);
        assert_eq!(out.tail_response_s.to_bits(), p99(&m[0], 0.5).to_bits());
        // Saturated everywhere: nothing to pick.
        assert!(plan_tail(&m, 1000.0, 1.0).is_none());
    }

    #[test]
    fn tail_choice_answers_are_pinned() {
        let m = menu();
        let plan = |lambda: f64, deadline_s: f64| {
            let out = plan_tail(&m, lambda, deadline_s).unwrap();
            assert_eq!(
                out.tail_response_s.to_bits(),
                p99(&m[out.index], lambda).to_bits(),
                "the tail is the chosen entry's exact quantile"
            );
            (
                out.index,
                out.energy_j.to_bits(),
                out.tail_response_s.to_bits(),
                out.mean_response_s.to_bits(),
                out.violated,
                out.screened_out,
            )
        };
        // The cheap entry passes.
        assert_eq!(
            plan(1.0, 2.0),
            (
                1,
                0x40f3_c680_0000_0000,
                0x3ff6_8707_9a3d_eafa,
                0x3fe1_1111_1111_1112,
                false,
                0
            )
        );
        // The cheap entry's tail misses; the fast one passes.
        assert_eq!(
            plan(1.0, 0.6),
            (
                0,
                0x4143_4b74_0000_0000,
                0x3fa4_9df0_27c9_e55c,
                0x3f99_ed9e_d9ed_9eda,
                false,
                0
            )
        );
        // Both services exceed the deadline: the smallest tail, the fast
        // entry's, is the fallback.
        assert_eq!(
            plan(0.5, 0.001),
            (
                0,
                0x4143_42aa_0000_0000,
                0x3f9e_c73b_ecc7_6798,
                0x3f99_c314_1754_e6ba,
                true,
                2
            )
        );
    }

    #[test]
    fn tail_choice_matches_an_eager_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let (mut passed, mut fell_back, mut saturated) = (0, 0, 0);
        for case in 0..600 {
            let mut menu: Vec<ConfigChoice> = Vec::new();
            for i in 0..rng.gen_range(1..=10usize) {
                // Copies of earlier entries make energy and tail ties.
                if i > 0 && rng.gen_bool(0.2) {
                    let copy = menu[rng.gen_range(0..i)].clone();
                    menu.push(copy);
                    continue;
                }
                menu.push(ConfigChoice {
                    label: format!("e{i}"),
                    service_s: 10f64.powf(rng.gen_range(-3.0..0.0)),
                    job_energy_j: rng.gen_range(0.0..50.0),
                    idle_power_w: rng.gen_range(0.0..1000.0),
                });
            }
            let window_s = rng.gen_range(1.0..7200.0);
            let anchor = &menu[rng.gen_range(0..menu.len())];
            let lambda = rng.gen_range(0.001..1.2) / anchor.service_s;
            // Deadlines around the anchor's service time; sometimes exactly
            // its tail, which must count as met.
            let mut deadline_s = anchor.service_s * 10f64.powf(rng.gen_range(-0.5..1.5));
            if rng.gen_bool(0.2) && lambda * anchor.service_s < 1.0 {
                deadline_s = p99(anchor, lambda);
            }

            // Eager reference: (index, window energy, tail) of every stable
            // entry, then the cheapest that meets the deadline (ties to the
            // lower index), else the smallest tail (ties to the cheaper
            // entry, then the lower index).
            let stable: Vec<(usize, f64, f64)> = menu
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let we = window_energy(
                        lambda,
                        window_s,
                        c.service_s,
                        c.job_energy_j,
                        c.idle_power_w,
                    )
                    .ok()?;
                    Some((i, we.total_j(), p99(c, lambda)))
                })
                .collect();
            let by_energy = |a: &&(usize, f64, f64), b: &&(usize, f64, f64)| {
                a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
            };
            let expected = match stable
                .iter()
                .filter(|s| s.2 <= deadline_s)
                .min_by(by_energy)
            {
                Some(&s) => Some((s, false)),
                None => stable
                    .iter()
                    .min_by(|a, b| a.2.total_cmp(&b.2).then(by_energy(a, b)))
                    .map(|&s| (s, true)),
            };

            let got = best_choice_tail(
                &menu,
                lambda,
                window_s,
                TailTarget::new(0.99, deadline_s).unwrap(),
                &TailDesConfig::default(),
            )
            .unwrap();
            match (got, expected) {
                (None, None) => saturated += 1,
                (Some(out), Some(((index, energy_j, tail), violated))) => {
                    assert_eq!(
                        (
                            out.index,
                            out.energy_j.to_bits(),
                            out.tail_response_s.to_bits(),
                            out.violated,
                        ),
                        (index, energy_j.to_bits(), tail.to_bits(), violated),
                        "case {case}: λ = {lambda}, deadline {deadline_s}, {menu:?}"
                    );
                    let slower = stable
                        .iter()
                        .filter(|s| menu[s.0].service_s > deadline_s)
                        .count();
                    assert_eq!(out.screened_out, slower, "case {case}");
                    if violated {
                        fell_back += 1;
                    } else {
                        passed += 1;
                    }
                }
                (got, expected) => panic!("case {case}: {got:?} vs {expected:?}"),
            }
        }
        // The draw covers all three outcomes.
        assert!(
            passed > 100 && fell_back > 50 && saturated > 10,
            "{passed} met, {fell_back} fell back, {saturated} saturated"
        );
    }

    #[test]
    fn tail_choice_is_deterministic() {
        let run = || plan_tail(&menu(), 1.2, 1.5).unwrap();
        assert_eq!(run(), run(), "a plan is a pure function of its inputs");
    }

    #[test]
    fn tail_choice_rejects_bad_inputs() {
        let m = menu();
        assert!(TailTarget::new(0.0, 1.0).is_err());
        assert!(TailTarget::new(1.0, 1.0).is_err());
        assert!(TailTarget::new(0.99, f64::NAN).is_err());
        let t = TailTarget::new(0.99, 1.0).unwrap();
        let des = TailDesConfig::default();
        assert!(best_choice_tail(&m, f64::NAN, 3600.0, t, &des).is_err());
    }
}
