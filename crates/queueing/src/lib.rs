//! # hecmix-queueing — job arrivals and waiting time (§IV-E)
//!
//! The paper extends its Pareto analysis to a datacenter receiving a
//! *stream* of jobs: arrivals are Poisson (exponential inter-arrival with
//! rate `λ_job`), each job's service time is fixed by the chosen cluster
//! configuration (deterministic service — the mix-and-match schedule), and
//! jobs queue FIFO at a dispatcher. That is an **M/D/1** queue with
//! utilization `U = T·λ_job`.
//!
//! This crate provides:
//!
//! * [`MD1`] — the analytical model: the Pollaczek–Khinchine mean waiting
//!   time and Erlang's exact waiting-time distribution with its quantiles
//!   (`hecmix-check` tests both against a request-level simulation);
//! * [`window_energy`] — the paper's observation-window energy accounting
//!   (Fig. 10): over a 20 s window, jobs × per-job energy plus the idle
//!   energy of the configuration's nodes between jobs, with unused nodes
//!   switched off;
//! * [`dispatch`] — the per-slot configuration choice under a mean or
//!   percentile response deadline, the latter scored by
//!   [`MD1::response_quantile`].

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values;
// rewriting with `partial_cmp` would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dispatch;

use serde::{Deserialize, Serialize};

use hecmix_core::{Error, Result};

/// `λt` from which [`MD1::wait_cdf`] uses the Cramér–Lundberg tail
/// instead of Erlang's series. Below it the series' terms stay small
/// enough that cancellation costs about 1e-9 of `F` at most; from it on
/// the tail's relative error is below 2e-10 for ρ in 0.3–0.99 (checked
/// against 80-digit arithmetic), and below 1e-12 from `λt = 12`.
const SERIES_MAX_LAMBDA_T: f64 = 8.0;

/// The M/D/1 queue: Poisson arrivals at rate `lambda`, deterministic
/// service time `service_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MD1 {
    /// Job arrival rate, jobs/second.
    pub lambda: f64,
    /// Deterministic service time per job, seconds.
    pub service_s: f64,
}

impl MD1 {
    /// Construct and validate (`lambda`, `service_s` positive).
    pub fn new(lambda: f64, service_s: f64) -> Result<Self> {
        if !(lambda > 0.0) || !lambda.is_finite() || !(service_s > 0.0) || !service_s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "MD1 needs positive finite lambda and service time, got λ={lambda}, T={service_s}"
            )));
        }
        Ok(Self { lambda, service_s })
    }

    /// Server utilization `ρ = λ·T` (the paper's `U = T·λ_job`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service_s
    }

    /// Mean waiting time in queue (Pollaczek–Khinchine for deterministic
    /// service): `W_q = ρ·T / (2(1 − ρ))`. Errors at or beyond saturation.
    pub fn mean_wait_s(&self) -> Result<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        Ok(rho * self.service_s / (2.0 * (1.0 - rho)))
    }

    /// Mean response time per job: `R = T + W_q`.
    pub fn mean_response_s(&self) -> Result<f64> {
        Ok(self.service_s + self.mean_wait_s()?)
    }

    /// Waiting-time distribution `P(W ≤ t)` of the M/D/1 queue
    /// (Erlang's classical result):
    ///
    /// `F_W(t) = (1 − ρ) · Σ_{k=0}^{⌊t/D⌋} (λ(kD − t))^k / k! · e^{−λ(kD − t)}`
    ///
    /// where `D` is the deterministic service time. `F_W(0) = 1 − ρ` (an
    /// arriving job waits zero with the probability the server is idle).
    /// The series alternates with terms up to `e^{λt}` that cancel, so
    /// from `λt = 8` on the Cramér–Lundberg tail `1 − C·e^{−γt}` replaces
    /// it. Errors at or beyond saturation, where no stationary
    /// distribution exists.
    pub fn wait_cdf(&self, t: f64) -> Result<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        if !t.is_finite() {
            return Err(Error::InvalidInput(format!(
                "wait_cdf needs a finite t, got {t}"
            )));
        }
        if t < 0.0 {
            return Ok(0.0);
        }
        if self.lambda * t < SERIES_MAX_LAMBDA_T {
            Ok(self.series_cdf(t))
        } else {
            Ok(self.tail_cdf(t))
        }
    }

    /// Erlang's series for `0 ≤ t`, each term `(−1)^k · y^k·e^y / k!` with
    /// `y = λ(t − kD) ≥ 0` built in O(1) from a running `ln k!`.
    fn series_cdf(&self, t: f64) -> f64 {
        let rho = self.utilization();
        let d = self.service_s;
        let kmax = (t / d).floor() as u64;
        let mut sum = 0.0f64;
        let mut max_term = 0.0f64;
        let mut ln_fact = 0.0f64;
        for k in 0..=kmax {
            // Rounding can put kD a hair past t; the term is then zero.
            let y = (self.lambda * (t - k as f64 * d)).max(0.0);
            let term = if k == 0 {
                y.exp()
            } else {
                ln_fact += (k as f64).ln();
                // At y = 0 the exponent is −∞ and the term exactly zero.
                (k as f64 * y.ln() + y - ln_fact).exp()
            };
            sum += if k % 2 == 0 { term } else { -term };
            max_term = max_term.max(term);
        }
        let f = ((1.0 - rho) * sum).clamp(0.0, 1.0);
        // Once the true tail 1 − F drops under the cancellation noise, pin
        // the CDF to exactly 1 so it stays monotone instead of jittering
        // at the noise floor.
        let noise = (1.0 - rho) * max_term * (kmax + 1) as f64 * f64::EPSILON;
        if 1.0 - f <= 8.0 * noise {
            return 1.0;
        }
        f
    }

    /// The Cramér–Lundberg asymptote `P(W > t) ≈ C·e^{−γt}` as `(γ, C)`:
    /// `γ > 0` solves `e^{γD} = 1 + γ/λ`, and `C = (1 − ρ)/(λD·e^{γD} − 1)`,
    /// which at that root is `(1 − ρ)/(γD − (1 − ρ))`.
    fn tail(&self) -> (f64, f64) {
        let (lambda, d) = (self.lambda, self.service_s);
        let rho = self.utilization();
        // h(γ) = γD − ln(1 + γ/λ) is convex with h(0) = 0 and h'(0) < 0,
        // and positive at 2(1 − ρ)/(ρD) (expand e^{γD} to second order),
        // so Newton from there falls monotonically onto the root.
        let mut gamma = 2.0 * (1.0 - rho) / (rho * d);
        for _ in 0..100 {
            let h = gamma * d - (gamma / lambda).ln_1p();
            let next = gamma - h / (d - 1.0 / (lambda + gamma));
            if !(next < gamma) {
                break;
            }
            gamma = next;
        }
        (gamma, (1.0 - rho) / (gamma * d - (1.0 - rho)))
    }

    fn tail_cdf(&self, t: f64) -> f64 {
        let (gamma, c) = self.tail();
        (1.0 - c * (-gamma * t).exp()).clamp(0.0, 1.0)
    }

    /// Quantile of the *waiting* time: smallest `t` with `P(W ≤ t) ≥ q`.
    /// Past the series switch the tail inverts in closed form,
    /// `t = ln(C/(1 − q))/γ`; below it, bisection on [`Self::wait_cdf`].
    /// `q` must lie in `(0, 1)`.
    pub fn wait_quantile(&self, q: f64) -> Result<f64> {
        if !(q > 0.0) || !(q < 1.0) {
            return Err(Error::InvalidInput(format!(
                "wait_quantile needs q in (0, 1), got {q}"
            )));
        }
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        if q <= 1.0 - rho {
            return Ok(0.0); // mass at zero covers this quantile
        }
        let switch_t = SERIES_MAX_LAMBDA_T / self.lambda;
        let (gamma, c) = self.tail();
        if q >= 1.0 - c * (-gamma * switch_t).exp() {
            return Ok((c / (1.0 - q)).ln() / gamma);
        }
        // Bracket by doubling from one service time, so that at low load
        // the series stays a few terms long, then bisect.
        let mut hi = self.service_s.min(switch_t);
        while hi < switch_t && self.wait_cdf(hi)? < q {
            hi = (2.0 * hi).min(switch_t);
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if self.wait_cdf(mid)? >= q {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Quantile of the *response* time (wait + deterministic service).
    pub fn response_quantile(&self, q: f64) -> Result<f64> {
        Ok(self.wait_quantile(q)? + self.service_s)
    }
}

/// Energy of one configuration over an observation window (Fig. 10):
/// per-job energy times the jobs served, plus the *idle* energy of the
/// configuration's powered nodes between jobs. Nodes not in the
/// configuration are switched off and contribute nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowEnergy {
    /// Window length, seconds.
    pub window_s: f64,
    /// Jobs served in the window (`λ·L`).
    pub jobs: f64,
    /// Energy spent actively servicing jobs, joules.
    pub busy_energy_j: f64,
    /// Idle energy of powered nodes between jobs, joules.
    pub idle_energy_j: f64,
    /// Mean response time per job (service + queueing wait), seconds.
    pub response_s: f64,
    /// Utilization `ρ`.
    pub utilization: f64,
}

impl WindowEnergy {
    /// Total window energy.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.busy_energy_j + self.idle_energy_j
    }
}

/// Evaluate the window energy of a configuration with per-job service time
/// `service_s`, per-job energy `job_energy_j` (which already includes the
/// nodes' idle floor *during* service), and total idle power
/// `idle_power_w` of the powered nodes, under Poisson arrivals `lambda`
/// over `window_s` seconds.
///
/// The window must be finite and positive, and energy/power finite and
/// non-negative: a zero-length or infinite window, or a NaN parameter,
/// would otherwise leak into the accounting as NaN (e.g.
/// `0 W · ∞ s · (1 − ρ)`) or negative idle energy.
pub fn window_energy(
    lambda: f64,
    window_s: f64,
    service_s: f64,
    job_energy_j: f64,
    idle_power_w: f64,
) -> Result<WindowEnergy> {
    if !(window_s > 0.0)
        || !window_s.is_finite()
        || !(job_energy_j >= 0.0)
        || !job_energy_j.is_finite()
        || !(idle_power_w >= 0.0)
        || !idle_power_w.is_finite()
    {
        return Err(Error::InvalidInput(format!(
            "window_energy needs a finite positive window and finite non-negative \
             energy/power, got window_s={window_s}, job_energy_j={job_energy_j}, \
             idle_power_w={idle_power_w}"
        )));
    }
    let q = MD1::new(lambda, service_s)?;
    let rho = q.utilization();
    if rho >= 1.0 {
        return Err(Error::Saturated { utilization: rho });
    }
    let jobs = lambda * window_s;
    let busy_energy_j = jobs * job_energy_j;
    let idle_energy_j = idle_power_w * window_s * (1.0 - rho);
    Ok(WindowEnergy {
        window_s,
        jobs,
        busy_energy_j,
        idle_energy_j,
        response_s: q.mean_response_s()?,
        utilization: rho,
    })
}

/// Cluster-sleep capability of a configuration's powered nodes: during
/// idle gaps longer than `residency_s` the whole cluster's power domains
/// drop to `sleep_power_w` instead of the always-on idle floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepPolicy {
    /// Floor power of the slept configuration, watts. Must not exceed the
    /// configuration's idle power.
    pub sleep_power_w: f64,
    /// Minimum idle-gap length for the deep state to pay off, seconds.
    pub residency_s: f64,
}

impl SleepPolicy {
    /// Check the policy against the idle power of the configuration it
    /// parks.
    ///
    /// # Errors
    /// [`Error::InvalidInput`] unless `sleep_power_w` is finite and within
    /// `[0, idle_power_w]` and `residency_s` is finite and non-negative.
    pub fn validate(&self, idle_power_w: f64) -> Result<()> {
        if !self.sleep_power_w.is_finite()
            || self.sleep_power_w < 0.0
            || self.sleep_power_w > idle_power_w
            || !self.residency_s.is_finite()
            || self.residency_s < 0.0
        {
            return Err(Error::InvalidInput(format!(
                "sleep policy needs finite 0 <= sleep_power_w <= idle_power_w and finite \
                 non-negative residency, got sleep_power_w={}, residency_s={}, idle_power_w={}",
                self.sleep_power_w, self.residency_s, idle_power_w
            )));
        }
        Ok(())
    }
}

/// [`window_energy`] with cluster sleep: idle gaps of the M/D/1 server are
/// exponential with rate `λ` (PASTA: a gap ends at the next arrival), so
/// of the total idle time `L·(1−ρ)` the expected share spent *past* the
/// residency horizon is `e^{−λ·residency}`:
///
/// ```text
/// sleepable = L·(1−ρ)·e^{−λ·r}
/// idle_energy = idle_w·(L·(1−ρ) − sleepable) + sleep_w·sleepable
/// ```
///
/// (Derivation: gaps start at rate `λ·(1−ρ)` per second and each gap
/// `G ~ Exp(λ)` contributes `E[max(G−r, 0)] = e^{−λr}/λ` of deep-sleep
/// time, giving `L·λ(1−ρ)·e^{−λr}/λ`.) With `r = 0` every idle second is
/// sleepable; as `λ` grows the gaps shorten and the credit vanishes —
/// cluster sleep is a trough phenomenon, which is exactly when diurnal
/// dispatch wants to park whole clusters.
///
/// # Errors
/// Same domain errors as [`window_energy`], plus those of
/// [`SleepPolicy::validate`].
pub fn window_energy_sleep(
    lambda: f64,
    window_s: f64,
    service_s: f64,
    job_energy_j: f64,
    idle_power_w: f64,
    sleep: &SleepPolicy,
) -> Result<WindowEnergy> {
    sleep.validate(idle_power_w)?;
    let mut we = window_energy(lambda, window_s, service_s, job_energy_j, idle_power_w)?;
    let idle_s = window_s * (1.0 - we.utilization);
    let sleepable_s = idle_s * (-lambda * sleep.residency_s).exp();
    we.idle_energy_j = idle_power_w * (idle_s - sleepable_s) + sleep.sleep_power_w * sleepable_s;
    Ok(we)
}

/// Energy of one **known** idle gap under a sleep capability — the
/// per-gap (ex-post) counterpart of [`window_energy_sleep`]'s
/// expected-value slot pricing, shared with the `hecmix-sched` task
/// scheduler so a node timeline and a diurnal slot price the same deep
/// state identically: the first `residency_s` of a gap idles at
/// `idle_w` and only the rest sleeps at `sleep_power_w`,
/// `idle_w·min(gap, r) + sleep_w·(gap − r)⁺`, so a gap no longer than
/// the residency earns no credit. Its mean over `Exp(λ)` gaps is
/// [`window_energy_sleep`]'s idle energy per gap, whose deep-sleep time
/// is `E[(G − r)⁺]` (DESIGN §15). A domain that sleeps at `idle_w` with
/// zero residency (a two-point model's lift) prices every gap at
/// `idle_w·gap`, bit for bit.
///
/// Non-positive or non-finite gaps price to zero rather than erroring —
/// callers fold over timelines where an empty gap is routine.
#[must_use]
pub fn idle_gap_energy_j(gap_s: f64, idle_w: f64, sleep: &SleepPolicy) -> f64 {
    if !(gap_s > 0.0) || !gap_s.is_finite() {
        return 0.0;
    }
    if gap_s <= sleep.residency_s {
        idle_w * gap_s
    } else {
        idle_w * sleep.residency_s + sleep.sleep_power_w * (gap_s - sleep.residency_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn md1_known_values() {
        // ρ = 0.5: W_q = 0.5·T/(2·0.5) = T/2.
        let q = MD1::new(5.0, 0.1).unwrap();
        assert!((q.utilization() - 0.5).abs() < 1e-12);
        assert!((q.mean_wait_s().unwrap() - 0.05).abs() < 1e-12);
        assert!((q.mean_response_s().unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn saturation_rejected() {
        let q = MD1::new(10.0, 0.1).unwrap(); // ρ = 1
        assert!(matches!(q.mean_wait_s(), Err(Error::Saturated { .. })));
        let q = MD1::new(20.0, 0.1).unwrap(); // ρ = 2
        assert!(q.mean_response_s().is_err());
        assert!(MD1::new(0.0, 0.1).is_err());
        assert!(MD1::new(1.0, -0.1).is_err());
    }

    #[test]
    fn wait_diverges_near_saturation() {
        let t = 0.1;
        let w90 = MD1::new(9.0, t).unwrap().mean_wait_s().unwrap();
        let w99 = MD1::new(9.9, t).unwrap().mean_wait_s().unwrap();
        assert!(w99 > 10.0 * w90 / 2.0, "wait must blow up: {w90} -> {w99}");
    }

    #[test]
    fn md1_wait_cdf_known_values() {
        let q = MD1::new(7.0, 0.1).unwrap(); // ρ = 0.7
        let rho = q.utilization();
        // Mass at zero is exactly 1 − ρ.
        assert!((q.wait_cdf(0.0).unwrap() - (1.0 - rho)).abs() < 1e-12);
        assert!(q.wait_cdf(-1.0).unwrap() == 0.0);
        // Monotone non-decreasing, approaching 1.
        let mut prev = 0.0;
        for i in 0..60 {
            let t = f64::from(i) * 0.05;
            let c = q.wait_cdf(t).unwrap();
            assert!(c >= prev - 1e-12, "CDF must be monotone at t={t}");
            prev = c;
        }
        assert!(prev > 0.999, "CDF must approach 1, got {prev}");
        // Mean of the distribution (numerical integral of the survival
        // function) must match Pollaczek–Khinchine.
        let dt = 1e-4;
        let mut mean = 0.0;
        let mut t = 0.0;
        while t < 3.0 {
            mean += (1.0 - q.wait_cdf(t).unwrap()) * dt;
            t += dt;
        }
        let pk = q.mean_wait_s().unwrap();
        assert!((mean - pk).abs() / pk < 0.01, "∫(1−F) = {mean} vs P-K {pk}");
    }

    #[test]
    fn md1_wait_quantile_inverts_cdf() {
        let q = MD1::new(7.0, 0.1).unwrap();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let t = q.wait_quantile(p).unwrap();
            assert!((q.wait_cdf(t).unwrap() - p).abs() < 1e-6, "q={p}, t={t}");
        }
        // Quantiles inside the zero-wait mass are exactly zero.
        assert!(q.wait_quantile(0.1).unwrap() == 0.0);
        assert!(q.wait_quantile(0.0).is_err());
        assert!(q.wait_quantile(1.0).is_err());
        assert!(MD1::new(10.0, 0.1).unwrap().wait_quantile(0.9).is_err());
        // Response quantile adds the deterministic service time.
        let r = q.response_quantile(0.99).unwrap();
        assert!((r - q.wait_quantile(0.99).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn md1_p99_response_matches_exact_values_up_to_high_load() {
        // Exact p99 responses at D = 1, from Erlang's series in 80–220-digit
        // arithmetic. Summing the series in doubles read 22.8958, 27.667,
        // 28.975 and 29.686 for ρ ≥ 0.9: its terms cancelled to noise.
        for (rho, exact) in [
            (0.5, 4.336256),
            (0.7, 7.485499),
            (0.9, 22.898237),
            (0.95, 45.937766),
            (0.98, 115.023232),
            (0.99, 230.155078),
        ] {
            let r = MD1::new(rho, 1.0).unwrap().response_quantile(0.99).unwrap();
            assert!((r / exact - 1.0).abs() < 1e-6, "ρ = {rho}: {r} vs {exact}");
        }
    }

    #[test]
    fn md1_series_and_tail_agree_at_the_switch() {
        for rho in [0.3, 0.6, 0.9, 0.95, 0.99] {
            let q = MD1::new(rho, 1.0).unwrap();
            let t = SERIES_MAX_LAMBDA_T / q.lambda;
            let (series, tail) = (q.series_cdf(t), q.tail_cdf(t));
            assert!(
                (series - tail).abs() < 1e-9,
                "ρ = {rho}: series {series} vs tail {tail}"
            );
        }
    }

    #[test]
    fn window_energy_accounting() {
        // λ = 2 jobs/s, T = 0.1 s → ρ = 0.2. Window 20 s → 40 jobs.
        let w = window_energy(2.0, 20.0, 0.1, 5.0, 10.0).unwrap();
        assert!((w.jobs - 40.0).abs() < 1e-12);
        assert!((w.busy_energy_j - 200.0).abs() < 1e-12);
        // Idle: 10 W × 20 s × 0.8 = 160 J.
        assert!((w.idle_energy_j - 160.0).abs() < 1e-12);
        assert!((w.total_j() - 360.0).abs() < 1e-12);
        assert!((w.utilization - 0.2).abs() < 1e-12);
        assert!(w.response_s > 0.1);
    }

    #[test]
    fn window_energy_sleep_accounting() {
        // Same slot as `window_energy_accounting`: λ = 2, T = 0.1, L = 20,
        // idle time 16 s. Zero residency sleeps through all of it.
        let sleep_all = SleepPolicy {
            sleep_power_w: 1.0,
            residency_s: 0.0,
        };
        let w = window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &sleep_all).unwrap();
        assert!((w.busy_energy_j - 200.0).abs() < 1e-12);
        // All 16 idle seconds at 1 W instead of 10 W.
        assert!((w.idle_energy_j - 16.0).abs() < 1e-12);

        // With residency r: sleepable = 16·e^{−2r}.
        let sleep_r = SleepPolicy {
            sleep_power_w: 1.0,
            residency_s: 0.5,
        };
        let w = window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &sleep_r).unwrap();
        let sleepable = 16.0 * (-2.0f64 * 0.5).exp();
        let expect = 10.0 * (16.0 - sleepable) + 1.0 * sleepable;
        assert!((w.idle_energy_j - expect).abs() < 1e-9);

        // Sleep never costs more than the always-on floor, and a sleep
        // power equal to the idle power changes nothing.
        let plain = window_energy(2.0, 20.0, 0.1, 5.0, 10.0).unwrap();
        assert!(w.idle_energy_j < plain.idle_energy_j);
        let noop = SleepPolicy {
            sleep_power_w: 10.0,
            residency_s: 0.0,
        };
        let w = window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &noop).unwrap();
        assert!((w.idle_energy_j - plain.idle_energy_j).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_energy_averages_to_window_energy_sleep() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Idle gaps of the M/D/1 slot are Exp(λ) and start at rate
        // λ(1 − ρ), so the slot's idle energy per gap is the mean gap price.
        let (lambda, window_s, service_s, idle_w) = (2.0, 20.0, 0.1, 10.0);
        let sleep = SleepPolicy {
            sleep_power_w: 1.0,
            residency_s: 0.5,
        };
        let we = window_energy_sleep(lambda, window_s, service_s, 5.0, idle_w, &sleep).unwrap();
        let per_gap = we.idle_energy_j / (lambda * window_s * (1.0 - we.utilization));
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let e = idle_gap_energy_j(-u.ln() / lambda, idle_w, &sleep);
            sum += e;
            sum_sq += e * e;
        }
        let mean = sum / f64::from(n);
        let se = ((sum_sq / f64::from(n) - mean * mean) / f64::from(n)).sqrt();
        assert!(
            (mean - per_gap).abs() < 4.0 * se,
            "mean gap price {mean} vs slot price per gap {per_gap} (se {se})"
        );
    }

    #[test]
    fn window_energy_sleep_rejects_bad_policies() {
        let bad = SleepPolicy {
            sleep_power_w: 11.0, // above idle_power_w
            residency_s: 0.0,
        };
        assert!(window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &bad).is_err());
        let bad = SleepPolicy {
            sleep_power_w: f64::NAN,
            residency_s: 0.0,
        };
        assert!(window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &bad).is_err());
        let bad = SleepPolicy {
            sleep_power_w: 1.0,
            residency_s: -1.0,
        };
        assert!(window_energy_sleep(2.0, 20.0, 0.1, 5.0, 10.0, &bad).is_err());
    }

    #[test]
    fn window_energy_rejects_saturation_and_bad_inputs() {
        assert!(matches!(
            window_energy(20.0, 20.0, 0.1, 1.0, 1.0),
            Err(Error::Saturated { .. })
        ));
        assert!(window_energy(1.0, 0.0, 0.1, 1.0, 1.0).is_err());
        assert!(window_energy(1.0, 20.0, 0.1, -1.0, 1.0).is_err());
    }

    #[test]
    fn window_energy_rejects_non_finite_inputs() {
        // Pre-fix regressions: NaN energy/power passed the `< 0.0` guard
        // and an infinite window produced `0 W · ∞ s = NaN` idle energy.
        assert!(window_energy(1.0, f64::INFINITY, 0.1, 1.0, 0.0).is_err());
        assert!(window_energy(1.0, f64::NAN, 0.1, 1.0, 1.0).is_err());
        assert!(window_energy(1.0, 20.0, 0.1, f64::NAN, 1.0).is_err());
        assert!(window_energy(1.0, 20.0, 0.1, 1.0, f64::NAN).is_err());
        assert!(window_energy(1.0, 20.0, 0.1, f64::INFINITY, 1.0).is_err());
        assert!(window_energy(1.0, 20.0, 0.1, 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn window_energy_fractional_jobs_stay_non_negative() {
        // λ·L < 1 expected jobs: every component must still be finite and
        // non-negative (no negative idle energy from rounding tricks).
        let w = window_energy(0.01, 10.0, 0.1, 5.0, 2.0).unwrap();
        assert!((w.jobs - 0.1).abs() < 1e-12);
        assert!(w.busy_energy_j >= 0.0 && w.busy_energy_j.is_finite());
        assert!(w.idle_energy_j >= 0.0 && w.idle_energy_j.is_finite());
        assert!(w.total_j().is_finite() && w.total_j() >= 0.0);
    }

    #[test]
    fn higher_utilization_needs_faster_response_for_same_deadline() {
        // The paper's Observation 4 mechanism: at higher λ, the same
        // response-time deadline requires a shorter service time.
        let deadline = 0.2;
        let find_max_service = |lambda: f64| {
            // Bisection on service time such that response == deadline.
            let (mut lo, mut hi) = (1e-6, deadline);
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                let ok = MD1::new(lambda, mid)
                    .and_then(|q| q.mean_response_s())
                    .map(|r| r <= deadline)
                    .unwrap_or(false);
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let t_slow = find_max_service(1.0);
        let t_fast = find_max_service(4.0);
        assert!(
            t_fast < t_slow,
            "higher arrival rate must force faster service: {t_fast} vs {t_slow}"
        );
    }

    proptest! {
        #[test]
        fn prop_wait_nonnegative_and_monotone_in_rho(
            lambda in 0.1f64..50.0,
            service in 0.001f64..0.019,
        ) {
            let q = MD1 { lambda, service_s: service };
            prop_assume!(q.utilization() < 0.99);
            let w = q.mean_wait_s().unwrap();
            prop_assert!(w >= 0.0);
            // Increasing λ increases the wait.
            let q2 = MD1 { lambda: lambda * 1.01, service_s: service };
            if q2.utilization() < 0.995 {
                prop_assert!(q2.mean_wait_s().unwrap() >= w);
            }
        }

        #[test]
        fn prop_window_energy_scales_with_window(
            lambda in 0.1f64..5.0,
            service in 0.001f64..0.1,
            energy in 0.1f64..100.0,
            idle in 0.0f64..100.0,
        ) {
            prop_assume!(lambda * service < 0.95);
            let a = window_energy(lambda, 10.0, service, energy, idle).unwrap();
            let b = window_energy(lambda, 20.0, service, energy, idle).unwrap();
            prop_assert!((b.total_j() - 2.0 * a.total_j()).abs() < 1e-9 * b.total_j().max(1.0));
            // Response time independent of window length.
            prop_assert!((a.response_s - b.response_s).abs() < 1e-12);
        }
    }
}
