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
//! * [`MD1`] — the analytical model (Pollaczek–Khinchine mean waiting
//!   time), plus [`MM1`] for comparison;
//! * [`des`] — a request-level discrete-event simulation whose
//!   single-core, constant-service run is the same queue and
//!   cross-validates the closed forms;
//! * [`window_energy`] — the paper's observation-window energy accounting
//!   (Fig. 10): over a 20 s window, jobs × per-job energy plus the idle
//!   energy of the configuration's nodes between jobs, with unused nodes
//!   switched off;
//! * [`dispatch`] — the per-slot configuration choice under a mean or
//!   percentile response deadline.

// `!(x > 0.0)` deliberately rejects NaN along with non-positive values;
// rewriting with `partial_cmp` would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod des;
pub mod dispatch;

use serde::{Deserialize, Serialize};

use hecmix_core::{Error, Result};

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

    /// Mean number of jobs in the system (Little's law: `L = λ·R`).
    pub fn mean_jobs_in_system(&self) -> Result<f64> {
        Ok(self.lambda * self.mean_response_s()?)
    }

    /// Waiting-time distribution `P(W ≤ t)` of the M/D/1 queue
    /// (Erlang's classical result):
    ///
    /// `F_W(t) = (1 − ρ) · Σ_{k=0}^{⌊t/D⌋} (λ(kD − t))^k / k! · e^{−λ(kD − t)}`
    ///
    /// where `D` is the deterministic service time. `F_W(0) = 1 − ρ` (an
    /// arriving job waits zero with the probability the server is idle).
    /// Errors at or beyond saturation, where no stationary distribution
    /// exists.
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
        let d = self.service_s;
        let kmax = (t / d).floor() as u64;
        let mut sum = 0.0f64;
        let mut max_term = 0.0f64;
        for k in 0..=kmax {
            // x = λ(kD − t) ≤ 0: build x^k/k!·e^{−x} by repeated
            // multiplication so the factorial never overflows.
            let x = self.lambda * (k as f64 * d - t);
            let mut term = (-x).exp();
            for j in 1..=k {
                term *= x / j as f64;
            }
            sum += term;
            max_term = max_term.max(term.abs());
        }
        if !sum.is_finite() {
            // λt is large enough that e^{λt} overflows; the true CDF is 1
            // to double precision well before that point.
            return Ok(1.0);
        }
        let f = ((1.0 - rho) * sum).clamp(0.0, 1.0);
        // The series alternates with terms up to e^{λt} that cancel down
        // to a value in [0, 1]: once the true tail 1 − F drops under the
        // cancellation noise, pin the CDF to exactly 1 so it stays
        // monotone instead of jittering at the noise floor.
        let noise = (1.0 - rho) * max_term * (kmax + 1) as f64 * f64::EPSILON;
        if 1.0 - f <= 8.0 * noise {
            return Ok(1.0);
        }
        Ok(f)
    }

    /// Quantile of the *waiting* time: smallest `t` with `P(W ≤ t) ≥ q`,
    /// found by bisection on [`Self::wait_cdf`]. `q` must lie in `(0, 1)`.
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
        // Bracket: the wait CDF approaches 1 geometrically, so doubling
        // from one service time up finds an upper bound quickly.
        let mut hi = self.service_s;
        while self.wait_cdf(hi)? < q {
            hi *= 2.0;
            if hi > 1e6 * self.service_s {
                return Err(Error::InvalidInput(format!(
                    "wait_quantile failed to bracket q={q} at ρ={rho}"
                )));
            }
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
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

/// The M/M/1 queue (exponential service) — included for comparison; its
/// wait is exactly twice the M/D/1 wait at the same utilization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MM1 {
    /// Job arrival rate, jobs/second.
    pub lambda: f64,
    /// Mean service time, seconds.
    pub service_s: f64,
}

impl MM1 {
    /// Server utilization.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service_s
    }

    /// Mean waiting time `W_q = ρ·T/(1 − ρ)`.
    pub fn mean_wait_s(&self) -> Result<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        Ok(rho * self.service_s / (1.0 - rho))
    }
}

/// The M/G/1 queue: Poisson arrivals, generally distributed service with
/// mean `service_s` and squared coefficient of variation `scv`
/// (`Var[S]/E[S]²`). `scv = 0` recovers M/D/1, `scv = 1` recovers M/M/1 —
/// the full Pollaczek–Khinchine formula. Useful because the simulated
/// cluster's per-job service times carry real run-to-run variance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MG1 {
    /// Job arrival rate, jobs/second.
    pub lambda: f64,
    /// Mean service time, seconds.
    pub service_s: f64,
    /// Squared coefficient of variation of the service time.
    pub scv: f64,
}

impl MG1 {
    /// Construct and validate.
    pub fn new(lambda: f64, service_s: f64, scv: f64) -> Result<Self> {
        if !(lambda > 0.0)
            || !lambda.is_finite()
            || !(service_s > 0.0)
            || !service_s.is_finite()
            || !(scv >= 0.0)
            || !scv.is_finite()
        {
            return Err(Error::InvalidInput(format!(
                "MG1 needs positive finite λ and E[S] and non-negative SCV, got λ={lambda}, T={service_s}, scv={scv}"
            )));
        }
        Ok(Self {
            lambda,
            service_s,
            scv,
        })
    }

    /// Server utilization `ρ = λ·E[S]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service_s
    }

    /// Pollaczek–Khinchine mean wait:
    /// `W_q = ρ·E[S]·(1 + scv) / (2(1 − ρ))`.
    pub fn mean_wait_s(&self) -> Result<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(Error::Saturated { utilization: rho });
        }
        Ok(rho * self.service_s * (1.0 + self.scv) / (2.0 * (1.0 - rho)))
    }

    /// Mean response time `R = E[S] + W_q`.
    pub fn mean_response_s(&self) -> Result<f64> {
        Ok(self.service_s + self.mean_wait_s()?)
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
/// state identically: a gap at least `residency_s` long parks the whole
/// domain at `sleep_power_w` for the gap, a shorter one idles at
/// `idle_w`. Mirrors the simulator's domain-sleep credit (a
/// residency-length gap earns the deep floor, DESIGN §15). A domain that
/// sleeps at `idle_w` (a two-point model's lift) prices every gap at
/// `idle_w`, bit for bit.
///
/// Non-positive or non-finite gaps price to zero rather than erroring —
/// callers fold over timelines where an empty gap is routine.
#[must_use]
pub fn idle_gap_energy_j(gap_s: f64, idle_w: f64, sleep: &SleepPolicy) -> f64 {
    if !(gap_s > 0.0) || !gap_s.is_finite() {
        return 0.0;
    }
    if gap_s >= sleep.residency_s {
        sleep.sleep_power_w * gap_s
    } else {
        idle_w * gap_s
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
        // Little's law.
        assert!((q.mean_jobs_in_system().unwrap() - 5.0 * 0.15).abs() < 1e-12);
    }

    #[test]
    fn md1_wait_is_half_of_mm1() {
        let lambda = 3.0;
        let t = 0.2;
        let md1 = MD1::new(lambda, t).unwrap();
        let mm1 = MM1 {
            lambda,
            service_s: t,
        };
        let wd = md1.mean_wait_s().unwrap();
        let wm = mm1.mean_wait_s().unwrap();
        assert!((wm / wd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mg1_interpolates_md1_and_mm1() {
        let (lambda, t) = (4.0, 0.1);
        let md1 = MD1::new(lambda, t).unwrap().mean_wait_s().unwrap();
        let mm1 = MM1 {
            lambda,
            service_s: t,
        }
        .mean_wait_s()
        .unwrap();
        let g0 = MG1::new(lambda, t, 0.0).unwrap().mean_wait_s().unwrap();
        let g1 = MG1::new(lambda, t, 1.0).unwrap().mean_wait_s().unwrap();
        assert!((g0 - md1).abs() < 1e-12, "scv=0 must equal M/D/1");
        assert!((g1 - mm1).abs() < 1e-12, "scv=1 must equal M/M/1");
        // Monotone in variance.
        let g_half = MG1::new(lambda, t, 0.5).unwrap().mean_wait_s().unwrap();
        assert!(md1 < g_half && g_half < mm1);
        // Domain checks.
        assert!(MG1::new(lambda, t, -0.1).is_err());
        assert!(MG1::new(20.0, t, 0.5).unwrap().mean_wait_s().is_err());
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
    fn mg1_rejects_non_finite_rate_and_service() {
        // Pre-fix regression: `f64::INFINITY > 0.0` passed the positivity
        // guard, so an infinite λ or E[S] produced NaN waits downstream.
        assert!(MG1::new(f64::INFINITY, 0.1, 0.5).is_err());
        assert!(MG1::new(1.0, f64::INFINITY, 0.5).is_err());
        assert!(MG1::new(f64::NAN, 0.1, 0.5).is_err());
        assert!(MG1::new(1.0, f64::NAN, 0.5).is_err());
        assert!(MG1::new(1.0, 0.1, 0.5).is_ok());
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
