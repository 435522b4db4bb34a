//! Request-level discrete-event simulation of the §IV-E dispatcher queue.
//!
//! The analytical queueing layer ([`crate::MD1`], [`crate::MG1`]) predicts
//! *mean* delay; interactive sizing is about tails. This module simulates
//! the paper's dispatcher request by request — open-loop Poisson arrivals
//! at a configurable rate into one FIFO server with constant or
//! exponential service — and returns the sojourn- and wait-time CDFs.
//!
//! Runs are seeded and bit-replayable like `hecmix-sim`: the same
//! [`DesConfig`] (including `seed`) reproduces the exact per-request
//! latency samples, so CDFs compare bit-for-bit across machines.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hecmix_core::{Error, Result};

/// Per-request service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceDist {
    /// Every request takes exactly this many seconds (M/D/1).
    Constant(f64),
    /// Exponentially distributed with this mean, seconds (M/M/1).
    Exponential(f64),
}

impl ServiceDist {
    /// Validate the distribution parameters.
    pub fn validate(&self) -> Result<()> {
        let s = self.mean_s();
        if !(s > 0.0) || !s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "ServiceDist needs positive finite times, got service_s={s}"
            )));
        }
        Ok(())
    }

    /// Mean service time, seconds.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => s,
        }
    }

    /// Squared coefficient of variation (`Var[S]/E[S]²`) — plugs straight
    /// into the [`crate::MG1`] Pollaczek–Khinchine screen.
    #[must_use]
    pub fn scv(&self) -> f64 {
        match *self {
            ServiceDist::Constant(_) => 0.0,
            ServiceDist::Exponential(_) => 1.0,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            ServiceDist::Constant(s) => s,
            ServiceDist::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * mean
            }
        }
    }
}

/// One request-level simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Open-loop Poisson arrival rate, requests per second.
    pub pps: f64,
    /// Number of arrivals to generate.
    pub n_requests: u64,
    /// Service-time distribution.
    pub service: ServiceDist,
    /// RNG seed; same config + seed ⇒ bit-identical latency samples.
    pub seed: u64,
}

/// Largest fraction of the mean service time that the arrival clock's f64
/// spacing may reach (see [`DesConfig::validate`]).
const CLOCK_RESOLUTION: f64 = 1e-3;

impl DesConfig {
    /// Validate every field (positive finite rate, at least one request, a
    /// valid distribution), and that the arrival clock can resolve the
    /// service times.
    ///
    /// The clock runs to about `n_requests / pps` seconds, where its f64
    /// spacing is about `f64::EPSILON · n_requests / pps`. Every sojourn
    /// is a difference `(t + s) − t` on that clock, so once the spacing
    /// nears the service time a sojourn rounds to 0, and a clock past
    /// `f64::MAX` turns it into NaN. The config is rejected when the
    /// spacing exceeds 0.1 % of the mean service time: at 200 000
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
        self.service.validate()?;
        let horizon_s = self.n_requests as f64 / self.pps;
        let service_s = self.service.mean_s();
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

    /// True when the CDF holds no sample.
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
        let n = self.samples.len();
        if n == 0 || !(q > 0.0) || q > 1.0 {
            return None;
        }
        let rank = (q * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
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

/// Result of one request-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesOutcome {
    /// Sojourn time (arrival → departure) of every request.
    pub sojourn: LatencyCdf,
    /// Queueing-only wait (sojourn minus service) of every request.
    pub wait: LatencyCdf,
    /// Simulated horizon: the last departure time, seconds.
    pub duration_s: f64,
}

/// Run the request-level simulation and keep both latency CDFs.
///
/// The Lindley recursion of one FIFO server: arrivals are drawn in time
/// order, so each request departs at `max(last departure, arrival) +
/// service`. Memory is the sojourn and wait samples, both sorted in full
/// for the CDFs. Same `cfg` ⇒ bit-identical [`DesOutcome`].
///
/// # Errors
/// [`Error::InvalidInput`] when `cfg` fails [`DesConfig::validate`].
pub fn simulate(cfg: &DesConfig) -> Result<DesOutcome> {
    cfg.validate()?;
    let n = cfg.n_requests as usize;
    let mut sojourn = Vec::with_capacity(n);
    let mut wait = Vec::with_capacity(n);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    let mut depart = 0.0f64;
    for _ in 0..cfg.n_requests {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / cfg.pps; // exponential inter-arrival

        // Discarded flow draw: dropping it would move every seeded stream.
        rng.gen_range(0..1u32);
        let service = cfg.service.sample(&mut rng);
        depart = depart.max(t) + service;
        sojourn.push(depart - t);
        wait.push(depart - t - service);
    }
    let out = DesOutcome {
        sojourn: LatencyCdf::from_samples(sojourn),
        wait: LatencyCdf::from_samples(wait),
        duration_s: depart,
    };
    hecmix_obs::emit(|| hecmix_obs::Event::DesRun {
        pps: cfg.pps,
        requests: cfg.n_requests,
        p50_s: out.sojourn.p50().unwrap_or(f64::NAN),
        p99_s: out.sojourn.p99().unwrap_or(f64::NAN),
        duration_s: depart,
        seed: cfg.seed,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MD1, MG1};

    fn single_server(pps: f64, service: ServiceDist, n: u64, seed: u64) -> DesConfig {
        DesConfig {
            pps,
            n_requests: n,
            service,
            seed,
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
        let cfg = single_server(5_000.0, ServiceDist::Exponential(100e-6), 50_000, 99);
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        // Bit-identical, not approximately equal: full sample vectors.
        assert_eq!(a, b);
        let c = simulate(&DesConfig { seed: 100, ..cfg }).unwrap();
        assert_ne!(a.sojourn, c.sojourn, "different seed must differ");
    }

    #[test]
    fn des_stream_is_pinned() {
        // Expected bits were captured from earlier simulators (the first
        // pin from one that drew every arrival up front); a change to the
        // RNG draw order or to the queue arithmetic moves them.
        struct Pin {
            duration_s: u64,
            /// Sojourn p50, p99 and p999.
            sojourn: [u64; 3],
            wait_p99: u64,
            sojourn_fnv: u64,
        }
        let qs = [0.5, 0.99, 0.999];
        // The paper's M/D/1 shape: constant service at ρ = 0.7.
        let constant = single_server(0.7 / 100e-6, ServiceDist::Constant(100e-6), 200_000, 7);
        let pins = [
            (
                constant,
                Pin {
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
            // The P-K oracle's other shape: exponential service.
            (
                DesConfig {
                    service: ServiceDist::Exponential(100e-6),
                    ..constant
                },
                Pin {
                    duration_s: 0x403c_aae3_1274_6300,
                    sojourn: [
                        0x3f2d_cc54_8c45_0000,
                        0x3f58_b75e_cf35_c000,
                        0x3f61_d44b_3126_3000,
                    ],
                    wait_p99: 0x3f56_bc7d_33c9_842d,
                    sojourn_fnv: 0xf186_561b_bfcc_4339,
                },
            ),
        ];
        for (cfg, pin) in &pins {
            let out = simulate(cfg).unwrap();
            assert_eq!(out.duration_s.to_bits(), pin.duration_s, "{cfg:?}");
            let sojourn = qs.map(|q| out.sojourn.quantile(q).unwrap().to_bits());
            assert_eq!(sojourn, pin.sojourn, "{cfg:?}");
            assert_eq!(out.wait.p99().unwrap().to_bits(), pin.wait_p99, "{cfg:?}");
            assert_eq!(fnv1a(out.sojourn.sorted()), pin.sojourn_fnv, "{cfg:?}");
        }
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
        // One FIFO server: textbook M/G/1.
        for (dist, name) in [
            (ServiceDist::Constant(100e-6), "M/D/1"),
            (ServiceDist::Exponential(100e-6), "M/M/1"),
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
    fn overloaded_queue_stays_busy_and_finite() {
        // ρ = 2 has no stationary distribution, but a finite-horizon run
        // is still well-defined: the queue just grows and the server stays
        // busy throughout.
        let service = 100e-6;
        let overloaded = single_server(2.0 / service, ServiceDist::Constant(service), 20_000, 7);
        let out = simulate(&overloaded).unwrap();
        assert_eq!(out.sojourn.len() as u64, overloaded.n_requests);
        let wait = out.wait.mean().unwrap();
        assert!(wait.is_finite() && wait > 0.0, "mean wait {wait}");
        assert!(out.sojourn.sorted().iter().all(|s| s.is_finite()));
        let busy = overloaded.n_requests as f64 * service / out.duration_s;
        assert!((busy - 1.0).abs() < 0.05, "busy fraction {busy}");
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
            service: ServiceDist::Constant(-1.0),
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            service: ServiceDist::Exponential(f64::NAN),
            ..ok
        })
        .is_err());
        // The arrival clock must resolve the 1 ms service: at pps 1e-10
        // its spacing near n/pps = 1e11 s is ~2e-5 s, past 0.1 % of the
        // service; at pps 1e-310, n/pps overflows to infinity.
        for pps in [1e-10, 1e-310] {
            let coarse = DesConfig { pps, ..ok };
            assert!(matches!(simulate(&coarse), Err(Error::InvalidInput(_))));
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
