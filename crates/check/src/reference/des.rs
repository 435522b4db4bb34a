//! Request-level discrete-event simulation of the §IV-E dispatcher queue.
//!
//! The closed forms ([`hecmix_queueing::MD1`], [`super::MG1`]) give the
//! queue's waits exactly; this module simulates the paper's dispatcher
//! request by request, so the oracles can check them. Open-loop Poisson
//! arrivals at a configurable rate enter one FIFO server with constant or
//! exponential service; a run returns the sorted sojourn times and the
//! mean wait.
//!
//! Runs are seeded and bit-replayable like `hecmix-sim`: the same
//! [`DesConfig`] (including `seed`) reproduces the exact per-request
//! latency samples, so readings compare bit-for-bit across machines.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hecmix_core::{Error, Result};

/// Per-request service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Every request takes exactly this many seconds (M/D/1).
    Constant(f64),
    /// Exponentially distributed with this mean, seconds (M/M/1).
    Exponential(f64),
}

impl ServiceDist {
    fn mean_s(&self) -> f64 {
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => s,
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Validate every field (positive finite rate, at least one request,
    /// a positive finite service time), and that the arrival clock can
    /// resolve the service times.
    ///
    /// The clock runs to about `n_requests / pps` seconds, where its f64
    /// spacing is about `f64::EPSILON · n_requests / pps`. Every sojourn
    /// is a difference `(t + s) − t` on that clock, so once the spacing
    /// nears the service time a sojourn rounds to 0, and a clock past
    /// `f64::MAX` turns it into NaN. The config is rejected when the
    /// spacing exceeds 0.1 % of the mean service time: at 200 000
    /// requests, only below a utilisation of about 4·10⁻⁸.
    fn validate(&self) -> Result<()> {
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
        let service_s = self.service.mean_s();
        if !(service_s > 0.0) || !service_s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "DesConfig needs a positive finite service time, got {service_s}"
            )));
        }
        let horizon_s = self.n_requests as f64 / self.pps;
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

/// An empirical latency distribution: the sorted per-request samples,
/// read by exact order-statistic quantiles.
#[derive(Debug, Clone, PartialEq)]
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
}

/// Result of one request-level simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DesOutcome {
    /// Sojourn time (arrival → departure) of every request.
    pub sojourn: LatencyCdf,
    /// Mean queueing-only wait (sojourn minus service), summed in arrival
    /// order, seconds.
    pub mean_wait_s: f64,
    /// Simulated horizon: the last departure time, seconds.
    pub duration_s: f64,
}

/// Run the request-level simulation.
///
/// The Lindley recursion of one FIFO server: arrivals are drawn in time
/// order, so each request departs at `max(last departure, arrival) +
/// service`. Each arrival draws its inter-arrival time, then its service
/// time. Memory is the sojourn samples, sorted in full for the CDF; the
/// wait is kept only as a running sum. Same `cfg` ⇒ bit-identical
/// [`DesOutcome`].
///
/// # Errors
/// [`Error::InvalidInput`] for a non-positive or non-finite rate or
/// service time, zero requests, or an arrival clock too coarse to resolve
/// the service time.
pub fn simulate(cfg: &DesConfig) -> Result<DesOutcome> {
    cfg.validate()?;
    let mut sojourn = Vec::with_capacity(cfg.n_requests as usize);
    let mut wait_sum = 0.0f64;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    let mut depart = 0.0f64;
    for _ in 0..cfg.n_requests {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / cfg.pps; // exponential inter-arrival
        let service = cfg.service.sample(&mut rng);
        depart = depart.max(t) + service;
        sojourn.push(depart - t);
        wait_sum += depart - t - service;
    }
    let out = DesOutcome {
        sojourn: LatencyCdf::from_samples(sojourn),
        mean_wait_s: wait_sum / cfg.n_requests as f64,
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
    use crate::reference::MG1;
    use hecmix_queueing::MD1;

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
        // Expected bits were captured from this simulator, whose arrivals
        // draw an inter-arrival time and then a service time; a change to
        // the RNG draw order or to the queue arithmetic moves them.
        struct Pin {
            duration_s: u64,
            /// Sojourn p50, p99 and p999.
            sojourn: [u64; 3],
            mean_wait_s: u64,
            sojourn_fnv: u64,
        }
        let qs = [0.5, 0.99, 0.999];
        // The paper's M/D/1 shape: constant service at ρ = 0.7.
        let constant = single_server(0.7 / 100e-6, ServiceDist::Constant(100e-6), 200_000, 7);
        let pins = [
            (
                constant,
                Pin {
                    duration_s: 0x403c_8da2_e19c_93e4,
                    sojourn: [
                        0x3f26_c9d9_cfda_0000,
                        0x3f48_a2b4_34a0_8000,
                        0x3f52_3592_36fb_8000,
                    ],
                    mean_wait_s: 0x3f1e_e6ab_3f50_ccab,
                    sojourn_fnv: 0xa80e_8829_4d82_f86b,
                },
            ),
            // The P-K oracle's other shape: exponential service.
            (
                DesConfig {
                    service: ServiceDist::Exponential(100e-6),
                    ..constant
                },
                Pin {
                    duration_s: 0x403c_8da7_8767_2667,
                    sojourn: [
                        0x3f2e_ff4b_a979_8000,
                        0x3f5a_3a7a_9b24_9800,
                        0x3f64_d359_51d9_e000,
                    ],
                    mean_wait_s: 0x3f2f_f09c_683a_88d9,
                    sojourn_fnv: 0x5647_c61b_d63c_b30c,
                },
            ),
        ];
        for (cfg, pin) in &pins {
            let out = simulate(cfg).unwrap();
            assert_eq!(out.duration_s.to_bits(), pin.duration_s, "{cfg:?}");
            let sojourn = qs.map(|q| out.sojourn.quantile(q).unwrap().to_bits());
            assert_eq!(sojourn, pin.sojourn, "{cfg:?}");
            assert_eq!(out.mean_wait_s.to_bits(), pin.mean_wait_s, "{cfg:?}");
            assert_eq!(fnv1a(&out.sojourn.samples), pin.sojourn_fnv, "{cfg:?}");
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
        // One FIFO server: textbook M/G/1, at the shape's SCV.
        for (dist, scv, name) in [
            (ServiceDist::Constant(100e-6), 0.0, "M/D/1"),
            (ServiceDist::Exponential(100e-6), 1.0, "M/M/1"),
        ] {
            let rho = 0.6;
            let lambda = rho / dist.mean_s();
            let out = simulate(&single_server(lambda, dist, 400_000, 17)).unwrap();
            let pk = MG1::new(lambda, dist.mean_s(), scv)
                .unwrap()
                .mean_wait_s()
                .unwrap();
            let sim = out.mean_wait_s;
            let rel = (sim - pk).abs() / pk;
            assert!(rel < 0.05, "{name}: sim {sim} vs P-K {pk} (rel {rel})");
        }
    }

    #[test]
    fn sojourn_p99_matches_md1_distribution() {
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
            .response_quantile(0.99)
            .unwrap();
        let sim = out.sojourn.p99().unwrap();
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
        assert_eq!(out.sojourn.samples.len() as u64, overloaded.n_requests);
        let wait = out.mean_wait_s;
        assert!(wait.is_finite() && wait > 0.0, "mean wait {wait}");
        assert!(out.sojourn.samples.iter().all(|s| s.is_finite()));
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
        let cdf = LatencyCdf::from_samples((1..=100).rev().map(f64::from).collect());
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.001), Some(1.0));
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.1), None);
        assert_eq!(LatencyCdf::from_samples(vec![]).p99(), None);
    }
}
