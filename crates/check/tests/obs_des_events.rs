//! The `des_run` telemetry: `reference::des::simulate` narrates each run
//! with the tails of the outcome it returns.
//!
//! The sink registry is process-global, so this binary holds a single
//! `#[test]`: parallel installing tests in one process would race.

use std::sync::Arc;

use hecmix_check::reference::des::{self, DesConfig, ServiceDist};
use hecmix_obs::{Event, RingSink};

#[test]
fn des_runs_are_narrated() {
    let constant = DesConfig {
        pps: 7_000.0,
        n_requests: 20_000,
        service: ServiceDist::Constant(100e-6),
        seed: 5,
    };
    let exponential = DesConfig {
        service: ServiceDist::Exponential(100e-6),
        ..constant
    };
    for cfg in [constant, exponential] {
        let ring = Arc::new(RingSink::new(4096));
        hecmix_obs::install(ring.clone());
        let out = des::simulate(&cfg).unwrap();
        hecmix_obs::uninstall();
        let runs: Vec<_> = ring
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::DesRun {
                    pps,
                    requests,
                    p50_s,
                    p99_s,
                    duration_s,
                    seed,
                } => Some((
                    pps.to_bits(),
                    requests,
                    p50_s.to_bits(),
                    p99_s.to_bits(),
                    duration_s.to_bits(),
                    seed,
                )),
                _ => None,
            })
            .collect();
        let expected = (
            cfg.pps.to_bits(),
            cfg.n_requests,
            out.sojourn.p50().unwrap().to_bits(),
            out.sojourn.p99().unwrap().to_bits(),
            out.duration_s.to_bits(),
            cfg.seed,
        );
        assert_eq!(runs, [expected], "{cfg:?}");
    }
}
