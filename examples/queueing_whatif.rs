//! Queueing what-if analysis (§IV-E): how does the job arrival rate change
//! the energy story?
//!
//! Takes the 16 ARM + 14 AMD memcached cluster of the paper's Fig. 10 and
//! shows, for a range of arrival rates, the cheapest feasible frontier
//! configuration for a response-time SLO over a 20-second observation
//! window — including the sharp drop when the cheapest configuration stops
//! needing any high-idle-power AMD nodes.
//!
//! ```text
//! cargo run --release --example queueing_whatif
//! ```

use hecmix_check::reference::des::{self, DesConfig, ServiceDist};
use hecmix_experiments::figures::fig10;
use hecmix_experiments::lab::Lab;
use hecmix_queueing::MD1;
use hecmix_workloads::memcached::Memcached;

fn main() {
    let lab = Lab::new();
    let curves = fig10(&lab, &Memcached::default());

    for curve in &curves {
        println!(
            "== nominal utilization {:.0} % (λ = {:.2} jobs/s) ==",
            curve.nominal_utilization * 100.0,
            curve.lambda
        );
        println!(
            "{:>12}  {:>12}  {:>10}  node types",
            "response ms", "energy 20s J", "ρ"
        );
        for p in &curve.points {
            println!(
                "{:>12.1}  {:>12.1}  {:>10.3}  {}",
                p.response_s * 1e3,
                p.energy_j,
                p.utilization,
                if p.uses_amd { "ARM + AMD" } else { "ARM only" }
            );
        }
        // Flag the paper's sharp drop: the first ARM-only point.
        if let Some(first_arm_only) = p_first_arm_only(&curve.points) {
            println!(
                "--> AMD nodes leave the configuration at response ≈ {:.0} ms; idle power falls from tens of watts to a few",
                first_arm_only * 1e3
            );
        }
        println!();
    }

    // Cross-check the analytical M/D/1 wait against the self-check's
    // reference discrete-event simulation at the middle utilization.
    let service = 0.05;
    let lambda = curves[1].lambda;
    let analytic = MD1::new(lambda, service)
        .and_then(|q| q.mean_wait_s())
        .expect("stable queue");
    // With constant service the DES runs the same M/D/1 queue.
    let simulated = des::simulate(&DesConfig {
        pps: lambda,
        n_requests: 200_000,
        service: ServiceDist::Constant(service),
        seed: 7,
    })
    .expect("valid simulation inputs")
    .mean_wait_s;
    println!(
        "M/D/1 cross-check at λ={lambda:.2}, T={service}s: analytic wait {:.2} ms vs simulated {:.2} ms",
        analytic * 1e3,
        simulated * 1e3
    );
}

fn p_first_arm_only(points: &[hecmix_experiments::figures::Fig10Point]) -> Option<f64> {
    points.iter().find(|p| !p.uses_amd).map(|p| p.response_s)
}
