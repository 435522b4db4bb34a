//! CI gate on the cost of the percentile-deadline planner. It scores each
//! menu entry with the exact M/D/1 quantile, so a whole plan must cost at
//! most a tenth of one 200 000-request run of the reference simulator
//! (`hecmix_check::reference::des::simulate`) read at its p99, the
//! confirmation run a simulating planner would spend on its pick. Both are
//! timed alternately on the same machine, so runner speed cannot flap the
//! ratio.

use hecmix_bench::best_of;
use hecmix_check::reference::des::{self, DesConfig, ServiceDist};
use hecmix_core::config::ConfigSpace;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::rate_table::RateTable;
use hecmix_core::types::Platform;
use hecmix_queueing::dispatch::{
    best_choice_tail, menu_from_frontier, SlotPricer, TailDesConfig, TailTarget,
};

#[test]
fn tail_plan_costs_a_tenth_of_one_des_run() {
    // `fold_cost`'s synthetic models at the `queueing` CLI's 16 × 14 caps.
    let (arm, amd) = (Platform::reference_arm(), Platform::reference_amd());
    let models = vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "gate", 40.0),
        WorkloadModel::synthetic_cpu_bound(&amd, "gate", 60.0),
    ];
    let space = ConfigSpace::two_type(arm, 16, amd, 14);
    let frontier = RateTable::build_pruned(&space, &models)
        .and_then(|t| t.frontier(1e8))
        .unwrap();
    let menu = menu_from_frontier(&frontier, &models);
    let t_min = frontier.min_time_s().unwrap();
    let t_max = menu.iter().map(|c| c.service_s).fold(0.0, f64::max);
    let window_s = 20.0;
    // The entry of least window energy at `lambda`.
    let cheapest = |lambda: f64| {
        (0..menu.len())
            .filter_map(|i| Some((i, menu[i].price(lambda, window_s)?.0)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0
    };

    // (case, λ, p99 deadline, expect the cheapest entry, expect violated)
    let cases = [
        ("cheapest passes", 0.3 / t_max, 100.0 * t_max, true, false),
        ("cheapest misses", 0.9 / t_max, 8.0 * t_min, false, false),
        ("mid-ρ fallback", 0.5 / t_max, 0.5 * t_min, false, true),
        ("high-ρ fallback", 0.95 / t_min, 0.5 * t_min, false, true),
    ];
    for (case, lambda, deadline_s, cheapest_wins, violated) in cases {
        let target = TailTarget::new(0.99, deadline_s).unwrap();
        let plan = || best_choice_tail(&menu, lambda, window_s, target, &TailDesConfig::default());
        let out = plan().unwrap().unwrap();
        assert_eq!(out.violated, violated, "{case}: {out:?}");
        assert_eq!(
            out.index == cheapest(lambda),
            cheapest_wins,
            "{case}: {out:?}"
        );

        let run = DesConfig {
            pps: lambda,
            n_requests: 200_000,
            service: ServiceDist::Constant(menu[out.index].service_s),
            seed: 42,
        };
        let (planner, des_run) = best_of(5, plan, || des::simulate(&run).map(|o| o.sojourn.p99()));
        assert!(
            planner.as_secs_f64() <= 0.1 * des_run.as_secs_f64(),
            "{case}: the plan over {} entries took {planner:?}, one DES run {des_run:?}",
            menu.len()
        );
        eprintln!(
            "{case}: {} entries, plan {planner:?}, DES run {des_run:?}, ratio {:.4}",
            menu.len(),
            planner.as_secs_f64() / des_run.as_secs_f64()
        );
    }
}
