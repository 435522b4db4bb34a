//! The online-scheduler study (DESIGN.md §16): replay seeded diurnal job
//! streams through `hecmix-sched` at a sweep of α blends and compare
//! aggregate energy and deadline-miss rate against the static
//! mix-and-match baseline that runs every job across the whole maxed
//! pool in arrival order.
//!
//! Two traces are studied on one shared two-class pool (memcached +
//! julius): each trace is a merged pair of Poisson-thinned diurnal
//! streams, with one class dominant and the other as background load.
//! The question the artifact answers is the scheduling analogue of the
//! paper's provisioning question — *given a stream of deadline-bearing
//! jobs, how much energy does placing each job on the right node type at
//! the right operating point save over treating the cluster as one big
//! mix-and-match machine?* — and how the α blend trades that saving
//! against deadline slack. A final run repeats the mid blend under a
//! seeded crash schedule to exercise the migration path end to end.

use hecmix_core::dvfs::NodeDvfs;
use hecmix_queueing::dispatch::DiurnalProfile;
use hecmix_sched::{
    run_static_mix_and_match, synthesize_diurnal, BaselineOutcome, DiurnalTraceSpec, JobSpec, Pool,
    SchedConfig, SchedOutcome, Scheduler,
};
use hecmix_sim::FaultSchedule;
use hecmix_workloads::Workload;

use crate::lab::Lab;

/// The α blends the sweep visits, pure-energy to pure-performance.
pub const ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One α point of the sweep.
#[derive(Debug, Clone)]
pub struct AlphaOutcome {
    /// Placement blend (1 = performance, 0 = energy).
    pub alpha: f64,
    /// Full scheduler outcome at this blend.
    pub outcome: SchedOutcome,
}

/// Everything the `scheduler` artifact reports for one trace.
#[derive(Debug, Clone)]
pub struct SchedulerStudy {
    /// Name of the dominant workload class of the trace.
    pub trace: String,
    /// Jobs in the merged stream.
    pub jobs: usize,
    /// The static mix-and-match baseline over the same stream and pool.
    pub baseline: BaselineOutcome,
    /// The α sweep, in [`ALPHAS`] order.
    pub sweep: Vec<AlphaOutcome>,
    /// The α = 0.5 blend re-run under a seeded crash schedule.
    pub faulted: SchedOutcome,
}

impl SchedulerStudy {
    /// α points that beat the baseline outright: strictly lower total
    /// energy at an equal-or-better deadline-miss rate.
    #[must_use]
    pub fn winning_alphas(&self) -> Vec<f64> {
        self.sweep
            .iter()
            .filter(|a| {
                a.outcome.energy_j() < self.baseline.energy_j()
                    && a.outcome.miss_rate() <= self.baseline.miss_rate()
            })
            .map(|a| a.alpha)
            .collect()
    }
}

/// Build the shared two-class pool from characterized lab models, with a
/// synthetic DVFS ladder (and its cluster-sleep state, at 10 % of the
/// idle floor) attached to every model. The sleep state is what makes
/// the study's energy comparison meaningful: the AMD K10 idles at ~46 W
/// against the A9's ~1.4 W, so with always-on idle pricing the idle
/// floor swamps any placement decision — the paper's own argument for
/// why high idle power erases heterogeneity savings.
///
/// # Panics
/// When the lab bundles are inconsistent — impossible for the built-in
/// workloads, so a panic here means the lab itself regressed.
#[must_use]
pub fn scheduler_pool(lab: &Lab, workloads: &[&dyn Workload], counts: Vec<u32>) -> Pool {
    let classes = workloads
        .iter()
        .map(|w| {
            let mut models = lab.models(*w).to_vec();
            for m in &mut models {
                m.dvfs = NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1);
            }
            (w.name().to_owned(), models)
        })
        .collect();
    Pool::new(classes, counts).expect("lab bundles form a consistent pool")
}

/// Synthesize the merged diurnal stream for one trace: class `dominant`
/// carries the full diurnal rate, every other class runs at a third of
/// it as background load. Job sizes put a mean job at ~8 s on the
/// fastest single node of its class, with deadlines at 2–6× that.
#[must_use]
pub fn scheduler_trace(pool: &Pool, dominant: usize, days: u32, seed: u64) -> Vec<JobSpec> {
    let streams: Vec<Vec<JobSpec>> = pool
        .classes
        .iter()
        .enumerate()
        .map(|(w, class)| {
            let lambda = if w == dominant { 0.22 } else { 0.07 };
            let profile =
                DiurnalProfile::new(lambda, 0.7, 24, 60.0).expect("profile parameters are valid");
            let peak = class.peak_rate();
            synthesize_diurnal(&DiurnalTraceSpec {
                workload: w,
                profile,
                days,
                mean_size_units: 8.0 * peak,
                size_spread: 0.4,
                service_ref_s: 8.0,
                deadline_slack: (2.0, 16.0),
                seed: seed ^ ((w as u64 + 1) << 32),
            })
            .expect("trace spec is valid")
        })
        .collect();
    hecmix_sched::job::merge_streams(&streams)
}

/// Run the full study for one trace: baseline, α sweep, faulted re-run.
///
/// # Panics
/// When a scheduler run rejects the synthesized stream — the stream is
/// validated at synthesis, so a panic means the engine regressed.
#[must_use]
pub fn scheduler_study(pool: &Pool, dominant: usize, days: u32, seed: u64) -> SchedulerStudy {
    let jobs = scheduler_trace(pool, dominant, days, seed);
    let baseline = run_static_mix_and_match(pool, &jobs).expect("baseline run");
    let sweep = ALPHAS
        .iter()
        .map(|&alpha| {
            let sched = Scheduler::new(
                pool.clone(),
                SchedConfig {
                    alpha,
                    max_outstanding: jobs.len().max(1),
                    ..SchedConfig::default()
                },
            )
            .expect("config is valid");
            AlphaOutcome {
                alpha,
                outcome: sched.run(&jobs).expect("clean run"),
            }
        })
        .collect();
    let sched = Scheduler::new(
        pool.clone(),
        SchedConfig {
            alpha: 0.5,
            max_outstanding: jobs.len().max(1),
            ..SchedConfig::default()
        },
    )
    .expect("config is valid");
    let horizon = f64::from(days) * 24.0 * 60.0;
    let faults = FaultSchedule::random_crashes(seed ^ 0xFA17, &pool.counts, 3, horizon);
    let faulted = sched.run_faulted(&jobs, &faults).expect("faulted run");
    SchedulerStudy {
        trace: pool.classes[dominant].name.clone(),
        jobs: jobs.len(),
        baseline,
        sweep,
        faulted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_workloads::julius::Julius;
    use hecmix_workloads::memcached::Memcached;

    #[test]
    fn study_is_deterministic_and_beats_the_baseline_somewhere() {
        let lab = Lab::new();
        let pool = scheduler_pool(
            &lab,
            &[&Memcached::default(), &Julius::default()],
            vec![6, 5],
        );
        let a = scheduler_study(&pool, 0, 1, 7);
        let b = scheduler_study(&pool, 0, 1, 7);
        assert_eq!(a.jobs, b.jobs);
        for (x, y) in a.sweep.iter().zip(&b.sweep) {
            assert_eq!(
                x.outcome.energy_j().to_bits(),
                y.outcome.energy_j().to_bits()
            );
            assert_eq!(x.outcome.misses, y.outcome.misses);
        }
        assert!(
            !a.winning_alphas().is_empty(),
            "some α must beat the static baseline: baseline {} J @ miss {:.3}, sweep {:?}",
            a.baseline.energy_j(),
            a.baseline.miss_rate(),
            a.sweep
                .iter()
                .map(|s| (s.alpha, s.outcome.energy_j(), s.outcome.miss_rate()))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.faulted.migrations, b.faulted.migrations);
    }
}
