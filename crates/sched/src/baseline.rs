//! The paper's static baseline: whole-pool mix-and-match, one job at a
//! time, FIFO.
//!
//! This is exactly the planning discipline of the source paper lifted to
//! a stream: every job gets the *entire* pool at max knobs, split across
//! types by [`hecmix_core::mix_match::evaluate`]'s rate-proportional
//! matching, and jobs queue FIFO behind each other. Between jobs every
//! node idles (priced with [`hecmix_queueing::idle_gap_energy_j`], same
//! sleep policies as the online scheduler), which is the baseline's
//! structural weakness under diurnal load — the scheduler experiments
//! quantify it.

use hecmix_core::config::{ClusterPoint, NodeConfig};
use hecmix_core::error::Result;
use hecmix_core::mix_match::evaluate;
use hecmix_queueing::idle_gap_energy_j;

use crate::job::JobSpec;
use crate::pool::Pool;
use crate::sched::JobResult;

/// Aggregate outcome of the static FIFO baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Jobs executed (the baseline admits everything).
    pub completed: usize,
    /// Jobs finishing after their finite deadline.
    pub misses: usize,
    /// Energy charged to job executions (includes the deployed nodes'
    /// idle floors during each run, per the paper's energy model), joules.
    pub active_energy_j: f64,
    /// Idle energy of the whole pool between jobs, joules.
    pub idle_energy_j: f64,
    /// Finish time of the last job (or last arrival), seconds.
    pub makespan_s: f64,
    /// Work units executed per node type (mix-and-match shares summed
    /// over jobs).
    pub per_type_units: Vec<f64>,
    /// Per-job results, in input order.
    pub jobs: Vec<JobResult>,
}

impl BaselineOutcome {
    /// Total energy, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.active_energy_j + self.idle_energy_j
    }

    /// Deadline misses as a fraction of executed jobs.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.misses as f64 / self.completed as f64
        }
    }
}

/// Run the stream through static whole-pool mix-and-match, FIFO.
pub fn run_static_mix_and_match(pool: &Pool, jobs: &[JobSpec]) -> Result<BaselineOutcome> {
    for j in jobs {
        j.validate(pool.classes.len())?;
    }
    // Arrival order with stable ties — the stream may be interleaved.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_s
            .total_cmp(&jobs[b].arrival_s)
            .then(a.cmp(&b))
    });
    let point = ClusterPoint {
        per_type: pool
            .platforms
            .iter()
            .zip(&pool.counts)
            .map(|(p, &n)| (n > 0).then(|| NodeConfig::maxed(p, n)))
            .collect(),
    };
    let mut out = BaselineOutcome {
        completed: 0,
        misses: 0,
        active_energy_j: 0.0,
        idle_energy_j: 0.0,
        makespan_s: 0.0,
        per_type_units: vec![0.0; pool.counts.len()],
        jobs: jobs
            .iter()
            .map(|j| JobResult {
                id: j.id,
                admitted: true,
                finish_s: None,
                missed: false,
                migrations: 0,
            })
            .collect(),
    };
    let mut free_at = 0.0f64;
    let price_gap = |out: &mut BaselineOutcome, gap: f64| {
        for (t, &count) in pool.counts.iter().enumerate() {
            out.idle_energy_j +=
                f64::from(count) * idle_gap_energy_j(gap, pool.idle_w[t], &pool.sleep[t]);
        }
    };
    for &i in &order {
        let job = &jobs[i];
        let start = free_at.max(job.arrival_s);
        price_gap(&mut out, start - free_at);
        let run = evaluate(&point, &pool.classes[job.workload].models, job.size_units)?;
        let finish = start + run.time_s;
        out.active_energy_j += run.energy_j;
        for (t, share) in run.shares.iter().enumerate() {
            out.per_type_units[t] += share;
        }
        out.completed += 1;
        out.jobs[i].finish_s = Some(finish);
        if finish > job.deadline_s {
            out.misses += 1;
            out.jobs[i].missed = true;
        }
        free_at = finish;
    }
    let makespan = jobs.iter().map(|j| j.arrival_s).fold(free_at, f64::max);
    // Trailing idle until the last arrival, if the pool drained early.
    price_gap(&mut out, makespan - free_at);
    out.makespan_s = makespan;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::profile::WorkloadModel;
    use hecmix_core::types::Platform;

    fn pool() -> Pool {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        Pool::new(
            vec![(
                "ep".to_owned(),
                vec![
                    WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
                    WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
                ],
            )],
            vec![3, 2],
        )
        .unwrap()
    }

    fn job(id: u64, size: f64, arrival: f64, deadline: f64) -> JobSpec {
        JobSpec {
            id,
            workload: 0,
            size_units: size,
            arrival_s: arrival,
            deadline_s: deadline,
        }
    }

    #[test]
    fn fifo_serializes_and_splits_by_rate() {
        let p = pool();
        let jobs = vec![
            job(0, 1e5, 0.0, f64::INFINITY),
            job(1, 1e5, 0.0, f64::INFINITY),
        ];
        let out = run_static_mix_and_match(&p, &jobs).unwrap();
        assert_eq!(out.completed, 2);
        let f0 = out.jobs[0].finish_s.unwrap();
        let f1 = out.jobs[1].finish_s.unwrap();
        assert!((f1 - 2.0 * f0).abs() < 1e-9 * f1, "FIFO serializes");
        // Shares match a direct evaluation.
        let point = ClusterPoint {
            per_type: vec![
                Some(NodeConfig::maxed(&p.platforms[0], 3)),
                Some(NodeConfig::maxed(&p.platforms[1], 2)),
            ],
        };
        let run = evaluate(&point, &p.classes[0].models, 2e5).unwrap();
        for (got, want) in out.per_type_units.iter().zip(&run.shares) {
            assert!((got - want).abs() < 1e-6 * want.max(1.0));
        }
    }

    #[test]
    fn gaps_between_jobs_are_priced_idle() {
        let p = pool();
        let busy = run_static_mix_and_match(&p, &[job(0, 1e5, 0.0, f64::INFINITY)]).unwrap();
        let gapped = run_static_mix_and_match(
            &p,
            &[
                job(0, 1e5, 0.0, f64::INFINITY),
                job(
                    1,
                    1e5,
                    busy.jobs[0].finish_s.unwrap() + 100.0,
                    f64::INFINITY,
                ),
            ],
        )
        .unwrap();
        assert!(gapped.idle_energy_j > busy.idle_energy_j);
        assert!(gapped.energy_j() > 2.0 * busy.active_energy_j);
    }

    #[test]
    fn deadline_misses_counted() {
        let p = pool();
        let out = run_static_mix_and_match(&p, &[job(0, 1e6, 0.0, 1e-6)]).unwrap();
        assert_eq!(out.misses, 1);
        assert!(out.jobs[0].missed);
        assert!(out.miss_rate() > 0.99);
    }

    #[test]
    fn out_of_order_arrivals_run_fifo_by_arrival() {
        let p = pool();
        let jobs = vec![
            job(0, 1e4, 50.0, f64::INFINITY),
            job(1, 1e4, 0.0, f64::INFINITY),
        ];
        let out = run_static_mix_and_match(&p, &jobs).unwrap();
        assert!(out.jobs[1].finish_s.unwrap() < out.jobs[0].finish_s.unwrap());
    }
}
