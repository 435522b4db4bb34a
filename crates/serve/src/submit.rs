//! Live job admission for the online scheduler (`POST /submit`,
//! `GET /jobz`).
//!
//! [`OnlineSched`] is the wall-clock face of `hecmix-sched`: it builds one
//! shared heterogeneous [`Pool`] from the daemon's model inventory and
//! places each submitted job with the *same* α-score chooser the replay
//! engine uses ([`hecmix_sched::select_candidate`]) — only the candidate
//! enumeration differs. The replay engine backfills over a reservation
//! timeline; the live path keeps a per-node FIFO tail (`busy_until`).
//! Without faults no node's timeline has a gap after the current time, so
//! both start a job at `max(now, busy_until)` bit for bit, and
//! `tests/submit_replay.rs` replays a live run through the engine to
//! prove it.
//!
//! All state lives under one mutex and every operation is bounded by
//! `pool nodes × menu options`, so submissions are answered inline on the
//! I/O thread like the other read endpoints. The scheduler clock is
//! seconds since the daemon built the pool; responses report absolute
//! times on that clock so a client can correlate `/jobz` lines across
//! requests.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use hecmix_obs::json::Object;
use hecmix_obs::{emit, Event};
use hecmix_sched::{select_candidate, Candidate, Pool};

use crate::http::Response;
use crate::store::ModelStore;

/// How many finished jobs `/jobz` keeps for inspection.
const RECENT_CAP: usize = 64;

/// Tuning knobs for the live scheduler.
#[derive(Debug, Clone)]
pub struct SchedParams {
    /// Placement blend: 1.0 = pure performance, 0.0 = pure energy.
    pub alpha: f64,
    /// Bounded admission: jobs in flight before `/submit` answers 429.
    pub max_outstanding: usize,
    /// Nodes per platform type, `[low-power, high-performance]` order.
    pub counts: Vec<u32>,
}

impl Default for SchedParams {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            max_outstanding: 256,
            counts: vec![16, 14],
        }
    }
}

/// One admitted job, as `/jobz` reports it.
#[derive(Debug, Clone)]
struct JobLine {
    id: u64,
    workload: String,
    units: f64,
    type_idx: usize,
    node_idx: u32,
    opt: usize,
    start_s: f64,
    finish_s: f64,
    /// Absolute deadline on the scheduler clock; infinite = none.
    deadline_s: f64,
    energy_j: f64,
    missed: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Per-node FIFO tail, indexed by `offsets[type] + node`.
    busy_until: Vec<f64>,
    /// Predicted finish times of jobs still in flight.
    in_flight: Vec<f64>,
    next_id: u64,
    submitted: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    misses: u64,
    active_energy_j: f64,
    recent: VecDeque<JobLine>,
}

/// The live scheduler behind `POST /submit` and `GET /jobz`.
#[derive(Debug)]
pub struct OnlineSched {
    pool: Pool,
    alpha: f64,
    max_outstanding: usize,
    offsets: Vec<usize>,
    started: Instant,
    inner: Mutex<Inner>,
}

impl OnlineSched {
    /// Build the shared pool from the daemon's model inventory: one
    /// workload class per store entry (sorted by name, so the class order
    /// is reload-stable), `params.counts` nodes per platform type.
    ///
    /// # Errors
    /// [`hecmix_core::error::Error::InvalidInput`] when the inventory is
    /// empty, the entries disagree on platforms, or the counts do not
    /// match the model bundles — the daemon then runs without `/submit`.
    pub fn from_store(
        store: &ModelStore,
        params: &SchedParams,
    ) -> Result<Self, hecmix_core::error::Error> {
        let classes: Vec<(String, Vec<_>)> = store
            .names()
            .into_iter()
            .filter_map(|name| {
                let models = (*store.get(&name)?.models).clone();
                Some((name, models))
            })
            .collect();
        let pool = Pool::new(classes, params.counts.clone())?;
        if !(params.alpha.is_finite() && (0.0..=1.0).contains(&params.alpha)) {
            return Err(hecmix_core::error::Error::InvalidInput(format!(
                "alpha must be in [0, 1], got {}",
                params.alpha
            )));
        }
        if params.max_outstanding == 0 {
            return Err(hecmix_core::error::Error::InvalidInput(
                "max_outstanding must be at least 1".into(),
            ));
        }
        let mut offsets = Vec::with_capacity(pool.counts.len());
        let mut total = 0usize;
        for &c in &pool.counts {
            offsets.push(total);
            total += c as usize;
        }
        Ok(Self {
            pool,
            alpha: params.alpha,
            max_outstanding: params.max_outstanding,
            offsets,
            started: Instant::now(),
            inner: Mutex::new(Inner {
                busy_until: vec![0.0; total],
                ..Inner::default()
            }),
        })
    }

    /// Seconds since the scheduler was built — the clock every reported
    /// time lives on.
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Admit and place one job; answers like a read endpoint.
    ///
    /// `units` is the job size; `deadline_rel_s`, when given, is a
    /// completion deadline relative to now. The caller has already
    /// validated both (positive, finite).
    pub fn submit(&self, workload: &str, units: f64, deadline_rel_s: Option<f64>) -> Response {
        let Ok(class) = self.pool.class_index(workload) else {
            return Response::error(404, &format!("unknown workload `{workload}`"));
        };
        let now = self.now_s();
        let deadline_s = deadline_rel_s.map_or(f64::INFINITY, |d| now + d);
        let mut inner = self.inner.lock().expect("scheduler state poisoned");
        prune(&mut inner, now);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.submitted += 1;
        let name = workload.to_owned();
        if inner.in_flight.len() >= self.max_outstanding {
            inner.rejected += 1;
            emit(|| Event::JobSubmitted {
                job: id,
                workload: name.clone(),
                size_units: units,
                arrival_s: now,
                deadline_s,
                admitted: false,
            });
            let mut o = Object::new();
            o.u64("id", id);
            o.bool("admitted", false);
            o.u64("outstanding", inner.in_flight.len() as u64);
            return Response::json(429, o.finish());
        }

        let mut cands: Vec<Candidate> = Vec::new();
        for (t, &count) in self.pool.counts.iter().enumerate() {
            let menu = &self.pool.classes[class].options[t];
            for n in 0..count {
                let free = inner.busy_until[self.offsets[t] + n as usize];
                let start_s = free.max(now);
                for (k, o) in menu.iter().enumerate() {
                    let dur = units / o.rate;
                    if !dur.is_finite() {
                        continue;
                    }
                    cands.push(Candidate {
                        type_idx: t,
                        node_idx: n,
                        opt: k,
                        start_s,
                        finish_s: start_s + dur,
                        energy_j: dur * o.power_w,
                        eff_rate: o.rate,
                        power_w: o.power_w,
                    });
                }
            }
        }
        let Some(best) = select_candidate(&cands, now, deadline_s, self.alpha) else {
            return Response::error(503, "no live slot in the pool");
        };

        inner.admitted += 1;
        inner.busy_until[self.offsets[best.type_idx] + best.node_idx as usize] = best.finish_s;
        inner.in_flight.push(best.finish_s);
        inner.active_energy_j += best.energy_j;
        let missed = best.finish_s > deadline_s;
        if missed {
            inner.misses += 1;
        }
        emit(|| Event::JobSubmitted {
            job: id,
            workload: name.clone(),
            size_units: units,
            arrival_s: now,
            deadline_s,
            admitted: true,
        });
        emit(|| Event::TaskPlaced {
            job: id,
            type_idx: best.type_idx,
            node_idx: best.node_idx,
            opt: best.opt,
            start_s: best.start_s,
            finish_s: best.finish_s,
            units,
            energy_j: best.energy_j,
        });
        if missed {
            emit(|| Event::DeadlineMiss {
                job: id,
                deadline_s,
                finish_s: best.finish_s,
            });
        }
        if inner.recent.len() == RECENT_CAP {
            inner.recent.pop_front();
        }
        inner.recent.push_back(JobLine {
            id,
            workload: name,
            units,
            type_idx: best.type_idx,
            node_idx: best.node_idx,
            opt: best.opt,
            start_s: best.start_s,
            finish_s: best.finish_s,
            deadline_s,
            energy_j: best.energy_j,
            missed,
        });

        let menu = &self.pool.classes[class].options[best.type_idx];
        let mut o = Object::new();
        o.u64("id", id);
        o.bool("admitted", true);
        o.str("workload", workload);
        o.str("platform", &self.pool.platforms[best.type_idx].name);
        o.u64("type_idx", best.type_idx as u64);
        o.u64("node_idx", u64::from(best.node_idx));
        o.f64("freq_ghz", menu[best.opt].cfg.freq.ghz());
        o.f64("start_s", best.start_s);
        o.f64("finish_s", best.finish_s);
        o.f64("wait_s", best.start_s - now);
        o.f64("energy_j", best.energy_j);
        // Infinite (no deadline) serializes as null.
        o.f64("deadline_s", deadline_s);
        o.bool("missed", missed);
        Response::json(200, o.finish())
    }

    /// The `GET /jobz` body: counters plus the most recent placements.
    #[must_use]
    pub fn jobz(&self) -> Response {
        let now = self.now_s();
        let mut inner = self.inner.lock().expect("scheduler state poisoned");
        prune(&mut inner, now);
        let mut o = Object::new();
        o.str("schema", "hecmix-jobz-v1");
        o.f64("alpha", self.alpha);
        o.u64("nodes", u64::from(self.pool.nodes()));
        let names = self.pool.class_names();
        o.str_array(
            "workloads",
            &names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        );
        self.counters(&inner, &mut o);
        let mut jobs = String::from("[");
        for (i, j) in inner.recent.iter().enumerate() {
            if i > 0 {
                jobs.push(',');
            }
            let mut jo = Object::new();
            jo.u64("id", j.id);
            jo.str("workload", &j.workload);
            jo.f64("units", j.units);
            jo.u64("type_idx", j.type_idx as u64);
            jo.u64("node_idx", u64::from(j.node_idx));
            jo.u64("opt", j.opt as u64);
            jo.f64("start_s", j.start_s);
            jo.f64("finish_s", j.finish_s);
            jo.f64("deadline_s", j.deadline_s);
            jo.f64("energy_j", j.energy_j);
            jo.bool("missed", j.missed);
            jo.bool("done", j.finish_s <= now);
            jobs.push_str(&jo.finish());
        }
        jobs.push(']');
        o.raw("jobs", &jobs);
        Response::json(200, o.finish())
    }

    /// The `sched` sub-object `/statz` embeds (schema v4).
    #[must_use]
    pub fn statz_object(&self) -> String {
        let now = self.now_s();
        let mut inner = self.inner.lock().expect("scheduler state poisoned");
        prune(&mut inner, now);
        let mut o = Object::new();
        o.f64("alpha", self.alpha);
        self.counters(&inner, &mut o);
        o.finish()
    }

    fn counters(&self, inner: &Inner, o: &mut Object) {
        o.u64("submitted", inner.submitted);
        o.u64("admitted", inner.admitted);
        o.u64("rejected", inner.rejected);
        o.u64("completed", inner.completed);
        o.u64("outstanding", inner.in_flight.len() as u64);
        o.u64("misses", inner.misses);
        o.f64("active_energy_j", inner.active_energy_j);
    }
}

/// Retire every in-flight job whose predicted finish has passed. The
/// placement is reservation-based and fault-free, so a passed finish time
/// *is* completion — no callback needed.
fn prune(inner: &mut Inner, now: f64) {
    let before = inner.in_flight.len();
    inner.in_flight.retain(|&f| f > now);
    inner.completed += (before - inner.in_flight.len()) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecmix_core::profile::WorkloadModel;
    use hecmix_core::types::Platform;

    fn store() -> ModelStore {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let mut store = ModelStore::new();
        store.insert(
            "ep",
            vec![
                WorkloadModel::synthetic_cpu_bound(&arm, "ep", 2.0e9),
                WorkloadModel::synthetic_cpu_bound(&amd, "ep", 1.6e9),
            ],
        );
        store
    }

    fn params() -> SchedParams {
        SchedParams {
            alpha: 0.5,
            max_outstanding: 4,
            counts: vec![2, 1],
        }
    }

    #[test]
    fn submissions_round_robin_the_pool_and_fill_counters() {
        let sched = OnlineSched::from_store(&store(), &params()).expect("pool builds");
        for _ in 0..3 {
            let resp = sched.submit("ep", 1e9, None);
            assert_eq!(resp.status, 200);
        }
        // Pool has 3 nodes and jobs are long: the 4th fills the last
        // admission slot, the 5th must be rejected.
        assert_eq!(sched.submit("ep", 1e9, None).status, 200);
        let resp = sched.submit("ep", 1e9, None);
        assert_eq!(resp.status, 429);
        let stats = sched.statz_object();
        assert!(stats.contains("\"submitted\":5"), "{stats}");
        assert!(stats.contains("\"admitted\":4"), "{stats}");
        assert!(stats.contains("\"rejected\":1"), "{stats}");
    }

    #[test]
    fn unknown_workload_is_404_and_bad_pool_is_rejected() {
        let sched = OnlineSched::from_store(&store(), &params()).expect("pool builds");
        assert_eq!(sched.submit("nope", 1.0, None).status, 404);
        let bad = SchedParams {
            counts: vec![1, 1, 1],
            ..params()
        };
        assert!(OnlineSched::from_store(&store(), &bad).is_err());
        let bad = SchedParams {
            alpha: 1.5,
            ..params()
        };
        assert!(OnlineSched::from_store(&store(), &bad).is_err());
    }

    #[test]
    fn impossible_deadline_counts_a_miss_up_front() {
        let sched = OnlineSched::from_store(&store(), &params()).expect("pool builds");
        let resp = sched.submit("ep", 1e9, Some(1e-6));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"missed\":true"), "{}", resp.body);
        let stats = sched.statz_object();
        assert!(stats.contains("\"misses\":1"), "{stats}");
    }
}
