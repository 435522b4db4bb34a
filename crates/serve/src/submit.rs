//! Live job admission for the online scheduler (`POST /submit`,
//! `GET /jobz`).
//!
//! [`OnlineSched`] is the wall-clock driver of `hecmix-sched`'s engine: it
//! builds one shared heterogeneous [`Pool`] from the daemon's model
//! inventory and holds one live [`Session`] of the engine that
//! `Scheduler::run` replays a whole stream with. Each submission reads the
//! clock, advances the session to it and admits the job there, all under
//! one mutex, so the logged arrivals are in id order and
//! `tests/submit_replay.rs` can replay a live run through the engine bit
//! for bit. The session keeps only its nodes and in-flight jobs, and
//! `/jobz` keeps a bounded ring of recent placements.
//!
//! Every operation is bounded by `pool nodes × menu options` plus the
//! admission bound, so submissions are answered inline on the I/O thread
//! like the other read endpoints. The scheduler clock is seconds since the
//! daemon built the pool; responses report absolute times on that clock so
//! a client can correlate `/jobz` lines across requests.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use hecmix_obs::json::Object;
use hecmix_sched::{Admission, Candidate, JobSpec, Pool, SchedConfig, Scheduler, Session};

use crate::http::Response;
use crate::store::ModelStore;

/// How many placements `/jobz` keeps for inspection.
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

/// The live session and the recent placements `/jobz` lists.
type Live = (Session, VecDeque<(JobSpec, Candidate)>);

/// The live scheduler behind `POST /submit` and `GET /jobz`.
#[derive(Debug)]
pub struct OnlineSched {
    sched: Scheduler,
    started: Instant,
    live: Mutex<Live>,
}

impl OnlineSched {
    /// Build the shared pool from the daemon's model inventory: one
    /// workload class per store entry (sorted by name, so the class order
    /// is reload-stable), `params.counts` nodes per platform type.
    ///
    /// # Errors
    /// [`hecmix_core::error::Error::InvalidInput`] when the inventory is
    /// empty, the entries disagree on platforms, the counts do not match
    /// the model bundles, or the knobs are out of range — the daemon then
    /// runs without `/submit`.
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
        let cfg = SchedConfig {
            alpha: params.alpha,
            max_outstanding: params.max_outstanding,
            ..SchedConfig::default()
        };
        let sched = Scheduler::new(Pool::new(classes, params.counts.clone())?, cfg)?;
        Ok(Self {
            live: Mutex::new((sched.session(), VecDeque::new())),
            sched,
            started: Instant::now(),
        })
    }

    /// Take the lock, read the clock under it and advance the session to
    /// it. The clock is seconds since the scheduler was built — the clock
    /// every reported time lives on.
    fn lock(&self) -> (MutexGuard<'_, Live>, f64) {
        let mut live = self.live.lock().expect("scheduler state poisoned");
        let now = self.started.elapsed().as_secs_f64();
        live.0.advance(now);
        (live, now)
    }

    /// Admit and place one job; answers like a read endpoint.
    ///
    /// `units` is the job size; `deadline_rel_s`, when given, is a
    /// completion deadline relative to now. A job the engine's
    /// `JobSpec::validate` refuses, such as a deadline that rounds to the
    /// arrival, is answered 422 and counted nowhere.
    pub fn submit(&self, workload: &str, units: f64, deadline_rel_s: Option<f64>) -> Response {
        let pool = self.sched.pool();
        let Ok(class) = pool.class_index(workload) else {
            return Response::error(404, &format!("unknown workload `{workload}`"));
        };
        let (mut live, now) = self.lock();
        let (session, recent) = &mut *live;
        let spec = JobSpec {
            id: session.submitted() as u64,
            workload: class,
            size_units: units,
            arrival_s: now,
            deadline_s: deadline_rel_s.map_or(f64::INFINITY, |d| now + d),
        };
        let best = match session.admit(&spec) {
            Err(e) => return Response::error(422, &e.to_string()),
            Ok(Admission::Rejected) => {
                let mut o = Object::new();
                o.u64("id", spec.id);
                o.bool("admitted", false);
                o.u64("outstanding", self.sched.config().max_outstanding as u64);
                return Response::json(429, o.finish());
            }
            Ok(Admission::Stranded) => return Response::error(503, "no live slot in the pool"),
            Ok(Admission::Placed(best)) => best,
        };
        let menu = &pool.classes[class].options[best.type_idx];
        let mut o = Object::new();
        o.u64("id", spec.id);
        o.bool("admitted", true);
        o.str("workload", workload);
        o.str("platform", &pool.platforms[best.type_idx].name);
        o.u64("type_idx", best.type_idx as u64);
        o.u64("node_idx", u64::from(best.node_idx));
        o.f64("freq_ghz", menu[best.opt].cfg.freq.ghz());
        o.f64("start_s", best.start_s);
        o.f64("finish_s", best.finish_s);
        o.f64("wait_s", best.start_s - now);
        o.f64("energy_j", best.energy_j);
        // Infinite (no deadline) serializes as null.
        o.f64("deadline_s", spec.deadline_s);
        o.bool("missed", best.finish_s > spec.deadline_s);
        if recent.len() == RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back((spec, best));
        Response::json(200, o.finish())
    }

    /// The `GET /jobz` body: counters plus the most recent placements.
    #[must_use]
    pub fn jobz(&self) -> Response {
        let (live, now) = self.lock();
        let (session, recent) = &*live;
        let pool = self.sched.pool();
        let mut o = Object::new();
        o.str("schema", "hecmix-jobz-v1");
        o.f64("alpha", self.sched.config().alpha);
        o.u64("nodes", u64::from(pool.nodes()));
        let names = pool.class_names();
        o.str_array(
            "workloads",
            &names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        );
        counters(session, &mut o);
        let mut jobs = String::from("[");
        for (i, (spec, c)) in recent.iter().enumerate() {
            if i > 0 {
                jobs.push(',');
            }
            let mut jo = Object::new();
            jo.u64("id", spec.id);
            jo.str("workload", &pool.classes[spec.workload].name);
            jo.f64("units", spec.size_units);
            jo.u64("type_idx", c.type_idx as u64);
            jo.u64("node_idx", u64::from(c.node_idx));
            jo.u64("opt", c.opt as u64);
            jo.f64("start_s", c.start_s);
            jo.f64("finish_s", c.finish_s);
            jo.f64("deadline_s", spec.deadline_s);
            jo.f64("energy_j", c.energy_j);
            jo.bool("missed", c.finish_s > spec.deadline_s);
            jo.bool("done", c.finish_s <= now);
            jobs.push_str(&jo.finish());
        }
        jobs.push(']');
        o.raw("jobs", &jobs);
        Response::json(200, o.finish())
    }

    /// The `sched` sub-object `/statz` embeds (schema v4).
    #[must_use]
    pub fn statz_object(&self) -> String {
        let (live, _) = self.lock();
        let mut o = Object::new();
        o.f64("alpha", self.sched.config().alpha);
        counters(&live.0, &mut o);
        o.finish()
    }
}

/// The live counters: each in-flight job counts as planned, so its energy
/// and any planned deadline miss show from the moment it is placed.
fn counters(session: &Session, o: &mut Object) {
    let t = session.tally();
    o.u64("submitted", t.submitted as u64);
    o.u64("admitted", t.admitted as u64);
    o.u64("rejected", t.rejected as u64);
    o.u64("completed", t.completed as u64);
    o.u64("outstanding", (t.admitted - t.completed - t.failed) as u64);
    o.u64("misses", t.misses as u64);
    o.f64("active_energy_j", t.active_energy_j);
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
