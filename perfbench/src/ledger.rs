//! The per-layer pass of a traced run: the workload's own seeded inputs
//! replayed through each layer's public functions, every call bracketed by
//! a span. Nothing here runs inside the daemons; the layers are measured
//! from outside, on the same inputs the daemons were sent.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_core::budget::PowerBudget;
use hecmix_core::config::ConfigSpace;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::rate_table::RateTable;
use hecmix_core::resilience::ResilientTable;
use hecmix_obs::{Event, RingSink};
use hecmix_queueing::dispatch::{best_choice_tail, ConfigChoice, TailDesConfig, TailTarget};
use hecmix_serve::api::{format_response, CachedPlan, ComputeSpec, Routed};
use hecmix_serve::cache::ShardedLru;
use hecmix_serve::fleet::{Fleet, FleetConfig};
use hecmix_serve::http::{self, try_parse};
use hecmix_serve::router::Ring;
use hecmix_serve::store::ModelEntry;
use hecmix_serve::{AppState, ModelStore, OnlineSched, SchedParams};

use crate::gen::{Kind, PlanReq, SubmitReq};
use crate::rig::{self, connect, CACHE_ENTRIES, VNODES};
use crate::trace::Tracer;

/// Calls per timed batch for operations near the clock's resolution.
const BATCH: u32 = 64;

/// What the layer pass measured beyond its spans.
#[derive(Default)]
pub struct Layers {
    /// Kind of each plan request id (index = rid).
    pub kinds: Vec<Kind>,
    /// Per-call nanoseconds of batched operations, by layer name.
    pub per_call_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Configurations the rate-table folds scanned (`SweepEnd`).
    pub scanned: u64,
    /// Configurations in the unpruned spaces of those folds.
    pub space_points: u64,
    /// DES runs spent by the tail planner (`TailPlan`).
    pub des_runs: u64,
    /// Requests simulated by those runs (`DesRun`).
    pub des_requests: u64,
    /// Menu entries the analytic screen removed (`TailPlan`).
    pub screened: u64,
    /// Menu entries the tail planner considered (`TailPlan`).
    pub candidates: u64,
}

/// Events the layer functions emit while `f` runs (the sink is installed
/// only around `f`, so the untraced calls pay nothing for it).
fn with_events<T>(ring: &Arc<RingSink>, f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    ring.clear();
    hecmix_obs::install(Arc::clone(ring) as Arc<dyn hecmix_obs::Sink>);
    let out = f();
    let _ = hecmix_obs::uninstall();
    (out, ring.events())
}

fn platforms(entry: &ModelEntry) -> [hecmix_core::types::Platform; 2] {
    [
        entry.models[0].platform.clone(),
        entry.models[1].platform.clone(),
    ]
}

/// The serving menu the tail planner scores, built from a frontier the
/// same way the daemon builds it.
fn tail_menu(frontier: &ParetoFrontier, entry: &ModelEntry) -> Vec<ConfigChoice> {
    let platforms = platforms(entry);
    frontier
        .points
        .iter()
        .map(|p| ConfigChoice {
            label: p.config.label(&platforms),
            service_s: p.time_s,
            job_energy_j: p.energy_j,
            idle_power_w: p
                .config
                .per_type
                .iter()
                .zip(entry.models.iter())
                .filter_map(|(cfg, m)| cfg.map(|c| f64::from(c.nodes) * m.power.idle_w))
                .sum(),
        })
        .collect()
}

impl Layers {
    /// One rate-table build + fold, spanned, counting scanned points.
    fn rate_table(
        &mut self,
        t: &mut Tracer,
        ring: &Arc<RingSink>,
        rid: u64,
        entry: &ModelEntry,
        (arm, amd): (u32, u32),
        units: f64,
    ) -> ParetoFrontier {
        let [low, high] = platforms(entry);
        let space = ConfigSpace::two_type(low, arm, high, amd);
        let table = t.span("rate_table.build", rid, |_| {
            RateTable::build_pruned(&space, &entry.models).expect("workload spaces are valid")
        });
        let (frontier, events) = t.span("rate_table.frontier", rid, |_| {
            with_events(ring, || table.frontier(units).expect("positive units"))
        });
        self.space_points += space.count();
        for e in events {
            if let Event::SweepEnd { points, .. } = e {
                self.scanned += points;
            }
        }
        frontier
    }

    /// The model layers behind one request, each call spanned under a
    /// `model` root.
    fn model(
        &mut self,
        t: &mut Tracer,
        ring: &Arc<RingSink>,
        rid: u64,
        req: &PlanReq,
        store: &ModelStore,
    ) {
        let entry = store
            .get(req.spec.workload())
            .expect("generated workloads exist");
        t.enter("model", rid);
        match req.spec {
            ComputeSpec::Frontier {
                arm, amd, units, ..
            } => {
                black_box(self.rate_table(t, ring, rid, entry, (arm, amd), units));
            }
            ComputeSpec::ResilientFrontier {
                arm, amd, units, k, ..
            } => {
                t.span("resilience.frontier", rid, |_| {
                    let [low, high] = platforms(entry);
                    let space = ConfigSpace::two_type(low, arm, high, amd);
                    let table = ResilientTable::build(&space, &entry.models).expect("valid space");
                    black_box(table.frontier(units, k).expect("positive units"));
                });
            }
            ComputeSpec::Whatif {
                budget_w,
                units,
                step_high,
                ..
            } => {
                t.span("budget.ladder", rid, |_| {
                    let [low, high] = platforms(entry);
                    let ladder = PowerBudget::new(budget_w)
                        .substitution_ladder(&low, &high, step_high)
                        .expect("budgets fit a node");
                    for mix in ladder {
                        black_box(
                            mix.frontier(&low, &high, &entry.models, units)
                                .expect("rung"),
                        );
                    }
                });
            }
            ComputeSpec::TailPlan {
                arm,
                amd,
                units,
                lambda,
                p99_s,
                window_s,
                ..
            } => {
                let frontier = self.rate_table(t, ring, rid, entry, (arm, amd), units);
                let menu = tail_menu(&frontier, entry);
                let target = TailTarget::new(0.99, p99_s).expect("positive p99");
                let (_, events) = t.span("dispatch.tail", rid, |_| {
                    with_events(ring, || {
                        best_choice_tail(&menu, lambda, window_s, target, &TailDesConfig::default())
                            .expect("valid tail inputs")
                    })
                });
                for e in events {
                    match e {
                        Event::TailPlan {
                            candidates,
                            screened_out,
                            des_runs,
                            ..
                        } => {
                            self.candidates += candidates as u64;
                            self.screened += screened_out as u64;
                            self.des_runs += des_runs;
                        }
                        Event::DesRun { requests, .. } => self.des_requests += requests,
                        _ => {}
                    }
                }
            }
        }
        t.exit();
    }

    fn batch(&mut self, t: &mut Tracer, name: &'static str, rid: u64, mut f: impl FnMut()) {
        let start = Instant::now();
        t.span(name, rid, |_| {
            for _ in 0..BATCH {
                f();
            }
        });
        let ns = start.elapsed().as_nanos() as f64 / f64::from(BATCH);
        self.per_call_ns.entry(name).or_default().push(ns);
    }

    /// Replay plan requests through the daemon's layers, in order, until
    /// `budget` has passed and `enough` says every kind has samples. `hits`
    /// selects the path the workload's traffic takes: a cache hit answered
    /// at route time, or a miss that computes. `own` is false when the
    /// workload sends no plan requests, so its HTTP/JSON spans are kept
    /// apart from the ones of its own traffic.
    pub fn plans(
        &mut self,
        t: &mut Tracer,
        reqs: &[PlanReq],
        hits: bool,
        own: bool,
        budget: Duration,
        enough: &dyn Fn(&Layers) -> bool,
    ) {
        let state = AppState::new(rig::build_store(), 1, CACHE_ENTRIES);
        let st = state.store();
        let cache: ShardedLru<CachedPlan> = ShardedLru::new(CACHE_ENTRIES);
        let ring = Arc::new(RingSink::new(1 << 16));
        let owners = Ring::new(rig::REPLICAS, VNODES);
        let names = WireNames::new(own);
        let deadline = Instant::now() + budget;
        for (i, req) in reqs.iter().enumerate() {
            if Instant::now() > deadline && enough(self) {
                break;
            }
            let rid = i as u64;
            self.kinds.push(req.kind);
            let wire = req.wire();
            let key = req.key(&st);
            // On the hit path the compute ran before the request arrived,
            // when the warmup filled the cache.
            let prior = hits.then(|| {
                t.span("api.compute", rid, |_| state.compute(&req.spec, &st))
                    .expect("generated requests compute")
            });
            t.enter("request", rid);
            let (parsed, _) = t
                .span(names.parse, rid, |_| try_parse(&wire))
                .expect("generated requests parse")
                .expect("generated requests are complete");
            let (resp, plan) = match prior {
                Some(plan) => match t.span("api.route", rid, |_| state.route(&parsed)) {
                    Routed::Ready { resp, cached: true } => (resp, plan),
                    _ => panic!("a hot request missed the cache"),
                },
                None => {
                    let routed = t.span("api.route.miss", rid, |_| state.route(&parsed));
                    assert!(
                        matches!(routed, Routed::Compute(_)),
                        "a cold request hit the cache"
                    );
                    let plan = t
                        .span("api.compute", rid, |_| state.compute(&req.spec, &st))
                        .expect("generated requests compute");
                    t.span("cache.insert", rid, |_| {
                        cache.insert(key, Arc::clone(&plan))
                    });
                    let resp = t.span("api.format", rid, |_| {
                        format_response(&req.ctx, &st, &plan, false, false, plan.compute_us)
                    });
                    (resp, plan)
                }
            };
            black_box(t.span(names.encode, rid, |_| resp.to_bytes()));
            t.exit();

            // Calls the request above made inside other calls, or that its
            // path skips, timed on their own.
            black_box(t.span(names.json, rid, |_| {
                hecmix_obs::json::parse(&req.body).expect("generated JSON parses")
            }));
            if hits {
                t.span("cache.insert", rid, |_| {
                    cache.insert(key, Arc::clone(&plan))
                });
                black_box(t.span("api.format", rid, |_| {
                    format_response(&req.ctx, &st, &plan, true, false, 1)
                }));
            } else {
                // The cold request is cached now: the route a repeat takes.
                black_box(t.span("api.route", rid, |_| state.route(&parsed)));
            }
            self.batch(t, "cache.get", rid, || {
                black_box(cache.get(key));
            });
            self.batch(t, "router.owner", rid, || {
                black_box(owners.owner(black_box(key)));
            });
            self.model(t, &ring, rid, req, &st);
        }
    }

    /// Place jobs on a private live scheduler, each placement spanned
    /// inside its request.
    pub fn submits(&mut self, t: &mut Tracer, jobs: &[SubmitReq], own: bool, rid0: u64) {
        let names = WireNames::new(own);
        let store = rig::build_store();
        let params = SchedParams::default();
        let mut sched = OnlineSched::from_store(&store, &params).expect("pool builds");
        for (i, job) in jobs.iter().enumerate() {
            let SubmitReq::Job {
                workload,
                units,
                deadline_s,
                body,
            } = job
            else {
                continue;
            };
            // A fresh pool before the admission cap is reached: placements
            // here arrive far faster than real time.
            if i % (params.max_outstanding / 2) == 0 {
                sched = OnlineSched::from_store(&store, &params).expect("pool builds");
            }
            let rid = rid0 + i as u64;
            let wire = job.wire();
            t.enter("request", rid);
            let _ = black_box(t.span(names.parse, rid, |_| try_parse(&wire)));
            let _ = black_box(t.span(names.json, rid, |_| hecmix_obs::json::parse(body)));
            let resp = t.span("submit.place", rid, |_| {
                sched.submit(workload, *units, Some(*deadline_s))
            });
            black_box(t.span(names.encode, rid, |_| resp.to_bytes()));
            t.exit();
        }
    }
}

/// Span names of the wire-format layers: the plain names for the
/// workload's own traffic, `probe.`-prefixed for inputs it does not send.
struct WireNames {
    parse: &'static str,
    json: &'static str,
    encode: &'static str,
}

impl WireNames {
    fn new(own: bool) -> Self {
        if own {
            Self {
                parse: "http.parse",
                json: "json.parse",
                encode: "http.encode",
            }
        } else {
            Self {
                parse: "probe.http.parse",
                json: "probe.json.parse",
                encode: "probe.http.encode",
            }
        }
    }
}

/// Forward `reqs` through a fleet over `replicas` (not the gateway's own
/// fleet, so its counters stay the workload's), and time the upstream
/// exchange the forward makes, on a fresh connection and on a reused one.
/// Returns the probe fleet for its `/statz` section.
pub fn forwards(
    t: &mut Tracer,
    replicas: &[SocketAddr],
    store: &ModelStore,
    reqs: &[PlanReq],
    rounds: usize,
    rid0: u64,
) -> Result<Arc<Fleet>, String> {
    let fleet = Arc::new(
        Fleet::new(FleetConfig {
            replicas: replicas.iter().map(ToString::to_string).collect(),
            vnodes: VNODES,
            ..FleetConfig::default()
        })
        .map_err(|e| format!("probe fleet: {e}"))?,
    );
    let ring = Ring::new(replicas.len(), VNODES);
    // One untimed pass so every probe key is cached on its owner.
    for req in reqs {
        let resp = fleet.forward(req.key(store), req.path, &req.body);
        if resp.status != 200 {
            return Err(format!("probe forward answered {}", resp.status));
        }
    }
    let mut keepalive: Vec<Option<TcpStream>> = replicas.iter().map(|_| None).collect();
    for round in 0..rounds {
        let req = &reqs[round % reqs.len()];
        let rid = rid0 + round as u64;
        let key = req.key(store);
        let resp = t.span("fleet.forward", rid, |_| {
            fleet.forward(key, req.path, &req.body)
        });
        if resp.status != 200 {
            return Err(format!("probe forward answered {}", resp.status));
        }
        let owner = ring.owner(key);
        let addr = replicas[owner];
        let wire = req.wire();
        t.enter("upstream.fresh", rid);
        let mut conn = t
            .span("upstream.connect", rid, |_| connect(addr))
            .map_err(|e| format!("upstream connect: {e}"))?;
        upstream_exchange(t, rid, &mut conn, &wire)?;
        t.exit();
        let conn = match &mut keepalive[owner] {
            Some(c) => c,
            slot => slot.insert(connect(addr).map_err(|e| format!("upstream connect: {e}"))?),
        };
        t.enter("upstream.keepalive", rid);
        upstream_exchange(t, rid, conn, &wire)?;
        t.exit();
    }
    Ok(fleet)
}

fn upstream_exchange(
    t: &mut Tracer,
    rid: u64,
    conn: &mut TcpStream,
    wire: &[u8],
) -> Result<(), String> {
    t.span("upstream.write", rid, |_| conn.write_all(wire))
        .map_err(|e| format!("upstream write: {e}"))?;
    let (status, _, _) = t
        .span("upstream.read", rid, |_| http::read_response(conn))
        .map_err(|e| format!("upstream read: {e}"))?;
    if status == 200 {
        Ok(())
    } else {
        Err(format!("upstream answered {status}"))
    }
}
