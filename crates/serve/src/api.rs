//! Request routing, plan computation, and response formatting.
//!
//! Eight endpoints over the model machinery in `hecmix-core`:
//!
//! | Endpoint         | Answers                                            |
//! |------------------|----------------------------------------------------|
//! | `POST /plan`     | cheapest feasible config for a workload + deadline (`deadline_ms`: mean-time frontier lookup; `p99_s` + `lambda`: percentile deadline scored by the exact M/D/1 quantile) |
//! | `POST /frontier` | the energy–deadline Pareto frontier (optionally the `resilient_k` degraded frontier) |
//! | `POST /whatif`   | the power-budget substitution ladder               |
//! | `POST /submit`   | place one job on the live scheduler's shared pool (α-score, bounded admission) |
//! | `POST /reload`   | swap the model inventory, **re-warm** the hot set  |
//! | `GET /healthz`   | liveness                                           |
//! | `GET /statz`     | uptime, connections, queue, cache, latency         |
//! | `GET /jobz`      | live-scheduler counters + recent placements        |
//!
//! The event-loop architecture splits a request's life into three phases
//! that run on different threads, so this module is organized around three
//! verbs instead of one blocking `handle`:
//!
//! * [`AppState::route`] — parse and classify, on an I/O thread. Cache
//!   hits, health/stat reads, and errors are answered immediately
//!   ([`Routed::Ready`]); a cache miss yields a [`PendingCompute`] that
//!   the caller hands to the single-flight registry and compute pool. A
//!   gateway parses a plan request the same way, then yields a
//!   [`PendingForward`] for the pool instead of reading a cache.
//! * [`AppState::compute`] — the expensive sweep, on a compute thread.
//!   The result (a [`CachedPlan`]) is inserted into the sharded LRU so
//!   every later identical question is a `route`-time hit.
//! * [`format_response`] — turn a computed plan plus the request's
//!   [`RespCtx`] into wire JSON. Cheap, runs wherever the plan and the
//!   waiter meet.
//!
//! A [`CachedPlan`] carries the [`ComputeSpec`] that produced it, which is
//! what makes **warm reload** possible: `POST /reload` snapshots the hot
//! set, recomputes every spec against the freshly loaded store, and only
//! then swaps — so a reload does not open a cold-start latency cliff.
//!
//! Responses carry three fields the load harness relies on: `"cached"`,
//! `"coalesced"` (answered from another connection's in-flight compute),
//! and `"compute_us"` (server-side compute time, free of network jitter —
//! the honest number for the cold-vs-warm speedup claim).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use hecmix_core::budget::PowerBudget;
use hecmix_core::config::Labeler;
use hecmix_core::mix_match::mix_and_match;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::persist::fnv1a;
use hecmix_core::rate_table::OptionCatalog;
use hecmix_core::resilience::ResilientTable;
use hecmix_obs::json::{self, Object, Value};
use hecmix_obs::{emit, Event};
use hecmix_queueing::dispatch::{
    best_choice_tail, menu_from_frontier, TailChoiceOutcome, TailDesConfig, TailTarget,
};

use crate::cache::ShardedLru;
use crate::fleet::Fleet;
use crate::hist::{self, Histogram};
use crate::http::{Request, Response};
use crate::store::{ModelEntry, ModelStore, MAX_NODES};
use crate::submit::OnlineSched;

/// Query-shape tags mixed into cache keys so different derivations from
/// the same model bundle can never alias.
mod tag {
    /// Pareto frontier of a two-type space.
    pub const FRONTIER: u64 = 1;
    /// Resilient (k-degraded) frontier.
    pub const RESILIENT: u64 = 3;
    /// Power-budget substitution ladder.
    pub const WHATIF: u64 = 4;
    /// Percentile-deadline (p99) plan, scored by the exact M/D/1 quantile.
    pub const TAILPLAN: u64 = 5;
}

/// One memoized computation.
pub enum CachedCompute {
    /// An energy–deadline frontier (plain or k-degraded).
    Frontier(ParetoFrontier),
    /// A full substitution ladder with per-rung frontiers (kept so any
    /// deadline can be evaluated against a cached ladder).
    Whatif(WhatifResult),
    /// A percentile-deadline plan: the best choice over the
    /// frontier-derived serving menu, scored by the exact M/D/1 quantile.
    TailPlan(TailPlanResult),
}

/// Cached result of a percentile-deadline `/plan` computation. The tail
/// planner runs no simulator, so the outcome is a pure function of the
/// spec: two identical requests produce byte-identical outcomes — the
/// property memoization and single-flight coalescing rely on.
pub struct TailPlanResult {
    /// The planner outcome with the display label of the entry it chose;
    /// `None` when every menu entry saturates at the requested arrival
    /// rate.
    pub outcome: Option<(TailChoiceOutcome, String)>,
}

/// Cached result of a `/whatif` ladder computation.
pub struct WhatifResult {
    /// Ladder rungs, all-high first, all-low last.
    pub rungs: Vec<WhatifRung>,
}

/// One substitution-ladder rung and its frontier.
pub struct WhatifRung {
    /// Human-readable mix label (`ARM 16:AMD 14`).
    pub label: String,
    /// Low-power node count.
    pub low_nodes: u32,
    /// High-performance node count.
    pub high_nodes: u32,
    /// Peak power draw of the mix, watts.
    pub peak_w: f64,
    /// The rung's energy–deadline frontier.
    pub frontier: ParetoFrontier,
}

/// A cached plan: the computed value plus the spec that produced it (for
/// warm reload) and how long the compute took.
pub struct CachedPlan {
    /// The memoized computation.
    pub compute: CachedCompute,
    /// The inputs, kept so a reload can recompute this entry against a
    /// fresh model store.
    pub spec: ComputeSpec,
    /// Server-side compute time of the original (cold) computation, µs.
    pub compute_us: u64,
}

/// The normalized inputs of one cacheable computation. Two requests with
/// the same spec against the same model bundle produce byte-identical
/// plans, which is what makes both memoization and single-flight
/// coalescing sound.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeSpec {
    /// Plain energy–deadline frontier (`/plan` and `/frontier` share it).
    Frontier {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
    },
    /// k-degraded frontier.
    ResilientFrontier {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
        /// Survivable node failures.
        k: u32,
    },
    /// Power-budget substitution ladder.
    Whatif {
        /// Workload name.
        workload: String,
        /// Power budget, watts.
        budget_w: f64,
        /// Work units.
        units: f64,
        /// High-performance nodes traded per rung.
        step_high: u32,
    },
    /// Percentile-deadline plan over the frontier-derived serving menu
    /// (`/plan` with a `p99_s` field instead of `deadline_ms`).
    TailPlan {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
        /// Open-loop arrival rate, jobs/second.
        lambda: f64,
        /// p99 response-time deadline, seconds.
        p99_s: f64,
        /// Energy-accounting window, seconds.
        window_s: f64,
    },
}

impl ComputeSpec {
    /// The workload this spec computes over.
    #[must_use]
    pub fn workload(&self) -> &str {
        match self {
            Self::Frontier { workload, .. }
            | Self::ResilientFrontier { workload, .. }
            | Self::Whatif { workload, .. }
            | Self::TailPlan { workload, .. } => workload,
        }
    }

    /// Cache key for this spec against the model bundle with `model_hash`.
    #[must_use]
    pub fn key(&self, model_hash: u64) -> u64 {
        match self {
            Self::Frontier {
                arm, amd, units, ..
            } => cache_key(&[
                model_hash,
                tag::FRONTIER,
                u64::from(*arm),
                u64::from(*amd),
                units.to_bits(),
            ]),
            Self::ResilientFrontier {
                arm, amd, units, k, ..
            } => cache_key(&[
                model_hash,
                tag::RESILIENT,
                u64::from(*arm),
                u64::from(*amd),
                units.to_bits(),
                u64::from(*k),
            ]),
            Self::Whatif {
                budget_w,
                units,
                step_high,
                ..
            } => cache_key(&[
                model_hash,
                tag::WHATIF,
                budget_w.to_bits(),
                units.to_bits(),
                u64::from(*step_high),
            ]),
            Self::TailPlan {
                arm,
                amd,
                units,
                lambda,
                p99_s,
                window_s,
                ..
            } => cache_key(&[
                model_hash,
                tag::TAILPLAN,
                u64::from(*arm),
                u64::from(*amd),
                units.to_bits(),
                lambda.to_bits(),
                p99_s.to_bits(),
                window_s.to_bits(),
            ]),
        }
    }
}

/// Per-request formatting context: everything [`format_response`] needs
/// beyond the computed plan itself (deadlines are evaluated at format
/// time so any deadline can be answered from one cached frontier).
#[derive(Debug, Clone)]
pub enum RespCtx {
    /// `POST /plan`.
    Plan {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
        /// Deadline to plan for, milliseconds.
        deadline_ms: f64,
    },
    /// `POST /plan` with a percentile deadline (`p99_s`): the chosen
    /// label and tail numbers live in the cached [`TailPlanResult`], so
    /// the context only needs the echo fields.
    TailPlan {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
        /// Open-loop arrival rate, jobs/second.
        lambda: f64,
        /// p99 response-time deadline, seconds.
        p99_s: f64,
        /// Energy-accounting window, seconds.
        window_s: f64,
    },
    /// `POST /frontier`.
    Frontier {
        /// Workload name.
        workload: String,
        /// Low-power node cap.
        arm: u32,
        /// High-performance node cap.
        amd: u32,
        /// Work units.
        units: f64,
        /// Degraded-frontier k, when requested.
        resilient_k: Option<u32>,
    },
    /// `POST /whatif`.
    Whatif {
        /// Workload name.
        workload: String,
        /// Power budget, watts.
        budget_w: f64,
        /// Work units.
        units: f64,
        /// High-performance nodes traded per rung.
        step_high: u32,
        /// Optional deadline to rank rungs by.
        deadline_ms: Option<f64>,
    },
}

impl RespCtx {
    /// The endpoint path this context belongs to (for telemetry and
    /// per-endpoint latency accounting).
    #[must_use]
    pub fn path(&self) -> &'static str {
        match self {
            Self::Plan { .. } | Self::TailPlan { .. } => "/plan",
            Self::Frontier { .. } => "/frontier",
            Self::Whatif { .. } => "/whatif",
        }
    }
}

/// What [`AppState::route`] decided about a request.
pub enum Routed {
    /// Answer now: health/stat reads, parse errors, and cache hits.
    Ready {
        /// The finished response.
        resp: Response,
        /// Whether it came from the plan cache.
        cached: bool,
    },
    /// A cache miss that needs the compute pool.
    Compute(PendingCompute),
    /// `POST /reload` — runs on the compute pool so I/O threads never
    /// block behind a model rebuild + cache warm.
    Reload,
    /// Gateway mode: a validated request bound for a replica via the
    /// fleet's forward path (retries/hedging block, so it runs on the
    /// compute pool, never on an I/O thread).
    Forward(PendingForward),
}

impl Routed {
    fn ready(resp: Response) -> Self {
        Self::Ready {
            resp,
            cached: false,
        }
    }
}

/// A validated request the gateway will forward to a replica. The body is
/// re-sent verbatim; `key` is the plan-cache key (identical to what the
/// replica will derive, because gateway and replicas share the same model
/// bundles), which is what the consistent-hash ring routes on.
pub struct PendingForward {
    /// The fleet that routed it.
    pub fleet: Arc<Fleet>,
    /// The routing key: the plan-cache key of this request.
    pub key: u64,
    /// Endpoint path.
    pub path: &'static str,
    /// The original JSON body, forwarded verbatim.
    pub body: String,
}

/// A parsed cache miss, ready to be coalesced and computed.
pub struct PendingCompute {
    /// Cache key the waiters coalesce under.
    pub key: u64,
    /// What to compute.
    pub spec: ComputeSpec,
    /// The model-store snapshot the request was parsed against.
    pub store: Arc<ModelStore>,
    /// How to format the answer for this particular request.
    pub ctx: RespCtx,
}

/// Source for `POST /reload`: rebuilds a fresh [`ModelStore`].
pub type ReloadFn = dyn Fn() -> Result<ModelStore, String> + Send + Sync;

/// Per-daemon counters and per-I/O-thread latency histograms.
pub struct Metrics {
    /// Latency histograms (lock-free writes): I/O loop `i` records into
    /// `hists[i % hists.len()]`, so a daemon with more loops than
    /// histograms shares them rather than dropping samples.
    pub hists: Vec<Histogram>,
    /// Requests answered (any status except admission rejections).
    pub served: AtomicU64,
    /// Connections rejected by admission control, plus computes shed by
    /// the queue deadline or drain.
    pub rejected: AtomicU64,
    /// Plan computations actually executed on the compute pool.
    pub computes: AtomicU64,
    /// Requests answered from another connection's in-flight compute.
    pub coalesced: AtomicU64,
    /// Cache entries re-computed by warm reloads.
    pub warmed: AtomicU64,
    /// Connections reaped with `408` for holding a partial request head
    /// past the deadline (slowloris guard).
    pub timeouts: AtomicU64,
    /// Current compute-queue depth.
    pub queue_depth: AtomicUsize,
    /// Currently open client connections.
    pub connections: AtomicUsize,
    started: Instant,
}

impl Metrics {
    fn new(io_threads: usize) -> Self {
        Self {
            hists: (0..io_threads.max(1)).map(|_| Histogram::new()).collect(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            warmed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// Seconds since the daemon started.
    #[must_use]
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Everything the I/O loops and compute pool share to answer requests.
pub struct AppState {
    store: RwLock<Arc<ModelStore>>,
    cache: ShardedLru<CachedPlan>,
    reload: RwLock<Option<Arc<ReloadFn>>>,
    compute_delay_us: AtomicU64,
    /// `Some` turns this daemon into a gateway: plan requests are parsed
    /// and key-derived locally (same models as the replicas, so the keys
    /// match), then forwarded through the fleet instead of computed.
    fleet: Option<Arc<Fleet>>,
    /// The live job scheduler behind `POST /submit` / `GET /jobz`;
    /// without one, both endpoints answer 503.
    sched: RwLock<Option<Arc<OnlineSched>>>,
    /// Counters and histograms, updated by I/O loops, the compute pool,
    /// and the accept thread.
    pub metrics: Metrics,
}

impl AppState {
    /// State over `store`, with `io_threads` latency histograms and a plan
    /// cache of `cache_capacity` entries.
    #[must_use]
    pub fn new(store: ModelStore, io_threads: usize, cache_capacity: usize) -> Self {
        Self {
            store: RwLock::new(Arc::new(store)),
            cache: ShardedLru::new(cache_capacity.max(1)),
            reload: RwLock::new(None),
            compute_delay_us: AtomicU64::new(0),
            fleet: None,
            sched: RwLock::new(None),
            metrics: Metrics::new(io_threads),
        }
    }

    /// Gateway state: like [`AppState::new`], but plan traffic is routed
    /// through `fleet` instead of the local compute path. The `store`
    /// must be built from the same model bundles the replicas serve —
    /// cache keys are content-hashed, so matching bundles make the
    /// gateway's routing key identical to the replicas' cache key.
    #[must_use]
    pub fn new_gateway(store: ModelStore, io_threads: usize, fleet: Arc<Fleet>) -> Self {
        let mut state = Self::new(store, io_threads, 1);
        state.fleet = Some(fleet);
        state
    }

    /// Configure what `POST /reload` does (rebuild from a directory, a
    /// lab, …). Without one, `/reload` answers 400.
    pub fn set_reload(&self, f: Arc<ReloadFn>) {
        *self.reload.write().expect("reload slot poisoned") = Some(f);
    }

    /// Enable the live job scheduler behind `POST /submit` / `GET /jobz`.
    /// A `/reload` does not rebuild it: the pool is provisioned hardware,
    /// not a model cache.
    pub fn set_sched(&self, sched: Arc<OnlineSched>) {
        *self.sched.write().expect("sched slot poisoned") = Some(sched);
    }

    /// The live scheduler, when configured.
    #[must_use]
    pub fn sched(&self) -> Option<Arc<OnlineSched>> {
        self.sched.read().expect("sched slot poisoned").clone()
    }

    /// Testing hook: make every pool compute take at least `delay` of wall
    /// clock. This is how the coalescing and drain tests hold a compute
    /// open long enough to pile concurrent misses onto one flight; it has
    /// no effect on cache hits or warm-reload recomputes.
    pub fn set_compute_delay(&self, delay: Duration) {
        self.compute_delay_us
            .store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    fn compute_delay(&self) -> Duration {
        Duration::from_micros(self.compute_delay_us.load(Ordering::Relaxed))
    }

    /// Snapshot of the current model inventory.
    #[must_use]
    pub fn store(&self) -> Arc<ModelStore> {
        Arc::clone(&self.store.read().expect("model store poisoned"))
    }

    /// Classify one request: answer immediately (reads, errors, cache
    /// hits) or hand back the compute it needs. Runs on an I/O thread —
    /// everything here is bounded-time.
    #[must_use]
    pub fn route(&self, req: &Request) -> Routed {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Routed::ready(self.healthz()),
            ("GET", "/statz") => Routed::ready(self.statz()),
            ("POST", "/plan" | "/frontier" | "/whatif") => self.route_plan(req),
            ("POST", "/reload") => Routed::Reload,
            ("POST", "/submit") => Routed::ready(self.submit(req)),
            ("GET", "/jobz") => match self.sched() {
                Some(sched) => Routed::ready(sched.jobz()),
                None => Routed::ready(Response::error(503, "scheduler not configured")),
            },
            (
                _,
                "/healthz" | "/statz" | "/plan" | "/frontier" | "/whatif" | "/reload" | "/submit"
                | "/jobz",
            ) => Routed::ready(Response::error(405, "method not allowed")),
            _ => Routed::ready(Response::error(404, "no such endpoint")),
        }
    }

    /// Parse a `/plan`, `/frontier` or `/whatif` request and derive its
    /// plan-cache key. Malformed requests die here, at the edge, so they
    /// never burn a compute or an upstream attempt. A gateway hands back a
    /// forward keyed by the cache key and keeps no plan cache of its own:
    /// the replicas' sharded LRUs *are* the cache, partitioned by that key.
    /// A replica answers a hit now and hands back a miss for the pool.
    fn route_plan(&self, req: &Request) -> Routed {
        let t0 = Instant::now();
        let store = self.store();
        let parsed = parse_body(&req.body).and_then(|v| match req.path.as_str() {
            "/plan" => parse_plan(&store, &v),
            "/frontier" => parse_frontier(&store, &v),
            _ => parse_whatif(&store, &v),
        });
        let (spec, ctx) = match parsed {
            Ok(p) => p,
            Err(resp) => return Routed::ready(resp),
        };
        let hash = store
            .get(spec.workload())
            .map(|e| e.hash)
            .unwrap_or_default();
        let key = spec.key(hash);
        if let Some(fleet) = &self.fleet {
            return Routed::Forward(PendingForward {
                fleet: Arc::clone(fleet),
                key,
                path: ctx.path(),
                body: String::from_utf8_lossy(&req.body).into_owned(),
            });
        }
        if let Some(hit) = self.cache.get(key) {
            // Elapsed covers parse + lookup only: response serialization
            // costs the same on hits and misses, so including it would
            // mask the cache win.
            let lookup_us = t0.elapsed().as_micros() as u64;
            let resp = format_response(&ctx, &store, &hit, true, false, lookup_us);
            return Routed::Ready { resp, cached: true };
        }
        Routed::Compute(PendingCompute {
            key,
            spec,
            store,
            ctx,
        })
    }

    /// Execute one plan computation and memoize it. Runs on a compute
    /// thread; this is the only place the sweep engine is invoked for
    /// live traffic.
    ///
    /// # Errors
    /// The typed HTTP error response (422 model/sweep rejections, 404 if
    /// the workload vanished in a reload race) for delivery to every
    /// coalesced waiter.
    pub fn compute(
        &self,
        spec: &ComputeSpec,
        store: &ModelStore,
    ) -> Result<Arc<CachedPlan>, Response> {
        let delay = self.compute_delay();
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let (key, plan) = compute_plan(spec, store)?;
        self.cache.insert(key, Arc::clone(&plan));
        self.metrics.computes.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Record a finished request: bump `served`, feed I/O loop `hist`'s
    /// histogram (see [`Metrics::hists`]), emit [`Event::RequestDone`].
    pub fn record_done(
        &self,
        hist: usize,
        path: &str,
        resp: &Response,
        wall: Duration,
        cached: bool,
    ) {
        self.metrics.served.fetch_add(1, Ordering::Relaxed);
        let hists = &self.metrics.hists;
        hists[hist % hists.len()].record(wall.as_nanos() as u64);
        let status = resp.status;
        emit(|| Event::RequestDone {
            path: path.to_owned(),
            status,
            wall_s: wall.as_secs_f64(),
            cached,
        });
    }

    /// Rebuild the model store and **warm** the plan cache before swapping:
    /// every currently cached plan's spec is recomputed against the new
    /// store, so the first post-reload queries hit instead of paying a
    /// cold sweep. Runs on the compute pool.
    #[must_use]
    pub fn do_reload(&self) -> Response {
        let reload = self
            .reload
            .read()
            .expect("reload slot poisoned")
            .as_ref()
            .map(Arc::clone);
        let Some(reload) = reload else {
            return Response::error(400, "no reload source configured");
        };
        let new_store = match reload() {
            Ok(s) => Arc::new(s),
            Err(e) => return Response::error(500, &format!("reload failed: {e}")),
        };

        if let Some(fleet) = &self.fleet {
            // Gateway: swap the local store so routing keys track the new
            // model hashes, then broadcast the reload to every replica —
            // each replica does its own warm. No local cache to warm.
            *self.store.write().expect("model store poisoned") = new_store;
            self.cache.invalidate_all();
            return fleet.broadcast_reload();
        }

        // Recompute the hot set against the new store *before* swapping —
        // the artificial test delay is deliberately skipped so warming
        // reflects real compute cost only.
        let hot = self.cache.snapshot();
        emit(|| Event::CacheWarmStart { keys: hot.len() });
        let t0 = Instant::now();
        let mut warmed: Vec<(u64, Arc<CachedPlan>)> = Vec::with_capacity(hot.len());
        for plan in &hot {
            if let Ok((key, fresh)) = compute_plan(&plan.spec, &new_store) {
                warmed.push((key, fresh));
            }
        }
        let wall = t0.elapsed();

        *self.store.write().expect("model store poisoned") = Arc::clone(&new_store);
        self.cache.invalidate_all();
        for (key, fresh) in &warmed {
            self.cache.insert(*key, Arc::clone(fresh));
        }
        self.metrics
            .warmed
            .fetch_add(warmed.len() as u64, Ordering::Relaxed);
        emit(|| Event::CacheWarmDone {
            keys: hot.len(),
            warmed: warmed.len(),
            wall_s: wall.as_secs_f64(),
        });

        let mut o = Object::new();
        o.bool("reloaded", true);
        o.u64("workloads", new_store.len() as u64);
        o.str_array("model_hashes", &new_store.hashes());
        o.u64("hot_keys", hot.len() as u64);
        o.u64("warmed", warmed.len() as u64);
        o.f64("warm_ms", wall.as_secs_f64() * 1e3);
        Response::json(200, o.finish())
    }

    /// `POST /submit`: parse and validate the job, then let the live
    /// scheduler place it. Placement is `nodes × options` work, so it is
    /// answered inline like the read endpoints. `units` defaults to the
    /// workload's registry size; `deadline_s` is relative to now and
    /// optional (absent = no deadline).
    fn submit(&self, req: &Request) -> Response {
        let Some(sched) = self.sched() else {
            return Response::error(503, "scheduler not configured");
        };
        let v = match parse_body(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(name) = v.get("workload").and_then(Value::as_str) else {
            return Response::error(400, "missing workload");
        };
        let store = self.store();
        let Some(entry) = store.get(name) else {
            return Response::error(404, &format!("unknown workload `{name}`"));
        };
        let units = match optional_f64(&v, "units", entry.default_units) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        let deadline_rel_s = match v.get("deadline_s") {
            None => None,
            Some(d) => match d.as_f64().filter(|x| *x > 0.0 && x.is_finite()) {
                Some(x) => Some(x),
                None => return Response::error(422, "deadline_s must be finite and positive"),
            },
        };
        sched.submit(name, units, deadline_rel_s)
    }

    // ---- read endpoints ----

    fn healthz(&self) -> Response {
        let store = self.store();
        let mut o = Object::new();
        o.bool("ok", true);
        o.u64("workloads", store.len() as u64);
        o.f64("uptime_s", self.metrics.uptime_s());
        if let Some(fleet) = &self.fleet {
            o.str("role", "gateway");
            o.u64("replicas", fleet.replica_count() as u64);
            o.u64("healthy_replicas", fleet.healthy_count() as u64);
        }
        Response::json(200, o.finish())
    }

    fn statz(&self) -> Response {
        let store = self.store();
        let cache = self.cache.stats();
        let lat = hist::summarize(&self.metrics.hists);
        let mut o = Object::new();
        o.str("schema", "hecmix-statz-v4");
        o.f64("uptime_s", self.metrics.uptime_s());
        o.u64("served", self.metrics.served.load(Ordering::Relaxed));
        o.u64("rejected", self.metrics.rejected.load(Ordering::Relaxed));
        o.u64(
            "timeouts_408",
            self.metrics.timeouts.load(Ordering::Relaxed),
        );
        o.u64("computes", self.metrics.computes.load(Ordering::Relaxed));
        o.u64("coalesced", self.metrics.coalesced.load(Ordering::Relaxed));
        o.u64("warmed", self.metrics.warmed.load(Ordering::Relaxed));
        o.u64(
            "connections",
            self.metrics.connections.load(Ordering::Relaxed) as u64,
        );
        o.u64(
            "queue_depth",
            self.metrics.queue_depth.load(Ordering::Relaxed) as u64,
        );
        let mut c = Object::new();
        c.u64("hits", cache.hits);
        c.u64("misses", cache.misses);
        c.u64("evictions", cache.evictions);
        c.u64("entries", cache.entries as u64);
        c.f64("hit_rate", cache.hit_rate());
        o.raw("cache", &c.finish());
        let ns_to_us = |v: u64| v as f64 / 1e3;
        let mut l = Object::new();
        l.u64("count", lat.count);
        l.f64("p50", ns_to_us(lat.p50));
        l.f64("p90", ns_to_us(lat.p90));
        l.f64("p95", ns_to_us(lat.p95));
        l.f64("p99", ns_to_us(lat.p99));
        l.f64("p999", ns_to_us(lat.p999));
        l.f64("max", ns_to_us(lat.max));
        l.f64("mean", lat.mean / 1e3);
        o.raw("latency_us", &l.finish());
        o.str_array("workloads", &store.names());
        o.str_array("model_hashes", &store.hashes());
        if let Some(fleet) = &self.fleet {
            o.raw("fleet", &fleet.statz_object());
        }
        // v4: live-scheduler counters, when `/submit` is enabled.
        if let Some(sched) = self.sched() {
            o.raw("sched", &sched.statz_object());
        }
        Response::json(200, o.finish())
    }
}

// ---- the compute itself ----

/// Compute the plan described by `spec` against `store`, from scratch.
///
/// Returns the cache key (derived from the store's current model hash) and
/// the finished plan. Shared by the live compute path and the warm-reload
/// path; does **not** touch the cache or any counters.
///
/// # Errors
/// The typed HTTP error response for a model/sweep rejection or a missing
/// workload.
pub fn compute_plan(
    spec: &ComputeSpec,
    store: &ModelStore,
) -> Result<(u64, Arc<CachedPlan>), Response> {
    let entry = store
        .get(spec.workload())
        .ok_or_else(|| Response::error(404, &format!("unknown workload `{}`", spec.workload())))?;
    let key = spec.key(entry.hash);
    let t0 = Instant::now();
    let compute = match *spec {
        ComputeSpec::Frontier {
            arm, amd, units, ..
        } => CachedCompute::Frontier(pruned_frontier(entry, arm, amd, units)?),
        ComputeSpec::ResilientFrontier {
            arm, amd, units, k, ..
        } => {
            let table = sliced(entry, "model rejected", |c| {
                ResilientTable::from_catalog(c, &[Some(arm), Some(amd)])
            })?;
            let frontier = table
                .frontier(units, k)
                .map_err(|e| Response::error(422, &format!("resilient sweep failed: {e}")))?;
            CachedCompute::Frontier(frontier)
        }
        ComputeSpec::Whatif {
            budget_w,
            units,
            step_high,
            ..
        } => {
            let (low, high) = (&entry.models[0].platform, &entry.models[1].platform);
            let ladder = PowerBudget::new(budget_w)
                .substitution_ladder(low, high, step_high)
                .map_err(|e| Response::error(422, &format!("bad budget: {e}")))?;
            let mut rungs = Vec::with_capacity(ladder.len());
            for mix in ladder {
                let (frontier, _prune) = sliced(entry, "rung sweep failed", |c| {
                    mix.catalog_frontier(c, units)
                })?;
                rungs.push(WhatifRung {
                    label: mix.label(low, high),
                    low_nodes: mix.low_nodes,
                    high_nodes: mix.high_nodes,
                    peak_w: mix.peak_power_w(low, high),
                    frontier,
                });
            }
            CachedCompute::Whatif(WhatifResult { rungs })
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
            let frontier = pruned_frontier(entry, arm, amd, units)?;
            let menu = menu_from_frontier(&frontier, &entry.models);
            let target = TailTarget::new(0.99, p99_s)
                .map_err(|e| Response::error(422, &format!("bad tail target: {e}")))?;
            // The planner scores the menu in closed form, so identical
            // requests get byte-identical plans, which memoization and
            // single-flight coalescing both depend on.
            let outcome =
                best_choice_tail(&menu, lambda, window_s, target, &TailDesConfig::default())
                    .map_err(|e| Response::error(422, &format!("tail planning failed: {e}")))?
                    .map(|out| (out, menu[out.index].label.clone()));
            CachedCompute::TailPlan(TailPlanResult { outcome })
        }
    };
    let compute_us = t0.elapsed().as_micros() as u64;
    Ok((
        key,
        Arc::new(CachedPlan {
            compute,
            spec: spec.clone(),
            compute_us,
        }),
    ))
}

/// Cut a table from the entry's option catalog with `slice`; a rejection
/// becomes a 422 prefixed with `what`. Every compute kind gets its tables
/// here, so no request evaluates a model option.
fn sliced<T>(
    entry: &ModelEntry,
    what: &str,
    slice: impl FnOnce(&OptionCatalog) -> hecmix_core::Result<T>,
) -> Result<T, Response> {
    entry
        .catalog()
        .and_then(slice)
        .map_err(|e| Response::error(422, &format!("{what}: {e}")))
}

/// The plain frontier of the pruned `arm × amd` table, shared by `/plan`,
/// `/frontier` and the tail planner's menu.
fn pruned_frontier(
    entry: &ModelEntry,
    arm: u32,
    amd: u32,
    units: f64,
) -> Result<ParetoFrontier, Response> {
    sliced(entry, "model rejected", |c| {
        c.pruned(&[Some(arm), Some(amd)])
    })?
    .frontier(units)
    .map_err(|e| Response::error(422, &format!("sweep failed: {e}")))
}

// ---- response formatting ----

/// Format `plan` as the wire answer for the request described by `ctx`.
///
/// `cached` marks a cache hit, `coalesced` marks an answer shared from
/// another connection's in-flight compute, and `compute_us` is the
/// server-side cost attributed to this request (the original sweep time
/// for misses and coalesced waiters, the lookup time for hits).
#[must_use]
pub fn format_response(
    ctx: &RespCtx,
    store: &ModelStore,
    plan: &CachedPlan,
    cached: bool,
    coalesced: bool,
    compute_us: u64,
) -> Response {
    match ctx {
        RespCtx::Plan {
            workload,
            arm,
            amd,
            units,
            deadline_ms,
        } => {
            let CachedCompute::Frontier(frontier) = &plan.compute else {
                return Response::error(500, "cache type confusion");
            };
            let Some(entry) = store.get(workload) else {
                return Response::error(500, "workload disappeared during compute");
            };
            let mut o = Object::with_capacity(512);
            o.str("workload", workload);
            o.u64("arm", u64::from(*arm));
            o.u64("amd", u64::from(*amd));
            o.f64("units", *units);
            o.f64("deadline_ms", *deadline_ms);
            match frontier.min_energy_for_deadline(deadline_ms / 1e3) {
                Some(point) => {
                    o.bool("feasible", true);
                    o.str_with("config", |out| labeler(entry).write(out, &point.config));
                    o.f64("time_ms", point.time_s * 1e3);
                    o.f64("energy_j", point.energy_j);
                    if let Ok(split) = mix_and_match(&point.config, &entry.models, *units) {
                        // `MatchedSplit::shares` are absolute work units
                        // summing to `units`; the wire format reports
                        // fractions.
                        o.object("shares", |s| {
                            s.f64("low", split.shares.first().copied().unwrap_or(0.0) / units);
                            s.f64("high", split.shares.get(1).copied().unwrap_or(0.0) / units);
                        });
                    }
                }
                None => {
                    o.bool("feasible", false);
                    if let Some(t) = frontier.min_time_s() {
                        o.f64("fastest_ms", t * 1e3);
                    }
                }
            }
            o.bool("cached", cached);
            o.bool("coalesced", coalesced);
            o.u64("compute_us", compute_us);
            Response::json(200, o.finish())
        }
        RespCtx::TailPlan {
            workload,
            arm,
            amd,
            units,
            lambda,
            p99_s,
            window_s,
        } => {
            let CachedCompute::TailPlan(result) = &plan.compute else {
                return Response::error(500, "cache type confusion");
            };
            let mut o = Object::with_capacity(512);
            o.str("workload", workload);
            o.u64("arm", u64::from(*arm));
            o.u64("amd", u64::from(*amd));
            o.f64("units", *units);
            o.f64("lambda", *lambda);
            o.f64("p99_s", *p99_s);
            o.f64("window_s", *window_s);
            match &result.outcome {
                Some((out, label)) => {
                    o.bool("feasible", !out.violated);
                    o.str("config", label);
                    o.f64("p99_response_s", out.tail_response_s);
                    o.f64("mean_response_s", out.mean_response_s);
                    o.f64("window_energy_j", out.energy_j);
                    o.u64("screened_out", out.screened_out as u64);
                    o.bool("violated", out.violated);
                }
                None => {
                    // Every menu entry saturates: ρ ≥ 1 everywhere, no
                    // finite tail exists at this arrival rate.
                    o.bool("feasible", false);
                    o.bool("saturated", true);
                }
            }
            o.bool("cached", cached);
            o.bool("coalesced", coalesced);
            o.u64("compute_us", compute_us);
            Response::json(200, o.finish())
        }
        RespCtx::Frontier {
            workload,
            arm,
            amd,
            units,
            resilient_k,
        } => {
            let CachedCompute::Frontier(frontier) = &plan.compute else {
                return Response::error(500, "cache type confusion");
            };
            let Some(entry) = store.get(workload) else {
                return Response::error(500, "workload disappeared during compute");
            };
            let mut labels = labeler(entry);
            let mut o = Object::with_capacity(256 + 128 * frontier.len());
            o.str("workload", workload);
            o.u64("arm", u64::from(*arm));
            o.u64("amd", u64::from(*amd));
            o.f64("units", *units);
            if let Some(k) = resilient_k {
                o.u64("resilient_k", u64::from(*k));
            }
            o.u64("count", frontier.len() as u64);
            o.objects("points", &frontier.points, |po, p| {
                po.f64("time_ms", p.time_s * 1e3);
                po.f64("energy_j", p.energy_j);
                po.str_with("config", |out| labels.write(out, &p.config));
            });
            o.bool("cached", cached);
            o.bool("coalesced", coalesced);
            o.u64("compute_us", compute_us);
            Response::json(200, o.finish())
        }
        RespCtx::Whatif {
            workload,
            budget_w,
            units,
            step_high,
            deadline_ms,
        } => {
            let CachedCompute::Whatif(result) = &plan.compute else {
                return Response::error(500, "cache type confusion");
            };
            let mut o = Object::with_capacity(512 + 192 * result.rungs.len());
            o.str("workload", workload);
            o.f64("budget_w", *budget_w);
            o.f64("units", *units);
            o.u64("step_high", u64::from(*step_high));
            let mut best: Option<(usize, f64)> = None;
            o.objects("rungs", result.rungs.iter().enumerate(), |ro, (i, rung)| {
                ro.str("mix", &rung.label);
                ro.u64("arm", u64::from(rung.low_nodes));
                ro.u64("amd", u64::from(rung.high_nodes));
                ro.f64("peak_w", rung.peak_w);
                if let Some(t) = rung.frontier.min_time_s() {
                    ro.f64("min_time_ms", t * 1e3);
                }
                if let Some(e) = rung.frontier.min_energy_j() {
                    ro.f64("min_energy_j", e);
                }
                if let Some(d) = deadline_ms {
                    match rung.frontier.min_energy_for_deadline(d / 1e3) {
                        Some(p) => {
                            ro.f64("deadline_energy_j", p.energy_j);
                            if best.is_none_or(|(_, e)| p.energy_j < e) {
                                best = Some((i, p.energy_j));
                            }
                        }
                        None => ro.bool("deadline_feasible", false),
                    }
                }
            });
            if let Some(d) = deadline_ms {
                o.f64("deadline_ms", *d);
                if let Some((i, e)) = best {
                    o.str("best_mix", &result.rungs[i].label);
                    o.f64("best_energy_j", e);
                }
            }
            o.bool("cached", cached);
            o.bool("coalesced", coalesced);
            o.u64("compute_us", compute_us);
            Response::json(200, o.finish())
        }
    }
}

// ---- parsing ----

fn parse_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?
        .trim();
    if text.is_empty() {
        return Ok(Value::Object(Vec::new()));
    }
    json::parse(text).map_err(|e| Response::error(400, &format!("bad JSON: {e}")))
}

fn parse_plan(store: &ModelStore, v: &Value) -> Result<(ComputeSpec, RespCtx), Response> {
    let (_, name, arm, amd, units) = parse_common(store, v)?;
    // A percentile deadline selects the tail planner instead of the
    // mean-time frontier lookup; it needs an arrival rate to queue at.
    if let Some(p99) = v.get("p99_s") {
        let Some(p99_s) = p99.as_f64().filter(|x| *x > 0.0 && x.is_finite()) else {
            return Err(Response::error(422, "p99_s must be finite and positive"));
        };
        let Some(lambda) = v.get("lambda").and_then(Value::as_f64) else {
            return Err(Response::error(400, "p99_s requires lambda (jobs/s)"));
        };
        if lambda <= 0.0 || !lambda.is_finite() {
            return Err(Response::error(422, "lambda must be finite and positive"));
        }
        let window_s = optional_f64(v, "window_s", 20.0)?;
        let spec = ComputeSpec::TailPlan {
            workload: name.to_owned(),
            arm,
            amd,
            units,
            lambda,
            p99_s,
            window_s,
        };
        let ctx = RespCtx::TailPlan {
            workload: name.to_owned(),
            arm,
            amd,
            units,
            lambda,
            p99_s,
            window_s,
        };
        return Ok((spec, ctx));
    }
    let Some(deadline_ms) = v.get("deadline_ms").and_then(Value::as_f64) else {
        return Err(Response::error(400, "missing deadline_ms (or p99_s)"));
    };
    if deadline_ms <= 0.0 || !deadline_ms.is_finite() {
        return Err(Response::error(
            422,
            "deadline_ms must be finite and positive",
        ));
    }
    Ok((
        ComputeSpec::Frontier {
            workload: name.to_owned(),
            arm,
            amd,
            units,
        },
        RespCtx::Plan {
            workload: name.to_owned(),
            arm,
            amd,
            units,
            deadline_ms,
        },
    ))
}

fn parse_frontier(store: &ModelStore, v: &Value) -> Result<(ComputeSpec, RespCtx), Response> {
    let (_, name, arm, amd, units) = parse_common(store, v)?;
    let resilient_k = match v.get("resilient_k") {
        None => None,
        Some(k) => match k.as_u64().map(u32::try_from) {
            Some(Ok(k)) if k >= 1 => Some(k),
            _ => {
                return Err(Response::error(
                    422,
                    "resilient_k must be an integer in 1..=4294967295",
                ))
            }
        },
    };
    let spec = match resilient_k {
        None => ComputeSpec::Frontier {
            workload: name.to_owned(),
            arm,
            amd,
            units,
        },
        Some(k) => ComputeSpec::ResilientFrontier {
            workload: name.to_owned(),
            arm,
            amd,
            units,
            k,
        },
    };
    Ok((
        spec,
        RespCtx::Frontier {
            workload: name.to_owned(),
            arm,
            amd,
            units,
            resilient_k,
        },
    ))
}

fn parse_whatif(store: &ModelStore, v: &Value) -> Result<(ComputeSpec, RespCtx), Response> {
    let Some(name) = v.get("workload").and_then(Value::as_str) else {
        return Err(Response::error(400, "missing workload"));
    };
    let Some(entry) = store.get(name) else {
        return Err(Response::error(404, &format!("unknown workload `{name}`")));
    };
    let Some(budget_w) = v.get("budget_w").and_then(Value::as_f64) else {
        return Err(Response::error(400, "missing budget_w"));
    };
    // The all-low rung is the largest; hold it to the `/plan` node cap.
    let low = &entry.models[0].platform;
    let low_nodes = PowerBudget::new(budget_w).max_nodes(low);
    if low_nodes > MAX_NODES {
        return Err(Response::error(
            422,
            &format!(
                "budget_w {budget_w} W fits {low_nodes} `{}` nodes; at most {MAX_NODES} are served",
                low.name
            ),
        ));
    }
    let units = optional_f64(v, "units", entry.default_units)?;
    let step_high = v
        .get("step_high")
        .and_then(Value::as_u64)
        .unwrap_or(2)
        .clamp(1, 64) as u32;
    let deadline_ms = v.get("deadline_ms").and_then(Value::as_f64);
    Ok((
        ComputeSpec::Whatif {
            workload: name.to_owned(),
            budget_w,
            units,
            step_high,
        },
        RespCtx::Whatif {
            workload: name.to_owned(),
            budget_w,
            units,
            step_high,
            deadline_ms,
        },
    ))
}

/// A labeler over the bundle's platform names, escaped for a JSON string.
fn labeler(entry: &ModelEntry) -> Labeler<'_> {
    Labeler::new(entry.models.iter().map(|m| json::escaped(&m.platform.name)))
}

/// FNV-1a over the little-endian concatenation of `parts`.
#[must_use]
pub fn cache_key(parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a(&bytes)
}

type Common<'a> = (&'a ModelEntry, &'a str, u32, u32, f64);

/// Parse the fields `/plan` and `/frontier` share: workload (required),
/// arm/amd node caps (default 10), units (default: the workload's
/// analysis size).
fn parse_common<'a>(store: &'a ModelStore, v: &'a Value) -> Result<Common<'a>, Response> {
    let Some(name) = v.get("workload").and_then(Value::as_str) else {
        return Err(Response::error(400, "missing workload"));
    };
    let Some(entry) = store.get(name) else {
        return Err(Response::error(404, &format!("unknown workload `{name}`")));
    };
    let node_cap = |field: &str| -> Result<u32, Response> {
        match v.get(field) {
            None => Ok(10),
            Some(x) => match x.as_u64() {
                Some(n) if n <= u64::from(MAX_NODES) => Ok(n as u32),
                _ => Err(Response::error(
                    422,
                    &format!("{field} must be an integer in 0..={MAX_NODES}"),
                )),
            },
        }
    };
    let arm = node_cap("arm")?;
    let amd = node_cap("amd")?;
    if arm == 0 && amd == 0 {
        return Err(Response::error(422, "arm and amd cannot both be 0"));
    }
    let units = optional_f64(v, "units", entry.default_units)?;
    Ok((entry, name, arm, amd, units))
}

fn optional_f64(v: &Value, field: &str, default: f64) -> Result<f64, Response> {
    match v.get(field) {
        None => Ok(default),
        Some(x) => match x.as_f64() {
            Some(u) if u > 0.0 && u.is_finite() => Ok(u),
            _ => Err(Response::error(
                422,
                &format!("{field} must be finite and positive"),
            )),
        },
    }
}
