//! The replica fleet: health-checked routing, circuit breakers, retries,
//! hedging, and failover re-warm for the gateway.
//!
//! A [`Fleet`] is the gateway's view of N replica daemons. Routing is by
//! the consistent-hash [`Ring`] over the *plan-cache key* (the hash of
//! the model bundles and the compute spec — the same key the replicas
//! memoize under), so each replica's LRU holds a disjoint shard of the
//! hot set. Around that core the fleet layers four defenses, each
//! observable through its own event:
//!
//! * **Health**: an active prober `GET /healthz`es every replica on an
//!   interval, and every forwarded attempt reports passively into the
//!   same accounting. `fail_threshold` consecutive failures mark a
//!   replica down, two consecutive successes bring it back
//!   ([`hecmix_obs::Event::ReplicaHealthChange`]).
//! * **Circuit breakers**: per replica, closed → open on consecutive
//!   forward failures, half-open after a cooldown, closed again on the
//!   first trial success ([`hecmix_obs::Event::BreakerTransition`]). An
//!   open breaker takes the replica out of the candidate rotation without
//!   waiting for the health prober.
//! * **Retries**: bounded attempts cascade along the ring's preference
//!   order with the shared [`router::backoff_ms`]: exponential, floored by
//!   `Retry-After`, and jittered by `seed ⊕ key ⊕ attempt` — no RNG
//!   state, replayable ([`hecmix_obs::Event::RequestRetry`]).
//! * **Hedging**: if the primary attempt outlives an adaptive delay (the
//!   fleet-wide p95 of upstream latencies, clamped to
//!   `[hedge_min, hedge_max]`), a duplicate races to the next distinct
//!   healthy replica and the first answer wins
//!   ([`hecmix_obs::Event::RequestHedged`]). One slow replica cannot own
//!   the tail.
//!
//! Connections and answers are [`http`]'s ([`http::dial`],
//! [`http::read_answer`]); the fleet adds per-replica pools of idle
//! keep-alive connections, so a forward normally costs one exchange: no
//! connect, no accept. The primary attempt runs on the calling
//! (forward-worker) thread, which `peek`s up to the hedge delay for the
//! first response byte; only when that delay passes do the primary and
//! the hedge finish on threads of their own and race. A pooled connection
//! the replica retired while it sat idle fails before any response byte;
//! that request is sent once more on a fresh connection, which costs no
//! retry and no health or breaker failure. Probes and the `/reload`
//! fan-out are one [`http::exchange`] on a fresh connection each, because
//! a probe must exercise connect and accept.
//!
//! When a replica is marked down, its hash range implicitly re-maps to
//! the next preference entry — and the fleet *re-warms* the dead
//! replica's recorded hot keys through the normal forward path, so the
//! new owners compute (or single-flight-coalesce) each displaced plan
//! once, before clients ask ([`hecmix_obs::Event::FailoverRewarm`]). The
//! time from failover to the first cache hit on a displaced key is
//! tracked as `first_rehit_ms`, the number `BENCH_fleet.json` gates on.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hecmix_obs::json::Object;
use hecmix_obs::{emit, Event};

use crate::hist::{self, Histogram};
use crate::http::{self, Answer, Response};
use crate::router::{self, Ring};

/// Tunables for one gateway's fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Upstream replica addresses (`HOST:PORT`), index = replica id.
    pub replicas: Vec<String>,
    /// Active `/healthz` probe interval.
    pub probe_interval: Duration,
    /// Connect + read timeout for one probe.
    pub probe_timeout: Duration,
    /// Consecutive failures (probe or forward) that mark a replica down.
    pub fail_threshold: u32,
    /// How long an open breaker waits before letting a half-open trial by.
    pub breaker_cooldown: Duration,
    /// Consecutive forward failures that trip a breaker open.
    pub breaker_threshold: u32,
    /// Exponential backoff base, milliseconds (doubles per retry).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Floor for the adaptive hedge delay.
    pub hedge_min: Duration,
    /// Ceiling for the adaptive hedge delay (also used until enough
    /// latency samples exist to estimate a p95).
    pub hedge_max: Duration,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Seed for deterministic retry jitter.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: Vec::new(),
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            fail_threshold: 2,
            breaker_cooldown: Duration::from_secs(1),
            breaker_threshold: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            hedge_min: Duration::from_millis(20),
            hedge_max: Duration::from_millis(500),
            vnodes: 64,
            seed: 42,
        }
    }
}

/// Consecutive successes that mark a downed replica healthy again.
const REVIVE_THRESHOLD: u64 = 2;
/// Total upstream attempts per forwarded request (first try included).
const MAX_ATTEMPTS: u32 = 4;
/// Cap on how much of an upstream `Retry-After` is honored, ms: a
/// recovering replica must not park the gateway for whole seconds.
const RETRY_AFTER_CAP_MS: u64 = 500;
/// Hard deadline for one raced attempt set (primary + hedge).
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(2);
/// TCP connect timeout per upstream attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Hot keys remembered per replica for failover re-warm.
const HOT_KEYS_PER_REPLICA: usize = 64;

/// Circuit-breaker states (names as emitted in telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    fn name(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half_open",
        }
    }
}

struct Breaker {
    state: BreakerState,
    consec_failures: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consec_failures: 0,
            opened_at: None,
        }
    }

    fn transition(&mut self, replica: usize, to: BreakerState) {
        if self.state == to {
            return;
        }
        let (from, failures) = (self.state, self.consec_failures);
        emit(|| Event::BreakerTransition {
            replica,
            from: from.name(),
            to: to.name(),
            failures,
        });
        self.state = to;
        self.opened_at = (to == BreakerState::Open).then(Instant::now);
    }

    /// May a request be sent through? Open breakers flip to half-open
    /// (one trial allowed) once the cooldown has elapsed.
    fn allow(&mut self, replica: usize, cooldown: Duration) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.opened_at.is_some_and(|t| t.elapsed() >= cooldown) {
                    self.transition(replica, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&mut self, replica: usize) {
        self.consec_failures = 0;
        self.transition(replica, BreakerState::Closed);
    }

    fn on_failure(&mut self, replica: usize, threshold: u32) {
        self.consec_failures += 1;
        match self.state {
            BreakerState::HalfOpen => self.transition(replica, BreakerState::Open),
            BreakerState::Closed if self.consec_failures >= threshold => {
                self.transition(replica, BreakerState::Open);
            }
            _ => {}
        }
    }
}

/// A hot request remembered for failover re-warm: enough to replay it.
#[derive(Clone)]
struct HotReq {
    path: &'static str,
    body: String,
}

/// Gateway-side state for one replica.
struct Replica {
    addr: String,
    sock: SocketAddr,
    healthy: AtomicBool,
    consec_fail: AtomicU64,
    consec_ok: AtomicU64,
    breaker: Mutex<Breaker>,
    /// Forwarded requests this replica answered definitively.
    forwards: AtomicU64,
    /// Transport/5xx failures attributed to this replica.
    failures: AtomicU64,
    /// Fresh upstream connections opened by forwards (probes and the
    /// `/reload` fan-out not included).
    connects: AtomicU64,
    /// Idle keep-alive connections, most recently used on top.
    idle: Mutex<Vec<TcpStream>>,
    /// Recently served keys, oldest first (bounded; drained on failover).
    hot: Mutex<VecDeque<(u64, HotReq)>>,
}

/// Idle keep-alive connections pooled per replica: one for each forward
/// worker of a large gateway, plus hedges. Connections past the cap are
/// closed after use rather than pooled.
const POOL_CAP: usize = 32;

impl Replica {
    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().expect("pool poisoned").pop()
    }

    /// Pool `conn` for the next forward, unless the pool is full or the
    /// replica is no longer trusted (breaker open or marked down).
    fn checkin(&self, conn: TcpStream) {
        let mut idle = self.idle.lock().expect("pool poisoned");
        let trusted = self.healthy.load(Ordering::Relaxed)
            && self.breaker.lock().expect("breaker poisoned").state != BreakerState::Open;
        if trusted && idle.len() < POOL_CAP {
            idle.push(conn);
        }
    }

    /// Close every idle connection.
    fn evict(&self) {
        self.idle.lock().expect("pool poisoned").clear();
    }
}

/// Keys displaced by a failover, watched for their first post-rewarm
/// cache hit.
struct RehitWatch {
    since: Instant,
    keys: HashSet<u64>,
}

/// The gateway's replica fleet. Shared (`Arc`) between the compute pool
/// (which runs [`Fleet::forward`]), the prober thread, and `/statz`.
pub struct Fleet {
    cfg: FleetConfig,
    ring: Ring,
    replicas: Vec<Replica>,
    upstream_hist: Histogram,
    stop: AtomicBool,
    prober: Mutex<Option<JoinHandle<()>>>,
    rehit: Mutex<Option<RehitWatch>>,
    /// Telemetry counters (exposed via `/statz` and `BENCH_fleet.json`).
    retries: AtomicU64,
    hedges: AtomicU64,
    failovers: AtomicU64,
    rewarmed: AtomicU64,
    /// Failover→first displaced-key cache hit, microseconds (0 = none yet).
    first_rehit_us: AtomicU64,
}

impl Fleet {
    /// Build a fleet over `cfg.replicas`. Addresses are resolved once.
    ///
    /// # Errors
    /// Fails when `cfg.replicas` is empty or an address does not resolve.
    pub fn new(cfg: FleetConfig) -> std::io::Result<Self> {
        if cfg.replicas.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "fleet needs at least one replica",
            ));
        }
        let mut replicas = Vec::with_capacity(cfg.replicas.len());
        for addr in &cfg.replicas {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("replica address `{addr}` resolves to nothing"),
                )
            })?;
            replicas.push(Replica {
                addr: addr.clone(),
                sock,
                healthy: AtomicBool::new(true),
                consec_fail: AtomicU64::new(0),
                consec_ok: AtomicU64::new(0),
                breaker: Mutex::new(Breaker::new()),
                forwards: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                connects: AtomicU64::new(0),
                idle: Mutex::new(Vec::new()),
                hot: Mutex::new(VecDeque::new()),
            });
        }
        let ring = Ring::new(replicas.len(), cfg.vnodes.max(1));
        Ok(Self {
            cfg,
            ring,
            replicas,
            upstream_hist: Histogram::new(),
            stop: AtomicBool::new(false),
            prober: Mutex::new(None),
            rehit: Mutex::new(None),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            rewarmed: AtomicU64::new(0),
            first_rehit_us: AtomicU64::new(0),
        })
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently considered healthy.
    #[must_use]
    pub fn healthy_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.healthy.load(Ordering::Relaxed))
            .count()
    }

    /// The ring owner of `key` (health-blind; tests use it to aim
    /// requests at a specific replica).
    #[must_use]
    pub fn owner(&self, key: u64) -> usize {
        self.ring.owner(key)
    }

    /// Retries fired so far.
    #[must_use]
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Hedged duplicates fired so far.
    #[must_use]
    pub fn hedge_count(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Forwarded requests answered definitively, summed over replicas.
    #[must_use]
    pub fn forward_count(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.forwards.load(Ordering::Relaxed))
            .sum()
    }

    /// Fresh upstream connections opened by forwards, summed over
    /// replicas. Far below [`Fleet::forward_count`] when the pools work.
    #[must_use]
    pub fn connect_count(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.connects.load(Ordering::Relaxed))
            .sum()
    }

    /// Idle keep-alive connections pooled for `replica`.
    #[must_use]
    pub fn pooled(&self, replica: usize) -> usize {
        self.replicas[replica]
            .idle
            .lock()
            .expect("pool poisoned")
            .len()
    }

    /// Healthy→down transitions observed so far.
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Hot keys successfully re-warmed onto new owners after failovers.
    #[must_use]
    pub fn rewarmed_count(&self) -> u64 {
        self.rewarmed.load(Ordering::Relaxed)
    }

    /// Milliseconds from the first failover to the first cache hit on a
    /// displaced key, once observed.
    #[must_use]
    pub fn first_rehit_ms(&self) -> Option<f64> {
        match self.first_rehit_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(us as f64 / 1e3),
        }
    }

    /// Spawn the active health prober. Idempotent; paired with
    /// [`Fleet::stop`].
    pub fn start_probing(self: &Arc<Self>) {
        let mut slot = self.prober.lock().expect("prober slot poisoned");
        if slot.is_some() {
            return;
        }
        let fleet = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("hecmix-fleet-probe".to_owned())
            .spawn(move || {
                while !fleet.stop.load(Ordering::Relaxed) {
                    fleet.probe_all();
                    // Sleep in short ticks so stop() returns promptly.
                    let deadline = Instant::now() + fleet.cfg.probe_interval;
                    while Instant::now() < deadline && !fleet.stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })
            .expect("spawn prober");
        *slot = Some(handle);
    }

    /// Stop and join the prober thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.prober.lock().expect("prober slot poisoned").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn probe_all(self: &Arc<Self>) {
        for idx in 0..self.replicas.len() {
            let outcome = http::dial(self.replicas[idx].sock, self.cfg.probe_timeout)
                .and_then(|mut conn| http::exchange(&mut conn, "GET", "/healthz", ""));
            match outcome {
                Ok(a) if a.status < 500 => self.note_success(idx, None),
                Ok(a) => self.note_failure(idx, &format!("probe status {}", a.status)),
                Err(e) => self.note_failure(idx, &format!("probe {e}")),
            }
        }
    }

    // ---- health accounting (shared by probes and forwards) ----

    fn note_success(self: &Arc<Self>, idx: usize, latency: Option<Duration>) {
        let r = &self.replicas[idx];
        if let Some(lat) = latency {
            self.upstream_hist.record(lat.as_nanos() as u64);
            r.forwards.fetch_add(1, Ordering::Relaxed);
        }
        r.breaker.lock().expect("breaker poisoned").on_success(idx);
        r.consec_fail.store(0, Ordering::Relaxed);
        let ok = r.consec_ok.fetch_add(1, Ordering::Relaxed) + 1;
        if !r.healthy.load(Ordering::Relaxed) && ok >= REVIVE_THRESHOLD {
            r.healthy.store(true, Ordering::Relaxed);
            let (addr, consecutive) = (r.addr.clone(), ok as u32);
            emit(|| Event::ReplicaHealthChange {
                replica: idx,
                addr,
                healthy: true,
                reason: "revive threshold reached".to_owned(),
                consecutive,
            });
        }
    }

    fn note_failure(self: &Arc<Self>, idx: usize, why: &str) {
        let r = &self.replicas[idx];
        r.failures.fetch_add(1, Ordering::Relaxed);
        let open = {
            let mut breaker = r.breaker.lock().expect("breaker poisoned");
            breaker.on_failure(idx, self.cfg.breaker_threshold);
            breaker.state == BreakerState::Open
        };
        if open {
            r.evict();
        }
        r.consec_ok.store(0, Ordering::Relaxed);
        let fails = r.consec_fail.fetch_add(1, Ordering::Relaxed) + 1;
        if r.healthy.load(Ordering::Relaxed) && fails >= u64::from(self.cfg.fail_threshold) {
            r.healthy.store(false, Ordering::Relaxed);
            r.evict();
            self.failovers.fetch_add(1, Ordering::Relaxed);
            let (addr, reason, consecutive) = (r.addr.clone(), why.to_owned(), fails as u32);
            emit(|| Event::ReplicaHealthChange {
                replica: idx,
                addr,
                healthy: false,
                reason,
                consecutive,
            });
            self.failover(idx);
        }
    }

    /// A replica just went down: arm the rehit watch over its displaced
    /// hot keys and re-warm them onto their new ring owners in the
    /// background (the replicas' own single-flight absorbs any overlap
    /// with live client traffic).
    fn failover(self: &Arc<Self>, idx: usize) {
        let displaced: Vec<(u64, HotReq)> = self.replicas[idx]
            .hot
            .lock()
            .expect("hot set poisoned")
            .drain(..)
            .collect();
        {
            let mut watch = self.rehit.lock().expect("rehit watch poisoned");
            if watch.is_none() {
                *watch = Some(RehitWatch {
                    since: Instant::now(),
                    keys: displaced.iter().map(|(k, _)| *k).collect(),
                });
            }
        }
        if displaced.is_empty() {
            emit(|| Event::FailoverRewarm {
                from_replica: idx,
                keys: 0,
                rewarmed: 0,
                wall_s: 0.0,
            });
            return;
        }
        let fleet = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name("hecmix-fleet-rewarm".to_owned())
            .spawn(move || {
                let t0 = Instant::now();
                let keys = displaced.len();
                let mut ok = 0usize;
                for (key, req) in displaced {
                    if fleet.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if fleet.forward(key, req.path, &req.body).status == 200 {
                        ok += 1;
                    }
                }
                fleet.rewarmed.fetch_add(ok as u64, Ordering::Relaxed);
                let wall_s = t0.elapsed().as_secs_f64();
                emit(|| Event::FailoverRewarm {
                    from_replica: idx,
                    keys,
                    rewarmed: ok,
                    wall_s,
                });
            });
    }

    // ---- the forward path ----

    /// Candidate replicas for `key`: the ring preference order filtered
    /// to healthy replicas, or (when nothing is healthy) the raw
    /// preference order — trying a flapping replica beats refusing.
    fn candidates(&self, key: u64) -> Vec<usize> {
        let pref = self.ring.preference(key, self.replicas.len());
        let healthy: Vec<usize> = pref
            .iter()
            .copied()
            .filter(|&r| self.replicas[r].healthy.load(Ordering::Relaxed))
            .collect();
        if healthy.is_empty() {
            pref
        } else {
            healthy
        }
    }

    /// First candidate (rotated by `attempt`) whose breaker lets traffic
    /// through.
    fn pick(&self, cands: &[usize], attempt: u32) -> Option<usize> {
        let cooldown = self.cfg.breaker_cooldown;
        (0..cands.len())
            .map(|i| cands[(attempt as usize + i) % cands.len()])
            .find(|&r| {
                self.replicas[r]
                    .breaker
                    .lock()
                    .expect("breaker poisoned")
                    .allow(r, cooldown)
            })
    }

    /// The fleet's [`router::backoff_ms`] before retry `attempt` (≥ 1) of
    /// `key`, jittered by `seed ⊕ key ⊕ attempt`.
    fn backoff_ms(&self, key: u64, attempt: u32, retry_after_s: Option<u64>) -> u64 {
        let c = &self.cfg;
        let (base, cap, hint_cap) = (c.backoff_base_ms, c.backoff_cap_ms, RETRY_AFTER_CAP_MS);
        let jitter = c.seed ^ key ^ u64::from(attempt);
        router::backoff_ms(base, cap, hint_cap, attempt, retry_after_s, jitter)
    }

    /// The adaptive hedge delay: fleet-wide p95 of upstream latencies,
    /// clamped to `[hedge_min, hedge_max]`; `hedge_max` until enough
    /// samples exist for the estimate to mean anything.
    fn hedge_delay(&self) -> Duration {
        let lat = hist::summarize(std::slice::from_ref(&self.upstream_hist));
        if lat.count < 32 {
            return self.cfg.hedge_max;
        }
        Duration::from_nanos(lat.p95).clamp(self.cfg.hedge_min, self.cfg.hedge_max)
    }

    /// Forward one request through the fleet: bounded retries along the
    /// candidate rotation, each attempt raced against a hedged duplicate
    /// if it outlives the adaptive delay. Returns the upstream answer
    /// (2xx/4xx pass through) or a gateway `503` + `Retry-After` once
    /// every attempt is exhausted. Runs on a compute-pool thread.
    pub fn forward(self: &Arc<Self>, key: u64, path: &'static str, body: &str) -> Response {
        let mut last_why = String::from("no candidate replica");
        let mut retry_after_hint: Option<u64> = None;
        for attempt in 0..MAX_ATTEMPTS {
            let cands = self.candidates(key);
            let Some(primary) = self.pick(&cands, attempt) else {
                last_why = "all breakers open".to_owned();
                std::thread::sleep(Duration::from_millis(self.backoff_ms(
                    key,
                    attempt.max(1),
                    retry_after_hint,
                )));
                continue;
            };
            if attempt > 0 {
                let backoff = self.backoff_ms(key, attempt, retry_after_hint);
                self.retries.fetch_add(1, Ordering::Relaxed);
                {
                    let (path, why) = (path.to_owned(), last_why.clone());
                    emit(move || Event::RequestRetry {
                        path,
                        replica: primary,
                        attempt,
                        backoff_ms: backoff,
                        why,
                    });
                }
                std::thread::sleep(Duration::from_millis(backoff));
            }
            let hedge = self.pick_hedge(&cands, primary);
            match self.race(primary, hedge, path, body) {
                Ok((replica, answer)) => {
                    if answer.status == 503 {
                        // Admission backpressure, not death: honor the
                        // advertised Retry-After on the next backoff.
                        retry_after_hint = answer.retry_after_s;
                        last_why = "upstream 503".to_owned();
                        continue;
                    }
                    if answer.status >= 500 {
                        last_why = format!("upstream status {}", answer.status);
                        continue;
                    }
                    let text = String::from_utf8_lossy(&answer.body).into_owned();
                    if answer.status == 200 {
                        self.record_hot(replica, key, path, body);
                        self.check_rehit(key, &text);
                    }
                    let mut resp = Response::json(answer.status, text);
                    resp.retry_after_s = answer.retry_after_s;
                    return resp;
                }
                Err(why) => {
                    last_why = why;
                }
            }
        }
        let mut resp = Response::error(503, &format!("fleet exhausted retries: {last_why}"));
        resp.retry_after_s = Some(1);
        resp
    }

    /// The next distinct breaker-approved candidate after `primary`.
    fn pick_hedge(&self, cands: &[usize], primary: usize) -> Option<usize> {
        let cooldown = self.cfg.breaker_cooldown;
        cands.iter().copied().find(|&r| {
            r != primary
                && self.replicas[r]
                    .breaker
                    .lock()
                    .expect("breaker poisoned")
                    .allow(r, cooldown)
        })
    }

    /// Race one attempt against an optional hedge. The primary runs on the
    /// calling thread, which waits up to [`Fleet::hedge_delay`] for the
    /// first response byte; an answer by then, or no hedge to fire, is
    /// read right here with no thread spawned. Otherwise the primary and
    /// the hedge finish on threads of their own and the first
    /// transport-level success wins. Every attempt counts itself in
    /// health and breaker accounting, so a losing attempt's failure is
    /// still recorded.
    fn race(
        self: &Arc<Self>,
        primary: usize,
        hedge: Option<usize>,
        path: &'static str,
        body: &str,
    ) -> Result<(usize, Answer), String> {
        let t0 = Instant::now();
        // Read once, so the hedge event reports the delay actually waited.
        let delay = self.hedge_delay();
        let (conn, answering) = self.start(primary, path, body, delay.min(ATTEMPT_TIMEOUT))?;
        let hedge = match hedge {
            Some(h) if !answering && delay < ATTEMPT_TIMEOUT => h,
            _ => return self.finish(primary, conn, t0).map(|a| (primary, a)),
        };
        self.hedges.fetch_add(1, Ordering::Relaxed);
        {
            let (path, delay_ms) = (path.to_owned(), delay.as_millis() as u64);
            emit(move || Event::RequestHedged {
                path,
                primary,
                hedge,
                delay_ms,
            });
        }
        let (tx, rx) = mpsc::channel();
        self.spawn_racer(&tx, primary, move |fleet| fleet.finish(primary, conn, t0));
        let body = body.to_owned();
        self.spawn_racer(&tx, hedge, move |fleet| fleet.attempt(hedge, path, &body));
        drop(tx);

        let deadline = Instant::now() + ATTEMPT_TIMEOUT;
        let mut last_err = None;
        while let Ok((replica, result)) =
            rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            match result {
                Ok(answer) => return Ok((replica, answer)),
                Err(why) => last_err = Some(why),
            }
        }
        Err(last_err.unwrap_or_else(|| "attempt timeout".to_owned()))
    }

    /// Finish one racer on its own thread and send its outcome on `tx`.
    /// The send fails once the race has a winner; the racer has counted
    /// itself in health and breaker accounting regardless.
    fn spawn_racer(
        self: &Arc<Self>,
        tx: &mpsc::Sender<(usize, Result<Answer, String>)>,
        replica: usize,
        racer: impl FnOnce(&Arc<Self>) -> Result<Answer, String> + Send + 'static,
    ) {
        let (fleet, tx) = (Arc::clone(self), tx.clone());
        let _ = std::thread::Builder::new()
            .name("hecmix-fleet-attempt".to_owned())
            .spawn(move || {
                let _ = tx.send((replica, racer(&fleet)));
            });
    }

    /// One whole attempt on `replica`, on the calling thread.
    fn attempt(self: &Arc<Self>, replica: usize, path: &str, body: &str) -> Result<Answer, String> {
        let t0 = Instant::now();
        let (conn, _) = self.start(replica, path, body, ATTEMPT_TIMEOUT)?;
        self.finish(replica, conn, t0)
    }

    /// Send a request to `replica` on a pooled connection, or on a fresh
    /// one when the pool is empty, and wait up to `wait` for the first
    /// response byte. Returns the connection and whether that byte came.
    ///
    /// A pooled connection can fail before that byte (write error, EOF or
    /// reset) because the replica retired it while it sat idle. The
    /// request then goes once more on a fresh connection, and this
    /// keep-alive race counts as nothing. Any other failure is counted in
    /// health and breaker accounting here.
    fn start(
        self: &Arc<Self>,
        replica: usize,
        path: &str,
        body: &str,
        wait: Duration,
    ) -> Result<(TcpStream, bool), String> {
        let r = &self.replicas[replica];
        let wire = http::format_request("POST", path, body);
        if let Some(conn) = r.checkout() {
            if let Ok(started) = send(conn, &wire, wait) {
                return Ok(started);
            }
        }
        let started = http::dial(r.sock, CONNECT_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|conn| {
                r.connects.fetch_add(1, Ordering::Relaxed);
                send(conn, &wire, wait)
            });
        if let Err(why) = &started {
            self.note_failure(replica, why);
        }
        started
    }

    /// Read the answer to the request [`Fleet::start`]ed at `t0` on
    /// `conn`, pool the connection again if the answer left it reusable,
    /// and count the attempt in health and breaker accounting.
    fn finish(
        self: &Arc<Self>,
        replica: usize,
        mut conn: TcpStream,
        t0: Instant,
    ) -> Result<Answer, String> {
        let remaining = ATTEMPT_TIMEOUT.saturating_sub(t0.elapsed());
        let result = read_timeout(&conn, remaining)
            .and_then(|()| http::read_answer(&mut conn).map_err(|e| format!("read: {e:?}")));
        if result.as_ref().is_ok_and(|answer| !answer.close) {
            self.replicas[replica].checkin(conn);
        }
        match &result {
            // Alive but shedding: neither a health nor a breaker signal.
            Ok(a) if a.status == 503 => {}
            Ok(a) if a.status >= 500 => {
                self.note_failure(replica, &format!("status {}", a.status));
            }
            Ok(_) => self.note_success(replica, Some(t0.elapsed())),
            Err(why) => self.note_failure(replica, why),
        }
        result
    }

    /// Remember that `replica` served `key` (bounded LRU; the newest keys
    /// are what failover re-warms).
    fn record_hot(&self, replica: usize, key: u64, path: &'static str, body: &str) {
        let mut hot = self.replicas[replica].hot.lock().expect("hot set poisoned");
        if let Some(pos) = hot.iter().position(|(k, _)| *k == key) {
            hot.remove(pos);
        }
        hot.push_back((
            key,
            HotReq {
                path,
                body: body.to_owned(),
            },
        ));
        while hot.len() > HOT_KEYS_PER_REPLICA {
            hot.pop_front();
        }
    }

    /// If a rehit watch is armed and this response is a cache hit on a
    /// displaced key, the cold-start cliff is officially closed — record
    /// the failover→rehit time.
    fn check_rehit(&self, key: u64, body: &str) {
        if !answered_from_cache(body) {
            return;
        }
        let mut watch = self.rehit.lock().expect("rehit watch poisoned");
        let Some(w) = watch.as_ref() else { return };
        if !w.keys.contains(&key) {
            return;
        }
        let us = (w.since.elapsed().as_micros() as u64).max(1);
        let _ = self
            .first_rehit_us
            .compare_exchange(0, us, Ordering::Relaxed, Ordering::Relaxed);
        *watch = None;
    }

    // ---- fan-out control plane ----

    /// Broadcast `POST /reload` to every replica (serially; reloads are
    /// heavy). Answers 200 only if every replica reloaded.
    #[must_use]
    pub fn broadcast_reload(&self) -> Response {
        let mut rows = String::from("[");
        let mut all_ok = true;
        for (idx, r) in self.replicas.iter().enumerate() {
            let status = http::dial(r.sock, CONNECT_TIMEOUT)
                .and_then(|mut conn| {
                    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
                    http::exchange(&mut conn, "POST", "/reload", "")
                })
                .map_or(0, |a| a.status);
            all_ok &= status == 200;
            if idx > 0 {
                rows.push(',');
            }
            let mut ro = Object::new();
            ro.u64("replica", idx as u64);
            ro.str("addr", &r.addr);
            ro.u64("status", u64::from(status));
            rows.push_str(&ro.finish());
        }
        rows.push(']');
        let mut o = Object::new();
        o.bool("reloaded", all_ok);
        o.u64("replicas", self.replicas.len() as u64);
        o.raw("results", &rows);
        Response::json(if all_ok { 200 } else { 502 }, o.finish())
    }

    /// The fleet section of the gateway's `/statz` (one JSON object).
    #[must_use]
    pub fn statz_object(&self) -> String {
        let lat = hist::summarize(std::slice::from_ref(&self.upstream_hist));
        let mut o = Object::new();
        o.u64("replicas", self.replicas.len() as u64);
        o.u64("healthy", self.healthy_count() as u64);
        o.u64("retries", self.retries.load(Ordering::Relaxed));
        o.u64("hedges", self.hedges.load(Ordering::Relaxed));
        o.u64("failovers", self.failovers.load(Ordering::Relaxed));
        o.u64("rewarmed", self.rewarmed.load(Ordering::Relaxed));
        if let Some(ms) = self.first_rehit_ms() {
            o.f64("first_rehit_ms", ms);
        }
        let ns_to_us = |v: u64| v as f64 / 1e3;
        let mut l = Object::new();
        l.u64("count", lat.count);
        l.f64("p50", ns_to_us(lat.p50));
        l.f64("p95", ns_to_us(lat.p95));
        l.f64("p99", ns_to_us(lat.p99));
        o.raw("upstream_us", &l.finish());
        let mut rows = String::from("[");
        for (idx, r) in self.replicas.iter().enumerate() {
            if idx > 0 {
                rows.push(',');
            }
            let mut ro = Object::new();
            ro.u64("replica", idx as u64);
            ro.str("addr", &r.addr);
            ro.bool("healthy", r.healthy.load(Ordering::Relaxed));
            ro.str(
                "breaker",
                r.breaker.lock().expect("breaker poisoned").state.name(),
            );
            ro.u64("forwards", r.forwards.load(Ordering::Relaxed));
            ro.u64("failures", r.failures.load(Ordering::Relaxed));
            ro.u64("connects", r.connects.load(Ordering::Relaxed));
            rows.push_str(&ro.finish());
        }
        rows.push(']');
        o.raw("members", &rows);
        o.finish()
    }
}

/// Whether a replica's answer `body` came from its plan cache. The
/// gateway keeps no cache, so this is how it learns a forward was a hit.
pub(crate) fn answered_from_cache(body: &str) -> bool {
    body.contains("\"cached\":true")
}

/// Bound every blocking read on `conn` by `timeout` (at least 1 ms: a
/// zero timeout is an error to the OS, not an immediate one).
fn read_timeout(conn: &TcpStream, timeout: Duration) -> Result<(), String> {
    conn.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
        .map_err(|e| format!("timeout: {e}"))
}

/// Write `wire` on `conn` and wait up to `wait` for the first byte of the
/// answer, without consuming it. `Ok((conn, false))` means the wait
/// passed with the connection still open; EOF is an error.
fn send(mut conn: TcpStream, wire: &str, wait: Duration) -> Result<(TcpStream, bool), String> {
    conn.write_all(wire.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_timeout(&conn, wait)?;
    match conn.peek(&mut [0u8]) {
        Ok(0) => Err("read: closed before the response".to_owned()),
        Ok(_) => Ok((conn, true)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Ok((conn, false))
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Arc<Fleet> {
        let cfg = FleetConfig {
            replicas: (0..n).map(|i| format!("127.0.0.1:{}", 49000 + i)).collect(),
            ..FleetConfig::default()
        };
        Arc::new(Fleet::new(cfg).expect("fleet builds"))
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = Breaker::new();
        let cooldown = Duration::from_millis(20);
        assert_eq!(b.state, BreakerState::Closed);
        b.on_failure(0, 2);
        assert_eq!(b.state, BreakerState::Closed, "one failure is tolerated");
        b.on_failure(0, 2);
        assert_eq!(b.state, BreakerState::Open, "threshold trips it open");
        assert!(!b.allow(0, cooldown), "open rejects before cooldown");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(0, cooldown), "cooldown admits a half-open trial");
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.on_failure(0, 2);
        assert_eq!(b.state, BreakerState::Open, "a failed trial reopens");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(0, cooldown));
        b.on_success(0);
        assert_eq!(b.state, BreakerState::Closed, "a good trial closes");
        assert_eq!(b.consec_failures, 0);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_honors_retry_after() {
        let f = fleet(2);
        let a = f.backoff_ms(99, 1, None);
        let b = f.backoff_ms(99, 1, None);
        assert_eq!(a, b, "same (seed, key, attempt) → same backoff");
        assert_ne!(
            f.backoff_ms(99, 1, None),
            f.backoff_ms(100, 1, None),
            "different keys de-synchronize"
        );
        // Exponential-with-jitter stays in [base/2, 1.5·base).
        let base = f.cfg.backoff_base_ms;
        assert!(a >= base / 2 && a < base + base / 2, "{a} vs base {base}");
        // A Retry-After hint floors the wait but is capped.
        let hinted = f.backoff_ms(99, 1, Some(30));
        let cap = RETRY_AFTER_CAP_MS;
        assert!(
            hinted >= cap / 2 && hinted < cap + cap / 2,
            "{hinted} vs cap {cap}"
        );
    }

    #[test]
    fn backoff_values_are_pinned() {
        // Captured from the fleet's own backoff before it moved to
        // `router::backoff_ms`, under the default config: per key, the
        // waits for attempts 1–8 without a usable hint (none or
        // `Retry-After: 0`) and with one (1, 2 or 30 s, all past the cap).
        let pinned: [(u64, [u64; 8], [u64; 8]); 3] = [
            (
                0,
                [5, 28, 53, 63, 85, 231, 226, 289],
                [410, 748, 463, 593, 515, 581, 576, 339],
            ),
            (
                99,
                [5, 10, 23, 57, 194, 287, 136, 229],
                [300, 550, 353, 507, 724, 337, 486, 679],
            ),
            (
                0xDEAD_BEEF,
                [6, 28, 58, 86, 194, 264, 229, 217],
                [421, 688, 508, 556, 744, 614, 679, 467],
            ),
        ];
        let f = fleet(2);
        for (key, plain, hinted) in pinned {
            for (hint, want) in [
                (None, plain),
                (Some(0), plain),
                (Some(1), hinted),
                (Some(2), hinted),
                (Some(30), hinted),
            ] {
                let got: Vec<u64> = (1..=8).map(|a| f.backoff_ms(key, a, hint)).collect();
                assert_eq!(got, want, "key {key}, Retry-After {hint:?}");
            }
        }
    }

    #[test]
    fn candidates_skip_unhealthy_but_never_go_empty() {
        let f = fleet(3);
        let key = 0xDEAD_BEEF;
        let all = f.candidates(key);
        assert_eq!(all.len(), 3);
        for r in &f.replicas {
            r.healthy.store(false, Ordering::Relaxed);
        }
        f.replicas[1].healthy.store(true, Ordering::Relaxed);
        assert_eq!(f.candidates(key), vec![1], "only the healthy survivor");
        f.replicas[1].healthy.store(false, Ordering::Relaxed);
        assert_eq!(
            f.candidates(key).len(),
            3,
            "nothing healthy → raw preference order, not an empty set"
        );
    }

    #[test]
    fn hedge_delay_clamps_and_defaults_to_max() {
        let f = fleet(2);
        assert_eq!(
            f.hedge_delay(),
            f.cfg.hedge_max,
            "no samples → conservative max"
        );
        for _ in 0..100 {
            f.upstream_hist.record(1_000); // 1 µs, far below hedge_min
        }
        assert_eq!(f.hedge_delay(), f.cfg.hedge_min, "clamped to the floor");
    }

    #[test]
    fn pool_is_capped_and_refuses_untrusted_replicas() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let conn = || TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let f = fleet(1);
        let r = &f.replicas[0];
        for _ in 0..POOL_CAP + 3 {
            r.checkin(conn());
        }
        assert_eq!(f.pooled(0), POOL_CAP, "the pool is capped");
        r.evict();
        assert_eq!(f.pooled(0), 0, "eviction closes every idle connection");

        r.healthy.store(false, Ordering::Relaxed);
        r.checkin(conn());
        assert_eq!(f.pooled(0), 0, "a replica marked down pools nothing");
        r.healthy.store(true, Ordering::Relaxed);
        r.breaker.lock().unwrap().transition(0, BreakerState::Open);
        r.checkin(conn());
        assert_eq!(f.pooled(0), 0, "nor does one whose breaker is open");
    }

    #[test]
    fn hot_set_is_bounded_and_deduped() {
        let f = fleet(1);
        for round in 0..3u64 {
            for key in 0..100u64 {
                let _ = round;
                f.record_hot(0, key, "/frontier", "{}");
            }
        }
        let hot = f.replicas[0].hot.lock().unwrap();
        assert_eq!(hot.len(), HOT_KEYS_PER_REPLICA);
        let mut keys: Vec<u64> = hot.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), hot.len(), "no duplicate keys in the hot set");
    }

    #[test]
    fn rehit_watch_records_only_displaced_cached_hits() {
        let f = fleet(1);
        *f.rehit.lock().unwrap() = Some(RehitWatch {
            since: Instant::now(),
            keys: [7u64].into_iter().collect(),
        });
        f.check_rehit(7, r#"{"cached":false}"#);
        assert!(f.first_rehit_ms().is_none(), "cold responses don't count");
        f.check_rehit(8, r#"{"cached":true}"#);
        assert!(f.first_rehit_ms().is_none(), "other keys don't count");
        f.check_rehit(7, r#"{"cached":true}"#);
        assert!(
            f.first_rehit_ms().is_some(),
            "displaced hit closes the watch"
        );
        assert!(f.rehit.lock().unwrap().is_none());
    }
}
