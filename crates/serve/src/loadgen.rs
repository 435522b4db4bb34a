//! Load generator for the planning daemon: closed-loop or open-loop,
//! fixed-count or steady-state, with a tail-latency gate.
//!
//! Two arrival models:
//!
//! * **Closed-loop** (default): a fixed number of client threads each keep
//!   exactly one request in flight over a keep-alive connection, so
//!   offered load adapts to the daemon's service rate — the right harness
//!   for measuring latency percentiles under a concurrency level.
//! * **Open-loop** (`open_loop_rps`): requests are *scheduled* on a fixed
//!   global cadence (ticket *i* fires at `i/rate`) regardless of how fast
//!   earlier ones complete, and latency is measured **from the scheduled
//!   time**, not from the actual send — the standard correction for
//!   coordinated omission, so a stalled server inflates the tail instead
//!   of silently thinning the arrival stream.
//!
//! Runs are bounded either by a request count (`requests`) or by wall
//! clock (`duration_s`). A **warmup window** (`warmup_s`) excludes the
//! cold start from the aggregate — connection setup, first-touch cache
//! misses — so steady-state percentiles measure the steady state.
//! Percentiles are reported in aggregate **and per endpoint**
//! (`/plan`, `/frontier`, `/whatif`): the three do different amounts of
//! work and a blended p99 hides which one regressed.
//!
//! The endpoint mix is deterministic: a global ticket counter assigns each
//! request its endpoint by `ticket % (plan+frontier+whatif)`, so the same
//! configuration issues exactly the same request sequence every time,
//! regardless of thread interleaving.
//!
//! Besides client-observed wall latency, the harness parses the
//! `compute_us`/`cached` fields the daemon embeds in every response and
//! reports the cold-vs-warm `/frontier` compute medians — the honest basis
//! for the plan cache's speedup claim, immune to loopback RTT noise — and
//! scrapes a replica's `GET /statz` before and after the run to report
//! server-side deltas (computes, coalesced answers, warmed entries, cache
//! hits); against a gateway it reports none.
//! [`LoadReport::gate`] turns a run into a pass/fail check for CI. Every
//! exchange goes through [`http::exchange`], and 503 retries wait
//! [`retry_503_wait_ms`], the shared [`backoff_ms`] with loadgen's caps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hecmix_obs::json::{self, Object, Value};

use crate::http;
use crate::router::backoff_ms;

/// Relative request frequencies per endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixRatio {
    /// Weight of `POST /plan`.
    pub plan: u32,
    /// Weight of `POST /frontier`.
    pub frontier: u32,
    /// Weight of `POST /whatif`.
    pub whatif: u32,
}

impl MixRatio {
    /// Parse `"P:F:W"` (e.g. `"2:2:1"`).
    ///
    /// # Errors
    /// Malformed syntax or an all-zero mix.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("mix must be plan:frontier:whatif, got `{s}`"));
        }
        let num = |p: &str| -> Result<u32, String> {
            p.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad mix weight `{p}`"))
        };
        let mix = Self {
            plan: num(parts[0])?,
            frontier: num(parts[1])?,
            whatif: num(parts[2])?,
        };
        if mix.total() == 0 {
            return Err("mix weights cannot all be zero".into());
        }
        Ok(mix)
    }

    fn total(self) -> u64 {
        u64::from(self.plan) + u64::from(self.frontier) + u64::from(self.whatif)
    }
}

impl Default for MixRatio {
    fn default() -> Self {
        Self {
            plan: 2,
            frontier: 2,
            whatif: 1,
        }
    }
}

/// One load run's parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, `HOST:PORT`.
    pub addr: String,
    /// Concurrent client threads (each with one request in flight).
    pub concurrency: usize,
    /// Total requests to issue (ignored when `duration_s` is set).
    pub requests: u64,
    /// Run for this many seconds of wall clock instead of a fixed count.
    pub duration_s: Option<f64>,
    /// Exclude requests issued in the first `warmup_s` seconds from the
    /// aggregated percentiles (they still count toward `sent`/`ok`).
    pub warmup_s: f64,
    /// Open-loop arrival rate, requests/second. `None` = closed loop.
    pub open_loop_rps: Option<f64>,
    /// Endpoint mix.
    pub mix: MixRatio,
    /// Workload name sent in every request.
    pub workload: String,
    /// ARM node cap for `/plan` and `/frontier`.
    pub arm: u32,
    /// When set, `/plan` and `/frontier` sweep `arm` over `1..=n` by
    /// ticket instead of using the fixed cap — n distinct cache keys, so
    /// a fleet gateway's consistent-hash routing (and failover re-warm)
    /// is exercised across replicas instead of hammering one key.
    pub arm_sweep: Option<u32>,
    /// AMD node cap for `/plan` and `/frontier`.
    pub amd: u32,
    /// Power budget for `/whatif`, watts.
    pub budget_w: f64,
    /// Deadline for `/plan` and `/whatif`, milliseconds.
    pub deadline_ms: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".to_owned(),
            concurrency: 8,
            requests: 500,
            duration_s: None,
            warmup_s: 0.0,
            open_loop_rps: None,
            mix: MixRatio::default(),
            workload: "ep".to_owned(),
            arm: 10,
            arm_sweep: None,
            amd: 10,
            budget_w: 400.0,
            deadline_ms: 120_000.0,
        }
    }
}

/// Latency percentiles for one endpoint's measured (post-warmup) samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Measured samples.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Maximum, microseconds.
    pub max_us: u64,
}

/// Server-side counter deltas across the run (from `GET /statz` scraped
/// before and after).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerDelta {
    /// Plan computations executed on the compute pool.
    pub computes: u64,
    /// Requests answered from another connection's in-flight compute.
    pub coalesced: u64,
    /// Cache entries recomputed by warm reloads.
    pub warmed: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: u64,
    /// `200 OK` responses.
    pub ok: u64,
    /// 503 rejections absorbed by retry (the requests still completed;
    /// this counts the extra attempts).
    pub rejected_retries: u64,
    /// Requests that never completed successfully.
    pub errors: u64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
    /// Measured (post-warmup) completions per second of measured window.
    pub throughput_rps: f64,
    /// Samples included in the percentiles (post-warmup `200`s).
    pub measured: u64,
    /// Samples excluded by the warmup window.
    pub warmup_excluded: u64,
    /// Aggregate latency percentiles, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
    /// Maximum, microseconds.
    pub max_us: u64,
    /// `p99 / p50` of the aggregate (0 when there are no samples) — the
    /// number the CI tail gate checks.
    pub tail_ratio: f64,
    /// `/plan` percentiles.
    pub plan: EndpointStats,
    /// `/frontier` percentiles.
    pub frontier: EndpointStats,
    /// `/whatif` percentiles.
    pub whatif: EndpointStats,
    /// Median server-side compute of **uncached** `/frontier` answers, µs.
    pub frontier_cold_us: u64,
    /// Median server-side compute of **cached** `/frontier` answers, µs,
    /// floored at 1 when any samples exist (hits often round to 0 µs).
    pub frontier_warm_us: u64,
    /// `frontier_cold_us / frontier_warm_us` (0 when either is missing).
    pub cache_speedup: f64,
    /// Server counter deltas, when a replica's `/statz` was reachable on
    /// both ends; a gateway's `/statz` has no counters of its own to report.
    pub server: Option<ServerDelta>,
}

/// One completed request: which endpoint, when it was issued (offset from
/// run start, scheduled time under open loop), and its latency.
struct Sample {
    endpoint: usize,
    start_offset_s: f64,
    lat_us: u64,
}

struct WorkerOut {
    ok: u64,
    rejected_retries: u64,
    errors: u64,
    samples: Vec<Sample>,
    frontier_cold_us: Vec<u64>,
    frontier_warm_us: Vec<u64>,
}

enum Endpoint {
    Plan,
    Frontier,
    Whatif,
}

impl Endpoint {
    fn index(&self) -> usize {
        match self {
            Self::Plan => 0,
            Self::Frontier => 1,
            Self::Whatif => 2,
        }
    }
}

fn endpoint_for(ticket: u64, mix: MixRatio) -> Endpoint {
    let m = ticket % mix.total();
    if m < u64::from(mix.plan) {
        Endpoint::Plan
    } else if m < u64::from(mix.plan) + u64::from(mix.frontier) {
        Endpoint::Frontier
    } else {
        Endpoint::Whatif
    }
}

fn request_for(cfg: &LoadgenConfig, ticket: u64) -> (Endpoint, &'static str, String) {
    let endpoint = endpoint_for(ticket, cfg.mix);
    let arm = cfg
        .arm_sweep
        .map_or(cfg.arm, |n| 1 + (ticket % u64::from(n.max(1))) as u32);
    match endpoint {
        Endpoint::Plan => {
            let mut o = Object::new();
            o.str("workload", &cfg.workload);
            o.u64("arm", u64::from(arm));
            o.u64("amd", u64::from(cfg.amd));
            o.f64("deadline_ms", cfg.deadline_ms);
            (endpoint, "/plan", o.finish())
        }
        Endpoint::Frontier => {
            let mut o = Object::new();
            o.str("workload", &cfg.workload);
            o.u64("arm", u64::from(arm));
            o.u64("amd", u64::from(cfg.amd));
            (endpoint, "/frontier", o.finish())
        }
        Endpoint::Whatif => {
            let mut o = Object::new();
            o.str("workload", &cfg.workload);
            o.f64("budget_w", cfg.budget_w);
            o.f64("deadline_ms", cfg.deadline_ms);
            (endpoint, "/whatif", o.finish())
        }
    }
}

/// Connect and read timeout of every client connection.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Total 503 retries allowed per ticket before it counts as an error.
const MAX_503_RETRIES: u32 = 32;

/// How long to sleep before 503-retry number `attempt` (1-based) of
/// `ticket`, or `None` once the attempt budget is spent.
///
/// This is [`backoff_ms`] from 5 ms, doubling, capped at 100 ms, with the
/// server's `Retry-After` also capped at 100 ms — a load generator that
/// sleeps whole seconds measures nothing. The jitter key is `(ticket,
/// attempt)`: deterministic per ticket for replayable runs, but
/// de-synchronized *across* tickets, so a fleet of workers rejected in
/// the same instant cannot form a retry storm against a recovering
/// replica.
#[must_use]
pub fn retry_503_wait_ms(ticket: u64, attempt: u32, retry_after_s: Option<u64>) -> Option<u64> {
    let jitter = ticket ^ (u64::from(attempt) << 32);
    (attempt <= MAX_503_RETRIES).then(|| backoff_ms(5, 100, 100, attempt, retry_after_s, jitter))
}

fn worker(cfg: &LoadgenConfig, tickets: &AtomicU64, start: Instant) -> WorkerOut {
    let mut out = WorkerOut {
        ok: 0,
        rejected_retries: 0,
        errors: 0,
        samples: Vec::new(),
        frontier_cold_us: Vec::new(),
        frontier_warm_us: Vec::new(),
    };
    let mut conn = http::dial(cfg.addr.as_str(), TIMEOUT).ok();
    'tickets: loop {
        let ticket = tickets.fetch_add(1, Ordering::Relaxed);
        // Stop criterion: wall clock in duration mode, count otherwise.
        // Open-loop tickets are judged by their *scheduled* time so the
        // arrival stream ends exactly at the configured duration.
        let scheduled = cfg
            .open_loop_rps
            .map(|rate| Duration::from_secs_f64(ticket as f64 / rate.max(1e-9)));
        match cfg.duration_s {
            Some(d) => {
                let offset = scheduled.unwrap_or_else(|| start.elapsed());
                if offset.as_secs_f64() >= d {
                    break;
                }
            }
            None => {
                if ticket >= cfg.requests {
                    break;
                }
            }
        }
        if let Some(s) = scheduled {
            // Open loop: hold the ticket until its scheduled instant.
            let target = start + s;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let (endpoint, path, body) = request_for(cfg, ticket);
        // Open-loop latency runs from the scheduled arrival, so time a
        // backed-up client spends waiting to send counts against the
        // server (coordinated-omission correction).
        let t0 = scheduled.map_or_else(Instant::now, |s| start + s);
        let start_offset_s = (t0 - start).as_secs_f64();
        let mut reconnects = 0u32;
        let mut backoffs = 0u32;
        loop {
            let Some(c) = conn.as_mut() else {
                match http::dial(cfg.addr.as_str(), TIMEOUT) {
                    Ok(c) => {
                        conn = Some(c);
                        continue;
                    }
                    Err(_) => {
                        out.errors += 1;
                        // The daemon is unreachable; stop burning tickets.
                        if reconnects >= 3 {
                            break 'tickets;
                        }
                        reconnects += 1;
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                }
            };
            match http::exchange(c, "POST", path, &body) {
                Ok(answer) if answer.status == 200 => {
                    out.ok += 1;
                    out.samples.push(Sample {
                        endpoint: endpoint.index(),
                        start_offset_s,
                        lat_us: t0.elapsed().as_micros() as u64,
                    });
                    // `/plan` answers come off the same memoized frontier,
                    // so both endpoints sample the cold/warm compute clock
                    // (whichever arrives first takes the cold hit).
                    if path == "/frontier" || path == "/plan" {
                        record_frontier_compute(&answer.body, &mut out);
                    }
                    break;
                }
                Ok(answer) if answer.status == 503 => {
                    // Admission control asked us to back off; honor it
                    // (capped — Retry-After is in whole seconds), jittered
                    // per ticket so every worker that got the same
                    // Retry-After does not re-arrive in the same instant
                    // and re-trip admission on a recovering daemon. 503
                    // closes the connection.
                    out.rejected_retries += 1;
                    conn = None;
                    backoffs += 1;
                    match retry_503_wait_ms(ticket, backoffs, answer.retry_after_s) {
                        Some(wait) => std::thread::sleep(Duration::from_millis(wait)),
                        None => {
                            out.errors += 1;
                            break;
                        }
                    }
                }
                Ok(_) => {
                    out.errors += 1;
                    break;
                }
                Err(_) => {
                    // Connection died (e.g. server drain closed it); one
                    // reconnect retry per request before counting an error.
                    conn = None;
                    reconnects += 1;
                    if reconnects > 3 {
                        out.errors += 1;
                        break;
                    }
                }
            }
        }
    }
    out
}

fn record_frontier_compute(resp_body: &[u8], out: &mut WorkerOut) {
    let Ok(text) = std::str::from_utf8(resp_body) else {
        return;
    };
    let Ok(v) = json::parse(text) else { return };
    let Some(compute_us) = v.get("compute_us").and_then(Value::as_u64) else {
        return;
    };
    // Coalesced answers share the leader's compute — counting the same
    // sweep N times would skew the cold median, so they are skipped.
    if v.get("coalesced").and_then(Value::as_bool) == Some(true) {
        return;
    }
    match v.get("cached").and_then(Value::as_bool) {
        Some(true) => out.frontier_warm_us.push(compute_us),
        Some(false) => out.frontier_cold_us.push(compute_us),
        None => {}
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

fn endpoint_stats(mut lats: Vec<u64>) -> EndpointStats {
    lats.sort_unstable();
    EndpointStats {
        count: lats.len() as u64,
        p50_us: percentile(&lats, 0.50),
        p90_us: percentile(&lats, 0.90),
        p99_us: percentile(&lats, 0.99),
        max_us: lats.last().copied().unwrap_or(0),
    }
}

/// Fold worker outputs into the report: drop warmup samples, split per
/// endpoint, compute aggregate percentiles and the cold/warm medians.
fn aggregate(outs: Vec<WorkerOut>, sent: u64, wall_s: f64, warmup_s: f64) -> LoadReport {
    let mut report = LoadReport {
        sent,
        wall_s,
        ..LoadReport::default()
    };
    let mut latencies = Vec::new();
    let mut per_endpoint: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for o in outs {
        report.ok += o.ok;
        report.rejected_retries += o.rejected_retries;
        report.errors += o.errors;
        for s in o.samples {
            if s.start_offset_s < warmup_s {
                report.warmup_excluded += 1;
                continue;
            }
            latencies.push(s.lat_us);
            per_endpoint[s.endpoint.min(2)].push(s.lat_us);
        }
        cold.extend(o.frontier_cold_us);
        warm.extend(o.frontier_warm_us);
    }
    latencies.sort_unstable();
    report.measured = latencies.len() as u64;
    let window_s = (wall_s - warmup_s).max(f64::EPSILON);
    report.throughput_rps = report.measured as f64 / window_s;
    report.p50_us = percentile(&latencies, 0.50);
    report.p90_us = percentile(&latencies, 0.90);
    report.p99_us = percentile(&latencies, 0.99);
    report.p999_us = percentile(&latencies, 0.999);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report.tail_ratio = if report.p50_us > 0 {
        report.p99_us as f64 / report.p50_us as f64
    } else {
        0.0
    };
    let [plan, frontier, whatif] = per_endpoint;
    report.plan = endpoint_stats(plan);
    report.frontier = endpoint_stats(frontier);
    report.whatif = endpoint_stats(whatif);
    report.frontier_cold_us = median(cold);
    // Release-build cache hits routinely round to 0 µs; floor the median at
    // 1 µs so the reported ratio stays finite (and conservative).
    report.frontier_warm_us = if warm.is_empty() {
        0
    } else {
        median(warm).max(1)
    };
    report.cache_speedup = if report.frontier_warm_us > 0 && report.frontier_cold_us > 0 {
        report.frontier_cold_us as f64 / report.frontier_warm_us as f64
    } else {
        0.0
    };
    report
}

/// Scraped slice of `GET /statz`.
fn scrape_statz(addr: &str) -> Option<ServerDelta> {
    let mut conn = http::dial(addr, TIMEOUT).ok()?;
    let answer = http::exchange(&mut conn, "GET", "/statz", "").ok()?;
    if answer.status != 200 {
        return None;
    }
    statz_counters(&json::parse(std::str::from_utf8(&answer.body).ok()?).ok()?)
}

/// The counters of a replica's `/statz` body. `None` for a gateway's (one
/// with a `fleet` section): its replicas do the computing and caching, so
/// its own top-level counters never move.
fn statz_counters(v: &Value) -> Option<ServerDelta> {
    if v.get("fleet").is_some() {
        return None;
    }
    let u = |field: &str| v.get(field).and_then(Value::as_u64).unwrap_or(0);
    let cache = |field: &str| {
        v.get("cache")
            .and_then(|c| c.get(field))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Some(ServerDelta {
        computes: u("computes"),
        coalesced: u("coalesced"),
        warmed: u("warmed"),
        cache_hits: cache("hits"),
        cache_misses: cache("misses"),
    })
}

/// Run the load against a live daemon and aggregate the report.
#[must_use]
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    let before = scrape_statz(&cfg.addr);
    let tickets = AtomicU64::new(0);
    let start = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency.max(1))
            .map(|_| s.spawn(|| worker(cfg, &tickets, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let issued = tickets.load(Ordering::Relaxed);
    let sent = match cfg.duration_s {
        Some(_) => issued.saturating_sub(cfg.concurrency.max(1) as u64),
        None => issued.min(cfg.requests),
    };
    let mut report = aggregate(outs, sent, wall_s, cfg.warmup_s);
    report.server = match (before, scrape_statz(&cfg.addr)) {
        (Some(b), Some(a)) => Some(ServerDelta {
            computes: a.computes.saturating_sub(b.computes),
            coalesced: a.coalesced.saturating_sub(b.coalesced),
            warmed: a.warmed.saturating_sub(b.warmed),
            cache_hits: a.cache_hits.saturating_sub(b.cache_hits),
            cache_misses: a.cache_misses.saturating_sub(b.cache_misses),
        }),
        _ => None,
    };
    report
}

impl LoadReport {
    /// Pass/fail check for CI: no errors, at least `min_ok` successful
    /// requests, and `p99/p50 ≤ max_tail_ratio` (skipped when
    /// `max_tail_ratio` is 0).
    ///
    /// # Errors
    /// A message listing every violated condition.
    pub fn gate(&self, max_tail_ratio: f64, min_ok: u64) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.errors > 0 {
            problems.push(format!("{} requests errored", self.errors));
        }
        if self.ok < min_ok {
            problems.push(format!("only {} ok (required {min_ok})", self.ok));
        }
        if max_tail_ratio > 0.0 && self.tail_ratio > max_tail_ratio {
            problems.push(format!(
                "tail ratio p99/p50 = {:.1} exceeds {max_tail_ratio:.1} (p50 {} µs, p99 {} µs)",
                self.tail_ratio, self.p50_us, self.p99_us
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// The line that reports a passed [`Self::gate`], naming only the
    /// limits that were set: `max_tail_ratio` 0 and `min_ok` 0 check
    /// nothing. `None` when neither was set.
    #[must_use]
    pub fn gate_summary(&self, max_tail_ratio: f64, min_ok: u64) -> Option<String> {
        let mut checks = Vec::new();
        if max_tail_ratio > 0.0 {
            checks.push(format!(
                "tail ratio {:.1} <= {max_tail_ratio:.1}",
                self.tail_ratio
            ));
        }
        if min_ok > 0 {
            checks.push(format!("ok {} >= {min_ok}", self.ok));
        }
        (!checks.is_empty()).then(|| format!("loadgen gate passed ({})", checks.join(", ")))
    }

    /// Encode as the `BENCH_serve.json` artifact schema.
    #[must_use]
    pub fn to_json(&self, cfg: &LoadgenConfig) -> String {
        let endpoint = |e: &EndpointStats| {
            let mut o = Object::new();
            o.u64("count", e.count);
            o.u64("p50", e.p50_us);
            o.u64("p90", e.p90_us);
            o.u64("p99", e.p99_us);
            o.u64("max", e.max_us);
            o.finish()
        };
        let mut o = Object::new();
        o.str("schema", "hecmix-bench-serve-v3");
        o.str("workload", &cfg.workload);
        o.u64("concurrency", cfg.concurrency as u64);
        o.str(
            "mix_plan_frontier_whatif",
            &format!("{}:{}:{}", cfg.mix.plan, cfg.mix.frontier, cfg.mix.whatif),
        );
        if let Some(d) = cfg.duration_s {
            o.f64("duration_s", d);
        }
        o.f64("warmup_s", cfg.warmup_s);
        if let Some(r) = cfg.open_loop_rps {
            o.f64("open_loop_rps", r);
        }
        if let Some(n) = cfg.arm_sweep {
            o.u64("arm_sweep", u64::from(n));
        }
        o.u64("sent", self.sent);
        o.u64("ok", self.ok);
        o.u64("rejected_retries", self.rejected_retries);
        o.u64("errors", self.errors);
        o.f64("wall_s", self.wall_s);
        o.u64("measured", self.measured);
        o.u64("warmup_excluded", self.warmup_excluded);
        o.f64("throughput_rps", self.throughput_rps);
        let mut l = Object::new();
        l.u64("p50", self.p50_us);
        l.u64("p90", self.p90_us);
        l.u64("p99", self.p99_us);
        l.u64("p999", self.p999_us);
        l.u64("max", self.max_us);
        o.raw("latency_us", &l.finish());
        o.f64("tail_ratio", self.tail_ratio);
        let mut by = Object::new();
        by.raw("plan", &endpoint(&self.plan));
        by.raw("frontier", &endpoint(&self.frontier));
        by.raw("whatif", &endpoint(&self.whatif));
        o.raw("endpoints_us", &by.finish());
        let mut f = Object::new();
        f.u64("cold_us", self.frontier_cold_us);
        f.u64("warm_us", self.frontier_warm_us);
        f.f64("speedup", self.cache_speedup);
        o.raw("frontier_compute", &f.finish());
        if let Some(s) = &self.server {
            let mut so = Object::new();
            so.u64("computes", s.computes);
            so.u64("coalesced", s.coalesced);
            so.u64("warmed", s.warmed);
            so.u64("cache_hits", s.cache_hits);
            so.u64("cache_misses", s.cache_misses);
            o.raw("server", &so.finish());
        }
        o.finish()
    }

    /// Human-readable multi-line rendering for the CLI.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "sent {}  ok {}  503-retries {}  errors {}\n",
            self.sent, self.ok, self.rejected_retries, self.errors
        ));
        s.push_str(&format!(
            "wall {:.2} s  measured {} (excluded {} warmup)  throughput {:.1} req/s\n",
            self.wall_s, self.measured, self.warmup_excluded, self.throughput_rps
        ));
        s.push_str(&format!(
            "latency µs  p50 {}  p90 {}  p99 {}  p99.9 {}  max {}  (p99/p50 {:.1}x)\n",
            self.p50_us, self.p90_us, self.p99_us, self.p999_us, self.max_us, self.tail_ratio
        ));
        for (name, e) in [
            ("/plan    ", &self.plan),
            ("/frontier", &self.frontier),
            ("/whatif  ", &self.whatif),
        ] {
            if e.count > 0 {
                s.push_str(&format!(
                    "{name}  n {}  p50 {}  p90 {}  p99 {}  max {}\n",
                    e.count, e.p50_us, e.p90_us, e.p99_us, e.max_us
                ));
            }
        }
        if self.frontier_cold_us > 0 {
            s.push_str(&format!(
                "frontier compute  cold {} µs  warm {} µs  speedup {:.1}x\n",
                self.frontier_cold_us, self.frontier_warm_us, self.cache_speedup
            ));
        }
        if let Some(d) = &self.server {
            s.push_str(&format!(
                "server  computes {}  coalesced {}  warmed {}  cache {}h/{}m\n",
                d.computes, d.coalesced, d.warmed, d.cache_hits, d.cache_misses
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parse_and_deterministic_schedule() {
        let mix = MixRatio::parse("2:2:1").expect("parse");
        assert_eq!(
            mix,
            MixRatio {
                plan: 2,
                frontier: 2,
                whatif: 1
            }
        );
        // Over one period: exactly the declared weights.
        let mut counts = [0u32; 3];
        for t in 0..5 {
            counts[endpoint_for(t, mix).index()] += 1;
        }
        assert_eq!(counts, [2, 2, 1]);
        assert!(MixRatio::parse("0:0:0").is_err());
        assert!(MixRatio::parse("1:2").is_err());
        assert!(MixRatio::parse("a:b:c").is_err());
    }

    #[test]
    fn percentiles_are_exact_on_small_samples() {
        let sorted = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.90), 90);
        assert_eq!(percentile(&sorted, 0.99), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(vec![3, 1, 2]), 2);
    }

    #[test]
    fn aggregate_excludes_warmup_and_splits_endpoints() {
        let mk = |endpoint: usize, start_offset_s: f64, lat_us: u64| Sample {
            endpoint,
            start_offset_s,
            lat_us,
        };
        let outs = vec![WorkerOut {
            ok: 6,
            rejected_retries: 0,
            errors: 0,
            samples: vec![
                // Two cold-start samples inside the 1 s warmup window:
                // excluded from every percentile.
                mk(0, 0.1, 90_000),
                mk(1, 0.5, 80_000),
                // Steady state: two /plan, one /frontier, one /whatif.
                mk(0, 1.5, 100),
                mk(0, 2.0, 200),
                mk(1, 2.5, 300),
                mk(2, 3.0, 400),
            ],
            frontier_cold_us: vec![9000],
            frontier_warm_us: vec![0, 0, 3],
        }];
        let report = aggregate(outs, 6, 4.0, 1.0);
        assert_eq!(report.measured, 4);
        assert_eq!(report.warmup_excluded, 2);
        assert_eq!(report.max_us, 400, "warmup outliers must not leak in");
        assert_eq!(report.plan.count, 2);
        assert_eq!(report.frontier.count, 1);
        assert_eq!(report.whatif.count, 1);
        assert_eq!(report.plan.p50_us, 100);
        assert_eq!(report.frontier.p50_us, 300);
        assert_eq!(report.whatif.max_us, 400);
        // Throughput covers the measured window only: 4 samples / 3 s.
        assert!((report.throughput_rps - 4.0 / 3.0).abs() < 1e-9);
        // Warm median floored at 1 µs.
        assert_eq!(report.frontier_warm_us, 1);
        assert_eq!(report.frontier_cold_us, 9000);
    }

    #[test]
    fn gate_checks_errors_volume_and_tail() {
        let good = LoadReport {
            ok: 100,
            p50_us: 100,
            p99_us: 1000,
            tail_ratio: 10.0,
            ..LoadReport::default()
        };
        assert!(good.gate(50.0, 100).is_ok());
        assert!(good.gate(0.0, 100).is_ok(), "0 disables the tail gate");
        assert!(good.gate(5.0, 100).is_err(), "tail 10x > allowed 5x");
        assert!(good.gate(50.0, 101).is_err(), "too few ok");
        let bad = LoadReport {
            ok: 100,
            errors: 1,
            ..LoadReport::default()
        };
        assert!(bad.gate(0.0, 0).is_err(), "any error fails the gate");
    }

    #[test]
    fn gate_summary_names_only_the_limits_that_were_set() {
        let report = LoadReport {
            ok: 24_721,
            tail_ratio: 2.1,
            ..LoadReport::default()
        };
        assert_eq!(report.gate_summary(0.0, 0), None);
        assert_eq!(
            report.gate_summary(0.0, 1000).as_deref(),
            Some("loadgen gate passed (ok 24721 >= 1000)")
        );
        assert_eq!(
            report.gate_summary(50.0, 0).as_deref(),
            Some("loadgen gate passed (tail ratio 2.1 <= 50.0)")
        );
        assert_eq!(
            report.gate_summary(50.0, 10_000).as_deref(),
            Some("loadgen gate passed (tail ratio 2.1 <= 50.0, ok 24721 >= 10000)")
        );
    }

    #[test]
    fn a_gateway_statz_has_no_server_counters() {
        let replica = json::parse(
            r#"{"computes":7,"coalesced":2,"warmed":1,"cache":{"hits":40,"misses":9}}"#,
        )
        .expect("valid JSON");
        assert_eq!(
            statz_counters(&replica),
            Some(ServerDelta {
                computes: 7,
                coalesced: 2,
                warmed: 1,
                cache_hits: 40,
                cache_misses: 9,
            })
        );
        let gateway = json::parse(
            r#"{"computes":0,"coalesced":0,"warmed":0,"cache":{"hits":0,"misses":0},"fleet":{"replicas":[]}}"#,
        )
        .expect("valid JSON");
        assert_eq!(statz_counters(&gateway), None);
    }

    #[test]
    fn report_json_has_schema_and_counts() {
        let cfg = LoadgenConfig {
            duration_s: Some(3.0),
            warmup_s: 1.0,
            open_loop_rps: Some(500.0),
            ..LoadgenConfig::default()
        };
        let report = LoadReport {
            sent: 10,
            ok: 10,
            measured: 8,
            warmup_excluded: 2,
            frontier_cold_us: 8000,
            frontier_warm_us: 40,
            cache_speedup: 200.0,
            tail_ratio: 3.5,
            plan: EndpointStats {
                count: 4,
                p50_us: 11,
                p90_us: 12,
                p99_us: 13,
                max_us: 14,
            },
            server: Some(ServerDelta {
                computes: 2,
                coalesced: 5,
                warmed: 1,
                cache_hits: 90,
                cache_misses: 3,
            }),
            ..LoadReport::default()
        };
        let j = report.to_json(&cfg);
        let v = json::parse(&j).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("hecmix-bench-serve-v3")
        );
        assert_eq!(v.get("ok").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("measured").and_then(Value::as_u64), Some(8));
        assert_eq!(v.get("tail_ratio").and_then(Value::as_f64), Some(3.5));
        assert_eq!(
            v.get("endpoints_us")
                .and_then(|e| e.get("plan"))
                .and_then(|p| p.get("count"))
                .and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(
            v.get("server")
                .and_then(|s| s.get("coalesced"))
                .and_then(Value::as_u64),
            Some(5)
        );
        assert!(v
            .get("frontier_compute")
            .and_then(|f| f.get("speedup"))
            .and_then(Value::as_f64)
            .is_some());
        assert!(!report.render().is_empty());
    }

    #[test]
    fn retry_503_wait_is_deterministic_bounded_and_capped() {
        // Same (ticket, attempt) → same wait; different tickets spread out.
        assert_eq!(
            retry_503_wait_ms(7, 1, Some(1)),
            retry_503_wait_ms(7, 1, Some(1))
        );
        let spread: std::collections::HashSet<u64> = (0..64)
            .filter_map(|t| retry_503_wait_ms(t, 1, Some(1)))
            .collect();
        assert!(
            spread.len() > 16,
            "jitter must de-synchronize tickets, got {} distinct waits",
            spread.len()
        );
        // Retry-After floors the base but is capped at 100 ms, and every
        // jittered wait stays inside [base/2, 1.5*base).
        for t in 0..200u64 {
            let w = retry_503_wait_ms(t, 3, Some(30)).unwrap();
            assert!((50..150).contains(&w), "wait {w} escaped the jitter band");
        }
        // The attempt budget is finite.
        assert!(retry_503_wait_ms(1, MAX_503_RETRIES, None).is_some());
        assert!(retry_503_wait_ms(1, MAX_503_RETRIES + 1, None).is_none());
    }

    #[test]
    fn retry_503_wait_values_are_pinned() {
        // Captured from loadgen's own backoff before it moved to
        // `router::backoff_ms`: per ticket, the waits for attempts 1–8
        // without a usable hint (none or `Retry-After: 0`) and with one
        // (1, 2 or 30 s, all past the 100 ms cap).
        let pinned: [(u64, [u64; 8], [u64; 8]); 3] = [
            (
                0,
                [3, 7, 25, 43, 66, 94, 139, 124],
                [106, 132, 145, 93, 96, 94, 139, 124],
            ),
            (
                99,
                [4, 9, 17, 44, 63, 139, 139, 59],
                [147, 54, 77, 54, 133, 139, 139, 59],
            ),
            (
                0xDEAD_BEEF,
                [4, 13, 19, 31, 108, 53, 63, 133],
                [97, 128, 79, 61, 138, 53, 63, 133],
            ),
        ];
        for (ticket, plain, hinted) in pinned {
            for (hint, want) in [
                (None, plain),
                (Some(0), plain),
                (Some(1), hinted),
                (Some(2), hinted),
                (Some(30), hinted),
            ] {
                let got: Vec<u64> = (1..=8)
                    .map(|a| retry_503_wait_ms(ticket, a, hint).expect("within budget"))
                    .collect();
                assert_eq!(got, want, "ticket {ticket}, Retry-After {hint:?}");
            }
        }
    }

    #[test]
    fn a_huge_retry_after_saturates_at_the_cap() {
        for attempt in [1, 7, MAX_503_RETRIES] {
            let wait = retry_503_wait_ms(1, attempt, Some(u64::MAX)).expect("within budget");
            assert!(
                (50..150).contains(&wait),
                "wait {wait} escaped the capped band"
            );
        }
    }
}
