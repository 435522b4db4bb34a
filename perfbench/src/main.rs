//! `perfbench`: one seeded benchmark of the hecmix planning daemon, its
//! gateway and its live scheduler, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm|cold|gateway|submit --seed N --seconds S --trace 0|1
//! ```
//!
//! The run boots the daemons in-process, drives them over loopback from at
//! most two client threads, checks the answers, prints every metric by
//! name and unit, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`. See `README.md`.

mod check;
mod gen;
mod ledger;
mod load;
mod report;
mod rig;
mod stats;
mod trace;

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use hecmix_obs::json::Value;
use hecmix_serve::router::splitmix64;
use hecmix_serve::{ModelStore, SchedParams};

use crate::check::Oracle;
use crate::gen::{Kind, PlanReq, SubmitReq};
use crate::load::{Kept, Obs, Phase, Slicing};
use crate::report::{ratio, Endpoint, Metrics};
use crate::rig::{Rig, REPLICAS, VNODES};
use crate::trace::{durations, Tracer};

/// Metrics of an untraced run, as registered in `BENCHMARK.json`.
const END_TO_END: [&str; 3] = ["setup_s", "throughput_rps", "latency_p50_us"];

/// Metrics of a traced run, as registered in `BENCHMARK.json`.
const PER_LAYER: [&str; 51] = [
    "http.parse_ns",
    "http.encode_ns",
    "json.parse_ns",
    "api.route_us",
    "api.format_us",
    "api.compute.plan_p50_us",
    "api.compute.plan_tail_us",
    "api.compute.tailplan_p50_us",
    "api.compute.tailplan_tail_us",
    "api.compute.frontier_p50_us",
    "api.compute.frontier_tail_us",
    "api.compute.resilient_p50_us",
    "api.compute.resilient_tail_us",
    "api.compute.whatif_p50_us",
    "api.compute.whatif_tail_us",
    "cache.get_ns",
    "cache.insert_ns",
    "cache.hit_ratio",
    "cache.evictions",
    "singleflight.coalesced",
    "server.wait_us",
    "server.rejected",
    "rate_table.build_us",
    "rate_table.frontier_us",
    "rate_table.scanned",
    "rate_table.kept_ratio",
    "resilience.frontier_us",
    "budget.ladder_us",
    "dispatch.tail_us",
    "des.runs",
    "dispatch.screened_ratio",
    "des.requests",
    "compute.rate_table_share",
    "compute.des_share",
    "router.owner_ns",
    "fleet.forward_p50_us",
    "fleet.forward_tail_us",
    "fleet.retries",
    "fleet.hedges",
    "fleet.replica_share_min",
    "upstream.connect_us",
    "upstream.fresh_us",
    "upstream.fresh_read_us",
    "upstream.keepalive_us",
    "submit.place_us",
    "sched.admitted_ratio",
    "sched.outstanding_max",
    "setup.models_s",
    "setup.boot_s",
    "loadgen.late_p99_us",
    "trace.overhead_ratio",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Client threads (closed loop) or connections (open loop).
const CLIENTS: usize = 2;
/// Warmup after the hot set is primed (or from the start, for `cold` and
/// `submit`).
const WARMUP: Duration = Duration::from_millis(500);
/// `submit` arrival rate, requests per second (jobs and `/jobz` reads).
const SUBMIT_RPS: f64 = 1000.0;
/// Share of the live pool's capacity the `submit` jobs ask for.
const SUBMIT_LOAD: f64 = 0.5;
/// One in this many plan answers is kept for the answer check (`warm`
/// answers far more requests than the others, from 30 distinct bodies).
const CHECK_EVERY: u64 = 32;
/// See [`CHECK_EVERY`].
const CHECK_EVERY_WARM: u64 = 256;
/// Gateway answers also compared with a replica's direct answer.
const GATEWAY_DIRECT: usize = 48;
/// Time the traced run's layer pass spends on plan requests (at least).
const LAYER_BUDGET: Duration = Duration::from_millis(1500);
/// Plan samples per kind the layer pass collects before it may stop.
const LAYER_MIN_PER_KIND: usize = 24;
/// Slices of the measured window; a traced run traces the odd ones, so
/// drift over the window cancels out of the tracing overhead.
const SLICES: usize = 4;
/// One client request in this many has its spans written out.
const CLIENT_SPANS_EVERY: u64 = 64;
/// Forwards the traced run's fleet probe makes.
const FORWARD_ROUNDS: usize = 120;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Warm,
    Cold,
    Gateway,
    Submit,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "warm" => Ok(Self::Warm),
            "cold" => Ok(Self::Cold),
            "gateway" => Ok(Self::Gateway),
            "submit" => Ok(Self::Submit),
            _ => Err(format!(
                "unknown workload `{s}` (warm, cold, gateway, submit)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Warm => "warm",
            Self::Cold => "cold",
            Self::Gateway => "gateway",
            Self::Submit => "submit",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds must be in 1..=60, got {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Server-side counters summed over the daemons, scraped from `/statz`
/// (and `/jobz` on `submit`).
#[derive(Debug, Default, Clone)]
struct Counters {
    computes: f64,
    coalesced: f64,
    rejected: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    retries: f64,
    hedges: f64,
    forwards: Vec<f64>,
    upstream_p50_us: f64,
    upstream_p99_us: f64,
    submitted: f64,
    admitted: f64,
    sched_misses: f64,
}

impl Counters {
    fn scrape(rig: &Rig, jobz: bool) -> Result<Self, String> {
        let mut c = Self::default();
        for h in &rig.replicas {
            let s = rig::get_json(h.addr(), "/statz")?;
            c.computes += rig::num(&s, "computes");
            c.coalesced += rig::num(&s, "coalesced");
            c.rejected += rig::num(&s, "rejected");
            c.hits += rig::num(&s, "cache/hits");
            c.misses += rig::num(&s, "cache/misses");
            c.evictions += rig::num(&s, "cache/evictions");
            if jobz {
                let j = rig::get_json(h.addr(), "/jobz")?;
                c.submitted += rig::num(&j, "submitted");
                c.admitted += rig::num(&j, "admitted");
                c.sched_misses += rig::num(&j, "misses");
            }
        }
        if let Some((g, _)) = &rig.gateway {
            let s = rig::get_json(g.addr(), "/statz")?;
            c.rejected += rig::num(&s, "rejected");
            c.retries = rig::num(&s, "fleet/retries");
            c.hedges = rig::num(&s, "fleet/hedges");
            c.upstream_p50_us = rig::num(&s, "fleet/upstream_us/p50");
            c.upstream_p99_us = rig::num(&s, "fleet/upstream_us/p99");
            if let Some(members) = s
                .get("fleet")
                .and_then(|f| f.get("members"))
                .and_then(Value::as_array)
            {
                c.forwards = members.iter().map(|m| rig::num(m, "forwards")).collect();
            }
        }
        Ok(c)
    }

    fn delta(&self, before: &Self) -> Self {
        Self {
            computes: self.computes - before.computes,
            coalesced: self.coalesced - before.coalesced,
            rejected: self.rejected - before.rejected,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            retries: self.retries - before.retries,
            hedges: self.hedges - before.hedges,
            forwards: self
                .forwards
                .iter()
                .zip(before.forwards.iter().chain(std::iter::repeat(&0.0)))
                .map(|(a, b)| a - b)
                .collect(),
            upstream_p50_us: self.upstream_p50_us,
            upstream_p99_us: self.upstream_p99_us,
            submitted: self.submitted - before.submitted,
            admitted: self.admitted - before.admitted,
            sched_misses: self.sched_misses - before.sched_misses,
        }
    }
}

/// Everything one workload's traffic needs: the request for each ticket,
/// and how to check its answer.
struct Traffic<'a> {
    workload: Workload,
    seed: u64,
    store: &'a ModelStore,
    hot: Vec<PlanReq>,
    hot_wire: Vec<Vec<u8>>,
    peak: Vec<(String, f64)>,
    mean_job_s: f64,
}

impl Traffic<'_> {
    fn request(&self, ticket: u64) -> (u8, Vec<u8>) {
        match self.workload {
            Workload::Warm | Workload::Gateway => {
                let i = gen::hot_pick(self.seed, ticket, self.hot.len());
                (self.hot[i].kind.index() as u8, self.hot_wire[i].clone())
            }
            Workload::Cold => {
                let r = gen::cold_req(self.store, self.seed, ticket);
                (r.kind.index() as u8, r.wire())
            }
            Workload::Submit => {
                let r = self.submit(ticket);
                let class = match r {
                    SubmitReq::Job { .. } => Endpoint::Submit,
                    SubmitReq::Jobz => Endpoint::Jobz,
                };
                (class as u8, r.wire())
            }
        }
    }

    fn plan(&self, ticket: u64) -> PlanReq {
        match self.workload {
            Workload::Cold => gen::cold_req(self.store, self.seed, ticket),
            _ => self.hot[gen::hot_pick(self.seed, ticket, self.hot.len())].clone(),
        }
    }

    fn submit(&self, ticket: u64) -> SubmitReq {
        gen::submit_req(&self.peak, self.mean_job_s, self.seed, ticket)
    }

    fn keep(&self, ticket: u64) -> bool {
        let every = if self.workload == Workload::Warm {
            CHECK_EVERY_WARM
        } else {
            CHECK_EVERY
        };
        splitmix64(self.seed ^ ticket ^ 0x4b45_4550).is_multiple_of(every)
    }
}

/// Fastest single-node rate of every class on the live scheduler's pool,
/// and the mean job duration at that rate that asks for `SUBMIT_LOAD` of
/// the pool at `SUBMIT_RPS`.
fn submit_sizing(store: &ModelStore) -> Result<(Vec<(String, f64)>, f64), String> {
    let params = SchedParams::default();
    let classes = store
        .names()
        .into_iter()
        .filter_map(|n| Some((n.clone(), (*store.get(&n)?.models).clone())))
        .collect();
    let pool = hecmix_sched::Pool::new(classes, params.counts).map_err(|e| format!("pool: {e}"))?;
    let peak = pool
        .classes
        .iter()
        .map(|c| (c.name.clone(), c.peak_rate()))
        .collect();
    let jobs_per_s = SUBMIT_RPS * (1.0 - 1.0 / gen::JOBZ_EVERY as f64);
    Ok((peak, SUBMIT_LOAD * f64::from(pool.nodes()) / jobs_per_s))
}

fn print_phase(name: &str, p: &Phase) {
    println!(
        "phase {name:<9} sent {:>7} ok {:>7} failed {:>3} ({:.2} s)",
        p.sent, p.ok, p.failed, p.wall_s
    );
}

/// One untraced slice of the measured window.
struct SliceStat {
    ok: usize,
    wall_s: f64,
    p50_us: Option<f64>,
    p99_us: Option<f64>,
}

/// Answers, median and p99 latency of each untraced slice of `window`.
fn per_slice(window: &Phase, is_traced: &dyn Fn(u16) -> bool) -> Vec<SliceStat> {
    (0..window.slice_s.len())
        .filter(|&k| !is_traced(k as u16))
        .map(|k| {
            let obs: Vec<Obs> = window
                .obs()
                .filter(|o| usize::from(o.slice) == k)
                .copied()
                .collect();
            let mut lat = lat_us(&obs, None);
            stats::sort(&mut lat);
            SliceStat {
                ok: obs.iter().filter(|o| o.ok).count(),
                wall_s: window.slice_s[k],
                p50_us: stats::median(&lat),
                p99_us: stats::percentile(&lat, 0.99),
            }
        })
        .collect()
}

fn lat_us(obs: &[Obs], class: Option<&[Endpoint]>) -> Vec<f64> {
    obs.iter()
        .filter(|o| class.is_none_or(|c| c.iter().any(|e| *e as u8 == o.class)))
        .map(|o| f64::from(o.lat_ns) / 1e3)
        .collect()
}

fn median_of(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    stats::sort(&mut v);
    stats::median(&v)
}

/// Print a validity guard and record whether it held.
fn guard(guards: &mut Vec<bool>, name: String, ok: bool) {
    println!("guard {} {name}", if ok { "PASS" } else { "FAIL" });
    guards.push(ok);
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (replicas, gateway) = match w {
        Workload::Gateway => (REPLICAS, true),
        _ => (1, false),
    };
    println!(
        "threads: {replicas} replica(s) x (io {} + compute {}){}; {CLIENTS} client {}; available_parallelism {cores}",
        rig::REPLICA_IO,
        rig::REPLICA_WORKERS,
        if gateway {
            format!(
                "; gateway io {} + forward {}",
                rig::GATEWAY_IO,
                rig::GATEWAY_WORKERS
            )
        } else {
            String::new()
        },
        if w == Workload::Submit {
            format!("connections, open loop at {SUBMIT_RPS} req/s")
        } else {
            "threads, closed loop".to_owned()
        }
    );

    // ---- set-up, several times; the last one stays up ----
    let mut setup = Vec::new();
    let mut models = Vec::new();
    let mut boot = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        let r = Rig::boot(replicas, gateway)?;
        setup.push(r.setup_s);
        models.push(r.models_s);
        boot.push(r.boot_s);
        if i + 1 == SETUPS {
            rig = Some(r);
        } else {
            r.stop();
        }
    }
    let rig = rig.expect("at least one set-up");
    let target = rig.target();

    let store = rig::build_store();
    let (peak, mean_job_s) = submit_sizing(&store)?;
    let hot = gen::hot_set(&store, args.seed, REPLICAS, VNODES);
    let traffic = Traffic {
        workload: w,
        seed: args.seed,
        store: &store,
        hot_wire: hot.iter().map(PlanReq::wire).collect(),
        hot,
        peak,
        mean_job_s,
    };
    let gen = |t: u64| traffic.request(t);
    let keep = |t: u64| traffic.keep(t);
    let mut oracle = Oracle::new(&store);
    let mut wrong: Vec<String> = Vec::new();
    let tickets = AtomicU64::new(0);
    let mut next_open = 0u64;

    // ---- warmup ----
    let mut warmup = Phase::default();
    if matches!(w, Workload::Warm | Workload::Gateway) {
        // Prime: every hot key once, in order, so the window only hits.
        let t0 = Instant::now();
        let mut conn = rig::connect(target).map_err(|e| format!("connect: {e}"))?;
        for req in &traffic.hot {
            warmup.sent += 1;
            match rig::exchange(&mut conn, &req.wire()) {
                Ok((status, body)) => {
                    if status == 200 {
                        warmup.ok += 1;
                    } else {
                        warmup.failed += 1;
                    }
                    if let Err(e) = oracle.check(req, status, &body) {
                        wrong.push(e);
                    }
                }
                Err(e) => {
                    warmup.failed += 1;
                    wrong.push(format!("prime: {e}"));
                }
            }
        }
        warmup.wall_s = t0.elapsed().as_secs_f64();
    }
    let warm_cut = Slicing::single(WARMUP);
    let warm_phase = if w == Workload::Submit {
        let (p, next) = load::open(target, CLIENTS, SUBMIT_RPS, warm_cut, 0, &gen);
        next_open = next;
        p
    } else {
        load::closed(target, CLIENTS, warm_cut, &tickets, &gen, &keep)
    };
    warmup.sent += warm_phase.sent;
    warmup.ok += warm_phase.ok;
    warmup.failed += warm_phase.failed;
    warmup.wall_s += warm_phase.wall_s;
    warmup.kept = warm_phase.kept;

    // ---- measured window ----
    let jobz = w == Workload::Submit;
    let before = Counters::scrape(&rig, jobz)?;
    let epoch = Instant::now();
    // A traced run traces every other slice, so drift over the window
    // cancels out of the tracing overhead.
    let cut = Slicing {
        slices: SLICES,
        slice: Duration::from_secs_f64(args.seconds / SLICES as f64),
        trace_odd: args.trace.then_some(epoch),
    };
    let window = if w == Workload::Submit {
        load::open(target, CLIENTS, SUBMIT_RPS, cut, next_open, &gen).0
    } else {
        load::closed(target, CLIENTS, cut, &tickets, &gen, &keep)
    };
    let after = Counters::scrape(&rig, jobz)?;
    // Read before the answer check, whose in-process computes are the
    // harness's, not the daemons'.
    let peak_rss = rig::peak_rss_mib();
    let d = after.delta(&before);
    let is_traced = |slice: u16| args.trace && slice % 2 == 1;
    let plain: Vec<Obs> = window
        .obs()
        .filter(|o| !is_traced(o.slice))
        .copied()
        .collect();
    let traced: Vec<Obs> = window
        .obs()
        .filter(|o| is_traced(o.slice))
        .copied()
        .collect();
    let plain_s: f64 = (0..SLICES)
        .filter(|&k| !is_traced(k as u16))
        .map(|k| window.slice_s[k])
        .sum();

    print_phase("warmup", &warmup);
    print_phase("measured", &window);
    let sliced = per_slice(&window, &is_traced);
    for (k, s) in sliced.iter().enumerate() {
        let us = |v: Option<f64>| v.map_or("n/a".to_owned(), |x| format!("{x:.1}"));
        println!(
            "  untraced slice {k}: {} ok in {:.3} s, p50 {} us, p99 {} us",
            s.ok,
            s.wall_s,
            us(s.p50_us),
            us(s.p99_us)
        );
    }

    // ---- answer check ----
    let mut measured_wrong = 0u64;
    let mut outstanding_max = 0.0f64;
    let mut checked = 0usize;
    let kept_all: Vec<(bool, &Kept)> = warmup
        .kept
        .iter()
        .map(|k| (false, k))
        .chain(window.kept.iter().map(|k| (true, k)))
        .collect();
    for (measured, (ticket, status, body)) in &kept_all {
        let outcome = if w == Workload::Submit {
            match traffic.submit(*ticket) {
                SubmitReq::Job { .. } => check::check_submit(*status, body),
                SubmitReq::Jobz => {
                    if let Some(o) = load::field_u64(body, "outstanding") {
                        outstanding_max = outstanding_max.max(o as f64);
                    }
                    if *status == 200 {
                        Ok(())
                    } else {
                        Err(format!("/jobz answered {status}"))
                    }
                }
            }
        } else {
            oracle.check(&traffic.plan(*ticket), *status, body)
        };
        checked += 1;
        if let Err(e) = outcome {
            if *measured {
                measured_wrong += 1;
            }
            wrong.push(e);
        }
    }
    if w == Workload::Gateway {
        // The gateway must answer exactly what a replica answers.
        let mut direct = 0usize;
        for (_, (ticket, status, body)) in kept_all.iter().filter(|k| k.0) {
            if direct == GATEWAY_DIRECT {
                break;
            }
            direct += 1;
            let req = traffic.plan(*ticket);
            let addr = rig.replicas
                [hecmix_serve::router::Ring::new(REPLICAS, VNODES).owner(req.key(&store))]
            .addr();
            let mut conn = rig::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let (rs, rb) = rig::exchange(&mut conn, &req.wire()).map_err(|e| e.to_string())?;
            let same = rs == *status && check::normalize(&rb)? == check::normalize(body)?;
            if !same {
                measured_wrong += 1;
                wrong.push(format!("gateway and replica disagree on {}", req.body));
            }
        }
        println!("check: {direct} gateway answers compared with the owning replica's");
    }
    println!(
        "check: {checked} sampled answers checked, {} wrong",
        wrong.len()
    );
    for e in wrong.iter().take(5) {
        println!("  wrong: {e}");
    }

    // ---- end-to-end ----
    let attempted = window.sent;
    let failed = window.failed + measured_wrong;
    let obs_all: Vec<Obs> = window.obs().copied().collect();
    let mut e2e = Metrics::default();
    println!(
        "end-to-end ({}):",
        if args.trace {
            "untraced slices"
        } else {
            "untraced"
        }
    );
    e2e.put(
        "setup_s",
        stats::small_median(&setup),
        "s",
        &format!("median of {SETUPS} set-ups"),
    );
    let plain_ok = plain.iter().filter(|o| o.ok).count();
    e2e.put(
        "throughput_rps",
        plain_ok as f64 / plain_s,
        "1/s",
        &format!("{plain_ok} ok in {plain_s:.2} s"),
    );
    let lat = lat_us(&plain, None);
    e2e.put_median("latency_p50_us", &lat, 1.0, "us");
    e2e.put_tail("latency_p99_us", &lat, 1.0, "us");
    e2e.put(
        "failed_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
        &format!("{failed} / {attempted} attempted (non-200, transport, wrong)"),
    );
    e2e.put(
        "peak_rss_mib",
        peak_rss,
        "MiB",
        "VmHWM at the end of the window",
    );
    let endpoint_p50 = |m: &mut Metrics, name: &str, classes: &[Endpoint]| {
        let v = lat_us(&plain, Some(classes));
        if v.is_empty() {
            Metrics::absent(name, "us", "(no such requests in this workload)");
        } else {
            m.put_median(name, &v, 1.0, "us");
        }
    };
    endpoint_p50(&mut e2e, "plan_p50_us", &[Endpoint::Plan]);
    endpoint_p50(&mut e2e, "tailplan_p50_us", &[Endpoint::TailPlan]);
    endpoint_p50(
        &mut e2e,
        "frontier_p50_us",
        &[Endpoint::Frontier, Endpoint::Resilient],
    );
    endpoint_p50(&mut e2e, "whatif_p50_us", &[Endpoint::Whatif]);
    endpoint_p50(&mut e2e, "submit_p50_us", &[Endpoint::Submit]);
    if w == Workload::Submit {
        e2e.put(
            "miss_ratio",
            ratio(d.sched_misses, d.admitted),
            "ratio",
            &format!("{} missed / {} admitted", d.sched_misses, d.admitted),
        );
    } else {
        Metrics::absent("miss_ratio", "ratio", "(no jobs in this workload)");
    }
    println!(
        "server: computes {} coalesced {} rejected {} cache hits {} misses {} evictions {} | fleet retries {} hedges {}",
        d.computes, d.coalesced, d.rejected, d.hits, d.misses, d.evictions, d.retries, d.hedges
    );

    // ---- validity guards ----
    let mut guards = Vec::new();
    match w {
        Workload::Warm => guard(
            &mut guards,
            format!("zero computes in the measured window: {}", d.computes),
            d.computes == 0.0,
        ),
        // A hedged or retried forward can land on a replica that does not
        // own the key, which then computes it once: that is the fleet at
        // work, not a cold key in the workload.
        Workload::Gateway => guard(
            &mut guards,
            format!(
                "zero computes in the measured window beyond hedged/retried forwards: {} computes, {} hedges, {} retries",
                d.computes, d.hedges, d.retries
            ),
            d.computes <= d.hedges + d.retries,
        ),
        Workload::Cold => {
            let hit = obs_all.iter().filter(|o| o.cached).count();
            guard(
                &mut guards,
                format!(
                    "zero plan-cache hits: {} answers cached, statz hits {}",
                    hit, d.hits
                ),
                hit == 0 && d.hits == 0.0,
            );
        }
        Workload::Submit => {}
    }
    if w == Workload::Gateway {
        guard(
            &mut guards,
            format!("every replica receives forwards: {:?}", d.forwards),
            d.forwards.len() == REPLICAS && d.forwards.iter().all(|&f| f > 0.0),
        );
    }
    let late: Vec<f64> = obs_all.iter().map(|o| f64::from(o.late_ns) / 1e3).collect();
    let mut late_sorted = late.clone();
    stats::sort(&mut late_sorted);
    let late_tail = stats::tail(&late_sorted, 0.99).map_or(0.0, |t| t.1);
    if w == Workload::Submit {
        let gap_us = CLIENTS as f64 / SUBMIT_RPS * 1e6;
        guard(
            &mut guards,
            format!("generator lateness p99 {late_tail:.0} us below half the per-connection gap {gap_us:.0} us"),
            late_tail < gap_us / 2.0,
        );
        let cap = SchedParams::default().max_outstanding as f64;
        guard(
            &mut guards,
            format!("outstanding jobs peak {outstanding_max} below the admission cap {cap}"),
            outstanding_max < cap,
        );
    }
    guard(
        &mut guards,
        format!("no failures in warmup: {}", warmup.failed),
        warmup.failed == 0,
    );
    // Guards say whether the workload measured what it is meant to; only
    // failed requests and wrong answers make a run incorrect.
    let guards_held = guards.iter().all(|&ok| ok);
    println!(
        "guards: {}",
        if guards_held {
            "all held"
        } else {
            "NOT ALL HELD"
        }
    );
    let correct = wrong.is_empty() && failed == 0;

    if !args.trace {
        rig.stop();
        let metrics = e2e
            .select(&END_TO_END)
            .map_err(|m| format!("end-to-end metrics missing: {m:?}"))?;
        return Ok(report::result_json(correct, attempted, failed, &metrics));
    }

    // ---- per-layer ledger (traced run) ----
    let mut t = Tracer::new(epoch, 0);
    let mut layers = ledger::Layers::default();
    let plan_inputs: Vec<PlanReq> = (0..4096u64).map(|i| traffic.plan(i)).collect();
    let min_per_kind = |layers: &ledger::Layers| {
        Kind::ALL
            .iter()
            .all(|k| layers.kinds.iter().filter(|x| *x == k).count() >= LAYER_MIN_PER_KIND)
    };
    let t_layers = Instant::now();
    layers.plans(
        &mut t,
        &plan_inputs,
        w != Workload::Cold,
        w != Workload::Submit,
        LAYER_BUDGET,
        &min_per_kind,
    );
    let jobs: Vec<SubmitReq> = (0..512u64).map(|i| traffic.submit(i)).collect();
    layers.submits(&mut t, &jobs, w == Workload::Submit, 1 << 20);
    let replica_addrs: Vec<SocketAddr> = rig.replicas.iter().map(|h| h.addr()).collect();
    let probe = ledger::forwards(
        &mut t,
        &replica_addrs,
        &store,
        &traffic.hot,
        FORWARD_ROUNDS,
        1 << 21,
    )?;
    println!("layer pass: {:.2} s", t_layers.elapsed().as_secs_f64());
    let spans = t.spans;

    let mut pl = Metrics::default();
    println!("per-layer ledger:");
    let ns = |name: &str| durations(&spans, name);
    let us_scale = 1e-3;
    pl.put_median("http.parse_ns", &ns("http.parse"), 1.0, "ns");
    pl.put_median("http.encode_ns", &ns("http.encode"), 1.0, "ns");
    pl.put_median("json.parse_ns", &ns("json.parse"), 1.0, "ns");
    pl.put_median("api.route_us", &ns("api.route"), us_scale, "us");
    pl.put_median("api.format_us", &ns("api.format"), us_scale, "us");
    for kind in Kind::ALL {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "api.compute" && layers.kinds.get(s.rid as usize) == Some(&kind))
            .map(|s| s.dur_ns() as f64)
            .collect();
        pl.put_median(
            &format!("api.compute.{}_p50_us", kind.name()),
            &v,
            us_scale,
            "us",
        );
        pl.put_tail(
            &format!("api.compute.{}_tail_us", kind.name()),
            &v,
            us_scale,
            "us",
        );
    }
    let per_call = |name: &str| layers.per_call_ns.get(name).cloned().unwrap_or_default();
    pl.put_median("cache.get_ns", &per_call("cache.get"), 1.0, "ns");
    pl.put_median("cache.insert_ns", &ns("cache.insert"), 1.0, "ns");
    pl.put(
        "cache.hit_ratio",
        ratio(d.hits, d.hits + d.misses),
        "ratio",
        &format!("{} hits / {} lookups (statz)", d.hits, d.hits + d.misses),
    );
    pl.put("cache.evictions", d.evictions, "count", "statz");
    pl.put("singleflight.coalesced", d.coalesced, "count", "statz");
    // Client latency minus the server-side work the answer reports: on
    // `cold` the misses' compute, elsewhere the hits' lookup; `/submit`
    // answers carry none, so the placement's in-process median stands in.
    let wait: Vec<f64> = if w == Workload::Submit {
        let place_us = median_of(&ns("submit.place")).unwrap_or(0.0) / 1e3;
        obs_all
            .iter()
            .filter(|o| o.class == Endpoint::Submit as u8)
            .map(|o| f64::from(o.lat_ns) / 1e3 - place_us)
            .collect()
    } else {
        obs_all
            .iter()
            .filter(|o| w != Workload::Cold || !o.cached)
            .filter_map(|o| Some(f64::from(o.lat_ns) / 1e3 - f64::from(o.compute_us()?)))
            .collect()
    };
    pl.put_median("server.wait_us", &wait, 1.0, "us");
    pl.put("server.rejected", d.rejected, "count", "statz");
    pl.put_median(
        "rate_table.build_us",
        &ns("rate_table.build"),
        us_scale,
        "us",
    );
    pl.put_median(
        "rate_table.frontier_us",
        &ns("rate_table.frontier"),
        us_scale,
        "us",
    );
    pl.put(
        "rate_table.scanned",
        layers.scanned as f64,
        "count",
        "SweepEnd points",
    );
    pl.put(
        "rate_table.kept_ratio",
        ratio(layers.scanned as f64, layers.space_points as f64),
        "ratio",
        &format!(
            "{} scanned / {} in the unpruned spaces",
            layers.scanned, layers.space_points
        ),
    );
    pl.put_median(
        "resilience.frontier_us",
        &ns("resilience.frontier"),
        us_scale,
        "us",
    );
    pl.put_median("budget.ladder_us", &ns("budget.ladder"), us_scale, "us");
    pl.put_median("dispatch.tail_us", &ns("dispatch.tail"), us_scale, "us");
    pl.put(
        "des.runs",
        layers.des_runs as f64,
        "count",
        "TailPlan events",
    );
    pl.put(
        "dispatch.screened_ratio",
        ratio(layers.screened as f64, layers.candidates as f64),
        "ratio",
        &format!(
            "{} screened / {} candidates",
            layers.screened, layers.candidates
        ),
    );
    pl.put(
        "des.requests",
        layers.des_requests as f64,
        "count",
        "DesRun events",
    );
    let sum = |name: &str| ns(name).iter().sum::<f64>();
    let model = sum("model");
    let fold = sum("rate_table.build") + sum("rate_table.frontier");
    pl.put(
        "compute.rate_table_share",
        ratio(fold, model),
        "ratio",
        &format!(
            "{:.1} ms rate table / {:.1} ms model time",
            fold / 1e6,
            model / 1e6
        ),
    );
    pl.put(
        "compute.des_share",
        ratio(sum("dispatch.tail"), model),
        "ratio",
        &format!(
            "{:.1} ms DES / {:.1} ms model time",
            sum("dispatch.tail") / 1e6,
            model / 1e6
        ),
    );
    pl.put_median("router.owner_ns", &per_call("router.owner"), 1.0, "ns");
    pl.put_median("fleet.forward_p50_us", &ns("fleet.forward"), us_scale, "us");
    pl.put_tail(
        "fleet.forward_tail_us",
        &ns("fleet.forward"),
        us_scale,
        "us",
    );
    let (retries, hedges, share_min, upstream) = if gateway {
        let total: f64 = d.forwards.iter().sum();
        let min = d.forwards.iter().copied().fold(f64::INFINITY, f64::min);
        (
            d.retries,
            d.hedges,
            ratio(min, total),
            (d.upstream_p50_us, d.upstream_p99_us, "gateway /statz"),
        )
    } else {
        let s = hecmix_obs::json::parse(&probe.statz_object()).map_err(|e| e.to_string())?;
        (
            rig::num(&s, "retries"),
            rig::num(&s, "hedges"),
            1.0,
            (
                rig::num(&s, "upstream_us/p50"),
                rig::num(&s, "upstream_us/p99"),
                "probe fleet /statz",
            ),
        )
    };
    pl.put("fleet.retries", retries, "count", "");
    pl.put("fleet.hedges", hedges, "count", "");
    pl.put(
        "fleet.replica_share_min",
        share_min,
        "ratio",
        &format!("smallest replica's share of forwards {:?}", d.forwards),
    );
    println!(
        "  fleet.upstream_p50_us / p99_us   {:.1} / {:.1} us ({}, histogram buckets; not registered)",
        upstream.0, upstream.1, upstream.2
    );
    pl.put_median(
        "upstream.connect_us",
        &ns("upstream.connect"),
        us_scale,
        "us",
    );
    pl.put_median("upstream.fresh_us", &ns("upstream.fresh"), us_scale, "us");
    let fresh_reads: Vec<f64> = {
        let fresh_ids: std::collections::HashSet<u32> = spans
            .iter()
            .filter(|s| s.name == "upstream.fresh")
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| {
                s.name == "upstream.read" && s.parent.is_some_and(|p| fresh_ids.contains(&p))
            })
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    pl.put_median("upstream.fresh_read_us", &fresh_reads, us_scale, "us");
    pl.put_median(
        "upstream.keepalive_us",
        &ns("upstream.keepalive"),
        us_scale,
        "us",
    );
    pl.put_median("submit.place_us", &ns("submit.place"), us_scale, "us");
    pl.put(
        "sched.admitted_ratio",
        ratio(d.admitted, d.submitted),
        "ratio",
        &format!("{} admitted / {} submitted (jobz)", d.admitted, d.submitted),
    );
    pl.put(
        "sched.outstanding_max",
        outstanding_max,
        "count",
        "max over /jobz reads",
    );
    pl.put(
        "setup.models_s",
        stats::small_median(&models),
        "s",
        &format!("median of {SETUPS}"),
    );
    pl.put(
        "setup.boot_s",
        stats::small_median(&boot),
        "s",
        &format!("median of {SETUPS}"),
    );
    pl.put(
        "loadgen.late_p99_us",
        late_tail,
        "us",
        if w == Workload::Submit {
            "open loop: actual minus scheduled send"
        } else {
            "closed loop: client gap between answer and next send"
        },
    );
    let untraced_p50 = median_of(&lat_us(&plain, None)).unwrap_or(f64::NAN);
    let traced_p50 = median_of(&lat_us(&traced, None)).unwrap_or(f64::NAN);
    pl.put(
        "trace.overhead_ratio",
        traced_p50 / untraced_p50,
        "ratio",
        &format!("traced {traced_p50:.1} us / untraced {untraced_p50:.1} us latency p50"),
    );
    print_split(&pl, &e2e, w);

    // Every client request of the traced slices carried its spans; one
    // request in CLIENT_SPANS_EVERY goes to the file.
    let mut all_spans = spans;
    all_spans.extend(
        window
            .spans
            .into_iter()
            .filter(|s| s.rid % CLIENT_SPANS_EVERY == 0),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    trace::write_jsonl(&all_spans, &path).map_err(|e| format!("write spans: {e}"))?;
    println!("spans: {} written to {}", all_spans.len(), path.display());
    rig.stop();
    let metrics = pl
        .select(&PER_LAYER)
        .map_err(|m| format!("per-layer metrics missing: {m:?}"))?;
    Ok(report::result_json(correct, attempted, failed, &metrics))
}

/// Where the client's p50 goes, in the layers measured from outside.
fn print_split(pl: &Metrics, e2e: &Metrics, w: Workload) {
    let g = |m: &Metrics, n: &str| m.get(n).unwrap_or(f64::NAN);
    println!(
        "split (p50): client {:.1} us | {} fleet.forward {:.1} us = fresh upstream exchange {:.1} us (connect {:.1} + read {:.1}) vs keep-alive {:.1} us | replica api.route {:.2} us, api.format {:.2} us, http parse {:.0} ns, encode {:.0} ns",
        g(e2e, "latency_p50_us"),
        if w == Workload::Gateway { "gateway hop:" } else { "probe hop:" },
        g(pl, "fleet.forward_p50_us"),
        g(pl, "upstream.fresh_us"),
        g(pl, "upstream.connect_us"),
        g(pl, "upstream.fresh_read_us"),
        g(pl, "upstream.keepalive_us"),
        g(pl, "api.route_us"),
        g(pl, "api.format_us"),
        g(pl, "http.parse_ns"),
        g(pl, "http.encode_ns"),
    );
}
