//! End-to-end tests of the planning daemon over real sockets: every
//! endpoint, the plan-cache speedup claim, reload invalidation, and an
//! in-process closed-loop load run with zero dropped responses.
//!
//! One daemon instance serves the whole file (building it characterizes a
//! workload, which takes real time); tests share it via a `OnceLock`.

use std::io::{Read as _, Write as _};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_queueing::MD1;
use hecmix_serve::http;
use hecmix_serve::loadgen::{self, LoadgenConfig, MixRatio};
use hecmix_serve::{
    start, AppState, ModelStore, OnlineSched, SchedParams, ServeConfig, ServerHandle,
};

fn build_store() -> ModelStore {
    static MODELS: OnceLock<Vec<hecmix_core::profile::WorkloadModel>> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        let lab = Lab::new();
        let ep = hecmix_workloads::workload_by_name("ep").expect("ep registered");
        lab.models(ep.as_ref()).to_vec()
    });
    let mut store = ModelStore::new();
    store.insert("ep", models.clone());
    store
}

struct Daemon {
    handle: ServerHandle,
    state: Arc<AppState>,
}

fn daemon() -> &'static Daemon {
    static DAEMON: OnceLock<Daemon> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let state = Arc::new(AppState::new(build_store(), 4, 256));
        state.set_reload(Arc::new(|| Ok(build_store())));
        let params = SchedParams {
            alpha: 0.5,
            max_outstanding: 64,
            counts: vec![2, 2],
        };
        let sched = OnlineSched::from_store(&build_store(), &params).expect("sched pool");
        state.set_sched(Arc::new(sched));
        let config = ServeConfig {
            workers: 4,
            queue_capacity: 32,
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        };
        let handle = start(config, Arc::clone(&state)).expect("daemon starts");
        Daemon { handle, state }
    })
}

/// One request over a fresh connection; returns `(status, parsed body)`.
fn call(method: &str, path: &str, body: &str) -> (u16, Value) {
    let mut conn = http::dial(daemon().handle.addr(), Duration::from_secs(30)).expect("connect");
    let answer = http::exchange(&mut conn, method, path, body).expect("response");
    let text = std::str::from_utf8(&answer.body).expect("UTF-8 body");
    let value = json::parse(text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"));
    (answer.status, value)
}

fn as_u64(v: &Value, k: &str) -> u64 {
    v.get(k)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {k}"))
}

fn as_bool(v: &Value, k: &str) -> bool {
    v.get(k)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("missing bool {k}"))
}

// The daemon is shared; the cache-sensitive tests coordinate through this
// lock so a concurrently running test cannot interleave a /reload between
// a cold and a warm query.
static CACHE_SENSITIVE: Mutex<()> = Mutex::new(());

/// Hold [`CACHE_SENSITIVE`]. A failed test poisons it; the others take it
/// anyway (it guards no data), so one failure is reported once.
fn cache_sensitive() -> MutexGuard<'static, ()> {
    CACHE_SENSITIVE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn healthz_and_statz_report_inventory() {
    let (status, v) = call("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(as_bool(&v, "ok"));
    assert_eq!(as_u64(&v, "workloads"), 1);

    let (status, v) = call("GET", "/statz", "");
    assert_eq!(status, 200);
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("hecmix-statz-v4")
    );
    assert!(v.get("uptime_s").and_then(Value::as_f64).expect("uptime") >= 0.0);
    // v3 serving counters: compute-pool work, single-flight coalescing,
    // warm-reload recomputes, slowloris reaps, and the connection gauge.
    for counter in [
        "computes",
        "coalesced",
        "warmed",
        "timeouts_408",
        "connections",
    ] {
        assert!(
            v.get(counter).and_then(Value::as_u64).is_some(),
            "statz v3 must report {counter}"
        );
    }
    let hashes = v
        .get("model_hashes")
        .and_then(Value::as_array)
        .expect("hashes");
    assert_eq!(hashes.len(), 1);
    let h = hashes[0].as_str().expect("hash string");
    assert!(h.starts_with("ep:") && h.len() == 3 + 16, "{h}");
    assert!(v.get("latency_us").and_then(|l| l.get("p50")).is_some());
    assert!(v.get("latency_us").and_then(|l| l.get("p95")).is_some());
    assert!(v.get("cache").and_then(|c| c.get("hit_rate")).is_some());
    // v4: the live scheduler's counters are embedded when /submit is on.
    for counter in ["submitted", "admitted", "rejected", "misses", "outstanding"] {
        assert!(
            v.get("sched").and_then(|s| s.get(counter)).is_some(),
            "statz v4 must embed sched counter {counter}"
        );
    }
}

#[test]
fn submit_places_jobs_and_jobz_reports_them() {
    // A plain submission is admitted and answered with its placement.
    let (status, v) = call("POST", "/submit", r#"{"workload":"ep","units":1e9}"#);
    assert_eq!(status, 200);
    assert!(as_bool(&v, "admitted"));
    let finish = v.get("finish_s").and_then(Value::as_f64).expect("finish_s");
    let start = v.get("start_s").and_then(Value::as_f64).expect("start_s");
    assert!(finish > start && start >= 0.0);
    assert!(v.get("energy_j").and_then(Value::as_f64).expect("energy") > 0.0);
    assert!(v.get("freq_ghz").and_then(Value::as_f64).expect("freq") > 0.0);

    // `units` defaults to the workload's registry size.
    let (status, v) = call("POST", "/submit", r#"{"workload":"ep"}"#);
    assert_eq!(status, 200);
    assert!(as_bool(&v, "admitted"));

    // An impossible deadline is admitted but flagged as a miss up front.
    let (status, v) = call(
        "POST",
        "/submit",
        r#"{"workload":"ep","units":1e9,"deadline_s":1e-9}"#,
    );
    assert_eq!(status, 200);
    assert!(as_bool(&v, "missed"));

    // Validation: unknown workload, bad sizes, wrong methods.
    assert_eq!(call("POST", "/submit", r#"{"workload":"nope"}"#).0, 404);
    assert_eq!(call("POST", "/submit", r#"{"units":1.0}"#).0, 400);
    assert_eq!(
        call("POST", "/submit", r#"{"workload":"ep","units":-1}"#).0,
        422
    );
    assert_eq!(
        call("POST", "/submit", r#"{"workload":"ep","deadline_s":0}"#).0,
        422
    );
    // A deadline that rounds to the arrival cannot be replayed.
    assert_eq!(
        call(
            "POST",
            "/submit",
            r#"{"workload":"ep","deadline_s":1e-300}"#
        )
        .0,
        422
    );
    assert_eq!(call("GET", "/submit", "").0, 405);
    assert_eq!(call("POST", "/jobz", "").0, 405);

    // /jobz reports the counters and the recent placements.
    let (status, v) = call("GET", "/jobz", "");
    assert_eq!(status, 200);
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("hecmix-jobz-v1")
    );
    assert!(as_u64(&v, "submitted") >= 3);
    assert!(as_u64(&v, "admitted") >= 3);
    assert!(as_u64(&v, "misses") >= 1);
    let jobs = v.get("jobs").and_then(Value::as_array).expect("jobs array");
    assert!(jobs.len() >= 3);
    let line = &jobs[0];
    assert_eq!(line.get("workload").and_then(Value::as_str), Some("ep"));
    assert!(line.get("finish_s").and_then(Value::as_f64).is_some());
}

#[test]
fn plan_answers_feasible_and_infeasible_deadlines() {
    let _guard = cache_sensitive();
    // A generous deadline must be feasible with a config and split.
    let (status, v) = call(
        "POST",
        "/plan",
        r#"{"workload":"ep","arm":6,"amd":5,"deadline_ms":3600000}"#,
    );
    assert_eq!(status, 200);
    assert!(as_bool(&v, "feasible"));
    // Labels read like "ARM Cortex-A9 6(4c@1.40 GHz) + AMD K10 ..."
    assert!(v
        .get("config")
        .and_then(Value::as_str)
        .expect("config")
        .contains("c@"));
    let time_ms = v.get("time_ms").and_then(Value::as_f64).expect("time");
    assert!(time_ms > 0.0 && time_ms <= 3_600_000.0);
    assert!(v.get("energy_j").and_then(Value::as_f64).expect("energy") > 0.0);
    let shares = v.get("shares").expect("shares");
    let low = shares
        .get("low")
        .and_then(Value::as_f64)
        .expect("low share");
    let high = shares
        .get("high")
        .and_then(Value::as_f64)
        .expect("high share");
    assert!(
        (low + high - 1.0).abs() < 1e-9,
        "shares sum to 1: {low} + {high}"
    );

    // A microsecond deadline is infeasible; the fastest option is reported.
    let (status, v) = call(
        "POST",
        "/plan",
        r#"{"workload":"ep","arm":6,"amd":5,"deadline_ms":0.001}"#,
    );
    assert_eq!(status, 200);
    assert!(!as_bool(&v, "feasible"));
    assert!(
        v.get("fastest_ms")
            .and_then(Value::as_f64)
            .expect("fastest")
            > 0.001
    );
}

/// The `time_ms` of the `/frontier` point labelled `config`.
fn point_time_ms(frontier: &Value, config: &str) -> f64 {
    frontier
        .get("points")
        .and_then(Value::as_array)
        .expect("points")
        .iter()
        .find(|p| p.get("config").and_then(Value::as_str) == Some(config))
        .and_then(|p| p.get("time_ms").and_then(Value::as_f64))
        .unwrap_or_else(|| panic!("no frontier point `{config}`"))
}

#[test]
fn plan_p99_deadline_is_the_exact_quantile_and_cached() {
    let _guard = cache_sensitive();
    // Derive a safe operating point from the frontier itself: an arrival
    // rate keeping every menu entry below half utilization, and a deadline
    // loose enough that some entry's p99 clears it.
    let (status, f) = call("POST", "/frontier", r#"{"workload":"ep","arm":8,"amd":6}"#);
    assert_eq!(status, 200);
    let t_max_s = f
        .get("points")
        .and_then(Value::as_array)
        .expect("points")
        .iter()
        .map(|p| p.get("time_ms").and_then(Value::as_f64).expect("t") / 1e3)
        .fold(0.0f64, f64::max);
    assert!(t_max_s > 0.0);
    let lambda = 0.5 / t_max_s;
    let p99_s = 20.0 * t_max_s;
    let body = format!(r#"{{"workload":"ep","arm":8,"amd":6,"lambda":{lambda},"p99_s":{p99_s}}}"#);

    let (status, v) = call("POST", "/plan", &body);
    assert_eq!(status, 200);
    assert!(
        !as_bool(&v, "cached"),
        "first p99 plan must be a cache miss"
    );
    assert!(as_bool(&v, "feasible"), "loose deadline feasible: {v:?}");
    assert!(!as_bool(&v, "violated"));
    let config = v
        .get("config")
        .and_then(Value::as_str)
        .expect("config")
        .to_owned();
    assert!(config.contains("c@"), "{config}");
    let tail = v
        .get("p99_response_s")
        .and_then(Value::as_f64)
        .expect("tail");
    let mean = v
        .get("mean_response_s")
        .and_then(Value::as_f64)
        .expect("mean");
    assert!(tail <= p99_s, "the exact tail is within the deadline");
    assert!(tail >= mean, "p99 cannot sit below the mean here");
    // The tail is the closed-form quantile of the chosen point's service
    // time; `time_ms` carries it scaled by 1e3, hence the ulp-level slack.
    let service_s = point_time_ms(&f, &config) / 1e3;
    let exact = MD1::new(lambda, service_s)
        .and_then(|q| q.response_quantile(0.99))
        .expect("stable entry");
    assert!(
        (tail / exact - 1.0).abs() < 1e-12,
        "p99 {tail} vs closed form {exact}"
    );
    assert!(
        v.get("window_energy_j")
            .and_then(Value::as_f64)
            .expect("energy")
            > 0.0
    );
    let cold_us = as_u64(&v, "compute_us");

    // Identical question again: answered from cache, byte-identical plan.
    let (status, warm) = call("POST", "/plan", &body);
    assert_eq!(status, 200);
    assert!(
        as_bool(&warm, "cached"),
        "repeat p99 plan must hit the cache"
    );
    assert_eq!(
        warm.get("config").and_then(Value::as_str),
        Some(config.as_str()),
        "cached answer must be identical"
    );
    let warm_us = as_u64(&warm, "compute_us").max(1);
    assert!(
        cold_us >= 10 * warm_us,
        "tail plan must be >=10x faster warm: cold {cold_us} µs vs warm {warm_us} µs"
    );

    // An arrival rate that saturates every configuration is answered, not
    // errored: infeasible and explicitly flagged saturated.
    let sat_body = format!(r#"{{"workload":"ep","arm":8,"amd":6,"lambda":1e9,"p99_s":{p99_s}}}"#);
    let (status, sat) = call("POST", "/plan", &sat_body);
    assert_eq!(status, 200);
    assert!(!as_bool(&sat, "feasible"));
    assert!(as_bool(&sat, "saturated"));

    // So slow that no job ever queues: the wait's atom at zero covers the
    // 99th percentile, so the p99 response is the chosen point's service
    // time, bit for bit.
    let (status, slow) = call(
        "POST",
        "/plan",
        r#"{"workload":"ep","p99_s":10,"lambda":1e-300}"#,
    );
    assert_eq!(status, 200, "{slow:?}");
    assert!(as_bool(&slow, "feasible"));
    let config = slow.get("config").and_then(Value::as_str).expect("config");
    let (status, f) = call("POST", "/frontier", r#"{"workload":"ep"}"#);
    assert_eq!(status, 200);
    let tail = slow
        .get("p99_response_s")
        .and_then(Value::as_f64)
        .expect("tail");
    assert_eq!(tail * 1e3, point_time_ms(&f, config));
}

#[test]
fn frontier_warm_cache_is_10x_faster_than_cold() {
    let _guard = cache_sensitive();
    // Unique query shape (node caps) so no other test has warmed this key.
    // It is the largest table a request may ask for, so its miss folds for
    // hundreds of µs. A small table folds in about 20 µs once another test
    // has built `ep`'s catalog, and `compute_us` counts whole µs, so a 10x
    // bound over a 2–3 µs hit would sit at the clock's resolution.
    let body = r#"{"workload":"ep","arm":512,"amd":128}"#;
    let (status, v) = call("POST", "/frontier", body);
    assert_eq!(status, 200);
    assert!(!as_bool(&v, "cached"), "first query must be a cache miss");
    assert!(
        !as_bool(&v, "coalesced"),
        "a lone miss has no flight to join"
    );
    let cold_us = as_u64(&v, "compute_us");
    let count = as_u64(&v, "count");
    assert!(count >= 1);
    let points = v.get("points").and_then(Value::as_array).expect("points");
    assert_eq!(points.len() as u64, count);
    for p in points {
        assert!(p.get("time_ms").and_then(Value::as_f64).expect("t") > 0.0);
        assert!(p.get("energy_j").and_then(Value::as_f64).expect("e") > 0.0);
    }

    // Warm queries: identical shape, served from cache, >= 10x faster on
    // the server-side compute clock (immune to loopback RTT noise).
    let mut warm_us = Vec::new();
    for _ in 0..21 {
        let (status, v) = call("POST", "/frontier", body);
        assert_eq!(status, 200);
        assert!(as_bool(&v, "cached"), "repeat query must hit the cache");
        assert_eq!(
            as_u64(&v, "count"),
            count,
            "cached answer must be identical"
        );
        warm_us.push(as_u64(&v, "compute_us"));
    }
    warm_us.sort_unstable();
    let warm_median = warm_us[warm_us.len() / 2].max(1);
    assert!(
        cold_us >= 10 * warm_median,
        "cache speedup below 10x: cold {cold_us} µs vs warm median {warm_median} µs"
    );
}

#[test]
fn resilient_frontier_dominates_plain_energy() {
    let _guard = cache_sensitive();
    let (status, plain) = call("POST", "/frontier", r#"{"workload":"ep","arm":4,"amd":3}"#);
    assert_eq!(status, 200);
    let (status, resilient) = call(
        "POST",
        "/frontier",
        r#"{"workload":"ep","arm":4,"amd":3,"resilient_k":1}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(as_u64(&resilient, "resilient_k"), 1);
    // Surviving k=1 crashes costs headroom: the resilient frontier's best
    // (fastest) point cannot beat the plain frontier's fastest point.
    let min_time = |v: &Value| {
        v.get("points")
            .and_then(Value::as_array)
            .expect("points")
            .iter()
            .map(|p| p.get("time_ms").and_then(Value::as_f64).expect("t"))
            .fold(f64::INFINITY, f64::min)
    };
    assert!(min_time(&resilient) >= min_time(&plain) - 1e-9);
}

#[test]
fn a_huge_resilient_k_answers_an_empty_frontier_quickly() {
    // No configuration of 10 × 10 nodes survives 2^32 − 1 losses, so the
    // k-degraded fold keeps nothing; a fold that sized anything by `k`
    // would take far longer or fail. The body is pinned up to its
    // `compute_us`, the one field that varies between runs.
    let _guard = cache_sensitive();
    let addr = daemon().handle.addr();
    let mut conn = http::dial(addr, Duration::from_secs(30)).expect("connect");
    let t0 = std::time::Instant::now();
    let answer = http::exchange(
        &mut conn,
        "POST",
        "/frontier",
        r#"{"workload":"ep","arm":10,"amd":10,"resilient_k":4294967295}"#,
    )
    .expect("response");
    let elapsed = t0.elapsed();
    let text = std::str::from_utf8(&answer.body).expect("UTF-8 body");
    let (pinned, compute_us) = text.rsplit_once(r#","compute_us":"#).expect("compute_us");
    assert_eq!(answer.status, 200);
    assert_eq!(
        pinned,
        concat!(
            r#"{"workload":"ep","arm":10,"amd":10,"units":50000000.0,"#,
            r#""resilient_k":4294967295,"count":0,"points":[],"cached":false,"#,
            r#""coalesced":false"#
        )
    );
    assert!(
        compute_us.trim_end_matches('}').parse::<u64>().is_ok(),
        "{text}"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn whatif_ladder_spans_all_high_to_all_low() {
    let _guard = cache_sensitive();
    let (status, v) = call(
        "POST",
        "/whatif",
        r#"{"workload":"ep","budget_w":400,"deadline_ms":3600000,"step_high":1}"#,
    );
    assert_eq!(status, 200);
    let rungs = v.get("rungs").and_then(Value::as_array).expect("rungs");
    assert!(rungs.len() >= 2, "ladder needs at least two rungs");
    let first = &rungs[0];
    let last = &rungs[rungs.len() - 1];
    assert_eq!(as_u64(first, "arm"), 0, "ladder starts all-high");
    assert_eq!(as_u64(last, "amd"), 0, "ladder ends all-low");
    for r in rungs {
        assert!(r.get("peak_w").and_then(Value::as_f64).expect("peak") <= 400.0 + 1e-9);
    }
    assert!(v.get("best_mix").and_then(Value::as_str).is_some());

    // Same ladder again: cached.
    let (_, v2) = call(
        "POST",
        "/whatif",
        r#"{"workload":"ep","budget_w":400,"deadline_ms":3600000,"step_high":1}"#,
    );
    assert!(as_bool(&v2, "cached"));
    // A different deadline reuses the cached ladder (key excludes deadline).
    let (_, v3) = call(
        "POST",
        "/whatif",
        r#"{"workload":"ep","budget_w":400,"deadline_ms":1,"step_high":1}"#,
    );
    assert!(as_bool(&v3, "cached"));
}

#[test]
fn reload_swaps_store_and_rewarms_hot_set() {
    let _guard = cache_sensitive();
    let body = r#"{"workload":"ep","arm":3,"amd":2}"#;
    let (_, first) = call("POST", "/frontier", body);
    assert!(!as_bool(&first, "cached"));
    let (_, warmed) = call("POST", "/frontier", body);
    assert!(as_bool(&warmed, "cached"));

    let before = daemon().state.store().hashes();
    let (status, v) = call("POST", "/reload", "");
    assert_eq!(status, 200);
    assert!(as_bool(&v, "reloaded"));
    assert_eq!(as_u64(&v, "workloads"), 1);
    // Same lab, same models: the content hash must be reproducible.
    assert_eq!(daemon().state.store().hashes(), before);
    // The hot set was recomputed against the new store before the swap.
    assert!(as_u64(&v, "hot_keys") >= 1, "hot set captured: {v:?}");
    assert!(as_u64(&v, "warmed") >= 1, "hot set re-warmed: {v:?}");

    // No cold-start cliff: the hot query is *still* a cache hit after the
    // swap — reload warms the new cache rather than leaving it empty.
    let (_, after) = call("POST", "/frontier", body);
    assert!(
        as_bool(&after, "cached"),
        "reload must re-warm the hot set, not reopen the cold-start cliff"
    );

    // The warm work is visible in the serving counters.
    let (_, stats) = call("GET", "/statz", "");
    assert!(as_u64(&stats, "warmed") >= 1, "statz counts warmed entries");
}

#[test]
fn error_paths_return_typed_statuses() {
    let cases = [
        ("POST", "/plan", r#"{"workload":"ep","arm":2,"amd":2}"#, 400), // no deadline
        ("POST", "/plan", r#"{"deadline_ms":1000}"#, 400),              // no workload
        ("POST", "/plan", r#"{"workload":"ep","p99_s":10}"#, 400),      // p99 without lambda
        (
            "POST",
            "/plan",
            r#"{"workload":"ep","p99_s":-1,"lambda":1}"#,
            422,
        ),
        (
            "POST",
            "/plan",
            r#"{"workload":"ep","p99_s":10,"lambda":0}"#,
            422,
        ),
        (
            "POST",
            "/plan",
            r#"{"workload":"nope","deadline_ms":1}"#,
            404,
        ),
        (
            "POST",
            "/frontier",
            r#"{"workload":"ep","arm":0,"amd":0}"#,
            422,
        ),
        ("POST", "/frontier", r#"{"workload":"ep","units":-5}"#, 422),
        (
            "POST",
            "/frontier",
            r#"{"workload":"ep","resilient_k":0}"#,
            422,
        ),
        // Beyond u32: must not wrap to 0 or 1.
        (
            "POST",
            "/frontier",
            r#"{"workload":"ep","resilient_k":4294967296}"#,
            422,
        ),
        (
            "POST",
            "/frontier",
            r#"{"workload":"ep","resilient_k":4294967297}"#,
            422,
        ),
        ("POST", "/whatif", r#"{"workload":"ep","budget_w":-1}"#, 422),
        // Budgets whose all-ARM rung exceeds the 512-node cap.
        (
            "POST",
            "/whatif",
            r#"{"workload":"ep","budget_w":1e11}"#,
            422,
        ),
        (
            "POST",
            "/whatif",
            r#"{"workload":"ep","budget_w":5000}"#,
            422,
        ),
        ("POST", "/frontier", "{not json", 400),
        // A leading zero is not JSON, so `01` is not arm 1.
        (
            "POST",
            "/frontier",
            r#"{"workload":"ep","arm":01,"amd":2}"#,
            400,
        ),
        ("GET", "/plan", "", 405),
        ("POST", "/healthz", "", 405),
        ("GET", "/nope", "", 404),
    ];
    for (method, path, body, want) in cases {
        let (status, _) = call(method, path, body);
        assert_eq!(status, want, "{method} {path} with {body:?}");
    }
}

#[test]
fn http10_is_answered_and_closed_unless_it_asks_for_keep_alive() {
    for (connection, closes) in [("", true), ("Connection: keep-alive\r\n", false)] {
        let mut conn =
            http::dial(daemon().handle.addr(), Duration::from_secs(30)).expect("connect");
        let wire = format!("GET /healthz HTTP/1.0\r\n{connection}\r\n");
        conn.write_all(wire.as_bytes()).expect("send");
        let answer = http::read_answer(&mut conn).expect("response");
        assert_eq!((answer.status, answer.close), (200, closes), "{wire:?}");
        if closes {
            let n = conn.read(&mut [0u8; 16]).expect("clean close");
            assert_eq!(n, 0, "the daemon closes the socket after its answer");
        } else {
            let again = http::exchange(&mut conn, "GET", "/healthz", "").expect("kept alive");
            assert_eq!((again.status, again.close), (200, false));
        }
    }
}

#[test]
fn closed_loop_load_run_completes_without_errors() {
    let cfg = LoadgenConfig {
        addr: daemon().handle.addr().to_string(),
        concurrency: 4,
        requests: 120,
        mix: MixRatio::parse("2:2:1").expect("mix"),
        workload: "ep".to_owned(),
        arm: 5,
        amd: 4,
        budget_w: 400.0,
        deadline_ms: 3_600_000.0,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg);
    assert_eq!(report.sent, 120);
    assert_eq!(report.ok, 120, "every request must complete: {report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.throughput_rps > 0.0);
    assert!(report.p50_us > 0 && report.p50_us <= report.p99_us);
    // Per-endpoint split covers every endpoint in the 2:2:1 mix.
    assert!(report.plan.count > 0 && report.frontier.count > 0 && report.whatif.count > 0);
    assert_eq!(
        report.measured,
        report.plan.count + report.frontier.count + report.whatif.count
    );
    // /statz was scraped before and after: server-side deltas are present.
    let server = report.server.expect("statz deltas scraped");
    assert!(server.computes >= 1, "{server:?}");
    let j = report.to_json(&cfg);
    assert!(json::parse(&j).is_ok(), "bench JSON parses: {j}");
}
