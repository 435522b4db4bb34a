//! Single-flight coalescing under real concurrency: a burst of identical
//! cache misses must cost exactly **one** sweep on the compute pool, with
//! every other connection either riding the leader's flight
//! (`coalesced: true`) or hitting the cache the flight just filled
//! (`cached: true`). A disconnected leader must not strand its followers —
//! delivery is by per-connection token, and a stale token is simply
//! discarded.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_serve::http;
use hecmix_serve::{start, AppState, ModelStore, ServeConfig, ServerHandle};

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

fn daemon(compute_delay: Duration) -> (ServerHandle, Arc<AppState>) {
    let state = Arc::new(AppState::new(build_store(), 2, 64));
    state.set_compute_delay(compute_delay);
    let config = ServeConfig {
        io_threads: 2,
        workers: 2,
        max_connections: 256,
        queue_capacity: 32,
        read_timeout: Duration::from_secs(5),
        queue_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");
    (handle, state)
}

fn connect(handle: &ServerHandle) -> TcpStream {
    http::dial(handle.addr(), Duration::from_secs(30)).expect("connect")
}

/// `(status, cached, coalesced)` of an answer to `/frontier`.
fn flags(answer: &http::Answer) -> (u16, bool, bool) {
    let v = json::parse(std::str::from_utf8(&answer.body).expect("UTF-8")).expect("JSON");
    let flag = |k: &str| v.get(k).and_then(Value::as_bool).unwrap_or(false);
    (answer.status, flag("cached"), flag("coalesced"))
}

/// `(status, cached, coalesced)` of one `/frontier` exchange.
fn frontier(conn: &mut TcpStream, body: &str) -> (u16, bool, bool) {
    flags(&http::exchange(conn, "POST", "/frontier", body).expect("response"))
}

fn statz(handle: &ServerHandle) -> Value {
    let answer = http::exchange(&mut connect(handle), "GET", "/statz", "").expect("response");
    assert_eq!(answer.status, 200);
    json::parse(std::str::from_utf8(&answer.body).expect("UTF-8")).expect("JSON")
}

fn statz_u64(handle: &ServerHandle, field: &str) -> u64 {
    statz(handle)
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("statz missing {field}"))
}

fn cache_misses(handle: &ServerHandle) -> u64 {
    statz(handle)
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Value::as_u64)
        .expect("statz cache.misses")
}

#[test]
fn concurrent_identical_misses_cost_exactly_one_compute() {
    const CONNS: usize = 64;
    let (handle, _state) = daemon(Duration::from_millis(300));
    let body = r#"{"workload":"ep","arm":8,"amd":6}"#;

    // All 64 connections fire the same cold query through a barrier so
    // they land while the (artificially slow) sweep is in flight.
    let barrier = Arc::new(Barrier::new(CONNS));
    let outcomes: Vec<(u16, bool, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let handle = &handle;
                s.spawn(move || {
                    let mut conn = connect(handle);
                    barrier.wait();
                    frontier(&mut conn, body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (status, _, _) in &outcomes {
        assert_eq!(*status, 200, "every waiter must be answered");
    }
    let leaders = outcomes.iter().filter(|(_, c, f)| !c && !f).count();
    let riders = outcomes.iter().filter(|(_, c, f)| *c || *f).count();
    assert_eq!(leaders, 1, "exactly one connection paid for the sweep");
    assert_eq!(riders, CONNS - 1, "everyone else rode the flight or cache");
    assert!(
        outcomes.iter().any(|(_, _, f)| *f),
        "at least one response must be coalesced (not just a late cache hit)"
    );

    // The ground truth: the compute pool ran the sweep exactly once.
    assert_eq!(statz_u64(&handle, "computes"), 1);
    assert_eq!(
        statz_u64(&handle, "coalesced") as usize,
        riders_coalesced(&outcomes)
    );

    handle.shutdown();
    handle.join();
}

fn riders_coalesced(outcomes: &[(u16, bool, bool)]) -> usize {
    outcomes.iter().filter(|(_, _, f)| *f).count()
}

#[test]
fn disconnected_leader_does_not_strand_followers() {
    let (handle, state) = daemon(Duration::from_millis(400));
    let body = r#"{"workload":"ep","arm":12,"amd":3}"#;
    let wire = http::format_request("POST", "/frontier", body);

    // Leader fires the miss. Wait for its cache miss to register before
    // sending the second request — two connections' bytes are not
    // guaranteed to be routed in write order, and this test must know
    // which connection leads the flight so it can kill exactly that one.
    let mut c_leader = connect(&handle);
    c_leader.write_all(wire.as_bytes()).expect("leader send");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cache_misses(&handle) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "leader request never routed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Follower coalesces onto the leader's in-flight compute.
    let mut c_follower = connect(&handle);
    c_follower
        .write_all(wire.as_bytes())
        .expect("follower send");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while state
        .metrics
        .coalesced
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never coalesced"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The leader walks away mid-compute. Its delivery token dies with the
    // connection; the flight itself must keep going.
    drop(c_leader);

    let (status, cached, coalesced) =
        flags(&http::read_answer(&mut c_follower).expect("follower answered"));
    assert_eq!(status, 200, "follower gets the plan the leader ordered");
    assert!(
        coalesced && !cached,
        "follower was answered from the leader's in-flight compute"
    );
    assert_eq!(
        state
            .metrics
            .computes
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the orphaned flight still computed exactly once"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn leader_crash_during_drain_answers_followers_cleanly() {
    // The hardest corner of coalescing: the daemon starts draining while a
    // flight is in the air, and then the *leader* — the one connection the
    // compute pool nominally answers to — dies. Followers must still get a
    // definitive answer (the drain path computes in-flight work instead of
    // shedding it) and shutdown must complete in bounded time: nobody
    // hangs on a flight whose leader is gone.
    let (handle, state) = daemon(Duration::from_millis(500));
    let body = r#"{"workload":"ep","arm":9,"amd":5}"#;
    let wire = http::format_request("POST", "/frontier", body);

    let mut c_leader = connect(&handle);
    c_leader.write_all(wire.as_bytes()).expect("leader send");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cache_misses(&handle) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "leader request never routed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut followers: Vec<TcpStream> = (0..4).map(|_| connect(&handle)).collect();
    for f in &mut followers {
        f.write_all(wire.as_bytes()).expect("follower send");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while state
        .metrics
        .coalesced
        .load(std::sync::atomic::Ordering::Relaxed)
        < 4
    {
        assert!(
            std::time::Instant::now() < deadline,
            "followers never coalesced"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Drain begins with the flight still computing; the leader dies next.
    handle.shutdown();
    drop(c_leader);

    let joined = std::thread::scope(|s| {
        let answers = s.spawn(move || {
            followers
                .into_iter()
                .map(|mut f| {
                    let (status, _, coalesced) =
                        flags(&http::read_answer(&mut f).expect("follower answered, not hung"));
                    (status, coalesced)
                })
                .collect::<Vec<_>>()
        });
        handle.join();
        answers.join().expect("follower reader")
    });
    for (status, coalesced) in joined {
        assert_eq!(
            status, 200,
            "drain answers coalesced followers, never hangs"
        );
        assert!(coalesced, "the answer rode the orphaned leader's flight");
    }
    assert_eq!(
        state
            .metrics
            .computes
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "drain completed the in-flight compute exactly once"
    );
}
