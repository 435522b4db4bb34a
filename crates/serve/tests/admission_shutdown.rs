//! Admission control and graceful shutdown, over real sockets.
//!
//! The first test exercises the **connection cap**: past
//! `max_connections`, the accept loop itself answers `503` with
//! `Retry-After` instead of registering the socket — admitted connections
//! never feel the overload. The second exercises the **drain protocol** in
//! its hardest configuration: shutdown arrives while a coalesced compute
//! (one leader, one single-flight follower) is still running on the pool.
//! Both waiters must get real answers tagged `Connection: close`, every
//! thread must exit within a bounded join, and the listener must be gone.
//! A third test sheds work at the **compute pool**: a full queue answers
//! `503` with `Retry-After` at once, and a job that out-waited the queue
//! deadline answers `503` when a worker reaches it, for computes, reloads
//! and gateway forwards alike (a reload is never stale). A fourth runs
//! more **I/O loops** than the state has latency histograms: `/statz`
//! must still time every request it counts as served.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_serve::fleet::{Fleet, FleetConfig};
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

fn small_daemon(store: ModelStore, max_connections: usize) -> (ServerHandle, Arc<AppState>) {
    let state = Arc::new(AppState::new(store, 1, 16));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        max_connections,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(2),
        queue_deadline: Duration::from_secs(30),
        retry_after_s: 7,
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");
    (handle, state)
}

fn connect(handle: &ServerHandle) -> TcpStream {
    http::dial(handle.addr(), Duration::from_secs(10)).expect("connect")
}

/// Send `GET /healthz` on `conn` and return its answer.
fn healthz(conn: &mut TcpStream) -> http::Answer {
    http::exchange(conn, "GET", "/healthz", "").expect("response")
}

fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn connection_cap_gets_503_with_retry_after() {
    let (handle, state) = small_daemon(ModelStore::new(), 2);

    // Two connections fill the cap; both are registered with the event
    // loop and fully functional.
    let mut c0 = connect(&handle);
    let mut c1 = connect(&handle);
    assert_eq!(healthz(&mut c0).status, 200);
    assert_eq!(healthz(&mut c1).status, 200);
    wait_until("both connections registered", || handle.connections() == 2);

    // The third connection is rejected by the accept loop itself — it
    // never reaches the event loop or the compute pool.
    let mut c2 = connect(&handle);
    let answer = healthz(&mut c2);
    assert_eq!(answer.status, 503, "admission control must reject");
    assert_eq!(answer.retry_after_s, Some(7), "Retry-After advertised");
    assert!(answer.close);
    let rejected = state
        .metrics
        .rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejected >= 1, "rejection counted in metrics");

    // The admitted connections still work: overload never broke them.
    assert_eq!(healthz(&mut c0).status, 200);
    assert_eq!(healthz(&mut c1).status, 200);

    // Dropping an admitted connection frees a slot for a new one.
    drop(c0);
    wait_until("slot freed", || handle.connections() < 2);
    let mut c3 = connect(&handle);
    assert_eq!(healthz(&mut c3).status, 200, "freed slot must be reusable");

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_coalesced_in_flight_compute() {
    let (handle, state) = small_daemon(build_store(), 64);
    // Hold the single compute worker long enough that shutdown lands
    // mid-sweep with a follower parked on the leader's flight.
    state.set_compute_delay(Duration::from_millis(400));

    let body = r#"{"workload":"ep","arm":4,"amd":3}"#;
    let wire = http::format_request("POST", "/frontier", body);

    // Leader: first miss enqueues the compute.
    let mut c_leader = connect(&handle);
    c_leader.write_all(wire.as_bytes()).expect("leader send");
    // Follower: identical query while the sweep runs — joins the flight
    // instead of enqueueing a second job.
    let mut c_follower = connect(&handle);
    c_follower
        .write_all(wire.as_bytes())
        .expect("follower send");
    wait_until("follower to coalesce onto the leader's flight", || {
        state
            .metrics
            .coalesced
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    // SIGINT equivalent: drain starts while the coalesced compute is
    // still sleeping on the pool.
    handle.shutdown();

    // Both waiters get the real answer, tagged for close.
    let mut answers = Vec::new();
    for (name, conn) in [("leader", &mut c_leader), ("follower", &mut c_follower)] {
        let answer =
            http::read_answer(conn).unwrap_or_else(|e| panic!("{name} must be answered: {e:?}"));
        assert_eq!(answer.status, 200, "{name} gets the computed frontier");
        assert!(answer.close, "{name} told to close during drain");
        let v = json::parse(std::str::from_utf8(&answer.body).expect("UTF-8")).expect("JSON");
        answers.push(v);
    }
    let coalesced_flags: Vec<bool> = answers
        .iter()
        .map(|v| v.get("coalesced").and_then(Value::as_bool).expect("flag"))
        .collect();
    assert!(
        coalesced_flags.contains(&true),
        "one waiter rode the leader's compute: {coalesced_flags:?}"
    );
    assert_eq!(
        state
            .metrics
            .computes
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "exactly one sweep for both waiters"
    );

    // Every thread exits; join is bounded by the read timeout.
    let t0 = Instant::now();
    let addr = handle.addr();
    handle.join();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "join must not hang after drain"
    );

    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn slowloris_partial_head_is_reaped_with_408() {
    // A peer trickling a request head one fragment at a time keeps
    // `last_active` fresh forever, so the idle sweep alone never fires.
    // The head deadline is the guard: a connection holding a *partial*
    // request past it is answered 408 and closed, and the reap is
    // counted in /statz.
    let state = Arc::new(AppState::new(build_store(), 1, 16));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        max_connections: 16,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(30),
        head_deadline: Duration::from_millis(300),
        queue_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");

    // An honest keep-alive connection, for contrast: it must survive the
    // slowloris reaping untouched (its buffers are empty between
    // requests, so the head deadline never applies).
    let mut honest = connect(&handle);
    assert_eq!(healthz(&mut honest).status, 200);

    // The attacker sends half a request line, then drip-feeds one byte
    // every 100 ms from a second thread — each byte refreshes
    // `last_active`, so only the head deadline can catch it.
    let mut slow = connect(&handle);
    slow.write_all(b"POST /frontier HT").expect("partial head");
    let mut trickle = slow.try_clone().expect("clone socket");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_trickle = Arc::clone(&stop);
    let trickler = std::thread::spawn(move || {
        while !stop_trickle.load(std::sync::atomic::Ordering::Relaxed) {
            if trickle.write_all(b"T").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let t0 = Instant::now();
    let answer = http::read_answer(&mut slow).expect("slowloris connection must get a response");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    trickler.join().expect("trickler thread");
    assert_eq!(answer.status, 408, "partial head reaped with 408");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "reap happens on the head deadline, not the 30 s idle timeout"
    );
    assert!(answer.close, "a reaped connection is told to close");
    wait_until("timeout counted", || {
        state
            .metrics
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    // The honest connection was untouched by the reaping.
    assert_eq!(healthz(&mut honest).status, 200);

    // And the counter is visible in /statz.
    let statz = http::exchange(&mut connect(&handle), "GET", "/statz", "").expect("statz");
    assert_eq!(statz.status, 200);
    let v = json::parse(std::str::from_utf8(&statz.body).expect("UTF-8")).expect("JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("hecmix-statz-v4")
    );
    assert!(
        v.get("timeouts_408").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "statz must count the 408 reap"
    );

    handle.shutdown();
    handle.join();
}

/// Send `POST path` with `body` on a fresh connection, unanswered yet.
fn post(handle: &ServerHandle, path: &str, body: &str) -> TcpStream {
    let mut conn = connect(handle);
    conn.write_all(http::format_request("POST", path, body).as_bytes())
        .expect("send");
    conn
}

/// Read one answer: `(status, Retry-After, "error" message)`.
fn answer(conn: &mut TcpStream) -> (u16, Option<u64>, Option<String>) {
    let answer = http::read_answer(conn).expect("response");
    let v = json::parse(std::str::from_utf8(&answer.body).expect("UTF-8")).expect("JSON");
    let error = v.get("error").and_then(Value::as_str).map(str::to_owned);
    (answer.status, answer.retry_after_s, error)
}

/// The answer of a shed job: 503, `Retry-After: 7`, and `why`.
fn shed(why: &str) -> (u16, Option<u64>, Option<String>) {
    (503, Some(7), Some(why.to_owned()))
}

#[test]
fn full_or_stale_pool_jobs_are_shed_with_503() {
    // One worker held 400 ms by every compute, room for one queued job,
    // and a 150 ms queue deadline, so a job queued behind a compute is
    // stale by the time the worker reaches it.
    let pool = ServeConfig {
        io_threads: 1,
        workers: 1,
        max_connections: 64,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(5),
        queue_deadline: Duration::from_millis(150),
        retry_after_s: 7,
        ..ServeConfig::default()
    };
    let state = Arc::new(AppState::new(build_store(), 1, 16));
    state.set_reload(Arc::new(|| Ok(build_store())));
    state.set_compute_delay(Duration::from_millis(400));
    let replica = start(pool.clone(), Arc::clone(&state)).expect("replica starts");
    let frontier = |arm: u32| format!(r#"{{"workload":"ep","arm":{arm},"amd":3}}"#);
    // Occupy the worker with the miss `arm`: a second copy coalesces only
    // once the first is queued, and the queue then empties only when the
    // worker takes it.
    let occupy = |arm: u32| {
        let coalesced = state.metrics.coalesced.load(Ordering::Relaxed);
        let held = [0, 1].map(|_| post(&replica, "/frontier", &frontier(arm)));
        wait_until("the copy to coalesce", || {
            state.metrics.coalesced.load(Ordering::Relaxed) > coalesced
        });
        wait_until("the worker to take the miss", || replica.queue_depth() == 0);
        held
    };

    // The second miss waits in the queue; a third miss, and a reload,
    // find it full.
    let running = occupy(1);
    let mut queued = post(&replica, "/frontier", &frontier(2));
    wait_until("the second miss to queue", || replica.queue_depth() == 1);
    for (path, body) in [("/frontier", frontier(3)), ("/reload", String::new())] {
        let mut full = post(&replica, path, &body);
        assert_eq!(answer(&mut full), shed("compute queue full"), "{path}");
    }
    // The queued miss out-waits the deadline behind the running compute.
    assert_eq!(answer(&mut queued), shed("compute queue deadline exceeded"));
    for mut conn in running {
        assert_eq!(answer(&mut conn).0, 200);
    }

    // A reload queued just as long is still answered.
    let running = occupy(4);
    let mut reload = post(&replica, "/reload", "");
    wait_until("the reload to queue", || replica.queue_depth() == 1);
    let (status, _, error) = answer(&mut reload);
    assert_eq!((status, error), (200, None), "a reload is never stale");
    for mut conn in running {
        assert_eq!(answer(&mut conn).0, 200);
    }
    assert_eq!(state.metrics.rejected.load(Ordering::Relaxed), 3);

    // A gateway with the same pool in front of the replica: its worker
    // blocks on one forward while the replica computes for 400 ms.
    let fleet = Arc::new(
        Fleet::new(FleetConfig {
            replicas: vec![replica.addr().to_string()],
            ..FleetConfig::default()
        })
        .expect("fleet"),
    );
    let gateway_state = Arc::new(AppState::new_gateway(build_store(), 1, Arc::clone(&fleet)));
    let gateway = start(pool, gateway_state).expect("gateway starts");
    let mut running = post(&gateway, "/frontier", &frontier(5));
    wait_until("the worker to forward", || fleet.connect_count() == 1);
    let mut queued = post(&gateway, "/frontier", &frontier(6));
    wait_until("the second forward to queue", || gateway.queue_depth() == 1);
    let mut full = post(&gateway, "/frontier", &frontier(7));
    assert_eq!(answer(&mut full), shed("compute queue full"));
    assert_eq!(answer(&mut queued), shed("forward queue deadline exceeded"));
    assert_eq!(answer(&mut running).0, 200);

    gateway.join();
    fleet.stop();
    replica.join();
}

#[test]
fn statz_times_every_answer_when_loops_outnumber_histograms() {
    // One histogram behind two I/O loops. The accept thread deals
    // connections to the loops in turn, so the two clients land on
    // different loops, and loop 1 has no histogram of its own.
    let state = Arc::new(AppState::new(ModelStore::new(), 1, 16));
    let config = ServeConfig {
        io_threads: 2,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");
    let mut conns = [connect(&handle), connect(&handle)];
    for conn in &mut conns {
        for _ in 0..3 {
            assert_eq!(healthz(conn).status, 200);
        }
    }
    // Each answer is recorded before it is written, so all six are in.
    let statz = http::exchange(&mut conns[0], "GET", "/statz", "").expect("statz");
    let v = json::parse(std::str::from_utf8(&statz.body).expect("UTF-8")).expect("JSON");
    let served = v.get("served").and_then(Value::as_u64);
    let timed = v
        .get("latency_us")
        .and_then(|l| l.get("count"))
        .and_then(Value::as_u64);
    assert_eq!((served, timed), (Some(6), Some(6)), "served vs timed");

    handle.shutdown();
    handle.join();
}
