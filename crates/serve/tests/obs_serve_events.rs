//! Serving-path telemetry: drives a live daemon with a `JsonlSink`
//! installed and asserts the JSONL stream carries the event-loop,
//! coalescing, and warm-reload records, and that every line matches
//! `Event::SCHEMA`.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary — sharing a process with other
//! sink-installing tests would interleave their streams.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hecmix_experiments::Lab;
use hecmix_obs::{json, Event, JsonlSink};
use hecmix_serve::http;
use hecmix_serve::{start, AppState, ModelStore, ServeConfig, ServerHandle};

fn build_store() -> ModelStore {
    let lab = Lab::new();
    let ep = hecmix_workloads::workload_by_name("ep").expect("ep registered");
    let mut store = ModelStore::new();
    store.insert("ep", lab.models(ep.as_ref()).to_vec());
    store
}

fn connect(handle: &ServerHandle) -> TcpStream {
    http::dial(handle.addr(), Duration::from_secs(30)).expect("connect")
}

fn call(handle: &ServerHandle, method: &str, path: &str, body: &str) -> u16 {
    let answer = http::exchange(&mut connect(handle), method, path, body).expect("response");
    answer.status
}

/// The `(kind, field)` pairs read one step looser than their schema type:
/// a cache `key` is a full 64-bit FNV hash, beyond the JSON parser's
/// exact-integer range, so it is checked as a number.
const LOOSE: &[(&str, &str)] = &[
    ("request_coalesced", "key"),
    ("cache_hit", "key"),
    ("cache_miss", "key"),
];

#[test]
fn serving_path_emits_schema_complete_jsonl_events() {
    let dir = std::env::temp_dir().join(format!("hecmix-obs-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    hecmix_obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));

    let state = Arc::new(AppState::new(build_store(), 1, 64));
    state.set_reload(Arc::new(|| Ok(build_store())));
    state.set_compute_delay(Duration::from_millis(250));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");

    // 1. A health check exercises the plain request path.
    assert_eq!(call(&handle, "GET", "/healthz", ""), 200);

    // 2. Two concurrent identical /frontier misses: the second coalesces
    //    onto the first's in-flight compute.
    let body = r#"{"workload":"ep","arm":5,"amd":5}"#;
    let wire = http::format_request("POST", "/frontier", body);
    let mut c_leader = connect(&handle);
    c_leader.write_all(wire.as_bytes()).expect("leader send");
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
            "follower never coalesced onto the leader's flight"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let leader = http::read_answer(&mut c_leader).expect("leader answered");
    assert_eq!(leader.status, 200);
    let follower = http::read_answer(&mut c_follower).expect("follower answered");
    assert_eq!(follower.status, 200);

    // 3. A reload re-warms the hot set (the frontier key cached above).
    state.set_compute_delay(Duration::ZERO);
    assert_eq!(call(&handle, "POST", "/reload", ""), 200);

    handle.shutdown();
    handle.join();
    hecmix_obs::uninstall();

    // Replay the JSONL stream and check every line against the schema.
    let text = std::fs::read_to_string(&path).expect("events file");
    let mut kinds = std::collections::HashMap::<&str, u64>::new();
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line ({e}): {line}"));
        let kind = Event::check_json(&v, LOOSE).unwrap_or_else(|e| panic!("{e}: {line}"));
        *kinds.entry(kind).or_default() += 1;
    }

    // Every serving event the scenario must have produced is present.
    for required in [
        "eventloop_wakeup",
        "request_start",
        "request_done",
        "request_coalesced",
        "cache_warm_start",
        "cache_warm_done",
    ] {
        assert!(
            kinds.get(required).copied().unwrap_or(0) >= 1,
            "missing {required} in stream; saw {kinds:?}"
        );
    }
    // One follower coalesced exactly once.
    assert_eq!(kinds["request_coalesced"], 1);

    let _ = std::fs::remove_dir_all(&dir);
}
