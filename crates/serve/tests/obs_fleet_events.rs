//! Fleet telemetry: drives a two-replica fleet with a `JsonlSink`
//! installed and asserts the JSONL stream carries all five fleet events
//! — `replica_health_change`, `breaker_transition`, `request_retry`,
//! `request_hedged`, `failover_rewarm` — and that every line matches
//! `Event::SCHEMA`.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary — sharing a process with other
//! sink-installing tests would interleave their streams.
//!
//! The scenario is *passively* detected (no prober thread), so the event
//! order is deterministic: with `breaker_threshold: 2` and
//! `fail_threshold: 3`, three forwards against a dead replica walk the
//! breaker closed→open→half_open→open and then trip the health flip +
//! failover on exactly the third failure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_obs::{Event, JsonlSink};
use hecmix_serve::api::ComputeSpec;
use hecmix_serve::fleet::{Fleet, FleetConfig};
use hecmix_serve::{start, AppState, ModelStore, ServeConfig, ServerHandle};

fn build_store() -> ModelStore {
    static MODELS: std::sync::OnceLock<Vec<hecmix_core::profile::WorkloadModel>> =
        std::sync::OnceLock::new();
    let models = MODELS.get_or_init(|| {
        let lab = Lab::new();
        let ep = hecmix_workloads::workload_by_name("ep").expect("ep registered");
        lab.models(ep.as_ref()).to_vec()
    });
    let mut store = ModelStore::new();
    store.insert("ep", models.clone());
    store
}

fn boot_replica() -> (ServerHandle, Arc<AppState>) {
    let state = Arc::new(AppState::new(build_store(), 1, 64));
    let config = ServeConfig {
        io_threads: 1,
        workers: 2,
        queue_capacity: 32,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("replica starts");
    (handle, state)
}

fn body(arm: u32) -> String {
    format!(r#"{{"workload":"ep","arm":{arm},"amd":5}}"#)
}

fn key_for_arm(arm: u32) -> u64 {
    let store = build_store();
    let entry = store.get("ep").expect("ep in store");
    ComputeSpec::Frontier {
        workload: "ep".to_owned(),
        arm,
        amd: 5,
        units: entry.default_units,
    }
    .key(entry.hash)
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
fn fleet_emits_schema_complete_jsonl_events() {
    let dir = std::env::temp_dir().join(format!("hecmix-obs-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    hecmix_obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));

    let (h0, _s0) = boot_replica();
    let (h1, s1) = boot_replica();
    let fleet = Arc::new(
        Fleet::new(FleetConfig {
            replicas: vec![h0.addr().to_string(), h1.addr().to_string()],
            fail_threshold: 3,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            backoff_base_ms: 5,
            backoff_cap_ms: 20,
            hedge_min: Duration::from_millis(40),
            hedge_max: Duration::from_millis(40),
            ..FleetConfig::default()
        })
        .expect("fleet"),
    );
    // No prober: detection is purely passive, so every event below is
    // triggered by an explicit forward and the sequence is deterministic.

    let arms_of = |replica: usize, n: usize, from: u32| -> Vec<u32> {
        (from..)
            .filter(|&arm| fleet.owner(key_for_arm(arm)) == replica)
            .take(n)
            .collect()
    };

    // 1. Hedge: replica 1 owns `hedge_arm` and is made slow; the 40 ms
    //    hedge fires to replica 0, which answers first.
    let hedge_arm = arms_of(1, 1, 1)[0];
    s1.set_compute_delay(Duration::from_millis(400));
    let resp = fleet.forward(key_for_arm(hedge_arm), "/frontier", &body(hedge_arm));
    assert_eq!(resp.status, 200, "hedged forward: {}", resp.body);
    assert!(fleet.hedge_count() >= 1, "hedge must have fired");
    s1.set_compute_delay(Duration::ZERO);

    // 2. Warm two keys onto replica 0, so its hot set is non-empty when
    //    it dies (the rewarm pass below needs displaced keys).
    for &arm in &arms_of(0, 2, 1) {
        let resp = fleet.forward(key_for_arm(arm), "/frontier", &body(arm));
        assert_eq!(resp.status, 200, "warm forward: {}", resp.body);
    }

    // 3. Kill replica 0 and forward three keys it owns. Failure #1 is a
    //    plain retry; #2 opens the breaker; after the cooldown, #3 flips
    //    open→half_open, fails the trial, re-opens, crosses the health
    //    threshold, and triggers failover + rewarm.
    h0.shutdown();
    h0.join();
    let dead_arms = arms_of(0, 3, 100);
    for (i, &arm) in dead_arms.iter().enumerate() {
        if i == 2 {
            std::thread::sleep(Duration::from_millis(80)); // past cooldown
        }
        let resp = fleet.forward(key_for_arm(arm), "/frontier", &body(arm));
        assert_eq!(resp.status, 200, "retried forward {i}: {}", resp.body);
    }
    assert!(fleet.failover_count() >= 1, "failover must have fired");

    // The rewarm pass runs on a background thread; wait for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.rewarmed_count() == 0 {
        assert!(Instant::now() < deadline, "rewarm never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // `rewarmed` is bumped just before the event is emitted; give the
    // rewarm thread a beat to finish the emit before closing the sink.
    std::thread::sleep(Duration::from_millis(100));

    fleet.stop();
    h1.shutdown();
    h1.join();
    hecmix_obs::uninstall();

    // Replay the JSONL stream and check every line against the schema.
    let text = std::fs::read_to_string(&path).expect("events file");
    let mut kinds = std::collections::HashMap::<&str, u64>::new();
    let mut breaker_edges = std::collections::HashSet::<(String, String)>::new();
    let mut saw_health_down = false;
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line ({e}): {line}"));
        let kind = Event::check_json(&v, LOOSE).unwrap_or_else(|e| panic!("{e}: {line}"));
        match kind {
            "replica_health_change" if v.get("healthy").and_then(Value::as_bool) == Some(false) => {
                saw_health_down = true;
            }
            "breaker_transition" => {
                let edge = |k: &str| v.get(k).and_then(Value::as_str).unwrap().to_owned();
                breaker_edges.insert((edge("from"), edge("to")));
            }
            _ => {}
        }
        *kinds.entry(kind).or_default() += 1;
    }

    for required in [
        "replica_health_change",
        "breaker_transition",
        "request_retry",
        "request_hedged",
        "failover_rewarm",
    ] {
        assert!(
            kinds.get(required).copied().unwrap_or(0) >= 1,
            "missing {required} in stream; saw {kinds:?}"
        );
    }
    // The breaker walked the full state machine, not just one edge.
    for edge in [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "open"),
    ] {
        assert!(
            breaker_edges.contains(&(edge.0.to_owned(), edge.1.to_owned())),
            "missing breaker edge {edge:?}; saw {breaker_edges:?}"
        );
    }
    assert!(saw_health_down, "no healthy=false replica_health_change");

    let _ = std::fs::remove_dir_all(&dir);
}
