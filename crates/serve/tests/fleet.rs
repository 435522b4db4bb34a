//! Replica-fleet integration: a real gateway daemon routing over real
//! replica daemons, all on ephemeral ports in-process.
//!
//! Five claims, each proven over live sockets:
//!
//! 1. **Partitioning** — consistent hashing over the plan-cache key sends
//!    each key to exactly one replica, so the fleet's LRUs hold disjoint
//!    shards and a warm round hits everywhere.
//! 2. **Failover + rewarm** — killing a replica never surfaces to
//!    clients, and the displaced hot keys come back warm on their new
//!    owners (the failover→first-rehit watch records it).
//! 3. **Crash under drain** — a replica dies abruptly (chaos proxy kill)
//!    while the gateway is draining; every in-flight client still gets a
//!    `200`.
//! 4. **Hedging** — a slow owner is raced by a hedge to another replica
//!    after the configured delay, and the hedge wins.
//! 5. **Keep-alive pools** — sequential forwards share one upstream
//!    connection, a pooled connection the replica retired while idle is
//!    redone on a fresh one without counting as a failure, and a tripped
//!    breaker empties its replica's pool.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_serve::api::ComputeSpec;
use hecmix_serve::chaos::{ChaosProxy, ChaosSchedule};
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

struct Replica {
    handle: Option<ServerHandle>,
    state: Arc<AppState>,
}

impl Replica {
    fn addr(&self) -> String {
        self.handle
            .as_ref()
            .expect("replica alive")
            .addr()
            .to_string()
    }

    fn kill(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// A replica that retires keep-alive connections idle past `read_timeout`.
fn boot_replica(read_timeout: Duration) -> Replica {
    let state = Arc::new(AppState::new(build_store(), 2, 256));
    let config = ServeConfig {
        io_threads: 2,
        workers: 2,
        max_connections: 256,
        queue_capacity: 64,
        read_timeout,
        queue_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("replica starts");
    Replica {
        handle: Some(handle),
        state,
    }
}

fn boot_replicas(n: usize) -> Vec<Replica> {
    (0..n)
        .map(|_| boot_replica(Duration::from_secs(5)))
        .collect()
}

/// Fleet over `addrs` with fast probes and hedging effectively disabled
/// (the hedging test overrides the hedge window itself).
fn fleet_config(addrs: Vec<String>) -> FleetConfig {
    FleetConfig {
        replicas: addrs,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        hedge_min: Duration::from_secs(5),
        hedge_max: Duration::from_secs(5),
        ..FleetConfig::default()
    }
}

fn boot_gateway(fleet: &Arc<Fleet>) -> ServerHandle {
    let state = Arc::new(AppState::new_gateway(build_store(), 2, Arc::clone(fleet)));
    let config = ServeConfig {
        io_threads: 2,
        workers: 8,
        max_connections: 256,
        queue_capacity: 128,
        read_timeout: Duration::from_secs(10),
        queue_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    start(config, state).expect("gateway starts")
}

fn connect(handle: &ServerHandle) -> TcpStream {
    http::dial(handle.addr(), Duration::from_secs(30)).expect("connect")
}

fn body(arm: u32) -> String {
    format!(r#"{{"workload":"ep","arm":{arm},"amd":5}}"#)
}

/// The plan-cache key the gateway derives for [`body`]`(arm)` — same
/// model bundles, same spec, so routing in tests is predictable.
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

/// Replica `idx`'s row of the fleet's `/statz` object.
fn member(fleet: &Fleet, idx: usize) -> Value {
    let statz = json::parse(&fleet.statz_object()).expect("statz JSON");
    statz
        .get("members")
        .and_then(Value::as_array)
        .expect("members array")[idx]
        .clone()
}

fn member_u64(fleet: &Fleet, idx: usize, field: &str) -> u64 {
    member(fleet, idx)
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("member {idx} has no {field}"))
}

fn breaker(fleet: &Fleet, idx: usize) -> String {
    member(fleet, idx)
        .get("breaker")
        .and_then(Value::as_str)
        .expect("breaker state")
        .to_owned()
}

/// `(status, cached)` of one `/frontier` exchange on a keep-alive conn.
fn frontier(conn: &mut TcpStream, body: &str) -> (u16, bool) {
    let answer = http::exchange(conn, "POST", "/frontier", body).expect("response");
    let v = json::parse(std::str::from_utf8(&answer.body).expect("UTF-8")).expect("JSON");
    let cached = v.get("cached").and_then(Value::as_bool).unwrap_or(false);
    (answer.status, cached)
}

#[test]
fn gateway_partitions_the_cache_across_replicas_by_key() {
    let replicas = boot_replicas(3);
    let fleet = Arc::new(
        Fleet::new(fleet_config(replicas.iter().map(Replica::addr).collect())).expect("fleet"),
    );
    fleet.start_probing();
    let gateway = boot_gateway(&fleet);
    let mut conn = connect(&gateway);

    // Round 1: cold. Every distinct key computes exactly once, on the
    // replica the ring assigns it.
    for arm in 1..=12 {
        let (status, cached) = frontier(&mut conn, &body(arm));
        assert_eq!(status, 200, "arm {arm} round 1");
        assert!(!cached, "arm {arm} must be cold on round 1");
    }
    // Round 2: warm. The same keys route to the same replicas, whose LRUs
    // now hold them — the fleet behaves as one partitioned cache.
    for arm in 1..=12 {
        let (status, cached) = frontier(&mut conn, &body(arm));
        assert_eq!(status, 200, "arm {arm} round 2");
        assert!(cached, "arm {arm} must hit the partitioned cache");
    }

    // Ground truth: computes landed exactly where the ring says the keys
    // live, and the key space genuinely spread across the fleet.
    let mut expected = [0u64; 3];
    for arm in 1..=12 {
        expected[fleet.owner(key_for_arm(arm))] += 1;
    }
    let computed: Vec<u64> = replicas
        .iter()
        .map(|r| r.state.metrics.computes.load(Ordering::Relaxed))
        .collect();
    assert_eq!(
        computed,
        expected.to_vec(),
        "computes must match ring ownership"
    );
    assert!(
        expected.iter().filter(|&&n| n > 0).count() >= 2,
        "12 keys must spread across at least 2 replicas: {expected:?}"
    );

    gateway.shutdown();
    gateway.join();
    fleet.stop();
    for mut r in replicas {
        r.kill();
    }
}

#[test]
fn replica_death_triggers_failover_and_rewarms_displaced_keys() {
    let mut replicas = boot_replicas(3);
    let fleet = Arc::new(
        Fleet::new(fleet_config(replicas.iter().map(Replica::addr).collect())).expect("fleet"),
    );
    fleet.start_probing();
    let gateway = boot_gateway(&fleet);
    let mut conn = connect(&gateway);

    // Warm twelve keys so every replica holds a shard of the hot set.
    for arm in 1..=12 {
        assert_eq!(frontier(&mut conn, &body(arm)).0, 200);
    }

    // Kill the owner of arm 1 and note every key it was holding.
    let victim = fleet.owner(key_for_arm(1));
    let displaced: Vec<u32> = (1..=12)
        .filter(|&arm| fleet.owner(key_for_arm(arm)) == victim)
        .collect();
    assert!(!displaced.is_empty());
    replicas[victim].kill();

    // Live traffic keeps flowing while health converges: not one
    // client-visible error, even for keys the dead replica owned.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut arm = 100;
    while fleet.failover_count() == 0 {
        assert!(Instant::now() < deadline, "replica death never detected");
        let (status, _) = frontier(&mut conn, &body(arm));
        assert_eq!(
            status, 200,
            "client saw an error during the failover window"
        );
        arm += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.healthy_count() != 2 {
        assert!(Instant::now() < deadline, "health never converged to 2/3");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The displaced keys come back warm on their new owners — the rewarm
    // closed the cold-start cliff the crash opened.
    let deadline = Instant::now() + Duration::from_secs(10);
    for &arm in &displaced {
        loop {
            let (status, cached) = frontier(&mut conn, &body(arm));
            assert_eq!(status, 200, "displaced arm {arm} must stay answerable");
            if cached {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "displaced arm {arm} never came back warm"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(fleet.rewarmed_count() >= 1, "hot keys were re-warmed");
    assert!(
        fleet.first_rehit_ms().is_some(),
        "failover→first-rehit must be recorded once a displaced key hits"
    );

    gateway.shutdown();
    gateway.join();
    fleet.stop();
    for mut r in replicas {
        r.kill();
    }
}

#[test]
fn replica_crash_during_gateway_drain_answers_every_client() {
    // The abrupt version: the victim replica sits behind a chaos proxy
    // whose schedule kills it 300 ms in — mid-compute for
    // the 600 ms sweeps below — and the gateway starts draining while
    // those requests are still in the air. Every client must still get a
    // definitive 200: retries run during drain, never shed.
    let replicas = boot_replicas(3);
    for r in &replicas {
        r.state.set_compute_delay(Duration::from_millis(600));
    }
    let victim = 1;
    let schedule = Arc::new(ChaosSchedule::new(9).kill(victim, 0.3));
    let epoch = Instant::now();
    let victim_addr = replicas[victim]
        .handle
        .as_ref()
        .expect("victim alive")
        .addr();
    let proxy =
        ChaosProxy::start(victim, victim_addr, Arc::clone(&schedule), epoch).expect("proxy");

    let addrs: Vec<String> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i == victim {
                proxy.addr().to_string()
            } else {
                r.addr()
            }
        })
        .collect();
    let fleet = Arc::new(Fleet::new(fleet_config(addrs)).expect("fleet"));
    fleet.start_probing();
    let gateway = boot_gateway(&fleet);

    // Two keys owned by the victim, two by survivors — all cold, so all
    // four compute for 600 ms while the kill window opens under them.
    let mut owned_by_victim = Vec::new();
    let mut owned_by_others = Vec::new();
    for arm in 20.. {
        if fleet.owner(key_for_arm(arm)) == victim {
            if owned_by_victim.len() < 2 {
                owned_by_victim.push(arm);
            }
        } else if owned_by_others.len() < 2 {
            owned_by_others.push(arm);
        }
        if owned_by_victim.len() == 2 && owned_by_others.len() == 2 {
            break;
        }
    }
    let arms: Vec<u32> = owned_by_victim.into_iter().chain(owned_by_others).collect();

    let t0 = Instant::now();
    let statuses = std::thread::scope(|s| {
        let clients: Vec<_> = arms
            .iter()
            .map(|&arm| {
                let gateway = &gateway;
                s.spawn(move || {
                    let mut conn = connect(gateway);
                    frontier(&mut conn, &body(arm)).0
                })
            })
            .collect();
        // Let the requests reach the replicas, then drain the gateway
        // while the victim's computes are still pending the reset.
        std::thread::sleep(Duration::from_millis(150));
        gateway.shutdown();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<u16>>()
    });
    for (arm, status) in arms.iter().zip(&statuses) {
        assert_eq!(*status, 200, "arm {arm} must be answered during drain");
    }
    assert!(
        fleet.retry_count() >= 1,
        "the victim's reset connections must have been retried"
    );
    gateway.join();
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "drain with a crashed replica must still terminate promptly"
    );

    fleet.stop();
    drop(proxy);
    for mut r in replicas {
        r.kill();
    }
}

#[test]
fn hedged_request_beats_a_slow_owner() {
    let replicas = boot_replicas(2);
    let mut cfg = fleet_config(replicas.iter().map(Replica::addr).collect());
    cfg.hedge_min = Duration::from_millis(50);
    cfg.hedge_max = Duration::from_millis(50);
    let fleet = Arc::new(Fleet::new(cfg).expect("fleet"));
    fleet.start_probing();

    // Find a key the slow replica owns, then make its owner pathologically
    // slow. The hedge fires at 50 ms and the other replica answers.
    let slow_arm = (1..)
        .find(|&arm| fleet.owner(key_for_arm(arm)) == 0)
        .expect("some arm");
    replicas[0].state.set_compute_delay(Duration::from_secs(2));

    let t0 = Instant::now();
    let resp = fleet.forward(key_for_arm(slow_arm), "/frontier", &body(slow_arm));
    let elapsed = t0.elapsed();
    assert_eq!(
        resp.status, 200,
        "hedged request must succeed: {}",
        resp.body
    );
    assert!(
        elapsed < Duration::from_millis(1900),
        "the hedge must beat the 2 s owner, took {elapsed:?}"
    );
    assert!(fleet.hedge_count() >= 1, "a hedge must have fired");

    fleet.stop();
    for mut r in replicas {
        r.kill();
    }
}

#[test]
fn pooled_connection_the_replica_retired_is_redone_without_a_failure() {
    // The replica retires keep-alive connections idle for 200 ms, so the
    // second forward finds a pooled connection the replica has closed.
    let mut replica = boot_replica(Duration::from_millis(200));
    let fleet = Arc::new(Fleet::new(fleet_config(vec![replica.addr()])).expect("fleet"));

    assert_eq!(
        fleet.forward(key_for_arm(1), "/frontier", &body(1)).status,
        200
    );
    assert_eq!(fleet.pooled(0), 1, "the first forward pools its connection");
    // Past the idle timeout and the replica's sweep period.
    std::thread::sleep(Duration::from_millis(1200));

    let resp = fleet.forward(key_for_arm(1), "/frontier", &body(1));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(fleet.retry_count(), 0, "the keep-alive race is not a retry");
    assert_eq!(member_u64(&fleet, 0, "failures"), 0, "nor a health failure");
    assert_eq!(breaker(&fleet, 0), "closed", "nor a breaker failure");
    assert_eq!(
        member_u64(&fleet, 0, "connects"),
        2,
        "the retired connection was redone on a fresh one"
    );

    replica.kill();
}

#[test]
fn forwards_share_one_pooled_connection_until_the_breaker_trips() {
    let mut replica = boot_replica(Duration::from_secs(5));
    let mut cfg = fleet_config(vec![replica.addr()]);
    // Only the breaker reacts to failures here, so it alone must evict.
    cfg.fail_threshold = 1_000;
    let fleet = Arc::new(Fleet::new(cfg).expect("fleet"));

    // No prober: the forwards are the only upstream traffic.
    for i in 0..50 {
        let arm = 1 + i % 5;
        let resp = fleet.forward(key_for_arm(arm), "/frontier", &body(arm));
        assert_eq!(resp.status, 200, "forward {i}: {}", resp.body);
    }
    assert_eq!(
        member_u64(&fleet, 0, "connects"),
        1,
        "50 sequential forwards open exactly one upstream connection"
    );
    assert_eq!(member_u64(&fleet, 0, "forwards"), 50);
    assert_eq!(fleet.pooled(0), 1);

    // Kill the replica and let failing probes trip its breaker; the
    // pooled connection must go with it.
    replica.kill();
    fleet.start_probing();
    let deadline = Instant::now() + Duration::from_secs(10);
    while breaker(&fleet, 0) != "open" {
        assert!(Instant::now() < deadline, "the breaker never tripped");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(fleet.pooled(0), 0, "a tripped breaker empties the pool");

    fleet.stop();
}
