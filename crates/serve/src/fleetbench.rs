//! The fleet chaos bench: boot replicas behind chaos proxies, crash one
//! mid-load, and *prove* the gateway absorbed it.
//!
//! This is the closed loop that turns the fleet layer's claims into a
//! gated artifact. One [`run`] call:
//!
//! 1. boots `replicas` in-process daemons, each with its own copy of the
//!    model store (ephemeral ports, tiny compute pools);
//! 2. wraps every replica in a [`crate::chaos::ChaosProxy`] driven by a
//!    seeded [`crate::chaos::ChaosSchedule`] — by default, a hard kill of
//!    one replica at `kill_at_s` that never lifts;
//! 3. boots a gateway routing across the *proxy* addresses;
//! 4. drives the gateway with loadgen (closed loop, `arm_sweep` so the
//!    key space spreads across the ring) for `duration_s`;
//! 5. gates: **zero client-visible errors**, a minimum success count, a
//!    bounded p99/p50 tail ratio, at least one observed failover, and at
//!    most one fresh upstream connection per ten forwards (the pools are
//!    in use);
//! 6. encodes everything (chaos schedule included, byte-identical per
//!    seed) as the `hecmix-bench-fleet-v1` JSON artifact.
//!
//! The schedule JSON in the artifact is the replay contract: the same
//! seed and scenario re-produce the same injected faults at the same
//! offsets, so a failed CI run can be re-run locally bit-for-bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_obs::json::Object;

use crate::api::{AppState, ReloadFn};
use crate::chaos::{ChaosProxy, ChaosSchedule};
use crate::fleet::{Fleet, FleetConfig};
use crate::loadgen::{self, LoadgenConfig};
use crate::server::{self, ServeConfig};

/// Gate: fresh upstream connections per forwarded request. Forwards ride
/// pooled keep-alive connections, so only pool fills, keep-alive races
/// and the crash should connect; a ratio, not a time, so the gate holds
/// on any runner.
const MAX_CONNECTS_PER_FORWARD: f64 = 0.1;

/// Scenario knobs for one fleet chaos run.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Replica daemons to boot.
    pub replicas: usize,
    /// Which replica the default scenario kills.
    pub kill_replica: usize,
    /// When the kill fires, seconds after the proxies come up.
    pub kill_at_s: f64,
    /// Chaos + retry-jitter seed (same seed → same injected faults).
    pub seed: u64,
    /// Steady-state load duration, seconds.
    pub duration_s: f64,
    /// Loadgen warmup exclusion, seconds.
    pub warmup_s: f64,
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Distinct `arm` values loadgen sweeps (distinct cache keys).
    pub arm_sweep: u32,
    /// Gate: maximum p99/p50 tail ratio (0 disables).
    pub max_tail_ratio: f64,
    /// Gate: minimum successful requests.
    pub min_ok: u64,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        Self {
            replicas: 3,
            kill_replica: 1,
            kill_at_s: 2.0,
            seed: 42,
            duration_s: 5.0,
            warmup_s: 0.5,
            concurrency: 8,
            arm_sweep: 8,
            max_tail_ratio: 0.0,
            min_ok: 100,
        }
    }
}

/// What one fleet chaos run produced.
pub struct FleetBenchOutcome {
    /// The `hecmix-bench-fleet-v1` artifact.
    pub json: String,
    /// Human-readable run summary.
    pub summary: String,
    /// `Ok` if every gate held, `Err` listing every violation.
    pub gate: Result<(), String>,
}

/// Run the scripted-crash scenario end to end. `build_store` is invoked
/// once per replica plus once for the gateway, so every daemon serves the
/// same model bundles (which is what makes the gateway's routing keys
/// equal the replicas' cache keys).
///
/// # Errors
/// Setup failures only (store build, bind, resolve). Gate violations are
/// reported in [`FleetBenchOutcome::gate`], never as an `Err` — the
/// artifact is always produced.
pub fn run(cfg: &FleetBenchConfig, build_store: &ReloadFn) -> Result<FleetBenchOutcome, String> {
    let replicas = cfg.replicas.max(1);
    let kill_replica = cfg.kill_replica.min(replicas - 1);

    // 1. Replica daemons.
    let mut handles = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let state = Arc::new(AppState::new(build_store()?, 2, 256));
        let sc = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            io_threads: 2,
            workers: 2,
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        handles.push(server::start(sc, state).map_err(|e| format!("replica boot: {e}"))?);
    }

    // 2. Chaos proxies, all sharing one epoch. The kill offset is
    //    measured from this instant; setup between here and load start is
    //    recorded as skew so the artifact stays honest.
    let schedule = Arc::new(ChaosSchedule::new(cfg.seed).kill(kill_replica, cfg.kill_at_s));
    let epoch = Instant::now();
    let mut proxies = Vec::with_capacity(replicas);
    for (idx, handle) in handles.iter().enumerate() {
        let proxy = ChaosProxy::start(idx, handle.addr(), Arc::clone(&schedule), epoch)
            .map_err(|e| format!("chaos proxy {idx}: {e}"))?;
        proxies.push(proxy);
    }

    // 3. Gateway over the proxy addresses.
    let fleet_cfg = FleetConfig {
        replicas: proxies.iter().map(|p| p.addr().to_string()).collect(),
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(250),
        seed: cfg.seed,
        ..FleetConfig::default()
    };
    let fleet = Arc::new(Fleet::new(fleet_cfg).map_err(|e| format!("fleet: {e}"))?);
    fleet.start_probing();
    let gateway_state = Arc::new(AppState::new_gateway(build_store()?, 2, Arc::clone(&fleet)));
    let gw_cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        io_threads: 2,
        workers: 8,
        queue_capacity: 128,
        queue_deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let gateway = server::start(gw_cfg, gateway_state).map_err(|e| format!("gateway boot: {e}"))?;

    // 4. Load through the gateway.
    let load_cfg = LoadgenConfig {
        addr: gateway.addr().to_string(),
        concurrency: cfg.concurrency,
        duration_s: Some(cfg.duration_s),
        warmup_s: cfg.warmup_s,
        arm_sweep: Some(cfg.arm_sweep.max(1)),
        ..LoadgenConfig::default()
    };
    let setup_skew_s = epoch.elapsed().as_secs_f64();
    let report = loadgen::run(&load_cfg);

    // 5. Gates.
    let failovers = fleet.failover_count();
    let first_rehit_ms = fleet.first_rehit_ms();
    let mut problems = Vec::new();
    if let Err(e) = report.gate(cfg.max_tail_ratio, cfg.min_ok) {
        problems.push(e);
    }
    if failovers == 0 {
        problems.push("chaos killed a replica but no failover was observed".to_owned());
    }
    let (connects, forwards) = (fleet.connect_count(), fleet.forward_count());
    if connects as f64 > MAX_CONNECTS_PER_FORWARD * forwards as f64 {
        problems.push(format!(
            "{connects} upstream connects for {forwards} forwards: above \
             {MAX_CONNECTS_PER_FORWARD} per forward, so forwards are not reusing \
             pooled connections"
        ));
    }
    let gate = if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    };

    // 6. Artifact, then teardown.
    let mut o = Object::new();
    o.str("schema", "hecmix-bench-fleet-v1");
    o.u64("seed", cfg.seed);
    o.u64("replicas", replicas as u64);
    o.u64("kill_replica", kill_replica as u64);
    o.f64("kill_at_s", cfg.kill_at_s);
    o.f64("setup_skew_s", setup_skew_s);
    o.raw("chaos", &schedule.to_json());
    o.raw("load", &report.to_json(&load_cfg));
    o.raw("fleet", &fleet.statz_object());
    o.bool("gate_ok", gate.is_ok());
    let json = o.finish();

    let summary = format!(
        "fleet bench: {} replicas, killed replica {} at t={:.1}s (seed {}): \
         {} ok, {} errors, {} retries, {} hedges, {} upstream connects for {} forwards, \
         {} failovers, {} rewarmed, first rehit {} — {}",
        replicas,
        kill_replica,
        cfg.kill_at_s,
        cfg.seed,
        report.ok,
        report.errors,
        fleet.retry_count(),
        fleet.hedge_count(),
        connects,
        forwards,
        failovers,
        fleet.rewarmed_count(),
        first_rehit_ms.map_or("n/a".to_owned(), |ms| format!("{ms:.1} ms")),
        if gate.is_ok() { "PASS" } else { "FAIL" },
    );

    gateway.shutdown();
    gateway.join();
    fleet.stop();
    drop(proxies);
    for handle in handles {
        handle.shutdown();
        handle.join();
    }

    Ok(FleetBenchOutcome {
        json,
        summary,
        gate,
    })
}
