//! Set-up and tear-down of the daemons under test, plus the small blocking
//! HTTP client the scrapes and probes use.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_experiments::lab::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_serve::fleet::{Fleet, FleetConfig};
use hecmix_serve::{AppState, ModelStore, OnlineSched, SchedParams, ServeConfig, ServerHandle};

/// Replicas behind the gateway.
pub const REPLICAS: usize = 3;
/// Virtual nodes per replica on the gateway's ring (the fleet default).
pub const VNODES: usize = 64;
/// Plan-cache entries per replica (the `hecmix serve` default).
pub const CACHE_ENTRIES: usize = 256;
/// Replica threads: one I/O loop, one compute worker.
pub const REPLICA_IO: usize = 1;
/// See [`REPLICA_IO`].
pub const REPLICA_WORKERS: usize = 1;
/// Gateway threads: one I/O loop, two forward workers.
pub const GATEWAY_IO: usize = 1;
/// See [`GATEWAY_IO`].
pub const GATEWAY_WORKERS: usize = 2;

/// The model store `hecmix serve` builds without `--models`: every paper
/// workload characterized by a fresh [`Lab`].
#[must_use]
pub fn build_store() -> ModelStore {
    let lab = Lab::new();
    let mut store = ModelStore::new();
    for w in hecmix_workloads::all_workloads() {
        store.insert(w.name(), lab.models(w.as_ref()).to_vec());
    }
    store
}

fn replica_state(store: ModelStore) -> Result<Arc<AppState>, String> {
    let sched = OnlineSched::from_store(&store, &SchedParams::default())
        .map_err(|e| format!("scheduler: {e}"))?;
    let state = Arc::new(AppState::new(store, REPLICA_IO, CACHE_ENTRIES));
    state.set_sched(Arc::new(sched));
    Ok(state)
}

fn serve_config(io_threads: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        io_threads,
        workers,
        ..ServeConfig::default()
    }
}

/// Running daemons for one workload.
pub struct Rig {
    /// Replica daemons (one, or [`REPLICAS`] behind a gateway).
    pub replicas: Vec<ServerHandle>,
    /// The gateway and its fleet, for the `gateway` workload.
    pub gateway: Option<(ServerHandle, Arc<Fleet>)>,
    /// Seconds spent building model stores.
    pub models_s: f64,
    /// Seconds from the first `start` to the last `/healthz` answer.
    pub boot_s: f64,
    /// Seconds from the start of set-up to every daemon answering.
    pub setup_s: f64,
}

impl Rig {
    /// Build stores, boot `replicas` replica daemons (and a gateway over
    /// them when `gateway`), and wait until every daemon answers
    /// `/healthz`.
    ///
    /// # Errors
    /// Any boot or health-check failure.
    pub fn boot(replicas: usize, gateway: bool) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut models_s = 0.0;
        let mut stores = Vec::new();
        for _ in 0..replicas + usize::from(gateway) {
            let t = Instant::now();
            stores.push(build_store());
            models_s += t.elapsed().as_secs_f64();
        }
        let boot0 = Instant::now();
        let mut handles = Vec::new();
        for store in stores.drain(..replicas) {
            let state = replica_state(store)?;
            handles.push(
                hecmix_serve::start(serve_config(REPLICA_IO, REPLICA_WORKERS), state)
                    .map_err(|e| format!("replica boot: {e}"))?,
            );
        }
        let gateway = match stores.pop() {
            Some(store) => {
                let fleet = Arc::new(
                    Fleet::new(FleetConfig {
                        replicas: handles.iter().map(|h| h.addr().to_string()).collect(),
                        vnodes: VNODES,
                        ..FleetConfig::default()
                    })
                    .map_err(|e| format!("fleet: {e}"))?,
                );
                fleet.start_probing();
                let state = Arc::new(AppState::new_gateway(store, GATEWAY_IO, Arc::clone(&fleet)));
                let handle = hecmix_serve::start(serve_config(GATEWAY_IO, GATEWAY_WORKERS), state)
                    .map_err(|e| format!("gateway boot: {e}"))?;
                Some((handle, fleet))
            }
            None => None,
        };
        let rig = Self {
            replicas: handles,
            gateway,
            models_s,
            boot_s: 0.0,
            setup_s: 0.0,
        };
        for addr in rig.daemons() {
            wait_healthy(addr)?;
        }
        Ok(Self {
            boot_s: boot0.elapsed().as_secs_f64(),
            setup_s: t0.elapsed().as_secs_f64(),
            ..rig
        })
    }

    /// Every daemon's address, replicas first.
    #[must_use]
    pub fn daemons(&self) -> Vec<SocketAddr> {
        let mut out: Vec<SocketAddr> = self.replicas.iter().map(ServerHandle::addr).collect();
        if let Some((g, _)) = &self.gateway {
            out.push(g.addr());
        }
        out
    }

    /// Where client traffic goes: the gateway if there is one, else the
    /// single replica.
    #[must_use]
    pub fn target(&self) -> SocketAddr {
        match &self.gateway {
            Some((g, _)) => g.addr(),
            None => self.replicas[0].addr(),
        }
    }

    /// Drain and stop every daemon (gateway first) and the fleet prober.
    pub fn stop(self) {
        if let Some((g, fleet)) = self.gateway {
            g.shutdown();
            g.join();
            fleet.stop();
        }
        for h in self.replicas {
            h.shutdown();
            h.join();
        }
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if matches!(get(addr, "/healthz"), Ok((200, _))) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} did not answer /healthz"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Open a client connection with the benchmark's socket options.
///
/// # Errors
/// Connect failures.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(20)))?;
    Ok(s)
}

/// One request/response exchange on `conn`: `(status, body)`.
///
/// # Errors
/// Transport failures and malformed responses.
pub fn exchange(conn: &mut TcpStream, wire: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    conn.write_all(wire)?;
    let (status, _headers, body) = hecmix_serve::http::read_response(conn)?;
    Ok((status, body))
}

/// `GET path` on a fresh connection.
///
/// # Errors
/// Transport failures.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut c = connect(addr)?;
    exchange(
        &mut c,
        hecmix_serve::http::format_request("GET", path, "").as_bytes(),
    )
}

/// `GET path` parsed as JSON.
///
/// # Errors
/// Transport failures, non-200 answers and malformed JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let (status, body) = get(addr, path).map_err(|e| format!("{path}: {e}"))?;
    if status != 200 {
        return Err(format!("{path}: status {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| format!("{path}: not UTF-8"))?;
    json::parse(text).map_err(|e| format!("{path}: {e}"))
}

/// A number at a `/`-separated path inside a JSON value (0 when absent).
#[must_use]
pub fn num(v: &Value, path: &str) -> f64 {
    let mut cur = v;
    for part in path.split('/') {
        match cur.get(part) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// The process's peak resident set, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
