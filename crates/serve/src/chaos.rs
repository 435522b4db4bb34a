//! Seeded replica crashes for the fleet.
//!
//! Robustness claims are only worth what their experiments can reproduce,
//! so fault injection here follows the PR-2 `FaultSchedule` design: a
//! [`ChaosSchedule`] is **data, not randomness at run time**. The builder
//! records kills at fixed offsets from an epoch, and the schedule carries
//! the run's seed. Two runs with the same seed and the same builder calls
//! produce byte-identical schedules ([`ChaosSchedule::to_json`] is
//! embedded in `BENCH_fleet.json` precisely so the artifact proves it).
//!
//! A [`ChaosProxy`] sits between the gateway and one replica as a plain
//! TCP forwarder. Once a kill of its replica starts, it closes new
//! connections at accept and cuts the ones it is relaying, so the replica
//! looks dead: probes fail and in-flight forwards error. A kill never
//! ends. The proxy checks the schedule per relayed chunk, so a kill lands
//! in the middle of a keep-alive connection.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hecmix_obs::json::Object;

use crate::server::accept_until;

/// A deterministic, seeded schedule of replica kills. Built once, shared
/// (via `Arc`) by every [`ChaosProxy`] of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    seed: u64,
    /// `(replica, at_s)` per kill, in builder order.
    kills: Vec<(usize, f64)>,
}

impl ChaosSchedule {
    /// An empty schedule with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            kills: Vec::new(),
        }
    }

    /// Kill `replica` at `at_s` seconds from the epoch, forever (no
    /// restart).
    ///
    /// # Panics
    /// Panics if `at_s` is negative or not finite.
    #[must_use]
    pub fn kill(mut self, replica: usize, at_s: f64) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "chaos kill offset must be finite and non-negative"
        );
        self.kills.push((replica, at_s));
        self
    }

    /// Is `replica` killed at `elapsed_s`?
    #[must_use]
    pub fn kill_active(&self, replica: usize, elapsed_s: f64) -> bool {
        self.kills
            .iter()
            .any(|&(r, at_s)| r == replica && elapsed_s >= at_s)
    }

    /// The schedule as one JSON object — embedded in `BENCH_fleet.json`
    /// so a run's artifact carries the exact fault script it survived
    /// (byte-identical per seed + builder calls).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.u64("seed", self.seed);
        let mut events = String::from("[");
        for (i, &(replica, at_s)) in self.kills.iter().enumerate() {
            if i > 0 {
                events.push(',');
            }
            let mut eo = Object::new();
            eo.u64("replica", replica as u64);
            eo.str("kind", "kill");
            eo.f64("from_s", at_s);
            events.push_str(&eo.finish());
        }
        events.push(']');
        o.raw("events", &events);
        o.finish()
    }
}

/// How often pump threads re-check stop flags and the schedule while a
/// socket is quiet.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// An in-process chaos proxy fronting one replica: a TCP forwarder that
/// goes dark once the schedule kills its replica.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Wakes the accept thread out of its wait on the listener.
    poller: Arc<poll::Poller>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and forward connections to `upstream`
    /// until `schedule` kills `replica`, with kill offsets measured from
    /// `epoch`.
    ///
    /// # Errors
    /// Propagates bind/spawn I/O errors.
    pub fn start(
        replica: usize,
        upstream: SocketAddr,
        schedule: Arc<ChaosSchedule>,
        epoch: Instant,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let poller = Arc::new(poll::Poller::new()?);
        let accept = {
            let (stop, poller) = (Arc::clone(&stop), Arc::clone(&poller));
            std::thread::Builder::new()
                .name(format!("chaos-proxy-{replica}"))
                .spawn(move || {
                    accept_loop(
                        &listener, &poller, replica, upstream, &schedule, epoch, &stop,
                    );
                })?
        };
        Ok(Self {
            addr,
            stop,
            poller,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address (what the gateway should dial).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    poller: &poll::Poller,
    replica: usize,
    upstream: SocketAddr,
    schedule: &Arc<ChaosSchedule>,
    epoch: Instant,
    stop: &Arc<AtomicBool>,
) {
    accept_until(
        listener,
        poller,
        || stop.load(Ordering::Relaxed),
        |client| {
            if schedule.kill_active(replica, epoch.elapsed().as_secs_f64()) {
                // Closing immediately after accept is the client-visible
                // "reset": the in-flight request dies with a broken read.
                return;
            }
            if let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_millis(500)) {
                spawn_pumps(replica, client, server, schedule, epoch, stop);
            }
        },
    );
}

/// Two relay threads per connection (client→upstream and upstream→client).
/// They are detached: each exits within one [`PUMP_TICK`] of the stop flag,
/// a kill, or either side closing (`Shutdown::Both` cuts the twin).
fn spawn_pumps(
    replica: usize,
    client: TcpStream,
    server: TcpStream,
    schedule: &Arc<ChaosSchedule>,
    epoch: Instant,
    stop: &Arc<AtomicBool>,
) {
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    for (dir, from, to) in [("c2u", client_r, server), ("u2c", server_r, client)] {
        let (schedule, stop) = (Arc::clone(schedule), Arc::clone(stop));
        let _ = std::thread::Builder::new()
            .name(format!("chaos-{dir}-{replica}"))
            .spawn(move || pump(&schedule, replica, epoch, &stop, from, to));
    }
}

/// Relay `from` to `to` until either side closes, the proxy stops, or the
/// schedule kills `replica`.
fn pump(
    schedule: &ChaosSchedule,
    replica: usize,
    epoch: Instant,
    stop: &AtomicBool,
    mut from: TcpStream,
    mut to: TcpStream,
) {
    let _ = from.set_read_timeout(Some(PUMP_TICK));
    let mut chunk = [0u8; 4096];
    while !stop.load(Ordering::Relaxed)
        && !schedule.kill_active(replica, epoch.elapsed().as_secs_f64())
    {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&chunk[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Cut both directions so the twin pump (and the peer) unblock.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_starts_at_its_offset_on_its_replica_only() {
        let s = ChaosSchedule::new(7).kill(1, 2.0);
        assert!(!s.kill_active(1, 1.99));
        assert!(s.kill_active(1, 2.0));
        assert!(s.kill_active(1, 2.99));
        assert!(!s.kill_active(0, 2.5), "other replicas untouched");
    }

    #[test]
    fn forever_kill_never_restarts() {
        let s = ChaosSchedule::new(7).kill(0, 1.0);
        assert!(s.kill_active(0, 1e9));
    }

    #[test]
    fn kill_schedule_json_is_pinned() {
        // `BENCH_fleet.json` embeds this object, so its bytes are part of
        // the artifact: the seed, then each kill with no end.
        assert_eq!(
            ChaosSchedule::new(42).kill(1, 2.0).to_json(),
            r#"{"seed":42,"events":[{"replica":1,"kind":"kill","from_s":2.0}]}"#
        );
        assert_eq!(
            ChaosSchedule::new(9).kill(0, 0.5).kill(2, 3.25).to_json(),
            r#"{"seed":9,"events":[{"replica":0,"kind":"kill","from_s":0.5},{"replica":2,"kind":"kill","from_s":3.25}]}"#
        );
    }
}
