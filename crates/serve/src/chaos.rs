//! Seeded chaos injection for the replica fleet.
//!
//! Robustness claims are only worth what their experiments can reproduce,
//! so fault injection here follows the PR-2 `FaultSchedule` design: a
//! [`ChaosSchedule`] is **data, not randomness at run time**. The builder
//! records impairment windows (kill, connection reset, fixed/bimodal
//! delay, black-hole) at fixed offsets from an epoch; the only use of the
//! seed is to pick deterministically *which* connections land on the slow
//! mode of a bimodal window. Two runs with the same seed and the same
//! builder calls produce byte-identical schedules ([`ChaosSchedule::to_json`]
//! is embedded in `BENCH_fleet.json` precisely so the artifact proves it).
//!
//! A [`ChaosProxy`] sits between the gateway and one replica as a plain
//! TCP forwarder and applies whatever windows are active at each moment:
//!
//! * `kill` — new connections are closed at accept and existing pumps cut,
//!   so the replica looks dead (probes fail, in-flight forwards error);
//! * `conn_reset` — new connections die at accept, established ones live;
//! * `delay` / `bimodal_delay` — upstream bytes are held back before
//!   relaying (the bimodal form makes every `slow_nth`-th connection much
//!   slower, which is the tail shape hedging exists to beat);
//! * `black_hole` — upstream bytes are swallowed entirely (the client
//!   sees a connected-but-silent peer, the worst failure mode for naive
//!   timeouts).
//!
//! The proxy re-evaluates windows per relayed chunk, so an impairment can
//! start and end in the middle of a keep-alive connection — a restart is
//! simply the end of a kill window.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hecmix_obs::json::Object;

use crate::router::splitmix64;
use crate::server::accept_until;

/// One impairment mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Replica appears dead: connections refused, existing ones cut.
    Kill,
    /// New connections are reset immediately after accept.
    ConnReset,
    /// Every relayed upstream chunk is held back by `ms`.
    Delay {
        /// Added latency, milliseconds.
        ms: u64,
    },
    /// Every `slow_nth`-th connection (seed-selected) gets `slow_ms` of
    /// added latency per chunk; the rest get `fast_ms`.
    BimodalDelay {
        /// Added latency on fast-mode connections, milliseconds.
        fast_ms: u64,
        /// Added latency on slow-mode connections, milliseconds.
        slow_ms: u64,
        /// One in `slow_nth` connections is slow.
        slow_nth: u32,
    },
    /// Upstream bytes are swallowed; the client sees silence.
    BlackHole,
}

impl ChaosKind {
    fn name(self) -> &'static str {
        match self {
            Self::Kill => "kill",
            Self::ConnReset => "conn_reset",
            Self::Delay { .. } => "delay",
            Self::BimodalDelay { .. } => "bimodal_delay",
            Self::BlackHole => "black_hole",
        }
    }
}

/// One scheduled impairment window `[from_s, to_s)` on one replica,
/// offsets in seconds from the run epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Replica index the window applies to.
    pub replica: usize,
    /// Window start, seconds from epoch.
    pub from_s: f64,
    /// Window end, seconds from epoch (`f64::INFINITY` = never ends).
    pub to_s: f64,
    /// The impairment.
    pub kind: ChaosKind,
}

impl ChaosEvent {
    fn active(&self, replica: usize, elapsed_s: f64) -> bool {
        self.replica == replica && elapsed_s >= self.from_s && elapsed_s < self.to_s
    }
}

/// A deterministic, seeded schedule of chaos windows. Built once, shared
/// (via `Arc`) by every [`ChaosProxy`] of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    seed: u64,
    events: Vec<ChaosEvent>,
}

fn assert_window(from_s: f64, to_s: f64) {
    assert!(
        from_s.is_finite() && from_s >= 0.0,
        "chaos window start must be finite and non-negative"
    );
    assert!(
        to_s > from_s,
        "chaos window must end after it starts ({from_s}..{to_s})"
    );
}

impl ChaosSchedule {
    /// An empty schedule with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// The schedule's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled windows, in builder order.
    #[must_use]
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Kill `replica` at `at_s`, forever (no restart).
    #[must_use]
    pub fn kill(self, replica: usize, at_s: f64) -> Self {
        self.kill_between(replica, at_s, f64::INFINITY)
    }

    /// Kill `replica` during `[from_s, to_s)`; the window's end is the
    /// restart.
    #[must_use]
    pub fn kill_between(mut self, replica: usize, from_s: f64, to_s: f64) -> Self {
        assert_window(from_s, to_s);
        self.events.push(ChaosEvent {
            replica,
            from_s,
            to_s,
            kind: ChaosKind::Kill,
        });
        self
    }

    /// Reset new connections to `replica` during `[from_s, to_s)`.
    #[must_use]
    pub fn conn_reset(mut self, replica: usize, from_s: f64, to_s: f64) -> Self {
        assert_window(from_s, to_s);
        self.events.push(ChaosEvent {
            replica,
            from_s,
            to_s,
            kind: ChaosKind::ConnReset,
        });
        self
    }

    /// Add `ms` of latency to `replica`'s responses during `[from_s, to_s)`.
    #[must_use]
    pub fn delay(mut self, replica: usize, from_s: f64, to_s: f64, ms: u64) -> Self {
        assert_window(from_s, to_s);
        self.events.push(ChaosEvent {
            replica,
            from_s,
            to_s,
            kind: ChaosKind::Delay { ms },
        });
        self
    }

    /// Bimodal latency on `replica` during `[from_s, to_s)`: one in
    /// `slow_nth` connections (picked by the seed) gets `slow_ms`, the
    /// rest `fast_ms`.
    ///
    /// # Panics
    /// Panics if `slow_nth` is zero or the window is malformed.
    #[must_use]
    pub fn bimodal_delay(
        mut self,
        replica: usize,
        from_s: f64,
        to_s: f64,
        fast_ms: u64,
        slow_ms: u64,
        slow_nth: u32,
    ) -> Self {
        assert_window(from_s, to_s);
        assert!(slow_nth > 0, "slow_nth must be at least 1");
        self.events.push(ChaosEvent {
            replica,
            from_s,
            to_s,
            kind: ChaosKind::BimodalDelay {
                fast_ms,
                slow_ms,
                slow_nth,
            },
        });
        self
    }

    /// Swallow `replica`'s responses during `[from_s, to_s)`.
    #[must_use]
    pub fn black_hole(mut self, replica: usize, from_s: f64, to_s: f64) -> Self {
        assert_window(from_s, to_s);
        self.events.push(ChaosEvent {
            replica,
            from_s,
            to_s,
            kind: ChaosKind::BlackHole,
        });
        self
    }

    /// Is a kill window active for `replica` at `elapsed_s`?
    #[must_use]
    pub fn kill_active(&self, replica: usize, elapsed_s: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == ChaosKind::Kill && e.active(replica, elapsed_s))
    }

    fn reset_active(&self, replica: usize, elapsed_s: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == ChaosKind::ConnReset && e.active(replica, elapsed_s))
    }

    fn black_hole_active(&self, replica: usize, elapsed_s: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == ChaosKind::BlackHole && e.active(replica, elapsed_s))
    }

    /// Whether connection number `conn` lands on the slow mode of a
    /// bimodal window with `slow_nth`. Pure function of (seed, conn), so
    /// two runs with the same seed slow the same connections.
    #[must_use]
    pub fn slow_conn(&self, conn: u64, slow_nth: u32) -> bool {
        splitmix64(self.seed ^ conn).is_multiple_of(u64::from(slow_nth))
    }

    /// Added latency for connection `conn` of `replica` at `elapsed_s`:
    /// the maximum over all active delay windows.
    #[must_use]
    pub fn delay_ms(&self, replica: usize, elapsed_s: f64, conn: u64) -> u64 {
        self.events
            .iter()
            .filter(|e| e.active(replica, elapsed_s))
            .map(|e| match e.kind {
                ChaosKind::Delay { ms } => ms,
                ChaosKind::BimodalDelay {
                    fast_ms,
                    slow_ms,
                    slow_nth,
                } => {
                    if self.slow_conn(conn, slow_nth) {
                        slow_ms
                    } else {
                        fast_ms
                    }
                }
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// The expanded schedule as one JSON object — embedded in
    /// `BENCH_fleet.json` so a run's artifact carries the exact fault
    /// script it survived (byte-identical per seed + builder calls).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.u64("seed", self.seed);
        let mut events = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                events.push(',');
            }
            let mut eo = Object::new();
            eo.u64("replica", e.replica as u64);
            eo.str("kind", e.kind.name());
            eo.f64("from_s", e.from_s);
            if e.to_s.is_finite() {
                eo.f64("to_s", e.to_s);
            }
            match e.kind {
                ChaosKind::Delay { ms } => eo.u64("ms", ms),
                ChaosKind::BimodalDelay {
                    fast_ms,
                    slow_ms,
                    slow_nth,
                } => {
                    eo.u64("fast_ms", fast_ms);
                    eo.u64("slow_ms", slow_ms);
                    eo.u64("slow_nth", u64::from(slow_nth));
                }
                _ => {}
            }
            events.push_str(&eo.finish());
        }
        events.push(']');
        o.raw("events", &events);
        o.finish()
    }
}

/// How often pump threads re-check stop flags and chaos windows while a
/// socket is quiet.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// An in-process chaos proxy fronting one replica: a TCP forwarder that
/// applies the schedule's active windows for its replica index.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Wakes the accept thread out of its wait on the listener.
    poller: Arc<poll::Poller>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and forward connections to `upstream`,
    /// impaired per `schedule` for `replica`, with windows measured from
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
    let mut conn_no = 0u64;
    accept_until(
        listener,
        poller,
        || stop.load(Ordering::Relaxed),
        |client| {
            let conn = conn_no;
            conn_no += 1;
            let elapsed = epoch.elapsed().as_secs_f64();
            if schedule.kill_active(replica, elapsed) || schedule.reset_active(replica, elapsed) {
                // Closing immediately after accept is the client-visible
                // "reset": the in-flight request dies with a broken read.
                return;
            }
            if let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_millis(500)) {
                spawn_pumps(replica, conn, client, server, schedule, epoch, stop);
            }
        },
    );
}

/// Two relay threads per connection (client→upstream and upstream→client).
/// They are detached: each exits within one [`PUMP_TICK`] of the stop flag,
/// a kill window, or either side closing (`Shutdown::Both` cuts the twin).
fn spawn_pumps(
    replica: usize,
    conn: u64,
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
    {
        // client → upstream: plain relay, cut on kill.
        let (schedule, stop) = (Arc::clone(schedule), Arc::clone(stop));
        let _ = std::thread::Builder::new()
            .name(format!("chaos-c2u-{replica}"))
            .spawn(move || {
                pump(
                    &schedule, replica, conn, epoch, &stop, client_r, server, false,
                );
            });
    }
    {
        // upstream → client: the impaired direction (delay, black-hole).
        let (schedule, stop) = (Arc::clone(schedule), Arc::clone(stop));
        let _ = std::thread::Builder::new()
            .name(format!("chaos-u2c-{replica}"))
            .spawn(move || {
                pump(
                    &schedule, replica, conn, epoch, &stop, server_r, client, true,
                );
            });
    }
}

#[allow(clippy::too_many_arguments)]
fn pump(
    schedule: &ChaosSchedule,
    replica: usize,
    conn: u64,
    epoch: Instant,
    stop: &AtomicBool,
    mut from: TcpStream,
    mut to: TcpStream,
    impaired: bool,
) {
    let _ = from.set_read_timeout(Some(PUMP_TICK));
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let elapsed = epoch.elapsed().as_secs_f64();
        if schedule.kill_active(replica, elapsed) {
            break;
        }
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if impaired {
                    let elapsed = epoch.elapsed().as_secs_f64();
                    if schedule.black_hole_active(replica, elapsed) {
                        continue; // swallowed
                    }
                    let ms = schedule.delay_ms(replica, elapsed, conn);
                    if ms > 0 {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
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

    fn sample_schedule(seed: u64) -> ChaosSchedule {
        ChaosSchedule::new(seed)
            .kill_between(1, 2.0, 3.5)
            .conn_reset(0, 0.5, 0.75)
            .delay(2, 1.0, 4.0, 30)
            .bimodal_delay(0, 1.0, 2.0, 1, 80, 4)
            .black_hole(2, 5.0, 6.0)
    }

    #[test]
    fn schedule_replays_bit_identically_per_seed() {
        assert_eq!(sample_schedule(42).to_json(), sample_schedule(42).to_json());
        assert_ne!(sample_schedule(42).to_json(), sample_schedule(43).to_json());
    }

    #[test]
    fn windows_are_half_open_and_per_replica() {
        let s = ChaosSchedule::new(7).kill_between(1, 2.0, 3.0);
        assert!(!s.kill_active(1, 1.99));
        assert!(s.kill_active(1, 2.0));
        assert!(s.kill_active(1, 2.99));
        assert!(!s.kill_active(1, 3.0), "restart at window end");
        assert!(!s.kill_active(0, 2.5), "other replicas untouched");
    }

    #[test]
    fn forever_kill_never_restarts() {
        let s = ChaosSchedule::new(7).kill(0, 1.0);
        assert!(s.kill_active(0, 1e9));
    }

    #[test]
    fn bimodal_selection_is_deterministic_and_seed_dependent() {
        let a = ChaosSchedule::new(1);
        let b = ChaosSchedule::new(1);
        let c = ChaosSchedule::new(2);
        let slow_a: Vec<bool> = (0..64).map(|n| a.slow_conn(n, 4)).collect();
        let slow_b: Vec<bool> = (0..64).map(|n| b.slow_conn(n, 4)).collect();
        let slow_c: Vec<bool> = (0..64).map(|n| c.slow_conn(n, 4)).collect();
        assert_eq!(slow_a, slow_b, "same seed, same slow connections");
        assert_ne!(slow_a, slow_c, "different seed reshuffles the slow set");
        let slow_count = slow_a.iter().filter(|&&s| s).count();
        assert!(
            (4..=28).contains(&slow_count),
            "roughly 1-in-4 slow, got {slow_count}/64"
        );
    }

    #[test]
    fn delay_takes_the_worst_active_window() {
        let s = ChaosSchedule::new(0)
            .delay(0, 0.0, 10.0, 20)
            .delay(0, 5.0, 10.0, 50);
        assert_eq!(s.delay_ms(0, 1.0, 0), 20);
        assert_eq!(s.delay_ms(0, 6.0, 0), 50);
        assert_eq!(s.delay_ms(0, 11.0, 0), 0);
        assert_eq!(s.delay_ms(1, 6.0, 0), 0);
    }

    #[test]
    fn to_json_names_every_kind() {
        let j = sample_schedule(9).to_json();
        for kind in ["kill", "conn_reset", "delay", "bimodal_delay", "black_hole"] {
            assert!(j.contains(kind), "{kind} missing from {j}");
        }
        assert!(!j.contains("inf"), "infinite windows must omit to_s: {j}");
    }
}
