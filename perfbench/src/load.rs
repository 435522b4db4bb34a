//! Client load: a closed loop (each client waits for its answer before
//! sending again) and an open loop (requests leave on a fixed schedule and
//! are timed from when they were due).
//!
//! Tickets are handed out from one shared counter and each ticket maps to
//! one generated request, so the request stream does not depend on how
//! the client threads interleave.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::rig::{connect, exchange};
use crate::trace::{Span, Tracer};

/// One answered (or failed) request, kept compact: a warm run records
/// hundreds of thousands.
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs {
    /// Endpoint class (see [`crate::report::Endpoint`]).
    pub class: u8,
    /// Whether the answer says it came from the plan cache.
    pub cached: bool,
    /// Client-observed latency, ns (open loop: from the scheduled send).
    pub lat_ns: u32,
    /// Generator lateness, ns: open loop, actual minus scheduled send;
    /// closed loop, the client's own gap between an answer and its next
    /// send.
    pub late_ns: u32,
    /// Server-reported `compute_us`, or [`Obs::NO_COMPUTE`].
    pub compute_us: u32,
    /// Slice of the phase the request was sent in.
    pub slice: u16,
    /// Whether it was answered `200 OK`.
    pub ok: bool,
}

impl Obs {
    /// `compute_us` of an answer that carries none.
    pub const NO_COMPUTE: u32 = u32::MAX;

    /// The server-reported compute time, if the answer carried one.
    #[must_use]
    pub fn compute_us(&self) -> Option<u32> {
        (self.compute_us != Self::NO_COMPUTE).then_some(self.compute_us)
    }
}

fn clamp_u32(x: u128) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// Closed-loop answers per second one client can record without its
/// buffer growing.
const CLOSED_OBS_PER_S: f64 = 25_000.0;

/// An observation buffer with room for `cap` entries whose pages are all
/// touched up front, so the process's memory high-water mark does not
/// depend on how many requests a run happened to complete.
fn obs_buffer(cap: usize) -> Vec<Obs> {
    let mut v = vec![
        Obs {
            lat_ns: 1,
            ..Obs::default()
        };
        cap
    ];
    v.clear();
    v
}

/// An answer kept for the answer check: `(ticket, status, body)`.
pub type Kept = (u64, u16, Vec<u8>);

/// One load phase's outcome.
#[derive(Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// `200 OK` answers.
    pub ok: u64,
    /// Non-200 answers and transport errors.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Every request's observation, one buffer per client (merging them
    /// would cost memory in proportion to the requests answered).
    pub chunks: Vec<Vec<Obs>>,
    /// Bodies kept for the answer check.
    pub kept: Vec<Kept>,
    /// Client spans, when traced.
    pub spans: Vec<Span>,
    /// Wall time of each slice, seconds.
    pub slice_s: Vec<f64>,
}

impl Phase {
    /// Add another client's counts and observations to this phase.
    fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.chunks.extend(other.chunks);
        self.kept.extend(other.kept);
        self.spans.extend(other.spans);
    }

    /// Every observation.
    pub fn obs(&self) -> impl Iterator<Item = &Obs> + '_ {
        self.chunks.iter().flatten()
    }
}

/// A request for a ticket: `(endpoint class, wire bytes)`.
pub type Gen<'a> = dyn Fn(u64) -> (u8, Vec<u8>) + Sync + 'a;
/// Whether to keep a ticket's answer for the answer check.
pub type Keep<'a> = dyn Fn(u64) -> bool + Sync + 'a;

/// Pull `"key":<digits>` out of a JSON body without parsing it.
#[must_use]
pub fn field_u64(body: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.windows(pat.len()).position(|w| w == pat.as_bytes())? + pat.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

fn observe(body: &[u8]) -> (Option<u64>, bool) {
    let cached = body.windows(13).any(|w| w == b"\"cached\":true");
    (field_u64(body, "compute_us"), cached)
}

/// Sleep until `spin` before `due`, then yield until it: a plain sleep
/// overshoots by the scheduler's wake-up latency, which the open loop
/// would report as generator lateness.
fn wait_until(due: Instant, spin: Duration) {
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Where a traced client's span ids start: a fresh block of 2^22 ids for
/// every client tracer of the run (block 0 is the layer pass's).
fn span_base() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed) << 22
}

/// How a measured phase is cut into slices (reported one by one, so a run
/// shows how steady the machine was while it measured).
#[derive(Debug, Clone, Copy)]
pub struct Slicing {
    /// Number of slices.
    pub slices: usize,
    /// Length of one slice.
    pub slice: Duration,
    /// Record client spans in odd slices, against this epoch.
    pub trace_odd: Option<Instant>,
}

impl Slicing {
    /// One untraced slice of `dur` (warmups).
    #[must_use]
    pub fn single(dur: Duration) -> Self {
        Self {
            slices: 1,
            slice: dur,
            trace_odd: None,
        }
    }

    fn tracer(&self, k: usize) -> Option<Tracer> {
        self.trace_odd
            .filter(|_| k % 2 == 1)
            .map(|e| Tracer::new(e, span_base()))
    }
}

/// One request as it leaves, with what [`one`] records beside its answer.
struct Sent<'a> {
    ticket: u64,
    class: u8,
    wire: &'a [u8],
    /// When it was due (open loop) or sent (closed loop): latency's origin.
    due: Instant,
    late_ns: u32,
    slice: u16,
    keep: bool,
}

/// One request/response on `conn`, observed; `None` on a transport error
/// (the caller reconnects).
fn one(
    out: &mut Phase,
    obs_buf: &mut Vec<Obs>,
    tracer: Option<&mut Tracer>,
    conn: &mut TcpStream,
    req: &Sent<'_>,
) -> Option<()> {
    let Sent {
        ticket,
        class,
        wire,
        due,
        late_ns,
        slice,
        keep,
    } = *req;
    let result = match tracer {
        Some(t) => t.span("client.request", ticket, |t| {
            t.enter("client.exchange", ticket);
            let r = exchange(conn, wire);
            t.exit();
            r
        }),
        None => exchange(conn, wire),
    };
    let lat_ns = clamp_u32(due.elapsed().as_nanos());
    out.sent += 1;
    let mut obs = Obs {
        class,
        cached: false,
        lat_ns,
        late_ns,
        compute_us: Obs::NO_COMPUTE,
        slice,
        ok: false,
    };
    match result {
        Ok((status, body)) => {
            if status == 200 {
                out.ok += 1;
                obs.ok = true;
            } else {
                out.failed += 1;
            }
            let (compute_us, cached) = observe(&body);
            obs.cached = cached;
            obs.compute_us = compute_us.map_or(Obs::NO_COMPUTE, |c| {
                u32::try_from(c).unwrap_or(Obs::NO_COMPUTE - 1)
            });
            obs_buf.push(obs);
            if keep {
                out.kept.push((ticket, status, body));
            }
            Some(())
        }
        Err(_) => {
            out.failed += 1;
            obs_buf.push(obs);
            None
        }
    }
}

/// Closed loop: `clients` threads, one keep-alive connection each, over
/// the slices of `cut`. Tickets come from `tickets`.
#[must_use]
pub fn closed(
    addr: SocketAddr,
    clients: usize,
    cut: Slicing,
    tickets: &AtomicU64,
    gen: &Gen<'_>,
    keep: &Keep<'_>,
) -> Phase {
    let go = Barrier::new(clients + 1);
    let done = Barrier::new(clients + 1);
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (go, done) = (&go, &done);
                s.spawn(move || {
                    let mut out = Phase::default();
                    let mut obs = obs_buffer(
                        (CLOSED_OBS_PER_S * cut.slice.as_secs_f64() * cut.slices as f64) as usize,
                    );
                    let mut conn = connect(addr).ok();
                    for k in 0..cut.slices {
                        let mut tracer = cut.tracer(k);
                        go.wait();
                        let deadline = Instant::now() + cut.slice;
                        let mut prev_end: Option<Instant> = None;
                        while let Some(c) = conn.as_mut() {
                            if Instant::now() >= deadline {
                                break;
                            }
                            let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                            let (class, wire) = gen(ticket);
                            let sent_at = Instant::now();
                            let late_ns =
                                prev_end.map_or(0, |p| clamp_u32((sent_at - p).as_nanos()));
                            let sent = Sent {
                                ticket,
                                class,
                                wire: &wire,
                                due: sent_at,
                                late_ns,
                                slice: k as u16,
                                keep: keep(ticket),
                            };
                            let ok = one(&mut out, &mut obs, tracer.as_mut(), c, &sent);
                            prev_end = Some(Instant::now());
                            if ok.is_none() {
                                conn = connect(addr).ok();
                            }
                        }
                        if conn.is_none() {
                            out.failed += 1;
                            out.sent += 1;
                        }
                        if let Some(t) = tracer {
                            out.spans.extend(t.spans);
                        }
                        done.wait();
                    }
                    out.chunks.push(obs);
                    out
                })
            })
            .collect();
        for _ in 0..cut.slices {
            go.wait();
            let t = Instant::now();
            done.wait();
            total.slice_s.push(t.elapsed().as_secs_f64());
        }
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total.wall_s = total.slice_s.iter().sum();
    total
}

/// Open loop: within each slice of `cut`, tickets leave at `rate` per
/// second, round-robin over `conns` keep-alive connections, each timed
/// from when it was due. Every answer is kept. Returns the phase and the
/// next ticket.
#[must_use]
pub fn open(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    cut: Slicing,
    first: u64,
    gen: &Gen<'_>,
) -> (Phase, u64) {
    let per_slice = (rate * cut.slice.as_secs_f64()).floor() as u64;
    let count = per_slice * cut.slices as u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let slot = |k: u64| t0 + cut.slice * k as u32;
    // A fifth of each connection's gap between sends, at most 1 ms.
    let spin = Duration::from_secs_f64(conns as f64 / rate / 5.0).min(Duration::from_millis(1));
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Phase::default();
                    let mut obs = obs_buffer(count.div_ceil(conns as u64) as usize);
                    let mut conn = connect(addr).ok();
                    let mut tracer: Option<Tracer> = None;
                    let mut j = c as u64;
                    while j < count {
                        let (k, i) = (j / per_slice, j % per_slice);
                        if i < conns as u64 {
                            // First ticket of a slice on this connection.
                            if let Some(t) = tracer.take() {
                                out.spans.extend(t.spans);
                            }
                            tracer = cut.tracer(k as usize);
                        }
                        let ticket = first + j;
                        let (class, wire) = gen(ticket);
                        let due = slot(k) + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due, spin);
                        let late_ns =
                            clamp_u32(Instant::now().saturating_duration_since(due).as_nanos());
                        let Some(cn) = conn.as_mut() else {
                            out.failed += 1;
                            out.sent += 1;
                            j += conns as u64;
                            continue;
                        };
                        let sent = Sent {
                            ticket,
                            class,
                            wire: &wire,
                            due,
                            late_ns,
                            slice: k as u16,
                            keep: true,
                        };
                        if one(&mut out, &mut obs, tracer.as_mut(), cn, &sent).is_none() {
                            conn = connect(addr).ok();
                        }
                        j += conns as u64;
                    }
                    if let Some(t) = tracer {
                        out.spans.extend(t.spans);
                    }
                    out.chunks.push(obs);
                    out
                })
            })
            .collect();
        total.slice_s = vec![cut.slice.as_secs_f64(); cut.slices];
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total.wall_s = total.slice_s.iter().sum();
    (total, first + count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_u64_reads_digits_after_the_key() {
        let body = br#"{"cached":true,"coalesced":false,"compute_us":1234}"#;
        assert_eq!(field_u64(body, "compute_us"), Some(1234));
        assert_eq!(field_u64(body, "missing"), None);
        assert_eq!(observe(body), (Some(1234), true));
    }
}
