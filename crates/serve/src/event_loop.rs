//! The readiness-based I/O loop: one thread, many connections.
//!
//! Each loop owns a `poll(2)`-backed [`poll::Poller`] and a map of
//! nonblocking connections keyed by a loop-local, monotonically increasing
//! token. The loop's whole job is bounded-time plumbing:
//!
//! 1. wait for readiness (or a mailbox notify from the accept thread or
//!    compute pool),
//! 2. drain the mailbox — register new connections, write out computed
//!    responses for parked waiters,
//! 3. for each readable connection, read to `WouldBlock`, incrementally
//!    parse ([`http::try_parse`]), and route: cache hits and reads are
//!    answered in place, cache misses join the single-flight registry and
//!    *park* the connection (`busy`, fd stays registered) while the pool
//!    computes,
//! 4. flush partially written responses when sockets become writable,
//! 5. periodically retire idle keep-alive connections.
//!
//! Tokens are never reused, so a response delivered for a connection that
//! has since closed (for example a coalescing leader that hung up
//! mid-compute) simply misses the map and is dropped — no dangling-socket
//! hazard, no stranded follower.
//!
//! During drain the loop answers everything already parsed or in flight
//! (with `Connection: close`), sheds *new* computes with 503 so the job
//! queue can empty, closes idle connections, and exits once its map is
//! empty.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_obs::{emit, Event};

use crate::api::{PendingCompute, Routed};
use crate::http::{self, Response};
use crate::server::{FlightWaiter, Job, Msg, Shared, Waiter};

/// How often the idle sweep runs.
const SWEEP_EVERY: Duration = Duration::from_millis(500);
/// Poll timeout: the liveness backstop for shutdown and idle sweeps.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a request.
    buf_in: Vec<u8>,
    /// The response being written, when the socket pushed back.
    buf_out: Vec<u8>,
    out_pos: usize,
    /// A request from this connection is parked on the compute pool; no
    /// further requests are parsed until its answer is delivered.
    busy: bool,
    /// Close once `buf_out` is fully flushed.
    close_after: bool,
    /// The current request asked for `Connection: close`.
    close_requested: bool,
    last_active: Instant,
    /// When `buf_in` started holding a *partial* request (slowloris
    /// guard): `None` whenever the input buffer is empty, reset on every
    /// parse. A peer trickling a header one byte at a time keeps
    /// `last_active` fresh forever — this deadline does not refresh.
    head_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf_in: Vec::new(),
            buf_out: Vec::new(),
            out_pos: 0,
            busy: false,
            close_after: false,
            close_requested: false,
            last_active: Instant::now(),
            head_since: None,
        }
    }
}

/// Entry point for one I/O thread.
pub(crate) fn io_loop(shared: &Shared, idx: usize) {
    IoLoop {
        idx,
        shared,
        conns: HashMap::new(),
        next_token: 0,
        events: Vec::new(),
        last_sweep: Instant::now(),
    }
    .run();
}

struct IoLoop<'a> {
    idx: usize,
    shared: &'a Shared,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    events: Vec<poll::Event>,
    last_sweep: Instant,
}

enum FlushOutcome {
    /// Everything written; back to read interest.
    Done,
    /// The socket pushed back; wait for writability.
    Pending,
    /// Write failure or flush of a closing response.
    Close,
}

impl IoLoop<'_> {
    fn poller(&self) -> &poll::Poller {
        &self.shared.loops[self.idx].poller
    }

    fn run(&mut self) {
        loop {
            if self.shared.shutting_down() {
                self.drain_tick();
                if self.conns.is_empty() {
                    break;
                }
            }
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller().wait(&mut events, Some(WAIT_TIMEOUT));
            self.events = events;
            let draining = self.shared.shutting_down();

            let msgs = self.shared.loops[self.idx].take();
            let (n_events, n_msgs) = (self.events.len(), msgs.len());
            if n_events > 0 || n_msgs > 0 {
                let io_thread = self.idx;
                emit(|| Event::EventLoopWakeup {
                    io_thread,
                    events: n_events,
                    messages: n_msgs,
                });
            }
            for msg in msgs {
                self.on_msg(msg, draining);
            }
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.on_event(*ev, draining);
            }
            self.events = events;
            self.sweep_idle(draining);
        }
    }

    /// One drain pass: force-process anything already buffered (answer or
    /// shed it), then retire every connection with nothing in flight.
    fn drain_tick(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.on_readable(token, true);
        }
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && c.buf_out.is_empty())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close(token);
        }
    }

    fn on_msg(&mut self, msg: Msg, draining: bool) {
        match msg {
            Msg::Conn(stream) => {
                if draining {
                    // Admitted by the accept thread just before the flag
                    // flipped; refuse rather than start new work.
                    self.shared
                        .state
                        .metrics
                        .connections
                        .fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                let token = self.next_token;
                self.next_token += 1;
                if self
                    .poller()
                    .add(&stream, poll::Event::readable(token))
                    .is_err()
                {
                    self.shared
                        .state
                        .metrics
                        .connections
                        .fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                self.conns.insert(token, Conn::new(stream));
            }
            Msg::Response {
                token,
                resp,
                start,
                path,
                cached,
            } => {
                if !self.conns.contains_key(&token) {
                    // The waiter's connection died mid-compute (leader or
                    // follower — tokens are never reused, so this is the
                    // only thing a stale token can mean). Discard.
                    return;
                }
                let state = Arc::clone(&self.shared.state);
                state.record_done(self.idx, path, &resp, start.elapsed(), cached);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.busy = false;
                }
                self.send(token, resp, draining);
            }
        }
    }

    fn on_event(&mut self, ev: poll::Event, draining: bool) {
        if !self.conns.contains_key(&ev.key) {
            return;
        }
        if ev.writable {
            let pending = self
                .conns
                .get(&ev.key)
                .is_some_and(|c| !c.buf_out.is_empty());
            if pending {
                self.flush(ev.key, draining);
            }
        }
        if ev.readable {
            self.on_readable(ev.key, draining);
        }
    }

    /// Read everything the kernel has, then try to make progress parsing.
    fn on_readable(&mut self, token: usize, draining: bool) {
        let mut closed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf_in.extend_from_slice(&chunk[..n]);
                        conn.last_active = Instant::now();
                        if conn.buf_in.len() > http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES {
                            // A peer streaming garbage without ever forming
                            // a request does not get unbounded memory.
                            closed = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if !conn.buf_in.is_empty() && conn.head_since.is_none() {
                conn.head_since = Some(Instant::now());
            }
        }
        if closed {
            self.close(token);
            return;
        }
        self.pump(token, draining);
    }

    /// Parse and handle buffered requests until the connection parks,
    /// pushes back, or runs out of complete requests.
    fn pump(&mut self, token: usize, draining: bool) {
        loop {
            let parsed = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.busy || !conn.buf_out.is_empty() || conn.buf_in.is_empty() {
                    return;
                }
                match http::try_parse(&conn.buf_in) {
                    Ok(Some((req, consumed))) => {
                        conn.buf_in.drain(..consumed);
                        // A complete request resets the slowloris clock;
                        // pipelined leftovers start a fresh deadline.
                        conn.head_since = (!conn.buf_in.is_empty()).then(Instant::now);
                        conn.close_requested = req.wants_close();
                        Ok(req)
                    }
                    Ok(None) => return,
                    Err(msg) => Err(msg),
                }
            };
            match parsed {
                Ok(req) => self.handle_request(token, &req, draining),
                Err(msg) => {
                    let mut resp = Response::error(400, &msg);
                    resp.close = true;
                    self.send(token, resp, draining);
                    return;
                }
            }
        }
    }

    fn handle_request(&mut self, token: usize, req: &http::Request, draining: bool) {
        let start = Instant::now();
        let state = Arc::clone(&self.shared.state);
        let queue_depth = state.metrics.queue_depth.load(Ordering::Relaxed);
        {
            let path = req.path.clone();
            emit(move || Event::RequestStart { path, queue_depth });
        }
        let shared = self.shared;
        match state.route(req) {
            Routed::Ready { resp, cached } => {
                state.record_done(self.idx, &req.path, &resp, start.elapsed(), cached);
                self.send(token, resp, draining);
            }
            Routed::Compute(pc) => self.park(token, start, pc.ctx.path(), draining, |waiter| {
                // A miss joins its key's single flight, and only the
                // flight's leader queues the compute.
                let PendingCompute {
                    key,
                    spec,
                    store,
                    ctx,
                } = pc;
                let path = waiter.path;
                let flight_store = Arc::clone(&store);
                let leader = shared.flight.join_with(key, |leader| FlightWaiter {
                    waiter,
                    ctx,
                    store: flight_store,
                    coalesced: !leader,
                });
                if leader {
                    return Some(Job::Compute { key, spec, store });
                }
                state.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                emit(|| Event::RequestCoalesced {
                    path: path.to_owned(),
                    key,
                });
                None
            }),
            Routed::Forward(pf) => self.park(token, start, pf.path, draining, |waiter| {
                Some(Job::Forward(waiter, pf))
            }),
            Routed::Reload => self.park(token, start, "/reload", draining, |waiter| {
                Some(Job::Reload(waiter))
            }),
        }
    }

    /// Park a request bound for the compute pool until its answer comes
    /// back through the mailbox: hand its waiter to `job`, and queue the
    /// job that returns (none for a compute follower). During drain it is
    /// shed at once instead.
    fn park(
        &mut self,
        token: usize,
        start: Instant,
        path: &'static str,
        draining: bool,
        job: impl FnOnce(Waiter) -> Option<Job>,
    ) {
        if draining {
            self.shed_now(token, start, path, draining);
            return;
        }
        let waiter = Waiter {
            loop_idx: self.idx,
            token,
            path,
            start,
        };
        if let Some(job) = job(waiter) {
            self.shared.enqueue(job);
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.busy = true;
        }
    }

    /// Answer a compute-needing request with 503 during drain, without
    /// touching the (already draining) job queue.
    fn shed_now(&mut self, token: usize, start: Instant, path: &'static str, draining: bool) {
        let state = Arc::clone(&self.shared.state);
        state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        let retry_after_s = self.shared.config.retry_after_s;
        let queue_depth = self.shared.jobs.depth();
        emit(|| Event::RequestRejected {
            queue_depth,
            retry_after_s,
        });
        let mut resp = Response::error(503, "draining");
        resp.retry_after_s = Some(retry_after_s);
        resp.close = true;
        state.record_done(self.idx, path, &resp, start.elapsed(), false);
        self.send(token, resp, draining);
    }

    /// Queue `resp` on the connection and write as much as the socket
    /// takes right now.
    fn send(&mut self, token: usize, mut resp: Response, draining: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if draining || conn.close_requested {
            resp.close = true;
        }
        conn.close_after = resp.close;
        conn.buf_out = resp.to_bytes();
        conn.out_pos = 0;
        self.flush(token, draining);
    }

    fn flush(&mut self, token: usize, draining: bool) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut outcome = FlushOutcome::Done;
            while conn.out_pos < conn.buf_out.len() {
                match conn.stream.write(&conn.buf_out[conn.out_pos..]) {
                    Ok(0) => {
                        outcome = FlushOutcome::Close;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_active = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        outcome = FlushOutcome::Pending;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        outcome = FlushOutcome::Close;
                        break;
                    }
                }
            }
            if matches!(outcome, FlushOutcome::Done) {
                conn.buf_out.clear();
                conn.out_pos = 0;
                if conn.close_after {
                    outcome = FlushOutcome::Close;
                }
            }
            outcome
        };
        match outcome {
            FlushOutcome::Close => self.close(token),
            FlushOutcome::Pending => {
                if let Some(conn) = self.conns.get(&token) {
                    let _ = self.poller().modify(&conn.stream, poll::Event::all(token));
                }
            }
            FlushOutcome::Done => {
                if let Some(conn) = self.conns.get(&token) {
                    let _ = self
                        .poller()
                        .modify(&conn.stream, poll::Event::readable(token));
                }
                // A pipelined follow-up may already be buffered.
                self.pump(token, draining);
            }
        }
    }

    /// Retire keep-alive connections idle past the read timeout. During
    /// drain this also bounds how long a stuck peer (parked compute whose
    /// client never reads) can hold up exit.
    fn sweep_idle(&mut self, draining: bool) {
        if self.last_sweep.elapsed() < SWEEP_EVERY {
            return;
        }
        self.last_sweep = Instant::now();
        // Slowloris guard: a connection that has held a partial request
        // head past the deadline is answered 408 and closed. (`busy` and
        // pending-write connections are excluded — they are making
        // progress elsewhere.)
        let head_deadline = self.shared.config.head_deadline;
        let slow: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.busy
                    && c.buf_out.is_empty()
                    && c.head_since.is_some_and(|t| t.elapsed() > head_deadline)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in slow {
            self.shared
                .state
                .metrics
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            let mut resp = Response::error(408, "timed out waiting for request head");
            resp.close = true;
            self.send(token, resp, draining);
        }
        let timeout = self.shared.config.read_timeout;
        let stale: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.last_active.elapsed() > timeout && (draining || (!c.busy && c.buf_out.is_empty()))
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller().delete(&conn.stream);
            self.shared
                .state
                .metrics
                .connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}
