//! The daemon: accept thread, readiness-based I/O loops, compute pool.
//!
//! Threading model (one picture):
//!
//! ```text
//!              ┌──────────┐  round-robin   ┌───────────────┐
//!  TCP ───────▶│  accept  │ ─────────────▶ │  I/O loop 0…I │◀── poll(2) readiness
//!  clients     │  thread  │  > max conns   │ (nonblocking, │     over every
//!              └──────────┘  → 503 + R-A   │  many conns)  │     registered conn
//!                                          └──────┬────────┘
//!                             cache miss → single-flight join
//!                                          ┌──────▼────────┐
//!                                          │ bounded job   │  full? → 503
//!                                          │ queue + cv    │
//!                                          └──────┬────────┘
//!                                          ┌──────▼────────┐
//!                                          │ compute 0…W   │ → result fans out to
//!                                          └───────────────┘   every parked waiter
//!                                                              via the loop mailbox
//! ```
//!
//! * The **accept thread** is the admission controller: past
//!   `max_connections` it answers `503 Service Unavailable` with
//!   `Retry-After` itself, so overload is visible to clients immediately.
//!   Admitted sockets are made nonblocking and round-robined across the
//!   I/O loops. Between connections it waits in `poll(2)` on the
//!   listener, so a new connection is accepted the moment it arrives.
//! * Each **I/O loop** (the private `event_loop` module) multiplexes hundreds to
//!   thousands of keep-alive connections over one `poll(2)` registration
//!   set. Everything it does is bounded-time: parse, cache lookup, format,
//!   buffered writes. A connection whose request misses the plan cache is
//!   *parked* (marked busy, fd stays registered) and its compute goes to
//!   the pool — the loop never blocks on a sweep.
//! * Concurrent misses on the same cache key **coalesce**
//!   ([`crate::singleflight`]): the first joiner enqueues one job, later
//!   joiners just park. The pool computes once and the result is fanned
//!   out to every waiter through its loop's mailbox. Waiters are
//!   addressed by loop + token, never by socket, so a waiter (even the
//!   leader) disconnecting mid-compute is discarded at delivery without
//!   affecting the rest of the flight.
//! * The **compute pool** pulls from a bounded job queue (a full queue
//!   503s the whole flight immediately — backpressure, not backlog) and
//!   sheds jobs that waited past `queue_deadline`, through the same
//!   `Shared::shed`. `POST /reload` runs here too, so a model rebuild +
//!   cache warm never stalls an I/O loop, and so does a gateway's forward,
//!   which blocks through retries and hedges.
//! * **Shutdown** is a relaxed [`AtomicBool`] plus a wakeup broadcast: the
//!   accept thread closes the listener, I/O loops answer whatever is
//!   parsed or in flight (with `Connection: close`), shed new computes,
//!   and retire idle connections; the pool drains every queued job so no
//!   parked waiter is ever stranded. [`ServerHandle::join`] returns when
//!   every thread is gone.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hecmix_obs::{emit, Event};

use crate::api::{self, AppState, ComputeSpec, PendingForward, RespCtx};
use crate::fleet;
use crate::http::Response;
use crate::singleflight::SingleFlight;
use crate::store::ModelStore;

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `HOST:PORT` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Readiness-driven I/O threads; each multiplexes its share of the
    /// connections.
    pub io_threads: usize,
    /// Compute-pool threads (plan sweeps and reloads).
    pub workers: usize,
    /// Open-connection cap; beyond it, admission control rejects.
    pub max_connections: usize,
    /// Bounded compute-job queue capacity; a full queue 503s new misses.
    pub queue_capacity: usize,
    /// Idle timeout: keep-alive connections quiet for longer are retired.
    pub read_timeout: Duration,
    /// Slowloris guard: a connection holding a *partial* request head for
    /// longer than this is answered `408` and closed (idle keep-alive
    /// connections with empty buffers get the full `read_timeout`).
    pub head_deadline: Duration,
    /// Compute jobs that waited longer than this in the queue are shed
    /// with a 503 instead of computed (their clients have likely timed
    /// out anyway).
    pub queue_deadline: Duration,
    /// `Retry-After` seconds advertised on 503 rejections.
    pub retry_after_s: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self {
            addr: "127.0.0.1:0".to_owned(),
            io_threads: cpus.min(2),
            workers: cpus.min(8),
            max_connections: 1024,
            queue_capacity: 256,
            read_timeout: Duration::from_secs(5),
            head_deadline: Duration::from_secs(2),
            queue_deadline: Duration::from_secs(2),
            retry_after_s: 1,
        }
    }
}

/// A message to an I/O loop (new connection, or a computed response for a
/// parked waiter).
pub(crate) enum Msg {
    /// A freshly admitted nonblocking connection.
    Conn(TcpStream),
    /// A finished response for the waiter parked under `token`.
    Response {
        /// The loop-local connection token.
        token: usize,
        /// The fully formatted response.
        resp: Response,
        /// When the request started (for latency accounting).
        start: Instant,
        /// Endpoint path (for telemetry).
        path: &'static str,
        /// Whether the answer came from the cache.
        cached: bool,
    },
}

/// One I/O loop's inbox plus the poller that wakes it.
pub(crate) struct Mailbox {
    msgs: Mutex<Vec<Msg>>,
    pub(crate) poller: poll::Poller,
}

impl Mailbox {
    fn new(poller: poll::Poller) -> Self {
        Self {
            msgs: Mutex::new(Vec::new()),
            poller,
        }
    }

    pub(crate) fn send(&self, msg: Msg) {
        self.msgs.lock().expect("mailbox poisoned").push(msg);
        let _ = self.poller.notify();
    }

    pub(crate) fn take(&self) -> Vec<Msg> {
        std::mem::take(&mut *self.msgs.lock().expect("mailbox poisoned"))
    }
}

/// A request parked on the compute pool: where to deliver its answer.
/// Holds no socket — delivery to a token whose connection has since
/// closed is a no-op.
pub(crate) struct Waiter {
    pub(crate) loop_idx: usize,
    pub(crate) token: usize,
    pub(crate) path: &'static str,
    pub(crate) start: Instant,
}

/// A waiter on a compute flight, with what it needs to format the
/// flight's one plan as its own answer.
pub(crate) struct FlightWaiter {
    pub(crate) waiter: Waiter,
    pub(crate) ctx: RespCtx,
    pub(crate) store: Arc<ModelStore>,
    pub(crate) coalesced: bool,
}

/// Work for the compute pool.
pub(crate) enum Job {
    /// One single-flight plan computation; completion fans out to every
    /// waiter registered under `key`.
    Compute {
        key: u64,
        spec: ComputeSpec,
        store: Arc<ModelStore>,
    },
    /// A model reload + cache warm, answered to one waiter.
    Reload(Waiter),
    /// Gateway mode: forward one request through the fleet (blocking
    /// through retries and hedges), answered to one waiter.
    Forward(Waiter, PendingForward),
}

/// Bounded MPMC job queue for the compute pool; each job carries the
/// instant it was queued.
pub(crate) struct JobQueue {
    q: Mutex<VecDeque<(Job, Instant)>>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `job`, or hand it back if the queue is at capacity.
    // The large Err is the point: a shed job returns to the caller so the
    // waiter inside it can be answered 503 — boxing would be pure churn.
    #[allow(clippy::result_large_err)]
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.q.lock().expect("job queue poisoned");
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back((job, Instant::now()));
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeue the next job and when it was queued; `None` once shutdown
    /// is flagged **and** the queue is empty (pop-before-check, so jobs
    /// pushed right before the flag are still drained and no waiter is
    /// stranded).
    fn pop(&self, shutdown: &AtomicBool) -> Option<(Job, Instant)> {
        let mut q = self.q.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            // The timeout is a liveness backstop against a lost
            // notification; the condvar is the fast path.
            let (guard, _timeout) = self
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .expect("job queue poisoned");
            q = guard;
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.q.lock().expect("job queue poisoned").len()
    }

    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

/// Everything the accept thread, I/O loops, and compute pool share.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) state: Arc<AppState>,
    pub(crate) flight: SingleFlight<FlightWaiter>,
    pub(crate) jobs: JobQueue,
    pub(crate) loops: Vec<Mailbox>,
    /// Wakes the accept thread out of its wait on the listener.
    accept_poller: poll::Poller,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Route a finished response back to the waiter's I/O loop.
    fn deliver(&self, waiter: Waiter, resp: Response, cached: bool) {
        self.loops[waiter.loop_idx].send(Msg::Response {
            token: waiter.token,
            resp,
            start: waiter.start,
            path: waiter.path,
            cached,
        });
    }

    /// Queue `job` for the pool. A full queue sheds it at once:
    /// backpressure, not backlog.
    pub(crate) fn enqueue(&self, job: Job) {
        match self.jobs.push(job) {
            Ok(()) => self
                .state
                .metrics
                .queue_depth
                .store(self.jobs.depth(), Ordering::Relaxed),
            Err(job) => self.shed(job, "compute queue full"),
        }
    }

    /// Answer every waiter of `job` with a 503 `why`: a compute's whole
    /// flight, or the one waiter of a reload or a forward.
    fn shed(&self, job: Job, why: &str) {
        let waiters = match job {
            Job::Compute { key, .. } => self
                .flight
                .complete(key)
                .into_iter()
                .map(|f| f.waiter)
                .collect(),
            Job::Reload(waiter) | Job::Forward(waiter, _) => vec![waiter],
        };
        let retry_after_s = self.config.retry_after_s;
        for waiter in waiters {
            self.state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            let queue_depth = self.jobs.depth();
            emit(|| Event::RequestRejected {
                queue_depth,
                retry_after_s,
            });
            let mut resp = Response::error(503, why);
            resp.retry_after_s = Some(retry_after_s);
            self.deliver(waiter, resp, false);
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    io: Vec<JoinHandle<()>>,
    compute: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Compute jobs currently waiting for a pool thread.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.jobs.depth()
    }

    /// Currently open client connections.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.shared
            .state
            .metrics
            .connections
            .load(Ordering::Relaxed)
    }

    /// Begin graceful shutdown: stop admitting, answer or shed everything
    /// in flight, drain the job queue. Returns immediately; pair with
    /// [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = self.shared.accept_poller.notify();
        self.shared.jobs.wake_all();
        for mailbox in &self.shared.loops {
            let _ = mailbox.poller.notify();
        }
    }

    /// Block until every thread has drained and exited. Implies
    /// [`ServerHandle::shutdown`].
    pub fn join(mut self) {
        self.shutdown();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.compute.drain(..) {
            let _ = t.join();
        }
        for t in self.io.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind, spawn the I/O loops, compute pool, and accept thread, and return
/// the handle.
///
/// # Errors
/// Propagates bind/poller/thread-spawn I/O errors.
pub fn start(config: ServeConfig, state: Arc<AppState>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let io_threads = config.io_threads.max(1);
    let mut loops = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        loops.push(Mailbox::new(poll::Poller::new()?));
    }

    let shared = Arc::new(Shared {
        config: config.clone(),
        state,
        flight: SingleFlight::new(),
        jobs: JobQueue::new(config.queue_capacity.max(1)),
        loops,
        accept_poller: poll::Poller::new()?,
        shutdown: AtomicBool::new(false),
    });

    let mut compute = Vec::with_capacity(config.workers.max(1));
    for worker in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        compute.push(
            std::thread::Builder::new()
                .name(format!("hecmix-compute-{worker}"))
                .spawn(move || compute_loop(&shared))?,
        );
    }

    let mut io = Vec::with_capacity(io_threads);
    for idx in 0..io_threads {
        let shared = Arc::clone(&shared);
        io.push(
            std::thread::Builder::new()
                .name(format!("hecmix-io-{idx}"))
                .spawn(move || crate::event_loop::io_loop(&shared, idx))?,
        );
    }

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("hecmix-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        io,
        compute,
    })
}

/// Hand every connection the nonblocking `listener` accepts to `on_conn`
/// until `stop()` holds. While none is pending the thread waits in
/// `poll(2)` on the listener, so a connection is accepted the moment it
/// arrives; `poller.notify()` wakes it to re-check `stop`. The daemon's
/// accept thread and the chaos proxy's both run on this.
pub(crate) fn accept_until(
    listener: &TcpListener,
    poller: &poll::Poller,
    stop: impl Fn() -> bool,
    mut on_conn: impl FnMut(TcpStream),
) {
    let _ = poller.add(listener, poll::Event::readable(0));
    let mut ready = Vec::new();
    while !stop() {
        match listener.accept() {
            Ok((stream, _peer)) => on_conn(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                ready.clear();
                if poller.wait(&mut ready, None).is_err() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            // Out of descriptors and the like: the listener stays
            // readable, so back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next = 0usize;
    accept_until(
        listener,
        &shared.accept_poller,
        || shared.shutting_down(),
        |stream| {
            let open = shared.state.metrics.connections.load(Ordering::Relaxed);
            if open >= shared.config.max_connections {
                reject(stream, shared);
                return;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            shared
                .state
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
            shared.loops[next % shared.loops.len()].send(Msg::Conn(stream));
            next += 1;
        },
    );
    // Listener drops here: new connects are refused while everyone drains.
    shared.jobs.wake_all();
    for mailbox in &shared.loops {
        let _ = mailbox.poller.notify();
    }
}

/// Admission-control rejection: written by the accept thread itself so the
/// client learns about overload with zero queueing delay.
fn reject(mut stream: TcpStream, shared: &Shared) {
    let retry_after_s = shared.config.retry_after_s;
    let queue_depth = shared.jobs.depth();
    shared
        .state
        .metrics
        .rejected
        .fetch_add(1, Ordering::Relaxed);
    emit(|| Event::RequestRejected {
        queue_depth,
        retry_after_s,
    });
    // Accepted sockets inherit the listener's nonblocking mode; this one
    // write is blocking on purpose (tiny, and the accept thread has
    // nothing better to do under overload).
    let _ = stream.set_nonblocking(false);
    let mut resp = Response::error(503, "connection limit reached");
    resp.retry_after_s = Some(retry_after_s);
    resp.close = true;
    let _ = io::Write::write_all(&mut stream, &resp.to_bytes());
}

/// One compute-pool thread: pull jobs until shutdown *and* empty, compute
/// once per flight, fan the result out to every parked waiter.
fn compute_loop(shared: &Shared) {
    while let Some((job, enqueued)) = shared.jobs.pop(&shared.shutdown) {
        shared
            .state
            .metrics
            .queue_depth
            .store(shared.jobs.depth(), Ordering::Relaxed);
        // Stale work: its clients have waited past the deadline, so shed it
        // rather than burn a sweep or an upstream attempt on it. A reload
        // is never stale, and during drain nothing is: answering parked
        // waiters beats 503ing them on the way out.
        let stale = match job {
            Job::Compute { .. } => Some("compute queue deadline exceeded"),
            Job::Forward(..) => Some("forward queue deadline exceeded"),
            Job::Reload(_) => None,
        };
        if let Some(why) = stale.filter(|_| {
            enqueued.elapsed() > shared.config.queue_deadline && !shared.shutting_down()
        }) {
            shared.shed(job, why);
            continue;
        }
        match job {
            Job::Compute { key, spec, store } => {
                let result = shared.state.compute(&spec, &store);
                // Complete *after* the cache insert: a request that missed
                // the cache an instant ago either joined this flight (and
                // is in `waiters`) or will now hit the cache.
                for f in shared.flight.complete(key) {
                    let resp = match &result {
                        Ok(plan) => api::format_response(
                            &f.ctx,
                            &f.store,
                            plan,
                            false,
                            f.coalesced,
                            plan.compute_us,
                        ),
                        Err(err) => err.clone(),
                    };
                    shared.deliver(f.waiter, resp, false);
                }
            }
            Job::Reload(waiter) => {
                let resp = shared.state.do_reload();
                shared.deliver(waiter, resp, false);
            }
            Job::Forward(waiter, fwd) => {
                let resp = fwd.fleet.forward(fwd.key, fwd.path, &fwd.body);
                // The replica, not the gateway, knows whether it answered
                // from cache; recover the flag for telemetry parity.
                let cached = fleet::answered_from_cache(&resp.body);
                shared.deliver(waiter, resp, cached);
            }
        }
    }
}
