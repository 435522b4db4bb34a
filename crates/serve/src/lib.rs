//! # hecmix-serve
//!
//! The online face of the configuration-space model: a long-running
//! planning daemon that answers the operator question — *"given this
//! workload, deadline, and power budget, which heterogeneous mix do I
//! provision?"* — over plain HTTP, at interactive latency, from a warm
//! plan cache.
//!
//! Everything in this crate is `std`-only, consistent with the workspace's
//! vendored-stubs rule: no tokio, no hyper, no serde_json. The protocol is
//! a deliberately minimal hand-rolled HTTP/1.1 + JSON subset ([`http`],
//! with JSON encoding/decoding from `hecmix-obs::json`), parsed
//! **incrementally** so no thread ever blocks on a slow peer.
//!
//! The connection layer is a **readiness-based event loop** ([`server`],
//! `event_loop`): a few I/O threads multiplex thousands of nonblocking
//! keep-alive connections over `poll(2)` (via the vendored `poll` stub),
//! while plan sweeps run on a separate bounded **compute pool**. Admission
//! control answers `503 Service Unavailable` with `Retry-After` past the
//! connection cap, and a full compute queue sheds with the same contract —
//! backpressure, never invisible backlog.
//!
//! The hot path is memoized: rate tables and Pareto frontiers live in a
//! **sharded LRU keyed by the FNV-1a content hash of the model bundles
//! plus the query shape** ([`cache`]), so a repeated `/frontier` query
//! skips the sweep entirely. Concurrent misses on the same key are
//! **single-flight coalesced** ([`singleflight`]): one compute answers
//! every waiter. `POST /reload` swaps the model set and **re-warms** the
//! hot set against the new models before the swap, so a reload does not
//! reopen the cold-start latency cliff. Per-I/O-thread lock-free latency
//! histograms ([`hist`]) are merged on demand by `GET /statz`.
//!
//! Endpoints (see [`api`]): `POST /plan`, `POST /frontier` (optional
//! `resilient_k`), `POST /whatif`, `POST /reload`, `GET /healthz`,
//! `GET /statz` — plus, when the live scheduler is configured
//! ([`submit`]), `POST /submit` and `GET /jobz` for streaming job
//! admission onto a shared heterogeneous pool.
//!
//! [`loadgen`] is the load harness that drives the daemon over real
//! sockets — closed-loop or open-loop (Poisson-free fixed-rate arrivals
//! with coordinated-omission correction), with warmup exclusion and
//! per-endpoint percentiles. It doubles as the serving-path benchmark
//! (cold vs warm cache, tail-latency gate) and as the end-to-end test.
//!
//! Above a single daemon sits the **replica fleet**: `hecmix gateway`
//! routes `/plan`, `/frontier`, and `/whatif` across N replica daemons by
//! consistent hashing over the plan-cache key ([`router`]), so each
//! replica's LRU holds a disjoint shard of the hot set. The fleet layer
//! ([`fleet`]) adds active + passive health checking, per-replica circuit
//! breakers, bounded jittered retries that honor `Retry-After`, hedged
//! requests after an adaptive p95 delay, and failover re-warm of a dead
//! replica's hot keys. Robustness is proven, not asserted: a seeded
//! [`chaos`] schedule of replica kills drives an in-process TCP proxy
//! that makes a replica look dead at a fixed offset, and [`fleetbench`]
//! scripts such a crash under load while gating on zero client-visible
//! errors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod cache;
pub mod chaos;
mod event_loop;
pub mod fleet;
pub mod fleetbench;
pub mod hist;
pub mod http;
pub mod loadgen;
pub mod router;
pub mod server;
pub mod signal;
pub mod singleflight;
pub mod store;
pub mod submit;

pub use api::AppState;
pub use server::{start, ServeConfig, ServerHandle};
pub use store::ModelStore;
pub use submit::{OnlineSched, SchedParams};
