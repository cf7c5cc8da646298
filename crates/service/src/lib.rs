//! msc-service: `mscd`, the multi-tenant compile-and-run daemon.
//!
//! Interactive schedule exploration recompiles the same stencil dozens
//! of times with small schedule deltas; paying process startup, parser
//! warmup and worker-pool spawn for every variant dominates the actual
//! compile. `mscd` keeps one resident compiler service per machine:
//! clients connect over a local Unix socket, submit `.msc` sources, and
//! get structured results back — without a process fork per job.
//!
//! Layers (DESIGN.md §15):
//!
//! * [`proto`] — the wire protocol: one compact JSON document per line
//!   in each direction ([`proto::Request`] / [`proto::Response`]),
//!   reusing the workspace's dependency-free JSON type;
//! * [`cache`] — the compile cache, keyed on the exact source text and
//!   the requested target, so any edit (a schedule's included) misses.
//!   An entry holds what its code package reports and, once a run was
//!   asked for, the checked program, its plan, compiled stencil and seed
//!   grid, so a re-submitted run job goes straight to the run and borrows
//!   the entry's seed;
//! * [`daemon`] — the server: acceptor + per-connection handler
//!   threads, a bounded job queue drained by persistent worker threads
//!   (each warming its thread-local [`msc_exec::pool`] once at
//!   startup), admission control (typed [`proto::Response::Busy`] on
//!   queue overflow or per-tenant quota), and per-job telemetry — every
//!   job runs under its own [`msc_trace::TelemetryHub`] so concurrent
//!   tenants' counters and metrics streams never mix;
//! * [`client`] — the blocking line client used by `mscc submit` and
//!   the integration tests.
//!
//! The verifier is the front door: every text is linted on its cache
//! miss before it can reach codegen, and deny-level findings come back as
//! structured [`proto::Response::Denied`] diagnostics (MSC-Lxxx codes) — a
//! bad program can never panic or poison the daemon, nor enter the cache.

pub mod cache;
pub mod client;
pub mod daemon;
pub mod proto;

pub use cache::CompileCache;
pub use client::Client;
pub use daemon::{Daemon, ServiceConfig, MAX_REQUEST_BYTES};
pub use proto::{BusyReason, JobDone, Request, Response, ServiceStats, Submission};
