//! msc-trace: low-overhead runtime tracing and metrics.
//!
//! This crate is the observability spine of the workspace. The executors
//! (msc-exec), the halo-exchange runtime (msc-comm) and the CLI publish
//! their hot-path measurements through it, and the auto-tuner (msc-tune)
//! reads them back as [`Profile`]s to calibrate its performance model —
//! closing the modeled-vs-measured loop described in the paper's
//! auto-tuning section.
//!
//! Three layers:
//!
//! * [`counters`] — a fixed vocabulary of typed counters ([`Counter`])
//!   and the plain-value [`CounterSet`] every account, stats view
//!   (`RunStats`/`CommStats`) and hub total is kept in;
//! * [`spans`] — per-thread fixed-capacity span buffers written without
//!   locks on the hot path, recording named begin/end intervals
//!   ([`span`]) and instants ([`event`]);
//! * [`profile`] / [`export`] — [`Profile`] snapshots that merge across
//!   threads and ranks, rendered as a human-readable table
//!   ([`Profile::to_table`]) or chrome://tracing JSON
//!   ([`Profile::to_chrome_json`]);
//! * [`json`] — the workspace's one JSON value, parser and string
//!   escaper ([`Json`]): this crate is the leaf every emitter and every
//!   reader (validators here, `mscc top`, the `mscd` protocol, the bench
//!   trajectory) can reach.
//!
//! Observability v2 (DESIGN.md §8) adds:
//!
//! * [`histogram`] — fixed-bucket log2 latency distributions, published
//!   with the counters of the same account ([`record_set`]) behind the
//!   same enable gate;
//! * [`stitch`] — cross-rank trace stitching: rank-tagged spans
//!   ([`spans::set_current_rank`]), flow events correlated by message
//!   identity ([`stitch::message_id`]), the per-step straggler report,
//!   and a structural validator for the chrome export;
//! * [`recorder`] — an always-on flight recorder (fixed-memory ring per
//!   thread) dumped as JSON when a comm fault or restart fires.
//!
//! The telemetry plane (DESIGN.md §14) adds:
//!
//! * [`hub`] — [`TelemetryHub`], sessioned trace state: every sink
//!   above is owned by a hub, whose published totals and live per-rank
//!   rows ([`RankSample`], feeding `mscc top`) are one account behind one
//!   lock; the free functions are shims over the calling thread's
//!   current hub (the process-wide [`default_hub`] unless one was
//!   installed with [`install_thread_hub`]);
//! * [`sampler`] — a background thread emitting periodic OpenMetrics +
//!   JSONL samples of a hub, flushed on failure via the dump path;
//! * [`alert`] — the online stall/straggler detector;
//! * [`openmetrics`] — the OpenMetrics renderer and strict validator.
//!
//! Tracing is **disabled by default** and gated on the owning hub's
//! flag checked first thing in every recording call: a disabled
//! [`record`] is a thread-local read, a relaxed atomic load and a
//! branch (no lock), and a disabled [`span`] constructs an inert guard
//! without reading the clock. Runs with tracing disabled are
//! bit-identical to untraced runs — the recording paths touch no shared
//! mutable state.

pub mod alert;
pub mod counters;
pub mod export;
pub mod histogram;
pub mod hub;
pub mod json;
pub mod openmetrics;
pub mod profile;
pub mod recorder;
pub mod sampler;
pub mod spans;
pub mod stitch;

pub use alert::{Alert, AlertKind};
pub use counters::{
    record, record_set, reset_counters, set_enabled, snapshot, Counter, CounterSet, EnableGuard,
    MergeMode,
};
pub use histogram::{snapshot_hists, Hist, HistSet, Histogram};
pub use hub::{current_hub, default_hub, install_thread_hub, HubGuard, RankSample, TelemetryHub};
pub use json::Json;
pub use profile::Profile;
pub use recorder::{
    dump_on_error, flight, flight_json, set_flight_dump_dir, FlightKind, FlightRecord,
};
pub use sampler::{Sampler, SamplerConfig, SamplerSummary};
pub use spans::{
    event, flow_recv, flow_send, set_current_rank, span, span_arg, SpanGuard, SpanKind, SpanRecord,
    NO_RANK,
};
pub use stitch::{
    message_id, render_straggler_report, straggler_report, validate_chrome_json, ChromeSummary,
    StepStats,
};

/// True when the calling thread's current hub has tracing enabled.
#[inline]
pub fn enabled() -> bool {
    counters::enabled()
}

/// Note that `rank` finished step `step` on the current hub (no-op
/// unless enabled). Feeds the live per-rank step rate.
#[inline]
pub fn note_rank_step(rank: u32, step: u64) {
    hub::with_current(|h| h.note_rank_step(rank, step));
}

/// Note that logical `rank` was recovered by a spare on the current hub
/// (no-op unless enabled).
#[inline]
pub fn note_rank_recovery(rank: u32) {
    hub::with_current(|h| h.note_rank_recovery(rank));
}

/// Reset the current hub's trace state (counters, histograms, rank rows
/// and span buffers). The flight recorder is left alone: it
/// is a crash-forensics ring and survives resets so restarts keep their
/// pre-restart timeline.
///
/// Intended for test setup and between CLI runs; callers must ensure no
/// spans are being recorded concurrently.
pub fn reset() {
    hub::with_current(|h| h.reset());
}

/// Unit tests in this crate share the default hub's account and span
/// buffers; tests asserting exact totals serialize on this lock.
#[cfg(test)]
pub(crate) mod testutil {
    pub(crate) static GLOBAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
