//! [`TelemetryHub`]: sessioned trace state.
//!
//! Everything the tracer accumulates — counter shards, histogram banks,
//! span buffers, flight-recorder rings, the per-rank progress table —
//! lives in one `Arc`-shareable hub. The process keeps a **default hub**
//! so the existing free functions ([`crate::record`], [`crate::span`],
//! [`crate::flight`], ...) keep working unchanged: they are thin shims
//! that resolve the calling thread's *current* hub (the innermost
//! [`install_thread_hub`] guard, else the default) and delegate.
//!
//! Why: the ROADMAP's `mscd` service item needs concurrent in-process
//! runs with isolated metrics, and the live sampler (DESIGN.md §14)
//! needs a handle it can snapshot from a background thread without
//! racing an unrelated run. A hub is that handle. Runs that never touch
//! the API see exactly the old behavior: one process-wide sink.
//!
//! Threading model: the distributed driver installs the run's hub on
//! the caller thread ([`crate::comm` `RunOptions::hub`]); rank threads
//! and pool helpers inherit the spawner's hub explicitly (captured at
//! spawn / job-submit time), so every recording made on behalf of a run
//! lands in that run's hub.

use crate::counters::{Counter, CounterSet};
use crate::histogram::{Hist, HistSet};
use crate::ranks::RankSample;
use crate::recorder::{FlightKind, FlightRecord};
use crate::spans::SpanRecord;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static NEXT_HUB_ID: AtomicU64 = AtomicU64::new(0);

/// A thread's cache of the buffers it registered, one per hub it has
/// recorded into (keyed by hub id; a linear scan — a thread touches 1–2
/// live hubs).
pub(crate) type ThreadBufCache<B> = std::cell::RefCell<Vec<(u64, Arc<B>)>>;

/// Run `f` on the calling thread's buffer in hub `hub_id`, registering
/// one on first use. Registering is also when entries of dropped hubs
/// leave the cache — the hub's registry held the other reference — so a
/// thread that outlives many short-lived hubs (an `mscd` worker and its
/// per-job hubs) keeps one buffer alive, not one per job.
pub(crate) fn with_thread_buf<B>(
    cache: &ThreadBufCache<B>,
    hub_id: u64,
    register: impl FnOnce() -> Arc<B>,
    f: impl FnOnce(&B),
) {
    let mut cache = cache.borrow_mut();
    if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == hub_id) {
        return f(buf);
    }
    cache.retain(|(_, buf)| Arc::strong_count(buf) > 1);
    let buf = register();
    f(&buf);
    cache.push((hub_id, buf));
}

/// A flush hook: called with a reason string when `dump_on_error` fires.
pub type FlushHook = Arc<dyn Fn(&str) + Send + Sync>;

/// One isolated set of trace sinks. See the module docs for the
/// ownership model. Cheap to share (`Arc`), expensive-ish to create
/// (~100 KiB of pre-sized banks), never implicitly global: only the
/// [`default_hub`] is process-wide.
pub struct TelemetryHub {
    id: u64,
    enabled: AtomicBool,
    pub(crate) counters: crate::counters::Banks,
    pub(crate) hists: crate::histogram::Banks,
    pub(crate) spans: crate::spans::Registry,
    pub(crate) flight: crate::recorder::Registry,
    flight_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
    pub(crate) ranks: crate::ranks::RankTable,
    /// Called (with a reason) whenever [`dump_on_error`] fires on this
    /// hub — the sampler registers itself here so a killed run still
    /// flushes a final metrics sample.
    ///
    /// [`dump_on_error`]: TelemetryHub::dump_on_error
    flush_hook: Mutex<Option<FlushHook>>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("id", &self.id)
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl TelemetryHub {
    /// A fresh, disabled hub. Returned as `Arc` because every use —
    /// installing on threads, threading through `RunOptions`, sampling
    /// from a background thread — shares it.
    pub fn new() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            id: NEXT_HUB_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            counters: crate::counters::Banks::new(),
            hists: crate::histogram::Banks::new(),
            spans: crate::spans::Registry::new(),
            flight: crate::recorder::Registry::new(),
            flight_dir: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
            ranks: crate::ranks::RankTable::new(),
            flush_hook: Mutex::new(None),
        })
    }

    /// Process-unique hub identity (keys the per-thread buffer caches).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    // ---- counters ------------------------------------------------------

    /// Accumulate `v` into counter `c` (no-op unless this hub is
    /// enabled). Sum-mode counters add; max-mode counters take the max.
    /// For the counts no account carries (the worker pool's, compile
    /// time); everything else arrives through [`TelemetryHub::record_set`].
    #[inline]
    pub fn record(&self, c: Counter, v: u64) {
        if !self.enabled() {
            return;
        }
        self.counters.record(c, v);
        self.attribute(c, v);
    }

    /// Publish an account: the counters and latency samples one step,
    /// block or rank accumulated in plain values, paid for in atomics once
    /// (no-op unless enabled). The hub then reads as if every count and
    /// sample had been recorded one by one; the rank-attributable parts
    /// (steals, retransmits, halo wait) also land in the calling rank's
    /// row of the live table.
    pub fn record_set(&self, counters: &CounterSet, hists: &HistSet) {
        if !self.enabled() {
            return;
        }
        for (c, v) in counters.iter().filter(|&(_, v)| v != 0) {
            self.counters.record(c, v);
            self.attribute(c, v);
        }
        self.hists.merge(hists);
        let wait = hists.get(Hist::HaloWaitNanos);
        if !wait.is_empty() {
            self.note_rank(|ranks, r| ranks.note_halo_wait(r, wait.sum(), wait.count()));
        }
    }

    /// Per-rank live attribution for the rates `mscc top` shows.
    /// RankRecoveries is routed explicitly (note_rank_recovery) so
    /// adoption is attributed to the logical rank, not the spare slot.
    #[inline]
    fn attribute(&self, c: Counter, v: u64) {
        if matches!(c, Counter::PoolSteals | Counter::RetransmitCount) {
            self.note_rank(|ranks, r| ranks.note_counter(r, c, v));
        }
    }

    /// Update the calling rank's row of the live table, if the thread is
    /// a rank's. An update folded into the overflow cell is counted so
    /// the saturation is visible in `--profile` and the sampler stream.
    #[inline]
    fn note_rank(&self, note: impl FnOnce(&crate::ranks::RankTable, u32) -> bool) {
        let r = crate::spans::current_rank();
        if r != crate::spans::NO_RANK && note(&self.ranks, r) {
            self.note_rank_overflow();
        }
    }

    /// A per-rank update folded into the overflow cell: count it.
    /// (Plain bank write — must not re-enter [`TelemetryHub::record`].)
    #[inline]
    fn note_rank_overflow(&self) {
        self.counters.record(Counter::RankTableOverflow, 1);
    }

    /// Fold every counter shard into a plain [`CounterSet`].
    pub fn snapshot(&self) -> CounterSet {
        self.counters.snapshot()
    }

    pub fn reset_counters(&self) {
        self.counters.reset();
    }

    // ---- histograms ----------------------------------------------------

    pub fn snapshot_hists(&self) -> HistSet {
        self.hists.snapshot()
    }

    pub fn reset_hists(&self) {
        self.hists.reset();
    }

    // ---- spans ---------------------------------------------------------

    /// Snapshot every thread's span records made into this hub, ordered
    /// by (start, thread), plus the total dropped (saturated) count.
    pub fn collect_spans(&self) -> (Vec<SpanRecord>, u64) {
        self.spans.collect()
    }

    pub fn reset_spans(&self) {
        self.spans.reset();
    }

    // ---- flight recorder -----------------------------------------------

    /// Append one black-box record to the calling thread's ring in this
    /// hub. Always on — no enable gate.
    #[inline]
    pub fn flight(&self, kind: FlightKind, src: u32, dst: u32, tag: u64, seq: u64) {
        crate::recorder::push_flight(self, kind, src, dst, tag, seq);
    }

    pub fn snapshot_flight(&self) -> Vec<FlightRecord> {
        self.flight.snapshot()
    }

    pub fn reset_flight(&self) {
        self.flight.reset();
    }

    /// Direct flight dumps from this hub into `dir` (`None` disables).
    pub fn set_flight_dump_dir(&self, dir: Option<PathBuf>) {
        *self.flight_dir.lock().unwrap() = dir;
    }

    pub fn flight_dump_dir(&self) -> Option<PathBuf> {
        self.flight_dir.lock().unwrap().clone()
    }

    /// Failure hook: fires this hub's flush hook (metrics tail), then
    /// dumps the merged rings to the configured directory. Returns the
    /// written path, or `None` when dumping is disabled or failed — a
    /// failing dump must never mask the original error.
    pub fn dump_on_error(&self, reason: &str) -> Option<PathBuf> {
        let hook = self.flush_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook(reason);
        }
        let dir = self.flight_dump_dir()?;
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .take(32)
            .collect();
        let path = dir.join(format!("flight_{n:04}_{slug}.json"));
        let json = crate::recorder::flight_json(reason, &self.snapshot_flight());
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        std::fs::write(&path, json).is_ok().then_some(path)
    }

    /// Install the failure-flush hook (see [`TelemetryHub::dump_on_error`]).
    /// One hook per hub; installing replaces the previous one.
    pub fn set_flush_hook(&self, hook: Option<FlushHook>) {
        *self.flush_hook.lock().unwrap() = hook;
    }

    // ---- per-rank progress ---------------------------------------------

    /// Note that `rank` finished step `step` (no-op unless enabled).
    /// Feeds the live per-rank step rate.
    #[inline]
    pub fn note_rank_step(&self, rank: u32, step: u64) {
        if !self.enabled() {
            return;
        }
        if self.ranks.note_step(rank, step) {
            self.note_rank_overflow();
        }
    }

    /// Note that logical `rank` was recovered by a spare (no-op unless
    /// enabled).
    #[inline]
    pub fn note_rank_recovery(&self, rank: u32) {
        if !self.enabled() {
            return;
        }
        if self.ranks.note_recovery(rank) {
            self.note_rank_overflow();
        }
    }

    /// Snapshot of every rank that has reported activity.
    pub fn rank_samples(&self) -> Vec<RankSample> {
        self.ranks.snapshot()
    }

    pub fn reset_ranks(&self) {
        self.ranks.reset();
    }

    /// Reset counters, histograms, spans and the rank table. The flight
    /// recorder is left alone (crash forensics survive resets).
    pub fn reset(&self) {
        self.reset_counters();
        self.reset_hists();
        self.reset_spans();
        self.reset_ranks();
    }
}

/// The process-wide default hub — the sink behind every free function
/// when no hub is installed on the calling thread. Its flight dump
/// directory is seeded from `MSC_FLIGHT_DIR`.
pub fn default_hub() -> &'static Arc<TelemetryHub> {
    static DEFAULT: OnceLock<Arc<TelemetryHub>> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let hub = TelemetryHub::new();
        hub.set_flight_dump_dir(std::env::var_os("MSC_FLIGHT_DIR").map(PathBuf::from));
        hub
    })
}

thread_local! {
    /// Stack of installed hubs; the innermost wins. A stack (not a
    /// slot) so nested scopes — e.g. a test harness inside a sampled
    /// run — restore correctly.
    static CURRENT: RefCell<Vec<Arc<TelemetryHub>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` against the calling thread's current hub (innermost
/// installed, else the default). The hot-path resolution used by every
/// free-function shim.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&TelemetryHub) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        match b.last() {
            Some(h) => f(h),
            None => f(default_hub()),
        }
    })
}

/// The calling thread's current hub as an owned handle (for capturing
/// at spawn/submit sites so child threads inherit it).
pub fn current_hub() -> Arc<TelemetryHub> {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(default_hub()))
}

/// Make `hub` the calling thread's current hub until the guard drops.
/// All free-function recordings on this thread land in it.
#[must_use = "the hub is uninstalled when the guard drops"]
pub fn install_thread_hub(hub: Arc<TelemetryHub>) -> HubGuard {
    CURRENT.with(|c| c.borrow_mut().push(hub));
    HubGuard {
        _not_send: PhantomData,
    }
}

/// RAII handle from [`install_thread_hub`]; pops the hub on drop.
/// Deliberately `!Send`: it must drop on the installing thread.
pub struct HubGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for HubGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hubs_isolate_counters() {
        let a = TelemetryHub::new();
        let b = TelemetryHub::new();
        a.set_enabled(true);
        b.set_enabled(true);
        a.record(Counter::TilesExecuted, 3);
        b.record(Counter::TilesExecuted, 40);
        assert_eq!(a.snapshot().get(Counter::TilesExecuted), 3);
        assert_eq!(b.snapshot().get(Counter::TilesExecuted), 40);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn install_redirects_free_functions_and_restores() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        let before_default = crate::counters::snapshot().get(Counter::TemporalBlocks);
        {
            let _g = install_thread_hub(Arc::clone(&hub));
            crate::record(Counter::TemporalBlocks, 11);
            assert_eq!(current_hub().id(), hub.id());
        }
        assert_eq!(hub.snapshot().get(Counter::TemporalBlocks), 11);
        // The default hub never saw the recording.
        assert_eq!(
            crate::counters::snapshot().get(Counter::TemporalBlocks),
            before_default
        );
    }

    #[test]
    fn thread_caches_drop_the_buffers_of_dead_hubs() {
        // One long-lived thread, 500 short-lived hubs — an mscd worker and
        // its per-job hubs. A thread of its own, so the caches start empty.
        std::thread::spawn(|| {
            for job in 0..500 {
                let hub = TelemetryHub::new();
                hub.set_enabled(true);
                let _g = install_thread_hub(Arc::clone(&hub));
                drop(crate::span("job"));
                crate::flight(FlightKind::Send, 0, 1, 7, job);
                assert_eq!(hub.collect_spans().0.len(), 1);
                assert_eq!(hub.snapshot_flight().len(), 1);
            }
            // At most the last hub's buffers (dead, but nothing has
            // registered since) are still held.
            assert!(crate::spans::cached_thread_bufs() <= 2);
            assert!(crate::recorder::cached_thread_rings() <= 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_installs_stack() {
        let outer = TelemetryHub::new();
        let inner = TelemetryHub::new();
        let _a = install_thread_hub(Arc::clone(&outer));
        {
            let _b = install_thread_hub(Arc::clone(&inner));
            assert_eq!(current_hub().id(), inner.id());
        }
        assert_eq!(current_hub().id(), outer.id());
    }

    /// An account of one rank's step: two retransmits and two halo waits.
    fn rank_account() -> (CounterSet, HistSet) {
        let mut counters = CounterSet::new();
        counters.set(Counter::RetransmitCount, 2);
        counters.set(Counter::HaloMessages, 3);
        let mut hists = HistSet::new();
        hists.add(Hist::HaloWaitNanos, 100);
        hists.add(Hist::HaloWaitNanos, 400);
        (counters, hists)
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = TelemetryHub::new();
        hub.record(Counter::Steps, 5);
        let (counters, hists) = rank_account();
        hub.record_set(&counters, &hists);
        hub.note_rank_step(0, 1);
        assert!(hub.snapshot().is_zero());
        assert!(hub.snapshot_hists().is_empty());
        assert!(hub.rank_samples().is_empty());
    }

    #[test]
    fn a_published_account_reaches_the_banks_and_its_ranks_row() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        let (counters, hists) = rank_account();
        // Off a rank thread nothing is attributed; on one, the row gets
        // the retransmits and the waits' total and count.
        hub.record_set(&counters, &hists);
        assert!(hub.rank_samples().is_empty());
        std::thread::spawn({
            let hub = Arc::clone(&hub);
            move || {
                crate::set_current_rank(5);
                hub.record_set(&counters, &hists);
            }
        })
        .join()
        .unwrap();
        let mut twice = counters;
        twice.merge(&counters);
        assert_eq!(hub.snapshot(), twice);
        let mut both = hists;
        both.merge(&hists);
        assert_eq!(hub.snapshot_hists(), both);
        let row = hub.rank_samples()[0];
        assert_eq!((row.rank, row.retransmits), (5, 2));
        assert_eq!((row.halo_wait_ns, row.halo_wait_count), (500, 2));
    }

    #[test]
    fn spans_land_in_installed_hub() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        {
            let _g = install_thread_hub(Arc::clone(&hub));
            let _s = crate::span("hub_span");
        }
        let (recs, dropped) = hub.collect_spans();
        assert_eq!(dropped, 0);
        assert!(recs.iter().any(|r| r.name == "hub_span"));
    }

    #[test]
    fn flight_lands_in_installed_hub_even_disabled() {
        let hub = TelemetryHub::new();
        {
            let _g = install_thread_hub(Arc::clone(&hub));
            crate::flight(FlightKind::Kill, 1, 2, 3, 4);
        }
        let snap = hub.snapshot_flight();
        assert!(snap
            .iter()
            .any(|r| r.kind == FlightKind::Kill && r.seq == 4));
    }

    #[test]
    fn flush_hook_fires_on_dump_even_without_dir() {
        let hub = TelemetryHub::new();
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&fired);
        hub.set_flush_hook(Some(Arc::new(move |reason: &str| {
            assert_eq!(reason, "unit");
            f2.store(true, Ordering::SeqCst);
        })));
        assert!(hub.dump_on_error("unit").is_none());
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn rank_overflow_is_counted_not_dropped() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        // Exactly at MAX_RANKS: the first rank the table cannot
        // attribute individually. Before the overflow cell existed this
        // attribution vanished without a signal.
        hub.note_rank_step(crate::MAX_RANKS as u32, 9);
        hub.note_rank_recovery(u32::MAX);
        let samples = hub.rank_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rank, crate::OVERFLOW_RANK);
        assert_eq!(samples[0].steps, 1);
        assert_eq!(samples[0].last_step, 9);
        assert_eq!(samples[0].recoveries, 1);
        assert_eq!(hub.snapshot().get(Counter::RankTableOverflow), 2);
        // In-range attribution never bumps the overflow counter.
        hub.note_rank_step(0, 0);
        assert_eq!(hub.snapshot().get(Counter::RankTableOverflow), 2);
    }

    #[test]
    fn rank_table_tracks_steps_and_recoveries() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        hub.note_rank_step(2, 0);
        hub.note_rank_step(2, 1);
        hub.note_rank_recovery(2);
        let samples = hub.rank_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rank, 2);
        assert_eq!(samples[0].steps, 2);
        assert_eq!(samples[0].last_step, 1);
        assert_eq!(samples[0].recoveries, 1);
    }
}
