//! [`TelemetryHub`]: sessioned trace state.
//!
//! Everything the tracer accumulates — the published counters and
//! latency histograms, the per-rank progress rows, span buffers and
//! flight-recorder rings — lives in one `Arc`-shareable hub. The process
//! keeps a **default hub** so the existing free functions
//! ([`crate::record`], [`crate::span`], [`crate::flight`], ...) keep
//! working unchanged: they are thin shims that resolve the calling
//! thread's *current* hub (the innermost [`install_thread_hub`] guard,
//! else the default) and delegate.
//!
//! Why: the ROADMAP's `mscd` service item needs concurrent in-process
//! runs with isolated metrics, and the live sampler (DESIGN.md §14)
//! needs a handle it can snapshot from a background thread without
//! racing an unrelated run. A hub is that handle. Runs that never touch
//! the API see exactly the old behavior: one process-wide sink.
//!
//! One account: what a step, block or rank publishes arrives once, as a
//! plain [`CounterSet`] + [`HistSet`], so the hub keeps its totals the
//! same way — one `Account` behind one lock, merged into with
//! `CounterSet::merge` / `HistSet::merge` and copied out whole. Spans and
//! flight records stay per-thread and lock-free: they are written per
//! tile and per message, not per account.
//!
//! Threading model: the distributed driver installs the run's hub on
//! the caller thread ([`crate::comm` `RunOptions::hub`]); rank threads
//! and pool helpers inherit the spawner's hub explicitly (captured at
//! spawn / job-submit time), so every recording made on behalf of a run
//! lands in that run's hub.

use crate::counters::{Counter, CounterSet};
use crate::histogram::{Hist, HistSet};
use crate::recorder::{FlightKind, FlightRecord};
use crate::spans::SpanRecord;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// One rank's live progress row: what the sampler, the stall detector
/// and `mscc top` read while the run is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankSample {
    pub rank: u32,
    /// Total steps completed (monotone, survives rollbacks).
    pub steps: u64,
    /// Most recent step index (meaningful only when `steps > 0`); may
    /// move backwards on rollback, which is what a live view wants.
    pub last_step: u64,
    /// Cumulative halo-wait nanoseconds attributed to this rank.
    pub halo_wait_ns: u64,
    pub halo_wait_count: u64,
    pub steals: u64,
    /// Always 0, as [`Counter::RetransmitCount`] is.
    pub retransmits: u64,
    pub recoveries: u64,
}

/// Everything published into a hub: the merged counters and latency
/// samples, and one row per rank that reported (made on first touch, so
/// any rank id gets its own).
#[derive(Clone, Default)]
pub(crate) struct Account {
    pub(crate) counters: CounterSet,
    pub(crate) hists: HistSet,
    pub(crate) ranks: BTreeMap<u32, RankSample>,
}

impl Account {
    fn row(&mut self, rank: u32) -> &mut RankSample {
        self.ranks.entry(rank).or_insert(RankSample {
            rank,
            ..RankSample::default()
        })
    }

    /// Book the rank-attributable counts (steals, retransmits) to
    /// `rank`'s row; every other counter is the run's alone.
    fn attribute(&mut self, rank: u32, c: Counter, v: u64) {
        let slot = match c {
            Counter::PoolSteals => &mut self.row(rank).steals,
            Counter::RetransmitCount => &mut self.row(rank).retransmits,
            _ => return,
        };
        *slot = slot.saturating_add(v);
    }
}

/// One isolated set of trace sinks. See the module docs for the
/// ownership model. Cheap to share (`Arc`) and to create (an empty
/// account of ~2.7 KB), never implicitly global: only the
/// [`default_hub`] is process-wide.
pub struct TelemetryHub {
    id: u64,
    enabled: AtomicBool,
    /// Held only to merge one update in or copy the account out; nothing
    /// else is called under it.
    account: Mutex<Account>,
    pub(crate) spans: crate::spans::Registry,
    pub(crate) flight: crate::recorder::Registry,
    flight_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
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
            account: Mutex::new(Account::default()),
            spans: crate::spans::Registry::new(),
            flight: crate::recorder::Registry::new(),
            flight_dir: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
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

    /// The account, locked. Every update is one merge of plain values,
    /// so a guard poisoned by a panicking holder is still whole.
    fn account(&self) -> MutexGuard<'_, Account> {
        self.account.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The whole account at one instant: counters, histograms and rank
    /// rows copied under one lock.
    pub(crate) fn read(&self) -> Account {
        self.account().clone()
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
        let rank = crate::spans::current_rank();
        let mut account = self.account();
        account.counters.bump(c, v);
        if rank != crate::spans::NO_RANK {
            account.attribute(rank, c, v);
        }
    }

    /// Publish an account: the counters and latency samples one step,
    /// block or rank accumulated in plain values, merged in under one
    /// lock (no-op unless enabled). The hub then reads as if every count
    /// and sample had been recorded one by one; the rank-attributable
    /// parts (steals, retransmits, halo wait) also land in the calling
    /// rank's row.
    pub fn record_set(&self, counters: &CounterSet, hists: &HistSet) {
        if !self.enabled() {
            return;
        }
        let rank = crate::spans::current_rank();
        let mut account = self.account();
        account.counters.merge(counters);
        account.hists.merge(hists);
        if rank == crate::spans::NO_RANK {
            return;
        }
        for (c, v) in counters.iter().filter(|&(_, v)| v != 0) {
            account.attribute(rank, c, v);
        }
        let wait = hists.get(Hist::HaloWaitNanos);
        if !wait.is_empty() {
            let row = account.row(rank);
            row.halo_wait_ns = row.halo_wait_ns.saturating_add(wait.sum());
            row.halo_wait_count = row.halo_wait_count.saturating_add(wait.count());
        }
    }

    pub fn snapshot(&self) -> CounterSet {
        self.account().counters
    }

    pub fn reset_counters(&self) {
        self.account().counters = CounterSet::new();
    }

    // ---- histograms ----------------------------------------------------

    pub fn snapshot_hists(&self) -> HistSet {
        self.account().hists
    }

    // ---- spans ---------------------------------------------------------

    /// Snapshot every thread's span records made into this hub, ordered
    /// by (start, thread), plus the total dropped (saturated) count.
    pub fn collect_spans(&self) -> (Vec<SpanRecord>, u64) {
        self.spans.collect()
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

    /// Direct flight dumps from this hub into `dir` (`None` disables).
    pub fn set_flight_dump_dir(&self, dir: Option<PathBuf>) {
        *self.flight_dir.lock().unwrap() = dir;
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
        let dir = self.flight_dir.lock().unwrap().clone()?;
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
        let mut account = self.account();
        let row = account.row(rank);
        row.steps = row.steps.saturating_add(1);
        row.last_step = step;
    }

    /// Note that logical `rank` was recovered by a spare (no-op unless
    /// enabled).
    #[inline]
    pub fn note_rank_recovery(&self, rank: u32) {
        if !self.enabled() {
            return;
        }
        let mut account = self.account();
        let row = account.row(rank);
        row.recoveries = row.recoveries.saturating_add(1);
    }

    /// Every rank that has reported activity, ascending.
    pub fn rank_samples(&self) -> Vec<RankSample> {
        self.account().ranks.values().copied().collect()
    }

    /// Reset the account (counters, histograms, rank rows) and the span
    /// buffers. The flight recorder is left alone (crash forensics
    /// survive resets).
    pub fn reset(&self) {
        *self.account() = Account::default();
        self.spans.reset();
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
    fn a_hub_saturates_exactly_as_the_sets_it_merges() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        let mut counters = CounterSet::new();
        counters.set(Counter::PackNanos, u64::MAX - 1);
        counters.set(Counter::SpmPeakBytes, 7);
        let mut hists = HistSet::new();
        hists.add(Hist::StepWallNanos, u64::MAX / 2 + 1);
        hists.add(Hist::StepWallNanos, 3);
        hub.record_set(&counters, &hists);
        hub.record_set(&counters, &hists);
        let mut twice = counters;
        twice.merge(&counters);
        let mut both = hists;
        both.merge(&hists);
        assert_eq!(twice.get(Counter::PackNanos), u64::MAX);
        assert_eq!(both.get(Hist::StepWallNanos).sum(), u64::MAX);
        assert_eq!(hub.snapshot(), twice);
        assert_eq!(hub.snapshot_hists(), both);
    }

    #[test]
    fn inactive_ranks_are_invisible() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        assert!(hub.rank_samples().is_empty());
        hub.note_rank_step(3, 0);
        let s = hub.rank_samples();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].rank, s[0].last_step), (3, 0));
    }

    #[test]
    fn counters_route_and_reset_clears() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::set_current_rank(1);
                hub.record(Counter::PoolSteals, 4);
                hub.record(Counter::RetransmitCount, 2);
                hub.record(Counter::Steps, 99); // not rank-attributable
                let mut hists = HistSet::new();
                hists.add(Hist::HaloWaitNanos, 500);
                hub.record_set(&CounterSet::new(), &hists);
            });
        });
        let s = hub.rank_samples();
        assert_eq!((s[0].rank, s[0].steps), (1, 0));
        assert_eq!((s[0].steals, s[0].retransmits), (4, 2));
        assert_eq!((s[0].halo_wait_ns, s[0].halo_wait_count), (500, 1));
        hub.reset();
        assert!(hub.rank_samples().is_empty());
        assert!(hub.snapshot().is_zero());
    }

    #[test]
    fn any_rank_id_gets_its_own_row() {
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        hub.note_rank_step(5000, 3);
        hub.note_rank_step(2, 0);
        let samples = hub.rank_samples();
        assert_eq!(samples.len(), 2);
        let row = samples[1];
        assert_eq!((row.rank, row.steps, row.last_step), (5000, 1, 3));
        assert_eq!(samples[0].rank, 2);
    }

    #[test]
    fn concurrent_publishers_sum_to_their_merged_accounts() {
        const THREADS: u32 = 8;
        const CALLS: u64 = 500;
        let hub = TelemetryHub::new();
        hub.set_enabled(true);
        // Each thread publishes under its own rank tag and returns what it
        // sent, merged the way the hub must merge it.
        let sent: Vec<(CounterSet, HistSet)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let hub = &hub;
                    s.spawn(move || {
                        crate::set_current_rank(10 + t);
                        let (mut total, mut total_hists) = (CounterSet::new(), HistSet::new());
                        for i in 0..CALLS {
                            let mut counters = CounterSet::new();
                            counters.set(Counter::Steps, 1);
                            counters.set(Counter::PoolSteals, u64::from(t) + i % 3);
                            counters.set(Counter::RetransmitCount, i % 2);
                            counters.set(Counter::SpmPeakBytes, u64::from(t) * 1000 + i);
                            let mut hists = HistSet::new();
                            hists.add(Hist::HaloWaitNanos, 100 * u64::from(t) + i);
                            hub.record_set(&counters, &hists);
                            hub.note_rank_step(10 + t, i);
                            total.merge(&counters);
                            total_hists.merge(&hists);
                        }
                        (total, total_hists)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let (mut counters, mut hists) = (CounterSet::new(), HistSet::new());
        for (c, h) in &sent {
            counters.merge(c);
            hists.merge(h);
        }
        assert_eq!(hub.snapshot(), counters);
        assert_eq!(hub.snapshot_hists(), hists);
        let rows = hub.rank_samples();
        assert_eq!(rows.len(), THREADS as usize);
        for (t, (row, (c, h))) in rows.iter().zip(&sent).enumerate() {
            let wait = h.get(Hist::HaloWaitNanos);
            assert_eq!(row.rank, 10 + t as u32);
            assert_eq!((row.steps, row.last_step), (CALLS, CALLS - 1));
            assert_eq!(row.steals, c.get(Counter::PoolSteals));
            assert_eq!(row.retransmits, c.get(Counter::RetransmitCount));
            assert_eq!(
                (row.halo_wait_ns, row.halo_wait_count),
                (wait.sum(), wait.count())
            );
        }
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
