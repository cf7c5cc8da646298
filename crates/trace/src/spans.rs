//! Per-thread span buffers.
//!
//! Each (thread, hub) pair owns a fixed-capacity buffer of
//! [`SpanRecord`]s; the owning thread appends with a relaxed index load
//! and a release store — no locks, no CAS — and a collector snapshots
//! all buffers through the hub's registry. Buffers saturate rather than
//! wrap: once full, new spans are counted as dropped instead of
//! overwriting records a concurrent collector might be reading. 16 Ki
//! records per thread is far beyond what the instrumented call sites
//! produce per run; drops are reported in the profile so saturation is
//! visible, not silent. The slots are allocated but not written until a
//! record lands in them, so a hub that lives for one short job pays for
//! the records it makes, not for the capacity.

use crate::counters::enabled;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum records retained per thread before saturation.
const CAPACITY: usize = 1 << 14;

/// Rank value of spans recorded outside any rank thread (serial runs,
/// the main thread, worker pools).
pub const NO_RANK: u32 = u32::MAX;

/// What a record represents in the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A named interval (chrome `"X"` complete event).
    Complete,
    /// A point-in-time marker (chrome `"i"` instant event).
    Instant,
    /// Start of a cross-rank flow (chrome `"s"` event); `arg` carries
    /// the message identity linking it to the matching [`FlowEnd`].
    FlowStart,
    /// End of a cross-rank flow (chrome `"f"` event).
    FlowEnd,
}

/// One recorded span or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned at registration).
    pub thread: u32,
    /// Rank this record was made on ([`NO_RANK`] outside rank threads).
    pub rank: u32,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub kind: SpanKind,
    /// Free-form correlation value: the packed message identity for
    /// flow records (see [`crate::stitch::message_id`]), 0 otherwise.
    pub arg: u64,
}

impl SpanRecord {
    pub const EMPTY: SpanRecord = SpanRecord {
        name: "",
        thread: 0,
        rank: NO_RANK,
        start_ns: 0,
        dur_ns: 0,
        kind: SpanKind::Instant,
        arg: 0,
    };
}

impl Default for SpanRecord {
    fn default() -> SpanRecord {
        SpanRecord::EMPTY
    }
}

struct ThreadBuf {
    /// Left uninitialised until written: a short-lived hub (one per `mscd`
    /// job) records a handful of spans, and clearing all `CAPACITY` slots
    /// up front cost more than the job's own bookkeeping.
    slots: Box<[UnsafeCell<MaybeUninit<SpanRecord>>]>,
    /// Number of finalized records. Only the owning thread stores to it;
    /// collectors load with `Acquire` and read `slots[..len]`, which the
    /// owner has initialised and never rewrites (saturating, not
    /// circular).
    len: AtomicUsize,
    dropped: AtomicU64,
    thread: u32,
}

// SAFETY: collectors only read slots below `len` (initialised, then
// released by the single writer), so cross-thread access is
// data-race-free by construction; `SpanRecord` is `Copy + Send`.
unsafe impl Sync for ThreadBuf {}
// SAFETY: as above; the buffer owns nothing thread-bound.
unsafe impl Send for ThreadBuf {}

/// `n` record slots whose memory is allocated but not written.
fn uninit_slots(n: usize) -> Box<[UnsafeCell<MaybeUninit<SpanRecord>>]> {
    let raw = Box::into_raw(Box::<[SpanRecord]>::new_uninit_slice(n));
    // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the two
    // slice types share layout and allocation size; wrapping an
    // uninitialised slot in a cell asserts nothing about its contents.
    unsafe { Box::from_raw(raw as *mut [UnsafeCell<MaybeUninit<SpanRecord>>]) }
}

impl ThreadBuf {
    fn new(thread: u32) -> ThreadBuf {
        ThreadBuf {
            slots: uninit_slots(CAPACITY),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            thread,
        }
    }

    /// Owner-thread-only append.
    fn push(&self, mut rec: SpanRecord) {
        rec.thread = self.thread;
        rec.rank = current_rank();
        let n = self.len.load(Ordering::Relaxed);
        if n < self.slots.len() {
            // SAFETY: only the owning thread writes, and only at index
            // `len`, which no collector reads before the release store
            // below publishes it.
            unsafe { (*self.slots[n].get()).write(rec) };
            self.len.store(n + 1, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One hub's span-buffer registry: every thread that records into the
/// hub registers one [`ThreadBuf`] here (found via a per-thread cache
/// keyed by hub id).
pub(crate) struct Registry {
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Small dense thread ids, assigned per hub at registration.
    next_thread: AtomicU32,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            bufs: Mutex::new(Vec::new()),
            next_thread: AtomicU32::new(0),
        }
    }

    fn register(&self) -> Arc<ThreadBuf> {
        let buf = Arc::new(ThreadBuf::new(
            self.next_thread.fetch_add(1, Ordering::Relaxed),
        ));
        self.bufs.lock().unwrap().push(Arc::clone(&buf));
        buf
    }

    /// Snapshot every thread's records, ordered by (start, thread),
    /// plus the total dropped (saturated) count.
    pub(crate) fn collect(&self) -> (Vec<SpanRecord>, u64) {
        let mut out = Vec::new();
        let mut dropped = 0u64;
        for buf in self.bufs.lock().unwrap().iter() {
            let n = buf.len.load(Ordering::Acquire);
            for slot in &buf.slots[..n] {
                // SAFETY: slots below the acquired `len` were initialised
                // by `push` before its release store and are never
                // rewritten while counted.
                out.push(unsafe { (*slot.get()).assume_init() });
            }
            dropped += buf.dropped.load(Ordering::Relaxed);
        }
        out.sort_by_key(|r| (r.start_ns, r.thread));
        (out, dropped)
    }

    /// Clear all buffers. Callers must ensure no spans are being
    /// recorded concurrently (the buffers are reused in place).
    pub(crate) fn reset(&self) {
        for buf in self.bufs.lock().unwrap().iter() {
            buf.len.store(0, Ordering::Release);
            buf.dropped.store(0, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// This thread's buffers, one per live hub it has recorded spans into.
    static BUF_CACHE: crate::hub::ThreadBufCache<ThreadBuf> =
        const { std::cell::RefCell::new(Vec::new()) };
    static CURRENT_RANK: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_RANK) };
}

/// Append `rec` to the calling thread's buffer in `hub`, registering a
/// buffer on first use.
pub(crate) fn push_record(hub: &crate::TelemetryHub, rec: SpanRecord) {
    BUF_CACHE.with(|c| {
        crate::hub::with_thread_buf(c, hub.id(), || hub.spans.register(), |buf| buf.push(rec))
    });
}

/// Buffers the calling thread's cache keeps alive.
#[cfg(test)]
pub(crate) fn cached_thread_bufs() -> usize {
    BUF_CACHE.with(|c| c.borrow().len())
}

/// Tag every record made on the calling thread with `rank` from now on.
/// The distributed runtime calls this at rank-thread startup so cross-
/// rank traces can be stitched; threads never shared across ranks keep
/// [`NO_RANK`].
pub fn set_current_rank(rank: u32) {
    CURRENT_RANK.with(|r| r.set(rank));
}

/// The calling thread's rank tag ([`NO_RANK`] if never set).
pub fn current_rank() -> u32 {
    CURRENT_RANK.with(|r| r.get())
}

/// Nanoseconds since the process trace epoch (first call wins the epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// RAII interval: records a [`SpanKind::Complete`] record on drop.
/// Inert (no clock read, no buffer touch) when tracing is disabled at
/// construction time.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: Option<u64>,
    arg: u64,
}

/// Open a named interval covering the guard's lifetime.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_arg(name, 0)
}

/// Open a named interval carrying a correlation value (e.g. the step
/// index, read back by [`crate::stitch::straggler_report`]).
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    SpanGuard {
        name,
        start_ns: enabled().then(now_ns),
        arg,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            let dur_ns = now_ns().saturating_sub(start_ns);
            crate::hub::with_current(|h| {
                push_record(
                    h,
                    SpanRecord {
                        name: self.name,
                        start_ns,
                        dur_ns,
                        kind: SpanKind::Complete,
                        arg: self.arg,
                        ..SpanRecord::EMPTY
                    },
                )
            });
        }
    }
}

/// Record an instantaneous named marker.
#[inline]
pub fn event(name: &'static str) {
    if !enabled() {
        return;
    }
    crate::hub::with_current(|h| {
        push_record(
            h,
            SpanRecord {
                name,
                start_ns: now_ns(),
                kind: SpanKind::Instant,
                ..SpanRecord::EMPTY
            },
        )
    });
}

/// Record the start of a cross-rank flow (e.g. a halo send). `id` is the
/// packed message identity ([`crate::stitch::message_id`]); the exporter
/// draws an arrow to the matching [`flow_recv`] with the same id.
#[inline]
pub fn flow_send(name: &'static str, id: u64) {
    flow(name, id, SpanKind::FlowStart);
}

/// Record the end of a cross-rank flow (e.g. a halo delivery).
#[inline]
pub fn flow_recv(name: &'static str, id: u64) {
    flow(name, id, SpanKind::FlowEnd);
}

#[inline]
fn flow(name: &'static str, id: u64, kind: SpanKind) {
    if !enabled() {
        return;
    }
    crate::hub::with_current(|h| {
        push_record(
            h,
            SpanRecord {
                name,
                start_ns: now_ns(),
                kind,
                arg: id,
                ..SpanRecord::EMPTY
            },
        )
    });
}

/// Snapshot every thread's records in the current hub, ordered by
/// (start, thread). Returns the records and the total number of dropped
/// (saturated) spans.
pub fn collect_spans() -> (Vec<SpanRecord>, u64) {
    crate::hub::with_current(|h| h.collect_spans())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{self, EnableGuard};

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        counters::set_enabled(false);
        {
            let _s = span("invisible");
            event("also_invisible");
        }
        let (recs, dropped) = collect_spans();
        assert!(recs.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_nest_and_order() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        {
            let _e = EnableGuard::new();
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            event("marker");
        }
        let (recs, _) = collect_spans();
        let names: Vec<&str> = recs.iter().map(|r| r.name).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"marker"));
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        // Well-nested: inner lies inside outer.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        crate::reset();
    }

    #[test]
    fn rank_tags_and_flow_records_land() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        {
            let _e = EnableGuard::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_current_rank(3);
                    let _sp = span("ranked");
                    flow_send("halo", 0xbeef);
                });
            });
            event("unranked");
        }
        let (recs, _) = collect_spans();
        let ranked = recs.iter().find(|r| r.name == "ranked").unwrap();
        assert_eq!(ranked.rank, 3);
        let fl = recs.iter().find(|r| r.kind == SpanKind::FlowStart).unwrap();
        assert_eq!(fl.rank, 3);
        assert_eq!(fl.arg, 0xbeef);
        let un = recs.iter().find(|r| r.name == "unranked").unwrap();
        assert_eq!(un.rank, NO_RANK);
        crate::reset();
    }

    #[test]
    fn disabled_flow_records_nothing() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        counters::set_enabled(false);
        flow_send("halo", 1);
        flow_recv("halo", 1);
        let (recs, _) = collect_spans();
        assert!(recs.is_empty());
    }

    /// An `mscd` worker: one thread, a fresh enabled hub per job, one span
    /// in each. Every span reads back, and a whole job (hub, buffer, span,
    /// collect) costs less than half of just clearing a buffer's worth of
    /// slots, which `ThreadBuf::new` used to do on top. Both sides are
    /// measured here, so the bound follows the machine and the build
    /// profile (4-5x headroom in debug, 10x in release), and each is the
    /// best of three rounds, so one descheduled round does not decide it.
    #[test]
    fn short_lived_hubs_do_not_pay_for_unwritten_slots() {
        const HUBS: usize = 1000;
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        fn best_of_three(mut round: impl FnMut()) -> std::time::Duration {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    round();
                    t0.elapsed()
                })
                .min()
                .unwrap()
        }
        std::thread::spawn(|| {
            let lazy = best_of_three(|| {
                for job in 0..HUBS {
                    let hub = crate::TelemetryHub::new();
                    hub.set_enabled(true);
                    let _g = crate::hub::install_thread_hub(Arc::clone(&hub));
                    drop(span_arg("job", job as u64));
                    let (recs, dropped) = hub.collect_spans();
                    assert_eq!((recs.len(), dropped), (1, 0));
                    assert_eq!((recs[0].name, recs[0].arg), ("job", job as u64));
                }
            });
            let eager = best_of_three(|| {
                for _ in 0..HUBS {
                    std::hint::black_box(vec![SpanRecord::EMPTY; CAPACITY]);
                }
            });
            assert!(
                lazy < eager / 2,
                "{HUBS} hubs took {lazy:?}; clearing their slots alone takes {eager:?}"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_writers_all_land() {
        let _g = crate::testutil::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        {
            let _e = EnableGuard::new();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..50 {
                            let _sp = span("worker");
                        }
                    });
                }
            });
        }
        let (recs, dropped) = collect_spans();
        assert_eq!(recs.iter().filter(|r| r.name == "worker").count(), 200);
        assert_eq!(dropped, 0);
        crate::reset();
    }
}
