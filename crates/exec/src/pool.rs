//! Persistent worker pool shared by every executor (paper §5, Figure
//! 4(d) generalized): each driver thread owns one condvar-parked pool
//! that lives for the whole run, and tiles are distributed through
//! chunked work-stealing deques.
//!
//! Bit-identity argument: the tile partition (`ExecPlan::tiles`) and the
//! per-tile arithmetic order are untouched; every tile writes a disjoint
//! set of output cells, so *any* tile→thread assignment — deque order or
//! a steal — produces the same bits. Only scheduling happens here.
//!
//! This module is also the home of the `SendPtr` raw pointer wrapper and
//! the worker-count clamp; `sweep` is their one user.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use msc_trace::Counter;

/// Raw mutable pointer that may cross threads.
///
/// Safety contract: workers write **disjoint** index sets of the pointee
/// buffer, and no worker reads cells another worker writes within one
/// job. The wrapper only carries the pointer across threads; the one
/// place that dereferences it for tile writes, and shows the disjointness,
/// is `sweep::TileRows::for_each`.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub fn new(p: *mut T) -> SendPtr<T> {
        SendPtr(p)
    }

    #[inline]
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// The worker-count clamp every executor applies: never more workers
/// than tasks, never zero, and never beyond the configured pool width.
pub(crate) fn worker_count(plan_threads: usize, n_tasks: usize) -> usize {
    plan_threads.min(n_tasks).max(1).min(max_threads())
}

/// Upper bound on workers per job (`usize::MAX` = plan decides): the
/// one process-wide run setting (`mscc --pool-threads`).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Cap the per-job worker count at `n`.
pub fn set_pool_threads(n: NonZeroUsize) {
    MAX_THREADS.store(n.get(), Ordering::Relaxed);
}

fn max_threads() -> usize {
    MAX_THREADS.load(Ordering::Relaxed)
}

/// How many chunks each worker's deque starts with; smaller chunks mean
/// finer-grained stealing at the cost of more deque traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// One worker's queue of task-index ranges. Owners pop from the front,
/// thieves steal from the back, so a steal takes the victim's coldest
/// chunk.
struct Deque {
    chunks: Mutex<VecDeque<(usize, usize)>>,
}

/// Deal `0..n_tasks` into per-worker deques, chunked and round-robin so
/// the initial assignment mirrors the paper's striping at chunk
/// granularity.
fn build_deques(n_tasks: usize, workers: usize) -> Vec<Deque> {
    let chunk = n_tasks.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let mut queues: Vec<VecDeque<(usize, usize)>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut start = 0;
    let mut w = 0;
    while start < n_tasks {
        let end = (start + chunk).min(n_tasks);
        queues[w % workers].push_back((start, end));
        w += 1;
        start = end;
    }
    queues
        .into_iter()
        .map(|q| Deque {
            chunks: Mutex::new(q),
        })
        .collect()
}

enum QueueImpl<'a> {
    /// Single worker: plain `0..n` in task order.
    Serial { next: usize, end: usize },
    /// Several workers: pop own deque, steal from the others when dry.
    Stealing {
        cur: (usize, usize),
        deques: &'a [Deque],
        steals: u64,
    },
}

/// Hands one worker its stream of task indices. Obtained only inside a
/// [`run_tile_job`] body.
pub struct TileQueue<'a> {
    worker: usize,
    imp: QueueImpl<'a>,
}

impl TileQueue<'_> {
    /// Stable worker slot in `0..worker_count` (slot 0 is the caller).
    pub(crate) fn worker_id(&self) -> usize {
        self.worker
    }
}

impl Iterator for TileQueue<'_> {
    type Item = usize;

    /// Next task index to execute, or `None` when every deque is dry.
    fn next(&mut self) -> Option<usize> {
        let me = self.worker;
        match &mut self.imp {
            QueueImpl::Serial { next, end } => {
                if *next < *end {
                    *next += 1;
                    Some(*next - 1)
                } else {
                    None
                }
            }
            QueueImpl::Stealing {
                cur,
                deques,
                steals,
            } => loop {
                if cur.0 < cur.1 {
                    let i = cur.0;
                    cur.0 += 1;
                    return Some(i);
                }
                if let Some(r) = deques[me].chunks.lock().unwrap().pop_front() {
                    *cur = r;
                    continue;
                }
                let n = deques.len();
                let stolen =
                    (1..n).find_map(|k| deques[(me + k) % n].chunks.lock().unwrap().pop_back());
                match stolen {
                    Some(r) => {
                        *steals += 1;
                        *cur = r;
                    }
                    None => {
                        msc_trace::record(Counter::PoolSteals, *steals);
                        *steals = 0;
                        return None;
                    }
                }
            },
        }
    }
}

/// Run `n_tasks` tasks across `worker_count(plan_threads, n_tasks)`
/// workers. `body` is invoked once per worker and drains its
/// [`TileQueue`]; the call returns when every task has executed.
///
/// Centralizes the end-of-step barrier-wait accounting: the trace gate
/// is sampled **once** before any worker starts (toggling tracing
/// mid-step can no longer pair a zero finish-stamp with an enabled
/// aggregation, which used to record bogus multi-second
/// `BarrierWaitNanos`).
pub(crate) fn run_tile_job(plan_threads: usize, n_tasks: usize, body: &(dyn Fn(&mut TileQueue) + Sync)) {
    let n = worker_count(plan_threads, n_tasks);
    if n == 1 {
        let mut q = TileQueue {
            worker: 0,
            imp: QueueImpl::Serial {
                next: 0,
                end: n_tasks,
            },
        };
        body(&mut q);
        return;
    }

    // Satellite fix: sample the gate once, use it for both the worker
    // finish stamps and the post-join aggregation.
    let trace_on = msc_trace::enabled();
    let finished: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    let deques = build_deques(n_tasks, n);
    let worker_body = |slot: usize| {
        let mut q = TileQueue {
            worker: slot,
            imp: QueueImpl::Stealing {
                cur: (0, 0),
                deques: &deques,
                steals: 0,
            },
        };
        body(&mut q);
        if trace_on {
            finished[slot].store(msc_trace::spans::now_ns(), Ordering::Relaxed);
        }
    };
    with_local_pool(n - 1, |pool| pool.run(n - 1, &worker_body));

    // Imbalance at the implicit end-of-step barrier: how long each
    // worker idled waiting for the slowest one.
    if trace_on {
        let stamps: Vec<u64> = finished.iter().map(|f| f.load(Ordering::Relaxed)).collect();
        let last = stamps.iter().copied().max().unwrap_or(0);
        let wait: u64 = stamps.iter().map(|&f| last - f).sum();
        msc_trace::record(Counter::BarrierWaitNanos, wait);
    }
}

/// Type-erased job handed to the parked helpers: `&dyn Fn(worker_slot)`.
/// The `'static` is a lie the pool is structured to keep harmless —
/// [`WorkerPool::run`] does not return (even on panic, via `WaitGuard`)
/// until every helper has finished the call, so the reference never
/// outlives the borrow it was transmuted from.
///
/// The submitter's telemetry hub rides along: helpers outlive any one
/// run, so they install the job's hub for the duration of the job —
/// steals and unparks land in the session that submitted the work.
#[derive(Clone)]
struct Job {
    fun: &'static (dyn Fn(usize) + Sync),
    hub: Arc<msc_trace::TelemetryHub>,
}
unsafe impl Send for Job {}

struct JobState {
    epoch: u64,
    job: Option<Job>,
    /// Helper slots participating in the current epoch.
    participants: usize,
    /// Participating helpers that have not finished yet.
    active: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<JobState>,
    /// Helpers park here between jobs.
    job_cv: Condvar,
    /// The submitter parks here until `active` drains to zero.
    done_cv: Condvar,
}

/// A persistent pool of condvar-parked helper threads. Created once per
/// driver thread (see [`with_local_pool`]) and reused across every step
/// of a run; dropped — joining the helpers — when the owning thread
/// exits.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(JobState {
                    epoch: 0,
                    job: None,
                    participants: 0,
                    active: 0,
                    panicked: false,
                    shutdown: false,
                }),
                job_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            handles: Vec::new(),
        }
    }

    pub(crate) fn helpers(&self) -> usize {
        self.handles.len()
    }

    /// Grow to at least `n` parked helper threads.
    pub(crate) fn ensure_helpers(&mut self, n: usize) {
        // Only the owning thread submits jobs, so the epoch cannot move
        // between this read and the spawns below.
        let epoch_now = self.shared.state.lock().unwrap().epoch;
        while self.handles.len() < n {
            let shared = Arc::clone(&self.shared);
            let slot = self.handles.len();
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("msc-pool-{slot}"))
                    .spawn(move || helper_loop(&shared, slot, epoch_now))
                    .expect("spawn pool helper"),
            );
        }
    }

    /// Run one job: helpers `1..=helpers` each get `body(slot)`, the
    /// calling thread participates as slot 0. Returns after every slot
    /// has finished; a helper panic is re-raised here.
    pub fn run(&self, helpers: usize, body: &(dyn Fn(usize) + Sync)) {
        assert!(helpers <= self.handles.len(), "pool not grown");
        if helpers == 0 {
            body(0);
            return;
        }
        // SAFETY: lifetime erasure only — `WaitGuard` below blocks until
        // every helper is done with `fun` before `run` returns or
        // unwinds, so the borrow outlives all uses.
        let fun: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Job {
                fun,
                hub: msc_trace::current_hub(),
            });
            st.participants = helpers;
            st.active = helpers;
            st.panicked = false;
            self.shared.job_cv.notify_all();
        }
        {
            // Even if slot 0 panics, wait for the helpers (they borrow
            // the caller's stack through `fun`) before unwinding.
            let _guard = WaitGuard {
                shared: &self.shared,
            };
            body(0);
        }
        if self.shared.state.lock().unwrap().panicked {
            panic!("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocks until the current job's helpers have all finished, then clears
/// the type-erased job pointer.
struct WaitGuard<'a> {
    shared: &'a PoolShared,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
    }
}

fn helper_loop(shared: &PoolShared, slot: usize, epoch_at_spawn: u64) {
    let mut seen = epoch_at_spawn;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if slot < st.participants {
                        break st.job.clone().expect("job present while active");
                    }
                    // Not part of this job; fall through and keep waiting.
                }
                msc_trace::record(Counter::PoolParks, 1);
                st = shared.job_cv.wait(st).unwrap();
            }
        };
        // Helpers must survive a panicking body or the pool wedges; the
        // flag re-raises in `run` on the submitting thread.
        let r = {
            let _hub_guard = msc_trace::install_thread_hub(Arc::clone(&job.hub));
            msc_trace::record(Counter::PoolUnparks, 1);
            catch_unwind(AssertUnwindSafe(|| (job.fun)(slot + 1)))
        };
        let mut st = shared.state.lock().unwrap();
        if r.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

thread_local! {
    static LOCAL_POOL: std::cell::RefCell<Option<WorkerPool>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's persistent pool, created on first use and grown
/// on demand; every rank thread (and the main driver thread) gets its
/// own, so concurrent distributed ranks never contend on one pool.
fn with_local_pool<R>(min_helpers: usize, f: impl FnOnce(&WorkerPool) -> R) -> R {
    LOCAL_POOL.with(|cell| {
        let mut opt = cell.borrow_mut();
        let pool = opt.get_or_insert_with(WorkerPool::new);
        pool.ensure_helpers(min_helpers);
        f(pool)
    })
}

/// Pre-spawn the calling thread's persistent pool with at least
/// `helpers` parked helper threads, so the first real job doesn't pay
/// thread-spawn latency. Long-lived executors (the daemon's job workers)
/// call this once at startup. Returns the pool's helper count.
pub fn warm_local_pool(helpers: usize) -> usize {
    with_local_pool(helpers, |p| p.helpers())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper-thread count of the calling thread's persistent pool (0 when
    /// the pool has not been created yet — probing does not create it).
    fn local_pool_helpers() -> usize {
        LOCAL_POOL.with(|cell| cell.borrow().as_ref().map_or(0, |p| p.helpers()))
    }

    #[test]
    fn pool_executes_every_task_exactly_once() {
        let n_tasks = 37;
        let hits: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();
        run_tile_job(4, n_tasks, &|q| {
            for i in q.by_ref() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn pool_single_worker_runs_in_task_order() {
        let order = Mutex::new(Vec::new());
        run_tile_job(1, 9, &|q| {
            for i in q.by_ref() {
                order.lock().unwrap().push(i);
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reuses_helper_threads_across_jobs() {
        // Two jobs on the same thread must reuse the same helpers.
        let ids = Mutex::new(std::collections::HashSet::new());
        for _ in 0..5 {
            run_tile_job(3, 12, &|q| {
                while q.next().is_some() {
                    if q.worker_id() != 0 {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    }
                }
            });
        }
        // At most 2 distinct helper threads for 3 workers (slot 0 is us).
        assert!(ids.lock().unwrap().len() <= 2);
    }

    #[test]
    fn warm_local_pool_prespawns_helpers() {
        std::thread::spawn(|| {
            assert_eq!(local_pool_helpers(), 0, "probe must not create the pool");
            assert!(warm_local_pool(3) >= 3);
            assert!(local_pool_helpers() >= 3);
            // Warming never shrinks an already-wider pool.
            assert!(warm_local_pool(1) >= 3);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pool_worker_panic_propagates_and_pool_survives() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_tile_job(4, 16, &|q| {
                for i in q.by_ref() {
                    assert!(i != 7, "boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must still work after a panicking job.
        let count = AtomicU64::new(0);
        run_tile_job(4, 16, &|q| {
            while q.next().is_some() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_steals_rebalance_a_skewed_load() {
        // One slow task; stealing lets the other workers drain the rest.
        let done = AtomicU64::new(0);
        run_tile_job(4, 64, &|q| {
            for i in q.by_ref() {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn pool_worker_count_clamp() {
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(0, 10), 1);
        assert_eq!(worker_count(4, 0), 1);
        assert_eq!(worker_count(2, 100), 2);
    }

    #[test]
    fn pool_deques_cover_all_tasks() {
        for (n_tasks, workers) in [(1, 1), (7, 3), (100, 4), (16, 16)] {
            let deques = build_deques(n_tasks, workers);
            let mut seen = vec![false; n_tasks];
            for d in &deques {
                for &(s, e) in d.chunks.lock().unwrap().iter() {
                    for (i, cell) in seen.iter_mut().enumerate().take(e).skip(s) {
                        assert!(!*cell, "task {i} dealt twice");
                        *cell = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{n_tasks}/{workers}");
        }
    }

    #[test]
    fn pool_send_ptr_round_trip() {
        let mut buf = vec![0u64; 32];
        let ptr = SendPtr::new(buf.as_mut_ptr());
        run_tile_job(4, 32, &|q| {
            for i in q.by_ref() {
                // SAFETY: each index is handed to exactly one worker.
                unsafe { *ptr.get().add(i) = i as u64 + 1 };
            }
        });
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }
}
