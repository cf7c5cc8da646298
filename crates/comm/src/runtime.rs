//! The message-passing runtime: ranks are OS threads, messages travel
//! over channels, and `isend`/`irecv` follow MPI's non-blocking
//! semantics. Delivery between a pair of ranks is matched by `(src, tag)`
//! with out-of-order buffering, like MPI's unexpected-message queue.
//!
//! The channel is reliable, as the paper's MPI transport is: a payload is
//! an owned `Vec<T>` moved through an in-process channel, so it arrives
//! once and intact. The fault injector ([`crate::fault`]) can only hold a
//! frame back behind its successors or kill a rank. A wait blocks on its
//! inbox in short polls; between polls it looks at the source's alive
//! flag, so a rank that left the fabric is reported at once as
//! [`CommError::RankDead`], and a message that never comes fails the wait
//! with [`CommError::Timeout`] at the world's one deadline — typed errors,
//! never a hang.

use crate::error::CommError;
use crate::fault::FaultPlan;
use msc_trace::{Counter, CounterSet, FlightKind, Hist, HistSet, TelemetryHub};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a wait blocks on its inbox before it looks at the world
/// again: the source's alive flag and the deadline. A rank that left the
/// fabric is seen at the next poll.
const POLL: Duration = Duration::from_millis(4);

/// A point-to-point data frame. `seq` numbers the `(src → dst)` stream.
/// `src` is the sender's *logical* rank; `epoch` is the membership epoch
/// the frame was sent under — receivers drop frames from older epochs
/// (they describe a timeline that a recovery rolled back) and buffer
/// frames from newer ones until they catch up.
struct Frame<T> {
    src: usize,
    epoch: u64,
    tag: u64,
    seq: u64,
    payload: Vec<T>,
}

/// A posted receive: resolved by [`RankCtx::wait`].
#[derive(Debug)]
pub struct RecvRequest {
    src: usize,
    tag: u64,
}

impl RecvRequest {
    pub fn src(&self) -> usize {
        self.src
    }
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// How a recovered rank's state is reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The dead rank's buddy holds its window snapshot for this
    /// generation and every survivor holds its own — diskless rollback.
    Buddy { gen: u64 },
    /// No generation is globally stable in memory, but a complete disk
    /// checkpoint exists: the spare loads the dead rank's slice from it.
    Disk { gen: u64 },
    /// Nothing survived anywhere: re-derive generation 0 from the seeded
    /// initial grid (always available, always bit-exact).
    Initial,
}

impl RecoverySource {
    /// The generation every rank rolls back to.
    pub fn gen(&self) -> u64 {
        match self {
            RecoverySource::Buddy { gen } | RecoverySource::Disk { gen } => *gen,
            RecoverySource::Initial => 0,
        }
    }
}

/// One recovery event: which logical rank died, which physical spare
/// slot adopted it, and where its state comes from. `epoch` is the
/// membership epoch the event opened.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    pub epoch: u64,
    pub logical: usize,
    pub spare: usize,
    pub source: RecoverySource,
}

/// Outcome of reporting a failure to the membership layer.
#[derive(Debug, Clone)]
pub enum FailureOutcome {
    /// A spare was assigned; the record says how everyone rolls back.
    Recovered(FailureRecord),
    /// The epoch already advanced past the reporter's view — some rank
    /// beat it to the report. Re-sync via [`Membership::latest_failure`].
    Stale,
    /// No spare left: the run cannot heal online and the original error
    /// propagates (the disk-restart loop is the outer fallback).
    Unrecoverable,
}

/// Shared membership state for a world with hot spares: the logical →
/// physical rank assignment, the spare pool, which checkpoint
/// generations are where, and the recovery log. One instance is shared
/// by every rank thread of a resilient run.
///
/// The epoch counter is the cheap read path — ranks poll it from their
/// wait loops with a single atomic load; the mutex guards the rest and
/// is only taken on checkpoint generations and actual failures.
pub struct Membership {
    n_logical: usize,
    epoch: AtomicU64,
    finished: AtomicBool,
    unrecoverable: AtomicBool,
    /// Logical rank -> physical slot, readable without the lock.
    assign: Vec<AtomicUsize>,
    state: Mutex<MemberState>,
}

struct MemberState {
    /// Unassigned physical spare slots (LIFO).
    spares: Vec<usize>,
    /// Per logical rank: checkpoint generations it holds in memory.
    local_gens: Vec<BTreeSet<u64>>,
    /// Per logical rank: generations of *its* snapshot held by its buddy.
    buddy_gens: Vec<BTreeSet<u64>>,
    /// Recovery log; `failures.len()` is the current epoch.
    failures: Vec<FailureRecord>,
    /// Logical ranks done with their steps in the current epoch.
    done: HashSet<usize>,
    recoveries: u64,
}

/// Generations remembered per rank before pruning; anything this deep
/// in the past can no longer be the newest globally-stable generation.
pub(crate) const KEEP_GENS: usize = 4;

impl Membership {
    /// A membership over `n_logical` compute ranks plus `spares` extra
    /// physical slots (numbered `n_logical..n_logical + spares`).
    pub(crate) fn new(n_logical: usize, spares: usize) -> Membership {
        Membership {
            n_logical,
            epoch: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            unrecoverable: AtomicBool::new(false),
            assign: (0..n_logical).map(AtomicUsize::new).collect(),
            state: Mutex::new(MemberState {
                spares: (n_logical..n_logical + spares).rev().collect(),
                local_gens: vec![BTreeSet::new(); n_logical],
                buddy_gens: vec![BTreeSet::new(); n_logical],
                failures: Vec::new(),
                done: HashSet::new(),
                recoveries: 0,
            }),
        }
    }

    pub(crate) fn n_logical(&self) -> usize {
        self.n_logical
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Physical slot currently carrying a logical rank.
    pub(crate) fn phys_of(&self, logical: usize) -> usize {
        self.assign[logical].load(Ordering::Acquire)
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    pub(crate) fn is_unrecoverable(&self) -> bool {
        self.unrecoverable.load(Ordering::Acquire)
    }

    /// Successful online recoveries so far (distinct from disk restarts).
    pub(crate) fn recoveries(&self) -> u64 {
        self.state.lock().unwrap().recoveries
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemberState> {
        // A poisoned membership mutex means a rank panicked mid-update;
        // the bookkeeping is still internally consistent (every update
        // is a single insert/push), so recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record that `logical` holds its own window snapshot for `gen`.
    pub(crate) fn note_local(&self, logical: usize, gen: u64) {
        let mut st = self.lock();
        let set = &mut st.local_gens[logical];
        set.insert(gen);
        while set.len() > KEEP_GENS {
            let oldest = *set.iter().next().unwrap();
            set.remove(&oldest);
        }
    }

    /// Record that `logical`'s buddy holds `logical`'s snapshot for `gen`.
    pub(crate) fn note_buddy(&self, logical: usize, gen: u64) {
        let mut st = self.lock();
        let set = &mut st.buddy_gens[logical];
        set.insert(gen);
        while set.len() > KEEP_GENS {
            let oldest = *set.iter().next().unwrap();
            set.remove(&oldest);
        }
    }

    /// Report a dead logical rank. The first reporter (under the lock)
    /// assigns a spare, picks the rollback source, and opens a new
    /// epoch; concurrent reporters observe [`FailureOutcome::Stale`] and
    /// re-sync from the latest record. `disk_gen` is the newest complete
    /// disk checkpoint, if the run keeps one.
    pub(crate) fn report_failure(
        &self,
        logical: usize,
        reporter_epoch: u64,
        disk_gen: Option<u64>,
    ) -> FailureOutcome {
        let mut st = self.lock();
        let current = st.failures.len() as u64;
        if current > reporter_epoch {
            return FailureOutcome::Stale;
        }
        let Some(spare) = st.spares.pop() else {
            self.unrecoverable.store(true, Ordering::Release);
            return FailureOutcome::Unrecoverable;
        };
        // Newest generation that heals disklessly: the dead rank's buddy
        // must hold its snapshot and every survivor must hold its own.
        let n = self.n_logical;
        let stable = st.buddy_gens[logical]
            .iter()
            .rev()
            .find(|&&g| {
                (0..n)
                    .filter(|&r| r != logical)
                    .all(|r| st.local_gens[r].contains(&g))
            })
            .copied();
        let source = match (stable, disk_gen) {
            (Some(gen), _) => RecoverySource::Buddy { gen },
            (None, Some(gen)) => RecoverySource::Disk { gen },
            (None, None) => RecoverySource::Initial,
        };
        // The dead thread's holdings are gone: its own snapshots, and
        // the buddy copies it kept for its predecessor.
        st.local_gens[logical].clear();
        let pred = (logical + n - 1) % n;
        if pred != logical {
            st.buddy_gens[pred].clear();
        }
        let record = FailureRecord {
            epoch: current + 1,
            logical,
            spare,
            source,
        };
        st.failures.push(record.clone());
        st.recoveries += 1;
        // Everyone re-reports completion under the new epoch.
        st.done.clear();
        self.assign[logical].store(spare, Ordering::Release);
        // Publish the epoch last: by the time a poller sees it, the
        // assignment and the record are already in place.
        self.epoch.store(current + 1, Ordering::Release);
        FailureOutcome::Recovered(record)
    }

    /// The most recent recovery event, if any.
    pub(crate) fn latest_failure(&self) -> Option<FailureRecord> {
        self.lock().failures.last().cloned()
    }

    /// The adoption duty assigned to a physical spare slot, if any.
    pub(crate) fn duty_of(&self, slot: usize) -> Option<FailureRecord> {
        self.lock()
            .failures
            .iter()
            .rev()
            .find(|r| r.spare == slot)
            .cloned()
    }

    /// A logical rank finished its final step under `epoch`. When every
    /// logical rank has, the world is finished and spares stand down.
    pub(crate) fn report_done(&self, logical: usize, epoch: u64) {
        let mut st = self.lock();
        if st.failures.len() as u64 != epoch {
            return; // stale: the rank will re-enter compute and re-report
        }
        st.done.insert(logical);
        if st.done.len() == self.n_logical {
            self.finished.store(true, Ordering::Release);
        }
    }
}

/// World construction options: a chaos plan, the wait deadline, and —
/// for resilient runs — the shared membership layer.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seeded fault injector: delays data frames and kills ranks.
    pub fault: Option<Arc<FaultPlan>>,
    /// How long a wait may block on a live source before it fails with
    /// [`CommError::Timeout`]: a message that never comes is a diagnosis,
    /// not a hang.
    pub deadline: Duration,
    /// Hot-spare membership: present iff the run can heal dead ranks
    /// online. `None` keeps the runtime on its plain paths.
    pub membership: Option<Arc<Membership>>,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            fault: None,
            deadline: Duration::from_secs(60),
            membership: None,
        }
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("n_logical", &self.n_logical)
            .field("epoch", &self.epoch())
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Shared world state: how many ranks have left the communication fabric
/// (finished, errored, or panicked), and when each did. [`RankCtx::finalize`]
/// polls the count so finished ranks keep their endpoint open until
/// everyone is done, and departure is also counted on drop so a dead rank
/// never wedges its peers.
struct WorldShared {
    departed: AtomicUsize,
    /// The clock `left` counts from.
    start: Instant,
    /// Per physical slot: 0 while that thread is in the fabric, else the
    /// nanoseconds after `start` at which it left. Ranks are threads of
    /// one process, so this flag is exact: a wait stalled on a source
    /// reads it, and so does the membership layer's suspicion check, and
    /// the time it holds is where a detection latency starts.
    left: Vec<AtomicU64>,
}

/// Per-rank endpoint handed to each rank's closure. In membership
/// worlds `rank` is the *logical* rank (rewritten when a spare adopts a
/// dead rank's subdomain) and `slot` the fixed physical thread index;
/// everywhere else they coincide.
pub struct RankCtx<T> {
    pub rank: usize,
    pub n_ranks: usize,
    /// Physical slot of this thread (== initial `rank`).
    slot: usize,
    /// Every rank's inbox, shared by all ranks (`mpsc::Sender` is `Sync`
    /// since Rust 1.72).
    senders: Arc<Vec<Sender<Frame<T>>>>,
    inbox: Receiver<Frame<T>>,
    /// Unexpected-message queue: data frames that arrived before their
    /// matching irecv was waited on.
    stash: Vec<Frame<T>>,
    /// Next sequence number per destination stream.
    next_seq: Vec<u64>,
    /// Frames the injector is holding back, released after later sends.
    delayed: Vec<(usize, Frame<T>)>,
    fault: Option<Arc<FaultPlan>>,
    /// How long a wait on a live source may block.
    deadline: Duration,
    /// Halo-exchange rounds entered (drives kill injection).
    exchanges: u64,
    shared: Arc<WorldShared>,
    departed_marked: bool,
    /// Membership epoch this rank currently operates under.
    epoch: u64,
    /// Frames from a newer epoch than ours, replayed by `enter_epoch`.
    future: Vec<Frame<T>>,
    /// The membership layer: `None` outside resilient worlds.
    member: Option<Arc<Membership>>,
    /// Last recoverable control fault this endpoint originated (kill,
    /// suspect, epoch change). Intermediate layers flatten errors into
    /// strings; the driver reads the typed event back via `take_fault`.
    fault_note: Option<CommError>,
    /// Messages sent (diagnostics): every frame `isend` was handed.
    pub sent_msgs: u64,
    /// The rank's account since it was last published to the run's hub:
    /// protocol events, halo messages, bytes and pack/unpack time, and
    /// anything the driver bumps. Always accumulated — cheap local adds —
    /// so [`crate::distributed::CommStats`] has them with tracing off.
    pub counters: CounterSet,
    /// The latency samples of the same account (halo wait, pack, unpack,
    /// failure detection).
    pub hists: HistSet,
    /// The run's telemetry hub, which `publish` feeds.
    hub: Arc<TelemetryHub>,
}

impl<T> RankCtx<T> {
    /// Fixed physical thread index (== the spawn-time rank; unchanged by
    /// [`RankCtx::adopt`]).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Take the last typed control fault (kill, suspect, epoch change)
    /// this endpoint originated. Drivers call it after an operation
    /// errored to decide between online recovery and a full restart.
    pub fn take_fault(&mut self) -> Option<CommError> {
        self.fault_note.take()
    }

    fn note_control_fault(&mut self, e: &CommError) {
        self.fault_note = Some(e.clone());
    }

    /// Publish the account since the last publish to the run's hub (when
    /// it traces) and hand it over: [`RankCtx::counters`] and
    /// [`RankCtx::hists`] start again from zero, so every count and
    /// sample reaches the hub once and the caller once.
    pub(crate) fn publish(&mut self) -> (CounterSet, HistSet) {
        self.hub.record_set(&self.counters, &self.hists);
        (
            std::mem::take(&mut self.counters),
            std::mem::take(&mut self.hists),
        )
    }

    fn mark_departed(&mut self) {
        if !self.departed_marked {
            self.departed_marked = true;
            // The flag goes down after every frame this rank sent is in
            // its peer's channel and before the departed count rises, so a
            // peer that sees the flag down finds all of them in its inbox.
            let at = self.shared.start.elapsed().as_nanos().max(1);
            self.shared.left[self.slot].store(at as u64, Ordering::Release);
            self.shared.departed.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Non-blocking send: enqueue and return immediately (the paper's
    /// `MPI_isend`; channel buffering plays the role of the eager
    /// protocol). A hung-up destination is a typed
    /// [`CommError::RankDead`], not a panic.
    pub fn isend(&mut self, dst: usize, tag: u64, payload: Vec<T>) -> Result<(), CommError> {
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let frame = Frame {
            src: self.rank,
            epoch: self.epoch,
            tag,
            seq,
            payload,
        };
        msc_trace::flight(FlightKind::Send, self.rank as u32, dst as u32, tag, seq);
        msc_trace::flow_send(
            "halo_send",
            msc_trace::message_id(self.rank as u32, dst as u32, tag as u32, seq as u32),
        );
        // Frames the injector delayed are released *after* this newer
        // frame, which is exactly the reordering being simulated.
        let held = std::mem::take(&mut self.delayed);
        if let Err(e) = self.transmit(dst, frame) {
            return Err(self.promote_dead(e));
        }
        for (d, f) in held {
            let _ = self.raw_send(d, f);
        }
        self.sent_msgs += 1;
        Ok(())
    }

    /// Non-blocking receive: record interest in `(src, tag)` (the paper's
    /// `MPI_irecv`). Completion happens in [`RankCtx::wait`].
    pub fn irecv(&mut self, src: usize, tag: u64) -> RecvRequest {
        RecvRequest { src, tag }
    }

    /// Bump the exchange-round counter and apply any configured kill —
    /// drivers call this once per halo-exchange round. In membership
    /// worlds it is also an epoch checkpoint: a recovery opened since
    /// our last look surfaces here before any face is posted.
    pub fn begin_exchange(&mut self) -> Result<(), CommError> {
        self.poll_epoch()?;
        self.exchanges += 1;
        if let Some(plan) = &self.fault {
            if plan.should_kill(self.rank, self.exchanges) {
                msc_trace::flight(
                    FlightKind::Kill,
                    self.rank as u32,
                    self.rank as u32,
                    0,
                    self.exchanges,
                );
                let _ = msc_trace::dump_on_error("killed");
                let e = CommError::Killed {
                    rank: self.rank,
                    exchange: self.exchanges,
                };
                self.note_control_fault(&e);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Surface a pending membership epoch change as a typed control
    /// signal. A single atomic load; a no-op outside membership worlds.
    fn poll_epoch(&mut self) -> Result<(), CommError> {
        if let Some(m) = &self.member {
            let e = m.epoch();
            if e > self.epoch {
                let err = CommError::EpochChange { epoch: e };
                self.note_control_fault(&err);
                return Err(err);
            }
        }
        Ok(())
    }

    /// Cross into a new membership epoch: drop every trace of the rolled
    /// back timeline (stash, injector-held frames, sequence numbers) and
    /// replay any frames that arrived early from peers already in the new
    /// epoch. Replayed computation regenerates identical traffic, so a
    /// fresh numbering is safe — the epoch tag on every frame screens out
    /// stragglers from the past.
    pub fn enter_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.stash.clear();
        self.delayed.clear();
        self.next_seq.fill(0);
        let early = std::mem::take(&mut self.future);
        for frame in early {
            // Screening in process_frame re-buffers anything from an
            // even newer epoch and drops anything older.
            self.process_frame(frame);
        }
    }

    /// A spare adopts a dead rank's logical identity. Subsequent sends,
    /// receives, and trace records act as `logical`.
    pub fn adopt(&mut self, logical: usize) {
        self.rank = logical;
        msc_trace::set_current_rank(logical as u32);
    }

    /// Current membership epoch this rank operates under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Suspicion check for a peer: a logical peer whose flag is down is a
    /// suspect, unless it left after the world finished.
    fn check_suspect(&mut self, src: usize) -> Option<CommError> {
        let m = self.member.as_ref()?;
        if src >= m.n_logical() || src == self.rank {
            return None;
        }
        // The flag first, then `finished`. A rank lowers its flag in
        // `finalize` only after it read `finished` as set (Acquire), and
        // lowers it with a Release store that our Acquire load reads. So a
        // flag that went down for a departure after the finish comes with
        // `finished` visible to the load below: a normal departure is never
        // taken for a death. Read the other way round, a sweep that saw
        // `finished` clear and then the flag down would bury a rank that
        // simply finished.
        let left = self.left_at(src)?;
        if m.is_finished() {
            return None;
        }
        Some(self.note_suspect(src, left))
    }

    /// Record a suspect event: the time from its flag going down to now
    /// into the detection-latency histogram, a flight-recorder entry, and
    /// the typed control error.
    fn note_suspect(&mut self, src: usize, left: u64) -> CommError {
        let now = self.shared.start.elapsed().as_nanos() as u64;
        self.hists
            .add(Hist::DetectLatencyNanos, now.saturating_sub(left));
        msc_trace::flight(
            FlightKind::Recover,
            src as u32,
            self.rank as u32,
            0,
            self.epoch,
        );
        let e = CommError::RankSuspect { rank: src };
        self.note_control_fault(&e);
        e
    }

    /// Sweep every logical peer through the suspicion check — used by
    /// finished ranks and idle spares, which have no posted receive to
    /// stall on.
    pub(crate) fn poll_suspects(&mut self) -> Option<CommError> {
        let n = self.member.as_ref()?.n_logical();
        (0..n).find_map(|src| self.check_suspect(src))
    }

    /// In membership worlds a dead endpoint is a recoverable suspect,
    /// not a fatal [`CommError::RankDead`].
    fn promote_dead(&mut self, e: CommError) -> CommError {
        let Some(m) = &self.member else { return e };
        match e {
            CommError::RankDead { rank } if rank < m.n_logical() && rank != self.rank => {
                // A send finds the endpoint gone only after its flag went
                // down; a flag not seen down yet books a zero latency.
                let left = self.left_at(rank).unwrap_or(u64::MAX);
                self.note_suspect(rank, left)
            }
            other => other,
        }
    }

    /// Service the fabric for `dur` without expecting any payload: release
    /// held frames, drain inbound ones (late buddy snapshots, early
    /// frames of a new epoch), and surface epoch changes. Finished ranks
    /// of a membership world park here until the whole world completes,
    /// so a late failure can still pull them back.
    pub fn service_for(&mut self, dur: Duration) -> Result<(), CommError> {
        self.flush_delayed();
        let deadline = Instant::now() + dur;
        loop {
            self.poll_epoch()?;
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok(frame) => self.process_frame(frame),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            if Instant::now() >= deadline {
                return Ok(());
            }
        }
    }

    /// Build the hard timeout error, leaving a flight record and dumping
    /// the recorder: the failing (src, tag) pair's last moments ship with
    /// the error.
    fn note_timeout(&mut self, src: usize, tag: u64) -> CommError {
        msc_trace::flight(FlightKind::Timeout, src as u32, self.rank as u32, tag, 0);
        let _ = msc_trace::dump_on_error("timeout");
        CommError::Timeout {
            src,
            tag,
            stash_depth: self.stash.len(),
        }
    }

    fn note_rank_dead(&mut self, rank: usize) -> CommError {
        msc_trace::flight(FlightKind::Error, rank as u32, self.rank as u32, 0, 0);
        let _ = msc_trace::dump_on_error("rank_dead");
        CommError::RankDead { rank }
    }

    /// Block until the matching message arrives; unrelated messages are
    /// stashed for later requests. A source that left the fabric without
    /// sending it is [`CommError::RankDead`] (a suspect in membership
    /// worlds) as soon as a poll finds its alive flag down; a live source
    /// that stays silent past the world's deadline is
    /// [`CommError::Timeout`].
    pub fn wait(&mut self, req: RecvRequest) -> Result<Vec<T>, CommError> {
        let _span = msc_trace::span("recv_wait");
        // A peer may be blocked on a frame the injector is holding.
        self.flush_delayed();
        if let Some(payload) = self.take_stashed(req.src, req.tag) {
            return Ok(payload);
        }
        let start = Instant::now();
        loop {
            self.poll_epoch()?;
            let got = self
                .inbox
                .recv_timeout(POLL.min(self.deadline.saturating_sub(start.elapsed())));
            // The wait ends when the frame leaves the inbox, so sorting
            // it is not booked as waiting.
            let waited = start.elapsed();
            match got {
                Ok(frame) => self.process_frame(frame),
                Err(RecvTimeoutError::Timeout) if self.is_alive(req.src) => {
                    self.counters.bump(Counter::TimeoutCount, 1);
                    if waited >= self.deadline {
                        return Err(self.note_timeout(req.src, req.tag));
                    }
                }
                // The source left the fabric, and everything it sent was
                // in our inbox before its flag went down: one more drain
                // finds the frame, or nothing ever will. A recovery that
                // opened meanwhile is the news, not the death it heals.
                Err(_) => {
                    while let Ok(frame) = self.inbox.try_recv() {
                        self.process_frame(frame);
                    }
                    if !self
                        .stash
                        .iter()
                        .any(|m| m.src == req.src && m.tag == req.tag)
                    {
                        self.poll_epoch()?;
                        let e = self.note_rank_dead(req.src);
                        return Err(self.promote_dead(e));
                    }
                }
            }
            if let Some(payload) = self.take_stashed(req.src, req.tag) {
                self.hists
                    .add(Hist::HaloWaitNanos, waited.as_nanos() as u64);
                return Ok(payload);
            }
        }
    }

    /// Is the thread carrying logical rank `rank` still in the fabric?
    fn is_alive(&self, rank: usize) -> bool {
        self.left_at(rank).is_none()
    }

    /// When the thread carrying logical rank `rank` left the fabric, in
    /// nanoseconds after the world started; `None` while it is in.
    fn left_at(&self, rank: usize) -> Option<u64> {
        let at = self.shared.left[self.phys(rank)].load(Ordering::Acquire);
        (at != 0).then_some(at)
    }

    /// The physical slot carrying logical rank `rank`: in membership
    /// worlds whichever slot currently carries it (a spare after
    /// adoption), elsewhere the rank itself.
    fn phys(&self, rank: usize) -> usize {
        match &self.member {
            Some(m) if rank < m.n_logical() => m.phys_of(rank),
            _ => rank,
        }
    }

    /// The earliest stashed frame from `src` with `tag`. The stash keeps
    /// arrival order, so frames of one `(src, tag)` come out in the order
    /// they came in.
    fn take_stashed(&mut self, src: usize, tag: u64) -> Option<Vec<T>> {
        let pos = self
            .stash
            .iter()
            .position(|m| m.src == src && m.tag == tag)?;
        Some(self.stash.remove(pos).payload)
    }

    /// Handle one inbound frame. Membership epochs screen first — a frame
    /// from the rolled-back past is dropped, one from a future epoch
    /// buffered for `enter_epoch` — and data is stashed for its wait.
    fn process_frame(&mut self, frame: Frame<T>) {
        if frame.epoch < self.epoch {
            return; // stale timeline; recovery replay resends
        }
        if frame.epoch > self.epoch {
            self.future.push(frame);
            return;
        }
        msc_trace::flight(
            FlightKind::Deliver,
            frame.src as u32,
            self.rank as u32,
            frame.tag,
            frame.seq,
        );
        msc_trace::flow_recv(
            "halo_recv",
            msc_trace::message_id(
                frame.src as u32,
                self.rank as u32,
                frame.tag as u32,
                frame.seq as u32,
            ),
        );
        self.stash.push(frame);
    }

    /// Send a data frame through the fault injector: now, or held back
    /// until after a later send.
    fn transmit(&mut self, dst: usize, frame: Frame<T>) -> Result<(), CommError> {
        let held = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.delays(self.rank, dst, frame.tag, frame.seq));
        if !held {
            return self.raw_send(dst, frame);
        }
        self.counters.bump(Counter::FaultsInjected, 1);
        msc_trace::flight(
            FlightKind::FaultInjected,
            self.rank as u32,
            dst as u32,
            frame.tag,
            frame.seq,
        );
        self.delayed.push((dst, frame));
        Ok(())
    }

    fn raw_send(&self, dst: usize, frame: Frame<T>) -> Result<(), CommError> {
        self.senders[self.phys(dst)]
            .send(frame)
            .map_err(|_| CommError::RankDead { rank: dst })
    }

    fn flush_delayed(&mut self) {
        for (dst, frame) in std::mem::take(&mut self.delayed) {
            let _ = self.raw_send(dst, frame);
        }
    }

    /// Cooperative teardown: release any injector-held frames, then keep
    /// the endpoint open, draining it, until every rank has departed
    /// (finished, errored, or died), so no peer's send finds it gone.
    /// Call it as the last communication act of a rank body; ranks that
    /// skip it (or die) are counted out on drop.
    pub fn finalize(&mut self) {
        self.flush_delayed();
        self.mark_departed();
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.departed.load(Ordering::Acquire) < self.n_ranks
            && Instant::now() < deadline
        {
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok(frame) => self.process_frame(frame),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

impl<T> Drop for RankCtx<T> {
    fn drop(&mut self) {
        // A rank that exits (or unwinds) without calling `finalize`
        // still counts as departed, so peers polling in `finalize`
        // cannot wait for it forever.
        self.mark_departed();
    }
}

/// A world of `n` ranks. Spawns one thread per rank and joins them.
pub struct World;

impl World {
    /// Run `f(ctx)` on every rank concurrently; returns the per-rank
    /// results in rank order. Panics in any rank propagate — a thin
    /// wrapper over [`World::try_run`] for tests and infallible callers.
    pub fn run<T, R, F>(n_ranks: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(RankCtx<T>) -> R + Sync,
    {
        match Self::try_run(n_ranks, f) {
            Ok(results) => results,
            Err(e) => panic!("rank thread panicked: {e}"),
        }
    }

    /// Like [`World::run`], but a panicking rank poisons the world as a
    /// typed [`CommError::WorldPoisoned`] naming the failing rank,
    /// instead of nuking every rank's result with a joined panic.
    pub fn try_run<T, R, F>(n_ranks: usize, f: F) -> Result<Vec<R>, CommError>
    where
        T: Send,
        R: Send,
        F: Fn(RankCtx<T>) -> R + Sync,
    {
        Self::try_run_with(n_ranks, WorldConfig::default(), f)
    }

    /// Full-control entry point: chaos plan, wait deadline, membership.
    pub fn try_run_with<T, R, F>(
        n_ranks: usize,
        cfg: WorldConfig,
        f: F,
    ) -> Result<Vec<R>, CommError>
    where
        T: Send,
        R: Send,
        F: Fn(RankCtx<T>) -> R + Sync,
    {
        assert!(n_ranks > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(n_ranks);
        let mut receivers = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let shared = Arc::new(WorldShared {
            departed: AtomicUsize::new(0),
            start: Instant::now(),
            left: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
        });

        let mut results: HashMap<usize, R> = HashMap::new();
        let mut poisoned: Option<(usize, String)> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let senders = Arc::clone(&senders);
                let shared = Arc::clone(&shared);
                let fault = cfg.fault.clone();
                let member = cfg.membership.clone();
                let deadline = cfg.deadline;
                let f = &f;
                // Rank threads inherit the launching thread's telemetry
                // hub so a sessioned run keeps all ranks in one session.
                let hub = msc_trace::current_hub();
                handles.push(scope.spawn(move || {
                    let _hub_guard = msc_trace::install_thread_hub(Arc::clone(&hub));
                    // Tag this thread's spans, flows, and flight records
                    // with the rank id so cross-rank traces stitch.
                    msc_trace::set_current_rank(rank as u32);
                    let _span = msc_trace::span("rank");
                    let ctx = RankCtx {
                        rank,
                        n_ranks,
                        slot: rank,
                        senders,
                        inbox,
                        stash: Vec::new(),
                        next_seq: vec![0; n_ranks],
                        delayed: Vec::new(),
                        fault,
                        deadline,
                        exchanges: 0,
                        shared,
                        departed_marked: false,
                        epoch: 0,
                        future: Vec::new(),
                        member,
                        fault_note: None,
                        sent_msgs: 0,
                        counters: CounterSet::new(),
                        hists: HistSet::new(),
                        hub,
                    };
                    let out = catch_unwind(AssertUnwindSafe(|| f(ctx)));
                    (rank, out)
                }));
            }
            for h in handles {
                match h.join() {
                    Ok((rank, Ok(r))) => {
                        results.insert(rank, r);
                    }
                    Ok((rank, Err(payload))) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        match &poisoned {
                            Some((r, _)) if *r <= rank => {}
                            _ => poisoned = Some((rank, message)),
                        }
                    }
                    // The closure catches its own panics, so an outer
                    // join failure should be unreachable; treat it as
                    // poison rather than crashing the caller.
                    Err(_) => {
                        if poisoned.is_none() {
                            poisoned = Some((usize::MAX, "rank join failed".into()));
                        }
                    }
                }
            }
        });
        if let Some((rank, message)) = poisoned {
            return Err(CommError::WorldPoisoned { rank, message });
        }
        let mut out = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            match results.remove(&r) {
                Some(v) => out.push(v),
                None => {
                    return Err(CommError::WorldPoisoned {
                        rank: r,
                        message: "rank produced no result".into(),
                    })
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::halo::{Backend, CartDecomp, HaloPlan};
    use msc_exec::Grid;

    #[test]
    fn ring_pass() {
        // Each rank sends its rank id to the next; sums must match.
        let results: Vec<usize> = World::run(4, |mut ctx: RankCtx<usize>| {
            let next = (ctx.rank + 1) % ctx.n_ranks;
            let prev = (ctx.rank + ctx.n_ranks - 1) % ctx.n_ranks;
            ctx.isend(next, 7, vec![ctx.rank]).unwrap();
            let req = ctx.irecv(prev, 7);
            ctx.wait(req).unwrap()[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let results: Vec<f64> = World::run(2, |mut ctx: RankCtx<f64>| {
            if ctx.rank == 0 {
                // Send tag 2 first, then tag 1.
                ctx.isend(1, 2, vec![2.0]).unwrap();
                ctx.isend(1, 1, vec![1.0]).unwrap();
                0.0
            } else {
                // Receive tag 1 first: tag 2 must be stashed, not lost.
                let r1 = ctx.irecv(0, 1);
                let v1 = ctx.wait(r1).unwrap()[0];
                let r2 = ctx.irecv(0, 2);
                let v2 = ctx.wait(r2).unwrap()[0];
                v1 * 10.0 + v2
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn stashed_frames_of_one_source_and_tag_come_back_in_arrival_order() {
        let results: Vec<Vec<f64>> = World::run(2, |mut ctx: RankCtx<f64>| {
            if ctx.rank == 0 {
                // An unrelated frame first, two of tag 5, then the one
                // rank 1 waits for first, so all three are stashed.
                for (tag, v) in [(9, 9.0), (5, 1.0), (5, 2.0), (7, 7.0)] {
                    ctx.isend(1, tag, vec![v]).unwrap();
                }
                return Vec::new();
            }
            let mut got = Vec::new();
            for tag in [7, 9, 5, 5] {
                let req = ctx.irecv(0, tag);
                got.push(ctx.wait(req).unwrap()[0]);
                if tag == 7 {
                    assert_eq!(ctx.stash.len(), 3, "the other three wait in the stash");
                }
            }
            got
        });
        assert_eq!(results[1], [7.0, 9.0, 1.0, 2.0]);
    }

    #[test]
    fn all_to_all() {
        let n = 5;
        let sums: Vec<usize> = World::run(n, move |mut ctx: RankCtx<usize>| {
            for dst in 0..ctx.n_ranks {
                if dst != ctx.rank {
                    ctx.isend(dst, 0, vec![ctx.rank * 100]).unwrap();
                }
            }
            let mut sum = 0;
            for src in 0..ctx.n_ranks {
                if src != ctx.rank {
                    let req = ctx.irecv(src, 0);
                    sum += ctx.wait(req).unwrap()[0];
                }
            }
            sum
        });
        for (rank, s) in sums.iter().enumerate() {
            let expect: usize = (0..n).filter(|&r| r != rank).map(|r| r * 100).sum();
            assert_eq!(*s, expect);
        }
    }

    #[test]
    fn single_rank_world() {
        let r: Vec<u32> = World::run(1, |ctx: RankCtx<f32>| ctx.rank as u32);
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn try_run_reports_poisoned_rank() {
        let err = World::try_run(3, |ctx: RankCtx<f64>| {
            if ctx.rank == 1 {
                panic!("deliberate test panic in rank 1");
            }
            ctx.rank
        })
        .unwrap_err();
        match err {
            CommError::WorldPoisoned { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate test panic"), "{message}");
            }
            other => panic!("expected WorldPoisoned, got {other:?}"),
        }
    }

    #[test]
    fn send_to_exited_rank_is_rank_dead() {
        let results: Vec<Option<CommError>> = World::run(2, |mut ctx: RankCtx<f64>| {
            if ctx.rank == 1 {
                return None; // exit immediately; endpoint drops
            }
            std::thread::sleep(Duration::from_millis(60));
            ctx.isend(1, 0, vec![1.0]).err()
        });
        assert_eq!(results[0], Some(CommError::RankDead { rank: 1 }));
    }

    #[test]
    fn delayed_frames_are_matched_by_source_and_tag() {
        // Half the frames are held back behind their successors, so rank 1
        // sees them out of order and must stash the early ones.
        let mut plan = FaultPlan::new(21);
        plan.delay_p = 0.5;
        let cfg = WorldConfig {
            fault: Some(Arc::new(plan)),
            ..Default::default()
        };
        let results: Vec<(u64, usize)> = World::try_run_with(2, cfg, |mut ctx: RankCtx<u64>| {
            let mut deepest = 0;
            if ctx.rank == 0 {
                for tag in 0..16 {
                    ctx.isend(1, tag, vec![tag]).unwrap();
                }
            } else {
                for tag in 0..16 {
                    let req = ctx.irecv(0, tag);
                    assert_eq!(ctx.wait(req).unwrap(), [tag]);
                    deepest = deepest.max(ctx.stash.len());
                }
            }
            ctx.finalize();
            (ctx.counters.get(Counter::FaultsInjected), deepest)
        })
        .unwrap();
        assert!(results[0].0 > 0, "nothing was delayed");
        assert!(results[1].1 > 0, "no frame overtook another");
    }

    #[test]
    fn a_plan_that_injects_nothing_moves_what_no_plan_moves() {
        use crate::distributed::{run_distributed_resilient, RunOptions};
        use msc_core::catalog::{benchmark, BenchmarkId};
        use msc_core::prelude::DType;
        use msc_core::schedule::{ExecPlan, Schedule};
        use msc_exec::boundary::Boundary;
        use msc_exec::Grid;

        let plans = || [None, Some(Arc::new(FaultPlan::new(9)))];

        // One halo exchange of the same plan on each kind of world.
        let decomp = CartDecomp::new(&[8, 8], &[2, 2], &[1, 1]).unwrap();
        let exchanged = plans().map(|fault| {
            let cfg = WorldConfig {
                fault,
                ..Default::default()
            };
            World::try_run_with(4, cfg, |mut ctx: RankCtx<f64>| {
                let mut g: Grid<f64> = Grid::random(&decomp.sub_extent(), &decomp.reach, 7);
                let plan = HaloPlan::new(&decomp, ctx.rank, Backend::DimOrdered);
                crate::plan::exchange(&plan, &mut ctx, &mut g, 0).unwrap();
                ctx.finalize();
                let bits: Vec<u64> = g.as_slice().iter().map(|v| v.to_bits()).collect();
                let halo = [Counter::HaloMessages, Counter::HaloBytes].map(|c| ctx.counters.get(c));
                (bits, halo, ctx.sent_msgs)
            })
            .unwrap()
        });
        assert!(exchanged[0] == exchanged[1]);
        assert_eq!(
            exchanged[0][0].2, 2,
            "a corner rank of a 2x2 grid sends two faces"
        );

        // A whole distributed program on each.
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[12, 12], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 55);
        let ran = plans().map(|chaos| {
            let opts = RunOptions {
                chaos,
                ..RunOptions::default()
            };
            // Each rank sweeps its sub-grid as one tile.
            let (out, stats) =
                run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, |sub| {
                    ExecPlan::lower(&Schedule::default(), sub.len(), sub)
                })
                .unwrap();
            let bits: Vec<u64> = out.as_slice().iter().map(|v| v.to_bits()).collect();
            (
                bits,
                stats.halo_messages(),
                stats.halo_bytes(),
                stats.messages,
            )
        });
        assert!(ran[0] == ran[1]);
        assert!(ran[0].1 > 0 && ran[0].1 == ran[0].3);
    }

    #[test]
    fn timeout_error_names_the_pending_pair() {
        let cfg = WorldConfig {
            deadline: Duration::from_millis(50),
            ..Default::default()
        };
        let results: Vec<Option<CommError>> =
            World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
                if ctx.rank == 0 {
                    // Send something on a *different* tag so the stash is
                    // non-empty, then stay alive until rank 1 gave up: a
                    // wait on a live source times out, one on a departed
                    // source would be `RankDead`.
                    ctx.isend(1, 11, vec![4.0]).unwrap();
                    while ctx.take_stashed(1, 12).is_none() {
                        ctx.service_for(Duration::from_millis(1)).unwrap();
                    }
                    ctx.finalize();
                    None
                } else {
                    let req = ctx.irecv(0, 99); // never sent
                    let err = ctx.wait(req).err();
                    ctx.isend(0, 12, vec![]).unwrap();
                    ctx.finalize();
                    err
                }
            })
            .unwrap();
        assert_eq!(
            results[1],
            Some(CommError::Timeout {
                src: 0,
                tag: 99,
                stash_depth: 1, // the tag-11 message
            })
        );
    }

    #[test]
    fn a_wait_on_a_killed_rank_is_rank_dead_within_a_second() {
        // A 2x2 world, rank 1 killed as it enters its first exchange; no
        // spare. Its neighbours' waits find its alive flag
        // down at their next poll, long before the world's deadline.
        let decomp = CartDecomp::new(&[8, 8], &[2, 2], &[1, 1]).unwrap();
        let cfg = WorldConfig {
            fault: Some(Arc::new(FaultPlan::new(0).with_kill(1, 1))),
            ..Default::default()
        };
        let results = World::try_run_with(4, cfg, |mut ctx: RankCtx<f64>| {
            let mut g: Grid<f64> = Grid::zeros(&decomp.sub_extent(), &decomp.reach);
            let plan = HaloPlan::new(&decomp, ctx.rank, Backend::DimOrdered);
            let t0 = Instant::now();
            let err = crate::plan::exchange(&plan, &mut ctx, &mut g, 0).unwrap_err();
            (err, t0.elapsed())
        })
        .unwrap();
        assert_eq!(
            results[1].0,
            CommError::Killed {
                rank: 1,
                exchange: 1
            }
        );
        // Every survivor fails on a dead rank — rank 1, or a neighbour
        // that already failed on it — and none waits out the deadline.
        for (rank, (err, took)) in results.iter().enumerate().filter(|(r, _)| *r != 1) {
            assert!(
                matches!(err, CommError::RankDead { .. }),
                "rank {rank}: {err:?}"
            );
            assert!(*took < Duration::from_secs(1), "rank {rank} took {took:?}");
        }
        assert!(
            results
                .iter()
                .any(|(err, _)| *err == CommError::RankDead { rank: 1 }),
            "a neighbour of rank 1 must name it"
        );
    }

    #[test]
    fn membership_selects_buddy_then_disk_then_initial() {
        // 3 logical ranks, 1 spare. Buddy of rank 1 is rank 2.
        let m = Membership::new(3, 1);
        // Generation 4 is globally stable: survivors 0 and 2 hold their
        // own snapshots, and rank 1's buddy holds rank 1's.
        for r in 0..3 {
            m.note_local(r, 2);
            m.note_local(r, 4);
        }
        m.note_buddy(1, 2);
        m.note_buddy(1, 4);
        // Generation 6 exists only at rank 0 — not stable.
        m.note_local(0, 6);
        match m.report_failure(1, 0, Some(2)) {
            FailureOutcome::Recovered(rec) => {
                assert_eq!(rec.epoch, 1);
                assert_eq!(rec.logical, 1);
                assert_eq!(rec.spare, 3);
                assert_eq!(rec.source, RecoverySource::Buddy { gen: 4 });
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.phys_of(1), 3);
        assert_eq!(m.recoveries(), 1);

        // No buddy copies for rank 0 -> disk fallback, then initial.
        let m2 = Membership::new(3, 2);
        match m2.report_failure(0, 0, Some(2)) {
            FailureOutcome::Recovered(rec) => {
                assert_eq!(rec.source, RecoverySource::Disk { gen: 2 })
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
        match m2.report_failure(1, 1, None) {
            FailureOutcome::Recovered(rec) => {
                assert_eq!(rec.source, RecoverySource::Initial);
                assert_eq!(rec.source.gen(), 0);
            }
            other => panic!("expected Recovered, got {other:?}"),
        }
    }

    #[test]
    fn membership_concurrent_report_is_stale_and_exhaustion_unrecoverable() {
        let m = Membership::new(2, 1);
        assert!(matches!(
            m.report_failure(0, 0, None),
            FailureOutcome::Recovered(_)
        ));
        // A second reporter still at epoch 0 lost the race.
        assert!(matches!(
            m.report_failure(0, 0, None),
            FailureOutcome::Stale
        ));
        // A genuinely new failure with the spare pool empty cannot heal.
        assert!(matches!(
            m.report_failure(1, 1, None),
            FailureOutcome::Unrecoverable
        ));
        assert!(m.is_unrecoverable());
    }

    #[test]
    fn membership_done_barrier_resets_on_failure() {
        let m = Membership::new(2, 1);
        m.report_done(0, 0);
        assert!(!m.is_finished());
        // Failure clears the done set: rank 0 must recompute from the
        // rollback generation before the world can finish.
        m.report_failure(1, 0, None);
        m.report_done(1, 1);
        assert!(!m.is_finished());
        m.report_done(0, 1);
        assert!(m.is_finished());
        // Stale-epoch reports are ignored.
        let m2 = Membership::new(1, 1);
        m2.report_failure(0, 0, None);
        m2.report_done(0, 0);
        assert!(!m2.is_finished());
    }

    #[test]
    fn a_dead_peer_is_a_suspect_to_a_wait_at_once_and_to_a_sweep_at_the_next_poll() {
        let membership = Arc::new(Membership::new(2, 0));
        let cfg = WorldConfig {
            membership: Some(Arc::clone(&membership)),
            ..Default::default()
        };
        let results = World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
            if ctx.rank == 1 {
                return None; // dies silently; endpoint drops
            }
            while ctx.is_alive(1) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // A wait posted after the flag went down: its first poll
            // finds it, so no poll ever timed out on a live source.
            let req = ctx.irecv(1, 0);
            let waited = ctx.wait(req).unwrap_err();
            let live_polls = ctx.counters.get(Counter::TimeoutCount);
            // A standby sweep has no wait to stall: one look is enough.
            let swept = ctx.poll_suspects();
            Some((waited, live_polls, swept, ctx.hists))
        })
        .unwrap();
        let (waited, live_polls, swept, hists) = results[0].clone().unwrap();
        assert_eq!(waited, CommError::RankSuspect { rank: 1 });
        assert_eq!(live_polls, 0, "the wait saw the flag at its first poll");
        assert_eq!(swept, Some(CommError::RankSuspect { rank: 1 }));
        // Each observation booked its time since the flag went down.
        assert_eq!(hists.get(Hist::DetectLatencyNanos).count(), 2);
    }

    #[test]
    fn a_peer_that_leaves_after_the_world_finished_is_no_suspect() {
        // Both ranks report done, so the world is finished; rank 1 then
        // departs as a finished rank does. Rank 0's sweep reads its flag
        // down and must call that a departure.
        let membership = Arc::new(Membership::new(2, 0));
        let cfg = WorldConfig {
            membership: Some(Arc::clone(&membership)),
            ..Default::default()
        };
        let m = Arc::clone(&membership);
        let swept = World::try_run_with(2, cfg, move |mut ctx: RankCtx<f64>| {
            m.report_done(ctx.rank, 0);
            if ctx.rank == 1 {
                while !m.is_finished() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.finalize();
                return None;
            }
            while ctx.is_alive(1) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let swept = ctx.poll_suspects();
            ctx.finalize();
            Some(swept)
        })
        .unwrap();
        assert_eq!(swept[0], Some(None));
    }

    #[test]
    fn epoch_change_surfaces_in_wait_and_spare_learns_its_duty() {
        let membership = Arc::new(Membership::new(3, 1));
        let cfg = WorldConfig {
            membership: Some(Arc::clone(&membership)),
            ..Default::default()
        };
        let m = Arc::clone(&membership);
        let results: Vec<i64> = World::try_run_with(4, cfg, move |mut ctx: RankCtx<f64>| {
            match ctx.rank {
                0 => {
                    // Blocked on rank 1, which never sends: the epoch
                    // bump must interrupt the wait as a typed signal.
                    let req = ctx.irecv(1, 7);
                    match ctx.wait(req) {
                        Err(CommError::EpochChange { epoch }) => {
                            ctx.enter_epoch(epoch);
                            epoch as i64
                        }
                        other => panic!("expected EpochChange, got {other:?}"),
                    }
                }
                1 => {
                    std::thread::sleep(Duration::from_millis(10));
                    // Simulate a detector's report: logical 1 is dead.
                    match m.report_failure(1, 0, None) {
                        FailureOutcome::Recovered(rec) => rec.spare as i64,
                        other => panic!("expected Recovered, got {other:?}"),
                    }
                }
                2 => 0,
                _ => {
                    // The spare polls for its adoption duty.
                    loop {
                        if let Some(duty) = m.duty_of(ctx.slot) {
                            return duty.logical as i64;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        })
        .unwrap();
        assert_eq!(results[0], 1, "rank 0 saw epoch 1");
        assert_eq!(results[1], 3, "spare slot 3 was assigned");
        assert_eq!(results[3], 1, "spare adopted logical rank 1");
    }

    #[test]
    fn kill_plan_fires_via_begin_exchange() {
        let plan = Arc::new(FaultPlan::new(0).with_kill(1, 2));
        let cfg = WorldConfig {
            fault: Some(plan),
            ..Default::default()
        };
        let results: Vec<Result<u64, CommError>> =
            World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
                for _ in 0..4 {
                    ctx.begin_exchange()?;
                }
                ctx.finalize();
                Ok(ctx.sent_msgs)
            })
            .unwrap();
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(CommError::Killed {
                rank: 1,
                exchange: 2
            })
        );
    }
}
