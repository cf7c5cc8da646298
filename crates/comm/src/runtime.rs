//! The message-passing runtime: ranks are OS threads, messages travel
//! over channels, and `isend`/`irecv` follow MPI's non-blocking
//! semantics. Delivery between a pair of ranks is matched by `(src, tag)`
//! with out-of-order buffering, like MPI's unexpected-message queue.
//!
//! On top of the raw channels sits a **reliability protocol** sized for
//! the chaos runtime (see [`crate::fault`]): every data frame carries a
//! per-`(src → dst)` sequence number and, in a world with a fault plan,
//! a payload checksum; receivers acknowledge and deduplicate frames, and
//! a receive that stalls sends bounded, backed-off retransmit requests
//! back to the source. Injected drops, duplicates, reorderings, and bit
//! flips therefore heal transparently, while genuine failures surface as
//! typed [`CommError`] values instead of panics or deadlocks.
//!
//! A payload is an owned `Vec<T>` moved through an in-process channel:
//! the one thing that can alter or lose it on the way is the injector
//! ([`FaultAction`]). Whether frames are checksummed, acknowledged and
//! retransmitted is therefore decided once per world, in
//! [`World::try_run_with`], from the presence of a fault plan — a world
//! without one hashes and acknowledges nothing.

use crate::error::CommError;
use crate::fault::{splitmix, FaultAction, FaultPlan};
use msc_trace::{Counter, CounterSet, FlightKind, Hist, HistSet, TelemetryHub};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Payload element that can cross the wire: hashable for checksums and
/// bit-flippable for corruption injection. Implemented for the float
/// types the stencil executors move and the integer types tests use.
pub trait Wire: Clone + Send + 'static {
    /// Stable bit pattern feeding the frame checksum.
    fn wire_bits(&self) -> u64;
    /// Flip one bit (modulo the type's width) — corruption injection.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn wire_bits(&self) -> u64 {
                *self as u64
            }
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t) << (bit % <$t>::BITS);
            }
        }
    )+};
}
wire_int!(u32, u64, usize, i32, i64);

impl Wire for f64 {
    fn wire_bits(&self) -> u64 {
        self.to_bits()
    }
    fn flip_bit(&mut self, bit: u32) {
        *self = f64::from_bits(self.to_bits() ^ (1u64 << (bit % 64)));
    }
}

impl Wire for f32 {
    fn wire_bits(&self) -> u64 {
        self.to_bits() as u64
    }
    fn flip_bit(&mut self, bit: u32) {
        *self = f32::from_bits(self.to_bits() ^ (1u32 << (bit % 32)));
    }
}

/// Frame checksum: element `i` feeds lane `i % LANES` of `LANES`
/// independent splitmix chains (one chain would serialise on its
/// multiply latency), seeded from `tag`/`seq` and the lane index; the
/// lanes and the length are folded at the end. Every update is a
/// bijection of its lane and every fold a bijection of the running hash,
/// so a change to any single element always changes the result.
fn checksum<T: Wire>(tag: u64, seq: u64, payload: &[T]) -> u64 {
    const LANES: usize = 8;
    let seed = splitmix(tag ^ seq.rotate_left(17));
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| splitmix(seed ^ i as u64));
    // Whole blocks first: the fixed-width inner loop is what lets the
    // eight chains overlap (one loop over `chunks` measured 2x slower).
    let mut blocks = payload.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, v) in lanes.iter_mut().zip(block) {
            *lane = splitmix(*lane ^ v.wire_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(blocks.remainder()) {
        *lane = splitmix(*lane ^ v.wire_bits());
    }
    lanes
        .iter()
        .fold(payload.len() as u64, |h, lane| splitmix(h ^ lane))
}

/// Frame body: data, a delivery acknowledgement, a retransmit request
/// ("send me everything of yours I have not acknowledged"), or an
/// explicit liveness beacon (membership worlds only; never stashed,
/// never acked — its arrival *is* its meaning).
#[derive(Debug, Clone)]
enum Body<T> {
    Data(Vec<T>),
    Ack,
    Resend,
    Heartbeat,
}

/// A point-to-point frame. `seq` numbers the `(src → dst)` data stream;
/// for `Ack` frames it names the acknowledged sequence number. `src` is
/// the sender's *logical* rank; `epoch` is the membership epoch the
/// frame was sent under — receivers drop frames from older epochs (they
/// describe a timeline that a recovery rolled back) and buffer frames
/// from newer ones until they catch up. `checksum` covers the payload as
/// sent; it is `Some` on the data frames of a world with a fault plan
/// (the injector can flip a payload bit) and `None` everywhere else.
#[derive(Debug, Clone)]
struct Frame<T> {
    src: usize,
    epoch: u64,
    tag: u64,
    seq: u64,
    attempt: u32,
    checksum: Option<u64>,
    body: Body<T>,
}

/// Duplicate suppression for one source's data stream: every sequence
/// number below `next` has been delivered, plus the out-of-order ones in
/// `ahead`. An in-order stream keeps `ahead` empty.
#[derive(Debug, Clone, Default)]
struct Delivered {
    next: u64,
    ahead: BTreeSet<u64>,
}

impl Delivered {
    /// Record `seq`; `false` if it had been delivered before.
    fn insert(&mut self, seq: u64) -> bool {
        if seq != self.next {
            return seq > self.next && self.ahead.insert(seq);
        }
        self.next += 1;
        while self.ahead.remove(&self.next) {
            self.next += 1;
        }
        true
    }
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

/// Tunables of the reliability protocol.
#[derive(Debug, Clone)]
pub struct ReliabilityConfig {
    /// Initial receive poll before the first retransmit request.
    pub poll: Duration,
    /// Poll growth factor per retry (bounded backoff).
    pub backoff: f64,
    /// Ceiling on the backed-off poll interval.
    pub poll_cap: Duration,
    /// Retransmit requests before a wait gives up with
    /// [`CommError::Timeout`].
    pub max_attempts: u32,
    /// Hard deadline for waits when the reliability protocol is off (no
    /// fault plan) — converts the old "deadlock forever on a lost
    /// message" failure mode into a diagnosable timeout.
    pub plain_deadline: Duration,
}

impl Default for ReliabilityConfig {
    fn default() -> ReliabilityConfig {
        ReliabilityConfig {
            poll: Duration::from_millis(4),
            backoff: 1.7,
            poll_cap: Duration::from_millis(200),
            max_attempts: 40,
            plain_deadline: Duration::from_secs(60),
        }
    }
}

/// Liveness-detection tunables for membership worlds. Liveness
/// piggybacks on every received frame; when a rank has nothing to send
/// it emits explicit heartbeat beacons instead.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Beacon interval while otherwise idle.
    pub every: Duration,
    /// Silence threshold past which a peer becomes a suspect. Suspicion
    /// is promoted to death only if the peer's thread has actually
    /// exited, so a slow-but-alive rank is never falsely buried.
    pub detect: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig {
            every: Duration::from_millis(50),
            detect: Duration::from_millis(200),
        }
    }
}

impl HeartbeatConfig {
    /// Flag-validated constructor for `--heartbeat-ms`: a zero interval
    /// is a configuration error, never a panic. Detection defaults to
    /// 4x the beacon interval.
    pub fn from_millis(every_ms: u64) -> Result<HeartbeatConfig, String> {
        if every_ms == 0 {
            return Err("heartbeat interval must be at least 1 ms".into());
        }
        Ok(HeartbeatConfig {
            every: Duration::from_millis(every_ms),
            detect: Duration::from_millis(every_ms.saturating_mul(4)),
        })
    }

    /// Validate hand-built configs (driver entry points call this so a
    /// bad `RunOptions` surfaces as a typed error).
    pub fn validate(&self) -> Result<(), String> {
        if self.every.is_zero() {
            return Err("heartbeat interval must be nonzero".into());
        }
        if self.detect < self.every {
            return Err(format!(
                "detection timeout {:?} is shorter than the heartbeat interval {:?}",
                self.detect, self.every
            ));
        }
        Ok(())
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
    pub fn new(n_logical: usize, spares: usize) -> Membership {
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

    pub fn n_logical(&self) -> usize {
        self.n_logical
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Physical slot currently carrying a logical rank.
    pub fn phys_of(&self, logical: usize) -> usize {
        self.assign[logical].load(Ordering::Acquire)
    }

    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    pub fn is_unrecoverable(&self) -> bool {
        self.unrecoverable.load(Ordering::Acquire)
    }

    /// Successful online recoveries so far (distinct from disk restarts).
    pub fn recoveries(&self) -> u64 {
        self.state.lock().unwrap().recoveries
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemberState> {
        // A poisoned membership mutex means a rank panicked mid-update;
        // the bookkeeping is still internally consistent (every update
        // is a single insert/push), so recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record that `logical` holds its own window snapshot for `gen`.
    pub fn note_local(&self, logical: usize, gen: u64) {
        let mut st = self.lock();
        let set = &mut st.local_gens[logical];
        set.insert(gen);
        while set.len() > KEEP_GENS {
            let oldest = *set.iter().next().unwrap();
            set.remove(&oldest);
        }
    }

    /// Record that `logical`'s buddy holds `logical`'s snapshot for `gen`.
    pub fn note_buddy(&self, logical: usize, gen: u64) {
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
    pub fn report_failure(
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
    pub fn latest_failure(&self) -> Option<FailureRecord> {
        self.lock().failures.last().cloned()
    }

    /// The adoption duty assigned to a physical spare slot, if any.
    pub fn duty_of(&self, slot: usize) -> Option<FailureRecord> {
        self.lock()
            .failures
            .iter()
            .rev()
            .find(|r| r.spare == slot)
            .cloned()
    }

    /// A logical rank finished its final step under `epoch`. When every
    /// logical rank has, the world is finished and spares stand down.
    pub fn report_done(&self, logical: usize, epoch: u64) {
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

/// World construction options: a chaos plan, protocol tunables, and —
/// for resilient runs — the shared membership layer.
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// Seeded fault injector applied to every data frame. Its presence
    /// also makes the world reliable: payload checksums are computed and
    /// verified, and frames acknowledged and retransmitted, exactly when
    /// there is a plan that could damage or lose one — fault-free runs pay
    /// for neither.
    pub fault: Option<Arc<FaultPlan>>,
    pub reliability: ReliabilityConfig,
    /// Hot-spare membership: present iff the run can heal dead ranks
    /// online. `None` keeps the runtime byte-for-byte on its old paths.
    pub membership: Option<Arc<Membership>>,
    /// Liveness beacons + detection timeout (membership worlds only).
    pub heartbeat: Option<HeartbeatConfig>,
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
/// (finished, errored, or panicked). [`RankCtx::finalize`] polls it so
/// finished ranks keep servicing retransmit requests until everyone is
/// done, and departure is also counted on drop so a dead rank never
/// wedges its peers.
struct WorldShared {
    departed: AtomicUsize,
    /// Per physical slot: false once that thread has left the fabric.
    /// The membership layer's suspicion check reads this so silence from
    /// a slow-but-alive rank is never promoted to death.
    alive: Vec<AtomicBool>,
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
    /// Delivered sequence numbers per source (duplicate suppression).
    delivered: Vec<Delivered>,
    /// Sent-but-unacknowledged data frames per destination — the
    /// retransmit buffer (pruned as acks drain in).
    unacked: Vec<Vec<Frame<T>>>,
    /// Frames the injector is holding back, released after later sends.
    delayed: Vec<(usize, Frame<T>)>,
    fault: Option<Arc<FaultPlan>>,
    cfg: ReliabilityConfig,
    /// The world has a fault plan: data frames carry a checksum, and the
    /// ack/retransmit protocol runs.
    reliable: bool,
    /// Halo-exchange rounds entered (drives kill injection).
    exchanges: u64,
    shared: Arc<WorldShared>,
    departed_marked: bool,
    /// Membership epoch this rank currently operates under.
    epoch: u64,
    /// Frames from a newer epoch than ours, replayed by `enter_epoch`.
    future: Vec<Frame<T>>,
    /// Last time anything (data, ack, heartbeat) arrived per logical src.
    last_heard: Vec<Instant>,
    /// Last time we broadcast heartbeat beacons.
    last_beat: Instant,
    membership: Option<Arc<Membership>>,
    hb: Option<HeartbeatConfig>,
    /// Last recoverable control fault this endpoint originated (kill,
    /// suspect, epoch change). Intermediate layers flatten errors into
    /// strings; the driver reads the typed event back via `take_fault`.
    fault_note: Option<CommError>,
    /// Messages sent (diagnostics). Counts first transmissions of data
    /// frames only — acks, retransmissions, and control traffic are
    /// protocol overhead, not messages.
    pub sent_msgs: u64,
    /// The rank's account since it was last published to the run's hub:
    /// protocol events, halo messages, bytes and pack/unpack time, and
    /// anything the driver bumps. Always accumulated — cheap local adds —
    /// so [`crate::distributed::CommStats`] has them with tracing off.
    pub counters: CounterSet,
    /// The latency samples of the same account (halo wait, retransmit
    /// recovery delay, pack, unpack, failure detection).
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
            // Alive goes false before the departed count rises (and well
            // before the channel endpoint drops with this struct), so a
            // peer that sees a dead endpoint finds the flag down too.
            self.shared.alive[self.slot].store(false, Ordering::Release);
            self.shared.departed.fetch_add(1, Ordering::AcqRel);
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

impl<T: Wire> RankCtx<T> {
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
            attempt: 0,
            checksum: self.reliable.then(|| checksum(tag, seq, &payload)),
            body: Body::Data(payload),
        };
        if self.reliable {
            self.unacked[dst].push(frame.clone());
        }
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
        if let Some(m) = &self.membership {
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
    /// back timeline (stash, retransmit buffers, injector-held frames,
    /// sequence numbers, dedup sets) and replay any frames that arrived
    /// early from peers already in the new epoch. Replayed computation
    /// regenerates identical traffic, so a fresh numbering is safe — the
    /// epoch tag on every frame screens out stragglers from the past.
    pub fn enter_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.stash.clear();
        self.delayed.clear();
        for buf in &mut self.unacked {
            buf.clear();
        }
        self.delivered.fill(Delivered::default());
        for seq in &mut self.next_seq {
            *seq = 0;
        }
        let now = Instant::now();
        for t in &mut self.last_heard {
            *t = now; // fresh grace period for everyone
        }
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

    /// Broadcast liveness beacons if the heartbeat interval elapsed.
    /// Only logical ranks beat (nobody monitors idle spares), and only
    /// in membership worlds — everywhere else this is free.
    fn maybe_heartbeat(&mut self) {
        let (Some(m), Some(hb)) = (&self.membership, &self.hb) else {
            return;
        };
        let n_logical = m.n_logical();
        if self.rank >= n_logical || self.last_beat.elapsed() < hb.every {
            return;
        }
        self.last_beat = Instant::now();
        for dst in 0..n_logical {
            if dst == self.rank {
                continue;
            }
            // A dead destination is the detector's business, not ours.
            let _ = self.raw_send(dst, self.control(0, 0, Body::Heartbeat));
            self.counters.bump(Counter::HeartbeatsSent, 1);
        }
    }

    /// Suspicion check for a source we are stalled on: silence past the
    /// detection timeout *and* a departed thread make it a suspect. A
    /// slow-but-alive rank never qualifies — its silence falls through
    /// to the ordinary timeout machinery.
    fn check_suspect(&mut self, src: usize) -> Option<CommError> {
        let m = self.membership.as_ref()?;
        let detect = self.hb.as_ref()?.detect;
        if src >= m.n_logical() || src == self.rank {
            return None;
        }
        let silence = self.last_heard[src].elapsed();
        if silence < detect {
            return None;
        }
        let phys = m.phys_of(src);
        if self.shared.alive[phys].load(Ordering::Acquire) {
            return None;
        }
        Some(self.note_suspect(src, silence))
    }

    /// Record a suspect event: detection latency into the log2 histogram,
    /// a flight-recorder entry, and the typed control error.
    fn note_suspect(&mut self, src: usize, silence: Duration) -> CommError {
        self.hists
            .add(Hist::DetectLatencyNanos, silence.as_nanos() as u64);
        msc_trace::flight(
            FlightKind::Recover,
            src as u32,
            self.rank as u32,
            0,
            self.epoch,
        );
        let e = CommError::RankSuspect {
            rank: src,
            silent_ms: silence.as_millis() as u64,
        };
        self.note_control_fault(&e);
        e
    }

    /// Sweep every logical peer through the suspicion check — the
    /// standby-loop counterpart of the per-wait checks, used by finished
    /// ranks and idle spares that have no posted receives to stall on.
    /// (An idle spare hears from nobody, so its silence clocks run from
    /// spawn; the `alive` flag keeps that from ever flagging a live rank.)
    pub fn poll_suspects(&mut self) -> Option<CommError> {
        let n = match &self.membership {
            Some(m) => m.n_logical(),
            None => return None,
        };
        for src in 0..n {
            if let Some(e) = self.check_suspect(src) {
                return Some(e);
            }
        }
        None
    }

    /// In membership worlds a dead endpoint is a recoverable suspect,
    /// not a fatal [`CommError::RankDead`].
    fn promote_dead(&mut self, e: CommError) -> CommError {
        let Some(m) = &self.membership else { return e };
        match e {
            CommError::RankDead { rank } if rank < m.n_logical() && rank != self.rank => {
                let silence = self.last_heard[rank].elapsed();
                self.note_suspect(rank, silence)
            }
            other => other,
        }
    }

    /// Service the fabric for `dur` without expecting any payload: drain
    /// inbound frames (acks, retransmit requests, late buddy snapshots),
    /// keep heartbeating, and surface epoch changes. Finished ranks park
    /// here until the whole world completes — parking in a condvar
    /// instead would starve replaying neighbors of retransmissions.
    pub fn service_for(&mut self, dur: Duration) -> Result<(), CommError> {
        let deadline = Instant::now() + dur;
        loop {
            self.poll_epoch()?;
            self.maybe_heartbeat();
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

    /// Receive-poll interval: the protocol's own cadence, capped so
    /// heartbeat and detection deadlines are honored in membership
    /// worlds (a 250 ms plain-mode doze would miss a 100 ms detect).
    fn poll_step(&self, poll: Duration, start: Instant) -> Duration {
        let mut step = if self.reliable {
            poll
        } else {
            self.cfg
                .plain_deadline
                .saturating_sub(start.elapsed())
                .min(Duration::from_millis(250))
        };
        if let Some(hb) = &self.hb {
            step = step
                .min(hb.every.min(hb.detect) / 2)
                .max(Duration::from_millis(1));
        }
        step
    }

    /// Successful wait bookkeeping: halo-wait histogram sample, plus the
    /// recovery-delay histogram when retransmits were needed. `waited`
    /// ends when the completing frame left the inbox, so checking it is
    /// not booked as waiting.
    fn note_wait_done(&mut self, waited: Duration, resends: usize) {
        let waited = waited.as_nanos() as u64;
        self.hists.add(Hist::HaloWaitNanos, waited);
        if resends > 0 {
            self.hists.add(Hist::RetransmitDelayNanos, waited);
        }
    }

    /// Build the hard timeout error, leaving a flight record and dumping
    /// the recorder: the failing (src, tag) pair's last moments ship with
    /// the error.
    fn note_timeout(&mut self, src: usize, tag: u64, pending: usize) -> CommError {
        msc_trace::flight(FlightKind::Timeout, src as u32, self.rank as u32, tag, 0);
        let _ = msc_trace::dump_on_error("timeout");
        CommError::Timeout {
            src,
            tag,
            pending,
            stash_depth: self.stash.len(),
        }
    }

    fn note_rank_dead(&mut self, rank: usize) -> CommError {
        msc_trace::flight(FlightKind::Error, rank as u32, self.rank as u32, 0, 0);
        let _ = msc_trace::dump_on_error("rank_dead");
        CommError::RankDead { rank }
    }

    /// Block until the matching message arrives; unrelated messages are
    /// stashed for later requests. Under the reliability protocol a
    /// stalled wait requests retransmission with bounded backoff; without
    /// it, a generous hard deadline turns a lost message into
    /// [`CommError::Timeout`] instead of a deadlock.
    pub fn wait(&mut self, req: RecvRequest) -> Result<Vec<T>, CommError> {
        let _span = msc_trace::span("recv_wait");
        if let Some(payload) = self.take_stashed(req.src, req.tag) {
            return Ok(payload);
        }
        let start = Instant::now();
        let mut poll = self.cfg.poll;
        let mut attempts = 0u32;
        let mut resends = 0usize;
        loop {
            self.poll_epoch()?;
            self.flush_delayed();
            let step = self.poll_step(poll, start);
            match self.inbox.recv_timeout(step) {
                Ok(frame) => {
                    let waited = start.elapsed();
                    self.process_frame(frame);
                    if let Some(payload) = self.take_stashed(req.src, req.tag) {
                        self.note_wait_done(waited, resends);
                        return Ok(payload);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.maybe_heartbeat();
                    if let Some(e) = self.check_suspect(req.src) {
                        return Err(e);
                    }
                    let timed_out = if self.reliable {
                        attempts += 1;
                        attempts > self.cfg.max_attempts
                    } else {
                        start.elapsed() >= self.cfg.plain_deadline
                    };
                    self.counters.bump(Counter::TimeoutCount, 1);
                    if timed_out {
                        return Err(self.note_timeout(req.src, req.tag, resends));
                    }
                    if self.reliable {
                        // Receiver-driven recovery: ask the source to
                        // retransmit everything it still owes us. A dead
                        // source is a hard error.
                        msc_trace::flight(
                            FlightKind::ResendRequest,
                            self.rank as u32,
                            req.src as u32,
                            req.tag,
                            0,
                        );
                        if let Err(e) = self.raw_send(req.src, self.control(0, 0, Body::Resend)) {
                            return Err(self.promote_dead(e));
                        }
                        resends += 1;
                        poll = Duration::from_secs_f64(
                            (poll.as_secs_f64() * self.cfg.backoff)
                                .min(self.cfg.poll_cap.as_secs_f64()),
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let e = self.note_rank_dead(req.src);
                    return Err(self.promote_dead(e));
                }
            }
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
        let m = self.stash.remove(pos);
        let Body::Data(payload) = m.body else {
            unreachable!("stash holds data")
        };
        Some(payload)
    }

    /// Handle one inbound frame: bookkeeping for acks and retransmit
    /// requests, checksum + duplicate screening for data. Membership
    /// epochs screen first — a frame from the rolled-back past is
    /// dropped, one from a future epoch buffered for `enter_epoch` —
    /// and every on-epoch arrival refreshes the sender's liveness.
    fn process_frame(&mut self, frame: Frame<T>) {
        if frame.epoch < self.epoch {
            return; // stale timeline; recovery replay resends
        }
        if frame.epoch > self.epoch {
            self.future.push(frame);
            return;
        }
        if frame.src < self.last_heard.len() {
            self.last_heard[frame.src] = Instant::now();
        }
        match frame.body {
            Body::Heartbeat => {}
            Body::Ack => {
                msc_trace::flight(
                    FlightKind::Ack,
                    frame.src as u32,
                    self.rank as u32,
                    frame.tag,
                    frame.seq,
                );
                self.unacked[frame.src].retain(|f| f.seq != frame.seq);
            }
            Body::Resend => {
                let requester = frame.src;
                let mut pending: Vec<Frame<T>> = self.unacked[requester]
                    .iter_mut()
                    .map(|f| {
                        f.attempt += 1;
                        f.clone()
                    })
                    .collect();
                for f in pending.drain(..) {
                    self.counters.bump(Counter::RetransmitCount, 1);
                    msc_trace::flight(
                        FlightKind::Retransmit,
                        self.rank as u32,
                        requester as u32,
                        f.tag,
                        f.seq,
                    );
                    // The requester may have died since asking; that is
                    // its problem, not ours.
                    let _ = self.transmit(requester, f);
                }
            }
            Body::Data(ref payload) => {
                if frame
                    .checksum
                    .is_some_and(|sum| sum != checksum(frame.tag, frame.seq, payload))
                {
                    msc_trace::flight(
                        FlightKind::Corrupt,
                        frame.src as u32,
                        self.rank as u32,
                        frame.tag,
                        frame.seq,
                    );
                    // Damaged in flight (only a world with a fault plan
                    // checksums, and it runs ack/retransmit): drop it and
                    // nudge the source for a clean copy (best effort — our
                    // own poll timeout re-requests if this nudge is lost).
                    let _ = self.raw_send(frame.src, self.control(0, 0, Body::Resend));
                    return;
                }
                if self.reliable {
                    // Acknowledge receipt so the sender can prune its
                    // retransmit buffer (best effort: an exited sender
                    // no longer cares).
                    let ack = self.control(frame.tag, frame.seq, Body::Ack);
                    let _ = self.raw_send(frame.src, ack);
                }
                // Idempotent delivery: duplicates (injected or from
                // over-eager retransmission) are dropped here.
                if !self.delivered[frame.src].insert(frame.seq) {
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
        }
    }

    /// Send through the fault injector (data frames only).
    fn transmit(&mut self, dst: usize, frame: Frame<T>) -> Result<(), CommError> {
        let action = match (&self.fault, &frame.body) {
            (Some(plan), Body::Data(_)) => {
                plan.decide(self.rank, dst, frame.tag, frame.seq, frame.attempt)
            }
            _ => FaultAction::Deliver,
        };
        let (tag, seq) = (frame.tag, frame.seq);
        match action {
            FaultAction::Deliver => self.raw_send(dst, frame),
            FaultAction::Drop => {
                self.note_fault(dst, tag, seq);
                Ok(())
            }
            FaultAction::Delay => {
                self.note_fault(dst, tag, seq);
                self.delayed.push((dst, frame));
                Ok(())
            }
            FaultAction::Duplicate => {
                self.note_fault(dst, tag, seq);
                self.raw_send(dst, frame.clone())?;
                self.raw_send(dst, frame)
            }
            FaultAction::Corrupt { elem, bit } => {
                self.note_fault(dst, tag, seq);
                let mut f = frame;
                if let Body::Data(p) = &mut f.body {
                    if !p.is_empty() {
                        let i = (elem % p.len() as u64) as usize;
                        p[i].flip_bit(bit);
                    }
                }
                // Checksum still covers the original payload, so the
                // receiver detects the damage and re-requests.
                self.raw_send(dst, f)
            }
        }
    }

    fn note_fault(&mut self, dst: usize, tag: u64, seq: u64) {
        self.counters.bump(Counter::FaultsInjected, 1);
        msc_trace::flight(
            FlightKind::FaultInjected,
            self.rank as u32,
            dst as u32,
            tag,
            seq,
        );
    }

    /// A control frame (ack, retransmit request, heartbeat): no payload,
    /// so nothing to retry or check.
    fn control(&self, tag: u64, seq: u64, body: Body<T>) -> Frame<T> {
        Frame {
            src: self.rank,
            epoch: self.epoch,
            tag,
            seq,
            attempt: 0,
            checksum: None,
            body,
        }
    }

    fn raw_send(&self, dst: usize, frame: Frame<T>) -> Result<(), CommError> {
        // `dst` is a logical rank; membership maps it to whichever
        // physical slot currently carries it (a spare after adoption).
        let phys = match &self.membership {
            Some(m) if dst < m.n_logical() => m.phys_of(dst),
            _ => dst,
        };
        self.senders[phys]
            .send(frame)
            .map_err(|_| CommError::RankDead { rank: dst })
    }

    fn flush_delayed(&mut self) {
        for (dst, frame) in std::mem::take(&mut self.delayed) {
            let _ = self.raw_send(dst, frame);
        }
    }

    /// Cooperative teardown: release any injector-held frames, then keep
    /// servicing acks and retransmit requests until every rank has
    /// departed (finished, errored, or died). Ranks that block on late
    /// halo messages can therefore still be served by peers that already
    /// finished computing. Call it as the last communication act of a
    /// rank body; ranks that skip it (or die) are counted out on drop.
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

/// A world of `n` ranks. Spawns one thread per rank and joins them.
pub struct World;

impl World {
    /// Run `f(ctx)` on every rank concurrently; returns the per-rank
    /// results in rank order. Panics in any rank propagate — a thin
    /// wrapper over [`World::try_run`] for tests and infallible callers.
    pub fn run<T, R, F>(n_ranks: usize, f: F) -> Vec<R>
    where
        T: Wire,
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
        T: Wire,
        R: Send,
        F: Fn(RankCtx<T>) -> R + Sync,
    {
        Self::try_run_with(n_ranks, WorldConfig::default(), f)
    }

    /// Full-control entry point: chaos plan + reliability tunables.
    pub fn try_run_with<T, R, F>(
        n_ranks: usize,
        cfg: WorldConfig,
        f: F,
    ) -> Result<Vec<R>, CommError>
    where
        T: Wire,
        R: Send,
        F: Fn(RankCtx<T>) -> R + Sync,
    {
        assert!(n_ranks > 0, "world needs at least one rank");
        // The injector is the only thing here that can damage or lose a
        // frame in flight, so only its worlds checksum, ack and resend.
        let reliable = cfg.fault.is_some();
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
            alive: (0..n_ranks).map(|_| AtomicBool::new(true)).collect(),
        });

        let mut results: HashMap<usize, R> = HashMap::new();
        let mut poisoned: Option<(usize, String)> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let senders = Arc::clone(&senders);
                let shared = Arc::clone(&shared);
                let fault = cfg.fault.clone();
                let reliability = cfg.reliability.clone();
                let membership = cfg.membership.clone();
                let heartbeat = cfg.heartbeat.clone();
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
                    let now = Instant::now();
                    let ctx = RankCtx {
                        rank,
                        n_ranks,
                        slot: rank,
                        senders,
                        inbox,
                        stash: Vec::new(),
                        next_seq: vec![0; n_ranks],
                        delivered: vec![Delivered::default(); n_ranks],
                        unacked: vec![Vec::new(); n_ranks],
                        delayed: Vec::new(),
                        fault,
                        cfg: reliability,
                        reliable,
                        exchanges: 0,
                        shared,
                        departed_marked: false,
                        epoch: 0,
                        future: Vec::new(),
                        last_heard: vec![now; n_ranks],
                        last_beat: now,
                        membership,
                        hb: heartbeat,
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
    use proptest::prelude::*;

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
    fn reliable_wait_survives_heavy_drop() {
        let mut plan = FaultPlan::new(77);
        plan.drop_p = 0.5;
        let cfg = WorldConfig {
            fault: Some(Arc::new(plan)),
            reliability: ReliabilityConfig {
                poll: Duration::from_millis(2),
                max_attempts: 60,
                ..Default::default()
            },
            membership: None,
            heartbeat: None,
        };
        let results: Vec<(usize, u64)> = World::try_run_with(4, cfg, |mut ctx: RankCtx<usize>| {
            for dst in 0..ctx.n_ranks {
                if dst != ctx.rank {
                    for tag in 0..8u64 {
                        ctx.isend(dst, tag, vec![ctx.rank * 1000 + tag as usize])
                            .unwrap();
                    }
                }
            }
            let mut sum = 0usize;
            for src in 0..ctx.n_ranks {
                if src != ctx.rank {
                    for tag in 0..8u64 {
                        let req = ctx.irecv(src, tag);
                        sum += ctx.wait(req).unwrap()[0];
                    }
                }
            }
            let retransmits = ctx.counters.get(Counter::RetransmitCount)
                + ctx.counters.get(Counter::FaultsInjected);
            ctx.finalize();
            (sum, retransmits)
        })
        .unwrap();
        for (rank, (sum, _)) in results.iter().enumerate() {
            let want: usize = (0..4)
                .filter(|&s| s != rank)
                .flat_map(|s| (0..8).map(move |t| s * 1000 + t))
                .sum();
            assert_eq!(*sum, want, "rank {rank}");
        }
        // With drop_p = 0.5 over 96 data frames, faults must have fired
        // somewhere and recovery must have retransmitted.
        let total: u64 = results.iter().map(|(_, r)| r).sum();
        assert!(total > 0, "no faults or retransmits recorded");
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let mut plan = FaultPlan::new(5);
        plan.dup_p = 1.0; // every data frame sent twice
        let cfg = WorldConfig {
            fault: Some(Arc::new(plan)),
            ..Default::default()
        };
        let results: Vec<usize> = World::try_run_with(3, cfg, |mut ctx: RankCtx<usize>| {
            for dst in 0..ctx.n_ranks {
                if dst != ctx.rank {
                    ctx.isend(dst, 0, vec![ctx.rank + 1]).unwrap();
                }
            }
            let mut sum = 0;
            for src in 0..ctx.n_ranks {
                if src != ctx.rank {
                    let req = ctx.irecv(src, 0);
                    sum += ctx.wait(req).unwrap()[0];
                }
            }
            // Once every copy has arrived, a second payload must NOT be
            // stashed: the duplicate was suppressed on arrival.
            ctx.service_for(Duration::from_millis(20)).unwrap();
            for src in 0..ctx.n_ranks {
                if src != ctx.rank {
                    assert!(ctx.take_stashed(src, 0).is_none(), "duplicate leaked");
                }
            }
            ctx.finalize();
            sum
        })
        .unwrap();
        for (rank, s) in results.iter().enumerate() {
            let want: usize = (0..3).filter(|&r| r != rank).map(|r| r + 1).sum();
            assert_eq!(*s, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any single-bit flip of any element, another tag, another seq,
        /// or one element fewer changes the checksum — f64 and f32, every
        /// length around the lane count and the remainder path.
        #[test]
        fn checksum_sees_every_single_change(
            bits in prop::collection::vec(0u64..u64::MAX, 0..=67),
            tag in 0u64..u64::MAX,
            seq in 0u64..1 << 40,
        ) {
            fn check<T: Wire>(tag: u64, seq: u64, payload: &[T], width: u32) {
                let sum = checksum(tag, seq, payload);
                let mut damaged = payload.to_vec();
                for i in 0..payload.len() {
                    for bit in 0..width {
                        damaged[i].flip_bit(bit);
                        assert_ne!(checksum(tag, seq, &damaged), sum, "element {i} bit {bit}");
                        damaged[i].flip_bit(bit);
                    }
                }
                assert_eq!(checksum(tag, seq, &damaged), sum);
                assert_ne!(checksum(tag ^ 1, seq, payload), sum, "tag");
                assert_ne!(checksum(tag, seq + 1, payload), sum, "seq");
                if let Some((_, shorter)) = payload.split_last() {
                    assert_ne!(checksum(tag, seq, shorter), sum, "truncated");
                }
            }
            let wide: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let narrow: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b as u32)).collect();
            check(tag, seq, &wide, 64);
            check(tag, seq, &narrow, 32);
        }
    }

    /// Payload element that counts how often the runtime hashes it.
    #[derive(Clone)]
    struct Counted(u64);
    static HASHED: AtomicU64 = AtomicU64::new(0);

    impl Wire for Counted {
        fn wire_bits(&self) -> u64 {
            HASHED.fetch_add(1, Ordering::Relaxed);
            self.0
        }
        fn flip_bit(&mut self, bit: u32) {
            self.0 ^= 1 << (bit % 64);
        }
    }

    #[test]
    fn a_world_without_a_fault_plan_hashes_nothing() {
        const FACE: usize = 64;
        const ROUNDS: u64 = 3;
        // Both ranks swap a face per round. Returns the hash calls made.
        let swap_faces = |fault: Option<Arc<FaultPlan>>| {
            let cfg = WorldConfig {
                fault,
                // No retransmit request may fire while a peer is merely
                // slow to be scheduled: a re-sent frame is hashed again.
                reliability: ReliabilityConfig {
                    poll: Duration::from_secs(30),
                    ..Default::default()
                },
                ..Default::default()
            };
            let before = HASHED.load(Ordering::Relaxed);
            World::try_run_with(2, cfg, |mut ctx: RankCtx<Counted>| {
                let peer = 1 - ctx.rank;
                for round in 0..ROUNDS {
                    ctx.isend(peer, round, vec![Counted(round); FACE]).unwrap();
                    let req = ctx.irecv(peer, round);
                    assert_eq!(ctx.wait(req).unwrap().len(), FACE);
                }
            })
            .unwrap();
            HASHED.load(Ordering::Relaxed) - before
        };
        assert_eq!(swap_faces(None), 0);
        // A plan that injects nothing still means a channel that could:
        // every element is hashed once by the sender, once by the receiver.
        let elements = 2 * ROUNDS * FACE as u64;
        assert_eq!(swap_faces(Some(Arc::new(FaultPlan::new(9)))), 2 * elements);
    }

    #[test]
    fn checked_and_unchecked_worlds_move_the_same_messages() {
        use crate::distributed::{run_distributed_resilient, RunOptions};
        use msc_core::catalog::{benchmark, BenchmarkId};
        use msc_core::halo::{Backend, CartDecomp, HaloPlan};
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
    fn an_in_order_stream_keeps_no_delivery_history() {
        const FRAMES: u64 = 100_000;
        World::run(2, |mut ctx: RankCtx<u64>| {
            if ctx.rank == 0 {
                for i in 0..FRAMES {
                    ctx.isend(1, 0, vec![i]).unwrap();
                }
            } else {
                for i in 0..FRAMES {
                    let req = ctx.irecv(0, 0);
                    assert_eq!(ctx.wait(req).unwrap(), [i]);
                }
                assert_eq!(ctx.delivered[0].next, FRAMES);
                assert!(ctx.delivered[0].ahead.is_empty());
            }
        });
        // Out of order: a gap parks the later numbers until it closes;
        // anything at or below the watermark, or parked, is a duplicate.
        let mut d = Delivered::default();
        assert!(d.insert(0) && d.insert(2) && d.insert(3));
        assert_eq!((d.next, d.ahead.len()), (1, 2));
        assert!(!d.insert(0) && !d.insert(2));
        assert!(d.insert(1));
        assert_eq!((d.next, d.ahead.len()), (4, 0));
        assert!(!d.insert(1) && !d.insert(3));
    }

    #[test]
    fn timeout_error_names_the_pending_pair() {
        let cfg = WorldConfig {
            // A plan that injects nothing: reliable, and nothing is lost.
            fault: Some(Arc::new(FaultPlan::new(1))),
            reliability: ReliabilityConfig {
                poll: Duration::from_millis(1),
                max_attempts: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let results: Vec<Option<CommError>> =
            World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
                if ctx.rank == 0 {
                    // Send something on a *different* tag so the stash is
                    // non-empty, then stay alive servicing the fabric.
                    ctx.isend(1, 11, vec![4.0]).unwrap();
                    ctx.finalize();
                    None
                } else {
                    let req = ctx.irecv(0, 99); // never sent
                    let err = ctx.wait(req).err();
                    ctx.finalize();
                    err
                }
            })
            .unwrap();
        match results[1].as_ref().unwrap() {
            CommError::Timeout {
                src,
                tag,
                pending,
                stash_depth,
            } => {
                assert_eq!(*src, 0);
                assert_eq!(*tag, 99);
                assert!(*pending > 0, "should have requested retransmits");
                assert_eq!(*stash_depth, 1, "tag-11 message should be stashed");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
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
    fn heartbeat_silence_promotes_dead_peer_to_suspect() {
        let membership = Arc::new(Membership::new(2, 0));
        let cfg = WorldConfig {
            membership: Some(Arc::clone(&membership)),
            heartbeat: Some(HeartbeatConfig {
                every: Duration::from_millis(5),
                detect: Duration::from_millis(40),
            }),
            ..Default::default()
        };
        let results: Vec<Option<CommError>> =
            World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
                if ctx.rank == 1 {
                    return None; // dies silently; endpoint drops
                }
                let req = ctx.irecv(1, 0);
                ctx.wait(req).err()
            })
            .unwrap();
        match results[0].as_ref().unwrap() {
            CommError::RankSuspect { rank, silent_ms } => {
                assert_eq!(*rank, 1);
                assert!(
                    *silent_ms >= 40,
                    "detected before the timeout: {silent_ms} ms"
                );
            }
            other => panic!("expected RankSuspect, got {other:?}"),
        }
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
