//! Full distributed execution: every MPI rank (thread) owns a sub-grid,
//! steps the single node's time loop ([`TimeLoop`]) over it, and
//! exchanges halos through the runtime from inside each step — the
//! complete large-scale code path MSC generates (paper §4.4). Nothing
//! here advances a window: checkpoints, buddy snapshots, rollback and
//! adoption move the loop's slots out and in (DESIGN.md §13.5).
//!
//! The headline property, tested here and in the integration suite: a
//! distributed run is **bit-identical** to the single-node run of the
//! same program, for any process grid — including runs where a rank is
//! killed mid-flight and healed online by a hot spare.

use crate::checkpoint::{ring_to_wire, wire_to_ring, BuddySnapshots, CheckpointStore};
use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::plan;
use crate::runtime::{
    FailureOutcome, FailureRecord, HeartbeatConfig, Membership, RankCtx, RecoverySource, World,
    WorldConfig, KEEP_GENS,
};
use msc_core::error::{MscError, Result};
use msc_core::halo::{Backend, CartDecomp, HaloPlan, Region};
use msc_core::prelude::*;
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_exec::boundary::{self, Boundary};
use msc_exec::{Executor, Grid, Scalar, TimeLoop};
use msc_lint::{Checked, Gate};
use msc_trace::{Counter, CounterSet, FlightKind, HistSet, Profile};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run communication statistics, aggregated over ranks.
///
/// Like [`msc_exec::driver::RunStats`], this is a thin view over the
/// trace counter vocabulary: each rank's account is its time loop's steps
/// (tiles, DMA, points, step wall) plus its endpoint's (halo messages,
/// bytes, pack/unpack, waits, faults, liveness) — each part published to
/// the hub once, as it closes — and the gather loop merges them all into
/// `counters` and `hists`. The headline fields stay as plain members for
/// ergonomic access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommStats {
    pub messages: u64,
    pub steps: usize,
    pub ranks: usize,
    /// How many times the run was restarted from a checkpoint (or from
    /// the initial state) after a detected rank failure.
    pub restarts: usize,
    /// How many dead ranks were healed *online* — a hot spare adopted
    /// the subdomain from a buddy snapshot while survivors rolled back
    /// in place. Distinct from `restarts`, which tears the whole world
    /// down and replays from disk.
    pub recoveries: usize,
    /// Merged counters across all ranks: halo traffic plus whatever the
    /// per-rank executors recorded (DMA bytes/rows, SPM peak, tiles).
    pub counters: CounterSet,
    /// Merged latency histograms across all ranks (halo wait, pack,
    /// unpack, per-step wall time, failure detection).
    pub hists: HistSet,
}

impl CommStats {
    pub fn halo_messages(&self) -> u64 {
        self.counters.get(Counter::HaloMessages)
    }
    pub fn halo_bytes(&self) -> u64 {
        self.counters.get(Counter::HaloBytes)
    }
    pub fn dma_get_bytes(&self) -> u64 {
        self.counters.get(Counter::DmaGetBytes)
    }
    pub fn dma_put_bytes(&self) -> u64 {
        self.counters.get(Counter::DmaPutBytes)
    }
    pub fn spm_peak_bytes(&self) -> u64 {
        self.counters.get(Counter::SpmPeakBytes)
    }
    pub fn tiles_executed(&self) -> u64 {
        self.counters.get(Counter::TilesExecuted)
    }
    /// Always 0: the channel is reliable, so nothing is retransmitted.
    /// Kept while the benchmark's `comm.retransmits` metric reads it; both
    /// go together.
    pub fn retransmits(&self) -> u64 {
        self.counters.get(Counter::RetransmitCount)
    }
    pub fn faults_injected(&self) -> u64 {
        self.counters.get(Counter::FaultsInjected)
    }
    pub fn checkpoint_bytes(&self) -> u64 {
        self.counters.get(Counter::CheckpointBytes)
    }
    pub fn heartbeats_sent(&self) -> u64 {
        self.counters.get(Counter::HeartbeatsSent)
    }
    pub fn buddy_bytes(&self) -> u64 {
        self.counters.get(Counter::BuddyBytes)
    }
    pub fn rank_recoveries(&self) -> u64 {
        self.counters.get(Counter::RankRecoveries)
    }

    /// Wrap into a timeline-free [`Profile`] (counters + histograms)
    /// for reporting.
    pub fn profile(&self, label: impl Into<String>) -> Profile {
        let mut p = Profile::from_counters(label, self.counters);
        p.hists = self.hists;
        p
    }
}

/// Extract the local padded grid of `rank` from the global grid (the
/// global grid's halo is the physical boundary; interior-facing local
/// halos are filled with the neighbouring ranks' data, which equals the
/// global values at initialization).
fn scatter<T: Scalar>(global: &Grid<T>, decomp: &CartDecomp, rank: usize) -> Grid<T> {
    let sub = decomp.sub_extent();
    let origin = decomp.origin_of(rank);
    let mut local: Grid<T> = Grid::zeros(&sub, &decomp.reach);
    // Local padded coordinate i maps to global *padded* coordinate
    // origin + i (both halos have width `reach`).
    let buf = global.pack(&Region::new(origin, local.padded.clone()));
    let whole = Region::new(vec![0; sub.len()], local.padded.clone());
    local.unpack(&whole, &buf);
    local
}

/// Build and validate the decomposition for a program/process-grid pair.
/// Under periodic boundaries the process grid becomes a torus: boundary
/// ranks exchange with the opposite side (single-process dimensions wrap
/// onto themselves through self-messages).
fn build_decomp(program: &StencilProgram, procs: &[usize], bc: Boundary) -> Result<CartDecomp> {
    let reach = program.stencil.reach();
    // The grid's halo must equal the stencil reach for scatter/gather
    // coordinates to line up.
    if program.grid.halo != reach {
        return Err(MscError::InvalidConfig(format!(
            "distributed run requires grid halo {:?} == stencil reach {:?}",
            program.grid.halo, reach
        )));
    }
    let mut decomp = CartDecomp::new(&program.grid.shape, procs, &reach)?;
    if bc == Boundary::Periodic {
        decomp = decomp.with_periodicity(&vec![true; reach.len()])?;
    }
    Ok(decomp)
}

/// Options of [`run_distributed_resilient`]: fault tolerance, the halo
/// library, and how each rank executes its tiles.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// How every rank's halo plan cuts the halo into messages (paper
    /// Table 1, "pluggable library"); both are bit-identical to the
    /// single-node run.
    pub backend: Backend,
    /// `Some(bytes)`: every rank stages its tiles through a bounded SPM of
    /// this capacity with explicit DMA (the full large-scale Sunway code
    /// path); `None`: tiles are computed straight from the grids.
    pub spm_capacity: Option<usize>,
    /// Seeded chaos plan injected into every rank's channel layer:
    /// delayed (reordered) frames and a rank kill.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Directory for checkpoint snapshots; checkpointing is active only
    /// when this is set *and* `checkpoint_every > 0`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot the window ring every K completed steps.
    pub checkpoint_every: usize,
    /// How many times a failed run may be restarted (from the latest
    /// complete checkpoint if one exists, else from the initial state).
    pub max_restarts: usize,
    /// Execution tier for every rank's compute, direct or SPM-staged
    /// (`Auto` is always the specialized row kernel). All tiers are
    /// bit-identical, so chaos replays and checkpoint restarts are
    /// tier-agnostic.
    pub tier: msc_exec::ExecTier,
    /// Hot-spare ranks launched idle beside the compute ranks. When the
    /// membership layer declares a compute rank dead, a spare adopts its
    /// subdomain (from the buddy snapshot, the disk checkpoint, or the
    /// initial state) and the run heals online instead of restarting.
    /// Implies the membership + heartbeat machinery.
    pub spare_ranks: usize,
    /// Heartbeat interval and failure-detection timeout. `Some` switches
    /// the membership layer on even without spares (detection without
    /// adoption still falls back to a disk restart); `None` with
    /// `spare_ranks > 0` uses [`HeartbeatConfig::default`]. Validated at
    /// run entry — a bad configuration is a typed error, never a panic.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Telemetry hub the run should record into. `None` keeps whatever
    /// hub the calling thread already has installed (usually the
    /// process-wide default) — `Some` scopes every counter, span,
    /// flight-recorder entry, and per-rank sample of this run to the
    /// given session, which is how the sampler observes one run without
    /// cross-talk from concurrent work.
    pub hub: Option<Arc<msc_trace::TelemetryHub>>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            backend: Backend::DimOrdered,
            spm_capacity: None,
            chaos: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            max_restarts: 3,
            tier: msc_exec::ExecTier::Auto,
            spare_ranks: 0,
            heartbeat: None,
            hub: None,
        }
    }
}

/// Is `tile` a **boundary** tile of this rank: does some message of the
/// halo plan pack one of its cells? The exchange may be initiated as soon
/// as the boundary tiles have been computed; interior tiles touch none of
/// the packed cells.
fn is_boundary(tile: &TileRange, halo: &HaloPlan, reach: &[usize]) -> bool {
    // Tiles are in interior coordinates, the plan's boxes in padded.
    let start = tile.origin.iter().zip(reach).map(|(&o, &r)| o + r);
    halo.sends_from(&Region::new(start.collect(), tile.extent.clone()))
}

/// The one way into a distributed run: `program` over a `procs` Cartesian
/// process grid, starting from the global `init` grid under boundary
/// condition `bc`; `make_plan` builds the per-rank execution plan for the
/// sub-grid shape. Returns the gathered global result and stats. With
/// default options this is a plain fault-free run; `opts` adds chaos
/// injection, periodic checkpoints, hot-spare online recovery, and
/// restart-on-failure as the last resort, and picks the halo library and
/// SPM staging.
pub fn run_distributed_resilient<'p, T: Scalar>(
    program: impl Gate<'p>,
    procs: &[usize],
    init: &Grid<T>,
    bc: Boundary,
    opts: &RunOptions,
    make_plan: impl Fn(&[usize]) -> Result<ExecPlan> + Sync,
) -> Result<(Grid<T>, CommStats)> {
    // Checked once, before any rank spawns; every rank's loop takes it.
    let program = program.gate(None)?;
    let decomp = build_decomp(&program, procs, bc)?;
    run_ranks(&program, init, bc, decomp, opts, make_plan)
}

/// Is this error a communication fault a restart could heal (a killed or
/// dead rank, a timeout, a poisoned world), as opposed to a programming
/// or configuration error that would fail identically again?
fn is_restartable(e: &MscError) -> bool {
    matches!(e, MscError::Comm(_))
}

/// Control-plane tag namespaces, disjoint from halo tags (which use
/// only low bits) and from each other; the checkpoint generation rides
/// in the low bits. `BUDDY` carries the steady-state snapshot ring
/// shift, `ADOPT` the one-shot handoff of a dead rank's snapshot to
/// the spare adopting it.
const BUDDY_TAG: u64 = 1 << 62;
const ADOPT_TAG: u64 = 1 << 61;

/// What one physical slot produced: its account, and the logical subdomain
/// it finished with that subdomain's interior — `None` for a slot that
/// died (chaos kill) or stood by unused (idle spare). Every logical
/// subdomain must be covered by exactly one outcome.
struct RankOutcome<T> {
    computed: Option<(usize, Vec<T>)>,
    sent: u64,
    account: Account,
}

/// What a slot counted: the account of every step its time loop took and
/// every account its endpoint published ([`RankCtx::publish`]) — each
/// already published to the hub, once, on its own side.
#[derive(Default)]
struct Account {
    counters: CounterSet,
    hists: HistSet,
}

impl Account {
    fn add(&mut self, (counters, hists): (CounterSet, HistSet)) {
        self.counters.merge(&counters);
        self.hists.merge(&hists);
    }
}

/// Immutable per-attempt surroundings of the per-rank step loop,
/// bundled so the compute and recovery helpers stay readable.
struct StepEnv<'a, T: Scalar> {
    program: &'a Checked<'a>,
    /// The per-rank executor: the sub-grid plan, SPM-staged or direct.
    executor: &'a Executor,
    decomp: &'a CartDecomp,
    seeded: &'a Grid<T>,
    opts: &'a RunOptions,
    store: Option<&'a CheckpointStore>,
    membership: Option<&'a Arc<Membership>>,
}

/// The time loop of `logical`'s subdomain at the initial state: the
/// scattered sub-grid is the seed every window slot starts from. The loop
/// applies no boundary of its own — the exchange hooked into each step
/// publishes the new state's halo, and a periodic process grid is a torus.
fn rank_loop<'a, T: Scalar>(env: &StepEnv<'a, T>, logical: usize) -> Result<TimeLoop<'a, T>> {
    TimeLoop::admit(
        env.program,
        env.executor,
        Cow::Owned(scatter(env.seeded, env.decomp, logical)),
        Boundary::Dirichlet,
        env.opts.tier,
    )
}

/// How a rank reacts to a failed step loop.
enum Reaction {
    /// We are the rank the chaos plan killed: leave the fabric so the
    /// survivors' detectors fire, and retire this slot.
    Retire,
    /// A peer died and the membership layer healed it: roll our own
    /// state back to the record's generation and recompute.
    Rollback(FailureRecord),
}

/// Classify a step-loop failure using the typed control fault the
/// runtime noted before flattening it into an error string. Anything
/// that is not an online-recoverable event propagates into the
/// restart machinery.
fn plan_recovery<T>(
    ctx: &mut RankCtx<T>,
    membership: Option<&Arc<Membership>>,
    store: Option<&CheckpointStore>,
    err: MscError,
) -> Result<Reaction> {
    let fault = ctx.take_fault();
    let Some(m) = membership else { return Err(err) };
    match fault {
        Some(CommError::Killed { rank, .. }) if rank == ctx.rank => Ok(Reaction::Retire),
        Some(CommError::EpochChange { .. }) => {
            m.latest_failure().map(Reaction::Rollback).ok_or(err)
        }
        Some(CommError::RankSuspect { rank, .. }) => {
            let disk = store.and_then(|s| s.latest_complete());
            match m.report_failure(rank, ctx.epoch(), disk) {
                FailureOutcome::Recovered(rec) => Ok(Reaction::Rollback(rec)),
                // Someone else reported first: follow their record.
                FailureOutcome::Stale => m.latest_failure().map(Reaction::Rollback).ok_or(err),
                FailureOutcome::Unrecoverable => Err(err),
            }
        }
        _ => Err(err),
    }
}

/// Survivor-side rollback to a recovery record: enter the new epoch,
/// hand the dead rank's buddy snapshot to its adopter if we hold it,
/// and rewind our own window to the agreed generation.
fn rollback<'a, T: Scalar>(
    ctx: &mut RankCtx<T>,
    env: &StepEnv<'a, T>,
    rec: &FailureRecord,
    snaps: &BuddySnapshots<T>,
    run: &mut TimeLoop<'a, T>,
) -> Result<()> {
    ctx.enter_epoch(rec.epoch);
    match rec.source {
        RecoverySource::Buddy { gen } => {
            let vanished = |what: String| {
                MscError::InvalidConfig(format!("{what} gen {gen} vanished before rollback"))
            };
            if ctx.rank == env.decomp.buddy_of(rec.logical) && ctx.rank != rec.logical {
                let copy = snaps.held(gen);
                let copy =
                    copy.ok_or_else(|| vanished(format!("rank {}'s buddy copy", rec.logical)))?;
                ctx.isend(rec.logical, ADOPT_TAG | gen, copy.to_vec())?;
            }
            // The membership layer only picks a generation every
            // survivor noted, so our own copy must still be retained.
            let own = snaps
                .own(gen)
                .ok_or_else(|| vanished("own snapshot".into()))?;
            run.restore(own.to_vec(), gen as usize)
        }
        RecoverySource::Disk { gen } => {
            let slots = load_from_disk(env, gen, ctx.rank, run)?;
            run.restore(slots, gen as usize)
        }
        RecoverySource::Initial => {
            *run = rank_loop(env, ctx.rank)?;
            Ok(())
        }
    }
}

/// `logical`'s window slots at generation `gen` from the disk store, as
/// `run` can restore them.
fn load_from_disk<T: Scalar>(
    env: &StepEnv<'_, T>,
    gen: u64,
    logical: usize,
    run: &TimeLoop<'_, T>,
) -> Result<Vec<Grid<T>>> {
    let st = env.store.ok_or_else(|| {
        MscError::InvalidConfig("disk recovery without a checkpoint store".into())
    })?;
    st.load_rank(gen, logical, run.slots().len())
}

/// Spare-side adoption: take over the dead rank's logical identity and
/// bring its time loop to the recovery source's generation.
fn adopt_state<'a, T: Scalar>(
    ctx: &mut RankCtx<T>,
    env: &StepEnv<'a, T>,
    m: &Membership,
    rec: &FailureRecord,
    snaps: &mut BuddySnapshots<T>,
) -> Result<TimeLoop<'a, T>> {
    ctx.adopt(rec.logical);
    ctx.enter_epoch(rec.epoch);
    ctx.counters.bump(Counter::RankRecoveries, 1);
    msc_trace::note_rank_recovery(rec.logical as u32);
    msc_trace::flight(
        FlightKind::Recover,
        rec.logical as u32,
        ctx.slot() as u32,
        rec.source.gen(),
        rec.epoch,
    );
    let mut run = rank_loop(env, rec.logical)?;
    let (slots, gen) = match rec.source {
        RecoverySource::Buddy { gen } => {
            let holder = env.decomp.buddy_of(rec.logical);
            let req = ctx.irecv(holder, ADOPT_TAG | gen);
            let payload = ctx.wait(req)?;
            let like = run.state();
            let slots = wire_to_ring(&payload, &like.shape, &like.halo, run.slots().len())?;
            (slots, gen)
        }
        RecoverySource::Disk { gen } => (load_from_disk(env, gen, rec.logical, &run)?, gen),
        RecoverySource::Initial => return Ok(run),
    };
    // Seed our own snapshot store so a later failure can rewind this
    // subdomain without re-pulling from the buddy or the disk.
    snaps.store_own(gen, &slots);
    m.note_local(rec.logical, gen);
    run.restore(slots, gen as usize)?;
    Ok(run)
}

/// An idle hot spare: service the fabric until the world finishes, a
/// failure assigns us a subdomain, or recovery becomes impossible.
/// Returns the adoption duty, or `None` to stand down.
fn spare_standby<T>(
    ctx: &mut RankCtx<T>,
    m: &Membership,
    store: Option<&CheckpointStore>,
) -> Option<FailureRecord> {
    loop {
        if let Some(rec) = m.duty_of(ctx.slot()) {
            return Some(rec);
        }
        if m.is_finished() || m.is_unrecoverable() {
            return None;
        }
        // Spares watch liveness too: if every compute rank died before
        // anyone could report (or the reporter raced us), the
        // observation must still reach the membership layer. The epoch
        // is read *before* the sweep so a report that landed in between
        // classifies ours as stale instead of opening a second epoch.
        let observed = m.epoch();
        if let Some(CommError::RankSuspect { rank, .. }) = ctx.poll_suspects() {
            let disk = store.and_then(|s| s.latest_complete());
            let _ = m.report_failure(rank, observed, disk);
            let _ = ctx.take_fault();
            continue;
        }
        if ctx.service_for(Duration::from_millis(1)).is_err() {
            // An epoch change just means "look again" for an idle spare.
            let _ = ctx.take_fault();
        }
    }
}

/// Replicate this rank's window slots to its buddy and collect the
/// predecessor's — the diskless checkpoint ring shift, run at every
/// checkpoint generation in membership worlds. Every rank reaches this
/// point at the same step, and the send is non-blocking, so the shift
/// cannot deadlock.
fn buddy_replicate<T: Scalar>(
    ctx: &mut RankCtx<T>,
    env: &StepEnv<'_, T>,
    m: &Membership,
    slots: &[&Grid<T>],
    snaps: &mut BuddySnapshots<T>,
    gen: u64,
) -> Result<()> {
    snaps.store_own(gen, slots.iter().copied());
    m.note_local(ctx.rank, gen);
    let buddy = env.decomp.buddy_of(ctx.rank);
    if buddy == ctx.rank {
        return Ok(()); // single-rank worlds have nobody to replicate to
    }
    let wire = ring_to_wire(slots.iter().copied());
    let bytes = (wire.len() * std::mem::size_of::<T>()) as u64;
    ctx.isend(buddy, BUDDY_TAG | gen, wire)?;
    ctx.counters.bump(Counter::BuddyBytes, bytes);
    let n = m.n_logical();
    let pred = (ctx.rank + n - 1) % n;
    let req = ctx.irecv(pred, BUDDY_TAG | gen);
    let payload = ctx.wait(req)?;
    snaps.store_held(gen, payload);
    m.note_buddy(pred, gen);
    Ok(())
}

/// One attempt of the time loop for one rank, from where `run` stands to
/// the end: every step the one of [`TimeLoop`] with the halo exchange
/// hooked in, then disk checkpoints with retention GC and buddy
/// replication, then the endpoint's account of the step published. Any
/// error is classified by the caller — online recovery where possible,
/// restart otherwise.
fn compute_steps<T: Scalar>(
    ctx: &mut RankCtx<T>,
    env: &StepEnv<'_, T>,
    run: &mut TimeLoop<'_, T>,
    snaps: &mut BuddySnapshots<T>,
    account: &mut Account,
) -> Result<()> {
    let (opts, program) = (env.opts, env.program);
    // The halo plan and the boundary/interior split it implies, rebuilt
    // per attempt: after adoption this rank has a new identity and with
    // it new neighbours.
    let halo = HaloPlan::new(env.decomp, ctx.rank, opts.backend);
    run.split_tiles(|tile| is_boundary(tile, &halo, &env.decomp.reach));

    while run.steps() < program.timesteps {
        let s = run.steps();
        let stepped = if s + 1 < program.timesteps {
            // Boundary wave → initiate the exchange → interior wave
            // (concurrent with the messages) → complete: the new state's
            // halo is published before anyone (including us) reads it next
            // step. The wait inside `finish` still lands in the HaloWait
            // histogram via `ctx.wait`.
            let mut posted = None;
            run.step_with(&mut |state, slot| {
                match posted.take() {
                    None => posted = Some((plan::begin(&halo, ctx, state, slot)?, Instant::now())),
                    Some((pending, t0)) => {
                        let overlap_ns = t0.elapsed().as_nanos() as u64;
                        ctx.counters.bump(Counter::OverlapNanos, overlap_ns);
                        plan::finish(&halo, ctx, state, slot, pending)?;
                    }
                }
                Ok(())
            })?
        } else {
            run.step()?
        };
        account.add((stepped.counters, stepped.hists));
        // Snapshot after the step (and its exchange) fully completed,
        // so a restart resumes with halos as fresh as the original run
        // had them. The same cadence drives disk checkpoints and the
        // diskless buddy ring shift.
        let gen_due = opts.checkpoint_every > 0
            && (s + 1) % opts.checkpoint_every == 0
            && s + 1 < program.timesteps;
        if gen_due {
            let gen = (s + 1) as u64;
            if let Some(st) = env.store {
                let t0 = Instant::now();
                let bytes = st.save_rank(gen, ctx.rank, run.slots())?;
                ctx.counters.bump(Counter::CheckpointBytes, bytes);
                ctx.counters
                    .bump(Counter::CheckpointNanos, t0.elapsed().as_nanos() as u64);
                msc_trace::flight(
                    FlightKind::Checkpoint,
                    ctx.rank as u32,
                    ctx.rank as u32,
                    bytes,
                    gen,
                );
                // Retention: drop generations past the keep window and
                // crashed writers' half-written tmp files. Safe under
                // concurrent callers.
                let _ = st.gc();
            }
            if let Some(m) = env.membership {
                buddy_replicate(ctx, env, m, &run.slots(), snaps, gen)?;
            }
        }
        account.add(ctx.publish());
        // Feed the live telemetry plane's per-rank table: the sampler's
        // stall detector compares these step fronts across ranks. (The
        // time loop counted the step; in a sessioned hub `steps` counts
        // rank-steps, i.e. aggregate step throughput.)
        msc_trace::note_rank_step(ctx.rank as u32, s as u64);
    }
    Ok(())
}

/// One physical slot, start to end: its life, then — whatever that
/// returned, a killed or failed attempt included — the endpoint's last
/// account published, so every count reaches the hub.
fn rank_body<T: Scalar>(
    mut ctx: RankCtx<T>,
    env: &StepEnv<'_, T>,
    resume: Option<u64>,
) -> Result<RankOutcome<T>> {
    let mut account = Account::default();
    let computed = rank_life(&mut ctx, env, resume, &mut account);
    account.add(ctx.publish());
    Ok(RankOutcome {
        computed: computed?,
        sent: ctx.sent_msgs,
        account,
    })
}

/// The whole lifecycle of one physical slot: spares idle until adoption
/// (or stand-down), compute ranks run the step loop; failures loop
/// through classification → rollback → recompute until the world
/// finishes or the error escapes to the restart machinery. Returns the
/// subdomain the slot finished, if it did.
fn rank_life<T: Scalar>(
    ctx: &mut RankCtx<T>,
    env: &StepEnv<'_, T>,
    resume: Option<u64>,
    account: &mut Account,
) -> Result<Option<(usize, Vec<T>)>> {
    // In-memory snapshot retention mirrors the membership layer's
    // per-rank generation pruning, so a generation it promises is one
    // we still hold.
    let mut snaps: BuddySnapshots<T> = BuddySnapshots::new(KEEP_GENS);

    let is_spare = env.membership.is_some_and(|m| ctx.slot() >= m.n_logical());
    let mut run = if is_spare {
        let m = env.membership.expect("spare slots imply membership");
        match spare_standby(ctx, m, env.store) {
            None => {
                ctx.finalize();
                return Ok(None);
            }
            Some(rec) => adopt_state(ctx, env, m, &rec, &mut snaps)?,
        }
    } else {
        let mut run = rank_loop(env, ctx.rank)?;
        if let Some(step) = resume {
            // Every rank resumes from the same checkpoint step, decided
            // once per attempt before the world spawned.
            let slots = load_from_disk(env, step, ctx.rank, &run)?;
            run.restore(slots, step as usize)?;
        }
        run
    };

    loop {
        let err = match compute_steps(ctx, env, &mut run, &mut snaps, account) {
            Ok(()) => {
                // Membership done-barrier: stand by servicing the fabric
                // (heartbeats, buddy traffic) until every
                // logical rank finished under the final epoch. A late
                // failure pulls us back into compute — rollback is
                // global, so even finished ranks replay.
                let mut late: Option<MscError> = None;
                if let Some(m) = env.membership {
                    m.report_done(ctx.rank, ctx.epoch());
                    while !m.is_finished() && !m.is_unrecoverable() {
                        if let Some(e) = ctx.poll_suspects() {
                            late = Some(e.into());
                            break;
                        }
                        if let Err(e) = ctx.service_for(Duration::from_millis(1)) {
                            late = Some(e.into());
                            break;
                        }
                    }
                }
                match late {
                    None => {
                        let state = run.state();
                        let interior =
                            state.pack(&Region::new(state.halo.clone(), state.shape.clone()));
                        // Keep servicing the fabric until every rank is
                        // done.
                        ctx.finalize();
                        return Ok(Some((ctx.rank, interior)));
                    }
                    Some(e) => e,
                }
            }
            Err(e) => e,
        };
        match plan_recovery(ctx, env.membership, env.store, err)? {
            // Deliberately no `finalize`: dropping the endpoint is what
            // lets the survivors' failure detectors fire.
            Reaction::Retire => return Ok(None),
            Reaction::Rollback(rec) => rollback(ctx, env, &rec, &snaps, &mut run)?,
        }
    }
}

/// The rank loop behind [`run_distributed_resilient`]. One attempt spawns
/// the world (compute ranks plus hot spares), runs the time loop with
/// optional SPM staging, chaos injection, and periodic disk + buddy
/// checkpoints; a rank death in a membership world heals online (spare
/// adoption + global rollback), and a failed attempt (typed communication
/// error — never a panic) is retried from the latest complete checkpoint
/// up to `opts.max_restarts` times.
fn run_ranks<T: Scalar>(
    program: &Checked<'_>,
    init: &Grid<T>,
    bc: Boundary,
    decomp: CartDecomp,
    opts: &RunOptions,
    make_plan: impl Fn(&[usize]) -> Result<ExecPlan> + Sync,
) -> Result<(Grid<T>, CommStats)> {
    // Scope the run to its session hub (if any) before the first
    // telemetry call below; rank threads re-install it at spawn.
    let _hub_guard = opts
        .hub
        .as_ref()
        .map(|h| msc_trace::install_thread_hub(Arc::clone(h)));
    let reach = program.stencil.reach();
    let sub = decomp.sub_extent();
    let plan = make_plan(&sub)?;
    if plan.grid != sub {
        return Err(MscError::InvalidConfig(format!(
            "plan grid {:?} != sub-grid {:?}",
            plan.grid, sub
        )));
    }
    let executor = match opts.spm_capacity {
        None => Executor::Tiled(plan),
        Some(spm_capacity) => Executor::Spm { plan, spm_capacity },
    };
    if let Some(hb) = &opts.heartbeat {
        hb.validate().map_err(MscError::InvalidConfig)?;
    }
    let n_logical = decomp.n_ranks();
    // Either knob switches the membership/heartbeat layer on; with both
    // off, every recovery path below is a no-op and the runtime stays
    // byte-for-byte on its plain code paths.
    let resilient = opts.spare_ranks > 0 || opts.heartbeat.is_some();
    let heartbeat = resilient.then(|| opts.heartbeat.clone().unwrap_or_default());
    let store = match &opts.checkpoint_dir {
        Some(dir) if opts.checkpoint_every > 0 => {
            // Every rank admits this program over this sub-grid shape, so
            // one loop over a blank sub-grid says what all their windows
            // will hold.
            let blank = Cow::Owned(Grid::<T>::zeros(&sub, &reach));
            let layout =
                TimeLoop::admit(program, &executor, blank, Boundary::Dirichlet, opts.tier)?
                    .layout();
            Some(CheckpointStore::new(dir, n_logical)?.holding(layout))
        }
        _ => None,
    };
    // Seed with wrapped halos so step 0 reads correct periodic images.
    let mut seeded = init.clone();
    boundary::apply(&mut seeded, bc);
    let seeded = &seeded;

    let mut restarts = 0usize;
    let mut recoveries = 0u64;
    loop {
        let resume = store.as_ref().and_then(|s| s.latest_complete());
        // Membership is per attempt: a restart is a new incarnation of
        // the world, with every spare back on the bench.
        let membership = resilient.then(|| Arc::new(Membership::new(n_logical, opts.spare_ranks)));
        let world_cfg = WorldConfig {
            fault: opts.chaos.clone(),
            membership: membership.clone(),
            heartbeat: heartbeat.clone(),
            ..WorldConfig::default()
        };
        let n_phys = n_logical + if resilient { opts.spare_ranks } else { 0 };
        let env = StepEnv {
            program,
            executor: &executor,
            decomp: &decomp,
            seeded,
            opts,
            store: store.as_ref(),
            membership: membership.as_ref(),
        };
        // Every rank compiles the stencil against its own sub-grid when it
        // admits its time loop; a spare does when it adopts one.
        let run = World::try_run_with(n_phys, world_cfg, |ctx: RankCtx<T>| {
            rank_body(ctx, &env, resume)
        });
        // Count online recoveries whether or not the attempt survived:
        // each is a real adoption event.
        if let Some(m) = &membership {
            recoveries += m.recoveries();
        }

        // Classify the attempt: total success gathers and returns; a
        // communication fault restarts (budget permitting); anything
        // else — a genuine program/configuration error — propagates.
        let failure: MscError = match run {
            Ok(rank_results) => {
                if rank_results.iter().all(|r| r.is_ok()) {
                    let mut global: Grid<T> = seeded.clone();
                    let mut stats = CommStats {
                        messages: 0,
                        steps: program.timesteps,
                        ranks: n_logical,
                        restarts,
                        recoveries: recoveries as usize,
                        counters: CounterSet::new(),
                        hists: HistSet::new(),
                    };
                    let mut covered = vec![false; n_logical];
                    let mut duplicated = false;
                    for res in rank_results {
                        let slot = res?;
                        stats.messages += slot.sent;
                        stats.counters.merge(&slot.account.counters);
                        stats.hists.merge(&slot.account.hists);
                        let Some((logical, interior)) = slot.computed else {
                            continue;
                        };
                        if std::mem::replace(&mut covered[logical], true) {
                            duplicated = true;
                            continue;
                        }
                        let origin = decomp.origin_of(logical);
                        let dst = Region::new(
                            origin.iter().zip(&reach).map(|(&o, &r)| o + r).collect(),
                            sub.clone(),
                        );
                        global.unpack(&dst, &interior);
                    }
                    if covered.iter().all(|&c| c) && !duplicated {
                        // Steps and rank count are run-global, not
                        // per-rank sums.
                        stats.counters.set(Counter::Steps, program.timesteps as u64);
                        stats.counters.set(Counter::Ranks, n_logical as u64);
                        boundary::apply(&mut global, bc);
                        return Ok((global, stats));
                    }
                    // A subdomain went uncovered (or covered twice)
                    // despite every slot reporting success — heal by
                    // restarting rather than returning a partial grid.
                    MscError::Comm("logical subdomain left uncovered after online recovery".into())
                } else {
                    // Surface a non-restartable error immediately;
                    // otherwise report the lowest-slot communication
                    // fault.
                    let errs: Vec<&MscError> = rank_results
                        .iter()
                        .filter_map(|r| r.as_ref().err())
                        .collect();
                    if let Some(hard) = errs.iter().find(|e| !is_restartable(e)) {
                        return Err((*hard).clone());
                    }
                    errs[0].clone()
                }
            }
            // A panicking rank poisons the world — typed, and restartable
            // like any other failure.
            Err(poison) => poison.into(),
        };
        if restarts >= opts.max_restarts {
            return Err(failure);
        }
        // Attach the black-box timeline to the restart decision too: the
        // dump shows the fault the restart is healing.
        msc_trace::flight(FlightKind::Restart, 0, 0, 0, restarts as u64 + 1);
        let _ = msc_trace::dump_on_error("restart");
        restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::schedule::Schedule;
    use msc_exec::driver::{run_program, run_program_tier, Executor};
    use msc_exec::ExecTier;

    /// The door with `simple_plan`, unwrapped.
    fn run(
        p: &StencilProgram,
        procs: &[usize],
        init: &Grid<f64>,
        bc: Boundary,
        opts: &RunOptions,
    ) -> (Grid<f64>, CommStats) {
        run_distributed_resilient(p, procs, init, bc, opts, simple_plan).unwrap()
    }

    /// The serial reference under `bc`.
    fn reference(p: &StencilProgram, init: &Grid<f64>, bc: Boundary) -> Grid<f64> {
        run_program_tier(p, &Executor::Reference, init, bc, ExecTier::Auto)
            .unwrap()
            .0
    }

    fn full_neighbor() -> RunOptions {
        RunOptions {
            backend: Backend::FullNeighbor,
            ..RunOptions::default()
        }
    }

    fn simple_plan(sub: &[usize]) -> Result<ExecPlan> {
        let mut s = Schedule::default();
        let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
        s.tile(&tile);
        s.parallel("xo", 2);
        ExecPlan::lower(&s, sub.len(), sub)
    }

    /// The rule `is_boundary` used before the plan existed, kept as the
    /// oracle: a tile is boundary iff, along some dimension with a halo,
    /// it reaches into the band of width `reach` against a face that has
    /// a neighbour.
    fn touches_a_neighboured_face(tile: &TileRange, decomp: &CartDecomp, rank: usize) -> bool {
        let sub = decomp.sub_extent();
        (0..decomp.ndim()).any(|d| {
            let r = decomp.reach[d];
            r > 0
                && ((decomp.neighbor(rank, d, -1).is_some() && tile.origin[d] < r)
                    || (decomp.neighbor(rank, d, 1).is_some()
                        && tile.origin[d] + tile.extent[d] > sub[d] - r))
        })
    }

    #[test]
    fn boundary_tiles_by_plan_query_equal_the_face_rule() {
        let check = |global: &[usize], procs: &[usize], reach: &[usize], periodic: bool| {
            let decomp = CartDecomp::new(global, procs, reach)
                .unwrap()
                .with_periodicity(&vec![periodic; global.len()])
                .unwrap();
            // A 4-per-dimension tile lattice: tiles strictly inside the
            // sub-grid, on a face, on an edge and in a corner.
            let sub = decomp.sub_extent();
            let mut sched = Schedule::default();
            sched.tile(&sub.iter().map(|&x| x / 4).collect::<Vec<_>>());
            let tiles = Executor::Tiled(ExecPlan::lower(&sched, sub.len(), &sub).unwrap()).tiles();
            assert_eq!(tiles.len(), 4usize.pow(sub.len() as u32));
            for rank in 0..decomp.n_ranks() {
                for backend in [Backend::DimOrdered, Backend::FullNeighbor] {
                    let halo = HaloPlan::new(&decomp, rank, backend);
                    let (boundary, interior): (Vec<_>, Vec<_>) = tiles
                        .iter()
                        .cloned()
                        .partition(|t| is_boundary(t, &halo, reach));
                    let (want_b, want_i): (Vec<_>, Vec<_>) = tiles
                        .iter()
                        .cloned()
                        .partition(|t| touches_a_neighboured_face(t, &decomp, rank));
                    assert_eq!(boundary, want_b, "{decomp:?} rank {rank} {backend:?}");
                    assert_eq!(interior, want_i, "{decomp:?} rank {rank} {backend:?}");
                }
            }
        };
        // 3x3 and 3x3x3 process grids have interior, face, edge and corner
        // ranks; the torus gives every rank every neighbour; the last has
        // a dimension nothing reaches into.
        check(&[24, 24], &[3, 3], &[1, 2], false);
        check(&[24, 24], &[3, 3], &[2, 1], true);
        check(&[24, 24, 24], &[3, 3, 3], &[1, 1, 2], false);
        check(&[16, 16, 16], &[2, 1, 2], &[1, 1, 1], true);
        check(&[24, 24], &[3, 3], &[0, 2], false);
    }

    #[test]
    fn distributed_2d_is_bit_identical_to_single_node() {
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[16, 16], DType::F64, 5)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let (multi, stats) = run(
            &p,
            &[2, 2],
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
        );
        assert_eq!(single.as_slice(), multi.as_slice());
        assert_eq!(stats.ranks, 4);
        assert!(stats.messages > 0);
    }

    #[test]
    fn distributed_3d_is_bit_identical_to_single_node() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 12], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 7);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let (multi, _) = run(
            &p,
            &[2, 1, 3],
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
        );
        assert_eq!(single.as_slice(), multi.as_slice());
    }

    #[test]
    fn all_benchmarks_distributed_match_reference() {
        for b in all_benchmarks() {
            let grid: Vec<usize> = match b.ndim {
                2 => vec![32, 32],
                _ => vec![16, 16, 16],
            };
            let p = b.program(&grid, DType::F64, 3).unwrap();
            let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
            let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
            let procs: Vec<usize> = match b.ndim {
                2 => vec![2, 2],
                _ => vec![2, 2, 1],
            };
            let (multi, _) = run(
                &p,
                &procs,
                &init,
                Boundary::Dirichlet,
                &RunOptions::default(),
            );
            assert_eq!(single.as_slice(), multi.as_slice(), "{}", b.name);
        }
    }

    #[test]
    fn distributed_spm_execution_is_bit_identical() {
        // The full Sunway path: SPM-staged tiles on every rank + halo
        // exchange, still bitwise equal to the serial single-node run.
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 16], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 44);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let opts = RunOptions {
            spm_capacity: Some(1 << 20),
            ..RunOptions::default()
        };
        let (multi, stats) = run(&p, &[2, 1, 2], &init, Boundary::Dirichlet, &opts);
        assert_eq!(single.as_slice(), multi.as_slice());
        // The per-rank SPM executors' DMA traffic must survive the
        // gather: these used to be silently dropped.
        assert!(stats.dma_get_bytes() > 0);
        assert!(stats.dma_put_bytes() > 0);
        assert!(stats.spm_peak_bytes() > 0);
        assert!(stats.tiles_executed() > 0);
    }

    #[test]
    fn comm_stats_unify_halo_and_executor_counters() {
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[16, 16], DType::F64, 5)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
        let (_, stats) = run(
            &p,
            &[2, 2],
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
        );
        // Only halo traffic flows in a fault-free run, so the unified
        // counter must agree with the legacy message count.
        assert_eq!(stats.halo_messages(), stats.messages);
        assert!(stats.halo_bytes() > 0);
        assert!(stats.tiles_executed() > 0);
        assert_eq!(stats.counters.get(msc_trace::Counter::Steps), 5);
        assert_eq!(stats.counters.get(msc_trace::Counter::Ranks), 4);
        // No SPM in this run: DMA counters stay zero.
        assert_eq!(stats.dma_get_bytes(), 0);
        // No membership layer either: the recovery vocabulary is silent.
        assert_eq!(stats.heartbeats_sent(), 0);
        assert_eq!(stats.buddy_bytes(), 0);
        assert_eq!(stats.rank_recoveries(), 0);
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn distributed_spm_overflow_propagates_as_error() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[16, 16, 16], DType::F64, 2)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 1);
        let opts = RunOptions {
            spm_capacity: Some(128), // absurdly small SPM
            ..RunOptions::default()
        };
        let r = run_distributed_resilient(
            &p,
            &[1, 1, 1],
            &init,
            Boundary::Dirichlet,
            &opts,
            simple_plan,
        );
        assert!(r.is_err());
    }

    #[test]
    fn single_rank_degenerates_to_local_run() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[8, 8], DType::F64, 3)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let (multi, stats) = run(
            &p,
            &[1, 1],
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
        );
        assert_eq!(single.as_slice(), multi.as_slice());
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn periodic_distributed_matches_periodic_single_node() {
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[12, 18], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
        let single = reference(&p, &init, Boundary::Periodic);
        let (multi, _) = run(
            &p,
            &[2, 3],
            &init,
            Boundary::Periodic,
            &RunOptions::default(),
        );
        assert_eq!(single.as_slice(), multi.as_slice());
    }

    #[test]
    fn periodic_single_process_dimension_wraps_through_self_messages() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[8, 8, 12], DType::F64, 3)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);
        let single = reference(&p, &init, Boundary::Periodic);
        // procs = [1, 1, 2]: dims 0 and 1 wrap onto the same rank.
        let (multi, stats) = run(
            &p,
            &[1, 1, 2],
            &init,
            Boundary::Periodic,
            &RunOptions::default(),
        );
        assert_eq!(single.as_slice(), multi.as_slice());
        assert!(stats.messages > 0);
    }

    #[test]
    fn periodic_averaging_conserves_mass() {
        // On a torus, a unit-coefficient-sum stencil loses nothing at the
        // boundary: the interior sum is invariant.
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 10)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 13);
        let before = {
            let mut g = init.clone();
            msc_exec::boundary::apply(&mut g, Boundary::Periodic);
            g.interior_sum()
        };
        let out = reference(&p, &init, Boundary::Periodic);
        let after = out.interior_sum();
        assert!(
            (before - after).abs() / before.abs() < 1e-12,
            "{before} vs {after}"
        );
    }

    #[test]
    fn gcl_style_backend_is_bit_identical_for_box_stencils() {
        // 2d121pt has reach 5: corners really matter.
        let p = benchmark(BenchmarkId::S2d121ptBox)
            .program(&[30, 40], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 17);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let (multi, stats) = run(&p, &[2, 2], &init, Boundary::Dirichlet, &full_neighbor());
        assert_eq!(single.as_slice(), multi.as_slice());
        // 2x2 grid: each rank has 3 neighbours (2 faces + 1 corner), so
        // 4 ranks x 3 msgs x (steps-1) rounds.
        assert_eq!(stats.messages, 4 * 3 * 3);
    }

    #[test]
    fn gcl_style_backend_works_on_periodic_torus() {
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[12, 12], DType::F64, 3)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 51);
        let single = reference(&p, &init, Boundary::Periodic);
        let (multi, _) = run(&p, &[2, 2], &init, Boundary::Periodic, &full_neighbor());
        assert_eq!(single.as_slice(), multi.as_slice());
    }

    #[test]
    fn backends_agree_with_each_other() {
        let p = benchmark(BenchmarkId::S3d13ptStar)
            .program(&[12, 12, 12], DType::F64, 3)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 8);
        let (a, sa) = run(
            &p,
            &[2, 2, 1],
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
        );
        let (b, sb) = run(&p, &[2, 2, 1], &init, Boundary::Dirichlet, &full_neighbor());
        assert_eq!(a.as_slice(), b.as_slice());
        // The GCL-style backend sends more messages (explicit corners).
        assert!(
            sb.messages > sa.messages,
            "{} vs {}",
            sb.messages,
            sa.messages
        );
    }

    #[test]
    fn dirichlet_and_periodic_differ() {
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[10, 10], DType::F64, 3)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 21);
        let a = reference(&p, &init, Boundary::Dirichlet);
        let b = reference(&p, &init, Boundary::Periodic);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn mismatched_process_grid_rejected() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[10, 10], DType::F64, 2)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let opts = RunOptions::default();
        let r =
            run_distributed_resilient(&p, &[3, 1], &init, Boundary::Dirichlet, &opts, simple_plan);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_heartbeat_is_a_typed_error_not_a_panic() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[8, 8], DType::F64, 2)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let opts = RunOptions {
            heartbeat: Some(HeartbeatConfig {
                every: Duration::from_millis(50),
                detect: Duration::from_millis(10), // detect < every: nonsense
            }),
            ..RunOptions::default()
        };
        let r =
            run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, simple_plan);
        assert!(matches!(r, Err(MscError::InvalidConfig(_))), "{r:?}");
    }

    #[test]
    fn spare_world_without_failures_is_bit_identical_and_quiet() {
        // Spares idle, heartbeats flow, buddies replicate — none of it
        // may perturb the numerics.
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[16, 16], DType::F64, 40)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
        let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let opts = RunOptions {
            spare_ranks: 1,
            checkpoint_every: 2,
            // A beacon interval far below the run length, so idle-path
            // heartbeats demonstrably flow even on a fast machine.
            heartbeat: Some(HeartbeatConfig::from_millis(1).unwrap()),
            ..RunOptions::default()
        };
        let (multi, stats) =
            run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, simple_plan)
                .unwrap();
        assert_eq!(single.as_slice(), multi.as_slice());
        assert_eq!(stats.recoveries, 0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.rank_recoveries(), 0);
        // Diskless buddy checkpoints ran even with no checkpoint dir.
        assert!(stats.buddy_bytes() > 0, "buddy replication must run");
        assert!(stats.heartbeats_sent() > 0, "idle heartbeats must flow");
    }
}
