//! Multi-timestep driver: owns the sliding-time-window ring of state
//! buffers (paper Figure 5) and dispatches each step to the selected
//! executor.

use crate::boundary::{self, Boundary};
use crate::compiled::CompiledTerm;
use crate::grid::{Grid, GridLayout, Scalar};
use crate::tier::{ExecTier, TieredStencil};
use crate::sweep::Shared;
use crate::specialized::ImageOf;
use crate::wavefront::{self, Home, Pass};
use crate::{reference, spm, tiled};
use msc_core::error::{MscError, Result};
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_core::schedule::WindowPlan;
use msc_lint::Gate;
use msc_trace::{Counter, CounterSet, Hist, HistSet, Profile};
use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which execution strategy to use for each timestep.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Naive serial loop nest.
    Reference,
    /// Tiled, multi-threaded, cache-based execution (Matrix/CPU style).
    Tiled(ExecPlan),
    /// Tiled execution staged through a bounded scratchpad with DMA
    /// (Sunway style). The capacity is the per-core SPM size.
    Spm { plan: ExecPlan, spm_capacity: usize },
}

impl Executor {
    /// The tiles of one whole step (none for the serial reference).
    pub fn tiles(&self) -> Vec<TileRange> {
        match self {
            Executor::Reference => Vec::new(),
            Executor::Tiled(plan) | Executor::Spm { plan, .. } => plan.tiles(),
        }
    }

    /// Compute `tiles` of one timestep into `out` from `inputs`
    /// (`inputs[dt - 1]` is the state `dt` steps back) and return what the
    /// sweep counted: tiles, DMA traffic and SPM peak under `Spm`, and the
    /// rows the stencil's tier evaluated. `tiles` must be distinct cells
    /// of the plan's tiling — all of [`Executor::tiles`], or a part of
    /// them when a caller interleaves the step with something else — and
    /// the plan must have been lowered for `out`'s shape; the serial
    /// reference ignores `tiles` and computes the whole interior on the
    /// interpreter.
    pub fn step<T: Scalar>(
        &self,
        compiled: &TieredStencil<T>,
        inputs: &[&Grid<T>],
        out: &mut Grid<T>,
        tiles: &[TileRange],
    ) -> Result<CounterSet> {
        let mut counters = CounterSet::new();
        match self {
            Executor::Reference => {
                reference::step(compiled, inputs, out);
                counters.set(Counter::TilesExecuted, 1);
            }
            Executor::Tiled(plan) => {
                let _span = msc_trace::span("tiled_step");
                counters = tiled::step_tiles(compiled, plan, inputs, out, tiles)?;
                counters.set(Counter::TilesExecuted, tiles.len() as u64);
            }
            Executor::Spm { plan, spm_capacity } => {
                let _span = msc_trace::span("spm_step");
                counters = spm::step_tiles(compiled, plan, inputs, out, *spm_capacity, tiles)?;
            }
        }
        Ok(counters)
    }
}

/// Aggregate statistics of a run.
///
/// A thin view over the trace counter vocabulary: the driver merges the
/// [`CounterSet`] of every step (each published to the tracer once, by
/// [`TimeLoop`], when tracing is enabled) and this struct is projected
/// out of it at the end via [`RunStats::from_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    pub steps: usize,
    pub tiles_executed: u64,
    pub dma_get_bytes: u64,
    pub dma_put_bytes: u64,
    pub dma_rows: u64,
    pub spm_peak_bytes: usize,
    /// The full counter set the headline fields were projected from
    /// (also carries counters without a dedicated field, e.g. computed
    /// points).
    pub counters: CounterSet,
}

impl RunStats {
    /// Project the run-level fields out of a counter set.
    pub fn from_counters(c: &CounterSet) -> RunStats {
        RunStats {
            steps: c.get(Counter::Steps) as usize,
            tiles_executed: c.get(Counter::TilesExecuted),
            dma_get_bytes: c.get(Counter::DmaGetBytes),
            dma_put_bytes: c.get(Counter::DmaPutBytes),
            dma_rows: c.get(Counter::DmaRows),
            spm_peak_bytes: c.get(Counter::SpmPeakBytes) as usize,
            counters: *c,
        }
    }

    pub fn computed_points(&self) -> u64 {
        self.counters.get(Counter::ComputedPoints)
    }

    /// Chunk dispatches the VM tier performed (0 on other tiers).
    pub fn vm_dispatches(&self) -> u64 {
        self.counters.get(Counter::VmDispatches)
    }

    /// Rows the specialized tier executed (0 on other tiers).
    pub fn specialized_hits(&self) -> u64 {
        self.counters.get(Counter::SpecializedHits)
    }

    /// Wrap into a counters-only [`Profile`] for reporting.
    pub fn profile(&self, label: impl Into<String>) -> Profile {
        Profile::from_counters(label, self.counters)
    }
}

/// What a window slot holds.
#[derive(Clone)]
enum Slot<T> {
    /// Never written: reads as the seed.
    Cold,
    /// A state.
    State(Grid<T>),
    /// The kernel's image of a state (DESIGN.md §12.6); its halo is
    /// whatever the slot held before.
    Image(Grid<T>),
}

/// The sliding time window of paper Figure 5: `window = max_dt + 1`
/// slots, recycled round-robin. Every slot is cold-started from the same
/// seed — the initial state after `boundary_cond` was applied — so the
/// slots *share* it until they are first written: a borrowed seed under
/// Dirichlet is the caller's grid itself (the boundary is a no-op there);
/// under Periodic it is the one wrapped copy. A written slot holds a
/// state, or in a run that reuses kernel images, a state's image.
pub(crate) struct Ring<'a, T: Scalar> {
    seed: Cow<'a, Grid<T>>,
    slots: Vec<Slot<T>>,
    /// Cold slots that found no retired grid and allocated one.
    fresh: u64,
}

/// The process's *retired slots* (DESIGN.md §17.4): the grids the last
/// ring to end did not hand back, and the state it did once dropped — at
/// most `window` (`like`: window, scalar type, shape, halo).
struct Retired {
    like: Option<(usize, TypeId, Vec<usize>, Vec<usize>)>,
    grids: Vec<Box<dyn Any + Send>>,
}

static RETIRED: Mutex<Retired> = Mutex::new(Retired { like: None, grids: Vec::new() });

/// The retired slots, locked. Every change to them is one push, pop,
/// take or swap, so a poisoned lock still guards a whole set: it is taken
/// as it is, and a drop never panics on it. Callers free grids only after
/// the guard is gone.
fn retired() -> MutexGuard<'static, Retired> {
    RETIRED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The state a ring handed out, dropped: it joins the retired slots if it
/// is like them and they are fewer than a window; else it is freed on
/// return, after the lock.
fn give_back<T: Scalar>(grid: Grid<T>) {
    let mut set = retired();
    let Retired { like, grids } = &mut *set;
    if like.as_ref().is_some_and(|(window, ty, shape, halo)| {
        (*ty, shape, halo) == (TypeId::of::<T>(), &grid.shape, &grid.halo) && grids.len() < *window
    }) {
        grids.push(Box::new(grid));
    }
}

impl<'a, T: Scalar> Ring<'a, T> {
    pub(crate) fn new(seed: Cow<'a, Grid<T>>, boundary_cond: Boundary, window: usize) -> Self {
        let seed = match boundary_cond {
            Boundary::Dirichlet => seed,
            Boundary::Periodic => {
                let mut wrapped = seed.into_owned();
                boundary::apply(&mut wrapped, boundary_cond);
                Cow::Owned(wrapped)
            }
        };
        Ring {
            seed,
            slots: vec![Slot::Cold; window],
            fresh: 0,
        }
    }

    /// The state held in `slot`.
    pub(crate) fn input(&self, slot: usize) -> &Grid<T> {
        match &self.slots[slot] {
            Slot::Cold => &self.seed,
            Slot::State(grid) => grid,
            Slot::Image(_) => unreachable!("window slot {slot} holds a kernel image, not a state"),
        }
    }

    /// The kernel image held in `slot`.
    fn image(&self, slot: usize) -> &Grid<T> {
        match &self.slots[slot] {
            Slot::Image(grid) => grid,
            _ => unreachable!("window slot {slot} holds no kernel image"),
        }
    }

    /// Take `slot`'s grid out to be overwritten by a step; [`Ring::put`]
    /// brings the result back. A slot never written before yields a grid
    /// carrying the seed's halo and an interior nothing reads: one of the
    /// retired slots, or else a zero-backed halo shell. Every
    /// executor overwrites the whole interior, and Dirichlet halos must
    /// keep their initial values. Under Periodic the re-wrap after the step
    /// overwrites the halo again; copying it there too (two cells per row)
    /// is the price of one path.
    pub(crate) fn take_output(&mut self, slot: usize) -> Result<Grid<T>> {
        let (mut grid, cold) = self.take_raw(slot)?;
        if cold {
            self.seed.copy_halo_into(&mut grid);
        }
        Ok(grid)
    }

    /// [`Ring::take_output`] without the halo: the grid, and whether the
    /// slot was cold (the grid retired or blank, its halo not the seed's).
    /// A typed error when a blank grid cannot be allocated.
    fn take_raw(&mut self, slot: usize) -> Result<(Grid<T>, bool)> {
        let grid = match std::mem::replace(&mut self.slots[slot], Slot::Cold) {
            Slot::State(grid) | Slot::Image(grid) => return Ok((grid, false)),
            Slot::Cold => match self.reuse_retired() {
                Some(grid) => grid,
                None => {
                    self.fresh += 1;
                    self.seed.blank()?
                }
            },
        };
        Ok((grid, true))
    }

    /// One of the retired slots, if one is left and it is of the seed's
    /// layout and scalar type. Retired slots of another layout or type
    /// are dropped here, after the lock, before the caller allocates a
    /// fresh one in their place.
    fn reuse_retired(&self) -> Option<Grid<T>> {
        let mut set = retired();
        let seed = &*self.seed;
        match set.grids.pop()?.downcast::<Grid<T>>() {
            Ok(grid) if grid.shape == seed.shape && grid.halo == seed.halo => Some(*grid),
            _ => {
                let stale = std::mem::take(&mut set.grids);
                drop(set);
                drop(stale);
                None
            }
        }
    }

    /// The grids of two slots at once, for a step that writes an image and
    /// a state. One slot cannot be both.
    fn take_outputs(&mut self, image: usize, state: usize) -> Result<(Grid<T>, Grid<T>)> {
        if image == state {
            return Err(MscError::InvalidConfig(format!(
                "window slot {image} cannot take a kernel image and the new state in one step"
            )));
        }
        Ok((self.take_output(image)?, self.take_output(state)?))
    }

    pub(crate) fn put(&mut self, slot: usize, grid: Grid<T>) {
        self.slots[slot] = Slot::State(grid);
    }

    fn put_image(&mut self, slot: usize, grid: Grid<T>) {
        self.slots[slot] = Slot::Image(grid);
    }

    /// Move the state of `slot` out (a copy of the seed if no step ever
    /// wrote it). The other slots' grids replace the retired slots; the
    /// grids these replace are freed, after the lock. A state joins them
    /// when its caller drops it. How many slots the ring allocated goes to
    /// the tracer as `fresh_slots`.
    pub(crate) fn into_state(self, slot: usize) -> Grid<T> {
        let Ring { seed, mut slots, fresh } = self;
        msc_trace::record(Counter::FreshSlots, fresh);
        let like = (slots.len(), TypeId::of::<T>(), seed.shape.clone(), seed.halo.clone());
        let state = match std::mem::replace(&mut slots[slot], Slot::Cold) {
            Slot::Cold => seed.into_owned(),
            Slot::State(mut grid) => {
                grid.on_drop.0 = Some(give_back::<T>);
                grid
            }
            Slot::Image(_) => unreachable!("window slot {slot} holds a kernel image, not a state"),
        };
        let grids = slots.into_iter().filter_map(|slot| match slot {
            Slot::State(grid) | Slot::Image(grid) => Some(Box::new(grid) as Box<dyn Any + Send>),
            Slot::Cold => None,
        });
        let retiring = Retired { like: Some(like), grids: grids.collect() };
        let ended = std::mem::replace(&mut *retired(), retiring);
        drop(ended);
        state
    }
}

/// [`run_program_tier`] with Dirichlet boundaries (halos keep their
/// initial values) on [`ExecTier::Auto`].
pub fn run_program<'p, T: Scalar>(
    program: impl Gate<'p>,
    executor: &Executor,
    init: &Grid<T>,
) -> Result<(Grid<T>, RunStats)> {
    run_program_tier(program, executor, init, Boundary::Dirichlet, ExecTier::Auto)
}

/// What one step of a [`TimeLoop`] left in the window, and its account —
/// the one the loop published.
pub struct Stepped<'r, T> {
    /// What the step counted, `Steps` and `ComputedPoints` included.
    pub counters: CounterSet,
    /// The step's one `step_wall` sample.
    pub hists: HistSet,
    /// The state the step computed, boundary applied.
    pub state: &'r Grid<T>,
    /// The state one step back.
    pub previous: &'r Grid<T>,
}

/// What the window slots of a [`TimeLoop`] hold besides the newest state:
/// the older states, or the kernel's images of them (DESIGN.md §12.6). A
/// snapshot of one layout cannot be read as the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingLayout {
    States,
    Images,
}

impl RingLayout {
    pub fn name(self) -> &'static str {
        match self {
            RingLayout::States => "states",
            RingLayout::Images => "images",
        }
    }
}

/// What [`TimeLoop::step_with`] runs on the state a step is computing and
/// its window slot.
pub type StepHook<'h, T> = &'h mut dyn FnMut(&mut Grid<T>, usize) -> Result<()>;

/// The time loop of a run, on one node and on every rank of a distributed
/// one: the admitted stencil, the window ring and how far the run has
/// come. [`TimeLoop::step`] is the one place a ring is advanced: it
/// computes the next state from the window, applies the boundary,
/// recycles the slot nothing reads any more and publishes the step's
/// account to the tracer, once ([`Stepped`] hands the same account back).
/// When the stencil's terms share one kernel ([`TieredStencil::describe`]
/// says so) and the staging is [`Executor::Tiled`], the window holds the
/// newest state and the kernel's images of the older ones, and a step
/// sweeps the kernel once (DESIGN.md §12.6); otherwise it holds
/// `max_dt + 1` states and a step evaluates every term.
pub struct TimeLoop<'a, T: Scalar> {
    compiled: Arc<TieredStencil<T>>,
    executor: &'a Executor,
    /// The tiles of a step, the `front` first of them being those a
    /// [`TimeLoop::step_with`] hook waits for.
    tiles: Vec<TileRange>,
    front: usize,
    boundary_cond: Boundary,
    window: WindowPlan,
    ring: Ring<'a, T>,
    points: u64,
    steps: usize,
    /// The slot of the newest state; before the first step, a cold one.
    newest: usize,
    /// How many steps a pass of [`TimeLoop::run`] takes (DESIGN.md §17.5).
    pass: Pass,
}

impl<'a, T: Scalar> TimeLoop<'a, T> {
    /// The front door of every stencil-program run: a checked program (a
    /// bare one is checked here), compiled on `tier` against `seed`'s
    /// layout, then admitted with [`TimeLoop::admit_compiled`].
    pub fn admit<'p>(
        program: impl Gate<'p>,
        executor: &'a Executor,
        seed: Cow<'a, Grid<T>>,
        boundary_cond: Boundary,
        tier: ExecTier,
    ) -> Result<TimeLoop<'a, T>> {
        let compiled = TimeLoop::compile(program, &seed, tier)?;
        TimeLoop::admit_compiled(compiled, executor, seed, boundary_cond)
    }

    /// A checked program (a bare one is checked here) compiled on `tier`
    /// against `seed`'s layout, for [`TimeLoop::admit_compiled`] to run
    /// from any seed of that layout.
    pub fn compile<'p>(
        program: impl Gate<'p>,
        seed: &Grid<T>,
        tier: ExecTier,
    ) -> Result<Arc<TieredStencil<T>>> {
        let program = program.gate(None)?;
        // Every grid of a run is a part of the program's: one whose size
        // overflows is refused before anything of it is allocated.
        GridLayout::new(&program.grid.shape, &program.grid.halo)?;
        let _s = msc_trace::span("stencil_compile");
        let compiled = TieredStencil::compile(&program, seed, tier)?;
        // Compile time goes to the tracer only, outside any step's account:
        // `RunStats` must stay bit-identical between repeated runs, and
        // wall-clock isn't.
        msc_trace::record(Counter::VmCompileNanos, compiled.compile_nanos);
        Ok(Arc::new(compiled))
    }

    /// A run of a stencil compiled before, possibly shared with other runs,
    /// over a window of its deepest dependency plus one, all slots
    /// cold-started with `seed` (borrowed, or owned: a rank's sub-grid). A
    /// seed of another layout than the stencil's is refused.
    pub fn admit_compiled(
        compiled: Arc<TieredStencil<T>>,
        executor: &'a Executor,
        seed: Cow<'a, Grid<T>>,
        boundary_cond: Boundary,
    ) -> Result<TimeLoop<'a, T>> {
        if compiled.grid_layout() != Some(&seed.layout()) {
            let like = compiled.grid_layout().map(|l| (&l.shape, &l.halo));
            return Err(MscError::InvalidConfig(format!(
                "a stencil compiled for {like:?} (None: tile-local buffers) cannot run from \
                 a seed of {:?}+{:?}",
                seed.shape, seed.halo
            )));
        }
        let window = WindowPlan::for_max_dt(compiled.max_dt)?;
        Ok(TimeLoop {
            pass: Pass::of(&compiled, executor, boundary_cond),
            points: seed.interior_len() as u64,
            ring: Ring::new(seed, boundary_cond, window.window),
            compiled,
            executor,
            tiles: executor.tiles(),
            front: 0,
            boundary_cond,
            window,
            steps: 0,
            newest: 0,
        })
    }

    /// As if the rule had declined to reuse kernel images.
    #[cfg(test)]
    pub(crate) fn recomputing(self) -> Self {
        self.restenciled(TieredStencil::recomputing)
    }

    /// As if the rule had taken every one-term stencil `ROWS` rows at a
    /// time.
    #[cfg(test)]
    pub(crate) fn blocking(self) -> Self {
        let stride = crate::sweep::group_stride(&self.ring.seed.strides);
        self.restenciled(|compiled| compiled.blocking(stride))
    }

    /// As if the rule had taken `depth` steps per pass over the plan's
    /// bands (at 1, one step per pass).
    #[cfg(test)]
    pub(crate) fn in_passes_of(mut self, depth: usize) -> Self {
        let Executor::Tiled(plan) = self.executor else {
            panic!("a wavefront sweeps a tiled plan");
        };
        self.pass = Pass::wavefront(plan, depth);
        self
    }

    /// This loop over `f` of its stencil, which a test hook's loop shares
    /// with nothing.
    #[cfg(test)]
    fn restenciled(self, f: impl FnOnce(TieredStencil<T>) -> TieredStencil<T>) -> Self {
        let compiled = Arc::into_inner(self.compiled).expect("a test hook's stencil is unshared");
        TimeLoop {
            compiled: Arc::new(f(compiled)),
            ..self
        }
    }

    /// The plan a step sweeps once, keeping kernel images, if it does; a
    /// loop that runs in wavefront passes keeps states (DESIGN.md §17.5).
    fn reusing(&self) -> Option<&'a ExecPlan> {
        match self.executor {
            Executor::Tiled(plan)
                if self.compiled.kernel_image().is_some() && self.pass.depth() == 1 =>
            {
                Some(plan)
            }
            _ => None,
        }
    }

    /// How many steps a pass of [`TimeLoop::run`] takes, or why one.
    pub fn pass(&self) -> Pass {
        self.pass
    }

    pub fn layout(&self) -> RingLayout {
        match self.reusing() {
            Some(_) => RingLayout::Images,
            None => RingLayout::States,
        }
    }

    /// How many steps the window has come from the seed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The newest state (the seed if no step was taken).
    pub fn state(&self) -> &Grid<T> {
        self.ring.input(self.newest)
    }

    /// Order a step's tiles so that those `in_front` come first:
    /// [`TimeLoop::step_with`] runs its hook between the two groups.
    pub fn split_tiles(&mut self, in_front: impl FnMut(&TileRange) -> bool) {
        let (mut front, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.tiles)
            .into_iter()
            .partition(in_front);
        self.front = front.len();
        front.extend(rest);
        self.tiles = front;
    }

    /// Advance the window by one timestep.
    pub fn step(&mut self) -> Result<Stepped<'_, T>> {
        self.advance(0, &mut |_, _| Ok(()))
    }

    /// [`TimeLoop::step`] with `hook` run twice: when the front tiles
    /// ([`TimeLoop::split_tiles`]) are done, so that what depends on them
    /// alone — a rank's halo exchange — can start while the rest are
    /// swept, and again when the whole state is, boundary applied. A
    /// failing hook fails the step, and the window is then only good for
    /// [`TimeLoop::restore`].
    pub fn step_with(&mut self, hook: StepHook<'_, T>) -> Result<Stepped<'_, T>> {
        self.advance(self.front, hook)
    }

    fn advance(&mut self, front: usize, hook: StepHook<'_, T>) -> Result<Stepped<'_, T>> {
        let _step_span = msc_trace::span_arg("step", self.steps as u64);
        let step_t0 = Instant::now();
        let t = self.compiled.max_dt + self.steps;
        let (counters, previous) = match self.reusing() {
            Some(plan) => self.step_reusing(plan, t, front, hook)?,
            None => self.step_recomputing(t, front, hook)?,
        };
        let (counters, hists) = self.account(counters, 1, step_t0);
        Ok(Stepped {
            counters,
            hists,
            state: self.ring.input(self.newest),
            previous: self.ring.input(previous),
        })
    }

    /// Count `steps` steps that began at `t0` and whose sweeps counted
    /// `counters`, and publish their account to the tracer, once: one
    /// `step_wall` sample per step, a pass's wall shared evenly.
    fn account(&mut self, mut counters: CounterSet, steps: usize, t0: Instant) -> (CounterSet, HistSet) {
        self.steps += steps;
        counters.bump(Counter::Steps, steps as u64);
        counters.bump(Counter::ComputedPoints, self.points * steps as u64);
        let mut hists = HistSet::new();
        let wall = t0.elapsed().as_nanos() as u64 / steps as u64;
        (0..steps).for_each(|_| hists.add(Hist::StepWallNanos, wall));
        msc_trace::record_set(&counters, &hists);
        (counters, hists)
    }

    /// `depth` steps in one wavefront pass over `plan` (DESIGN.md §17.5),
    /// counted as `depth` steps of their own count. Each writes the slot
    /// a step of its own would; a slot that was cold gets a grid whose
    /// halo the pass writes.
    fn pass_of(&mut self, plan: &ExecPlan, depth: usize) -> Result<CounterSet> {
        let _span = msc_trace::span_arg("wavefront_pass", self.steps as u64);
        let (max_dt, window) = (self.compiled.max_dt, self.window.window);
        let t = max_dt + self.steps;
        let slots: Vec<usize> = (t..t + depth.min(window)).map(|u| u % window).collect();
        let taken: Vec<(Grid<T>, bool)> =
            slots.iter().map(|&slot| self.ring.take_raw(slot)).collect::<Result<_>>()?;
        let (mut grids, cold): (Vec<Grid<T>>, Vec<bool>) = taken.into_iter().unzip();
        let outputs: Vec<Shared<'_, T>> =
            grids.iter_mut().map(|grid| Shared::of(grid.as_mut_slice())).collect();
        let seed = Shared::read_only(self.ring.seed.as_slice());
        // A slot taken was either the window's (its state is read where it
        // is not yet overwritten) or cold (its state is the seed).
        let homes: Vec<Home<'_, T>> = (t - max_dt..t + depth)
            .map(|u| match slots.iter().position(|&slot| slot == u % window) {
                Some(k) if u >= t => Home { grid: outputs[k], halo: cold[k] },
                Some(k) if !cold[k] => Home { grid: outputs[k], halo: false },
                Some(_) => Home { grid: seed, halo: false },
                None => {
                    let grid = Shared::read_only(self.ring.input(u % window).as_slice());
                    Home { grid, halo: false }
                }
            })
            .collect();
        let layout = self.ring.seed.layout();
        wavefront::pass(&self.compiled, plan, &layout, self.ring.seed.as_slice(), &homes);
        for (slot, grid) in slots.into_iter().zip(grids) {
            self.ring.put(slot, grid);
        }
        self.newest = (t + depth - 1) % window;
        // What a step of its own counts: the tiles, and the rows of each.
        let mut step = self.compiled.scratch();
        for tile in &self.tiles {
            let (rows, len) = tile.extent.split_at(tile.extent.len() - 1);
            self.compiled.note_rows(&mut step, rows.iter().product::<usize>() as u64, len[0]);
        }
        step.counted.set(Counter::TilesExecuted, self.tiles.len() as u64);
        let mut counters = CounterSet::new();
        (0..depth).for_each(|_| counters.merge(&step.counted));
        Ok(counters)
    }

    /// Every term evaluated from its state: `max_dt` states in, the slot
    /// of the state that just left the window out. Returns the step's
    /// counters and the slot of the state one step back.
    fn step_recomputing(
        &mut self,
        t: usize,
        front: usize,
        hook: StepHook<'_, T>,
    ) -> Result<(CounterSet, usize)> {
        let input_slot = |dt| {
            self.window
                .input_slot(t, dt)
                .expect("window sized by max_dt")
        };
        let out_slot = self.window.output_slot(t);
        // The output slot's grid leaves the ring while the step writes it,
        // so the input slots can stay borrowed.
        let mut out = self.ring.take_output(out_slot)?;
        let inputs: Vec<&Grid<T>> = (1..=self.compiled.max_dt)
            .map(|dt| self.ring.input(input_slot(dt)))
            .collect();
        let counters = in_two_parts(
            (&mut out, out_slot),
            self.tiles.split_at(front),
            self.boundary_cond,
            |out, tiles| self.executor.step(&self.compiled, &inputs, out, tiles),
            hook,
        )?;
        self.ring.put(out_slot, out);
        self.newest = out_slot;
        Ok((counters, input_slot(1)))
    }

    /// Where a reusing run keeps `A_u`, the kernel's image of state
    /// `u - 1`: every `A_u` with `u <= max_dt` is the image of the seed
    /// and is kept once, as `A_max_dt`.
    fn slot_of_image(&self, u: usize) -> usize {
        u.max(self.compiled.max_dt) % self.window.window
    }

    /// One sweep of the kernel, then the combination of images (DESIGN.md
    /// §12.6). `A_u` is written in step `u` to slot `u % window`, over
    /// state `u - 2`, which nothing reads any more. State `t` is combined
    /// into slot `(t + 2) % window`: that is where the oldest image a term
    /// may still read lives, `A_(t + 1 - max_dt)`, which becomes the new
    /// state in place (during the first `max_dt - 1` steps the slot is
    /// cold instead). Every slot's role is a function of `t` and the
    /// window alone, which is what lets [`TimeLoop::restore`] tag a
    /// snapshot's slots.
    fn step_reusing(
        &mut self,
        plan: &ExecPlan,
        t: usize,
        front: usize,
        hook: StepHook<'_, T>,
    ) -> Result<(CounterSet, usize)> {
        let kernel = self
            .compiled
            .kernel_image()
            .expect("the caller saw a kernel image");
        let window = self.window.window;
        let (image_slot, state_slot, prev_slot) = (t % window, (t + 2) % window, (t + 1) % window);
        let (mut fresh, mut next) = self.ring.take_outputs(image_slot, state_slot)?;
        let counters = {
            let ring = &self.ring;
            let image_of = |term: &CompiledTerm<T>| {
                let of = match self.slot_of_image(t + 1 - term.dt) {
                    slot if slot == image_slot => ImageOf::Fresh,
                    slot if slot == state_slot => ImageOf::Dying,
                    slot => ImageOf::Held(ring.image(slot).as_slice()),
                };
                (term.weight, of)
            };
            let images: Vec<(T, ImageOf<'_, T>)> =
                self.compiled.terms.iter().map(image_of).collect();
            let prev = ring.input(prev_slot);
            in_two_parts(
                (&mut next, state_slot),
                self.tiles.split_at(front),
                self.boundary_cond,
                |next, tiles| {
                    let _span = msc_trace::span("tiled_step");
                    let mut counters = tiled::step_tiles_reusing(
                        kernel, &images, plan, prev, &mut fresh, next, tiles,
                    )?;
                    counters.set(Counter::TilesExecuted, tiles.len() as u64);
                    Ok(counters)
                },
                hook,
            )?
        };
        self.ring.put_image(image_slot, fresh);
        self.ring.put(state_slot, next);
        self.newest = state_slot;
        Ok((counters, prev_slot))
    }

    /// Slots out: the grid of every window slot, in slot order — a slot no
    /// step has written yet as the seed. Together with [`TimeLoop::steps`]
    /// this is the whole state of the run, whatever the layout: which slot
    /// is the newest state, which a kernel image and which is dead follows
    /// from the step count.
    pub fn slots(&self) -> Vec<&Grid<T>> {
        let ring = &self.ring;
        let slots = ring.slots.iter().map(|slot| match slot {
            Slot::Cold => &*ring.seed,
            Slot::State(grid) | Slot::Image(grid) => grid,
        });
        slots.collect()
    }

    /// Slots in: continue from what [`TimeLoop::slots`] gave after `steps`
    /// steps of a loop of this [`TimeLoop::layout`] over a grid of this
    /// shape.
    pub fn restore(&mut self, slots: Vec<Grid<T>>, steps: usize) -> Result<()> {
        let (depth, window) = (self.compiled.max_dt, self.window.window);
        let like = self.ring.seed.layout();
        if slots.len() != window || slots.iter().any(|g| g.layout() != like) {
            return Err(MscError::InvalidConfig(format!(
                "a window of {window} slots of {:?}+{:?} cannot be restored from {} slots, \
                 some of another shape",
                like.shape,
                like.halo,
                slots.len(),
            )));
        }
        // The last step taken; before the first, every slot is the seed.
        let t = depth + steps - 1;
        // What the next step of a reusing loop still reads: the newest
        // state and the images `A_(t + 2 - max_dt) ..= A_t`.
        let images: Vec<usize> = match self.reusing() {
            Some(_) if steps > 0 => {
                self.newest = (t + 2) % window;
                (t + 2 - depth..=t).map(|u| self.slot_of_image(u)).collect()
            }
            _ => {
                self.newest = self.window.output_slot(t);
                Vec::new()
            }
        };
        let tagged = |(slot, grid)| match images.contains(&slot) {
            true => Slot::Image(grid),
            false => Slot::State(grid),
        };
        self.ring.slots = slots.into_iter().enumerate().map(tagged).collect();
        self.steps = steps;
        Ok(())
    }

    /// Take `steps` steps, [`TimeLoop::pass`] at a time (the last pass
    /// takes what is left), and hand back the final state and what the
    /// run counted.
    pub fn run(mut self, steps: usize) -> Result<(Grid<T>, RunStats)> {
        let mut counters = CounterSet::new();
        let mut left = steps;
        while left > 0 {
            let depth = self.pass.depth().min(left);
            match self.executor {
                Executor::Tiled(plan) if depth > 1 => {
                    let t0 = Instant::now();
                    let swept = self.pass_of(plan, depth)?;
                    counters.merge(&self.account(swept, depth, t0).0);
                }
                _ => counters.merge(&self.step()?.counters),
            }
            left -= depth;
        }
        Ok((self.into_state(), RunStats::from_counters(&counters)))
    }

    /// The newest state (a copy of the seed if no step was taken). The
    /// window's other slots become the retired slots, for the next loop of
    /// their layout on any thread (DESIGN.md §17.4).
    pub fn into_state(self) -> Grid<T> {
        self.ring.into_state(self.newest)
    }
}

/// One step's sweeps around its hook: the `front` tiles into `state`, the
/// hook, the `rest`, the boundary, the hook again. Returns what the sweeps
/// counted.
fn in_two_parts<T: Scalar>(
    (state, slot): (&mut Grid<T>, usize),
    (front, rest): (&[TileRange], &[TileRange]),
    boundary_cond: Boundary,
    mut sweep: impl FnMut(&mut Grid<T>, &[TileRange]) -> Result<CounterSet>,
    hook: StepHook<'_, T>,
) -> Result<CounterSet> {
    let mut counters = CounterSet::new();
    if !front.is_empty() {
        counters = sweep(state, front)?;
    }
    hook(state, slot)?;
    counters.merge(&sweep(state, rest)?);
    boundary::apply(state, boundary_cond);
    hook(state, slot)?;
    Ok(counters)
}

/// Run `program.timesteps` updates starting from `init` (all window slots
/// cold-started with `init`) and return the final state and run
/// statistics. Periodic runs re-wrap the halo of every freshly computed
/// state. `tier` is honoured by every executor but `Reference`, which
/// always interprets (it is the oracle the tiers are differenced against).
pub fn run_program_tier<'p, T: Scalar>(
    program: impl Gate<'p>,
    executor: &Executor,
    init: &Grid<T>,
    boundary_cond: Boundary,
    tier: ExecTier,
) -> Result<(Grid<T>, RunStats)> {
    let program = program.gate(None)?;
    TimeLoop::admit(&program, executor, Cow::Borrowed(init), boundary_cond, tier)?
        .run(program.timesteps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_rel_error, verify_against_reference};
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::Schedule;
    use proptest::prelude::*;

    fn tiled_plan(p: &StencilProgram, tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap()
    }

    #[test]
    fn paper_error_bounds_hold_for_all_benchmarks() {
        // §5.1: relative error < 1e-10 (fp64) and < 1e-5 (fp32) against
        // serial codes, over a multi-step run.
        for b in all_benchmarks() {
            let grid = b.test_grid();
            let p = b.program(&grid, DType::F64, 4).unwrap();
            let tile: Vec<usize> = grid.iter().map(|&g| (g / 2).max(1)).collect();
            let plan = tiled_plan(&p, &tile, 4);
            let e64 =
                verify_against_reference::<f64>(&p, &Executor::Tiled(plan.clone()), 5).unwrap();
            assert!(e64 < 1e-10, "{}: fp64 err {e64}", b.name);
            let e32 = verify_against_reference::<f32>(&p, &Executor::Tiled(plan), 5).unwrap();
            assert!(e32 < 1e-5, "{}: fp32 err {e32}", b.name);
        }
    }

    /// The ring as it was before its slots shared the seed: every slot
    /// its own copy of the wrapped `init`, each step a clone of the
    /// recycled slot overwritten by the serial reference.
    fn eager_ring_oracle(p: &StencilProgram, init: &Grid<f64>, bc: Boundary) -> Grid<f64> {
        let c = TieredStencil::compile(p, init, ExecTier::Interp).unwrap();
        let w = c.max_dt + 1;
        let mut seeded = init.clone();
        boundary::apply(&mut seeded, bc);
        let mut ring = vec![seeded; w];
        for s in 0..p.timesteps {
            let t = c.max_dt + s;
            let mut out = ring[t % w].clone();
            let inputs: Vec<&Grid<f64>> = (1..=c.max_dt).map(|dt| &ring[(t - dt) % w]).collect();
            reference::step(&c, &inputs, &mut out);
            boundary::apply(&mut out, bc);
            ring[t % w] = out;
        }
        ring.swap_remove((c.max_dt + p.timesteps - 1) % w)
    }

    fn bits(g: &Grid<f64>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The halo cells alone (`halo_shell` has its own test in `grid.rs`).
    fn halo_bits(g: &Grid<f64>) -> Vec<u64> {
        bits(&g.halo_shell())
    }

    /// One temporal dependency (2d9pt box at `t-1`) and two (3d7pt at
    /// `t-1`, `t-2`).
    fn programs_by_max_dt() -> [StencilProgram; 2] {
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let single = StencilProgram::builder("single")
            .grid_2d("B", DType::F64, [12, 10], 1, 2)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(1)
            .build()
            .unwrap();
        let double = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[8, 6, 10], DType::F64, 1)
            .unwrap();
        [single, double]
    }

    #[test]
    fn shared_seed_ring_matches_the_eager_ring_bit_for_bit() {
        for (max_dt, mut p) in (1..).zip(programs_by_max_dt()) {
            let window = max_dt + 1;
            let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 40 + max_dt as u64);
            let before = init.clone();
            let tile: Vec<usize> = p.grid.shape.iter().map(|&n| n / 2).collect();
            let plan = tiled_plan(&p, &tile, 2);
            let executors = [
                Executor::Reference,
                Executor::Tiled(plan.clone()),
                Executor::Spm {
                    plan,
                    spm_capacity: 1 << 20,
                },
            ];
            for steps in [0, 1, 2, 3, window + 2] {
                // `build()` refuses a zero-step program; the driver must
                // still hand back the seed for one.
                p.timesteps = steps;
                for bc in [Boundary::Dirichlet, Boundary::Periodic] {
                    let expect = eager_ring_oracle(&p, &init, bc);
                    for exec in &executors {
                        let (got, st) =
                            run_program_tier(&p, exec, &init, bc, ExecTier::Auto).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "max_dt {max_dt}, {steps} steps, {bc:?}, {exec:?}"
                        );
                        assert_eq!(st.steps, steps);
                        if bc == Boundary::Dirichlet {
                            // Also when fewer steps ran than the window has
                            // slots, so the result is a slot that began as
                            // a zero-backed shell.
                            assert_eq!(halo_bits(&got), halo_bits(&init));
                        }
                    }
                }
            }
            assert_eq!(bits(&init), bits(&before), "a run must not touch `init`");
        }
    }

    #[test]
    fn ring_slots_borrow_the_seed_until_written() {
        let init: Grid<f64> = Grid::random(&[6, 6], &[1, 1], 5);
        let mut ring = Ring::new(Cow::Borrowed(&init), Boundary::Dirichlet, 3);
        // Dirichlet: no copy at all, every cold slot *is* the caller's grid.
        assert!((0..3).all(|s| std::ptr::eq(ring.input(s), &init)));
        let mut out = ring.take_output(1).unwrap();
        assert_eq!(halo_bits(&out), halo_bits(&init));
        out.for_each_interior(|pos| assert_eq!(out.get(pos), 0.0));
        out.set(&[0, 0], 7.0);
        ring.put(1, out);
        assert_eq!(ring.input(1).get(&[0, 0]), 7.0);
        assert!(std::ptr::eq(ring.input(0), &init));
        // A written slot is recycled as it is, not re-seeded.
        assert_eq!(ring.take_output(1).unwrap().get(&[0, 0]), 7.0);

        // Periodic: one wrapped copy, shared by every cold slot.
        let ring = Ring::new(Cow::Borrowed(&init), Boundary::Periodic, 2);
        let mut wrapped = init.clone();
        boundary::apply(&mut wrapped, Boundary::Periodic);
        assert!(std::ptr::eq(ring.input(0), ring.input(1)));
        assert_eq!(bits(ring.input(0)), bits(&wrapped));
        assert_eq!(bits(&ring.into_state(1)), bits(&wrapped));
    }

    fn halved_plan(p: &StencilProgram) -> Executor {
        let tile: Vec<usize> = p.grid.shape.iter().map(|&n| (n / 2).max(1)).collect();
        Executor::Tiled(tiled_plan(p, &tile, 2))
    }

    /// `0.6*K[t-1] + 0.4*K[t-dt]` for the second `dt` of `dts` (`K[t-1]`
    /// alone for one), `K` a star of `reach`, halo `reach`.
    fn wave_program(shape: &[usize], reach: usize, dts: &[usize], steps: usize) -> StencilProgram {
        let window = dts.iter().max().unwrap() + 1;
        let terms: Vec<(usize, f64, &str)> = match dts {
            [one] => vec![(*one, 1.0, "K")],
            _ => dts.iter().zip([0.6, 0.4]).map(|(&dt, w)| (dt, w, "K")).collect(),
        };
        let mut p = StencilProgram::builder("wave")
            .grid(SpNode::new("B", DType::F64, shape, reach, window).unwrap())
            .kernel(Kernel::star_normalized("K", shape.len(), reach))
            .combine(&terms)
            .timesteps(1)
            .build()
            .unwrap();
        p.timesteps = steps;
        p
    }

    #[test]
    fn a_wavefront_pass_replays_the_eager_ring_bit_for_bit() {
        // Extents no band divides, step counts no depth divides, bands of
        // 3 rows per worker; passes deeper than the window write a slot
        // twice, and the first pass starts from cold slots.
        for (shape, tile) in [(vec![11, 13, 6], 3), (vec![12, 17], 3)] {
            for reach in [1, 2] {
                for dts in [&[1][..], &[1, 2], &[1, 3]] {
                    for (workers, steps) in [(1, 7), (2, 5)] {
                        let p = wave_program(&shape, reach, dts, steps);
                        let mut tiles = shape.clone();
                        tiles[1] = tile;
                        let exec = Executor::Tiled(tiled_plan(&p, &tiles, workers));
                        let init: Grid<f64> = Grid::random(&shape, &p.grid.halo, 7 + steps as u64);
                        let admit = |exec| {
                            TimeLoop::admit(&p, exec, Cow::Borrowed(&init), Boundary::Dirichlet, ExecTier::Auto)
                                .unwrap()
                        };
                        let (oracle, _) = admit(&Executor::Reference).run(steps).unwrap();
                        let (one, one_stats) = admit(&exec).in_passes_of(1).run(steps).unwrap();
                        assert!(bits(&one) == bits(&oracle), "{shape:?} reach {reach} {dts:?}");
                        for depth in 1..=4 {
                            let (got, stats) = admit(&exec).in_passes_of(depth).run(steps).unwrap();
                            let at = format!(
                                "{shape:?} reach {reach} dts {dts:?} {workers} workers depth {depth}"
                            );
                            assert!(bits(&got) == bits(&one), "{at}");
                            assert_eq!(stats, one_stats, "{at}");
                            assert_eq!(halo_bits(&got), halo_bits(&init), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_slot_cannot_take_the_image_and_the_state_of_a_step() {
        // Two `&mut Grid` are two grids, so the sweep cannot be handed one
        // buffer twice; the one place an image and a state could collide
        // is a slot index, and that is a typed error.
        let init: Grid<f64> = Grid::random(&[6, 6], &[1, 1], 5);
        let mut ring = Ring::new(Cow::Borrowed(&init), Boundary::Dirichlet, 3);
        let err = ring.take_outputs(1, 1).unwrap_err();
        assert!(matches!(err, MscError::InvalidConfig(_)), "{err}");
        assert!(std::ptr::eq(ring.input(1), &init), "nothing was taken");
        let (mut image, state) = ring.take_outputs(0, 2).unwrap();
        image.set(&[0, 0], 3.0);
        ring.put_image(0, image);
        ring.put(2, state);
        // The ring knows which is which.
        assert_eq!(ring.image(0).get(&[0, 0]), 3.0);
        assert_eq!(halo_bits(ring.input(2)), halo_bits(&init));
        assert!(std::ptr::eq(ring.input(1), &init));
        // A recycled image slot comes back as it is, like a state's.
        assert_eq!(ring.take_output(0).unwrap().get(&[0, 0]), 3.0);
    }

    /// Random programs for the image step: a 1-D or 2-D kernel of 1-6
    /// taps within reach 2, two or three terms over `t-1..t-3` in any
    /// order (a `dt` may repeat), weights of either sign.
    fn arb_program() -> impl Strategy<Value = StencilProgram> {
        let tap = ((-2i64..=2, -2i64..=2), -1.0f64..1.0);
        let taps = prop::collection::vec(tap, 1..=6);
        let terms = prop::collection::vec((1usize..=3, -2.0f64..2.0), 2..=3);
        (
            1usize..=2,
            6usize..=14,
            8usize..=30,
            taps,
            terms,
            0usize..=5,
        )
            .prop_map(|(ndim, rows, cols, mut taps, terms, steps)| {
                let shape = [rows, cols];
                let shape = &shape[2 - ndim..];
                taps.sort_by_key(|tap| tap.0);
                taps.dedup_by_key(|tap| tap.0);
                let offset = |(y, x): (i64, i64)| [y, x][2 - ndim..].to_vec();
                let mut sum = taps.iter().map(|&(off, c)| c * Expr::at("B", &offset(off)));
                let first = sum.next().expect("at least one tap");
                let kernel = Kernel::new("K", ndim, sum.fold(first, |sum, tap| sum + tap)).unwrap();
                let named: Vec<(usize, f64, &str)> =
                    terms.iter().map(|&(dt, w)| (dt, w, "K")).collect();
                let mut p = StencilProgram::builder("arb")
                    .grid(SpNode::new("B", DType::F64, shape, 2, 4).unwrap())
                    .kernel(kernel)
                    .combine(&named)
                    .build()
                    .unwrap();
                // `Stencil::new` sorted the terms by `dt`: put them back.
                for (term, &(dt, weight)) in p.stencil.terms.iter_mut().zip(&terms) {
                    (term.dt, term.weight) = (dt, weight);
                }
                p.timesteps = steps;
                p
            })
    }

    fn reference_recomputed_and_reused_agree<T: Scalar>(p: &StencilProgram, seed: u64) {
        let init: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, seed);
        let tile: Vec<usize> = p.grid.shape.iter().map(|&n| n / 2).collect();
        let exec = Executor::Tiled(tiled_plan(p, &tile, 3));
        let bits = |g: Grid<T>| -> Vec<u64> {
            g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
        };
        for bc in [Boundary::Dirichlet, Boundary::Periodic] {
            let admit =
                |exec| TimeLoop::admit(p, exec, Cow::Borrowed(&init), bc, ExecTier::Auto).unwrap();
            let oracle = bits(admit(&Executor::Reference).run(p.timesteps).unwrap().0);
            let recomputed = bits(admit(&exec).recomputing().run(p.timesteps).unwrap().0);
            let reused = bits(admit(&exec).run(p.timesteps).unwrap().0);
            assert!(
                recomputed == oracle,
                "recomputing, {bc:?}: {:?}",
                p.stencil.terms
            );
            assert!(reused == oracle, "reusing, {bc:?}: {:?}", p.stencil.terms);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reference_recomputed_and_reused_runs_agree_bit_for_bit(
            p in arb_program(),
            seed in 0u64..1 << 32,
        ) {
            reference_recomputed_and_reused_agree::<f64>(&p, seed);
            reference_recomputed_and_reused_agree::<f32>(&p, seed);
        }
    }

    /// A loop over one stencil compiled beforehand and shared, admitted
    /// twice, runs as [`TimeLoop::admit`] does: the same bits and the same
    /// `RunStats`, on every tier, both boundaries, images by rule and off.
    #[test]
    fn a_loop_over_a_shared_compiled_stencil_runs_as_admit_does() {
        let mut reusing = 0;
        for b in all_benchmarks() {
            let p = b.program(&b.test_grid(), DType::F64, 2).unwrap();
            let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 7);
            let exec = halved_plan(&p);
            for (tier, bc, images) in [ExecTier::Interp, ExecTier::Vm, ExecTier::Auto]
                .into_iter()
                .flat_map(|t| [Boundary::Dirichlet, Boundary::Periodic].map(|bc| (t, bc)))
                .flat_map(|(t, bc)| [true, false].map(|images| (t, bc, images)))
            {
                let admitted = TimeLoop::admit(&p, &exec, Cow::Borrowed(&init), bc, tier).unwrap();
                let admitted = if images {
                    admitted
                } else {
                    admitted.recomputing()
                };
                let (want, want_stats) = admitted.run(p.timesteps).unwrap();
                let compiled = TieredStencil::compile(&p, &init, tier).unwrap();
                let shared = Arc::new(if images {
                    compiled
                } else {
                    compiled.recomputing()
                });
                for _ in 0..2 {
                    let run = TimeLoop::admit_compiled(
                        Arc::clone(&shared),
                        &exec,
                        Cow::Borrowed(&init),
                        bc,
                    )
                    .unwrap();
                    reusing += usize::from(run.layout() == RingLayout::Images);
                    let (got, stats) = run.run(p.timesteps).unwrap();
                    let at = format!("{} {tier:?} {bc:?} images {images}", b.name);
                    assert!(bits(&got) == bits(&want), "{at}");
                    assert_eq!(stats, want_stats, "{at}");
                }
            }
        }
        assert!(reusing > 0, "no catalog program reused kernel images");
    }

    /// Two threads run one shared stencil at once, for different step
    /// counts: each run counts its own rows and no other's.
    #[test]
    fn concurrent_runs_of_one_stencil_count_their_own_rows() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 10, 16], DType::F64, 1)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let exec = halved_plan(&p);
        for tier in [ExecTier::Vm, ExecTier::Specialized] {
            let shared = Arc::new(TieredStencil::compile(&p, &init, tier).unwrap());
            let run = |steps| {
                TimeLoop::admit_compiled(
                    Arc::clone(&shared),
                    &exec,
                    Cow::Borrowed(&init),
                    Boundary::Dirichlet,
                )
                .unwrap()
                .run(steps)
                .unwrap()
                .1
            };
            let rows = |stats: RunStats| (stats.vm_dispatches(), stats.specialized_hits());
            let (alone3, alone7) = (rows(run(3)), rows(run(7)));
            assert_ne!(alone3, (0, 0), "{tier:?} counted no rows");
            assert_ne!(alone3, alone7, "{tier:?}");
            std::thread::scope(|s| {
                for (steps, alone) in [(3, alone3), (7, alone7)] {
                    let run = &run;
                    s.spawn(move || {
                        for _ in 0..20 {
                            assert_eq!(rows(run(steps)), alone, "{tier:?}, {steps} steps");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn a_seed_of_another_layout_than_the_stencils_is_refused() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 2)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 1);
        let compiled = TieredStencil::compile(&p, &init, ExecTier::Auto).unwrap();
        let local =
            TieredStencil::from_compiled(compiled.relinearized(&init.strides), ExecTier::Auto);
        let exec = halved_plan(&p);
        let shape: Grid<f64> = Grid::random(&[16, 20], &p.grid.halo, 1);
        let halo: Grid<f64> = Grid::random(&p.grid.shape, &[3, 3], 1);
        let shared = Arc::new(compiled);
        for (stencil, seed) in [
            (&shared, &shape),
            (&shared, &halo),
            (&Arc::new(local), &init),
        ] {
            let refused = TimeLoop::admit_compiled(
                Arc::clone(stencil),
                &exec,
                Cow::Borrowed(seed),
                Boundary::Dirichlet,
            );
            match refused {
                Err(MscError::InvalidConfig(why)) => {
                    assert!(why.contains("cannot run from a seed of"), "{why}")
                }
                Err(other) => panic!("an untyped refusal: {other}"),
                Ok(_) => panic!("a seed of {:?}+{:?} was admitted", seed.shape, seed.halo),
            }
        }
        let fits =
            TimeLoop::admit_compiled(shared, &exec, Cow::Borrowed(&init), Boundary::Dirichlet);
        assert!(fits.is_ok());
    }

    #[test]
    fn a_program_whose_grid_overflows_is_refused_before_anything_is_allocated() {
        // The padded size of 4294967296² with halo 1 wraps to 17 G cells in
        // unchecked arithmetic; the run has a small seed, so only the
        // program's own grid can refuse it.
        let mut p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 2)
            .unwrap();
        p.grid.shape = vec![u32::MAX as usize + 1; 2];
        let init: Grid<f64> = Grid::random(&[16, 16], &p.grid.halo, 1);
        for exec in [Executor::Reference, halved_plan(&p)] {
            let err = run_program_tier(&p, &exec, &init, Boundary::Dirichlet, ExecTier::Auto)
                .unwrap_err();
            assert!(matches!(err, MscError::GridTooLarge { bytes: None, .. }), "{err}");
        }
    }

    #[test]
    fn a_plan_lowered_for_another_grid_is_refused() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 2)
            .unwrap();
        let plan = tiled_plan(&p, &[8, 8], 2);
        let init: Grid<f64> = Grid::random(&[20, 16], &p.grid.halo, 1);
        for exec in [
            Executor::Tiled(plan.clone()),
            Executor::Spm {
                plan,
                spm_capacity: 1 << 20,
            },
        ] {
            let err = run_program(&p, &exec, &init).unwrap_err();
            assert!(err.to_string().contains("lowered for grid"), "{err}");
        }
    }

    #[test]
    fn window_ring_differs_from_single_dependency() {
        // A two-dependency stencil must differ from the same kernel with a
        // single t-1 dependency after a few steps.
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p2 = b.program(&[16, 16], DType::F64, 4).unwrap();
        let p1 = StencilProgram::builder("single")
            .grid_2d("B", DType::F64, [16, 16], 1, 3)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(4)
            .build()
            .unwrap();
        let init: Grid<f64> = Grid::random(&p2.grid.shape, &p2.grid.halo, 31);
        let (a, _) = run_program(&p2, &Executor::Reference, &init).unwrap();
        let (b_, _) = run_program(&p1, &Executor::Reference, &init).unwrap();
        assert!(max_rel_error(&a, &b_) > 1e-6);
    }

    #[test]
    fn iterates_remain_bounded() {
        // Convex combination keeps values within the initial range.
        let p = benchmark(BenchmarkId::S3d13ptStar)
            .program(&[10, 10, 10], DType::F64, 20)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 8);
        let (out, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        out.for_each_interior(|pos| {
            let v = out.get(pos);
            assert!((0.0..=1.0).contains(&v), "unbounded at {pos:?}: {v}");
        });
    }
}
