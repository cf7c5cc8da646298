//! The wavefront pass (DESIGN.md §17.5): the paper's sliding time window
//! (Fig. 5) advanced several steps per sweep. Level `j` of a pass computes
//! step `t + j`, `reach₀ + 1` planes along dim 0 and `reach₁` rows along
//! dim 1 behind level `j - 1`: it reads what that level just wrote while
//! it is still in cache, and overwrites, in the window slot it recycles,
//! planes of a state no level reads any more. Every point is computed by
//! the same row call on the same inputs as a step of its own, so the bits
//! are the same.

use crate::driver::Executor;
use crate::grid::{GridLayout, Scalar};
use crate::pool;
use crate::specialized::{step_bytes, PREFETCH_MIN_STEP_BYTES};
use crate::sweep::{for_each_row, Shared};
use crate::tier::{TierScratch, TieredStencil};
use crate::Boundary;
use msc_core::schedule::plan::ExecPlan;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many steps one pass of [`TimeLoop::run`](crate::TimeLoop::run)
/// advances (DESIGN.md §17.5): up to `depth` over bands of `rows` rows
/// along dim 1, or one, for a reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Wavefront { depth: usize, rows: usize },
    Single(&'static str),
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pass::Wavefront { depth, rows } => write!(f, "{depth} steps per pass, {rows}-row bands"),
            Pass::Single(why) => write!(f, "1 step per pass ({why})"),
        }
    }
}

impl Pass {
    /// A rank's: its halo exchange runs around every step.
    pub const RANKS: Pass = Pass::Single("ranks");

    /// The pass of a run of `stencil` on one node. Periodic's dim-0 wrap
    /// reads the last planes before the first are done; a step that
    /// streams less than `PREFETCH_MIN_STEP_BYTES` finds its states in
    /// cache anyway; one that keeps kernel images sweeps the kernel once
    /// already. Otherwise the plan's tile of dim 0, the cache it plans
    /// for, sets the band: `depth` levels of one lag fill it along dim 0,
    /// and a band is its extent along dim 1 per worker.
    pub fn of<T: Scalar>(stencil: &TieredStencil<T>, executor: &Executor, bc: Boundary) -> Pass {
        let (Executor::Tiled(plan), Some(layout)) = (executor, stencil.grid_layout()) else {
            return Pass::Single("staged");
        };
        let bytes = step_bytes::<T>(stencil.max_dt, layout.strides[0] * layout.padded[0]);
        let lag = stencil.reach[0] + 1;
        Pass::Single(match () {
            _ if bc == Boundary::Periodic => "periodic boundaries",
            _ if layout.ndim() < 2 => "one-dimensional grid",
            _ if bytes < PREFETCH_MIN_STEP_BYTES => "the step fits in cache",
            _ if stencil.kernel_image().is_some() => "kernel image reused",
            _ if plan.tile[0] >= layout.shape[0] => "dim 0 is not tiled",
            _ if plan.tile[0] < 2 * lag => "the tile is shallower than two lags",
            _ => return Pass::wavefront(plan, plan.tile[0] / lag),
        })
    }

    /// `depth` steps per pass over `plan`'s bands.
    pub(crate) fn wavefront(plan: &ExecPlan, depth: usize) -> Pass {
        Pass::Wavefront { depth, rows: plan.tile[1] * workers(plan) }
    }

    pub fn depth(self) -> usize {
        match self {
            Pass::Wavefront { depth, .. } => depth,
            Pass::Single(_) => 1,
        }
    }
}

/// The workers of a pass: one per tile of a band along dim 1, but no more
/// than the CPUs the process may run on. Workers meet after every plane,
/// and two that share one CPU would meet through the scheduler.
fn workers(plan: &ExecPlan) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    pool::worker_count(plan.n_threads, plan.tiles_along(1)).min(cpus)
}

/// The workers of a pass meet here after every plane step. A waiting
/// worker yields its CPU between checks (spinning first bought nothing,
/// DESIGN.md §17.5). A worker that panics breaks the barrier, and the
/// others leave the pass instead of waiting.
#[derive(Default)]
struct Barrier {
    workers: usize,
    arrived: AtomicUsize,
    round: AtomicUsize,
    broken: AtomicBool,
}

impl Barrier {
    /// Whether every worker arrived (`false`: one panicked). The arrivals'
    /// `AcqRel` adds and the last one's `Release` of `round` pair with the
    /// waiters' `Acquire`: each sees every row written before the barrier.
    fn wait(&self) -> bool {
        let round = self.round.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            self.arrived.store(0, Ordering::Relaxed);
            self.round.store(round + 1, Ordering::Release);
            return true;
        }
        while self.round.load(Ordering::Acquire) == round {
            if self.broken.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

/// Breaks its barrier when its worker unwinds.
struct Breaks<'b>(&'b Barrier);

impl Drop for Breaks<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::Relaxed);
        }
    }
}

/// Where a state of a pass lives (a window slot, or the seed), and
/// whether the pass writes its halo.
#[derive(Clone, Copy)]
pub(crate) struct Home<'a, T> {
    pub grid: Shared<'a, T>,
    pub halo: bool,
}

/// One pass, over the plane steps of one band after another. A fresh
/// slot's halo comes from the seed: under Dirichlet every state holds it.
struct Wave<'a, T> {
    stencil: &'a TieredStencil<T>,
    layout: &'a GridLayout,
    seed: &'a [T],
    /// `homes[max_dt + j]`: where level `j` writes its state;
    /// `homes[..max_dt]`: the states the pass starts from.
    homes: &'a [Home<'a, T>],
    /// A worker's rows of a band, and the band's workers.
    tile: usize,
    workers: usize,
    bands: usize,
}

impl<T: Scalar> Wave<'_, T> {
    /// The first row along dim 1 (interior) of worker part `p` (worker
    /// `p % workers` of band `p / workers`) at level `j`.
    fn edge(&self, p: usize, j: usize) -> usize {
        let n1 = self.layout.shape[1];
        match p == self.bands * self.workers {
            true => n1,
            false => (p * self.tile).saturating_sub(j * self.stencil.reach[1]).min(n1),
        }
    }

    /// Level `j`'s rows of worker `w` on interior plane `q` of `band`.
    fn sweep(&self, j: usize, band: usize, w: usize, q: usize, scratch: &mut TierScratch<T>) {
        let GridLayout { shape, halo, strides, .. } = self.layout;
        let (max_dt, last, r0) = (self.stencil.max_dt, shape.len() - 1, self.stencil.reach[0]);
        let (v, p, part) = (max_dt + j, q + halo[0], band * self.workers + w);
        let rows = (self.edge(part, j), self.edge(part + 1, j));
        let window = (p - r0) * strides[0]..(p + r0 + 1) * strides[0];
        // SAFETY: within a plane step, level `j` reads these planes of
        // states `v - max_dt .. v` alone: the level that wrote state
        // `v - dt` is `dt` lags ahead, the one that overwrites its slot
        // `max_dt + 1 - dt` lags behind, and a lag is one plane more than
        // a tap reaches (DESIGN.md §17.5).
        let windows: Vec<&[T]> =
            (1..=max_dt).map(|dt| unsafe { self.homes[v - dt].grid.read(window.clone()) }).collect();
        let mut lo: Vec<usize> = halo.clone();
        let mut hi: Vec<usize> = halo.iter().zip(shape).map(|(h, n)| h + n).collect();
        (lo[0], hi[0], lo[1], hi[1]) = (p, p + 1, halo[1] + rows.0, halo[1] + rows.1);
        let out = self.homes[v];
        for_each_row(&lo, &hi, |pos| {
            let g = self.layout.padded_index(pos);
            // SAFETY: this row of plane `p` of state `v` is worker `w`'s
            // alone in this plane step.
            let row = unsafe { out.grid.write(g..g + hi[last] - lo[last]) };
            self.stencil.run_row(&windows, g - window.start, row, scratch);
        });
        if out.halo && rows.0 < rows.1 {
            // SAFETY: as for the rows, whose halo this is.
            unsafe { self.fill_halo(out.grid, p, rows) };
        }
    }

    /// Copy from the seed the halo cells of plane `p` over rows `rows`:
    /// the ends of each row, the halo rows beside a band at the grid's
    /// edge, and the halo planes beside the first and last plane.
    ///
    /// # Safety
    ///
    /// Nothing else reads or writes those cells in this plane step.
    unsafe fn fill_halo(&self, grid: Shared<'_, T>, p: usize, rows: (usize, usize)) {
        let GridLayout { shape, halo, padded, .. } = self.layout;
        let last = shape.len() - 1;
        let (mut lo, mut hi) = (vec![0; shape.len()], padded.clone());
        lo[0] = if p == halo[0] { 0 } else { p };
        hi[0] = if p + 1 == halo[0] + shape[0] { padded[0] } else { p + 1 };
        lo[1] = if rows.0 > 0 { halo[1] + rows.0 } else { 0 };
        hi[1] = if rows.1 < shape[1] { halo[1] + rows.1 } else { padded[1] };
        let inner = |d: usize, x: usize| (halo[d]..halo[d] + shape[d]).contains(&x);
        for_each_row(&lo, &hi, |pos| {
            let g = self.layout.padded_index(pos) - pos[last];
            let cells = match (0..last).all(|d| inner(d, pos[d])) {
                true => [lo[last]..halo[last], halo[last] + shape[last]..hi[last]],
                false => [lo[last]..hi[last], 0..0],
            };
            for cells in cells.into_iter().filter(|cells| !cells.is_empty()) {
                let cells = g + cells.start..g + cells.end;
                grid.write(cells.clone()).copy_from_slice(&self.seed[cells]);
            }
        });
    }
}

/// One pass: level `j` writes state `max_dt + j` of `homes`, reading
/// state `max_dt + j - dt` for every `dt` of the stencil. A grid that
/// holds two states `max_dt + 1` apart is a window slot the newer one
/// recycles, written only where the older is no longer read.
pub(crate) fn pass<T: Scalar>(
    stencil: &TieredStencil<T>,
    plan: &ExecPlan,
    layout: &GridLayout,
    seed: &[T],
    homes: &[Home<'_, T>],
) {
    let depth = homes.len() - stencil.max_dt;
    let workers = workers(plan);
    let wave = Wave {
        stencil,
        layout,
        seed,
        homes,
        tile: plan.tile[1],
        workers,
        bands: layout.shape[1].div_ceil(plan.tile[1] * workers),
    };
    let barrier = Barrier { workers, ..Barrier::default() };
    let (n0, lag) = (layout.shape[0], stencil.reach[0] + 1);
    pool::run_tile_job(workers, workers, &|queue| {
        let w = queue.worker_id();
        let _breaks = Breaks(&barrier);
        let _span = (workers > 1).then(|| msc_trace::span("wavefront_worker"));
        let mut scratch = stencil.scratch();
        for band in 0..wave.bands {
            for s in 0..n0 + (depth - 1) * lag {
                for j in (0..depth).filter(|j| (j * lag..j * lag + n0).contains(&s)) {
                    wave.sweep(j, band, w, s - j * lag, &mut scratch);
                }
                if !barrier.wait() {
                    return;
                }
            }
        }
    });
}
