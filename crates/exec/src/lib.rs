//! # msc-exec — functional execution of MSC stencil programs
//!
//! Where `msc-sim` predicts *time* on the modelled machines, this crate
//! computes *values*: it runs stencil programs on real arrays so that the
//! correctness claim of the paper (§5.1: relative error below 1e-5 for
//! fp32 and 1e-10 for fp64 against serial codes) is measured rather than
//! assumed.
//!
//! Two things compute a timestep, and they share no loop nest:
//!
//! * [`mod@reference`] — the naive serial loop nest over
//!   `CompiledStencil::apply_at`, the ground truth everything else is
//!   compared with bit for bit;
//! * the **sweep core** (`sweep`, DESIGN.md §18) — one row loop over a
//!   tile, one copier between a grid and a tile-local buffer, one place
//!   where the output grid is split among the plan's worker threads. The
//!   schedule primitives of paper Figure 4 are *staging* policies over
//!   it: [`tiled`] evaluates rows straight from the grids (`tile`),
//!   [`spm`] stages every tile through a bounded scratchpad with
//!   explicit DMA get/put, validating SPM capacity and counting DMA
//!   traffic (`cache_read` / `cache_write` / `compute_at`), and
//!   [`temporal`] advances a staged tile several steps before writing
//!   back (time blocking). [`varcoeff`] hands the same sweep its own row
//!   closure.
//!
//! [`Executor::step`] is the one dispatch from an [`Executor`] to a
//! step; all executors run the temporal combination through the sliding
//! time window ring of [`driver`], which one time loop ([`TimeLoop`])
//! advances for [`run_program_tier`], [`run_until_converged`] and every
//! rank of an `msc-comm` run alike — a rank steps it in two tile subsets
//! around its halo exchange and snapshots it slot by slot. When every
//! term of the stencil applies the same kernel (`a*S[t-1] + b*S[t-2]`,
//! the paper's shape) a directly staged step does not evaluate `S` once
//! per term: the window holds the newest state and the kernel's *images*
//! of the older ones, a step sweeps `S` once and combines images, in the
//! same number of slots and with the same bits (DESIGN.md §12.6) — unless
//! the step streams from DRAM through so few taps that the image's own
//! memory traffic costs more than the flops it saves. Such a run instead
//! sweeps several steps per pass, a time-skewed [`wavefront`] whose levels
//! read what the level before just wrote while it is still in cache
//! (DESIGN.md §17.5).
//!
//! Orthogonally to the staging, every row is evaluated by
//! `TieredStencil::run_row` on one of three **execution tiers** (see
//! [`tier`]): the tap interpreter (the oracle), the `msc-vm` bytecode
//! register VM, or the register-blocked row kernel ([`specialized`], one
//! instantiation per vector ISA, picked at run time, prefetching when the
//! grids are too large for a cache to hold a step, and taking a dense
//! one-term kernel four rows per call, `TieredStencil::run_rows`). A
//! staging retargets
//! the taps to its buffers once (`CompiledStencil::relinearized`), so
//! every staging × tier pair exists by construction, and all of them are
//! bit-identical; `--exec-tier` / `ExecTier` picks the tier, and `Auto`
//! is always the specialized tier.
//!
//! Nothing about a run is ambient: [`run_program_tier`] is the full form
//! (executor, boundary, tier as arguments) and [`run_program`] its
//! Dirichlet / `Auto` default; [`run_temporal_tiled`] is the `Auto` form
//! of the crate's `run_temporal_tiled_tier`, and
//! [`run_until_converged`] runs on `Auto`. Each checks a bare program
//! once (`msc_lint::check`). The one process-wide setting is the
//! worker-count cap of [`pool`] (`mscc --pool-threads`). The one thing a
//! run leaves behind is memory, not state: when its window slots are
//! large enough to be populated (32 MiB and up), those it does not hand
//! back stay with its thread — and the one it does, once dropped — and
//! the next run there of the same layout overwrites them instead of
//! faulting in fresh grids (DESIGN.md §17.4).

pub mod boundary;
pub mod convergence;
pub mod compiled;
pub mod driver;
pub mod grid;
pub mod io;
pub mod pool;
pub mod reference;
pub mod spm;
pub mod specialized;
mod sweep;
pub mod temporal;
pub mod tier;
#[cfg(test)]
mod tier_differential;
pub mod varcoeff;
pub mod tiled;
pub mod verify;
pub mod wavefront;

pub use compiled::CompiledStencil;
pub use boundary::Boundary;
pub use convergence::{run_until_converged, ConvergenceReport};
pub use driver::{run_program, run_program_tier, Executor, RingLayout, RunStats, TimeLoop};
pub use tier::{ActiveTier, ExecTier, TieredStencil};
pub use grid::{Grid, Scalar};
pub use temporal::{run_temporal_tiled, TemporalStats};
pub use varcoeff::CompiledVarStencil;
pub use verify::{max_rel_error, verify_against_reference};
pub use wavefront::Pass;
