//! # msc-exec — functional execution of MSC stencil programs
//!
//! Where `msc-sim` predicts *time* on the modelled machines, this crate
//! computes *values*: it runs stencil programs on real arrays so that the
//! correctness claim of the paper (§5.1: relative error below 1e-5 for
//! fp32 and 1e-10 for fp64 against serial codes) is measured rather than
//! assumed.
//!
//! Three executors share one compiled representation:
//!
//! * [`mod@reference`] — the naive serial loop nest, the ground truth;
//! * [`tiled`] — the scheduled executor: tiles from the kernel's
//!   [`msc_core::ExecPlan`], round-robin task striping over worker
//!   threads (the paper's `mod(task_id, 64) == my_id` mapping);
//! * [`spm`] — the Sunway-style executor that stages every tile through a
//!   bounded scratchpad buffer with explicit DMA get/put, validating SPM
//!   capacity and counting DMA traffic.
//!
//! All executors run the temporal combination through the sliding time
//! window ring of [`driver`].
//!
//! Orthogonally to the executor choice, the tiled path evaluates each
//! row on one of three **execution tiers** (see [`tier`]): the tap
//! interpreter (the oracle), the `msc-vm` bytecode register VM, or the
//! register-blocked row kernel ([`specialized`], one instantiation per
//! vector ISA, picked at run time). All three are bit-identical by
//! construction; `--exec-tier` / `ExecTier` picks one, and `Auto` is
//! always the specialized tier.

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
pub mod temporal;
pub mod tier;
pub mod varcoeff;
pub mod tiled;
pub mod verify;

pub use compiled::CompiledStencil;
pub use boundary::Boundary;
pub use convergence::{l2_diff, max_diff, run_until_converged, ConvergenceReport};
pub use driver::{run_program, run_program_bc, run_program_tier, Executor, RunStats};
pub use tier::{exec_tier, set_exec_tier, ActiveTier, ExecTier, TieredStencil};
pub use grid::{Grid, Scalar};
pub use temporal::{run_temporal_tiled, TemporalStats};
pub use varcoeff::CompiledVarStencil;
pub use verify::{max_rel_error, verify_against_reference};
