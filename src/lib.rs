//! # MSC — a stencil DSL and compiler for many-core processors
//!
//! A from-scratch Rust reproduction of *"Automatic Code Generation and
//! Optimization of Large-scale Stencil Computation on Many-core
//! Processors"* (ICPP '21). This facade crate re-exports the whole
//! system; see the individual crates for the pieces:
//!
//! * [`core`] (`msc-core`) — the DSL, IR, schedule primitives, benchmark
//!   catalog and static analysis (the paper's contribution);
//! * [`machine`] (`msc-machine`) — Sunway SW26010 / Matrix MT2000+ /
//!   Xeon models, DMA, caches, interconnects;
//! * [`exec`] (`msc-exec`) — functional executors (serial reference,
//!   tiled parallel, SPM-staged) with correctness verification, running
//!   rows through tiered evaluation (interpreter / VM / specialized);
//! * [`vm`] (`msc-vm`) — the bytecode compiler and row-vectorized
//!   register VM behind the `vm` execution tier;
//! * [`sim`] (`msc-sim`) — the deterministic timing simulator behind the
//!   figures;
//! * [`codegen`] (`msc-codegen`) — AOT C generation (OpenMP, athread,
//!   MPI) plus Makefiles and LoC accounting;
//! * [`comm`] (`msc-comm`) — the communication library: decomposition,
//!   message-passing runtime, asynchronous halo exchange, distributed
//!   driver;
//! * [`lint`] (`msc-lint`) — the compile-time stencil verifier: footprint
//!   inference, halo/window sufficiency, parallel-race and capacity
//!   lints, run once per program at its front door (`check`);
//! * [`lift`] (`msc-lift`) — static lifting of legacy C loop nests into
//!   the stencil IR: parse → affine analysis → footprint recovery →
//!   bit-exact translation validation (`mscc lift`);
//! * [`tune`] (`msc-tune`) — regression performance model + simulated
//!   annealing auto-tuner;
//! * [`trace`] (`msc-trace`) — low-overhead runtime tracing and metrics:
//!   counters, span timelines, profiles, chrome://tracing export;
//! * [`service`] (`msc-service`) — the `mscd` compile-and-run daemon:
//!   line-JSON protocol, compile cache, admission control, per-job
//!   telemetry sessions (`mscc serve` / `mscc submit`);
//! * [`baselines`] (`msc-baselines`) — OpenACC/OpenMP/Halide/Patus/
//!   Physis comparison models;
//! * [`mod@bench`] (`msc-bench`) — the per-table/figure experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use msc::prelude::*;
//!
//! // Listing 1 of the paper: a 3d7pt stencil with two time dependencies.
//! let program = StencilProgram::builder("3d7pt")
//!     .grid_3d("B", DType::F64, [32, 32, 32], 1, 3)
//!     .kernel(Kernel::star_normalized("S_3d7pt", 3, 1))
//!     .combine(&[(1, 0.6, "S_3d7pt"), (2, 0.4, "S_3d7pt")])
//!     .timesteps(4)
//!     .build()
//!     .unwrap();
//!
//! // Run it functionally and check it against the serial reference.
//! let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 42);
//! let (result, stats) = run_program(&program, &Executor::Reference, &init).unwrap();
//! assert_eq!(stats.steps, 4);
//! assert!(result.interior_sum().is_finite());
//! ```

pub use msc_baselines as baselines;
pub use msc_bench as bench;
pub use msc_codegen as codegen;
pub use msc_comm as comm;
pub use msc_core as core;
pub use msc_exec as exec;
pub use msc_lift as lift;
pub use msc_lint as lint;
pub use msc_machine as machine;
pub use msc_service as service;
pub use msc_sim as sim;
pub use msc_trace as trace;
pub use msc_tune as tune;
pub use msc_vm as vm;

pub mod top;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use msc_codegen::compile_to_source;
    pub use msc_comm::{run_distributed_resilient, RunOptions};
    pub use msc_core::prelude::*;
    pub use msc_core::schedule::{preset_for_grid, BufferScope, Target};
    pub use msc_exec::driver::{run_program, run_program_tier, Executor, RunStats};
    pub use msc_exec::{Boundary, ExecTier};
    pub use msc_exec::{max_rel_error, Grid};
    pub use msc_lint::{lint_program, Checked, LintCode};
    pub use msc_machine::model::Precision;
    pub use msc_sim::{simulate_step, StepInputs};
}
