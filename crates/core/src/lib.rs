//! # msc-core — the MSC stencil DSL and intermediate representation
//!
//! This crate implements the paper's primary contribution: a stencil DSL
//! that expresses stencil computation in **both spatial and temporal
//! dimensions**, a single-level IR embedded in the program tree, and the
//! schedule primitives (`tile`, `reorder`, `parallel`, `cache_read`,
//! `cache_write`, `compute_at`) that rewrite the IR ahead of code
//! generation.
//!
//! The layering follows the paper (§3, Figure 3):
//!
//! * **Frontend** — [`dsl`] and the IR types in [`expr`], [`axis`],
//!   [`tensor`], [`kernel`], [`stencil`]. A [`kernel::Kernel`] is one
//!   spatial sweep (e.g. a 3D Laplacian); a [`stencil::Stencil`] combines
//!   kernels evaluated at several previous timesteps
//!   (`Res[t] << S[t-1] + S[t-2]`).
//! * **Schedules** — [`schedule`] holds the optimization primitives and
//!   lowers a scheduled kernel to a loop nest / execution plan shared by
//!   the code generator (`msc-codegen`), the functional executor
//!   (`msc-exec`), and the timing simulator (`msc-sim`).
//! * **Catalog & analysis** — [`catalog`] generates every benchmark of the
//!   paper's Table 4 (and arbitrary-radius star/box stencils);
//!   [`analysis`] derives per-point memory traffic and flop counts.
//! * **Halo geometry** — [`halo`] holds the Cartesian decomposition and
//!   the per-rank halo plan (paper §4.4) as plain data: what `msc-comm`
//!   executes, `msc-codegen` prints and `msc-sim` charges.
//!
//! ```
//! use msc_core::prelude::*;
//!
//! // 3d7pt star stencil on a 64^3 grid with two time dependencies,
//! // mirroring Listing 1 of the paper.
//! let program = StencilProgram::builder("3d7pt")
//!     .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
//!     .kernel(Kernel::star("S_3d7pt", 3, 1, &[0.4, 0.1]).unwrap())
//!     .combine(&[(1, 0.6, "S_3d7pt"), (2, 0.4, "S_3d7pt")])
//!     .build()
//!     .unwrap();
//! assert_eq!(program.stencil.time_window(), 3);
//! ```

pub mod analysis;
pub mod axis;
pub mod catalog;
pub mod dsl;
pub mod dtype;
pub mod error;
pub mod expr;
pub mod footprint;
pub mod halo;
pub mod kernel;
pub mod parse;
pub mod schedule;
pub mod stencil;
pub mod tensor;

pub mod prelude {
    //! Convenience re-exports for DSL users.
    pub use crate::analysis::{KernelStats, StencilStats};
    pub use crate::axis::Axis;
    pub use crate::catalog::{all_benchmarks, Benchmark, BenchmarkId};
    pub use crate::dsl::{ProgramBuilder, StencilProgram};
    pub use crate::dtype::DType;
    pub use crate::error::MscError;
    pub use crate::expr::{Expr, VarCoeff, VarTap};
    pub use crate::footprint::{Footprint, SlotFootprint};
    pub use crate::kernel::Kernel;
    pub use crate::parse::{parse, parse_unchecked, ParsedProgram};
    pub use crate::schedule::{ExecPlan, Schedule};
    pub use crate::stencil::{Stencil, TimeTerm};
    pub use crate::tensor::{SpNode, TeNode, TensorDecl};
}

pub use prelude::*;
