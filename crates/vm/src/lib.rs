//! msc-vm: bytecode compiler + row-dispatch register VM.
//!
//! The executors in `msc-exec` historically evaluated one grid point at a
//! time (`CompiledStencil::apply_at` walks the tap list per point). This
//! crate lowers a kernel once into a flat register-machine program —
//! constant pooling, common-subexpression reuse of loaded taps, per-tap
//! strides resolved at compile time — and then executes a **full row of
//! points per dispatch loop**: every instruction operates on a chunk of
//! [`CHUNK`] contiguous unit-stride points, so the per-instruction dispatch
//! cost is amortized ~64× and the inner loops are plain unit-stride slices
//! the backend can vectorize.
//!
//! Two compilation entry points:
//!
//! * [`compile::compile_linear`] — from linearized tap lists (the form
//!   `CompiledStencil` already holds). The emitted program replays the
//!   interpreter's exact evaluation order (`acc = acc + coeff * src[..]`,
//!   starting from `0.0`), so results are **bit-identical** to the
//!   interpreter tier, which stays the correctness oracle.
//! * [`compile::compile_expr`] — from arbitrary `Expr` trees (non-linear
//!   kernels with `min`/`max`/calls). Matches `Expr::eval` semantics.
//!
//! The crate is deliberately tiny and dependency-free (only `msc-core` for
//! the IR types): no unsafe (enforced below), no atomics, no I/O. Tier
//! selection, tracing, and the specialized row kernel live one layer up
//! in `msc-exec`.

#![forbid(unsafe_code)]

pub mod compile;
pub mod program;
pub mod scalar;

pub use compile::{compile_expr, compile_linear, ExprTerm, LinearTerm};
pub use program::{BinKind, Op, UnKind, VmProgram, VmScratch, CHUNK};
pub use scalar::VmScalar;
