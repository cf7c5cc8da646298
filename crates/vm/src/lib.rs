//! msc-vm: a linear-stencil bytecode emitter + row-dispatch register VM.
//!
//! The interpreter in `msc-exec` evaluates one grid point at a time
//! (`CompiledStencil::apply_at` walks the tap list per point). This crate
//! lowers a stencil's tap lists once, in one direct pass, into a flat
//! program over two registers with fixed roles — constants pooled, every
//! tap resolved to a flat offset at compile time — and then executes a
//! **full row of points per dispatch loop**: every instruction operates
//! on a chunk of [`CHUNK`] contiguous unit-stride points, so the
//! per-instruction dispatch cost is amortized ~64× and the inner loops
//! are plain unit-stride slices the backend can vectorize.
//!
//! [`compile::compile_linear`] is the one entry point. The emitted program
//! replays the interpreter's exact evaluation order (`acc = acc + coeff *
//! src[..]`, starting from `0.0`, then `out = out + weight * acc` per
//! term), so results are **bit-identical** to the interpreter tier, which
//! stays the correctness oracle.
//!
//! The crate is deliberately tiny and dependency-free (only `msc-core` for
//! the error type): no unsafe (enforced below), no atomics, no I/O. Tier
//! selection, tracing, and the specialized row kernel live one layer up
//! in `msc-exec`.

#![forbid(unsafe_code)]

pub mod compile;
pub mod program;
pub mod scalar;

pub use compile::{compile_linear, LinearTerm};
pub use program::{Op, VmProgram, VmScratch, CHUNK};
pub use scalar::VmScalar;
