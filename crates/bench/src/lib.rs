//! # msc-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5). Each
//! module computes its rows/series from the library crates and renders
//! the same structure the paper reports; the `src/bin/` binaries are
//! thin wrappers that print them, and the integration tests assert the
//! paper-shape properties (who wins, by roughly what factor, where the
//! crossovers fall). EXPERIMENTS.md records paper-vs-measured values.
//!
//! Everything here runs against `msc-sim`: it reproduces the paper's
//! tables and is never evidence of host speed. Host performance is
//! measured by the repository's one benchmark, `benchmark/`
//! (`BENCHMARK.json`, `bash benchmark/run.sh`).

pub mod experiments;
pub mod results;
pub mod table;

pub use experiments::*;
