//! Large-scale execution in miniature: run a box stencil over a 2×3 MPI
//! world (ranks as threads, real messages) and verify the result is
//! bit-identical to the single-node run — the §4.4 communication library
//! end to end.
//!
//! Run with: `cargo run --release --example distributed_halo`

use msc::comm::{Backend, CartDecomp, HaloPlan};
use msc::core::schedule::{ExecPlan, Schedule};
use msc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = msc::core::catalog::benchmark(msc::core::catalog::BenchmarkId::S2d121ptBox);
    // 2d121pt has reach 5 — a demanding halo (corners matter).
    let program = b.program(&[60, 90], DType::F64, 6)?;
    let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 2024);

    let (single, _) = run_program(&program, &Executor::Reference, &init)?;

    let (multi, stats) = run_distributed_resilient(
        &program,
        &[2, 3],
        &init,
        Boundary::Dirichlet,
        &RunOptions::default(),
        |sub| {
            let mut s = Schedule::default();
            let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
            s.tile(&tile);
            s.parallel("xo", 2);
            ExecPlan::lower(&s, sub.len(), sub)
        },
    )?;

    println!(
        "{} ranks exchanged {} messages over {} steps",
        stats.ranks, stats.messages, stats.steps
    );
    let err = max_rel_error(&multi, &single);
    println!("distributed vs single-node: max rel err = {err:.3e}");
    assert_eq!(
        single.as_slice(),
        multi.as_slice(),
        "distributed execution must be bit-identical"
    );

    // The expected message count: interior exchanges per step for the
    // first timesteps-1 steps (the final state is not published).
    let decomp = CartDecomp::new(&program.grid.shape, &[2, 3], &[5, 5])?;
    let per_round: usize = (0..stats.ranks)
        .map(|r| HaloPlan::new(&decomp, r, Backend::DimOrdered).volume().0)
        .sum();
    assert_eq!(stats.messages as usize, per_round * (program.timesteps - 1));
    println!("message accounting checks out ({per_round} per round)");
    Ok(())
}
