//! Ranks evaluate rows in blocks too (DESIGN.md §12.1): a rank's time loop
//! is the single node's, so the rule that takes the 121-tap box four rows
//! at a time takes it on every rank's sub-grid, and the gathered grid must
//! still equal the serial oracle bit for bit.

use msc_comm::{run_distributed_resilient, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{run_program_tier, Boundary, ExecTier, Executor, Grid, Scalar, TieredStencil};

/// Tiles of 7 rows by 16 on every rank: a group of 4 rows and one of 3.
fn plan_7x16(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    s.tile(&[7, 16]);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

fn bits<T: Scalar>(g: &Grid<T>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn two_ranks_match_the_oracle<T: Scalar>(seed: u64) {
    let p = benchmark(BenchmarkId::S2d121ptBox)
        .program(&[26, 40], DType::F64, 4)
        .unwrap();
    let init: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, seed);
    for bc in [Boundary::Dirichlet, Boundary::Periodic] {
        let oracle = run_program_tier(&p, &Executor::Reference, &init, bc, ExecTier::Interp)
            .unwrap()
            .0;
        let opts = RunOptions::default();
        let (got, _) = run_distributed_resilient(&p, &[2, 1], &init, bc, &opts, plan_7x16).unwrap();
        assert!(bits(&got) == bits(&oracle), "{bc:?}");
    }
}

#[test]
fn a_two_rank_121_point_box_through_row_blocks_is_bit_identical() {
    two_ranks_match_the_oracle::<f64>(121);
    two_ranks_match_the_oracle::<f32>(122);
    // What a rank's banner says, decided from its [13, 40] sub-grid.
    let p = benchmark(BenchmarkId::S2d121ptBox)
        .program(&[26, 40], DType::F64, 4)
        .unwrap();
    let sub: Grid<f64> = Grid::zeros(&[13, 40], &p.grid.halo);
    let said = TieredStencil::compile(&p, &sub, ExecTier::Auto)
        .unwrap()
        .describe();
    let wide = said.contains("avx2") || said.contains("avx512f");
    assert_eq!(said.contains(", rows 4 at a time, "), wide, "{said}");
}
