//! Pool determinism: reusing the persistent worker pool across many
//! steps must be bit-identical to the single-threaded reference for any
//! worker count — work stealing may reorder *which thread* runs a tile,
//! never the tile partition or the per-tile arithmetic.

use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{run_program, Executor, Grid};

fn plan(grid: &[usize], tile: &[usize], threads: usize) -> ExecPlan {
    let mut s = Schedule::default();
    s.tile(tile);
    s.parallel("xo", threads);
    ExecPlan::lower(&s, grid.len(), grid).unwrap()
}

#[test]
#[cfg_attr(miri, ignore)] // 100 steps × 8 threads is far too slow under Miri
fn pool_reuse_over_100_steps_is_bit_identical() {
    let grid = [12, 12, 12];
    let p = benchmark(BenchmarkId::S3d7ptStar)
        .program(&grid, DType::F64, 100)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 4242);
    let (reference, _) = run_program(
        &p,
        &Executor::Tiled(plan(&grid, &[4, 4, 12], 1)),
        &init,
    )
    .unwrap();
    for threads in [1, 3, 8] {
        let (out, stats) = run_program(
            &p,
            &Executor::Tiled(plan(&grid, &[4, 4, 12], threads)),
            &init,
        )
        .unwrap();
        assert_eq!(
            out.as_slice(),
            reference.as_slice(),
            "threads={threads} diverged from single-threaded reference"
        );
        assert_eq!(stats.steps, 100);
    }
}
