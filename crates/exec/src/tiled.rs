//! Direct staging — the `tile` primitive alone (paper Figure 4(b)-(d)):
//! every row of a tile is evaluated straight from the input grids into
//! the output grid, on the stencil's execution tier. Tiles are dealt to
//! the plan's worker threads by the pool. A row is either the whole
//! stencil ([`step_tiles`]) or, in a time loop that keeps kernel images
//! (DESIGN.md §12.6), the kernel alone followed by the combination of
//! images ([`step_tiles_reusing`]). Either way the stencil that sweeps the
//! grid is handed as many rows per call as it evaluates at once
//! ([`TieredStencil::rows_per_call`], DESIGN.md §12.1).

use crate::grid::{Grid, Scalar};
use crate::sweep::{group_stride, merged, sweep};
use crate::specialized::{ImageOf, ROWS};
use crate::tier::TieredStencil;
use msc_core::error::Result;
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_trace::CounterSet;

/// Compute exactly `tiles` (cells of `plan`'s tiling) of one timestep:
/// one `run_rows` call per group of tile rows.
pub(crate) fn step_tiles<T: Scalar>(
    stencil: &TieredStencil<T>,
    plan: &ExecPlan,
    states: &[&Grid<T>],
    out: &mut Grid<T>,
    tiles: &[TileRange],
) -> Result<CounterSet> {
    let stride = group_stride(&out.strides);
    let states: Vec<&[T]> = states.iter().map(|g| g.as_slice()).collect();
    let shares = sweep(plan, tiles, [out], "tile_worker", |work| {
        let mut scratch = stencil.scratch();
        for (_, mut rows) in work {
            // One closure per visit shape: a single closure for rows and
            // groups read 3 % slower on 10-point rows.
            let n = match stencil.rows_per_call() {
                1 => rows.for_each(|_, base, [row]| {
                    stencil.run_rows(&states, base, stride, &mut [row], &mut scratch)
                }),
                k => rows.for_each_group(k, |_, base, [group]| {
                    stencil.run_rows(&states, base, stride, group, &mut scratch)
                }),
            };
            stencil.note_rows(&mut scratch, n, rows.row_len());
        }
        scratch.counted
    })?;
    Ok(merged(&shares))
}

/// The kernel-image step (DESIGN.md §12.6) over `tiles`. Per group of
/// [`ROWS`] tile rows, one `run_image_rows` of `kernel` — the stencil's
/// kernel alone, weight 1 — writes the image of `prev` (the state one step
/// back) into `fresh` and combines the weighted images `images` names, in
/// the program's term order, into the same rows of `next`. Where a term
/// reads the dying image a row of `next` *is* its image, read in place
/// before it is overwritten.
pub(crate) fn step_tiles_reusing<T: Scalar>(
    kernel: &TieredStencil<T>,
    images: &[(T, ImageOf<'_, T>)],
    plan: &ExecPlan,
    prev: &Grid<T>,
    fresh: &mut Grid<T>,
    next: &mut Grid<T>,
    tiles: &[TileRange],
) -> Result<CounterSet> {
    let stride = group_stride(&prev.strides);
    let prev = [prev.as_slice()];
    let step = kernel.image_step(images, &prev, stride);
    let shares = sweep(plan, tiles, [fresh, next], "tile_worker", |work| {
        let mut scratch = kernel.scratch();
        for (_, mut rows) in work {
            // `ROWS` rows a call, blocked kernel or not: one call per group
            // beat one per row on `halo2r` (DESIGN.md §12.6).
            let n = rows.for_each_group(ROWS, |_, base, [fresh, next]| {
                kernel.run_image_rows(&step, base, fresh, next, &mut scratch)
            });
            kernel.note_rows(&mut scratch, n, rows.row_len());
        }
        scratch.counted
    })?;
    Ok(merged(&shares))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::tier::ExecTier;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::Schedule;

    fn plan_for(p: &StencilProgram, tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[32, 32], DType::F64, 1)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let c = TieredStencil::compile(&p, &init, ExecTier::Auto).unwrap();
        let mut outs = Vec::new();
        for threads in [1, 2, 7, 64] {
            let plan = plan_for(&p, &[8, 8], threads);
            let mut out = init.clone();
            step_tiles(&c, &plan, &[&init, &init], &mut out, &plan.tiles()).unwrap();
            outs.push(out);
        }
        for o in &outs[1..] {
            assert_eq!(o.as_slice(), outs[0].as_slice());
        }
    }

    #[test]
    fn remainder_tiles_are_computed() {
        // 10x10 grid with 3x4 tiles exercises clamped tiles.
        let p = benchmark(BenchmarkId::S2d9ptBox)
            .program(&[10, 10], DType::F64, 1)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 5);
        let c = TieredStencil::compile(&p, &init, ExecTier::Auto).unwrap();
        let mut ref_out = init.clone();
        reference::step(&c, &[&init, &init], &mut ref_out);
        let plan = plan_for(&p, &[3, 4], 3);
        let mut out = init.clone();
        step_tiles(&c, &plan, &[&init, &init], &mut out, &plan.tiles()).unwrap();
        assert_eq!(out.as_slice(), ref_out.as_slice());
    }
}
