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
use crate::tier::{KernelImage, TierScratch, TieredStencil};
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

/// Where the combination finds the kernel image a term reads
/// (DESIGN.md §12.6).
pub(crate) enum ImageOf<'a, T> {
    /// The image this step computes: the row just evaluated.
    Fresh,
    /// The oldest image, which the new state overwrites in place.
    Dying,
    /// The image held by another window slot.
    Held(&'a [T]),
}

/// The most terms a combination of kernel images may have: what a step
/// reads per row is gathered on the stack.
pub(crate) const MAX_IMAGE_TERMS: usize = 8;

/// The kernel-image step (DESIGN.md §12.6) over `tiles`. Per group of
/// tile rows, one `run_rows` of `image.kernel` — the stencil's kernel
/// alone, weight 1 — writes the image of `prev` (the state one step back)
/// into `fresh`, then per row one `run_row` of `image.mix` combines the
/// images `terms` name, in the program's term order, into the same row of
/// `next`. Where a term reads the dying image that row of `next` *is* its
/// image, so the mix reads a copy of it.
pub(crate) fn step_tiles_reusing<T: Scalar>(
    image: &KernelImage<T>,
    terms: &[ImageOf<'_, T>],
    plan: &ExecPlan,
    prev: &Grid<T>,
    fresh: &mut Grid<T>,
    next: &mut Grid<T>,
    tiles: &[TileRange],
) -> Result<CounterSet> {
    assert!(
        terms.len() <= MAX_IMAGE_TERMS,
        "the rule admits no more terms"
    );
    let KernelImage { kernel, mix } = image;
    let stride = group_stride(&prev.strides);
    let prev = [prev.as_slice()];
    let shares = sweep(plan, tiles, [fresh, next], "tile_worker", |work| {
        let (mut scratch, mut mix_scratch) = (kernel.scratch(), mix.scratch());
        let mut dying = vec![T::default(); plan.tile[plan.ndim - 1]];
        for (_, mut rows) in work {
            // One closure per visit shape, as in `step_tiles`.
            let n = match kernel.rows_per_call() {
                1 => rows.for_each(|_, base, [fresh, next]| {
                    kernel.run_rows(&prev, base, stride, &mut [&mut *fresh], &mut scratch);
                    mix_row(mix, terms, base, fresh, next, &mut dying, &mut mix_scratch);
                }),
                k => rows.for_each_group(k, |_, base, [fresh, next]| {
                    kernel.run_rows(&prev, base, stride, fresh, &mut scratch);
                    for (r, (fresh, next)) in fresh.iter().zip(next.iter_mut()).enumerate() {
                        let base = base + r * stride;
                        mix_row(mix, terms, base, fresh, next, &mut dying, &mut mix_scratch);
                    }
                }),
            };
            kernel.note_rows(&mut scratch, n, rows.row_len());
        }
        scratch.counted
    })?;
    Ok(merged(&shares))
}

/// One row of the combination (DESIGN.md §12.6): `next` from the images
/// `terms` name, the row at flat index `base`, `fresh` being the image
/// this step computed for it and `dying` room for a copy of `next`.
#[inline(always)]
fn mix_row<T: Scalar>(
    mix: &TieredStencil<T>,
    terms: &[ImageOf<'_, T>],
    base: usize,
    fresh: &[T],
    next: &mut [T],
    dying: &mut [T],
    scratch: &mut TierScratch<T>,
) {
    let dying = &mut dying[..next.len()];
    dying.copy_from_slice(next);
    let mut images: [&[T]; MAX_IMAGE_TERMS] = [&[]; MAX_IMAGE_TERMS];
    for (image, of) in images.iter_mut().zip(terms) {
        *image = match of {
            ImageOf::Fresh => fresh,
            ImageOf::Dying => dying,
            ImageOf::Held(grid) => &grid[base..base + next.len()],
        };
    }
    mix.run_row(&images[..terms.len()], 0, next, scratch);
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
