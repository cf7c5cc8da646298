//! Time-block staging — overlapped temporal tiling (paper §2.1, refs
//! [16, 21]): each staged tile advances `tt` timesteps locally before
//! writing back, recomputing a shrinking (trapezoid) halo region
//! redundantly so tiles stay independent. The grid is traversed once per
//! `tt` steps instead of once per step — the classic trade of redundant
//! flops for memory traffic.
//!
//! Restrictions: a single temporal dependency (`dt = 1`) and Dirichlet
//! boundaries — multi-`dt` stencils would need several in-flight local
//! states per tile.

use crate::compiled::CompiledStencil;
use crate::grid::{dense_strides, Grid, GridLayout, Scalar};
use crate::sweep::{copy_box, for_each_row, sweep, Frame};
use crate::tier::{ExecTier, TieredStencil};
use msc_core::error::{MscError, Result};
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_lint::Gate;
use msc_trace::{Counter, CounterSet, HistSet};

/// Statistics of a temporally tiled run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TemporalStats {
    pub steps: usize,
    pub blocks: usize,
    /// Stencil point-updates actually computed (≥ steps × grid points).
    pub computed_points: u64,
    /// The redundant-computation factor: computed / (steps × points).
    pub redundancy: f64,
}

impl TemporalStats {
    /// Add a block's account.
    fn add(&mut self, block: &CounterSet) {
        self.blocks += block.get(Counter::TemporalBlocks) as usize;
        self.steps += block.get(Counter::Steps) as usize;
        self.computed_points += block.get(Counter::ComputedPoints);
    }
}

/// The trapezoid of one tile over a block of `depth` local steps, per
/// dimension and in padded coordinates.
struct Trapezoid<'a> {
    tile: &'a TileRange,
    layout: &'a GridLayout,
    reach: &'a [usize],
    depth: usize,
}

impl Trapezoid<'_> {
    /// The tile grown by `grow` reaches on every side, clamped to
    /// `[floor, ceil)` of each dimension.
    fn grown(
        &self,
        grow: usize,
        clamp: impl Fn(usize) -> (usize, usize),
    ) -> (Vec<usize>, Vec<usize>) {
        (0..self.layout.ndim())
            .map(|d| {
                let (floor, ceil) = clamp(d);
                let lo = self.tile.origin[d] + self.layout.halo[d];
                let hi = lo + self.tile.extent[d];
                let g = grow * self.reach[d];
                (lo.saturating_sub(g).max(floor), (hi + g).min(ceil))
            })
            .unzip()
    }

    /// The box staged into the local buffers: everything local step 1
    /// reads, clamped to the padded grid.
    fn staged(&self) -> (Vec<usize>, Vec<usize>) {
        self.grown(self.depth + 1, |d| (0, self.layout.padded[d]))
    }

    /// The box local step `s` (1-based) computes: the tile grown by the
    /// steps still to come, clamped to the interior.
    fn computed(&self, s: usize) -> (Vec<usize>, Vec<usize>) {
        let l = self.layout;
        self.grown(self.depth - s, |d| (l.halo[d], l.halo[d] + l.shape[d]))
    }
}

/// Run `program` with overlapped temporal tiling of depth `tt` on
/// [`ExecTier::Auto`]. Returns the final state
/// (bit-identical to [`crate::driver::run_program`]) and the redundancy
/// accounting.
pub fn run_temporal_tiled<'p, T: Scalar>(
    program: impl Gate<'p>,
    plan: &ExecPlan,
    tt: usize,
    init: &Grid<T>,
) -> Result<(Grid<T>, TemporalStats)> {
    run_temporal_tiled_tier(program, plan, tt, init, ExecTier::Auto)
}

/// Like [`run_temporal_tiled`] with an explicit execution tier.
pub(crate) fn run_temporal_tiled_tier<'p, T: Scalar>(
    program: impl Gate<'p>,
    plan: &ExecPlan,
    tt: usize,
    init: &Grid<T>,
    tier: ExecTier,
) -> Result<(Grid<T>, TemporalStats)> {
    let program = program.gate(None)?;
    let compiled = CompiledStencil::compile(&program, init)?;
    if compiled.max_dt != 1 {
        return Err(MscError::UnsupportedExpr(
            "temporal tiling requires a single t-1 dependency".into(),
        ));
    }
    if tt == 0 {
        return Err(MscError::InvalidConfig("time tile must be >= 1".into()));
    }
    let reach = &compiled.reach;
    let layout = init.layout();
    // One local layout for the whole run — the largest box any tile of
    // any block stages — so the taps are relinearized once.
    let local_shape: Vec<usize> = (plan.tile.iter().zip(&layout.shape).zip(reach))
        .map(|((&t, &n), &r)| t.min(n) + 2 * (tt + 1) * r)
        .collect();
    let (local_strides, local_len) = dense_strides(&local_shape).ok_or_else(|| {
        MscError::InvalidConfig(format!("a local box of {local_shape:?} overflows usize"))
    })?;
    let stencil = TieredStencil::from_compiled(compiled.relinearized(&local_strides), tier);

    let tiles = plan.tiles();
    let mut cur = init.clone();
    let mut next = init.clone();
    let mut stats = TemporalStats::default();
    let mut remaining = program.timesteps;

    while remaining > 0 {
        let _block_span = msc_trace::span("temporal_block");
        let block = tt.min(remaining);
        let src = cur.as_slice();
        let shares = sweep(plan, &tiles, [&mut next], "temporal_worker", |work| {
            // `state` holds the tile's latest local step, `next` receives
            // the one being computed.
            let mut state = vec![T::default(); local_len];
            let mut next = vec![T::default(); local_len];
            let mut scratch = stencil.scratch();
            let mut done = 0u64;
            for (tile, mut rows) in work {
                let trapezoid = Trapezoid {
                    tile,
                    layout: &layout,
                    reach,
                    depth: block,
                };
                // Stage the whole box into both buffers: cells no local
                // step computes (the physical halo) are read by every one.
                let (lo, hi) = trapezoid.staged();
                let local = Frame {
                    origin: &lo,
                    strides: &local_strides,
                };
                copy_box(src, &layout, &mut state, &local, &lo, &hi);
                next.copy_from_slice(&state);
                for s in 1..=block {
                    let (lo, hi) = trapezoid.computed(s);
                    let len = hi[hi.len() - 1].saturating_sub(lo[lo.len() - 1]);
                    for_each_row(&lo, &hi, |pos| {
                        let base = local.index(pos);
                        stencil.run_row(&[&state], base, &mut next[base..base + len], &mut scratch);
                        done += len as u64;
                    });
                    std::mem::swap(&mut state, &mut next);
                }
                rows.put(&state, &local);
            }
            done
        })?;
        // `next` (the old cur) is overwritten tile by tile in the next
        // block; its halo already matches (Dirichlet, never written).
        std::mem::swap(&mut cur, &mut next);
        // The block's account, published once and added to the run's.
        let mut counters = CounterSet::new();
        counters.set(Counter::TemporalBlocks, 1);
        counters.set(Counter::Steps, block as u64);
        counters.set(Counter::ComputedPoints, shares.iter().sum());
        msc_trace::record_set(&counters, &HistSet::new());
        stats.add(&counters);
        remaining -= block;
    }

    let ideal = (program.timesteps as u64) * init.interior_len() as u64;
    stats.redundancy = stats.computed_points as f64 / ideal as f64;
    Ok((cur, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_program, Executor};
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::Schedule;

    fn single_dep_program(id: BenchmarkId, grid: &[usize], steps: usize) -> StencilProgram {
        let b = benchmark(id);
        let mut builder = StencilProgram::builder(b.name)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(steps);
        builder = match grid.len() {
            2 => builder.grid_2d("B", DType::F64, [grid[0], grid[1]], b.radius, 2),
            _ => builder.grid_3d("B", DType::F64, [grid[0], grid[1], grid[2]], b.radius, 2),
        };
        builder.build().unwrap()
    }

    fn plan_for(ndim: usize, grid: &[usize], tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, ndim, grid).unwrap()
    }

    #[test]
    fn temporal_tiling_is_bit_identical_2d() {
        let p = single_dep_program(BenchmarkId::S2d9ptBox, &[24, 24], 7);
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 4);
        let (reference, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        for tt in [1usize, 2, 3, 7, 10] {
            let plan = plan_for(2, &[24, 24], &[8, 12], 3);
            let (out, stats) = run_temporal_tiled(&p, &plan, tt, &init).unwrap();
            assert_eq!(out.as_slice(), reference.as_slice(), "tt={tt}");
            assert_eq!(stats.steps, 7);
        }
    }

    #[test]
    fn redundancy_grows_with_time_tile_depth() {
        let p = single_dep_program(BenchmarkId::S2d9ptBox, &[32, 32], 8);
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 1);
        let plan = plan_for(2, &[32, 32], &[8, 8], 2);
        let (_, s1) = run_temporal_tiled(&p, &plan, 1, &init).unwrap();
        let (_, s4) = run_temporal_tiled(&p, &plan, 4, &init).unwrap();
        assert!((s1.redundancy - 1.0).abs() < 1e-12, "{}", s1.redundancy);
        assert!(s4.redundancy > 1.2, "{}", s4.redundancy);
        assert_eq!(s1.blocks, 8);
        assert_eq!(s4.blocks, 2);
    }

    #[test]
    fn multi_dt_stencils_are_rejected() {
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p = b.program(&[16, 16], DType::F64, 4).unwrap(); // two deps
        let init: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
        let plan = plan_for(2, &[16, 16], &[8, 8], 1);
        assert!(run_temporal_tiled(&p, &plan, 2, &init).is_err());
    }

    #[test]
    fn the_front_door_refuses_what_run_program_refuses() {
        // An unchecked-built program whose halo is narrower than its reach
        // is a lint deny, not a slice-index panic inside a tile.
        let b = benchmark(BenchmarkId::S2d9ptStar); // reach 2
        let narrow = StencilProgram::builder("narrow")
            .grid_2d("B", DType::F64, [16, 16], 1, 2)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(2)
            .build_unchecked()
            .unwrap();
        let init: Grid<f64> = Grid::zeros(&narrow.grid.shape, &narrow.grid.halo);
        let plan = plan_for(2, &[16, 16], &[8, 8], 2);
        let err = run_temporal_tiled(&narrow, &plan, 2, &init).unwrap_err();
        assert!(err.to_string().contains("lint rejected"), "{err}");

        // A plan lowered for another grid is a typed error as well.
        let p = single_dep_program(BenchmarkId::S2d9ptStar, &[16, 16], 2);
        let init: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
        let other = plan_for(2, &[16, 24], &[8, 8], 2);
        let err = run_temporal_tiled(&p, &other, 2, &init).unwrap_err();
        assert!(err.to_string().contains("lowered for grid"), "{err}");
    }

    #[test]
    fn partial_final_block_is_handled() {
        // 5 steps with tt=3: blocks of 3 + 2.
        let p = single_dep_program(BenchmarkId::S2d9ptStar, &[20, 20], 5);
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 11);
        let (reference, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = plan_for(2, &[20, 20], &[10, 10], 2);
        let (out, stats) = run_temporal_tiled(&p, &plan, 3, &init).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        assert_eq!(stats.blocks, 2);
    }
}
