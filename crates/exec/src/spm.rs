//! Sunway-style execution: every tile is staged through a bounded
//! scratchpad (SPM) read buffer by an explicit DMA get, computed into an
//! SPM write buffer, and written back by a DMA put — the functional
//! counterpart of the `cache_read` / `cache_write` / `compute_at`
//! primitives (paper §4.3, Figure 4(e)).
//!
//! Temporal terms are processed **sequentially through one read buffer**
//! (get state `t-1`, accumulate; get state `t-2`, accumulate; ...), which
//! is what lets the paper's Table 5 tile sizes fit a 64 KB SPM even with
//! two live input states.
//!
//! Besides producing bit-identical results to the serial reference, this
//! executor *validates the SPM capacity constraint* and *counts DMA
//! traffic*, which the timing simulator charges against the DMA model.

use crate::grid::{dense_strides, Grid, Scalar};
use crate::sweep::{copy_box, for_each_row, merged, sweep, Frame};
use crate::tier::TieredStencil;
use msc_core::error::{MscError, Result};
use msc_core::schedule::plan::{spm_staging_bytes, ExecPlan, TileRange};
use msc_trace::{Counter, CounterSet};

/// SPM-stage exactly `tiles` (cells of `plan`'s tiling) of one timestep.
/// `spm_capacity` is the per-core SPM size (64 KB on Sunway); exceeding
/// it is a compile-time error in real MSC and an `Err` here.
///
/// Each worker owns one read buffer (the tile plus the stencil's reach)
/// and one write buffer (the tile), allocated once and reused across
/// tiles and temporal terms ("global" scope in the paper). Term `k`'s
/// rows are evaluated on the stencil's tier as `0 + weight * acc`; the
/// first term's land in the write buffer directly, later ones are added
/// to it — the same value, bit for bit, as the reference's running sum
/// (DESIGN.md §18.2).
pub(crate) fn step_tiles<T: Scalar>(
    stencil: &TieredStencil<T>,
    plan: &ExecPlan,
    states: &[&Grid<T>],
    out: &mut Grid<T>,
    spm_capacity: usize,
    tiles: &[TileRange],
) -> Result<CounterSet> {
    let elem = std::mem::size_of::<T>();
    let reach = &stencil.reach;
    let needed = spm_staging_bytes(&plan.tile, reach, elem, plan.double_buffer);
    if needed > spm_capacity {
        return Err(MscError::InvalidConfig(format!(
            "SPM buffers need {needed} bytes but capacity is {spm_capacity}; shrink the tile"
        )));
    }
    let read_shape: Vec<usize> = plan
        .tile
        .iter()
        .zip(reach)
        .map(|(t, r)| t + 2 * r)
        .collect();
    let overflow = |shape: &[usize]| {
        MscError::InvalidConfig(format!("an SPM buffer of {shape:?} overflows usize"))
    };
    let (read_strides, read_len) = dense_strides(&read_shape).ok_or_else(|| overflow(&read_shape))?;
    let (write_strides, write_len) = dense_strides(&plan.tile).ok_or_else(|| overflow(&plan.tile))?;
    let terms = stencil.staged_terms(&read_strides);
    let layout = out.layout();
    let states: Vec<&[T]> = states.iter().map(|g| g.as_slice()).collect();

    let shares = sweep(plan, tiles, [out], "spm_worker", |work| {
        let mut read_buf = vec![T::default(); read_len];
        let mut write_buf = vec![T::default(); write_len];
        let mut term_row = vec![T::default(); plan.tile[plan.ndim - 1]];
        let mut scratch: Vec<_> = terms.iter().map(|t| t.scratch()).collect();
        let mut stats = CounterSet::new();
        let peak = spm_staging_bytes(&plan.tile, reach, elem, false);
        stats.set(Counter::SpmPeakBytes, peak as u64);
        for (_, mut rows) in work {
            let (lo, hi) = rows.bounds();
            let get_lo: Vec<usize> = lo.iter().zip(reach).map(|(l, r)| l - r).collect();
            let get_hi: Vec<usize> = hi.iter().zip(reach).map(|(h, r)| h + r).collect();
            let get_row_bytes = ((rows.row_len() + 2 * reach[plan.ndim - 1]) * elem) as u64;
            let read = Frame {
                origin: &get_lo,
                strides: &read_strides,
            };
            let write = Frame {
                origin: &lo,
                strides: &write_strides,
            };
            for (k, term) in terms.iter().enumerate() {
                // DMA get: the tile and its halo of the state this term reads.
                let state = states[stencil.terms[k].dt - 1];
                let got = copy_box(state, &layout, &mut read_buf, &read, &get_lo, &get_hi);
                stats.bump(Counter::DmaGetBytes, got * get_row_bytes);
                stats.bump(Counter::DmaRows, got);
                for_each_row(&lo, &hi, |pos| {
                    let w = write.index(pos);
                    let acc = &mut write_buf[w..w + rows.row_len()];
                    let base = read.index(pos);
                    if k == 0 {
                        term.run_row(&[&read_buf], base, acc, &mut scratch[k]);
                    } else {
                        let v = &mut term_row[..acc.len()];
                        term.run_row(&[&read_buf], base, v, &mut scratch[k]);
                        for (a, &v) in acc.iter_mut().zip(&*v) {
                            *a = *a + v;
                        }
                    }
                });
            }
            let put = rows.put(&write_buf, &write);
            stats.bump(Counter::DmaPutBytes, put * (rows.row_len() * elem) as u64);
            stats.bump(Counter::DmaRows, put);
            stats.bump(Counter::TilesExecuted, 1);
            for (term, scratch) in terms.iter().zip(&mut scratch) {
                term.note_rows(scratch, put, rows.row_len());
            }
        }
        for s in &scratch {
            stats.merge(&s.counted);
        }
        stats
    })?;
    Ok(merged(&shares))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Executor, RunStats};
    use crate::tier::ExecTier;
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::{preset_for, BufferScope, Schedule, Target};

    fn plan_for(ndim: usize, grid: &[usize], tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, ndim, grid).unwrap()
    }

    /// `program` on an all-`init` window, compiled for the default tier.
    fn setup(id: BenchmarkId, grid: &[usize], seed: u64) -> (Grid<f64>, TieredStencil<f64>) {
        let p = benchmark(id).program(grid, DType::F64, 1).unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, seed);
        let c = TieredStencil::compile(&p, &init, ExecTier::Auto).unwrap();
        (init, c)
    }

    /// One whole SPM-staged step through the executor's front door.
    fn step(
        c: &TieredStencil<f64>,
        plan: &ExecPlan,
        init: &Grid<f64>,
        out: &mut Grid<f64>,
        spm_capacity: usize,
    ) -> Result<RunStats> {
        let exec = Executor::Spm {
            plan: plan.clone(),
            spm_capacity,
        };
        let counters = exec.step(c, &[init, init], out, &plan.tiles())?;
        Ok(RunStats::from_counters(&counters))
    }

    #[test]
    fn spm_overflow_is_rejected() {
        let (init, c) = setup(BenchmarkId::S3d7ptStar, &[64, 64, 64], 1);
        // Whole-grid tile: 66^3 + 64^3 doubles >> 64 KB.
        let plan = plan_for(3, &[64, 64, 64], &[64, 64, 64], 1);
        let mut out = init.clone();
        assert!(step(&c, &plan, &init, &mut out, 64 * 1024).is_err());
    }

    #[test]
    fn streaming_doubles_spm_footprint() {
        // A tile that fits single-buffered must be rejected when stream()
        // doubles the footprint beyond capacity.
        let (init, c) = setup(BenchmarkId::S3d7ptStar, &[16, 16, 16], 3);
        let mut base = Schedule::default();
        base.tile(&[4, 4, 16])
            .parallel("xo", 2)
            .cache_read("B", "br", BufferScope::Global)
            .cache_write("bw", BufferScope::Global)
            .compute_at("br", "zo")
            .compute_at("bw", "zo");
        let plan_single = ExecPlan::lower(&base, 3, &[16, 16, 16]).unwrap();
        let mut streamed = base.clone();
        streamed.stream();
        let plan_double = ExecPlan::lower(&streamed, 3, &[16, 16, 16]).unwrap();

        let cap = spm_staging_bytes(&plan_single.tile, &c.reach, 8, false) + 128; // fits once, not twice
        let mut out = init.clone();
        assert!(step(&c, &plan_single, &init, &mut out, cap).is_ok());
        assert!(step(&c, &plan_double, &init, &mut out, cap).is_err());
        // Streaming still computes correctly when capacity allows.
        let mut o2 = init.clone();
        step(&c, &plan_double, &init, &mut o2, 1 << 20).unwrap();
        assert_eq!(out.as_slice(), o2.as_slice());
    }

    #[test]
    fn paper_table5_tiles_fit_a_64kb_spm() {
        // The whole point of Table 5's smaller high-order tiles: the
        // staged buffers must fit the CPE scratchpad.
        for b in all_benchmarks() {
            let grid = b.default_grid();
            let p = b.program(&grid, DType::F64, 1).unwrap();
            let sched = preset_for(b.ndim, b.points(), Target::SunwayCG);
            let plan = ExecPlan::lower(&sched, b.ndim, &grid).unwrap();
            let bytes = spm_staging_bytes(&plan.tile, &p.stencil.reach(), 8, false);
            assert!(bytes <= 64 * 1024, "{}: {bytes} bytes", b.name);
        }
    }

    #[test]
    fn dma_traffic_accounts_halo_overhead() {
        let (init, c) = setup(BenchmarkId::S3d7ptStar, &[8, 8, 8], 2);
        let plan = plan_for(3, &[8, 8, 8], &[4, 4, 8], 1);
        let mut out = init.clone();
        let stats = step(&c, &plan, &init, &mut out, 64 * 1024).unwrap();
        // Get: 4 tiles x 2 terms x (6*6*10) doubles; put: 512 doubles.
        assert_eq!(stats.tiles_executed, 4);
        assert_eq!(stats.dma_get_bytes, 4 * 2 * 6 * 6 * 10 * 8);
        assert_eq!(stats.dma_put_bytes, 8 * 8 * 8 * 8);
        // One transfer per row: 4 x 2 x 6*6 rows in, 8*8 rows out.
        assert_eq!(stats.dma_rows, 4 * 2 * 6 * 6 + 8 * 8);
        assert_eq!(stats.spm_peak_bytes, (6 * 6 * 10 + 4 * 4 * 8) * 8);
        // Both terms of every row ran on the requested tier.
        assert_eq!(stats.specialized_hits(), 2 * 8 * 8);
    }

    #[test]
    fn threaded_spm_equals_serial_spm() {
        let (init, c) = setup(BenchmarkId::S2d9ptBox, &[24, 24], 9);
        let plan1 = plan_for(2, &[24, 24], &[6, 12], 1);
        let plan4 = plan_for(2, &[24, 24], &[6, 12], 4);
        let mut o1 = init.clone();
        let mut o4 = init.clone();
        let s1 = step(&c, &plan1, &init, &mut o1, 1 << 20).unwrap();
        let s4 = step(&c, &plan4, &init, &mut o4, 1 << 20).unwrap();
        assert_eq!(o1.as_slice(), o4.as_slice());
        assert_eq!(s1, s4);
    }
}
