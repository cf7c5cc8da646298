//! The sweep core (DESIGN.md §18): what every tiled sweep — direct,
//! SPM-staged, time-blocked, variable-coefficient — shares. One row
//! odometer over a box ([`for_each_row`]), one box copier between
//! buffers ([`copy_box`]) and one between a grid and a flat message
//! buffer ([`Grid::pack`] / [`Grid::unpack`], what the halo exchange
//! moves), one place where the output grids are split into disjoint
//! rows for the workers ([`TileRows`]; a wavefront pass's [`Shared`] takes
//! its rows through the same one `unsafe` write expression) and one wrapper around
//! [`pool::run_tile_job`] ([`sweep`]). A sweep writes `N` grids of one
//! layout: one for every staging, two for the kernel-image step of
//! `tiled` (DESIGN.md §12.6). The staging policies (`tiled`, `spm`, `temporal`) and
//! `varcoeff` are closures over these and hold no loop nest or pointer of
//! their own.
//!
//! All boxes are half-open `[lo, hi)` in *padded* grid coordinates (halo
//! included), so one coordinate names the same cell in the grid and in
//! any tile-local buffer.

use crate::grid::{Grid, GridLayout, Scalar};
use crate::pool::{self, SendPtr};
use crate::specialized::ROWS;
use msc_core::error::{MscError, Result};
use msc_core::halo::Region;
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_trace::CounterSet;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Where a tile-local buffer keeps the cells of a box: the padded
/// coordinate stored at its index 0 and its row-major strides.
pub(crate) struct Frame<'a> {
    pub origin: &'a [usize],
    pub strides: &'a [usize],
}

impl Frame<'_> {
    #[inline]
    pub fn index(&self, pos: &[usize]) -> usize {
        pos.iter()
            .zip(self.origin)
            .zip(self.strides)
            .map(|((&p, &o), &s)| (p - o) * s)
            .sum()
    }
}

/// Visit the start of every unit-stride row of the box `[lo, hi)`,
/// outermost dimension slowest. An empty box has no rows.
pub(crate) fn for_each_row(lo: &[usize], hi: &[usize], mut f: impl FnMut(&[usize])) {
    for_each_row_group(lo, hi, 1, |pos, _| f(pos))
}

/// The distance between two rows of a group in a buffer with `strides`:
/// the stride of the second-last dimension (0 in 1-D, where a box has
/// one row).
pub(crate) fn group_stride(strides: &[usize]) -> usize {
    strides.len().checked_sub(2).map_or(0, |d| strides[d])
}

/// [`for_each_row`] `k` rows at a time: `f(pos, n)` for the first of `n`
/// rows consecutive along the second-last dimension, `n` being `k` but at
/// the box's edge (and 1 in 1-D).
pub(crate) fn for_each_row_group(
    lo: &[usize],
    hi: &[usize],
    k: usize,
    mut f: impl FnMut(&[usize], usize),
) {
    assert!(k > 0, "a group has at least one row");
    if lo.iter().zip(hi).any(|(l, h)| l >= h) {
        return;
    }
    let across = lo.len().checked_sub(2);
    let mut pos = lo.to_vec();
    loop {
        f(&pos, across.map_or(1, |d| k.min(hi[d] - pos[d])));
        // Odometer over every dimension but the last (the row itself).
        let mut d = lo.len() - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            pos[d] += if Some(d) == across { k } else { 1 };
            if pos[d] < hi[d] {
                break;
            }
            pos[d] = lo[d];
        }
    }
}

/// Copy the box `[lo, hi)` of a grid's buffer into the local buffer laid
/// out by `frame`, row by row. Returns the number of rows moved — one DMA
/// transfer each in the SPM accounting.
pub(crate) fn copy_box<T: Copy>(
    grid: &[T],
    layout: &GridLayout,
    local: &mut [T],
    frame: &Frame,
    lo: &[usize],
    hi: &[usize],
) -> u64 {
    let len = hi[hi.len() - 1].saturating_sub(lo[lo.len() - 1]);
    let mut rows = 0;
    for_each_row(lo, hi, |pos| {
        let (g, l) = (layout.padded_index(pos), frame.index(pos));
        local[l..l + len].copy_from_slice(&grid[g..g + len]);
        rows += 1;
    });
    rows
}

/// Visit every row of `region` (padded coordinates) as its index range
/// in a grid buffer with `strides`, in the order a flat message buffer
/// holds the rows.
fn region_rows(strides: &[usize], region: &Region, mut f: impl FnMut(std::ops::Range<usize>)) {
    let hi: Vec<usize> = (region.start.iter().zip(&region.extent))
        .map(|(s, e)| s + e)
        .collect();
    let len = region.extent[region.extent.len() - 1];
    for_each_row(&region.start, &hi, |pos| {
        let at: usize = pos.iter().zip(strides).map(|(p, s)| p * s).sum();
        f(at..at + len);
    });
}

impl<T: Scalar> Grid<T> {
    /// Copy `region` out of the grid into a flat buffer (paper §4.4:
    /// "packs the data of the inner halo region in the send buffer").
    pub fn pack(&self, region: &Region) -> Vec<T> {
        let mut out = Vec::with_capacity(region.len());
        let data = self.as_slice();
        region_rows(&self.strides, region, |row| {
            out.extend_from_slice(&data[row])
        });
        out
    }

    /// Copy a flat buffer into `region` of the grid ("unpacks the data to
    /// update the outer halo region"). Panics if the buffer length does
    /// not match the region size: callers check payloads that arrived
    /// over a channel first (the halo executor turns a mis-sized one into
    /// `CommError::Corrupt`).
    pub fn unpack(&mut self, region: &Region, buf: &[T]) {
        assert_eq!(buf.len(), region.len(), "unpack size mismatch");
        let strides = self.strides.clone();
        let data = self.as_mut_slice();
        let mut rest = buf;
        region_rows(&strides, region, |row| {
            let (head, tail) = rest.split_at(row.len());
            data[row].copy_from_slice(head);
            rest = tail;
        });
    }
}

/// The `N` output grids of one sweep — one layout, `N` buffers — while its
/// workers write them.
struct SharedOut<'a, T, const N: usize> {
    ptrs: [SendPtr<T>; N],
    len: usize,
    layout: GridLayout,
    _exclusive: PhantomData<[&'a mut [T]; N]>,
}

/// The interior rows of one tile, in each of the sweep's output grids.
/// [`sweep`] hands one out per tile it was given, to the worker that drew
/// the tile.
pub(crate) struct TileRows<'a, T, const N: usize> {
    out: &'a SharedOut<'a, T, N>,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl<T, const N: usize> TileRows<'_, T, N> {
    /// The tile's box `[lo, hi)` in padded coordinates.
    pub fn bounds(&self) -> (Vec<usize>, Vec<usize>) {
        (self.lo.clone(), self.hi.clone())
    }

    pub fn row_len(&self) -> usize {
        self.hi[self.hi.len() - 1] - self.lo[self.lo.len() - 1]
    }

    /// Visit every output row of the tile as `f(pos, base, rows)`: the
    /// padded coordinate of the row's first cell, its flat index in the
    /// grid buffers, and that row of every output grid, in the order the
    /// grids were given to [`sweep`]. Returns the number of rows visited.
    pub fn for_each(&mut self, mut f: impl FnMut(&[usize], usize, [&mut [T]; N])) -> u64 {
        self.for_each_group(1, |pos, base, groups| {
            f(pos, base, groups.map(|group| std::mem::take(&mut group[0])))
        })
    }

    /// [`TileRows::for_each`] `k` (at most [`ROWS`]) rows at a time:
    /// `f(pos, base, groups)` gets the first row's coordinate and flat
    /// index, and in every output grid the group's `n` rows — `k` but at
    /// the tile's edge, and 1 in 1-D — row `r` at flat index `base + r *
    /// group_stride`. Returns the number of rows visited.
    pub fn for_each_group(
        &mut self,
        k: usize,
        mut f: impl FnMut(&[usize], usize, [&mut [&mut [T]]; N]),
    ) -> u64 {
        assert!(k <= ROWS, "a group holds at most {ROWS} rows, not {k}");
        let len = self.row_len();
        let stride = group_stride(&self.out.layout.strides);
        let mut rows = 0;
        for_each_row_group(&self.lo, &self.hi, k, |pos, n| {
            let base = self.out.layout.padded_index(pos);
            assert!(
                base + (n - 1) * stride + len <= self.out.len,
                "tile row leaves the grid"
            );
            let mut groups: [[&mut [T]; ROWS]; N] = std::array::from_fn(|_| Default::default());
            for (group, ptr) in groups.iter_mut().zip(&self.out.ptrs) {
                for (r, row) in group[..n].iter_mut().enumerate() {
                    // SAFETY: `SharedOut` was made from the `&mut Grid`s
                    // that `sweep` holds for as long as any `TileRows`
                    // lives, so nothing outside this sweep touches the
                    // buffers; being `N` exclusive borrows they are `N`
                    // different buffers, each `out.len` long (`sweep`
                    // refused grids of another layout), and the group's
                    // last row ends inside that length, as just checked.
                    // Inside the sweep, these rows of each buffer belong to
                    // this tile alone: `sweep` admitted the tile list only
                    // after `check_lattice` showed every tile to be a
                    // distinct cell of the plan's tile lattice (cells are
                    // pairwise disjoint boxes), the pool hands each tile
                    // index to exactly one worker, that worker gets the
                    // tile's only `TileRows`, and `&mut self` keeps two
                    // visits of it from overlapping. The `n` rows of one
                    // visit are `n` distinct rows of the tile — the
                    // odometer stops a group at the tile's edge — and they
                    // are disjoint: `stride` is the padded length of a row,
                    // at least `len`. None outlives the call to `f`.
                    *row = unsafe { slice_at(ptr.get(), base + r * stride, len) };
                }
            }
            f(pos, base, groups.each_mut().map(|group| &mut group[..n]));
            rows += n as u64;
        });
        rows
    }
}

/// The `len` elements at `at` of the buffer at `ptr`, mutably: the one
/// expression through which a sweep writes a grid.
///
/// # Safety
///
/// `[at, at + len)` lies in the buffer and nothing else reads or writes
/// it while the slice lives.
#[inline(always)]
unsafe fn slice_at<'a, T>(ptr: *mut T, at: usize, len: usize) -> &'a mut [T] {
    std::slice::from_raw_parts_mut(ptr.add(at), len)
}

/// A buffer the workers of a wavefront pass (DESIGN.md §17.5) read and
/// write at once, a plane step at a time: whoever takes a slice shows no
/// other worker touches what it writes, nor writes what it reads.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a, T> {
    ptr: SendPtr<T>,
    len: usize,
    writable: bool,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T> Shared<'a, T> {
    pub fn of(buf: &'a mut [T]) -> Self {
        let (ptr, len) = (SendPtr::new(buf.as_mut_ptr()), buf.len());
        Shared { ptr, len, writable: true, _borrow: PhantomData }
    }

    /// A buffer the pass only reads: [`Shared::write`] refuses it.
    pub fn read_only(buf: &'a [T]) -> Self {
        let (ptr, len) = (SendPtr::new(buf.as_ptr().cast_mut()), buf.len());
        Shared { ptr, len, writable: false, _borrow: PhantomData }
    }

    /// # Safety
    ///
    /// Nothing writes `range` while the slice lives.
    pub unsafe fn read(&self, range: std::ops::Range<usize>) -> &'a [T] {
        assert!(range.start <= range.end && range.end <= self.len, "read leaves the buffer");
        std::slice::from_raw_parts(self.ptr.get().add(range.start), range.len())
    }

    /// # Safety
    ///
    /// Nothing else reads or writes `range` while the slice lives.
    pub unsafe fn write(&self, range: std::ops::Range<usize>) -> &'a mut [T] {
        assert!(self.writable && range.start <= range.end && range.end <= self.len);
        slice_at(self.ptr.get(), range.start, range.len())
    }
}

impl<T: Copy> TileRows<'_, T, 1> {
    /// Write the tile back from the local buffer `src` (the DMA put of a
    /// staged sweep). Returns the number of rows moved.
    pub fn put(&mut self, src: &[T], from: &Frame) -> u64 {
        self.for_each(|pos, _, [row]| {
            let s = from.index(pos);
            row.copy_from_slice(&src[s..s + row.len()]);
        })
    }
}

/// One worker's share of a sweep: the tiles it draws from the pool, each
/// with its output rows.
pub(crate) struct TileWork<'w, 'a, T, const N: usize> {
    queue: &'w mut dyn Iterator<Item = usize>,
    tiles: &'a [TileRange],
    out: &'a SharedOut<'a, T, N>,
}

impl<'a, T, const N: usize> Iterator for TileWork<'_, 'a, T, N> {
    type Item = (&'a TileRange, TileRows<'a, T, N>);

    fn next(&mut self) -> Option<Self::Item> {
        let tile = &self.tiles[self.queue.next()?];
        let lo: Vec<usize> = tile
            .origin
            .iter()
            .zip(&self.out.layout.halo)
            .map(|(o, h)| o + h)
            .collect();
        let hi = lo.iter().zip(&tile.extent).map(|(l, e)| l + e).collect();
        let out = self.out;
        Some((tile, TileRows { out, lo, hi }))
    }
}

/// Every tile must be a cell of `plan`'s tile lattice over `shape`, and no
/// cell may appear twice: distinct cells are disjoint boxes inside the
/// interior, which is what lets workers write them concurrently. A plan
/// lowered for another grid fails here, before anything is written.
fn check_lattice(plan: &ExecPlan, shape: &[usize], tiles: &[TileRange]) -> Result<()> {
    if plan.grid != shape {
        return Err(MscError::InvalidConfig(format!(
            "execution plan was lowered for grid {:?} but the state has shape {shape:?}",
            plan.grid
        )));
    }
    let ndim = shape.len();
    let mut seen = vec![false; plan.num_tiles()];
    for t in tiles {
        let on_lattice = (0..ndim).all(|d| {
            t.origin[d] % plan.tile[d] == 0
                && t.origin[d] < shape[d]
                && t.extent[d] == plan.tile[d].min(shape[d] - t.origin[d])
        });
        let cell = (0..ndim).fold(0, |cell, d| {
            cell * plan.tiles_along(d) + t.origin[d] / plan.tile[d]
        });
        if !on_lattice || std::mem::replace(&mut seen[cell], true) {
            return Err(MscError::InvalidConfig(format!(
                "tile {:?}+{:?} is not a distinct cell of the plan's {:?} tiling",
                t.origin, t.extent, plan.tile
            )));
        }
    }
    Ok(())
}

/// Run `tiles` of `plan` over the plan's worker threads, writing `outs`:
/// grids of one layout (anything else is refused before a cell is
/// written), each tile's rows handed out in all of them. `worker` runs
/// once per worker thread: it builds whatever buffers the staging needs,
/// drains its [`TileWork`], and returns its share of the accounting; the
/// shares come back in no particular order. The worker span is opened
/// only when there is more than one worker.
pub(crate) fn sweep<T: Scalar, R: Send, const N: usize>(
    plan: &ExecPlan,
    tiles: &[TileRange],
    outs: [&mut Grid<T>; N],
    worker_span: &'static str,
    worker: impl Fn(TileWork<'_, '_, T, N>) -> R + Sync,
) -> Result<Vec<R>> {
    let layout = outs[0].layout();
    check_lattice(plan, &layout.shape, tiles)?;
    if let Some(odd) = outs
        .iter()
        .find(|g| g.shape != layout.shape || g.halo != layout.halo)
    {
        return Err(MscError::InvalidConfig(format!(
            "a sweep writes grids of one layout, not {:?}+{:?} beside {:?}+{:?}",
            layout.shape, layout.halo, odd.shape, odd.halo
        )));
    }
    let shared = SharedOut {
        len: outs[0].as_slice().len(),
        ptrs: outs.map(|g| SendPtr::new(g.as_mut_slice().as_mut_ptr())),
        layout,
        _exclusive: PhantomData,
    };
    let parallel = pool::worker_count(plan.n_threads, tiles.len()) > 1;
    let shares = Mutex::new(Vec::new());
    pool::run_tile_job(plan.n_threads, tiles.len(), &|queue| {
        let _span = parallel.then(|| msc_trace::span(worker_span));
        let share = worker(TileWork {
            queue,
            tiles,
            out: &shared,
        });
        shares
            .lock()
            .expect("a sweep worker panicked while reporting")
            .push(share);
    });
    Ok(shares
        .into_inner()
        .expect("a sweep worker panicked while reporting"))
}

/// The workers' shares of a sweep's account, summed.
pub(crate) fn merged(shares: &[CounterSet]) -> CounterSet {
    let mut total = CounterSet::new();
    shares.iter().for_each(|share| total.merge(share));
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_program_tier, Executor};
    use crate::temporal::run_temporal_tiled_tier;
    use crate::tier::ExecTier;
    use crate::Boundary;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;
    use msc_core::schedule::Schedule;

    fn plan_for(grid: &[usize], tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, grid.len(), grid).unwrap()
    }

    fn rows_of(lo: &[usize], hi: &[usize]) -> Vec<Vec<usize>> {
        let mut seen = Vec::new();
        for_each_row(lo, hi, |pos| seen.push(pos.to_vec()));
        seen
    }

    #[test]
    fn rows_come_outermost_slowest_and_empty_boxes_have_none() {
        assert_eq!(rows_of(&[3], &[9]), [[3]]);
        assert_eq!(rows_of(&[1, 5], &[3, 8]), [[1, 5], [2, 5]]);
        assert_eq!(
            rows_of(&[0, 2, 1], &[2, 4, 7]),
            [[0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1]]
        );
        assert!(rows_of(&[1, 5], &[1, 8]).is_empty());
        assert!(rows_of(&[1, 5], &[3, 5]).is_empty());
        assert!(rows_of(&[4], &[2]).is_empty());
    }

    fn seq_grid() -> Grid<f64> {
        let mut g: Grid<f64> = Grid::zeros(&[4, 4], &[1, 1]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        g
    }

    #[test]
    fn pack_extracts_rows() {
        let g = seq_grid(); // padded 6x6
        let r = Region::new(vec![1, 1], vec![2, 3]);
        assert_eq!(g.pack(&r), vec![7.0, 8.0, 9.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let g = seq_grid();
        let r = Region::new(vec![2, 0], vec![3, 2]);
        let p = g.pack(&r);
        let mut g2: Grid<f64> = Grid::zeros(&[4, 4], &[1, 1]);
        g2.unpack(&r, &p);
        assert_eq!(g2.pack(&r), p);
        // Outside the region stays zero.
        assert_eq!(g2.as_slice()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "unpack size mismatch")]
    fn unpack_checks_length() {
        seq_grid().unpack(&Region::new(vec![0, 0], vec![2, 2]), &[1.0]);
    }

    #[test]
    fn empty_and_3d_regions_pack_their_element_count() {
        let r = Region::new(vec![0, 0], vec![0, 3]);
        assert!(r.is_empty());
        assert_eq!(seq_grid().pack(&r), Vec::<f64>::new());
        let g: Grid<f64> = Grid::zeros(&[4, 4, 4], &[1, 1, 1]);
        let r = Region::new(vec![1, 2, 3], vec![2, 3, 2]);
        assert_eq!(g.pack(&r).len(), 12);
    }

    #[test]
    fn a_box_survives_the_trip_through_a_local_buffer() {
        // Grid -> local frame (copy_box) -> another grid's tile (put).
        let src: Grid<f64> = Grid::random(&[6, 8], &[1, 2], 3);
        let mut dst: Grid<f64> = Grid::zeros(&[6, 8], &[1, 2]);
        let plan = plan_for(&[6, 8], &[3, 4], 2);
        let (strides, len) = crate::grid::dense_strides(&[5, 8]).unwrap();
        let layout = src.layout();
        let moved = sweep(&plan, &plan.tiles(), [&mut dst], "test_worker", |work| {
            let mut local = vec![0.0; len];
            let mut moved = 0;
            for (_, mut rows) in work {
                let (lo, hi) = rows.bounds();
                // Stage one cell more than the tile on every side.
                let get_lo: Vec<usize> = lo.iter().map(|l| l - 1).collect();
                let get_hi: Vec<usize> = hi.iter().map(|h| h + 1).collect();
                let frame = Frame {
                    origin: &get_lo,
                    strides: &strides,
                };
                moved += copy_box(src.as_slice(), &layout, &mut local, &frame, &get_lo, &get_hi);
                moved += rows.put(&local, &frame);
            }
            moved
        })
        .unwrap();
        // 4 tiles x (5 rows in + 3 rows out).
        assert_eq!(moved.iter().sum::<u64>(), 4 * (5 + 3));
        dst.for_each_interior(|pos| assert_eq!(dst.get(pos), src.get(pos), "{pos:?}"));
        // The halo of `dst` was nobody's tile.
        assert_eq!(dst.interior_sum(), dst.as_slice().iter().sum::<f64>());
    }

    #[test]
    fn every_cell_of_every_tile_is_written_exactly_once() {
        for (grid, tile, threads) in [
            (vec![7usize], vec![3usize], 2),
            (vec![5, 9], vec![2, 4], 3),
            (vec![4, 3, 6], vec![2, 3, 4], 4),
        ] {
            let halo = vec![1; grid.len()];
            let mut out: Grid<f64> = Grid::zeros(&grid, &halo);
            let plan = plan_for(&grid, &tile, threads);
            let tiles = plan.tiles();
            let counts = sweep(&plan, &tiles, [&mut out], "test_worker", |work| {
                let mut tiles = 0;
                for (tile, mut rows) in work {
                    assert_eq!(rows.row_len(), tile.extent[tile.extent.len() - 1]);
                    rows.for_each(|_, base, [row]| {
                        for (i, cell) in row.iter_mut().enumerate() {
                            // +1 per visit, plus a fingerprint of where the
                            // row believes it is.
                            *cell += 1.0 + (base + i) as f64 * 1e-6;
                        }
                    });
                    tiles += 1;
                }
                tiles
            })
            .unwrap();
            assert_eq!(counts.iter().sum::<usize>(), tiles.len());
            let layout = out.layout();
            out.for_each_interior(|pos| {
                let expect = 1.0 + layout.index(pos) as f64 * 1e-6;
                assert_eq!(out.get(pos), expect, "{grid:?} at {pos:?}");
            });
            assert_eq!(out.interior_sum(), out.as_slice().iter().sum::<f64>());
        }
    }

    #[test]
    fn row_groups_hand_out_every_row_of_every_tile_once() {
        // Tiles of 5 and 3 rows along the second-last dimension: groups
        // of up to `k` rows stop at the tile's edge.
        for (grid, tile, threads) in [
            (vec![7usize], vec![3usize], 2),
            (vec![8, 9], vec![5, 4], 3),
            (vec![3, 8, 6], vec![2, 5, 4], 2),
        ] {
            let halo = vec![2; grid.len()];
            let plan = plan_for(&grid, &tile, threads);
            let tiles = plan.tiles();
            let rows: usize = tiles
                .iter()
                .map(|t| t.extent.iter().rev().skip(1).product::<usize>())
                .sum();
            for k in 1..=ROWS {
                let mut up: Grid<f64> = Grid::zeros(&grid, &halo);
                let mut down = up.clone();
                let stride = group_stride(&up.strides);
                let worker = |work: TileWork<'_, '_, f64, 2>| {
                    let mut visited = 0;
                    for (tile, mut rows) in work {
                        let edge = tile.extent[tile.extent.len().saturating_sub(2)];
                        visited += rows.for_each_group(k, |_, base, [ups, downs]| {
                            let n = ups.len();
                            assert!(n <= k && (n == k || grid.len() == 1 || edge % k == n));
                            for (r, (u, d)) in ups.iter_mut().zip(downs).enumerate() {
                                for (i, (u, d)) in u.iter_mut().zip(d.iter_mut()).enumerate() {
                                    let at = 1.0 + (base + r * stride + i) as f64 * 1e-6;
                                    (*u, *d) = (*u + at, *d - at);
                                }
                            }
                        });
                    }
                    visited
                };
                let visited = sweep(&plan, &tiles, [&mut up, &mut down], "test_worker", worker);
                let visited: u64 = visited.unwrap().iter().sum();
                assert_eq!(visited, rows as u64, "{grid:?} k {k}");
                let layout = up.layout();
                up.for_each_interior(|pos| {
                    let want = 1.0 + layout.index(pos) as f64 * 1e-6;
                    let got = (up.get(pos), down.get(pos));
                    assert_eq!(got, (want, -want), "{grid:?} k {k} {pos:?}");
                });
                // Nothing outside the interior was handed out.
                assert_eq!(up.interior_sum(), up.as_slice().iter().sum::<f64>());
                assert_eq!(down.interior_sum(), down.as_slice().iter().sum::<f64>());
            }
        }
    }

    #[test]
    fn a_tile_gets_its_rows_in_every_output_grid_of_the_one_layout() {
        let plan = plan_for(&[5, 9], &[2, 4], 3);
        let tiles = plan.tiles();
        let mut up: Grid<f64> = Grid::zeros(&[5, 9], &[1, 2]);
        let mut down = up.clone();
        let fingerprint = |rows: &mut TileRows<'_, f64, 2>| {
            rows.for_each(|_, base, [up, down]| {
                assert_eq!(up.len(), down.len());
                for (i, (u, d)) in up.iter_mut().zip(down).enumerate() {
                    *u += (base + i) as f64;
                    *d -= (base + i) as f64;
                }
            })
        };
        sweep(&plan, &tiles, [&mut up, &mut down], "test_worker", |work| {
            for (_, mut rows) in work {
                fingerprint(&mut rows);
            }
        })
        .unwrap();
        let layout = up.layout();
        up.for_each_interior(|pos| {
            let at = layout.index(pos) as f64;
            assert_eq!((up.get(pos), down.get(pos)), (at, -at), "{pos:?}");
        });
        assert_eq!(up.interior_sum(), up.as_slice().iter().sum::<f64>());
        assert_eq!(down.interior_sum(), down.as_slice().iter().sum::<f64>());
        // The same shape under another halo is another layout: refused
        // before any write, since a row's flat index is taken from one.
        let before = up.clone();
        let mut wide: Grid<f64> = Grid::zeros(&[5, 9], &[2, 2]);
        let err = sweep(&plan, &tiles, [&mut up, &mut wide], "test_worker", |work| {
            for (_, mut rows) in work {
                fingerprint(&mut rows);
            }
        })
        .unwrap_err();
        assert!(matches!(err, MscError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("grids of one layout"), "{err}");
        assert_eq!(up.as_slice(), before.as_slice());
        assert!(wide.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tiles_that_could_overlap_are_refused_before_any_write() {
        let plan = plan_for(&[8, 8], &[4, 4], 2);
        let tiles = plan.tiles();
        let mut out: Grid<f64> = Grid::zeros(&[8, 8], &[1, 1]);
        let attempt = |plan: &ExecPlan, tiles: &[TileRange], out: &mut Grid<f64>| {
            sweep(plan, tiles, [out], "test_worker", |work| {
                for (_, mut rows) in work {
                    rows.for_each(|_, _, [row]| row.fill(1.0));
                }
            })
            .map(|_| ())
        };
        // The same cell twice.
        let twice = [tiles[0].clone(), tiles[1].clone(), tiles[0].clone()];
        let err = attempt(&plan, &twice, &mut out).unwrap_err();
        assert!(err.to_string().contains("not a distinct cell"), "{err}");
        // A box off the lattice, and one larger than a cell.
        for (origin, extent) in [([2, 0], [4, 4]), ([0, 0], [4, 8]), ([8, 0], [4, 4])] {
            let odd = TileRange {
                task_id: 0,
                origin: origin.to_vec(),
                extent: extent.to_vec(),
            };
            assert!(attempt(&plan, &[odd], &mut out).is_err());
        }
        // A plan lowered for another grid.
        let mut other: Grid<f64> = Grid::zeros(&[8, 12], &[1, 1]);
        let err = attempt(&plan, &tiles, &mut other).unwrap_err();
        assert!(err.to_string().contains("lowered for grid"), "{err}");
        assert!(out.as_slice().iter().chain(other.as_slice()).all(|&v| v == 0.0));
        // A part of the tiling is fine.
        attempt(&plan, &tiles[1..3], &mut out).unwrap();
        assert_eq!(out.interior_sum(), 32.0);
    }

    #[test]
    fn every_staging_matches_the_reference_through_the_one_write_site() {
        // Small enough for Miri: direct, SPM and time-block sweeps of a
        // two-thread 2D run, bit for bit against the serial oracle.
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p = StencilProgram::builder(b.name)
            .grid_2d("B", DType::F64, [6, 10], b.radius, 2)
            .kernel(b.kernel())
            .combine(&[(1, -0.75, b.name)])
            .timesteps(3)
            .build()
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 17);
        let plan = plan_for(&[6, 10], &[3, 4], 2);
        let run = |exec: &Executor| {
            let tier = ExecTier::Specialized;
            run_program_tier(&p, exec, &init, Boundary::Dirichlet, tier).unwrap().0
        };
        let bits = |g: &Grid<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let oracle = bits(&run(&Executor::Reference));
        assert_eq!(bits(&run(&Executor::Tiled(plan.clone()))), oracle);
        let spm = Executor::Spm {
            plan: plan.clone(),
            spm_capacity: 64 * 1024,
        };
        assert_eq!(bits(&run(&spm)), oracle);
        let (blocked, _) =
            run_temporal_tiled_tier(&p, &plan, 2, &init, ExecTier::Specialized).unwrap();
        assert_eq!(bits(&blocked), oracle);
    }
}
