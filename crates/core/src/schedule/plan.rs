//! [`ExecPlan`]: the flat execution plan a scheduled kernel lowers to.
//! It is the single source of truth shared by the functional executor
//! (`msc-exec`), the timing simulator (`msc-sim`), and — via the loop tree
//! — the C code generator (`msc-codegen`).

use crate::error::Result;
use crate::schedule::legality;
use crate::schedule::primitives::{parse_split_axis, Schedule};

/// A loop in the lowered nest: which spatial dimension it iterates and
/// whether it is the inner (intra-tile) loop of a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopVar {
    pub dim: usize,
    pub inner: bool,
}

/// Lowered execution plan for one kernel sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    pub ndim: usize,
    /// Interior grid extents, outermost first.
    pub grid: Vec<usize>,
    /// Tile extents (equal to `grid` when untiled).
    pub tile: Vec<usize>,
    /// Loop order, outermost first.
    pub order: Vec<LoopVar>,
    /// Threads executing tiles (CPEs / cores).
    pub n_threads: usize,
    /// Whether the plan stages tiles through SPM with DMA.
    pub use_spm: bool,
    /// Number of outer loops enclosing the DMA transfer point; equal to the
    /// count of outer loops when DMA wraps the innermost outer loop
    /// (`compute_at(buf, zo)` in the paper → depth = 3 for 3D).
    pub dma_depth: usize,
    /// Double-buffered DMA (overlap transfers with compute).
    pub double_buffer: bool,
    /// Temporal tile depth (1 = spatial only).
    pub time_tile: usize,
}

impl ExecPlan {
    /// Lower a schedule for a kernel over `grid`. Validates legality first.
    pub fn lower(schedule: &Schedule, ndim: usize, grid: &[usize]) -> Result<ExecPlan> {
        legality::check(schedule, ndim, grid)?;
        let tiled = !schedule.tile_factors.is_empty();
        let tile = if tiled {
            schedule.tile_factors.clone()
        } else {
            grid.to_vec()
        };
        let order_names: Vec<String> = if tiled {
            legality::effective_order(schedule, ndim)
        } else {
            // A single whole-grid tile: no outer loops at all.
            (0..ndim)
                .map(|d| format!("{}i", super::primitives::axis_name(d)))
                .collect()
        };
        let mut order = Vec::with_capacity(order_names.len());
        for name in &order_names {
            let (dim, inner) = parse_split_axis(name)?;
            order.push(LoopVar { dim, inner });
        }
        let n_outer = order.iter().filter(|l| !l.inner).count();
        let dma_depth = schedule
            .compute_at
            .iter()
            .filter_map(|ca| order_names.iter().position(|n| n == &ca.axis))
            .map(|pos| pos + 1)
            .max()
            .unwrap_or(n_outer);
        Ok(ExecPlan {
            ndim,
            grid: grid.to_vec(),
            tile,
            order,
            n_threads: schedule.n_threads(),
            use_spm: schedule.uses_spm(),
            dma_depth,
            double_buffer: schedule.double_buffer,
            time_tile: schedule.time_tile,
        })
    }

    /// Number of tiles along dimension `d` (rounding up for remainders).
    pub fn tiles_along(&self, d: usize) -> usize {
        self.grid[d].div_ceil(self.tile[d])
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        (0..self.ndim).map(|d| self.tiles_along(d)).product()
    }

    /// Elements inside one full tile.
    pub fn tile_elems(&self) -> usize {
        self.tile.iter().product()
    }

    /// Elements of one tile *including* the overlapped halo needed by a
    /// stencil with per-dimension `radius` (the paper assigns tiles
    /// overlapped halo regions so tasks are independent).
    pub fn tile_elems_with_halo(&self, radius: &[usize]) -> usize {
        spm_buffer_elems(&self.tile, radius).0
    }

    /// Ratio of halo-included footprint to interior tile volume — the
    /// redundant-transfer overhead of overlapped tiling.
    pub fn halo_overhead(&self, radius: &[usize]) -> f64 {
        self.tile_elems_with_halo(radius) as f64 / self.tile_elems() as f64
    }

    /// Tiles assigned to one thread under the paper's
    /// `mod(task_id, n_threads) == my_id` round-robin mapping; returns the
    /// per-thread maximum (load balance bound).
    pub fn tiles_per_thread(&self) -> usize {
        self.num_tiles().div_ceil(self.n_threads)
    }

    /// Iterate the origin (per-dim start, in interior coordinates) and
    /// extent of every tile, in `order`-respecting task order.
    pub fn tiles(&self) -> Vec<TileRange> {
        let dims_outer: Vec<usize> = self
            .order
            .iter()
            .filter(|l| !l.inner)
            .map(|l| l.dim)
            .collect();
        let counts: Vec<usize> = dims_outer.iter().map(|&d| self.tiles_along(d)).collect();
        let total: usize = counts.iter().product();
        let mut out = Vec::with_capacity(total);
        for task in 0..total {
            // Decompose task id in mixed radix, outermost loop slowest.
            let mut rem = task;
            let mut idx = vec![0usize; dims_outer.len()];
            for pos in (0..dims_outer.len()).rev() {
                idx[pos] = rem % counts[pos];
                rem /= counts[pos];
            }
            let mut origin = vec![0usize; self.ndim];
            // Dimensions without an outer loop are covered whole by the tile.
            let mut extent: Vec<usize> = (0..self.ndim)
                .map(|d| self.tile[d].min(self.grid[d]))
                .collect();
            for (pos, &d) in dims_outer.iter().enumerate() {
                origin[d] = idx[pos] * self.tile[d];
                extent[d] = self.tile[d].min(self.grid[d] - origin[d]);
            }
            out.push(TileRange {
                task_id: task,
                origin,
                extent,
            });
        }
        out
    }
}

/// Elements of the two buffers an SPM-staged sweep keeps per worker for a
/// `tile`: the read buffer (the tile plus `reach` on every side) and the
/// write buffer (the tile).
pub fn spm_buffer_elems(tile: &[usize], reach: &[usize]) -> (usize, usize) {
    let read = tile.iter().zip(reach).map(|(&t, &r)| t + 2 * r).product();
    (read, tile.iter().product())
}

/// Bytes of scratchpad one worker of an SPM-staged sweep occupies: one
/// read and one write buffer of `elem`-byte elements, both doubled when
/// DMA is double-buffered. The executor's capacity check, lint L401 and
/// both tuners size the SPM with this one formula.
pub fn spm_staging_bytes(tile: &[usize], reach: &[usize], elem: usize, double_buffer: bool) -> usize {
    let (read, write) = spm_buffer_elems(tile, reach);
    (read + write) * elem * if double_buffer { 2 } else { 1 }
}

/// One tile task: interior-coordinate origin and (clamped) extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRange {
    pub task_id: usize,
    pub origin: Vec<usize>,
    pub extent: Vec<usize>,
}

impl TileRange {
    pub fn elems(&self) -> usize {
        self.extent.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::primitives::BufferScope;

    fn plan_3d() -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(&[8, 8, 32])
            .reorder(&["xo", "yo", "zo", "xi", "yi", "zi"])
            .parallel("xo", 64)
            .cache_read("B", "br", BufferScope::Global)
            .cache_write("bw", BufferScope::Global)
            .compute_at("br", "zo")
            .compute_at("bw", "zo");
        ExecPlan::lower(&s, 3, &[256, 256, 256]).unwrap()
    }

    #[test]
    fn tile_counts_match_paper_example() {
        // Paper §4.3: 256^3 split by (8,8,32) -> 32x32x8 tiles.
        let p = plan_3d();
        assert_eq!(p.tiles_along(0), 32);
        assert_eq!(p.tiles_along(1), 32);
        assert_eq!(p.tiles_along(2), 8);
        assert_eq!(p.num_tiles(), 32 * 32 * 8);
    }

    #[test]
    fn per_cpe_task_count_matches_paper() {
        // Paper §5.2.1 (3d13pt example): each of the 64 CPEs calculates
        // 8192/64 = 128 tiles with (2,8,64) tiling... here with (8,8,32)
        // we check the generic round-robin bound instead.
        let p = plan_3d();
        assert_eq!(p.tiles_per_thread(), 8192 / 64);
    }

    #[test]
    fn dma_depth_is_innermost_outer_loop() {
        let p = plan_3d();
        assert_eq!(p.dma_depth, 3);
        assert!(p.use_spm);
    }

    #[test]
    fn untiled_plan_is_one_tile() {
        let p = ExecPlan::lower(&Schedule::default(), 2, &[64, 48]).unwrap();
        assert_eq!(p.num_tiles(), 1);
        assert_eq!(p.tile, vec![64, 48]);
        assert_eq!(p.n_threads, 1);
        let tiles = p.tiles();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].extent, vec![64, 48]);
    }

    #[test]
    fn tiles_cover_grid_exactly() {
        let mut s = Schedule::default();
        s.tile(&[32, 48]); // 100/32 and 100/48 leave remainders
        let p = ExecPlan::lower(&s, 2, &[100, 100]).unwrap();
        let tiles = p.tiles();
        let total: usize = tiles.iter().map(|t| t.elems()).sum();
        assert_eq!(total, 100 * 100);
        // Remainder tiles are clamped.
        let max_x = tiles.iter().map(|t| t.origin[0] + t.extent[0]).max();
        assert_eq!(max_x, Some(100));
    }

    #[test]
    fn tiles_are_disjoint() {
        let mut s = Schedule::default();
        s.tile(&[3, 5]);
        let p = ExecPlan::lower(&s, 2, &[7, 11]).unwrap();
        let mut seen = [false; 7 * 11];
        for t in p.tiles() {
            for x in t.origin[0]..t.origin[0] + t.extent[0] {
                for y in t.origin[1]..t.origin[1] + t.extent[1] {
                    let idx = x * 11 + y;
                    assert!(!seen[idx], "overlap at ({x},{y})");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn halo_overhead_shrinks_with_larger_tiles() {
        let mut s1 = Schedule::default();
        s1.tile(&[4, 4, 4]);
        let p1 = ExecPlan::lower(&s1, 3, &[256, 256, 256]).unwrap();
        let mut s2 = Schedule::default();
        s2.tile(&[32, 32, 32]);
        let p2 = ExecPlan::lower(&s2, 3, &[256, 256, 256]).unwrap();
        let r = [1, 1, 1];
        assert!(p1.halo_overhead(&r) > p2.halo_overhead(&r));
        assert!(p2.halo_overhead(&r) > 1.0);
    }

    #[test]
    fn task_order_respects_loop_order() {
        // Reorder so that y tiles vary fastest.
        let mut s = Schedule::default();
        s.tile(&[2, 2]).reorder(&["xo", "yo", "xi", "yi"]);
        let p = ExecPlan::lower(&s, 2, &[4, 4]).unwrap();
        let tiles = p.tiles();
        assert_eq!(tiles[0].origin, vec![0, 0]);
        assert_eq!(tiles[1].origin, vec![0, 2]);
        assert_eq!(tiles[2].origin, vec![2, 0]);
    }
}
