//! Cartesian domain decomposition (paper §4.4, Figure 6): the global grid
//! is divided evenly over an MPI process grid and every sub-tensor carries
//! a halo. Which boxes of it are sent and received is the halo plan's
//! business ([`crate::plan`]); this module only knows who sits where.

use msc_core::dsl::{proc_grid_defects, ProcGridDefect};
use msc_core::error::{MscError, Result};

/// Cartesian decomposition of a global grid over a process grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartDecomp {
    /// Global grid extents.
    pub global: Vec<usize>,
    /// Processes per dimension.
    pub procs: Vec<usize>,
    /// Halo width per dimension (the stencil reach).
    pub reach: Vec<usize>,
    /// Per-dimension periodicity: `true` wraps the domain (torus).
    pub periodic: Vec<bool>,
}

impl CartDecomp {
    /// Build and validate: the grid must divide evenly (the paper's
    /// Tables 7/8 configurations all do) and each sub-extent must be at
    /// least the halo width.
    pub fn new(global: &[usize], procs: &[usize], reach: &[usize]) -> Result<CartDecomp> {
        if global.len() != procs.len() || global.len() != reach.len() {
            return Err(MscError::DimMismatch {
                expected: global.len(),
                got: procs.len().min(reach.len()),
            });
        }
        if let Some(d) = procs.iter().position(|&p| p == 0) {
            return Err(MscError::InvalidConfig(format!("zero procs in dim {d}")));
        }
        // The rule itself lives in `msc-core`, shared with lint L403/L404.
        if let Some(defect) = proc_grid_defects(global, procs, reach).next() {
            return Err(MscError::InvalidConfig(match defect {
                ProcGridDefect::Indivisible { dim, extent, procs } => {
                    format!("global extent {extent} not divisible by {procs} procs in dim {dim}")
                }
                ProcGridDefect::TooNarrow { dim, sub, reach } => {
                    format!("sub-extent {sub} smaller than halo {reach} in dim {dim}")
                }
            }));
        }
        Ok(CartDecomp {
            global: global.to_vec(),
            procs: procs.to_vec(),
            reach: reach.to_vec(),
            periodic: vec![false; global.len()],
        })
    }

    /// Make the given dimensions periodic (torus topology): boundary
    /// ranks exchange with the opposite side, and single-process
    /// dimensions wrap onto themselves.
    pub fn with_periodicity(mut self, periodic: &[bool]) -> Result<CartDecomp> {
        if periodic.len() != self.ndim() {
            return Err(MscError::DimMismatch {
                expected: self.ndim(),
                got: periodic.len(),
            });
        }
        self.periodic = periodic.to_vec();
        Ok(self)
    }

    pub fn ndim(&self) -> usize {
        self.global.len()
    }

    /// Total ranks.
    pub fn n_ranks(&self) -> usize {
        self.procs.iter().product()
    }

    /// Per-rank sub-grid extents.
    pub fn sub_extent(&self) -> Vec<usize> {
        self.global
            .iter()
            .zip(&self.procs)
            .map(|(&g, &p)| g / p)
            .collect()
    }

    /// Cartesian coordinates of a rank (row-major, dim 0 slowest).
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        let mut rem = rank;
        let mut coords = vec![0usize; self.ndim()];
        for d in (0..self.ndim()).rev() {
            coords[d] = rem % self.procs[d];
            rem /= self.procs[d];
        }
        coords
    }

    /// Rank of Cartesian coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        coords
            .iter()
            .zip(&self.procs)
            .fold(0usize, |acc, (&c, &p)| acc * p + c)
    }

    /// Global origin (interior coordinates) of a rank's sub-grid.
    pub fn origin_of(&self, rank: usize) -> Vec<usize> {
        let sub = self.sub_extent();
        self.coords_of(rank)
            .iter()
            .zip(&sub)
            .map(|(&c, &s)| c * s)
            .collect()
    }

    /// Neighbour rank at a multi-dimensional `offset` (one of −1, 0, +1
    /// per dimension); `None` where the offset leaves the process grid
    /// through a non-periodic side.
    pub fn neighbor_at(&self, rank: usize, offset: &[i64]) -> Option<usize> {
        let mut coords = self.coords_of(rank);
        for (d, &o) in offset.iter().enumerate() {
            if o == 0 {
                continue;
            }
            let p = self.procs[d] as i64;
            let c = coords[d] as i64 + o;
            let c = if self.periodic[d] {
                (c % p + p) % p
            } else if c < 0 || c >= p {
                return None;
            } else {
                c
            };
            coords[d] = c as usize;
        }
        Some(self.rank_of(&coords))
    }

    /// Face neighbour along `dim` in direction `dir` (±1).
    pub fn neighbor(&self, rank: usize, dim: usize, dir: i64) -> Option<usize> {
        let mut offset = vec![0; self.ndim()];
        offset[dim] = dir;
        self.neighbor_at(rank, &offset)
    }

    /// Number of face neighbours of a rank.
    pub fn n_neighbors(&self, rank: usize) -> usize {
        (0..self.ndim())
            .flat_map(|d| [(d, -1), (d, 1)])
            .filter(|&(d, dir)| self.neighbor(rank, d, dir).is_some())
            .count()
    }

    /// Buddy rank for diskless checkpoint replication: each rank ships
    /// its window snapshots to its ring successor, so the `n_ranks`
    /// copies form a single cycle — losing any one rank leaves both its
    /// own subdomain (held by its buddy) and the snapshot it held for
    /// its predecessor recoverable from survivors. Independent of the
    /// Cartesian topology on purpose: face neighbours tend to share
    /// hardware (paper §4.4 maps them to adjacent processes), which is
    /// exactly the correlated-failure domain a buddy must sit outside.
    pub fn buddy_of(&self, rank: usize) -> usize {
        (rank + 1) % self.n_ranks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d2x2() -> CartDecomp {
        // The paper's Figure 6: 8x8 grid, 2x2 MPI grid.
        CartDecomp::new(&[8, 8], &[2, 2], &[1, 1]).unwrap()
    }

    #[test]
    fn figure6_subtensors() {
        let d = d2x2();
        assert_eq!(d.n_ranks(), 4);
        assert_eq!(d.sub_extent(), vec![4, 4]);
        assert_eq!(d.origin_of(0), vec![0, 0]);
        assert_eq!(d.origin_of(3), vec![4, 4]);
    }

    #[test]
    fn coords_roundtrip() {
        let d = CartDecomp::new(&[64, 64, 64], &[4, 2, 8], &[1, 1, 1]).unwrap();
        for rank in 0..d.n_ranks() {
            assert_eq!(d.rank_of(&d.coords_of(rank)), rank);
        }
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let d = d2x2();
        // Rank 0 = coords (0,0): neighbours only in + directions.
        assert_eq!(d.neighbor(0, 0, -1), None);
        assert_eq!(d.neighbor(0, 0, 1), Some(2));
        assert_eq!(d.neighbor(0, 1, 1), Some(1));
        assert_eq!(d.n_neighbors(0), 2);
        // Middle rank of a 3x3 grid has 4 neighbours.
        let d3 = CartDecomp::new(&[9, 9], &[3, 3], &[1, 1]).unwrap();
        assert_eq!(d3.n_neighbors(4), 4);
    }

    #[test]
    fn validation_errors() {
        assert!(CartDecomp::new(&[10, 10], &[3, 1], &[1, 1]).is_err()); // indivisible
        assert!(CartDecomp::new(&[8, 8], &[8, 1], &[2, 2]).is_err()); // sub < halo
        assert!(CartDecomp::new(&[8, 8], &[0, 1], &[1, 1]).is_err());
        assert!(CartDecomp::new(&[8, 8], &[2], &[1, 1]).is_err());
    }

    #[test]
    fn buddy_ring_is_a_single_cycle() {
        let d = CartDecomp::new(&[64, 64, 64], &[2, 2, 2], &[1, 1, 1]).unwrap();
        let n = d.n_ranks();
        let mut seen = vec![false; n];
        let mut rank = 0usize;
        for _ in 0..n {
            assert!(!seen[rank], "buddy chain revisited rank {rank} early");
            seen[rank] = true;
            rank = d.buddy_of(rank);
        }
        assert_eq!(rank, 0, "buddy chain must close into one cycle");
        assert!(seen.iter().all(|&s| s));
    }
}
