//! The halo exchange as data (paper §4.4, Figure 6): the even Cartesian
//! decomposition ([`CartDecomp`]) and, per rank, a fixed table of
//! *(neighbour, inner-halo box to pack and `isend`, outer-halo box to
//! `irecv` and unpack)* computed once from it ([`HaloPlan`]). This module
//! is the only place that derives which box goes to which neighbour; the
//! runtime (`msc-comm`) executes the table, the MPI code generator prints
//! it, and the simulator and the tuner's model charge its volume
//! ([`HaloPlan::volume`]).
//!
//! A **phase** is a set of messages whose send boxes hold only cells that
//! are already final when the phase is posted, so all of them may be in
//! flight at once; phases run strictly one after another. The two halo
//! libraries (paper Table 1, "pluggable library") differ only in how they
//! cut the halo into phases:
//!
//! * [`Backend::DimOrdered`] — MSC's default. One phase per dimension
//!   with `reach > 0`, at most two face messages each. The faces of
//!   dimension `d` span the full *padded* range of every dimension `< d`,
//!   i.e. they forward halo cells received in earlier phases; that is how
//!   edge and corner values (box stencils need them) reach diagonal
//!   neighbours without a message of their own, and why the phases must
//!   be ordered.
//! * [`Backend::FullNeighbor`] — GCL-style. Every one of the `3^n − 1`
//!   neighbour offsets gets its own message carrying exactly its face,
//!   edge or corner block. All send boxes are pure interior, so there is
//!   nothing to order: a single phase.
//!
//! **Tags.** A message's tag names it within the plan:
//! `dim << 1 | (dir > 0)` for a dimension-ordered face, the index of the
//! offset vector in lexicographic `{−1, 0, 1}^n` order (zero vector
//! skipped) for a full-neighbour block. A receive is posted under the tag
//! the *peer* sends with: the opposite direction, or the negated offset.
//! (The runtime ORs the time-window slot being published in above bit 8.)
//!
//! **Send order.** Messages are posted phase by phase and, inside a
//! phase, in table order (dimension ascending then −1 before +1; offset
//! index ascending). The per-destination order of sends is therefore a
//! function of the decomposition alone. The chaos injector keys its
//! decisions on `(src, dst, tag, seq, attempt)` with `seq` counted per
//! destination, so this order is part of the wire format: the fixed-seed
//! chaos and recovery suites replay the same fault schedule only as long
//! as it does not change.
//!
//! **Rows do not depend on the rank.** The decomposition is even, so the
//! boxes and tags of the message toward a given offset are the same on
//! every rank that has that neighbour; a rank's plan is the subset of
//! rows whose peer exists. Any rank of the all-periodic twin of a
//! decomposition therefore carries every row — what the emitted MPI C
//! prints once and lets `MPI_Cart_shift` select from.

use crate::dsl::{proc_grid_defects, ProcGridDefect};
use crate::error::{MscError, Result};

/// Cartesian decomposition of a global grid over a process grid: every
/// sub-tensor has the same extents and carries a halo.
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
        // The rule is shared with lint L403/L404.
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

/// A box of padded-grid coordinates: `start[d] .. start[d] + extent[d]`.
/// Copying one out of and into a grid is `msc_exec::Grid::{pack, unpack}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub start: Vec<usize>,
    pub extent: Vec<usize>,
}

impl Region {
    pub fn new(start: Vec<usize>, extent: Vec<usize>) -> Region {
        assert_eq!(start.len(), extent.len());
        Region { start, extent }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.extent.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Do the two boxes share at least one cell?
    pub fn intersects(&self, other: &Region) -> bool {
        (0..self.start.len()).all(|d| {
            let end = (self.start[d] + self.extent[d]).min(other.start[d] + other.extent[d]);
            self.start[d].max(other.start[d]) < end
        })
    }
}

/// How the halo is cut into messages, as selected by `RunOptions::backend`.
/// Both are bit-identical to the single-node run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Dimension-ordered, asynchronous, face-only messages; corners
    /// propagate through the phase order.
    DimOrdered,
    /// GCL-style: one phase, all `3^n − 1` neighbours, explicit edge and
    /// corner messages.
    FullNeighbor,
}

/// One row of the plan. Boxes are in local padded coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloMsg {
    /// Where the neighbour sits: −1, 0 or +1 per dimension.
    pub offset: Vec<i64>,
    pub peer: usize,
    pub send: Region,
    pub recv: Region,
    pub send_tag: u64,
    pub recv_tag: u64,
}

impl HaloMsg {
    /// The message exchanged with the neighbour at `offset`, if it exists.
    /// Along a dimension the offset moves in, the send box is the inner
    /// halo band on that side and the receive box the outer one; along the
    /// others both span the interior — or, for dimensions below `widened`,
    /// the whole padded range.
    fn toward(
        decomp: &CartDecomp,
        rank: usize,
        offset: &[i64],
        widened: usize,
        send_tag: u64,
        recv_tag: u64,
    ) -> Option<HaloMsg> {
        let peer = decomp.neighbor_at(rank, offset)?;
        let sub = decomp.sub_extent();
        let ndim = decomp.ndim();
        let mut send = Region::new(vec![0; ndim], vec![0; ndim]);
        let mut recv = send.clone();
        for d in 0..ndim {
            let (r, s) = (decomp.reach[d], sub[d]);
            let ((send_start, recv_start), extent) = match offset[d] {
                0 if d < widened => ((0, 0), s + 2 * r),
                0 => ((r, r), s),
                1.. => ((s, r + s), r),
                _ => ((r, 0), r),
            };
            (send.start[d], send.extent[d]) = (send_start, extent);
            (recv.start[d], recv.extent[d]) = (recv_start, extent);
        }
        Some(HaloMsg {
            offset: offset.to_vec(),
            peer,
            send,
            recv,
            send_tag,
            recv_tag,
        })
    }
}

/// All non-zero offset vectors in `{−1, 0, 1}^ndim`, lexicographic with
/// dimension 0 slowest. Negating a vector reverses the order, so the
/// mirror of entry `i` is entry `len − 1 − i`.
fn offsets(ndim: usize) -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    for _ in 0..ndim {
        out = out
            .into_iter()
            .flat_map(|v| [-1i64, 0, 1].map(|o| [v.as_slice(), &[o]].concat()))
            .collect();
    }
    out.retain(|v| v.iter().any(|&o| o != 0));
    out
}

/// One rank's halo exchange as data: every message of every phase, with
/// its peer, boxes and tags resolved. Built once per rank per attempt (a
/// spare that adopts a subdomain builds the plan of its new identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloPlan {
    phases: Vec<Vec<HaloMsg>>,
}

impl HaloPlan {
    pub fn new(decomp: &CartDecomp, rank: usize, backend: Backend) -> HaloPlan {
        let ndim = decomp.ndim();
        let phases = match backend {
            Backend::DimOrdered => (0..ndim)
                .filter(|&dim| decomp.reach[dim] > 0)
                .map(|dim| {
                    let tag = |dir: i64| (dim as u64) << 1 | u64::from(dir > 0);
                    [-1i64, 1]
                        .into_iter()
                        .filter_map(|dir| {
                            let mut offset = vec![0; ndim];
                            offset[dim] = dir;
                            HaloMsg::toward(decomp, rank, &offset, dim, tag(dir), tag(-dir))
                        })
                        .collect()
                })
                .collect(),
            Backend::FullNeighbor => {
                let offsets = offsets(ndim);
                let msgs = offsets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, offset)| {
                        let mirror = offsets.len() - 1 - i;
                        HaloMsg::toward(decomp, rank, offset, 0, i as u64, mirror as u64)
                    })
                    .collect();
                vec![msgs]
            }
        };
        HaloPlan { phases }
    }

    /// The table: phases in the order they run, messages in the order
    /// they are posted.
    pub fn phases(&self) -> &[Vec<HaloMsg>] {
        &self.phases
    }

    /// Does any message of the plan pack a cell of `cells` (a box in
    /// local padded coordinates)? The overlap schedule computes exactly
    /// those tiles before it initiates the exchange.
    pub fn sends_from(&self, cells: &Region) -> bool {
        self.phases
            .iter()
            .flatten()
            .any(|m| m.send.intersects(cells))
    }

    /// `(messages, elements)` this rank sends in one exchange — the one
    /// answer to "what does an exchange cost a rank" for the runtime's
    /// counters, the simulator and the tuner's model. By the mirror
    /// property it is also what the rank receives.
    pub fn volume(&self) -> (usize, usize) {
        let msgs = self.phases.iter().flatten();
        (msgs.clone().count(), msgs.map(|m| m.send.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [Backend; 2] = [Backend::DimOrdered, Backend::FullNeighbor];

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
        assert_eq!(d.neighbor(0, 1, -1), None);
        assert_eq!(d.neighbor(0, 1, 1), Some(1));
        // Middle rank of a 3x3 grid has all 4 neighbours.
        let d3 = CartDecomp::new(&[9, 9], &[3, 3], &[1, 1]).unwrap();
        let faces = [(0, -1), (0, 1), (1, -1), (1, 1)].map(|(d, dir)| d3.neighbor(4, d, dir));
        assert_eq!(faces, [Some(1), Some(7), Some(3), Some(5)]);
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

    #[test]
    fn boxes_intersect_only_when_every_dimension_overlaps() {
        let a = Region::new(vec![1, 1], vec![2, 3]); // rows 1..3, cols 1..4
        assert!(a.intersects(&Region::new(vec![2, 3], vec![4, 4])));
        assert!(!a.intersects(&Region::new(vec![3, 1], vec![2, 2]))); // touches in dim 0
        assert!(!a.intersects(&Region::new(vec![1, 4], vec![2, 1]))); // touches in dim 1
        assert!(!a.intersects(&Region::new(vec![2, 2], vec![0, 1]))); // empty, inside
    }

    fn decomp(global: &[usize], procs: &[usize], reach: &[usize], periodic: bool) -> CartDecomp {
        CartDecomp::new(global, procs, reach)
            .unwrap()
            .with_periodicity(&vec![periodic; global.len()])
            .unwrap()
    }

    /// 1–3-D decompositions with interior, face, edge and corner ranks:
    /// open and periodic, a periodic dimension with a single process
    /// (self-messages in both directions), a dimension nothing reaches
    /// into, and asymmetric reach.
    fn decomps() -> Vec<CartDecomp> {
        vec![
            decomp(&[8], &[2], &[1], false),
            decomp(&[8], &[4], &[2], true),
            decomp(&[8, 8], &[2, 2], &[1, 1], false),
            decomp(&[12, 8], &[2, 2], &[2, 1], false),
            decomp(&[9, 9], &[3, 3], &[1, 1], false),
            decomp(&[16, 8], &[4, 1], &[2, 2], true),
            decomp(&[8, 8], &[2, 2], &[1, 0], false),
            decomp(&[12, 12, 12], &[2, 2, 2], &[2, 1, 2], false),
            decomp(&[8, 8, 12], &[1, 1, 2], &[1, 1, 1], true),
            decomp(&[9, 9, 9], &[3, 3, 3], &[1, 1, 1], false),
        ]
    }

    fn n_messages(plan: &HaloPlan) -> usize {
        plan.volume().0
    }

    /// Every index vector of a box of the given extents, row-major.
    fn cells(extent: &[usize]) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for &e in extent {
            out = out
                .into_iter()
                .flat_map(|c| (0..e).map(move |i| [c.as_slice(), &[i]].concat()))
                .collect();
        }
        out
    }

    #[test]
    fn every_message_has_its_mirror_in_the_peers_plan() {
        // What rank A packs toward B must be what B expects from A: one
        // message in B's plan whose receive tag is A's send tag, with a
        // receive box shaped like A's send box.
        for d in decomps() {
            for backend in BACKENDS {
                let plans: Vec<HaloPlan> = (0..d.n_ranks())
                    .map(|r| HaloPlan::new(&d, r, backend))
                    .collect();
                for (rank, plan) in plans.iter().enumerate() {
                    for m in plan.phases.iter().flatten() {
                        let mirrors: Vec<&HaloMsg> = plans[m.peer]
                            .phases
                            .iter()
                            .flatten()
                            .filter(|p| p.peer == rank && p.recv_tag == m.send_tag)
                            .collect();
                        assert_eq!(mirrors.len(), 1, "{d:?} {backend:?} rank {rank} {m:?}");
                        assert_eq!(mirrors[0].recv.extent, m.send.extent, "{d:?} {backend:?}");
                        assert!(m.send_tag < 1 << 8 && m.recv_tag < 1 << 8);
                    }
                }
            }
        }
    }

    #[test]
    fn both_backends_receive_every_halo_cell_that_has_an_owner_exactly_once() {
        for d in decomps() {
            let sub = d.sub_extent();
            let padded: Vec<usize> = sub.iter().zip(&d.reach).map(|(&s, &r)| s + 2 * r).collect();
            for rank in 0..d.n_ranks() {
                // How many receive boxes of a plan cover a padded cell.
                let plans = BACKENDS.map(|backend| HaloPlan::new(&d, rank, backend));
                let cover = |plan: &HaloPlan, idx: &[usize]| {
                    let cell = Region::new(idx.to_vec(), vec![1; idx.len()]);
                    let msgs = plan.phases.iter().flatten();
                    msgs.filter(|m| m.recv.intersects(&cell)).count()
                };
                for idx in cells(&padded) {
                    // Which neighbour owns the cell: −1/0/+1 per dim.
                    let offset: Vec<i64> = (0..d.ndim())
                        .map(|k| match idx[k] {
                            i if i < d.reach[k] => -1,
                            i if i >= d.reach[k] + sub[k] => 1,
                            _ => 0,
                        })
                        .collect();
                    let (o, f) = (cover(&plans[0], &idx), cover(&plans[1], &idx));
                    let ctx = format!("{d:?} rank {rank} cell {idx:?}");
                    if offset.iter().all(|&x| x == 0) {
                        assert_eq!((o, f), (0, 0), "interior received into: {ctx}");
                    } else if d.neighbor_at(rank, &offset).is_some() {
                        assert_eq!((o, f), (1, 1), "owned halo cell: {ctx}");
                    } else {
                        // Outside the global domain. Full-neighbour never
                        // touches it; dimension-ordered may carry it along
                        // inside a widened face (the peer's copy of the
                        // same physical-boundary cell), at most once.
                        assert_eq!(f, 0, "{ctx}");
                        assert!(o <= 1, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn message_counts_match_the_neighbour_counts() {
        for d in decomps() {
            for rank in 0..d.n_ranks() {
                // Dimension-ordered: one message per face neighbour along
                // the dimensions something reaches into.
                let faces = (0..d.ndim())
                    .filter(|&k| d.reach[k] > 0)
                    .flat_map(|k| [(k, -1), (k, 1)])
                    .filter(|&(k, dir)| d.neighbor(rank, k, dir).is_some())
                    .count();
                let plan = HaloPlan::new(&d, rank, Backend::DimOrdered);
                assert_eq!(n_messages(&plan), faces, "{d:?} rank {rank}");
                assert!(plan.phases.iter().all(|p| p.len() <= 2));
                assert_eq!(
                    plan.phases.len(),
                    d.reach.iter().filter(|&&r| r > 0).count()
                );
                // Full-neighbour: one message per existing offset, one phase.
                let plan = HaloPlan::new(&d, rank, Backend::FullNeighbor);
                let expected = offsets(d.ndim())
                    .iter()
                    .filter(|o| d.neighbor_at(rank, o).is_some())
                    .count();
                assert_eq!(n_messages(&plan), expected, "{d:?} rank {rank}");
                assert_eq!(plan.phases.len(), 1);
            }
        }
        assert_eq!(offsets(2).len(), 8);
        assert_eq!(offsets(3).len(), 26);
        // The corner accounting of a 3x3 grid: the centre rank talks to
        // all 8 neighbours, a corner rank to 3; a fully periodic 3-D rank
        // to all 26 (here mostly itself).
        let d = decomp(&[9, 9], &[3, 3], &[1, 1], false);
        assert_eq!(n_messages(&HaloPlan::new(&d, 4, Backend::FullNeighbor)), 8);
        assert_eq!(n_messages(&HaloPlan::new(&d, 0, Backend::FullNeighbor)), 3);
        let d = decomp(&[8, 8, 12], &[1, 1, 2], &[1, 1, 1], true);
        assert_eq!(n_messages(&HaloPlan::new(&d, 0, Backend::FullNeighbor)), 26);
        assert_eq!(n_messages(&HaloPlan::new(&d, 0, Backend::DimOrdered)), 6);
    }

    #[test]
    fn figure6_boxes_and_tags() {
        // The paper's Figure 6: 8x8 grid, 2x2 process grid, halo 1; rank 0
        // has a +1 neighbour in each dimension.
        let d = decomp(&[8, 8], &[2, 2], &[1, 1], false);
        let plan = HaloPlan::new(&d, 0, Backend::DimOrdered);
        let [dim0, dim1] = [&plan.phases[0][0], &plan.phases[1][0]];
        // Dim 0: send the last interior row (padded coord 4 = halo 1 +
        // sub 4 − 1), interior columns only; receive the outer halo row.
        assert_eq!((dim0.peer, dim0.send_tag, dim0.recv_tag), (2, 1, 0));
        assert_eq!(dim0.send, Region::new(vec![4, 1], vec![1, 4]));
        assert_eq!(dim0.recv, Region::new(vec![5, 1], vec![1, 4]));
        // Dim 1, exchanged after dim 0: the face spans the full padded
        // dim-0 range, carrying the corner data just received.
        assert_eq!((dim1.peer, dim1.send_tag, dim1.recv_tag), (1, 3, 2));
        assert_eq!(dim1.send, Region::new(vec![0, 4], vec![6, 1]));
        assert_eq!(dim1.recv, Region::new(vec![0, 5], vec![6, 1]));
        // Elements rank 0 sends per exchange round: 1x4 + 6x1.
        assert_eq!(plan.volume(), (2, 4 + 6));

        // Full-neighbour blocks have face / corner shapes, never a halo
        // cell in a send box.
        let d = decomp(&[8, 8], &[2, 2], &[2, 2], false);
        let plan = HaloPlan::new(&d, 0, Backend::FullNeighbor);
        let msg = |peer| plan.phases[0].iter().find(|m| m.peer == peer).unwrap();
        // offsets(2): (-1,-1) (-1,0) (-1,1) (0,-1) | (0,1) (1,-1) (1,0) (1,1)
        assert_eq!((msg(3).send_tag, msg(3).recv_tag), (7, 0)); // corner (1,1)
        assert_eq!(msg(3).send, Region::new(vec![4, 4], vec![2, 2]));
        assert_eq!(msg(3).recv, Region::new(vec![6, 6], vec![2, 2]));
        assert_eq!((msg(2).send_tag, msg(2).recv_tag), (6, 1)); // face (1,0)
        assert_eq!(msg(2).send, Region::new(vec![4, 2], vec![2, 4]));
        // A rank with a (-1,-1) neighbour receives that corner at the origin.
        let plan = HaloPlan::new(&d, 3, Backend::FullNeighbor);
        assert_eq!(plan.phases[0][0].recv, Region::new(vec![0, 0], vec![2, 2]));
    }

    #[test]
    fn a_rank_of_the_periodic_twin_carries_every_row_of_every_rank() {
        // What lets the emitted MPI C print one table for all ranks: the
        // message toward an offset has the same boxes and tags on every
        // rank that has that neighbour.
        for d in decomps() {
            let twin = d.clone().with_periodicity(&vec![true; d.ndim()]).unwrap();
            for backend in BACKENDS {
                let all = HaloPlan::new(&twin, 0, backend);
                let row = |m: &HaloMsg| {
                    let found = all.phases.iter().flatten().find(|a| a.offset == m.offset);
                    let a = found.expect("the twin has every neighbour");
                    (a.send.clone(), a.recv.clone(), a.send_tag, a.recv_tag)
                };
                for rank in 0..d.n_ranks() {
                    for m in HaloPlan::new(&d, rank, backend).phases.iter().flatten() {
                        let mine = (m.send.clone(), m.recv.clone(), m.send_tag, m.recv_tag);
                        assert_eq!(mine, row(m), "{d:?} {backend:?} rank {rank}");
                    }
                }
            }
        }
    }
}
