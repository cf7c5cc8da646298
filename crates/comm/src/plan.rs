//! The halo plan (paper §4.4, Figure 6(b)/(c)): per rank, a fixed table of
//! *(neighbour, inner-halo box to pack and `isend`, outer-halo box to
//! `irecv` and unpack)*, computed once from the decomposition, and the one
//! loop that executes it.
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
//! **Tags.** A message's tag is `slot << 8 | low`, where `slot` is the
//! time-window slot being published (keeps exchanges of different window
//! buffers apart) and `low` names the message within the plan:
//! `dim << 1 | (dir > 0)` for a dimension-ordered face, the index of the
//! offset vector in lexicographic `{−1, 0, 1}^n` order (zero vector
//! skipped) for a full-neighbour block. A receive is posted under the tag
//! the *peer* sends with: the opposite direction, or the negated offset.
//!
//! **Send order.** Messages are posted phase by phase and, inside a
//! phase, in table order (dimension ascending then −1 before +1; offset
//! index ascending). The per-destination order of sends is therefore a
//! function of the decomposition alone. The chaos injector keys its
//! decisions on `(src, dst, tag, seq, attempt)` with `seq` counted per
//! destination, so this order is part of the wire format: the fixed-seed
//! chaos and recovery suites replay the same fault schedule only as long
//! as it does not change.

use crate::decomp::CartDecomp;
use crate::error::CommError;
use crate::region::Region;
use crate::runtime::{RankCtx, RecvRequest, Wire};
use msc_exec::{Grid, Scalar};
use msc_trace::{Counter, Hist};

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

/// One row of the plan. Boxes are in local padded coordinates; tags are
/// the low bits only (the executor adds the slot).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HaloMsg {
    peer: usize,
    send: Region,
    recv: Region,
    send_tag: u64,
    recv_tag: u64,
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

/// Phase 0's posted receives, between [`HaloPlan::begin`] and
/// [`HaloPlan::finish`].
pub struct PendingExchange(Vec<RecvRequest>);

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

    /// Does any message of the plan pack a cell of `cells` (a box in
    /// local padded coordinates)? The overlap schedule computes exactly
    /// those tiles before it initiates the exchange.
    pub fn sends_from(&self, cells: &Region) -> bool {
        self.phases
            .iter()
            .flatten()
            .any(|m| m.send.intersects(cells))
    }

    /// Publish the halo of `grid` for this rank: every phase in order.
    /// Faults that recovery cannot hide surface as [`CommError`].
    pub fn exchange<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
    ) -> Result<(), CommError> {
        let pending = self.begin(ctx, grid, slot)?;
        self.finish(ctx, grid, slot, pending)
    }

    /// Initiate the exchange: count the chaos exchange round (exactly
    /// once per exchange) and post phase 0, whose send boxes read only
    /// the inner halo band of `grid` — the caller may keep computing
    /// cells no message sends from ([`HaloPlan::sends_from`]) while the
    /// messages are in flight. Later phases pack halo cells received in
    /// earlier ones, so they wait for [`HaloPlan::finish`].
    pub fn begin<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &Grid<T>,
        slot: usize,
    ) -> Result<PendingExchange, CommError> {
        let _span = msc_trace::span("halo_exchange");
        ctx.begin_exchange()?;
        let reqs = match self.phases.first() {
            Some(phase) => post(ctx, grid, slot, phase)?,
            None => Vec::new(),
        };
        Ok(PendingExchange(reqs))
    }

    /// Complete an exchange started by [`HaloPlan::begin`] on the same
    /// plan: wait for phase 0 and unpack it, then post and complete every
    /// remaining phase.
    pub fn finish<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
        pending: PendingExchange,
    ) -> Result<(), CommError> {
        let _span = msc_trace::span("halo_exchange");
        let mut posted = Some(pending.0);
        for phase in &self.phases {
            let reqs = match posted.take() {
                Some(reqs) => reqs,
                None => post(ctx, grid, slot, phase)?,
            };
            complete(ctx, grid, phase, reqs)?;
        }
        Ok(())
    }
}

/// Post a phase: pack and `isend` each message, `irecv` its counterpart.
fn post<T: Scalar + Wire>(
    ctx: &mut RankCtx<T>,
    grid: &Grid<T>,
    slot: usize,
    phase: &[HaloMsg],
) -> Result<Vec<RecvRequest>, CommError> {
    let slot_bits = (slot as u64) << 8;
    let mut reqs = Vec::with_capacity(phase.len());
    for m in phase {
        let payload = {
            let _t = msc_trace::timed_hist(Counter::PackNanos, Hist::PackHistNanos);
            m.send.pack(grid)
        };
        let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
        ctx.counters.bump(Counter::HaloMessages, 1);
        ctx.counters.bump(Counter::HaloBytes, bytes);
        msc_trace::record(Counter::HaloMessages, 1);
        msc_trace::record(Counter::HaloBytes, bytes);
        ctx.isend(m.peer, slot_bits | m.send_tag, payload)?;
        reqs.push(ctx.irecv(m.peer, slot_bits | m.recv_tag));
    }
    Ok(reqs)
}

/// Complete a posted phase: wait for each message in table order and
/// unpack it into the outer halo. A payload of the wrong length for its
/// box came from a peer running a different plan (or a damaged frame the
/// checksum missed): a typed error, never a panic in `unpack`.
fn complete<T: Scalar + Wire>(
    ctx: &mut RankCtx<T>,
    grid: &mut Grid<T>,
    phase: &[HaloMsg],
    reqs: Vec<RecvRequest>,
) -> Result<(), CommError> {
    for (m, req) in phase.iter().zip(reqs) {
        let tag = req.tag();
        let data = ctx.wait(req)?;
        if data.len() != m.recv.len() {
            return Err(CommError::Corrupt { src: m.peer, tag });
        }
        let _t = msc_trace::timed_hist(Counter::UnpackNanos, Hist::UnpackHistNanos);
        m.recv.unpack(grid, &data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;

    const BACKENDS: [Backend; 2] = [Backend::DimOrdered, Backend::FullNeighbor];

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
        plan.phases.iter().map(Vec::len).sum()
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

    fn lin(g: &Grid<f64>, idx: &[usize]) -> usize {
        idx.iter().zip(&g.strides).map(|(&i, &s)| i * s).sum()
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
            for rank in 0..d.n_ranks() {
                // Per padded cell, how many receive boxes cover it.
                let cover = |backend| {
                    let mut g: Grid<f64> = Grid::zeros(&sub, &d.reach);
                    for m in HaloPlan::new(&d, rank, backend).phases.iter().flatten() {
                        let bumped: Vec<f64> = m.recv.pack(&g).iter().map(|&n| n + 1.0).collect();
                        m.recv.unpack(&mut g, &bumped);
                    }
                    g
                };
                let (ordered, full) = (cover(Backend::DimOrdered), cover(Backend::FullNeighbor));
                for idx in cells(&ordered.padded) {
                    // Which neighbour owns the cell: −1/0/+1 per dim.
                    let offset: Vec<i64> = (0..d.ndim())
                        .map(|k| match idx[k] {
                            i if i < d.reach[k] => -1,
                            i if i >= d.reach[k] + sub[k] => 1,
                            _ => 0,
                        })
                        .collect();
                    let at = lin(&ordered, &idx);
                    let (o, f) = (ordered.as_slice()[at], full.as_slice()[at]);
                    let ctx = format!("{d:?} rank {rank} cell {idx:?}");
                    if offset.iter().all(|&x| x == 0) {
                        assert_eq!((o, f), (0.0, 0.0), "interior received into: {ctx}");
                    } else if d.neighbor_at(rank, &offset).is_some() {
                        assert_eq!((o, f), (1.0, 1.0), "owned halo cell: {ctx}");
                    } else {
                        // Outside the global domain. Full-neighbour never
                        // touches it; dimension-ordered may carry it along
                        // inside a widened face (the peer's copy of the
                        // same physical-boundary cell), at most once.
                        assert_eq!(f, 0.0, "{ctx}");
                        assert!(o <= 1.0, "{ctx}");
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
                if d.reach.iter().all(|&r| r > 0) {
                    assert_eq!(faces, d.n_neighbors(rank));
                }
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
        let sent: usize = plan.phases.iter().flatten().map(|m| m.send.len()).sum();
        assert_eq!(sent, 4 + 6);

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

    /// The value a cell of the global grid holds, by global coordinate.
    fn global_value(gc: &[i64]) -> f64 {
        gc.iter().fold(1.0, |acc, &c| acc * 31.0 + c as f64)
    }

    /// Give every rank its interior's true values and NaN everywhere else,
    /// exchange once, and require that every padded cell that maps inside
    /// the global domain (through the wrap, when periodic) now holds the
    /// owner's value. Also checks the messages a rank sent against its plan.
    fn check_exchange(global: &[usize], procs: &[usize], reach: &[usize], periodic: bool) {
        let decomp = decomp(global, procs, reach, periodic);
        let sub = decomp.sub_extent();
        // Global coordinate of a local padded index, wrapped if periodic.
        let global_coord = |rank: usize, idx: &[usize]| -> Option<Vec<i64>> {
            let origin = decomp.origin_of(rank);
            (0..idx.len())
                .map(|d| {
                    let c = (origin[d] + idx[d]) as i64 - reach[d] as i64;
                    let n = global[d] as i64;
                    match periodic {
                        true => Some(c.rem_euclid(n)),
                        false => (0..n).contains(&c).then_some(c),
                    }
                })
                .collect()
        };
        for backend in BACKENDS {
            let grids: Vec<(Grid<f64>, u64)> = World::run(decomp.n_ranks(), |mut ctx| {
                let mut g: Grid<f64> = Grid::zeros(&sub, reach);
                for idx in cells(&g.padded.clone()) {
                    let interior =
                        (0..idx.len()).all(|d| (reach[d]..reach[d] + sub[d]).contains(&idx[d]));
                    let at = lin(&g, &idx);
                    g.as_mut_slice()[at] = match global_coord(ctx.rank, &idx) {
                        Some(gc) if interior => global_value(&gc),
                        _ => f64::NAN,
                    };
                }
                let plan = HaloPlan::new(&decomp, ctx.rank, backend);
                plan.exchange(&mut ctx, &mut g, 0).unwrap();
                assert_eq!(ctx.sent_msgs, n_messages(&plan) as u64);
                (g, ctx.counters.get(Counter::HaloMessages))
            });
            for (rank, (g, counted)) in grids.iter().enumerate() {
                assert_eq!(
                    *counted as usize,
                    n_messages(&HaloPlan::new(&decomp, rank, backend))
                );
                for idx in cells(&g.padded) {
                    if let Some(gc) = global_coord(rank, &idx) {
                        let v = g.as_slice()[lin(g, &idx)];
                        assert!(
                            v == global_value(&gc),
                            "{backend:?} rank {rank} at {gc:?}: got {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_2d_figure6() {
        check_exchange(&[8, 8], &[2, 2], &[1, 1], false);
    }

    #[test]
    fn exchange_2d_wide_halo() {
        // Corners matter with reach 2 (box stencils).
        check_exchange(&[12, 12], &[2, 2], &[2, 2], false);
    }

    #[test]
    fn exchange_3d() {
        check_exchange(&[8, 8, 8], &[2, 2, 2], &[1, 1, 1], false);
    }

    #[test]
    fn exchange_asymmetric_procs() {
        check_exchange(&[16, 8], &[4, 1], &[2, 2], false);
    }

    #[test]
    fn exchange_on_a_torus_with_self_messages() {
        // Dim 1 has one process: both of its faces wrap onto the sender.
        check_exchange(&[16, 8], &[4, 1], &[2, 1], true);
        check_exchange(&[8, 8, 12], &[1, 1, 2], &[1, 1, 1], true);
    }

    #[test]
    fn a_mis_sized_payload_is_a_typed_error_not_a_panic() {
        // Rank 1 answers rank 0's face under the right tag with too few
        // elements (a peer running some other plan). Rank 0 must get
        // `Corrupt` naming the peer and tag; the world is not poisoned.
        let d = decomp(&[8, 8], &[2, 1], &[1, 1], false);
        let results = World::try_run(2, |mut ctx: RankCtx<f64>| {
            if ctx.rank == 0 {
                let mut g: Grid<f64> = Grid::zeros(&d.sub_extent(), &d.reach);
                let plan = HaloPlan::new(&d, 0, Backend::DimOrdered);
                plan.exchange(&mut ctx, &mut g, 3).err()
            } else {
                // Rank 0's +1 face along dim 0 arrives under tag
                // slot<<8 | 0<<1 | 1 and expects our −1 face back.
                ctx.isend(0, 3 << 8, vec![1.0; 3]).unwrap();
                let req = ctx.irecv(0, 3 << 8 | 1);
                ctx.wait(req).unwrap();
                None
            }
        })
        .expect("a short payload must not poison the world");
        assert_eq!(
            results[0],
            Some(CommError::Corrupt {
                src: 1,
                tag: 3 << 8
            })
        );
        assert_eq!(results[1], None);
    }
}
