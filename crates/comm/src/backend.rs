//! Pluggable halo-exchange backends (paper Table 1, "Pluggable library";
//! §4.4: "users can easily plug in their own halo-exchanging libraries
//! (e.g., GCL in STELLA) and seamlessly integrate with code generation").
//!
//! A backend is anything that can publish a rank's fresh state to its
//! neighbours. Two implementations ship:
//!
//! * [`crate::halo::HaloExchange`] — MSC's default: dimension-ordered,
//!   asynchronous, face-only messages (corners propagate through the
//!   ordering);
//! * [`FullNeighborExchange`] — GCL-style: one phase exchanging with all
//!   `3^d − 1` neighbours, including explicit edge/corner messages.
//!
//! Both are verified bit-identical against single-node execution;
//! [`Backend`] (the `backend` field of `RunOptions`) names the one a
//! distributed run uses.

use crate::decomp::CartDecomp;
use crate::error::CommError;
use crate::halo::HaloExchange;
use crate::region::Region;
use crate::runtime::{RankCtx, RecvRequest, Wire};
use msc_exec::{Grid, Scalar};
use msc_trace::Counter;

/// The shipped halo libraries, as selected by `RunOptions::backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// [`HaloExchange`]: dimension-ordered, asynchronous, face-only.
    DimOrdered,
    /// [`FullNeighborExchange`]: GCL-style, all `3^d − 1` neighbours.
    FullNeighbor,
}

/// In-flight state of a split-phase halo exchange, between
/// [`HaloBackend::exchange_begin`] and [`HaloBackend::exchange_finish`].
/// Opaque to callers; each backend stores what its finish phase needs.
pub struct PendingExchange {
    sent: usize,
    inner: PendingInner,
}

enum PendingInner {
    /// Backend has no split-phase support; finish runs the full exchange.
    NotStarted,
    /// Everything already posted *and* completed in the begin phase (or
    /// there was nothing to exchange).
    Done,
    /// Dimension-ordered: one dimension posted, the rest still to run.
    DimOrdered {
        dim: usize,
        reqs: Vec<(i64, RecvRequest)>,
    },
    /// GCL-style: every neighbour posted, all waits still to run.
    FullNeighbor {
        reqs: Vec<(Vec<i64>, RecvRequest)>,
    },
}

impl PendingExchange {
    /// `true` if the begin phase actually posted messages, i.e. finish
    /// will only wait/unpack (and possibly post later dimensions).
    pub fn started(&self) -> bool {
        !matches!(self.inner, PendingInner::NotStarted)
    }
}

/// A halo-exchange strategy: publish the halo of `grid` for this rank.
/// Returns the number of messages sent; unrecoverable faults (timeout,
/// dead peer, chaos kill) surface as [`CommError`].
pub trait HaloBackend: Sync {
    fn name(&self) -> &'static str;
    fn exchange<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
    ) -> Result<usize, CommError>;
    fn decomp(&self) -> &CartDecomp;

    /// Initiate the exchange: pack what can be packed without waiting and
    /// post the isend/irecv pairs, reading **only** the inner halo band
    /// of `grid` — the caller may keep computing interior cells (those at
    /// least `reach` away from every face) while the messages are in
    /// flight. Counts the chaos exchange round exactly once; the matching
    /// [`HaloBackend::exchange_finish`] must not count another.
    ///
    /// The default implementation posts nothing and defers the whole
    /// exchange to `exchange_finish`.
    fn exchange_begin<T: Scalar + Wire>(
        &self,
        _ctx: &mut RankCtx<T>,
        _grid: &Grid<T>,
        _slot: usize,
    ) -> Result<PendingExchange, CommError> {
        Ok(PendingExchange {
            sent: 0,
            inner: PendingInner::NotStarted,
        })
    }

    /// Complete an exchange started by [`HaloBackend::exchange_begin`]:
    /// wait for the posted messages, unpack into the halo, and run any
    /// remaining ordered phases. Returns the total number of messages
    /// sent across both phases.
    fn exchange_finish<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
        pending: PendingExchange,
    ) -> Result<usize, CommError> {
        match pending.inner {
            PendingInner::NotStarted => self.exchange(ctx, grid, slot),
            PendingInner::Done => Ok(pending.sent),
            // The defaults never build these; a backend that overrides
            // `exchange_begin` must override `exchange_finish` too.
            _ => unreachable!("backend overrode exchange_begin but not exchange_finish"),
        }
    }
}

impl HaloBackend for HaloExchange {
    fn name(&self) -> &'static str {
        "dimension-ordered-async"
    }

    fn exchange<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
    ) -> Result<usize, CommError> {
        HaloExchange::exchange(self, ctx, grid, slot)
    }

    fn decomp(&self) -> &CartDecomp {
        &self.decomp
    }

    /// Post the **first** exchanged dimension only. Its send regions read
    /// the pure inner halo band, which boundary tiles have already
    /// written; later dimensions' packs read halo cells received in
    /// earlier phases (`exch_span` widens dims `< dim` to the padded
    /// range), so they cannot be posted before their predecessors
    /// complete and stay in the finish phase.
    fn exchange_begin<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &Grid<T>,
        slot: usize,
    ) -> Result<PendingExchange, CommError> {
        let _span = msc_trace::span("halo_exchange");
        ctx.begin_exchange()?;
        let Some(dim) = (0..self.decomp.ndim()).find(|&d| self.decomp.reach[d] > 0) else {
            return Ok(PendingExchange {
                sent: 0,
                inner: PendingInner::Done,
            });
        };
        let (sent, reqs) = self.post_dim(ctx, grid, slot, dim)?;
        Ok(PendingExchange {
            sent,
            inner: PendingInner::DimOrdered { dim, reqs },
        })
    }

    fn exchange_finish<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
        pending: PendingExchange,
    ) -> Result<usize, CommError> {
        let PendingInner::DimOrdered { dim, reqs } = pending.inner else {
            return match pending.inner {
                PendingInner::NotStarted => self.exchange(ctx, grid, slot),
                _ => Ok(pending.sent),
            };
        };
        let _span = msc_trace::span("halo_exchange");
        let mut sent = pending.sent;
        self.wait_dim(ctx, grid, dim, reqs)?;
        for d in dim + 1..self.decomp.ndim() {
            if self.decomp.reach[d] == 0 {
                continue;
            }
            let (n, p) = self.post_dim(ctx, grid, slot, d)?;
            sent += n;
            self.wait_dim(ctx, grid, d, p)?;
        }
        Ok(sent)
    }
}

/// GCL-style exchange: every one of the `3^d − 1` neighbour offsets gets
/// its own message carrying exactly the face/edge/corner block it needs —
/// a single communication phase instead of `d` ordered ones.
#[derive(Debug, Clone)]
pub struct FullNeighborExchange {
    pub decomp: CartDecomp,
}

impl FullNeighborExchange {
    pub fn new(decomp: CartDecomp) -> FullNeighborExchange {
        FullNeighborExchange { decomp }
    }

    /// All non-zero offset vectors in {-1,0,1}^d.
    fn offsets(ndim: usize) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut v = vec![-1i64; ndim];
        loop {
            if v.iter().any(|&x| x != 0) {
                out.push(v.clone());
            }
            let mut d = ndim;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                v[d] += 1;
                if v[d] <= 1 {
                    break;
                }
                v[d] = -1;
            }
        }
    }

    /// Neighbour rank at a multi-dimensional offset, respecting
    /// per-dimension periodicity.
    fn neighbor_at(&self, rank: usize, v: &[i64]) -> Option<usize> {
        let mut coords = self.decomp.coords_of(rank);
        for (d, &o) in v.iter().enumerate() {
            if o == 0 {
                continue;
            }
            let p = self.decomp.procs[d] as i64;
            let c = coords[d] as i64 + o;
            let c = if self.decomp.periodic[d] {
                (c % p + p) % p
            } else if c < 0 || c >= p {
                return None;
            } else {
                c
            };
            coords[d] = c as usize;
        }
        Some(self.decomp.rank_of(&coords))
    }

    /// Interior block to *send* toward offset `v`.
    fn send_block(&self, v: &[i64]) -> Region {
        let sub = self.decomp.sub_extent();
        let r = &self.decomp.reach;
        let (start, extent): (Vec<usize>, Vec<usize>) = v
            .iter()
            .enumerate()
            .map(|(d, &o)| match o {
                0 => (r[d], sub[d]),
                1 => (r[d] + sub[d] - r[d], r[d]),
                _ => (r[d], r[d]),
            })
            .unzip();
        Region::new(start, extent)
    }

    /// Halo block that *receives* data arriving from offset `v`.
    fn recv_block(&self, v: &[i64]) -> Region {
        let sub = self.decomp.sub_extent();
        let r = &self.decomp.reach;
        let (start, extent): (Vec<usize>, Vec<usize>) = v
            .iter()
            .enumerate()
            .map(|(d, &o)| match o {
                0 => (r[d], sub[d]),
                1 => (r[d] + sub[d], r[d]),
                _ => (0, r[d]),
            })
            .unzip();
        Region::new(start, extent)
    }

    /// Tag for (slot, offset index).
    fn tag(slot: usize, v_idx: usize) -> u64 {
        (slot as u64) << 8 | v_idx as u64
    }
}

impl HaloBackend for FullNeighborExchange {
    fn name(&self) -> &'static str {
        "full-neighbor-gcl"
    }

    fn exchange<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
    ) -> Result<usize, CommError> {
        let pending = HaloBackend::exchange_begin(self, ctx, grid, slot)?;
        HaloBackend::exchange_finish(self, ctx, grid, slot, pending)
    }

    fn decomp(&self) -> &CartDecomp {
        &self.decomp
    }

    /// Single-phase protocol: every send block reads the pure interior
    /// (never a halo cell), so *all* `3^d − 1` messages can be posted up
    /// front and the whole communication overlaps interior compute.
    fn exchange_begin<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &Grid<T>,
        slot: usize,
    ) -> Result<PendingExchange, CommError> {
        let _span = msc_trace::span("halo_exchange");
        ctx.begin_exchange()?;
        let ndim = self.decomp.ndim();
        let offsets = Self::offsets(ndim);
        let mut sent = 0;
        let mut reqs = Vec::new();
        // Phase 1: post everything.
        for (i, v) in offsets.iter().enumerate() {
            if let Some(nb) = self.neighbor_at(ctx.rank, v) {
                let payload = {
                    let _t = msc_trace::timed_hist(Counter::PackNanos, msc_trace::Hist::PackHistNanos);
                    self.send_block(v).pack(grid)
                };
                let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
                ctx.counters.bump(Counter::HaloMessages, 1);
                ctx.counters.bump(Counter::HaloBytes, bytes);
                msc_trace::record(Counter::HaloMessages, 1);
                msc_trace::record(Counter::HaloBytes, bytes);
                ctx.isend(nb, Self::tag(slot, i), payload)?;
                sent += 1;
                // The matching inbound message comes from the neighbour's
                // *opposite* offset.
                let neg: Vec<i64> = v.iter().map(|&o| -o).collect();
                let neg_idx = offsets.iter().position(|o| o == &neg).expect("mirror");
                let req = ctx.irecv(nb, Self::tag(slot, neg_idx));
                reqs.push((v.clone(), req));
            }
        }
        Ok(PendingExchange {
            sent,
            inner: PendingInner::FullNeighbor { reqs },
        })
    }

    fn exchange_finish<T: Scalar + Wire>(
        &self,
        ctx: &mut RankCtx<T>,
        grid: &mut Grid<T>,
        slot: usize,
        pending: PendingExchange,
    ) -> Result<usize, CommError> {
        let PendingInner::FullNeighbor { reqs } = pending.inner else {
            return match pending.inner {
                PendingInner::NotStarted => HaloBackend::exchange(self, ctx, grid, slot),
                _ => Ok(pending.sent),
            };
        };
        let _span = msc_trace::span("halo_exchange");
        // Phase 2: complete and unpack.
        for (v, req) in reqs {
            let data = ctx.wait(req)?;
            let _t = msc_trace::timed_hist(Counter::UnpackNanos, msc_trace::Hist::UnpackHistNanos);
            self.recv_block(&v).unpack(grid, &data);
        }
        Ok(pending.sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;

    #[test]
    fn offset_enumeration() {
        assert_eq!(FullNeighborExchange::offsets(2).len(), 8);
        assert_eq!(FullNeighborExchange::offsets(3).len(), 26);
    }

    #[test]
    fn corner_blocks_have_corner_shapes() {
        let d = CartDecomp::new(&[8, 8], &[2, 2], &[2, 2]).unwrap();
        let ex = FullNeighborExchange::new(d);
        let corner = ex.send_block(&[1, 1]);
        assert_eq!(corner.extent, vec![2, 2]);
        let face = ex.send_block(&[1, 0]);
        assert_eq!(face.extent, vec![2, 4]);
        let recv_corner = ex.recv_block(&[-1, -1]);
        assert_eq!(recv_corner.start, vec![0, 0]);
    }

    #[test]
    fn full_neighbor_message_count() {
        // Interior rank of a 3x3 grid talks to all 8 neighbours.
        let d = CartDecomp::new(&[9, 9], &[3, 3], &[1, 1]).unwrap();
        let ex = FullNeighborExchange::new(d.clone());
        let sent: Vec<usize> = World::run(9, |mut ctx| {
            let mut g: Grid<f64> = Grid::zeros(&d.sub_extent(), &d.reach);
            HaloBackend::exchange(&ex, &mut ctx, &mut g, 0).unwrap()
        });
        assert_eq!(sent[4], 8); // centre rank
        assert_eq!(sent[0], 3); // corner rank
    }

    #[test]
    fn send_recv_blocks_mirror() {
        let d = CartDecomp::new(&[12, 12, 12], &[2, 2, 2], &[2, 1, 2]).unwrap();
        let ex = FullNeighborExchange::new(d);
        for v in FullNeighborExchange::offsets(3) {
            let neg: Vec<i64> = v.iter().map(|&o| -o).collect();
            assert_eq!(
                ex.send_block(&neg).extent,
                ex.recv_block(&v).extent,
                "offset {v:?}"
            );
        }
    }
}
