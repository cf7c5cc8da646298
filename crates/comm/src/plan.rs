//! The executing half of the halo plan (paper §4.4, Figure 6(b)/(c)): the
//! one loop that runs a rank's message table. The table itself — who
//! sends which box to whom, in which phase, under which tag — is
//! [`msc_core::halo`]'s, shared with the emitted MPI C and the simulator;
//! this module packs, posts, waits and unpacks it over a [`RankCtx`].
//!
//! On the wire a message's tag is `slot << 8 | low`: `low` is the plan's
//! tag, `slot` the time-window slot being published (keeps exchanges of
//! different window buffers apart).

use crate::error::CommError;
use crate::runtime::{RankCtx, RecvRequest};
use msc_core::halo::{HaloMsg, HaloPlan};
use msc_exec::{Grid, Scalar};
use msc_trace::{Counter, Hist};
use std::time::Instant;

/// Phase 0's posted receives, between [`begin`] and [`finish`].
pub struct PendingExchange(Vec<RecvRequest>);

/// Publish the halo of `grid` for this rank: every phase in order.
/// A dead peer, a timed-out wait or a mis-sized payload surfaces as
/// [`CommError`].
pub fn exchange<T: Scalar>(
    plan: &HaloPlan,
    ctx: &mut RankCtx<T>,
    grid: &mut Grid<T>,
    slot: usize,
) -> Result<(), CommError> {
    let pending = begin(plan, ctx, grid, slot)?;
    finish(plan, ctx, grid, slot, pending)
}

/// Initiate the exchange: count the chaos exchange round (exactly once
/// per exchange) and post phase 0, whose send boxes read only the inner
/// halo band of `grid` — the caller may keep computing cells no message
/// sends from ([`HaloPlan::sends_from`]) while the messages are in
/// flight. Later phases pack halo cells received in earlier ones, so
/// they wait for [`finish`].
pub fn begin<T: Scalar>(
    plan: &HaloPlan,
    ctx: &mut RankCtx<T>,
    grid: &Grid<T>,
    slot: usize,
) -> Result<PendingExchange, CommError> {
    let _span = msc_trace::span("halo_exchange");
    ctx.begin_exchange()?;
    let reqs = match plan.phases().first() {
        Some(phase) => post(ctx, grid, slot, phase)?,
        None => Vec::new(),
    };
    Ok(PendingExchange(reqs))
}

/// Complete an exchange started by [`begin`] on the same plan: wait for
/// phase 0 and unpack it, then post and complete every remaining phase.
pub fn finish<T: Scalar>(
    plan: &HaloPlan,
    ctx: &mut RankCtx<T>,
    grid: &mut Grid<T>,
    slot: usize,
    pending: PendingExchange,
) -> Result<(), CommError> {
    let _span = msc_trace::span("halo_exchange");
    let mut posted = Some(pending.0);
    for phase in plan.phases() {
        let reqs = match posted.take() {
            Some(reqs) => reqs,
            None => post(ctx, grid, slot, phase)?,
        };
        complete(ctx, grid, phase, reqs)?;
    }
    Ok(())
}

/// Post a phase: pack and `isend` each message, `irecv` its counterpart.
fn post<T: Scalar>(
    ctx: &mut RankCtx<T>,
    grid: &Grid<T>,
    slot: usize,
    phase: &[HaloMsg],
) -> Result<Vec<RecvRequest>, CommError> {
    let slot_bits = (slot as u64) << 8;
    let mut reqs = Vec::with_capacity(phase.len());
    for m in phase {
        let payload = clocked(ctx, Counter::PackNanos, Hist::PackHistNanos, || {
            grid.pack(&m.send)
        });
        let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
        ctx.counters.bump(Counter::HaloMessages, 1);
        ctx.counters.bump(Counter::HaloBytes, bytes);
        ctx.isend(m.peer, slot_bits | m.send_tag, payload)?;
        reqs.push(ctx.irecv(m.peer, slot_bits | m.recv_tag));
    }
    Ok(reqs)
}

/// Complete a posted phase: wait for each message in table order and
/// unpack it into the outer halo. A payload of the wrong length for its
/// box came from a peer running a different plan: a typed error, never a
/// panic in `unpack`.
fn complete<T: Scalar>(
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
        clocked(ctx, Counter::UnpackNanos, Hist::UnpackHistNanos, || {
            grid.unpack(&m.recv, &data)
        });
    }
    Ok(())
}

/// Run `f` under a span named after `c`, and add its wall time to `c` and
/// as one sample to `h` of the rank's account.
fn clocked<T, R>(ctx: &mut RankCtx<T>, c: Counter, h: Hist, f: impl FnOnce() -> R) -> R {
    let _span = msc_trace::span(c.name());
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    ctx.counters.bump(c, ns);
    ctx.hists.add(h, ns);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;
    use msc_core::halo::{Backend, CartDecomp};

    const BACKENDS: [Backend; 2] = [Backend::DimOrdered, Backend::FullNeighbor];

    fn decomp(global: &[usize], procs: &[usize], reach: &[usize], periodic: bool) -> CartDecomp {
        CartDecomp::new(global, procs, reach)
            .unwrap()
            .with_periodicity(&vec![periodic; global.len()])
            .unwrap()
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

    fn lin(g: &Grid<f64>, idx: &[usize]) -> usize {
        idx.iter().zip(&g.strides).map(|(&i, &s)| i * s).sum()
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
                exchange(&plan, &mut ctx, &mut g, 0).unwrap();
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
                exchange(&plan, &mut ctx, &mut g, 3).err()
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
