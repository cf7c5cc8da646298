//! Live per-rank progress table.
//!
//! The sampler and the stall detector need *current* per-rank signals
//! (step index, halo wait, steals, recoveries) while the run is in
//! flight — counters alone can't attribute to ranks, and spans are too
//! expensive to scan every 100 ms. Each hub owns a fixed table of
//! cache-line-sized atomic cells, one per rank, updated with relaxed
//! stores from the rank's own thread as it publishes each step and
//! snapshotted wait-free by the sampler thread.

use crate::counters::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ranks the live table can attribute individually. Updates for ranks
/// at or beyond this fold into one shared **overflow cell** (reported
/// as rank [`OVERFLOW_RANK`]) instead of vanishing, and each folded
/// update bumps the `rank_table_overflow` counter so huge worlds can
/// see that attribution saturated.
pub const MAX_RANKS: usize = 1024;

/// The rank id the shared overflow cell reports in snapshots: the first
/// id the table cannot attribute individually.
pub const OVERFLOW_RANK: u32 = MAX_RANKS as u32;

/// One rank's live cell. `#[repr(align(64))]` so concurrent ranks never
/// false-share.
#[repr(align(64))]
struct RankCell {
    /// Total steps completed (monotone, survives rollbacks).
    steps: AtomicU64,
    /// Most recent step index + 1 (0 = never stepped); may move
    /// backwards on rollback, which is exactly what a live view wants.
    last_step: AtomicU64,
    halo_wait_ns: AtomicU64,
    halo_wait_count: AtomicU64,
    steals: AtomicU64,
    retransmits: AtomicU64,
    recoveries: AtomicU64,
    /// Trace-epoch nanos of the last update (0 = inactive).
    last_update_ns: AtomicU64,
}

impl RankCell {
    const fn new() -> RankCell {
        RankCell {
            steps: AtomicU64::new(0),
            last_step: AtomicU64::new(0),
            halo_wait_ns: AtomicU64::new(0),
            halo_wait_count: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            last_update_ns: AtomicU64::new(0),
        }
    }

    fn touch(&self) {
        self.last_update_ns
            .store(crate::spans::now_ns().max(1), Ordering::Relaxed);
    }
}

/// A plain snapshot of one active rank's cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankSample {
    pub rank: u32,
    /// Total steps completed (monotone).
    pub steps: u64,
    /// Most recent step index (meaningful only when `steps > 0`).
    pub last_step: u64,
    /// Cumulative halo-wait nanoseconds attributed to this rank.
    pub halo_wait_ns: u64,
    pub halo_wait_count: u64,
    pub steals: u64,
    pub retransmits: u64,
    pub recoveries: u64,
    /// Trace-epoch nanos of the last update.
    pub last_update_ns: u64,
}

pub(crate) struct RankTable {
    /// `MAX_RANKS` per-rank cells plus one trailing overflow cell that
    /// absorbs every rank the table cannot attribute individually.
    cells: Box<[RankCell]>,
}

impl RankTable {
    pub(crate) fn new() -> RankTable {
        RankTable {
            cells: (0..=MAX_RANKS).map(|_| RankCell::new()).collect(),
        }
    }

    /// The cell for `rank`, folding out-of-range ranks into the shared
    /// overflow cell; the flag reports whether that fold happened so
    /// the hub can count it.
    #[inline]
    fn cell(&self, rank: u32) -> (&RankCell, bool) {
        let overflow = rank as usize >= MAX_RANKS;
        let idx = (rank as usize).min(MAX_RANKS);
        (&self.cells[idx], overflow)
    }

    pub(crate) fn note_step(&self, rank: u32, step: u64) -> bool {
        let (c, overflow) = self.cell(rank);
        c.steps.fetch_add(1, Ordering::Relaxed);
        c.last_step.store(step + 1, Ordering::Relaxed);
        c.touch();
        overflow
    }

    /// `count` halo waits of `ns` nanoseconds in total.
    pub(crate) fn note_halo_wait(&self, rank: u32, ns: u64, count: u64) -> bool {
        let (c, overflow) = self.cell(rank);
        c.halo_wait_ns.fetch_add(ns, Ordering::Relaxed);
        c.halo_wait_count.fetch_add(count, Ordering::Relaxed);
        c.touch();
        overflow
    }

    pub(crate) fn note_recovery(&self, rank: u32) -> bool {
        let (c, overflow) = self.cell(rank);
        c.recoveries.fetch_add(1, Ordering::Relaxed);
        c.touch();
        overflow
    }

    /// Route a rank-attributable counter bump into the cell.
    pub(crate) fn note_counter(&self, rank: u32, c: Counter, v: u64) -> bool {
        let (cell, overflow) = self.cell(rank);
        match c {
            Counter::PoolSteals => {
                cell.steals.fetch_add(v, Ordering::Relaxed);
            }
            Counter::RetransmitCount => {
                cell.retransmits.fetch_add(v, Ordering::Relaxed);
            }
            _ => return false,
        }
        cell.touch();
        overflow
    }

    /// Every rank that has reported at least one update, ascending. The
    /// overflow cell (if touched) appears last as rank [`OVERFLOW_RANK`].
    pub(crate) fn snapshot(&self) -> Vec<RankSample> {
        let mut out = Vec::new();
        for (rank, c) in self.cells.iter().enumerate() {
            let last_update_ns = c.last_update_ns.load(Ordering::Relaxed);
            if last_update_ns == 0 {
                continue;
            }
            out.push(RankSample {
                rank: rank as u32,
                steps: c.steps.load(Ordering::Relaxed),
                last_step: c.last_step.load(Ordering::Relaxed).saturating_sub(1),
                halo_wait_ns: c.halo_wait_ns.load(Ordering::Relaxed),
                halo_wait_count: c.halo_wait_count.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                retransmits: c.retransmits.load(Ordering::Relaxed),
                recoveries: c.recoveries.load(Ordering::Relaxed),
                last_update_ns,
            });
        }
        out
    }

    pub(crate) fn reset(&self) {
        for c in self.cells.iter() {
            c.steps.store(0, Ordering::Relaxed);
            c.last_step.store(0, Ordering::Relaxed);
            c.halo_wait_ns.store(0, Ordering::Relaxed);
            c.halo_wait_count.store(0, Ordering::Relaxed);
            c.steals.store(0, Ordering::Relaxed);
            c.retransmits.store(0, Ordering::Relaxed);
            c.recoveries.store(0, Ordering::Relaxed);
            c.last_update_ns.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_ranks_are_invisible() {
        let t = RankTable::new();
        assert!(t.snapshot().is_empty());
        t.note_step(3, 0);
        let s = t.snapshot();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rank, 3);
        assert_eq!(s[0].last_step, 0);
    }

    #[test]
    fn out_of_range_ranks_fold_into_overflow_cell() {
        let t = RankTable::new();
        // Exactly at the boundary and far beyond: both land in the one
        // shared overflow cell and report the fold to the caller.
        assert!(t.note_step(MAX_RANKS as u32, 5));
        assert!(t.note_halo_wait(u32::MAX, 7, 1));
        assert!(t.note_counter(u32::MAX, Counter::PoolSteals, 2));
        let s = t.snapshot();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rank, OVERFLOW_RANK);
        assert_eq!(s[0].steps, 1);
        assert_eq!(s[0].last_step, 5);
        assert_eq!(s[0].halo_wait_ns, 7);
        assert_eq!(s[0].steals, 2);
        // In-range ranks never report a fold.
        assert!(!t.note_step(MAX_RANKS as u32 - 1, 0));
    }

    #[test]
    fn counters_route_and_reset_clears() {
        let t = RankTable::new();
        assert!(!t.note_counter(1, Counter::PoolSteals, 4));
        t.note_counter(1, Counter::RetransmitCount, 2);
        t.note_counter(1, Counter::Steps, 99); // not rank-attributable
        t.note_halo_wait(1, 500, 1);
        let s = t.snapshot();
        assert_eq!(s[0].steals, 4);
        assert_eq!(s[0].retransmits, 2);
        assert_eq!(s[0].halo_wait_ns, 500);
        assert_eq!(s[0].halo_wait_count, 1);
        t.reset();
        assert!(t.snapshot().is_empty());
    }
}
