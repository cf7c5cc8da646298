//! Footprint inference: the static access-set analysis behind the lint
//! pipeline (`msc-lint`) and the traffic statistics in [`crate::analysis`].
//!
//! A kernel's table of distinct accesses, derived once by `Kernel::new`,
//! yields for every *slot* — a `(tensor, time)` pair — the per-axis
//! min/max offset box and the set of distinct offsets read. This replaces
//! the point-count-only view the analysis layer used to hold: the box is
//! asymmetric (`lo..hi` per axis, both inclusive), so halo sufficiency,
//! SPM buffer sizing and decomposition limits can all be *proved* from
//! the IR rather than re-derived ad hoc. Devito and the xDSL stencil stack
//! derive the same object ("access footprint") to validate halo and
//! parallelization legality; this is our single-level-IR equivalent.
//!
//! Two granularities share the representation:
//!
//! * [`Footprint::of_kernel`] keys slots by `time_back` *within* one
//!   kernel sweep (0 = the sweep's input state).
//! * [`Footprint::of_stencil`] keys slots by the **absolute** temporal
//!   distance `term.dt + access.time_back` from the output state, so
//!   reads of the same grid point through two syntactic paths (two
//!   terms, two kernels) land in one slot and are counted once.

use crate::error::Result;
use crate::kernel::Kernel;
use crate::stencil::Stencil;
use std::iter::zip;

/// The inferred access set of one `(tensor, time)` slot: an inclusive
/// per-axis offset interval plus the exact set of distinct offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotFootprint {
    pub tensor: String,
    /// Timesteps back from the state the footprint is relative to
    /// (kernel level: `time_back`; stencil level: `dt + time_back`).
    pub time: usize,
    /// Per-axis minimum offset (inclusive), outermost dimension first.
    pub lo: Vec<i64>,
    /// Per-axis maximum offset (inclusive).
    pub hi: Vec<i64>,
    /// Every distinct offset read from this slot, in sorted order, one
    /// `lo.len()`-long run each.
    offsets: Vec<i64>,
    points: usize,
}

impl SlotFootprint {
    fn new(tensor: &str, time: usize, first: &[i64]) -> SlotFootprint {
        SlotFootprint {
            tensor: tensor.to_string(),
            time,
            lo: first.to_vec(),
            hi: first.to_vec(),
            offsets: first.to_vec(),
            points: 1,
        }
    }

    fn include(&mut self, off: &[i64]) {
        for (d, &o) in off.iter().enumerate() {
            self.lo[d] = self.lo[d].min(o);
            self.hi[d] = self.hi[d].max(o);
        }
        self.offsets.extend_from_slice(off);
        self.points += 1;
    }

    /// Distinct points read from this slot.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Every distinct offset vector read from this slot, in sorted order.
    pub fn offsets(&self) -> impl Iterator<Item = &[i64]> {
        let n = self.lo.len();
        (0..self.points).map(move |i| &self.offsets[i * n..(i + 1) * n])
    }

    /// Symmetric halo width needed per axis: the larger of how far the
    /// box reaches below zero and above zero.
    pub fn required_halo(&self) -> Vec<usize> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| ((-l).max(0).max(h.max(0))) as usize)
            .collect()
    }
}

/// The full inferred footprint of a kernel or stencil: one
/// [`SlotFootprint`] per `(tensor, time)` slot, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    pub ndim: usize,
    /// Sorted by `(tensor, time)`.
    slots: Vec<SlotFootprint>,
}

impl Footprint {
    /// The footprint of `reads`, `(tensor, time, offsets)` each, given in
    /// any order and with repeats.
    fn of_reads<'a>(
        ndim: usize,
        reads: impl Iterator<Item = (&'a str, usize, &'a [i64])>,
    ) -> Footprint {
        let mut reads: Vec<_> = reads.collect();
        reads.sort_unstable();
        reads.dedup();
        let mut slots: Vec<SlotFootprint> = Vec::new();
        for (tensor, time, off) in reads {
            match slots.last_mut() {
                Some(s) if s.tensor == tensor && s.time == time => s.include(off),
                _ => slots.push(SlotFootprint::new(tensor, time, off)),
            }
        }
        Footprint { ndim, slots }
    }

    /// The footprint of one kernel sweep, from the kernel's own table.
    pub fn of_kernel(kernel: &Kernel) -> Footprint {
        Footprint::of_reads(kernel.ndim, kernel.accesses())
    }

    /// Infer the footprint of a full temporal stencil step, keyed by the
    /// absolute temporal distance `term.dt + access.time_back` from the
    /// output state, from the kernels' tables. Reads of the same
    /// `(tensor, time, offset)` through different terms or kernels are
    /// merged — this is the dedupe the analysis layer relies on.
    pub fn of_stencil(stencil: &Stencil) -> Result<Footprint> {
        let mut reads = Vec::new();
        for term in &stencil.terms {
            let k = stencil.kernel(&term.kernel)?;
            reads.extend(k.accesses().map(|(t, time, off)| (t, term.dt + time, off)));
        }
        Ok(Footprint::of_reads(stencil.ndim(), reads.into_iter()))
    }

    /// Iterate the slots in canonical `(tensor, time)` order.
    pub fn slots(&self) -> impl Iterator<Item = &SlotFootprint> {
        self.slots.iter()
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Look up one slot.
    pub fn slot(&self, tensor: &str, time: usize) -> Option<&SlotFootprint> {
        self.slots
            .iter()
            .find(|s| s.tensor == tensor && s.time == time)
    }

    /// Total distinct `(tensor, time, offset)` points read.
    pub fn distinct_points(&self) -> usize {
        self.slots.iter().map(|s| s.points).sum()
    }

    /// Symmetric per-axis halo requirement over all slots.
    pub fn required_halo(&self) -> Vec<usize> {
        let mut halo = vec![0usize; self.ndim];
        for s in &self.slots {
            for (d, r) in s.required_halo().into_iter().enumerate() {
                halo[d] = halo[d].max(r);
            }
        }
        halo
    }

    /// Per-axis minimum offset over all slots (most negative reach).
    /// Unlike [`Footprint::required_halo`] this is the true extreme of
    /// the read set — a one-sided kernel reports a positive `lo`.
    pub fn lo(&self) -> Vec<i64> {
        self.extreme(|s| &s.lo, i64::min)
    }

    /// Per-axis maximum offset over all slots (true extreme, like
    /// [`Footprint::lo`]).
    pub fn hi(&self) -> Vec<i64> {
        self.extreme(|s| &s.hi, i64::max)
    }

    /// `side` of every slot's box, folded per axis with `pick`.
    fn extreme(
        &self,
        side: fn(&SlotFootprint) -> &Vec<i64>,
        pick: fn(i64, i64) -> i64,
    ) -> Vec<i64> {
        let mut sides = self.slots.iter().map(side);
        let first = sides.next().map_or_else(|| vec![0; self.ndim], Vec::clone);
        sides.fold(first, |acc, v| {
            zip(acc, v).map(|(a, &b)| pick(a, b)).collect()
        })
    }

    /// Deepest temporal reach (0 for an empty footprint). At stencil
    /// level this is the absolute `max(dt + time_back)`.
    pub fn max_time(&self) -> usize {
        self.slots.iter().map(|s| s.time).max().unwrap_or(0)
    }

    /// Sliding-window depth a stencil-level footprint requires: every
    /// read state plus the output slot.
    pub fn required_window(&self) -> usize {
        self.max_time() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stencil::TimeTerm;

    fn asym() -> Expr {
        // B[-3,0] + B[1,2] + B[0,0]: lo (-3,0) hi (1,2).
        Expr::at("B", &[-3, 0]) + Expr::at("B", &[1, 2]) + Expr::at("B", &[0, 0])
    }

    #[test]
    fn expr_box_is_asymmetric() {
        let fp = Footprint::of_kernel(&Kernel::new("k", 2, asym()).unwrap());
        let s = fp.slot("B", 0).unwrap();
        assert_eq!(s.lo, vec![-3, 0]);
        assert_eq!(s.hi, vec![1, 2]);
        assert_eq!(s.points(), 3);
        assert_eq!(fp.required_halo(), vec![3, 2]);
    }

    #[test]
    fn duplicate_syntactic_paths_count_once() {
        let e = Expr::at("B", &[1]) + 2.0 * Expr::at("B", &[1]) + Expr::at("B", &[0]);
        let fp = Footprint::of_kernel(&Kernel::new("k", 1, e).unwrap());
        assert_eq!(fp.distinct_points(), 2);
    }

    #[test]
    fn time_levels_get_separate_slots() {
        let e = Expr::at_time("B", &[0], 0) + Expr::at_time("B", &[0], 1);
        let fp = Footprint::of_kernel(&Kernel::new("k", 1, e).unwrap());
        assert_eq!(fp.num_slots(), 2);
        assert_eq!(fp.max_time(), 1);
    }

    #[test]
    fn kernel_footprint_matches_reach() {
        let k = Kernel::star_normalized("s", 3, 2);
        let fp = Footprint::of_kernel(&k);
        assert_eq!(fp.required_halo(), k.reach());
        assert_eq!(fp.distinct_points(), k.points());
    }

    #[test]
    fn stencil_slots_keyed_by_absolute_dt() {
        let st = Stencil::from_kernel(
            "st",
            Kernel::star_normalized("S", 2, 1),
            &[(1, 0.6), (2, 0.4)],
        )
        .unwrap();
        let fp = Footprint::of_stencil(&st).unwrap();
        assert_eq!(fp.num_slots(), 2);
        assert_eq!(fp.slot("B", 1).unwrap().points(), 5);
        assert_eq!(fp.slot("B", 2).unwrap().points(), 5);
        assert_eq!(fp.distinct_points(), 10);
        assert_eq!(fp.required_window(), 3);
    }

    #[test]
    fn same_dt_terms_merge_overlapping_reads() {
        // Two kernels both reading B[t-1]: their shared points dedupe.
        let k1 = Kernel::new("a", 1, Expr::at("B", &[0]) + Expr::at("B", &[1])).unwrap();
        let k2 = Kernel::new("b", 1, Expr::at("B", &[1]) + Expr::at("B", &[2])).unwrap();
        let st = Stencil::new(
            "st",
            vec![k1, k2],
            vec![
                TimeTerm {
                    dt: 1,
                    weight: 0.5,
                    kernel: "a".into(),
                },
                TimeTerm {
                    dt: 1,
                    weight: 0.5,
                    kernel: "b".into(),
                },
            ],
        )
        .unwrap();
        let fp = Footprint::of_stencil(&st).unwrap();
        assert_eq!(fp.distinct_points(), 3); // {0,1,2}, not 4
        assert_eq!(fp.slot("B", 1).unwrap().hi, vec![2]);
    }

    #[test]
    fn time_back_deepens_the_stencil_window() {
        // A kernel reading its input state one extra step back pushes the
        // absolute reach beyond max_dt.
        let k = Kernel::new("a", 1, Expr::at("B", &[0]) + Expr::at_time("B", &[0], 1)).unwrap();
        let st = Stencil::from_kernel("st", k, &[(1, 1.0)]).unwrap();
        let fp = Footprint::of_stencil(&st).unwrap();
        assert_eq!(fp.max_time(), 2);
        assert_eq!(fp.required_window(), 3);
    }

    #[test]
    fn empty_offsets_have_zero_halo() {
        let e = Expr::at("B", &[0, 0, 0]);
        let fp = Footprint::of_kernel(&Kernel::new("k", 3, e).unwrap());
        assert_eq!(fp.required_halo(), vec![0, 0, 0]);
        assert_eq!(fp.lo(), vec![0, 0, 0]);
        assert_eq!(fp.hi(), vec![0, 0, 0]);
    }
}
