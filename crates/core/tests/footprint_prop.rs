//! Property tests for footprint inference: [`Footprint`] must agree with
//! a brute-force enumeration of the raw accesses in the expression tree,
//! for arbitrary tap sets, time depths, and temporal combinations.

use msc_core::expr::BinOp;
use msc_core::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One random tap: spatial offsets (one per dim) and a time depth.
type RawTap = (Vec<i64>, usize);

/// Strategy: 1–12 taps over `ndim` dims with offsets in -3..=3 and
/// time_back in 0..=2. Duplicates are allowed on purpose — dedup is part
/// of what the footprint pass must get right.
fn arb_taps(ndim: usize) -> impl Strategy<Value = Vec<RawTap>> {
    prop::collection::vec((prop::collection::vec(-3i64..=3, ndim), 0usize..=2), 1..=12)
}

/// Sum of `0.25 * B[offsets, t-time_back]` terms — the general linear
/// form every catalog kernel reduces to.
fn sum_expr(taps: &[RawTap]) -> Expr {
    let term = |(off, tb): &RawTap| {
        Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::c(0.25)),
            Box::new(Expr::at_time("B", off, *tb)),
        )
    };
    let mut iter = taps.iter();
    let mut e = term(iter.next().expect("at least one tap"));
    for t in iter {
        e = Expr::Binary(BinOp::Add, Box::new(e), Box::new(term(t)));
    }
    e
}

/// Brute force: walk `expr.accesses()` and bucket offsets by
/// `(tensor, time)` with no cleverness at all.
fn brute_slots(expr: &Expr, time_base: usize) -> BTreeMap<(String, usize), BTreeSet<Vec<i64>>> {
    let mut slots: BTreeMap<(String, usize), BTreeSet<Vec<i64>>> = BTreeMap::new();
    for a in expr.accesses() {
        slots
            .entry((a.tensor.clone(), time_base + a.time_back))
            .or_default()
            .insert(a.offsets.clone());
    }
    slots
}

/// Check a [`Footprint`] against brute-forced slot buckets: same slot
/// keys, same offset sets, boxes that are the exact elementwise min/max.
fn assert_matches(
    fp: &Footprint,
    expected: &BTreeMap<(String, usize), BTreeSet<Vec<i64>>>,
    ndim: usize,
) {
    assert_eq!(fp.num_slots(), expected.len());
    let mut total_points = 0usize;
    for ((tensor, time), offsets) in expected {
        let slot = fp
            .slot(tensor, *time)
            .unwrap_or_else(|| panic!("missing slot ({tensor}, {time})"));
        let got: BTreeSet<Vec<i64>> = slot.offsets().map(<[i64]>::to_vec).collect();
        assert_eq!(&got, offsets);
        total_points += offsets.len();
        for d in 0..ndim {
            let lo = offsets.iter().map(|o| o[d]).min().unwrap();
            let hi = offsets.iter().map(|o| o[d]).max().unwrap();
            assert_eq!(slot.lo[d], lo);
            assert_eq!(slot.hi[d], hi);
        }
    }
    assert_eq!(fp.distinct_points(), total_points);
    // The merged box is the union of slot boxes, and the halo demand is
    // its largest outward excursion (never negative).
    for d in 0..ndim {
        let lo = expected.values().flatten().map(|o| o[d]).min().unwrap();
        let hi = expected.values().flatten().map(|o| o[d]).max().unwrap();
        assert_eq!(fp.lo()[d], lo);
        assert_eq!(fp.hi()[d], hi);
        let halo = (-lo).max(hi).max(0) as usize;
        assert_eq!(fp.required_halo()[d], halo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expression-level inference equals brute force for arbitrary taps.
    #[test]
    fn expr_footprint_matches_brute_force(
        ndim in 1usize..=3,
        seed_taps in arb_taps(3),
    ) {
        // Truncate the 3-wide offsets to the sampled dimensionality so
        // ndim itself is part of the random space.
        let taps: Vec<RawTap> = seed_taps
            .iter()
            .map(|(off, tb)| (off[..ndim].to_vec(), *tb))
            .collect();
        let expr = sum_expr(&taps);
        let fp = Footprint::of_kernel(&Kernel::new("k", ndim, expr.clone()).unwrap());
        assert_matches(&fp, &brute_slots(&expr, 0), ndim);
    }

    /// Kernel-level inference: the halo demand equals the kernel's own
    /// symmetric reach for every catalog benchmark kernel.
    #[test]
    fn catalog_kernel_halo_equals_reach(case in 0usize..1000) {
        let benches = all_benchmarks();
        let b = &benches[case % benches.len()];
        let k = b.kernel();
        let fp = Footprint::of_kernel(&k);
        prop_assert_eq!(fp.required_halo(), k.reach());
        prop_assert_eq!(fp.distinct_points(), k.points());
    }

    /// Stencil-level inference with randomized temporal terms: slots are
    /// keyed by the absolute depth `term.dt + access.time_back`, and the
    /// window demand is the deepest slot plus one.
    #[test]
    fn stencil_footprint_matches_brute_force(
        ndim in 1usize..=3,
        seed_taps in arb_taps(3),
        dt1 in 1usize..=3,
        dt2 in 1usize..=3,
    ) {
        let taps: Vec<RawTap> = seed_taps
            .iter()
            .map(|(off, tb)| (off[..ndim].to_vec(), *tb))
            .collect();
        let kernel = Kernel::new("k", ndim, sum_expr(&taps)).unwrap();
        let mut terms = vec![TimeTerm { dt: dt1, weight: 0.6, kernel: "k".into() }];
        if dt2 != dt1 {
            terms.push(TimeTerm { dt: dt2, weight: 0.4, kernel: "k".into() });
        }
        let stencil = Stencil::new("prop", vec![kernel.clone()], terms.clone()).unwrap();
        let fp = Footprint::of_stencil(&stencil).unwrap();

        let mut expected: BTreeMap<(String, usize), BTreeSet<Vec<i64>>> = BTreeMap::new();
        for t in &terms {
            for ((tensor, time), offs) in brute_slots(kernel.expr(), t.dt) {
                expected.entry((tensor, time)).or_default().extend(offs);
            }
        }
        assert_matches(&fp, &expected, ndim);

        let deepest = expected.keys().map(|(_, t)| *t).max().unwrap();
        prop_assert_eq!(fp.max_time(), deepest);
        prop_assert_eq!(fp.required_window(), deepest + 1);
    }
}
