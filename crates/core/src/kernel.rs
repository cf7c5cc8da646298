//! `Kernel` IR node: one basic spatial stencil sweep (e.g. a 3D Laplacian
//! operator), composed of tensor accesses, nested loops, and an expression
//! (paper Table 2). Kernels carry their own [`Schedule`].

use crate::error::{MscError, Result};
use crate::expr::Expr;
use crate::schedule::Schedule;

/// A basic stencil kernel: `out(x) = expr(in(x + offsets...))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    /// Name of the input grid tensor the expression reads.
    pub input: String,
    /// Number of spatial dimensions.
    pub ndim: usize,
    /// The update expression over relative accesses; read-only, so the
    /// table derived from it cannot go stale.
    expr: Expr,
    /// The table `new` derives from `expr`, once, for every layer to read
    /// instead of walking the tree again. One row per distinct access, in
    /// canonical order: `(index into tensors, time_back)`, its offsets
    /// (`ndim` apiece, flat) and, for a linear kernel, its tap coefficient.
    tensors: Vec<String>,
    reads: Vec<(usize, usize)>,
    offsets: Vec<i64>,
    coeffs: Result<Vec<f64>>,
    /// Per-axis max |offset|.
    reach: Vec<usize>,
    /// Optimization primitives applied to this kernel.
    pub schedule: Schedule,
}

impl Kernel {
    /// Define a kernel from an arbitrary expression. The input tensor name
    /// is inferred from the expression's accesses (all accesses must hit
    /// one tensor).
    pub fn new(name: &str, ndim: usize, expr: Expr) -> Result<Kernel> {
        // A linear kernel's accesses with their scales in walk order, else
        // its distinct accesses; a stable sort keeps each tap's scales in
        // walk order.
        let (mut walk, linear) = match expr.linear_terms() {
            Ok(terms) => (terms, Ok(())),
            Err(e) => (
                expr.accesses().into_iter().map(|a| (a, 0.0)).collect(),
                Err(e),
            ),
        };
        walk.sort_by(|a, b| a.0.cmp(b.0));
        if walk.is_empty() {
            return Err(MscError::UnsupportedExpr("kernel reads no tensor".into()));
        }
        let (mut tensors, mut reads, mut offsets) = (Vec::<String>::new(), vec![], vec![]);
        let (mut coeffs, mut reach) = (Vec::new(), vec![0usize; ndim]);
        for same in walk.chunk_by(|x, y| x.0 == y.0) {
            let a = same[0].0;
            if a.offsets.len() != ndim {
                return Err(MscError::DimMismatch {
                    expected: ndim,
                    got: a.offsets.len(),
                });
            }
            if tensors.last() != Some(&a.tensor) {
                tensors.push(a.tensor.clone());
            }
            reads.push((tensors.len() - 1, a.time_back));
            offsets.extend_from_slice(&a.offsets);
            // Folded from `0.0`, so a lone `-0.0` weight is `+0.0`.
            coeffs.push(same.iter().fold(0.0, |c, (_, scale)| c + scale));
            for (r, &o) in reach.iter_mut().zip(&a.offsets) {
                *r = (*r).max(o.unsigned_abs() as usize);
            }
        }
        Ok(Kernel {
            name: name.to_string(),
            input: tensors[0].clone(),
            ndim,
            expr,
            tensors,
            reads,
            offsets,
            coeffs: linear.map(|()| coeffs),
            reach,
            schedule: Schedule::default(),
        })
    }

    /// Star-shaped stencil of the given radius: the centre point plus
    /// `2*ndim*radius` points along the axes. `coeffs[0]` weights the
    /// centre; `coeffs[d]` weights the points at axis distance `d`
    /// (`coeffs.len() == radius + 1`).
    pub fn star(name: &str, ndim: usize, radius: usize, coeffs: &[f64]) -> Result<Kernel> {
        if coeffs.len() != radius + 1 {
            return Err(MscError::InvalidConfig(format!(
                "star kernel `{name}` needs {} coefficients, got {}",
                radius + 1,
                coeffs.len()
            )));
        }
        let input = "B";
        let mut expr = coeffs[0] * Expr::at(input, &vec![0i64; ndim]);
        for dim in 0..ndim {
            for d in 1..=radius as i64 {
                for sign in [-1i64, 1] {
                    let mut off = vec![0i64; ndim];
                    off[dim] = sign * d;
                    expr = expr + coeffs[d as usize] * Expr::at(input, &off);
                }
            }
        }
        Kernel::new(name, ndim, expr)
    }

    /// Star stencil with normalized coefficients (centre weight
    /// `center_w`, the rest sharing `1 - center_w` equally) — numerically
    /// stable under iteration (weighted-Jacobi style).
    pub fn star_normalized(name: &str, ndim: usize, radius: usize) -> Kernel {
        let center_w = 0.5;
        let others = 2 * ndim * radius;
        let w = (1.0 - center_w) / others as f64;
        let coeffs: Vec<f64> = std::iter::once(center_w)
            .chain(std::iter::repeat_n(w, radius))
            .collect();
        Kernel::star(name, ndim, radius, &coeffs).expect("normalized star is well-formed")
    }

    /// Box-shaped stencil: all `(2*radius+1)^ndim` points of the
    /// hyper-rectangle. The centre has weight `center_w`; every other
    /// point shares `1 - center_w` equally, so iteration stays stable.
    pub fn boxed(name: &str, ndim: usize, radius: usize, center_w: f64) -> Result<Kernel> {
        if ndim == 0 || ndim > 3 {
            return Err(MscError::InvalidConfig(format!(
                "box kernel `{name}` must be 1D/2D/3D"
            )));
        }
        let side = 2 * radius as i64 + 1;
        let points = (side as usize).pow(ndim as u32);
        let w = (1.0 - center_w) / (points - 1).max(1) as f64;
        let input = "B";
        let mut expr: Option<Expr> = None;
        let mut off = vec![-(radius as i64); ndim];
        loop {
            let coeff = if off.iter().all(|&o| o == 0) {
                center_w
            } else {
                w
            };
            let term = coeff * Expr::at(input, &off);
            expr = Some(match expr {
                Some(e) => e + term,
                None => term,
            });
            // Odometer increment over the box.
            let mut d = ndim;
            loop {
                if d == 0 {
                    return Kernel::new(name, ndim, expr.unwrap());
                }
                d -= 1;
                off[d] += 1;
                if off[d] <= radius as i64 {
                    break;
                }
                off[d] = -(radius as i64);
            }
        }
    }

    /// The update expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Every distinct access the expression makes, as `(tensor,
    /// time_back, offsets)`, in canonical order.
    pub fn accesses(&self) -> impl ExactSizeIterator<Item = (&str, usize, &[i64])> + '_ {
        let n = self.offsets.len() / self.reads.len();
        let row = move |(i, &(t, time)): (usize, &(usize, usize))| {
            (&*self.tensors[t], time, &self.offsets[i * n..][..n])
        };
        self.reads.iter().enumerate().map(row)
    }

    /// The linear form: `(offset, coefficient)` per tap, in offset order,
    /// an offset read twice folded from `0.0` in walk order; `Err` for a
    /// non-linear or multi-tensor kernel.
    pub fn taps(&self) -> Result<impl ExactSizeIterator<Item = (&[i64], f64)> + '_> {
        let coeffs = self.coeffs.as_ref().map_err(Clone::clone)?;
        Ok(self
            .accesses()
            .zip(coeffs)
            .map(|((_, _, off), &c)| (off, c)))
    }

    /// Number of distinct grid points the kernel reads.
    pub fn points(&self) -> usize {
        self.reads.len()
    }

    /// Per-dimension reach (max |offset|).
    pub fn reach(&self) -> &[usize] {
        &self.reach
    }

    /// Mutable access to the schedule, mirroring the paper's
    /// `S_3d7pt.tile(...)` call style.
    pub fn sched(&mut self) -> &mut Schedule {
        &mut self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_point_counts_match_paper_benchmarks() {
        // (ndim, radius) -> points, per Table 4.
        assert_eq!(Kernel::star_normalized("s", 2, 2).points(), 9); // 2d9pt_star
        assert_eq!(Kernel::star_normalized("s", 3, 1).points(), 7); // 3d7pt_star
        assert_eq!(Kernel::star_normalized("s", 3, 2).points(), 13); // 3d13pt_star
        assert_eq!(Kernel::star_normalized("s", 3, 4).points(), 25); // 3d25pt_star
        assert_eq!(Kernel::star_normalized("s", 3, 5).points(), 31); // 3d31pt_star
    }

    #[test]
    fn box_point_counts_match_paper_benchmarks() {
        assert_eq!(Kernel::boxed("b", 2, 1, 0.5).unwrap().points(), 9); // 2d9pt_box
        assert_eq!(Kernel::boxed("b", 2, 5, 0.5).unwrap().points(), 121); // 2d121pt_box
        assert_eq!(Kernel::boxed("b", 2, 6, 0.5).unwrap().points(), 169); // 2d169pt_box
    }

    #[test]
    fn reach_equals_radius() {
        let k = Kernel::star_normalized("s", 3, 4);
        assert_eq!(k.reach(), vec![4, 4, 4]);
        let b = Kernel::boxed("b", 2, 6, 0.5).unwrap();
        assert_eq!(b.reach(), vec![6, 6]);
    }

    #[test]
    fn normalized_kernels_have_unit_coeff_sum() {
        for k in [
            Kernel::star_normalized("s", 2, 2),
            Kernel::star_normalized("s", 3, 5),
            Kernel::boxed("b", 2, 5, 0.5).unwrap(),
        ] {
            let sum: f64 = k.taps().unwrap().map(|(_, c)| c).sum();
            assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        }
    }

    #[test]
    fn op_taps_equal_points() {
        let k = Kernel::boxed("b", 3, 1, 0.4).unwrap();
        assert_eq!(k.taps().unwrap().len(), 27);
    }

    #[test]
    fn star_rejects_wrong_coeff_count() {
        assert!(Kernel::star("s", 3, 2, &[1.0]).is_err());
    }

    #[test]
    fn kernel_infers_input_tensor() {
        let k = Kernel::star_normalized("s", 3, 1);
        assert_eq!(k.input, "B");
    }

    #[test]
    fn kernel_rejects_mismatched_access_dims() {
        let e = Expr::at("B", &[0, 0]) + Expr::at("B", &[0, 0, 0]);
        assert!(Kernel::new("bad", 2, e).is_err());
    }

    #[test]
    fn kernel_with_no_access_is_rejected() {
        assert!(Kernel::new("bad", 2, Expr::c(1.0)).is_err());
    }

    #[test]
    fn reach_takes_max_abs_offset() {
        let e = Expr::at("B", &[-3, 0, 1]) + Expr::at("B", &[2, -1, 0]);
        assert_eq!(Kernel::new("k", 3, e).unwrap().reach(), vec![3, 1, 1]);
    }

    /// The tree walks every layer made before kernels kept a table,
    /// verbatim but for the recursion they borrowed from `Expr`: the
    /// table's oracle.
    mod parent {
        use crate::error::{MscError, Result};
        use crate::expr::{Access, BinOp, Expr, UnOp};
        use crate::stencil::Stencil;
        use std::collections::{BTreeMap, BTreeSet};

        pub fn visit(e: &Expr, f: &mut dyn FnMut(&Expr)) {
            f(e);
            match e {
                Expr::Unary(_, a) => visit(a, f),
                Expr::Binary(_, a, b) => {
                    visit(a, f);
                    visit(b, f);
                }
                Expr::Call(_, args) => args.iter().for_each(|a| visit(a, f)),
                _ => {}
            }
        }

        pub fn accesses(e: &Expr) -> Vec<Access> {
            let mut set = BTreeSet::new();
            visit(e, &mut |e| {
                if let Expr::Access(a) = e {
                    set.insert(a.clone());
                }
            });
            set.into_iter().collect()
        }

        pub fn reach(e: &Expr, ndim: usize) -> Vec<usize> {
            let mut reach = vec![0usize; ndim];
            for a in accesses(e) {
                for (d, &o) in a.offsets.iter().enumerate() {
                    if d < ndim {
                        reach[d] = reach[d].max(o.unsigned_abs() as usize);
                    }
                }
            }
            reach
        }

        pub fn to_taps(e: &Expr) -> Result<Vec<(Vec<i64>, f64)>> {
            let mut taps: BTreeMap<Vec<i64>, f64> = BTreeMap::new();
            let mut tensor: Option<(String, usize)> = None;
            linearize(e, 1.0, &mut taps, &mut tensor)?;
            Ok(taps.into_iter().collect())
        }

        fn linearize(
            e: &Expr,
            scale: f64,
            taps: &mut BTreeMap<Vec<i64>, f64>,
            tensor: &mut Option<(String, usize)>,
        ) -> Result<()> {
            match e {
                Expr::Access(a) => {
                    match tensor {
                        Some((name, tb)) => {
                            if *name != a.tensor || *tb != a.time_back {
                                return Err(MscError::UnsupportedExpr(
                                    "linear form requires a single tensor and time offset".into(),
                                ));
                            }
                        }
                        None => *tensor = Some((a.tensor.clone(), a.time_back)),
                    }
                    *taps.entry(a.offsets.clone()).or_insert(0.0) += scale;
                    Ok(())
                }
                Expr::Binary(BinOp::Add, a, b) => {
                    linearize(a, scale, taps, tensor)?;
                    linearize(b, scale, taps, tensor)
                }
                Expr::Binary(BinOp::Sub, a, b) => {
                    linearize(a, scale, taps, tensor)?;
                    linearize(b, -scale, taps, tensor)
                }
                Expr::Binary(BinOp::Mul, a, b) => {
                    if let Some(c) = a.as_const() {
                        linearize(b, scale * c, taps, tensor)
                    } else if let Some(c) = b.as_const() {
                        linearize(a, scale * c, taps, tensor)
                    } else {
                        Err(MscError::UnsupportedExpr(
                            "non-constant multiplication in linear stencil".into(),
                        ))
                    }
                }
                Expr::Unary(UnOp::Neg, a) => linearize(a, -scale, taps, tensor),
                Expr::Const(c) if *c == 0.0 => Ok(()),
                other => Err(MscError::UnsupportedExpr(format!(
                    "cannot linearize node: {other}"
                ))),
            }
        }

        /// `Footprint::of_stencil` as a map from `(tensor, time)` to the
        /// slot's box and offset set.
        pub type Slots = BTreeMap<(String, usize), (Vec<i64>, Vec<i64>, BTreeSet<Vec<i64>>)>;

        pub fn footprint_of_stencil(stencil: &Stencil) -> Result<Slots> {
            let mut slots = Slots::new();
            for term in &stencil.terms {
                let k = stencil.kernel(&term.kernel)?;
                for a in accesses(k.expr()) {
                    let off = &a.offsets;
                    let slot = slots
                        .entry((a.tensor.clone(), term.dt + a.time_back))
                        .or_insert_with(|| (off.clone(), off.clone(), BTreeSet::new()));
                    for (d, &o) in off.iter().enumerate() {
                        slot.0[d] = slot.0[d].min(o);
                        slot.1[d] = slot.1[d].max(o);
                    }
                    slot.2.insert(off.clone());
                }
            }
            Ok(slots)
        }
    }

    /// splitmix64: the generated trees are the same on every run.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A weight: signed zeros, and values whose sums round, so a fold
        /// in another order shows in the bits.
        fn coeff(&mut self) -> f64 {
            const COEFFS: [f64; 9] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 3.0, 1.0e-3];
            COEFFS[self.below(COEFFS.len())]
        }

        /// Offsets in -1..=1, so a tree of a dozen accesses repeats some.
        fn offset(&mut self, ndim: usize) -> Vec<i64> {
            (0..ndim).map(|_| self.below(3) as i64 - 1).collect()
        }
    }

    /// A random tree. `linear` trees read `B` at one time only and use
    /// `+`, `-`, negation and constant scaling on either side (sometimes
    /// by a constant subexpression), with `±0.0` literals among the
    /// leaves. Other trees add a second tensor, an older time, non-zero
    /// literals, products, quotients and calls, where linearizing fails.
    fn tree(rng: &mut Rng, depth: usize, ndim: usize, linear: bool) -> Expr {
        if depth == 0 || rng.below(4) == 0 {
            let off = rng.offset(ndim);
            return match (linear, rng.below(10)) {
                (_, 0) => Expr::c([0.0, -0.0][rng.below(2)]),
                (false, 1) => Expr::at("C", &off),
                (false, 2) => Expr::at_time("B", &off, 1),
                (false, 3) => Expr::c(rng.coeff()),
                (false, 4) => Expr::ConstI(rng.below(3) as i64),
                _ => Expr::at("B", &off),
            };
        }
        let sub = |rng: &mut Rng| tree(rng, depth - 1, ndim, linear);
        match rng.below(if linear { 6 } else { 9 }) {
            0 => sub(rng) + sub(rng),
            1 => sub(rng) - sub(rng),
            2 => -sub(rng),
            3 => rng.coeff() * sub(rng),
            4 => sub(rng) * Expr::c(rng.coeff()),
            5 => (Expr::c(rng.coeff()) + Expr::c(rng.coeff())) * sub(rng),
            6 => sub(rng) * sub(rng),
            7 => Expr::Binary(
                crate::expr::BinOp::Div,
                Box::new(sub(rng)),
                Box::new(sub(rng)),
            ),
            _ => Expr::Call("sin".into(), vec![sub(rng)]),
        }
    }

    fn tap_bits<'a>(taps: impl Iterator<Item = (&'a [i64], f64)>) -> Vec<(Vec<i64>, u64)> {
        taps.map(|(o, c)| (o.to_vec(), c.to_bits())).collect()
    }

    #[test]
    fn kernel_table_equals_the_parent_tree_walks() {
        use crate::footprint::Footprint;
        use crate::stencil::{Stencil, TimeTerm};
        let mut rng = Rng(38);
        let (mut linear, mut refused, mut folded, mut zero_weights, mut stencils) = (0, 0, 0, 0, 0);
        for case in 0..1500 {
            let ndim = 1 + case % 3;
            let mut kernels = Vec::new();
            for (name, is_linear) in [("a", case % 4 != 0), ("b", case % 3 != 0)] {
                let expr = tree(&mut rng, 1 + case % 6, ndim, is_linear);
                let Ok(k) = Kernel::new(name, ndim, expr.clone()) else {
                    assert!(parent::accesses(&expr).is_empty(), "case {case}: {expr}");
                    continue;
                };
                let accesses = parent::accesses(&expr);
                let want: Vec<_> = accesses
                    .iter()
                    .map(|a| (&*a.tensor, a.time_back, &*a.offsets))
                    .collect();
                assert_eq!(
                    k.accesses().collect::<Vec<_>>(),
                    want,
                    "case {case}: {expr}"
                );
                assert_eq!(k.points(), accesses.len());
                assert_eq!(k.reach(), parent::reach(&expr, ndim), "case {case}: {expr}");
                match (k.taps().map(tap_bits), parent::to_taps(&expr)) {
                    (Ok(got), Ok(want)) => {
                        let want_bits = tap_bits(want.iter().map(|(o, c)| (o.as_slice(), *c)));
                        assert_eq!(got, want_bits, "case {case}: {expr}");
                        linear += 1;
                        let mut reads = 0;
                        parent::visit(&expr, &mut |e| {
                            reads += usize::from(matches!(e, Expr::Access(_)))
                        });
                        folded += usize::from(want.len() < reads);
                        zero_weights += usize::from(want.iter().any(|t| t.1 == 0.0));
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got, want, "case {case}: {expr}");
                        assert_eq!(expr.linear_terms().unwrap_err(), want);
                        refused += 1;
                    }
                    (got, want) => panic!("case {case}: {expr}: {got:?} vs {want:?}"),
                }
                kernels.push(k);
            }
            if kernels.is_empty() {
                continue;
            }
            let terms = (1..=1 + rng.below(3))
                .map(|dt| TimeTerm {
                    dt,
                    weight: 0.5,
                    kernel: kernels[rng.below(kernels.len())].name.clone(),
                })
                .collect();
            let st = Stencil::new("st", kernels, terms).unwrap();
            let want = parent::footprint_of_stencil(&st).unwrap();
            let fp = Footprint::of_stencil(&st).unwrap();
            assert_eq!(fp.num_slots(), want.len(), "case {case}");
            for (slot, ((tensor, time), (lo, hi, offsets))) in fp.slots().zip(&want) {
                assert_eq!((&slot.tensor, slot.time), (tensor, *time), "case {case}");
                assert_eq!((&slot.lo, &slot.hi), (lo, hi), "case {case}");
                let got: Vec<&[i64]> = slot.offsets().collect();
                let want: Vec<&[i64]> = offsets.iter().map(Vec::as_slice).collect();
                assert_eq!(got, want, "case {case}");
                assert_eq!(slot.points(), offsets.len());
            }
            let points: usize = want.values().map(|s| s.2.len()).sum();
            assert_eq!(fp.distinct_points(), points);
            stencils += 1;
        }
        // The generator reached what the table must agree on.
        assert!(
            linear > 2000 && refused > 300 && folded > 200 && zero_weights > 300 && stencils > 1400,
            "{linear} {refused} {folded} {zero_weights} {stencils}"
        );
    }
}
