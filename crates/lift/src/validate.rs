//! Translation validation (pass 4 of the lift pipeline, DESIGN.md
//! §16.4).
//!
//! The lifted program is executed through the normal lint → schedule →
//! execute pipeline, and differenced **bit-for-bit** against a direct
//! interpreter that evaluates the original C expression tree (the
//! [`RExpr`] the affine pass preserved) with the C loop nest's
//! ping-pong semantics. Every seed is checked on every execution tier
//! (interp, bytecode VM, specialized), so a validation pass
//! certifies the whole lowering stack, not just the lifter.
//!
//! Bit-exactness is achievable — not just approximable — because the
//! affine pass only admits expressions whose linearization preserves
//! the rounding sequence (sum-of-products in canonical tap order; see
//! `affine.rs`), and the tiers are bit-identical to the interp oracle
//! by construction. Any residue is a lifter bug and surfaces as
//! `MSC-L508`.

use crate::affine::RExpr;
use crate::recover::Lifted;
use crate::LiftError;
use msc_core::{ExecPlan, Schedule};
use msc_exec::{run_program_tier, Boundary, ExecTier, Executor, Grid};
use msc_lint::LintCode;
use std::iter::zip;

/// Default seeds for `mscc lift` and the corpus tests: three
/// independent random grids per tier.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 12, 13];

/// Summary of a successful validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// Seeds validated.
    pub seeds: Vec<u64>,
    /// Execution tiers each seed was checked on.
    pub tiers: usize,
    /// Total padded cells compared bit-for-bit.
    pub cells_compared: usize,
}

/// A whole-row operation `out[i] = out[i] ∘ rhs[i]`.
type RowOp = fn(&mut [f64], &[f64]);

/// The preserved C expression with every access resolved, once, to a flat
/// offset into the padded buffer, and a scratch row per binary node for its
/// right operand. The tree keeps the source's shape, so each cell still
/// goes through the source's operations in the source's order; only the
/// loop over a row's cells moved inside the nodes.
enum RowExpr {
    Num(f64),
    At(isize),
    Neg(Box<RowExpr>),
    Bin(RowOp, Box<RowExpr>, Box<RowExpr>, Vec<f64>),
}

impl RowExpr {
    fn of(e: &RExpr, strides: &[usize], len: usize) -> RowExpr {
        let boxed = |e: &RExpr| Box::new(RowExpr::of(e, strides, len));
        let bin = |op: RowOp, a, b| RowExpr::Bin(op, boxed(a), boxed(b), vec![0.0; len]);
        match e {
            RExpr::Num(v) => RowExpr::Num(*v),
            RExpr::Access(off) => RowExpr::At(
                zip(off, strides)
                    .map(|(&o, &s)| o as isize * s as isize)
                    .sum(),
            ),
            RExpr::Neg(a) => RowExpr::Neg(boxed(a)),
            RExpr::Add(a, b) => bin(|o, r| o.iter_mut().zip(r).for_each(|(o, r)| *o += r), a, b),
            RExpr::Sub(a, b) => bin(|o, r| o.iter_mut().zip(r).for_each(|(o, r)| *o -= r), a, b),
            RExpr::Mul(a, b) => bin(|o, r| o.iter_mut().zip(r).for_each(|(o, r)| *o *= r), a, b),
        }
    }

    /// Evaluate the node for the `out.len()` unit-stride cells of `src`
    /// starting at flat index `base`.
    fn eval(&mut self, src: &[f64], base: usize, out: &mut [f64]) {
        match self {
            RowExpr::Num(v) => out.fill(*v),
            RowExpr::At(off) => {
                let start = base.wrapping_add_signed(*off);
                out.copy_from_slice(&src[start..start + out.len()]);
            }
            RowExpr::Neg(a) => {
                a.eval(src, base, out);
                out.iter_mut().for_each(|o| *o = -*o);
            }
            RowExpr::Bin(op, a, b, rhs) => {
                a.eval(src, base, out);
                b.eval(src, base, rhs);
                op(out, rhs);
            }
        }
    }
}

/// Run the original loop nest directly: ping-pong buffers, halo frozen
/// at its initial values (Dirichlet), interior rewritten every step, one
/// interior row at a time.
pub fn direct_reference(lifted: &Lifted, init: &Grid<f64>, timesteps: usize) -> Grid<f64> {
    let last = init.ndim() - 1;
    let len = init.shape[last];
    let mut rhs = RowExpr::of(&lifted.nest.rhs, &init.strides, len);
    // Flat index of the first interior cell of every row.
    let mut rows = Vec::new();
    init.for_each_interior(|p| {
        if p[last] == 0 {
            rows.push(init.index(p));
        }
    });
    let mut cur = init.clone();
    let mut next = init.clone();
    for _ in 0..timesteps {
        for &base in &rows {
            let out = &mut next.as_mut_slice()[base..base + len];
            rhs.eval(cur.as_slice(), base, out);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Validate `lifted` on every seed across all three execution tiers,
/// after one check of the lifted program. An in-place nest is refused
/// first: it is order-dependent and has no well-defined reference.
pub fn validate(lifted: &Lifted, seeds: &[u64]) -> Result<ValidationOutcome, LiftError> {
    let ctx = format!("program `{}`", lifted.program.name);
    if lifted.nest.in_place {
        return Err(LiftError::new(
            LintCode::LiftValidationMismatch,
            "in-place nests are order-dependent; there is no reference to \
             validate against"
                .into(),
            ctx,
            "rewrite the nest with separate input and output arrays".into(),
        ));
    }
    // A refusal with no one-line fix.
    let refused = |m| LiftError::new(LintCode::LiftValidationMismatch, m, ctx.clone(), "".into());
    let checked = msc_lint::check(&lifted.program, None)
        .map_err(|r| refused(format!("lint rejected:\n{}", r.render_denies())))?;
    let grid = &lifted.program.grid;
    // Single-tile plan: always legal for any shape, and it still drives
    // the tiered executor (the tier choice is what is under test here,
    // not the tiling) — thread-parallel bit-exactness is covered by the
    // exec crate's own differential suite.
    let plan = ExecPlan::lower(&Schedule::default(), grid.ndim(), &grid.shape)
        .map_err(|e| refused(format!("could not lower an execution plan: {e}")))?;
    let mut cells = 0usize;
    for &seed in seeds {
        let init: Grid<f64> = Grid::random(&grid.shape, &grid.halo, seed);
        let expected = direct_reference(lifted, &init, lifted.program.timesteps);
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let (got, _) = run_program_tier(
                &checked,
                &Executor::Tiled(plan.clone()),
                &init,
                Boundary::Dirichlet,
                tier,
            )
            .map_err(|e| {
                refused(format!(
                    "lifted program failed to execute on tier {tier:?}: {e}"
                ))
            })?;
            let (exp, act) = (expected.as_slice(), got.as_slice());
            debug_assert_eq!(exp.len(), act.len());
            let mut bad = 0usize;
            let mut max_abs = 0.0f64;
            for (&e, &a) in exp.iter().zip(act) {
                if e.to_bits() != a.to_bits() {
                    bad += 1;
                    max_abs = max_abs.max((e - a).abs());
                }
            }
            if bad > 0 {
                return Err(LiftError::new(
                    LintCode::LiftValidationMismatch,
                    format!(
                        "lifted program diverges from the C nest on tier {tier:?}, \
                         seed {seed}: {bad}/{} cells differ (max |Δ| = {max_abs:e})",
                        exp.len()
                    ),
                    format!("program `{}`", lifted.program.name),
                    "the tap sum must be written in canonical (lexicographic \
                     offset) order so the lifted fold replays the C rounding \
                     sequence"
                        .into(),
                ));
            }
            cells += exp.len();
        }
    }
    Ok(ValidationOutcome {
        seeds: seeds.to_vec(),
        tiers: 3,
        cells_compared: cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift_source;

    /// The per-cell evaluator `direct_reference` ran until it learned to
    /// take a row per node: the preserved C expression at interior point
    /// `pos` of `g`, one recursive walk per cell. Kept as the row
    /// evaluator's own oracle.
    fn eval(e: &RExpr, g: &Grid<f64>, pos: &[usize]) -> f64 {
        match e {
            RExpr::Num(v) => *v,
            RExpr::Access(off) => g.get_rel(pos, off),
            RExpr::Add(a, b) => eval(a, g, pos) + eval(b, g, pos),
            RExpr::Sub(a, b) => eval(a, g, pos) - eval(b, g, pos),
            RExpr::Mul(a, b) => eval(a, g, pos) * eval(b, g, pos),
            RExpr::Neg(a) => -eval(a, g, pos),
        }
    }

    fn per_cell_reference(rhs: &RExpr, init: &Grid<f64>, timesteps: usize) -> Grid<f64> {
        let mut cur = init.clone();
        let mut next = init.clone();
        let mut cells: Vec<Vec<usize>> = Vec::new();
        cur.for_each_interior(|p| cells.push(p.to_vec()));
        for _ in 0..timesteps {
            for p in &cells {
                let v = eval(rhs, &cur, p);
                next.set(p, v);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// splitmix64: the generated trees must be the same on every run.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random nest of `Add` / `Sub` / `Mul` / `Neg` over accesses within
    /// `halo` and small literals (magnitude <= 2, so 2^8 factors cannot
    /// overflow: no NaN whose payload the two evaluators could order
    /// differently), `-0.0` and `0.0` among them.
    fn tree(rng: &mut Rng, depth: usize, halo: &[usize]) -> RExpr {
        const LITERALS: [f64; 8] = [-0.0, 0.0, 1.0, -1.0, 0.1, -0.3, 2.0, 1.0e-3];
        if depth == 0 || rng.below(5) == 0 {
            return if rng.below(3) == 0 {
                RExpr::Num(LITERALS[rng.below(LITERALS.len())])
            } else {
                RExpr::Access(
                    halo.iter()
                        .map(|&h| rng.below(2 * h + 1) as i64 - h as i64)
                        .collect(),
                )
            };
        }
        let sub = |rng: &mut Rng| Box::new(tree(rng, depth - 1, halo));
        match rng.below(4) {
            0 => RExpr::Add(sub(rng), sub(rng)),
            1 => RExpr::Sub(sub(rng), sub(rng)),
            2 => RExpr::Mul(sub(rng), sub(rng)),
            _ => RExpr::Neg(sub(rng)),
        }
    }

    #[test]
    fn row_evaluation_equals_per_cell_evaluation_bit_for_bit() {
        let base = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++) B[i] = 0.5*A[i-1] + 0.5*A[i+1];",
        );
        let mut rng = Rng(23);
        let (mut deepest, mut unit_rows, mut negative_zeros) = (0, 0, 0);
        for case in 0..400 {
            let ndim = 1 + case % 3;
            // Every fourth grid has rows of one cell; halos run 0..=2 per
            // dimension, so some trees can only read the centre.
            let shape: Vec<usize> = (0..ndim)
                .map(|d| {
                    if d == ndim - 1 && case % 4 == 0 {
                        1
                    } else {
                        1 + rng.below(7)
                    }
                })
                .collect();
            let halo: Vec<usize> = (0..ndim).map(|_| rng.below(3)).collect();
            let depth = 1 + case % 8;
            let rhs = tree(&mut rng, depth, &halo);
            let init: Grid<f64> = Grid::random(&shape, &halo, case as u64);
            let mut l = base.clone();
            l.nest.rhs = rhs;
            let rows = direct_reference(&l, &init, 3);
            let cells = per_cell_reference(&l.nest.rhs, &init, 3);
            assert_eq!((&rows.shape, &rows.halo), (&cells.shape, &cells.halo));
            for (i, (r, c)) in rows.as_slice().iter().zip(cells.as_slice()).enumerate() {
                assert!(!c.is_nan(), "case {case}: the generator must not make NaNs");
                assert_eq!(
                    r.to_bits(),
                    c.to_bits(),
                    "case {case} ({shape:?} halo {halo:?} depth {depth}), padded cell {i}: {r:e} vs {c:e}\n{:?}",
                    l.nest.rhs
                );
                negative_zeros += usize::from(c.to_bits() == (-0.0f64).to_bits());
            }
            deepest = deepest.max(depth);
            unit_rows += usize::from(shape[ndim - 1] == 1);
        }
        // The generator reached what the test is named for.
        assert_eq!(deepest, 8);
        assert!(
            unit_rows >= 100 && negative_zeros > 0,
            "{unit_rows} {negative_zeros}"
        );
    }

    fn lifted(src: &str) -> Lifted {
        let out = lift_source(src, "t");
        assert!(!out.report.has_deny(), "{}", out.report.render());
        out.lifted.expect("lifts")
    }

    #[test]
    fn canonical_jacobi_validates_on_all_tiers() {
        let l = lifted(
            "double A[12][12]; double B[12][12];
             void jac(void) {
               for (int i = 1; i < 11; i++)
                 for (int j = 1; j < 11; j++)
                   B[i][j] = 0.25*A[i-1][j] + 0.2*A[i][j-1] + 0.1*A[i][j]
                           + 0.2*A[i][j+1] + 0.25*A[i+1][j];
             }",
        );
        let v = validate(&l, &DEFAULT_SEEDS).unwrap();
        assert_eq!(v.tiers, 3);
        assert_eq!(v.seeds, DEFAULT_SEEDS.to_vec());
        assert!(v.cells_compared > 0);
    }

    #[test]
    fn subtraction_and_negation_validate_bit_exactly() {
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 2; i < 8; i++)
               B[i] = 0.1*A[i-2] - 0.3*A[i-1] + A[i] - A[i+1] + -0.2*A[i+2];",
        );
        validate(&l, &DEFAULT_SEEDS).unwrap();
    }

    #[test]
    fn non_canonical_tap_order_is_caught_as_l508() {
        // Three taps written in reverse offset order: the lifted fold
        // (canonical order) re-associates the additions, so the rounding
        // sequences differ and translation validation must refuse.
        let l = lifted(
            "double A[10]; double B[10];
             for (int i = 1; i < 9; i++)
               B[i] = 0.3*A[i+1] + 0.3*A[i] + 0.3*A[i-1];",
        );
        let err = validate(&l, &DEFAULT_SEEDS).unwrap_err();
        assert_eq!(err.code, LintCode::LiftValidationMismatch);
        assert_eq!(err.code.as_str(), "MSC-L508");
        assert!(err.help.contains("canonical"), "{}", err.help);
        // `validate` stops at the first tier that differs; each of the
        // three differs from the nest's own rounding sequence.
        let g = &l.program.grid;
        let plan = ExecPlan::lower(&Schedule::default(), g.ndim(), &g.shape).unwrap();
        let init: Grid<f64> = Grid::random(&g.shape, &g.halo, DEFAULT_SEEDS[0]);
        let expected = direct_reference(&l, &init, l.program.timesteps);
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let exec = Executor::Tiled(plan.clone());
            let (got, _) =
                run_program_tier(&l.program, &exec, &init, Boundary::Dirichlet, tier).unwrap();
            let same = expected
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(e, a)| e.to_bits() == a.to_bits());
            assert!(
                !same,
                "tier {tier:?} replayed a re-associated sum bit for bit"
            );
        }
    }
}
