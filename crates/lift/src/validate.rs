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

/// Evaluate the preserved C expression at interior point `pos` of `g`,
/// in exactly the source's tree shape (and therefore its rounding
/// sequence).
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

/// Run the original loop nest directly: ping-pong buffers, halo frozen
/// at its initial values (Dirichlet), interior rewritten every step.
pub fn direct_reference(lifted: &Lifted, init: &Grid<f64>, timesteps: usize) -> Grid<f64> {
    let mut cur = init.clone();
    let mut next = init.clone();
    let mut cells: Vec<Vec<usize>> = Vec::new();
    cur.for_each_interior(|p| cells.push(p.to_vec()));
    for _ in 0..timesteps {
        for p in &cells {
            let v = eval(&lifted.nest.rhs, &cur, p);
            next.set(p, v);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Validate `lifted` on every seed across all three execution tiers.
/// The caller must have cleared the deny gate first (an in-place nest
/// is order-dependent and has no well-defined reference).
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
    let grid = &lifted.program.grid;
    // Single-tile plan: always legal for any shape, and it still drives
    // the tiered executor (the tier choice is what is under test here,
    // not the tiling) — thread-parallel bit-exactness is covered by the
    // exec crate's own differential suite.
    let plan = ExecPlan::lower(&Schedule::default(), grid.ndim(), &grid.shape).map_err(|e| {
        LiftError::new(
            LintCode::LiftValidationMismatch,
            format!("could not lower an execution plan: {e}"),
            format!("program `{}`", lifted.program.name),
            String::new(),
        )
    })?;
    let mut cells = 0usize;
    for &seed in seeds {
        let init: Grid<f64> = Grid::random(&grid.shape, &grid.halo, seed);
        let expected = direct_reference(lifted, &init, lifted.program.timesteps);
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let (got, _) = run_program_tier(
                &lifted.program,
                &Executor::Tiled(plan.clone()),
                &init,
                Boundary::Dirichlet,
                tier,
            )
            .map_err(|e| {
                LiftError::new(
                    LintCode::LiftValidationMismatch,
                    format!("lifted program failed to execute on tier {tier:?}: {e}"),
                    format!("program `{}`", lifted.program.name),
                    String::new(),
                )
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
        assert!(err.help.contains("canonical"), "{}", err.help);
    }
}
