//! Footprint recovery (pass 3 of the lift pipeline, DESIGN.md §16.3).
//!
//! Maps the affine summary onto the stencil IR: loop margins become the
//! grid's interior shape and halo, the tap list becomes a
//! [`msc_core::Kernel`] expression (source order preserved), and array
//! aliasing picks the time-slot assignment — a two-buffer `B = f(A)`
//! nest lifts to the canonical `t-1 → t` sweep (window 2), an in-place
//! `A = f(A)` nest lifts to a window-1 program that the ordinary lint
//! passes then deny as order-dependent (`MSC-L201`/`MSC-L302`), exactly
//! as they would a hand-written DSL program.

use crate::affine::AffineNest;
use crate::LiftError;
use msc_core::{DType, Expr, Kernel, SpNode, StencilProgram};
use msc_lint::LintCode;

/// Timestep count stamped on lifted programs. The C nest describes one
/// sweep; scheduling and validation iterate it a few times so time-slot
/// bugs (not just single-step arithmetic) are exercised.
pub const LIFT_TIMESTEPS: usize = 4;

/// A successfully lifted program plus the affine summary it came from
/// (the validator interprets the summary's `rhs` directly).
#[derive(Debug, Clone)]
pub struct Lifted {
    pub program: StencilProgram,
    pub nest: AffineNest,
}

fn mismatch(msg: String, context: String, help: &str) -> LiftError {
    LiftError::new(LintCode::LiftMarginMismatch, msg, context, help.into())
}

/// Map an [`AffineNest`] onto a [`StencilProgram`].
pub fn recover(nest: AffineNest) -> Result<Lifted, LiftError> {
    let ndim = nest.extents.len();
    let ctx = format!("nest `{}`", nest.name);

    // Loop margins: the cells each loop leaves unswept on either side.
    let mut margins = Vec::with_capacity(ndim);
    for d in 0..ndim {
        let lo = nest.lo[d];
        let hi_gap = nest.extents[d] as i64 - nest.hi[d];
        if lo < 0 || hi_gap < 0 {
            return Err(mismatch(
                format!(
                    "loop {} sweeps [{}, {}) but `{}` only has extent {}",
                    d + 1,
                    nest.lo[d],
                    nest.hi[d],
                    nest.out_array,
                    nest.extents[d]
                ),
                ctx.clone(),
                "the store runs outside the declared array",
            ));
        }
        if lo != hi_gap {
            return Err(mismatch(
                format!(
                    "loop {} leaves {} cell(s) below and {} above the sweep; \
                     halos must be symmetric",
                    d + 1,
                    lo,
                    hi_gap
                ),
                ctx.clone(),
                "centre the loop bounds in the array",
            ));
        }
        margins.push(lo as usize);
    }
    let margin = margins[0];
    if margins.iter().any(|&m| m != margin) {
        return Err(mismatch(
            format!("margins {margins:?} differ across dimensions"),
            ctx,
            "MSC grids carry one uniform halo width; pad every dimension \
             equally",
        ));
    }

    // Kernel expression: the source-order tap sum. Coefficients of ±1
    // stay bare accesses (or negations) so the expression — and with it
    // the interp tier's rounding sequence — mirrors the C source.
    let mut expr: Option<Expr> = None;
    for t in &nest.taps {
        let access = Expr::at(&nest.in_array, &t.offsets);
        let term = if t.coeff == 1.0 {
            access
        } else if t.coeff == -1.0 {
            -1.0 * access
        } else {
            t.coeff * access
        };
        expr = Some(match expr {
            Some(e) => e + term,
            None => term,
        });
    }
    let expr = expr.expect("affine pass guarantees at least one tap");

    let kernel = Kernel::new(&nest.name, ndim, expr).map_err(|e| {
        LiftError::new(
            LintCode::LiftUnsupportedConstruct,
            format!("recovered kernel is not representable: {e}"),
            format!("nest `{}`", nest.name),
            String::new(),
        )
    })?;
    // The stencil's reach must fit inside the unswept margin, or the C
    // nest reads cells the lifted halo does not hold.
    let reach = kernel.reach();
    if let Some((d, &r)) = reach.iter().enumerate().find(|&(_, &r)| r > margin) {
        return Err(mismatch(
            format!(
                "taps reach {r} cell(s) along dimension {} but the loop margin \
                 is only {margin}; the nest reads outside the swept interior's \
                 guard band",
                d + 1
            ),
            format!("nest `{}`", nest.name),
            "widen the loop margins to cover the stencil's reach",
        ));
    }

    let shape: Vec<usize> = (0..ndim)
        .map(|d| (nest.hi[d] - nest.lo[d]) as usize)
        .collect();
    // Two-buffer nests are the canonical Jacobi `t-1 → t` sweep; in-place
    // nests get the minimal window and let the lint passes judge them.
    let window = if nest.in_place { 1 } else { 2 };

    let node = SpNode::new(&nest.in_array, DType::F64, &shape, margin, window).map_err(|e| {
        mismatch(
            format!("recovered grid is not representable: {e}"),
            format!("nest `{}`", nest.name),
            "",
        )
    })?;
    let kname = kernel.name.clone();
    let program = StencilProgram::builder(&nest.name)
        .grid(node)
        .kernel(kernel)
        .combine(&[(1, 1.0, kname.as_str())])
        .timesteps(LIFT_TIMESTEPS)
        .build_unchecked()
        .map_err(|e| {
            LiftError::new(
                LintCode::LiftUnsupportedConstruct,
                format!("recovered program is not representable: {e}"),
                format!("nest `{}`", nest.name),
                String::new(),
            )
        })?;
    Ok(Lifted { program, nest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::analyze;
    use crate::ast::parse;

    fn lift(src: &str) -> Result<Lifted, LiftError> {
        recover(analyze(&parse(src).unwrap(), "t").unwrap())
    }

    #[test]
    fn recovers_grid_halo_and_window() {
        let l = lift(
            "double A[12][12]; double B[12][12];
             for (int i = 2; i < 10; i++)
               for (int j = 2; j < 10; j++)
                 B[i][j] = 0.25*A[i-2][j] + 0.5*A[i][j] + 0.25*A[i][j+2];",
        )
        .unwrap();
        assert_eq!(l.program.grid.shape, vec![8, 8]);
        assert_eq!(l.program.grid.halo, vec![2, 2]);
        assert_eq!(l.program.grid.time_window, 2);
        assert_eq!(l.program.timesteps, LIFT_TIMESTEPS);
        assert_eq!(l.program.stencil.kernels.len(), 1);
        assert_eq!(l.program.stencil.kernels[0].taps().unwrap().len(), 3);
    }

    #[test]
    fn in_place_gets_window_one() {
        let l = lift(
            "double A[8];
             for (int i = 1; i < 7; i++) A[i] = 0.5*A[i-1] + 0.5*A[i+1];",
        )
        .unwrap();
        assert_eq!(l.program.grid.time_window, 1);
    }

    #[test]
    fn margin_problems_are_l506() {
        for bad in [
            // asymmetric margins
            "double A[8]; double B[8];
             for (int i = 1; i < 8; i++) B[i] = 1.0*A[i];",
            // non-uniform across dims
            "double A[10][10]; double B[10][10];
             for (int i = 1; i < 9; i++) for (int j = 2; j < 8; j++)
               B[i][j] = 1.0*A[i][j];",
            // reach exceeds margin: reads A[0-1] = out of bounds
            "double A[8]; double B[8];
             for (int i = 1; i < 7; i++) B[i] = 0.5*A[i-2] + 0.5*A[i];",
            // sweep escapes the array entirely
            "double A[8]; double B[8];
             for (int i = 0; i < 9; i++) B[i] = 1.0*A[i];",
        ] {
            assert_eq!(
                lift(bad).unwrap_err().code,
                LintCode::LiftMarginMismatch,
                "{bad}"
            );
        }
    }

    #[test]
    fn margin_zero_pointwise_nests_lift() {
        let l = lift(
            "double A[8]; double B[8];
             for (int i = 0; i < 8; i++) B[i] = 2.0*A[i];",
        )
        .unwrap();
        assert_eq!(l.program.grid.halo, vec![0]);
        assert_eq!(l.program.grid.shape, vec![8]);
    }
}
