//! Iteration-to-convergence driver: PDE solvers iterate stencil sweeps
//! "over many timesteps until convergence" (paper §1). This module adds
//! residual norms and a driver that runs until the update falls below a
//! tolerance.

use crate::boundary::Boundary;
use crate::driver::{Executor, TimeLoop};
use crate::grid::{Grid, Scalar};
use crate::tier::ExecTier;
use msc_core::error::{MscError, Result};
use msc_core::prelude::*;
use std::borrow::Cow;

/// Norms over the interior difference of two grids.
pub(crate) fn l2_diff<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> f64 {
    let mut s = 0.0;
    a.for_each_interior(|pos| {
        let d = a.get(pos).to_f64() - b.get(pos).to_f64();
        s += d * d;
    });
    (s / a.interior_len() as f64).sqrt()
}

/// Outcome of an iterate-until-converged run.
#[derive(Debug, Clone)]
pub struct ConvergenceReport<T> {
    pub state: Grid<T>,
    /// Steps actually performed.
    pub steps: usize,
    /// Residual (RMS update magnitude) after the final step.
    pub final_residual: f64,
    /// Residual history, one entry per step.
    pub history: Vec<f64>,
    pub converged: bool,
}

/// Iterate `program`'s stencil until the RMS step-to-step update drops
/// below `tol`, up to `max_steps`. `program.timesteps` is ignored.
pub fn run_until_converged<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
    bc: Boundary,
    tol: f64,
    max_steps: usize,
) -> Result<ConvergenceReport<T>> {
    if tol <= 0.0 || max_steps == 0 {
        return Err(MscError::InvalidConfig(
            "convergence needs a positive tolerance and at least one step".into(),
        ));
    }
    let mut run = TimeLoop::admit(program, executor, Cow::Borrowed(init), bc, ExecTier::Auto)?;
    let mut history = Vec::new();
    while history.len() < max_steps {
        let stepped = run.step()?;
        let residual = l2_diff(stepped.state, stepped.previous);
        history.push(residual);
        if residual < tol {
            break;
        }
    }
    let final_residual = *history.last().expect("max_steps is at least one");
    Ok(ConvergenceReport {
        state: run.into_state(),
        steps: history.len(),
        final_residual,
        converged: final_residual < tol,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};

    fn smoothing_program(steps_hint: usize) -> StencilProgram {
        let b = benchmark(BenchmarkId::S2d9ptBox);
        b.program(&[24, 24], DType::F64, steps_hint).unwrap()
    }

    /// Max-norm of the interior difference.
    fn max_diff<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> f64 {
        let mut m = 0.0f64;
        a.for_each_interior(|pos| {
            m = m.max((a.get(pos).to_f64() - b.get(pos).to_f64()).abs());
        });
        m
    }

    #[test]
    fn smoothing_converges_and_residuals_shrink() {
        let p = smoothing_program(1);
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
        let r = run_until_converged(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Dirichlet,
            1e-5,
            800,
        )
        .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        assert!(r.steps < 800);
        // Residuals trend down (allow small non-monotonic wiggles from
        // the two-step temporal dependence).
        let first = r.history[0];
        let last = *r.history.last().unwrap();
        assert!(last < first / 100.0, "{first} -> {last}");
    }

    #[test]
    fn max_steps_bound_is_respected() {
        let p = smoothing_program(1);
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);
        let r = run_until_converged(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Dirichlet,
            1e-300,
            7,
        )
        .unwrap();
        assert!(!r.converged);
        assert_eq!(r.steps, 7);
        assert_eq!(r.history.len(), 7);
    }

    #[test]
    fn norms_are_zero_for_identical_grids() {
        let g: Grid<f64> = Grid::random(&[6, 6], &[1, 1], 2);
        assert_eq!(l2_diff(&g, &g), 0.0);
        assert_eq!(max_diff(&g, &g), 0.0);
    }

    #[test]
    fn l2_is_below_max_norm() {
        let a: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 4);
        let b: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 5);
        assert!(l2_diff(&a, &b) <= max_diff(&a, &b) + 1e-15);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let p = smoothing_program(1);
        let init: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
        assert!(run_until_converged(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Dirichlet,
            0.0,
            10
        )
        .is_err());
        assert!(run_until_converged(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Dirichlet,
            1e-3,
            0
        )
        .is_err());
    }
}
