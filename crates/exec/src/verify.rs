//! Correctness verification: relative error between an executor's output
//! and the serial reference (paper §5.1: below 1e-5 for fp32, 1e-10 for
//! fp64).

use crate::compiled::CompiledStencil;
use crate::grid::{Grid, Scalar};
use crate::{driver, reference};
use msc_core::error::Result;
use msc_core::prelude::*;

/// Maximum relative error over interior points:
/// `max |a - b| / max(1, |b|)` (errors on near-zero values are measured
/// absolutely so they do not blow up the metric).
pub fn max_rel_error<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> f64 {
    assert_eq!(a.shape, b.shape, "grid shapes differ");
    let mut worst = 0.0f64;
    a.for_each_interior(|pos| {
        let x = a.get(pos).to_f64();
        let y = b.get(pos).to_f64();
        let denom = y.abs().max(1.0);
        let err = (x - y).abs() / denom;
        if err > worst {
            worst = err;
        }
    });
    worst
}

/// Whether two grids hold the same bits, halo included: `-0.0` is not
/// `+0.0` and a NaN equals itself, which `==` on floats gets wrong both
/// ways. What "bit-identical to the serial reference" means.
pub fn same_bits<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> bool {
    let bits = |v: &T| v.to_f64().to_bits();
    let (a_bits, b_bits) = (a.as_slice().iter().map(bits), b.as_slice().iter().map(bits));
    a.shape == b.shape && a.halo == b.halo && a_bits.eq(b_bits)
}

/// Run `program` under `executor` and under the serial reference from the
/// same initial grid, returning the maximum relative error.
pub fn verify_against_reference<T: Scalar>(
    program: &StencilProgram,
    executor: &driver::Executor,
    seed: u64,
) -> Result<f64> {
    let init: Grid<T> = Grid::random(&program.grid.shape, &program.grid.halo, seed);

    let (got, _) = driver::run_program(program, executor, &init)?;

    // Serial reference with the same ring-buffer driver.
    let c = CompiledStencil::compile(program, &init)?;
    let mut ring: Vec<Grid<T>> = (0..c.max_dt + 1).map(|_| init.clone()).collect();
    for s in 0..program.timesteps {
        let t = c.max_dt + s;
        let out_slot = t % ring.len();
        let mut out = ring[out_slot].clone();
        let inputs: Vec<&Grid<T>> = (1..=c.max_dt).map(|dt| &ring[(t - dt) % ring.len()]).collect();
        reference::step(&c, &inputs, &mut out);
        ring[out_slot] = out;
    }
    let last = (c.max_dt + program.timesteps - 1) % ring.len();
    Ok(max_rel_error(&got, &ring[last]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_grids_have_zero_error() {
        let g: Grid<f64> = Grid::random(&[8, 8], &[1, 1], 4);
        assert_eq!(max_rel_error(&g, &g), 0.0);
    }

    #[test]
    fn error_is_relative_for_large_values() {
        let mut a: Grid<f64> = Grid::zeros(&[2, 2], &[0, 0]);
        let mut b: Grid<f64> = Grid::zeros(&[2, 2], &[0, 0]);
        a.set(&[0, 0], 1000.0);
        b.set(&[0, 0], 1001.0);
        let e = max_rel_error(&a, &b);
        assert!((e - 1.0 / 1001.0).abs() < 1e-12);
    }

    #[test]
    fn error_is_absolute_near_zero() {
        let mut a: Grid<f64> = Grid::zeros(&[1], &[0]);
        let b: Grid<f64> = Grid::zeros(&[1], &[0]);
        a.set(&[0], 1e-8);
        assert!((max_rel_error(&a, &b) - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart_and_matches_equal_nans() {
        let mut a: Grid<f64> = Grid::zeros(&[2, 2], &[1, 1]);
        let mut b = a.clone();
        assert!(same_bits(&a, &b));
        // Equal to `==` and to max_rel_error, different bits.
        b.set(&[1, 1], -0.0);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(max_rel_error(&a, &b), 0.0);
        assert!(!same_bits(&a, &b));
        // The same NaN payload on both sides: unequal to `==`, same bits.
        a.set(&[1, 1], f64::NAN);
        b.set(&[1, 1], f64::NAN);
        assert_ne!(a.as_slice(), b.as_slice());
        assert!(same_bits(&a, &b));
        b.set(&[1, 1], f64::from_bits(f64::NAN.to_bits() | 1));
        assert!(!same_bits(&a, &b));
        // A different halo width is a different grid.
        assert!(!same_bits(
            &Grid::<f32>::zeros(&[2, 2], &[1, 1]),
            &Grid::<f32>::zeros(&[2, 2], &[0, 0])
        ));
    }

    #[test]
    #[should_panic(expected = "grid shapes differ")]
    fn mismatched_shapes_panic() {
        let a: Grid<f64> = Grid::zeros(&[2, 2], &[0, 0]);
        let b: Grid<f64> = Grid::zeros(&[3, 2], &[0, 0]);
        max_rel_error(&a, &b);
    }
}
