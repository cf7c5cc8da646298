//! Variable-coefficient stencils: `out[x] = Σ_i c_i(x) · u[x + off_i]`
//! where coefficients may be read from coefficient grids — the kernel
//! form of WRF's `advect` and POP2's `hdifft`/`vdifft` that the paper's
//! §5.6 identifies as the next target ("the above stencils commonly
//! require more than one input grid, along with their coefficient
//! grids").

use crate::compiled::linear_offset;
use crate::grid::{Grid, GridLayout, Scalar};
use crate::sweep::sweep;
use msc_core::error::{MscError, Result};
use msc_core::expr::{Expr, VarCoeff};
use msc_core::schedule::plan::ExecPlan;

/// A compiled coefficient reference.
#[derive(Debug, Clone)]
enum CoeffRef<T> {
    Const(T),
    /// `scale * coeff_grids[idx][x + lin]`.
    Grid {
        idx: usize,
        lin: isize,
        scale: T,
    },
}

/// A compiled variable-coefficient sweep over one input grid.
#[derive(Debug, Clone)]
pub struct CompiledVarStencil<T> {
    pub ndim: usize,
    pub reach: Vec<usize>,
    /// Names of the coefficient grids, in slot order.
    pub coeff_names: Vec<String>,
    taps: Vec<(isize, CoeffRef<T>)>,
}

impl<T: Scalar> CompiledVarStencil<T> {
    /// Compile `expr` (a variable-coefficient linear form over `grid`)
    /// against `layout`. Coefficient grids must share the layout.
    #[allow(clippy::needless_range_loop)] // dimension loop indexes reach and halo in parallel
    pub fn compile(expr: &Expr, grid: &str, layout: &GridLayout) -> Result<CompiledVarStencil<T>> {
        let var_taps = expr.to_var_taps(grid)?;
        if var_taps.is_empty() {
            return Err(MscError::UnsupportedExpr("stencil reads no grid".into()));
        }
        let ndim = layout.ndim();
        let mut coeff_names: Vec<String> = Vec::new();
        let mut taps = Vec::with_capacity(var_taps.len());
        let mut reach = vec![0usize; ndim];
        for t in &var_taps {
            if t.offset.len() != ndim {
                return Err(MscError::DimMismatch {
                    expected: ndim,
                    got: t.offset.len(),
                });
            }
            for (d, &o) in t.offset.iter().enumerate() {
                reach[d] = reach[d].max(o.unsigned_abs() as usize);
            }
            let lin = linear_offset(&t.offset, &layout.strides);
            let coeff = match &t.coeff {
                VarCoeff::Const(c) => CoeffRef::Const(T::from_f64(*c)),
                VarCoeff::Tensor {
                    name,
                    offset,
                    scale,
                } => {
                    for (d, &o) in offset.iter().enumerate() {
                        reach[d] = reach[d].max(o.unsigned_abs() as usize);
                    }
                    let idx = coeff_names
                        .iter()
                        .position(|n| n == name)
                        .unwrap_or_else(|| {
                            coeff_names.push(name.clone());
                            coeff_names.len() - 1
                        });
                    CoeffRef::Grid {
                        idx,
                        lin: linear_offset(offset, &layout.strides),
                        scale: T::from_f64(*scale),
                    }
                }
            };
            taps.push((lin, coeff));
        }
        // Halo must cover the reach.
        for d in 0..ndim {
            if reach[d] > layout.halo[d] {
                return Err(MscError::HaloTooSmall {
                    tensor: grid.to_string(),
                    dim: d,
                    halo: layout.halo[d],
                    required: reach[d],
                });
            }
        }
        Ok(CompiledVarStencil {
            ndim,
            reach,
            coeff_names,
            taps,
        })
    }

    /// Bind coefficient grids by name; layouts must match `layout`.
    pub fn bind<'a>(
        &self,
        layout: &GridLayout,
        grids: &[(&str, &'a Grid<T>)],
    ) -> Result<Vec<&'a Grid<T>>> {
        self.coeff_names
            .iter()
            .map(|name| {
                let g = grids
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, g)| *g)
                    .ok_or_else(|| MscError::Undefined {
                        kind: "coefficient grid",
                        name: name.clone(),
                    })?;
                if g.padded != layout.padded {
                    return Err(MscError::InvalidConfig(format!(
                        "coefficient grid `{name}` layout {:?} != grid layout {:?}",
                        g.padded, layout.padded
                    )));
                }
                Ok(g)
            })
            .collect()
    }

    #[inline]
    fn apply_at(&self, input: &[T], coeffs: &[&[T]], base: usize) -> T {
        let mut acc = T::default();
        for (off, coeff) in &self.taps {
            let u = input[(base as isize + off) as usize];
            let c = match coeff {
                CoeffRef::Const(c) => *c,
                CoeffRef::Grid { idx, lin, scale } => {
                    *scale * coeffs[*idx][(base as isize + lin) as usize]
                }
            };
            acc = acc + c * u;
        }
        acc
    }

    /// One serial sweep: `out = stencil(input)` over the interior.
    pub fn step_reference(&self, input: &Grid<T>, coeffs: &[&Grid<T>], out: &mut Grid<T>) {
        let ndim = out.ndim();
        let shape = out.shape.clone();
        let inner = shape[ndim - 1];
        let coeff_slices: Vec<&[T]> = coeffs.iter().map(|g| g.as_slice()).collect();
        let in_slice = input.as_slice();
        let mut pos = vec![0usize; ndim];
        loop {
            pos[ndim - 1] = 0;
            let base = out.index(&pos);
            for i in 0..inner {
                let v = self.apply_at(in_slice, &coeff_slices, base + i);
                out.as_mut_slice()[base + i] = v;
            }
            let mut d = ndim - 1;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                pos[d] += 1;
                if pos[d] < shape[d] {
                    break;
                }
                pos[d] = 0;
            }
        }
    }

    /// One tiled, multi-threaded sweep; returns the number of tiles. A
    /// `plan` lowered for another grid than `out`'s is an error.
    pub fn step_tiled(
        &self,
        plan: &ExecPlan,
        input: &Grid<T>,
        coeffs: &[&Grid<T>],
        out: &mut Grid<T>,
    ) -> Result<usize> {
        let _span = msc_trace::span("varcoeff_step");
        let tiles = plan.tiles();
        let coeff_slices: Vec<&[T]> = coeffs.iter().map(|g| g.as_slice()).collect();
        let in_slice = input.as_slice();
        sweep(plan, &tiles, [out], "varcoeff_worker", |work| {
            for (_, mut rows) in work {
                rows.for_each(|_, base, [row]| {
                    for (i, o) in row.iter_mut().enumerate() {
                        *o = self.apply_at(in_slice, &coeff_slices, base + i);
                    }
                });
            }
        })?;
        Ok(tiles.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::schedule::Schedule;

    /// Variable-diffusivity 2D heat kernel:
    /// `u + K[x]*(u[-1,0] + u[1,0] + u[0,-1] + u[0,1] - 4u)`.
    fn var_heat_expr() -> Expr {
        Expr::at("B", &[0, 0])
            + Expr::at("K", &[0, 0])
                * (Expr::at("B", &[-1, 0])
                    + Expr::at("B", &[1, 0])
                    + Expr::at("B", &[0, -1])
                    + Expr::at("B", &[0, 1])
                    - 4.0 * Expr::at("B", &[0, 0]))
    }

    fn setup(n: usize) -> (Grid<f64>, Grid<f64>, CompiledVarStencil<f64>) {
        let u: Grid<f64> = Grid::random(&[n, n], &[1, 1], 5);
        // Diffusivity varies across the domain, zero in the right half.
        let k: Grid<f64> =
            Grid::from_fn(&[n, n], &[1, 1], |p| if p[1] < n / 2 { 0.2 } else { 0.0 });
        let c = CompiledVarStencil::compile(&var_heat_expr(), "B", &u.layout()).unwrap();
        (u, k, c)
    }

    #[test]
    fn compile_extracts_coefficient_grid() {
        let (u, _, c) = setup(8);
        assert_eq!(c.coeff_names, vec!["K".to_string()]);
        assert_eq!(c.reach, vec![1, 1]);
        assert_eq!(c.taps.len(), 6); // 1 const u + 5 K-scaled taps
        let _ = u;
    }

    #[test]
    fn zero_coefficient_region_is_frozen() {
        let (u, k, c) = setup(12);
        let mut out = u.clone();
        c.step_reference(&u, &[&k], &mut out);
        // Where K = 0 (right half, away from the K boundary) the update
        // is the identity.
        for x in 0..12 {
            for y in 8..12 {
                assert_eq!(out.get(&[x, y]), u.get(&[x, y]), "({x},{y})");
            }
        }
        // Where K > 0 it is not.
        assert_ne!(out.get(&[5, 2]), u.get(&[5, 2]));
    }

    #[test]
    fn tiled_matches_reference() {
        let (u, k, c) = setup(16);
        let mut a = u.clone();
        c.step_reference(&u, &[&k], &mut a);
        let mut s = Schedule::default();
        s.tile(&[4, 8]);
        s.parallel("xo", 3);
        let plan = ExecPlan::lower(&s, 2, &[16, 16]).unwrap();
        let mut b = u.clone();
        let n = c.step_tiled(&plan, &u, &[&k], &mut b).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(n, 8);

        // A plan lowered for another grid is a typed error, not a panic.
        let other = ExecPlan::lower(&s, 2, &[16, 24]).unwrap();
        let err = c.step_tiled(&other, &u, &[&k], &mut b).unwrap_err();
        assert!(err.to_string().contains("lowered for grid"), "{err}");
    }

    #[test]
    fn constant_coefficients_match_fixed_path() {
        // A var-coeff stencil with only constant taps must agree with the
        // plain compiled stencil.
        use crate::compiled::CompiledStencil;
        use msc_core::catalog::{benchmark, BenchmarkId};
        use msc_core::prelude::DType;
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p = b.program(&[10, 10], DType::F64, 1).unwrap();
        let u: Grid<f64> = Grid::random(&[10, 10], &[1, 1], 9);
        let kexpr = p.stencil.kernels[0].expr();
        let var = CompiledVarStencil::compile(kexpr, "B", &u.layout()).unwrap();
        assert!(var.coeff_names.is_empty());
        let mut a = u.clone();
        var.step_reference(&u, &[], &mut a);

        // Fixed path: single-term stencil with weight 1.
        let single = msc_core::dsl::StencilProgram::builder("x")
            .grid_2d("B", DType::F64, [10, 10], 1, 2)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .build()
            .unwrap();
        let compiled = CompiledStencil::compile(&single, &u).unwrap();
        let mut c = u.clone();
        crate::reference::step(&compiled, &[&u], &mut c);
        assert_eq!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn bind_validates_names_and_layouts() {
        let (u, k, c) = setup(8);
        assert!(c.bind(&u.layout(), &[("K", &k)]).is_ok());
        assert!(matches!(
            c.bind(&u.layout(), &[("Z", &k)]),
            Err(MscError::Undefined { .. })
        ));
        let wrong: Grid<f64> = Grid::zeros(&[9, 8], &[1, 1]);
        assert!(c.bind(&u.layout(), &[("K", &wrong)]).is_err());
    }

    #[test]
    fn halo_check_applies_to_coefficient_offsets() {
        // Coefficient read at offset 2 with halo 1 must be rejected.
        let e = Expr::at("K", &[2, 0]) * Expr::at("B", &[0, 0]);
        let u: Grid<f64> = Grid::zeros(&[8, 8], &[1, 1]);
        assert!(matches!(
            CompiledVarStencil::<f64>::compile(&e, "B", &u.layout()),
            Err(MscError::HaloTooSmall { .. })
        ));
    }

    #[test]
    fn mass_weighting_scales_linearly() {
        // Doubling K doubles the update delta.
        let (u, k, c) = setup(10);
        let mut k2 = k.clone();
        for v in k2.as_mut_slice() {
            *v *= 2.0;
        }
        let mut o1 = u.clone();
        let mut o2 = u.clone();
        c.step_reference(&u, &[&k], &mut o1);
        c.step_reference(&u, &[&k2], &mut o2);
        u.for_each_interior(|pos| {
            let d1 = o1.get(pos) - u.get(pos);
            let d2 = o2.get(pos) - u.get(pos);
            assert!((d2 - 2.0 * d1).abs() < 1e-12, "{pos:?}");
        });
    }
}
