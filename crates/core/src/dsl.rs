//! The user-facing DSL: a builder mirroring the paper's Listing 1.
//!
//! ```text
//! DefTensor3D_TimeWin(B, time_window_size, halo_width, f64, 256, 256, 256);
//! Kernel S_3d7pt((k,j,i), c0*B[k,j,i] + ...);
//! Stencil st((i,j), Res[t] << S_3d7pt[t-1] + S_3d7pt[t-2]);
//! DefShapeMPI3D(shape_mpi, 4, 4, 4)
//! st.run(1, 10);
//! ```
//!
//! becomes:
//!
//! ```
//! use msc_core::prelude::*;
//! let program = StencilProgram::builder("3d7pt")
//!     .grid_3d("B", DType::F64, [256, 256, 256], 1, 3)
//!     .kernel(Kernel::star("S_3d7pt", 3, 1, &[0.4, 0.1]).unwrap())
//!     .combine(&[(1, 0.6, "S_3d7pt"), (2, 0.4, "S_3d7pt")])
//!     .mpi_grid(&[4, 4, 4])
//!     .timesteps(10)
//!     .build()
//!     .unwrap();
//! assert_eq!(program.mpi_grid, Some(vec![4, 4, 4]));
//! ```

use crate::dtype::DType;
use crate::error::{MscError, Result};
use crate::kernel::Kernel;
use crate::stencil::{Stencil, TimeTerm};
use crate::tensor::SpNode;

/// A complete, validated stencil program: grid + temporal stencil +
/// large-scale execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilProgram {
    pub name: String,
    /// The input/output grid (an `SpNode` with halo and time window).
    pub grid: SpNode,
    /// The temporal stencil over kernels.
    pub stencil: Stencil,
    /// MPI process grid for large-scale runs (`DefShapeMPI2D/3D`).
    pub mpi_grid: Option<Vec<usize>>,
    /// Number of timesteps `st.run(...)` iterates.
    pub timesteps: usize,
}

impl StencilProgram {
    /// Start building a program.
    pub fn builder(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            grid: None,
            kernels: Vec::new(),
            terms: Vec::new(),
            mpi_grid: None,
            timesteps: 1,
        }
    }

    /// Total memory footprint of the grid allocation in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.grid.alloc_bytes()
    }
}

/// Builder for [`StencilProgram`]; mirrors the paper's Listing 1 calls.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    grid: Option<SpNode>,
    kernels: Vec<Kernel>,
    terms: Vec<TimeTerm>,
    mpi_grid: Option<Vec<usize>>,
    timesteps: usize,
}

impl ProgramBuilder {
    /// `DefTensor2D_TimeWin(B, win, halo, dt, M, N)`.
    pub fn grid_2d(
        mut self,
        name: &str,
        dtype: DType,
        shape: [usize; 2],
        halo: usize,
        time_window: usize,
    ) -> Self {
        self.grid = SpNode::new(name, dtype, &shape, halo, time_window).ok();
        self
    }

    /// `DefTensor3D_TimeWin(B, win, halo, dt, M, N, P)`.
    pub fn grid_3d(
        mut self,
        name: &str,
        dtype: DType,
        shape: [usize; 3],
        halo: usize,
        time_window: usize,
    ) -> Self {
        self.grid = SpNode::new(name, dtype, &shape, halo, time_window).ok();
        self
    }

    /// Grid of arbitrary dimensionality.
    pub fn grid(mut self, node: SpNode) -> Self {
        self.grid = Some(node);
        self
    }

    /// Register a kernel (`Kernel S_3d7pt(...)`).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernels.push(kernel);
        self
    }

    /// `Res[t] << w1*K1[t-dt1] + w2*K2[t-dt2] + ...`, given as
    /// `(dt, weight, kernel_name)` triples.
    pub fn combine(mut self, terms: &[(usize, f64, &str)]) -> Self {
        self.terms = terms
            .iter()
            .map(|&(dt, weight, kernel)| TimeTerm {
                dt,
                weight,
                kernel: kernel.to_string(),
            })
            .collect();
        self
    }

    /// `DefShapeMPI2D/3D(shape, ...)`.
    pub fn mpi_grid(mut self, shape: &[usize]) -> Self {
        self.mpi_grid = Some(shape.to_vec());
        self
    }

    /// `st.run(1, n)`.
    pub fn timesteps(mut self, n: usize) -> Self {
        self.timesteps = n;
        self
    }

    /// Validate everything and produce the program. Checks:
    /// grid present; kernels present; stencil well-formed; halo wide
    /// enough for the stencil's reach; time window wide enough for the
    /// temporal dependencies; MPI grid dimensionality matches.
    pub fn build(self) -> Result<StencilProgram> {
        self.assemble(true)
    }

    /// Assemble with only structural validation (grid and kernels present,
    /// stencil well-formed, dimensionalities agree). Halo sufficiency and
    /// time-window depth are **not** checked, so a program with a
    /// too-narrow halo or too-shallow window can be constructed and then
    /// diagnosed by `msc-lint` with structured lint codes instead of a
    /// hard build error. Execution and codegen entry points check a bare
    /// program (`msc_lint::check`), so it cannot silently reach the runtime.
    pub fn build_unchecked(self) -> Result<StencilProgram> {
        self.assemble(false)
    }

    fn assemble(self, strict: bool) -> Result<StencilProgram> {
        let grid = self.grid.ok_or(MscError::InvalidConfig(
            "program has no grid tensor (call grid_2d/grid_3d)".into(),
        ))?;
        let terms = if self.terms.is_empty() {
            // Default: single dependency on t-1 through the sole kernel.
            let k = self.kernels.first().ok_or(MscError::InvalidConfig(
                "program defines no kernels".into(),
            ))?;
            vec![TimeTerm {
                dt: 1,
                weight: 1.0,
                kernel: k.name.clone(),
            }]
        } else {
            self.terms
        };
        let stencil = Stencil::new(&self.name, self.kernels, terms)?;
        if stencil.ndim() != grid.ndim() {
            return Err(MscError::DimMismatch {
                expected: grid.ndim(),
                got: stencil.ndim(),
            });
        }
        if strict {
            grid.check_reach(&stencil.reach())?;
            if grid.time_window < stencil.time_window() {
                return Err(MscError::TimeWindowTooSmall {
                    tensor: grid.name.clone(),
                    window: grid.time_window,
                    required: stencil.time_window(),
                });
            }
        }
        if let Some(mpi) = &self.mpi_grid {
            if mpi.len() != grid.ndim() {
                return Err(MscError::DimMismatch {
                    expected: grid.ndim(),
                    got: mpi.len(),
                });
            }
            if mpi.contains(&0) {
                return Err(MscError::InvalidConfig(
                    "MPI grid has a zero dimension".into(),
                ));
            }
        }
        if self.timesteps == 0 {
            return Err(MscError::InvalidConfig(
                "program must run at least one timestep".into(),
            ));
        }
        Ok(StencilProgram {
            name: self.name,
            grid,
            stencil,
            mpi_grid: self.mpi_grid,
            timesteps: self.timesteps,
        })
    }
}

/// Why a process grid cannot decompose a global grid along one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcGridDefect {
    /// `extent` is not a multiple of `procs`: sub-grids would differ in
    /// size (the paper's Tables 7/8 configurations all divide evenly).
    Indivisible {
        dim: usize,
        extent: usize,
        procs: usize,
    },
    /// The per-rank sub-extent is smaller than the halo a neighbour must
    /// be sent: the inner halo band would reach past the rank's own cells.
    TooNarrow {
        dim: usize,
        sub: usize,
        reach: usize,
    },
}

/// The process-grid rule, stated once for the linter (MSC-L403/L404,
/// before any rank spawns) and the runtime decomposition: along every
/// dimension the extent divides evenly over the processes and each
/// sub-extent is at least the stencil reach. Yields at most one defect per
/// dimension, in dimension order; a zero process count is a structural
/// error both callers reject themselves, so such a dimension is skipped.
pub fn proc_grid_defects<'a>(
    extents: &'a [usize],
    procs: &'a [usize],
    reach: &'a [usize],
) -> impl Iterator<Item = ProcGridDefect> + 'a {
    extents.iter().zip(procs).zip(reach).enumerate().filter_map(
        |(dim, ((&extent, &procs), &reach))| {
            if procs == 0 {
                None
            } else if !extent.is_multiple_of(procs) {
                Some(ProcGridDefect::Indivisible { dim, extent, procs })
            } else if extent / procs < reach {
                Some(ProcGridDefect::TooNarrow {
                    dim,
                    sub: extent / procs,
                    reach,
                })
            } else {
                None
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ProgramBuilder {
        StencilProgram::builder("3d7pt")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .timesteps(10)
    }

    #[test]
    fn listing1_style_program_builds() {
        let p = base().mpi_grid(&[4, 4, 4]).build().unwrap();
        assert_eq!(p.stencil.time_window(), 3);
        assert_eq!(p.grid.padded_shape(), vec![66, 66, 66]);
        assert_eq!(p.timesteps, 10);
    }

    #[test]
    fn missing_grid_rejected() {
        let r = StencilProgram::builder("x")
            .kernel(Kernel::star_normalized("S", 3, 1))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn missing_kernels_rejected() {
        let r = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [8, 8, 8], 1, 2)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn halo_too_small_rejected() {
        let r = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 2)) // reach 2, halo 1
            .combine(&[(1, 1.0, "S")])
            .build();
        assert!(matches!(r, Err(MscError::HaloTooSmall { .. })));
    }

    #[test]
    fn window_too_small_rejected() {
        let r = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 2) // window 2
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")]) // needs 3
            .build();
        assert!(matches!(r, Err(MscError::TimeWindowTooSmall { .. })));
    }

    #[test]
    fn mpi_grid_dim_mismatch_rejected() {
        let r = base().mpi_grid(&[4, 4]).build();
        assert!(matches!(r, Err(MscError::DimMismatch { .. })));
    }

    #[test]
    fn default_term_is_single_t_minus_1() {
        let p = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [8, 8, 8], 1, 2)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .build()
            .unwrap();
        assert_eq!(p.stencil.terms.len(), 1);
        assert_eq!(p.stencil.terms[0].dt, 1);
    }

    #[test]
    fn zero_timesteps_rejected() {
        assert!(base().timesteps(0).build().is_err());
    }

    #[test]
    fn build_unchecked_admits_narrow_halo_and_shallow_window() {
        let p = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 2) // halo 1, window 2
            .kernel(Kernel::star_normalized("S", 3, 2)) // reach 2
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")]) // needs window 3
            .build_unchecked()
            .unwrap();
        assert_eq!(p.grid.halo, vec![1, 1, 1]);
        assert_eq!(p.grid.time_window, 2);
    }

    #[test]
    fn build_unchecked_still_rejects_structural_errors() {
        let r = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [8, 8, 8], 1, 2)
            .build_unchecked();
        assert!(r.is_err()); // no kernels
        let r = StencilProgram::builder("x")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .mpi_grid(&[4, 4])
            .build_unchecked();
        assert!(matches!(r, Err(MscError::DimMismatch { .. })));
    }

    #[test]
    fn process_grid_rule_names_one_defect_per_bad_dimension() {
        // dim 0 fine, dim 1 indivisible, dim 2 divisible but narrower than
        // the reach, dim 3 zero procs (skipped: a structural error).
        let defects: Vec<_> =
            proc_grid_defects(&[8, 10, 8, 8], &[2, 3, 8, 0], &[1, 1, 2, 1]).collect();
        assert_eq!(
            defects,
            vec![
                ProcGridDefect::Indivisible {
                    dim: 1,
                    extent: 10,
                    procs: 3
                },
                ProcGridDefect::TooNarrow {
                    dim: 2,
                    sub: 1,
                    reach: 2
                },
            ]
        );
        // A sub-extent exactly as wide as the reach is allowed.
        assert_eq!(proc_grid_defects(&[8, 8], &[4, 1], &[2, 2]).count(), 0);
    }

    #[test]
    fn footprint_matches_alloc() {
        let p = base().build().unwrap();
        assert_eq!(p.footprint_bytes(), 66 * 66 * 66 * 3 * 8);
    }
}
