//! Compilation of a `StencilProgram` to the executor's fast-path form:
//! per time term, a flat tap list with *linearized* offsets into the
//! padded grid buffer. This mirrors what MSC's tensor IR buys over
//! subscript-expression evaluation (paper §5.5: "MSC can directly index
//! the data due to its design of tensor IR").

use crate::grid::{Grid, Scalar};
use msc_core::error::Result;
use msc_core::prelude::*;

/// One temporal term, compiled: read the state `dt` steps back, apply the
/// taps, scale by `weight`.
#[derive(Debug, Clone)]
pub struct CompiledTerm<T> {
    pub dt: usize,
    pub weight: T,
    /// `(linear_offset, coefficient)` pairs over the padded buffer.
    pub taps: Vec<(isize, T)>,
    /// The leading edge: the largest linear offset in `taps`. A sweep in
    /// storage order reaches every cache line of the state through this
    /// tap first (each smaller offset re-reads a line it brought in some
    /// rows earlier), so it is the one address stream worth prefetching
    /// (DESIGN.md §12.5).
    pub lead: isize,
    /// The same taps with their multi-dimensional offsets, the source
    /// [`CompiledStencil::relinearized`] recomputes `taps` from.
    pub taps_nd: Vec<(Vec<i64>, T)>,
}

/// The value of [`CompiledTerm::lead`] for `taps`.
pub(crate) fn leading_edge<T>(taps: &[(isize, T)]) -> isize {
    taps.iter().map(|tap| tap.0).max().unwrap_or(0)
}

/// A fully compiled temporal stencil.
#[derive(Debug, Clone)]
pub struct CompiledStencil<T> {
    pub ndim: usize,
    pub reach: Vec<usize>,
    pub max_dt: usize,
    pub terms: Vec<CompiledTerm<T>>,
    /// Flops per output point from `StencilStats::of` (same dtype-aware
    /// counting msc-tune's perf model uses).
    flops: usize,
}

/// Linear offset of the relative multi-dimensional `offset` in a row-major
/// buffer with `strides` — the one place a tap becomes a flat displacement.
pub(crate) fn linear_offset(offset: &[i64], strides: &[usize]) -> isize {
    offset
        .iter()
        .zip(strides)
        .map(|(&o, &s)| o as isize * s as isize)
        .sum()
}

impl<T: Scalar> CompiledStencil<T> {
    /// Compile `program` against the layout of `grid` (strides/halo must
    /// match every state buffer the stencil reads).
    pub fn compile(program: &StencilProgram, grid: &Grid<T>) -> Result<CompiledStencil<T>> {
        let stencil = &program.stencil;
        let mut terms = Vec::with_capacity(stencil.terms.len());
        for term in &stencil.terms {
            let taps = stencil.kernel(&term.kernel)?.taps()?;
            terms.push(CompiledTerm {
                dt: term.dt,
                weight: T::from_f64(term.weight),
                taps: Vec::new(),
                lead: 0,
                taps_nd: taps
                    .map(|(offset, coeff)| (offset.to_vec(), T::from_f64(coeff)))
                    .collect(),
            });
        }
        let stats = StencilStats::of(stencil, program.grid.dtype)?;
        let unplaced = CompiledStencil {
            ndim: stencil.ndim(),
            reach: stencil.reach(),
            max_dt: stencil.max_dt(),
            terms,
            flops: stats.flops_per_point().round() as usize,
        };
        Ok(unplaced.relinearized(&grid.strides))
    }

    /// The same stencil against a row-major buffer with `strides`: every
    /// term's `taps` are its `taps_nd` linearized for that layout. This is
    /// how a staged sweep retargets the taps to its tile-local buffers.
    pub(crate) fn relinearized(&self, strides: &[usize]) -> CompiledStencil<T> {
        let mut placed = self.clone();
        for term in &mut placed.terms {
            term.taps = term
                .taps_nd
                .iter()
                .map(|(off, c)| (linear_offset(off, strides), *c))
                .collect();
            term.lead = leading_edge(&term.taps);
        }
        placed
    }

    /// `term` as a stencil of its own, reading its state as `states[0]`.
    fn alone(&self, term: &CompiledTerm<T>) -> CompiledStencil<T> {
        CompiledStencil {
            max_dt: 1,
            terms: vec![CompiledTerm {
                dt: 1,
                ..term.clone()
            }],
            reach: self.reach.clone(),
            ..*self
        }
    }

    /// One stencil per term, each reading its state as `states[0]`: what
    /// lets SPM staging pass the terms one after another through a single
    /// read buffer.
    pub(crate) fn split_terms(&self) -> Vec<CompiledStencil<T>> {
        self.terms.iter().map(|term| self.alone(term)).collect()
    }

    /// The stencil's kernel on its own — one term reading `states[0]`
    /// with weight 1 — when every term applies the same taps (coefficients
    /// compared by bit pattern): the image a step can compute once per
    /// state instead of once per term (DESIGN.md §12.6). `None` when the
    /// terms name different kernels.
    pub(crate) fn kernel_image(&self) -> Option<CompiledStencil<T>> {
        let (first, rest) = self.terms.split_first()?;
        let bits = |tap: &(Vec<i64>, T)| tap.1.to_f64().to_bits();
        let same_kernel = |term: &CompiledTerm<T>| {
            let taps = term.taps_nd.iter().zip(&first.taps_nd);
            term.taps_nd.len() == first.taps_nd.len()
                && taps
                    .into_iter()
                    .all(|(a, b)| a.0 == b.0 && bits(a) == bits(b))
        };
        rest.iter().all(same_kernel).then(|| {
            let mut image = self.alone(first);
            image.terms[0].weight = T::from_f64(1.0);
            image
        })
    }

    /// A stencil over a flat 1D buffer made of `terms` alone, for tests
    /// that drive the row evaluators with arbitrary tap lists (`taps_nd`
    /// and the footprint-derived counts are left empty).
    #[cfg(test)]
    pub(crate) fn from_terms(terms: Vec<CompiledTerm<T>>) -> CompiledStencil<T> {
        CompiledStencil {
            ndim: 1,
            reach: Vec::new(),
            max_dt: terms.iter().map(|t| t.dt).max().unwrap_or(0),
            terms,
            flops: 0,
        }
    }

    /// Evaluate the update at the padded linear index `base`, reading from
    /// `states`, where `states[term.dt - 1]` is the buffer `dt` steps
    /// back.
    ///
    /// # Safety-adjacent contract
    /// `base` must be an interior point of a buffer with the layout the
    /// stencil was compiled for; every `base + tap offset` then lands in
    /// bounds (halo included), enforced here with slice indexing.
    #[inline]
    pub(crate) fn apply_at(&self, states: &[&[T]], base: usize) -> T {
        let mut out = T::default();
        for term in &self.terms {
            let src = states[term.dt - 1];
            let mut acc = T::default();
            for &(off, coeff) in &term.taps {
                acc = acc + coeff * src[(base as isize + off) as usize];
            }
            out = out + term.weight * acc;
        }
        out
    }

    /// Flops per output point, derived from `StencilStats` so the value
    /// matches the roofline placement in msc-tune exactly.
    pub fn flops_per_point(&self) -> usize {
        self.flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};

    fn program() -> StencilProgram {
        benchmark(BenchmarkId::S3d7ptStar)
            .program(&[8, 8, 8], DType::F64, 2)
            .unwrap()
    }

    #[test]
    fn compile_produces_term_per_dependency() {
        let p = program();
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let c = CompiledStencil::compile(&p, &g).unwrap();
        assert_eq!(c.terms.len(), 2);
        assert_eq!(c.terms[0].dt, 1);
        assert_eq!(c.terms[1].dt, 2);
        assert_eq!(c.max_dt, 2);
    }

    #[test]
    fn linear_offsets_match_strides() {
        let p = program();
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let c = CompiledStencil::compile(&p, &g).unwrap();
        // 3d7pt taps: +/- strides in each dim and 0.
        let offs: Vec<isize> = c.terms[0].taps.iter().map(|t| t.0).collect();
        let sz = g.strides[0] as isize;
        let sy = g.strides[1] as isize;
        assert!(offs.contains(&0));
        assert!(offs.contains(&sz) && offs.contains(&-sz));
        assert!(offs.contains(&sy) && offs.contains(&-sy));
        assert!(offs.contains(&1) && offs.contains(&-1));
    }

    #[test]
    fn relinearized_retargets_every_term_and_keeps_the_rest() {
        let p = program();
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let c = CompiledStencil::compile(&p, &g).unwrap();
        // A tile-local buffer of 6 x 6 x 10 cells.
        let local = c.relinearized(&[60, 10, 1]);
        for (term, was) in local.terms.iter().zip(&c.terms) {
            let offs: Vec<isize> = term.taps.iter().map(|t| t.0).collect();
            for o in [0, 60, -60, 10, -10, 1, -1] {
                assert!(offs.contains(&o), "{offs:?} lacks {o}");
            }
            assert_eq!(term.taps.len(), was.taps.len());
            assert_eq!((term.dt, term.weight), (was.dt, was.weight));
            // The leading edge is the +x tap in either layout.
            assert_eq!((term.lead, was.lead), (60, g.strides[0] as isize));
        }
        assert_eq!(
            local.relinearized(&g.strides).terms[1].taps,
            c.terms[1].taps
        );
        // Split for one-read-buffer staging: every term reads `states[0]`.
        let split = local.split_terms();
        assert_eq!(split.len(), 2);
        for (one, term) in split.iter().zip(&local.terms) {
            assert_eq!((one.max_dt, one.terms.len(), one.terms[0].dt), (1, 1, 1));
            assert_eq!(one.terms[0].taps, term.taps);
            assert_eq!(one.terms[0].weight, term.weight);
            assert_eq!(one.reach, c.reach);
        }
    }

    #[test]
    fn apply_at_on_constant_field_preserves_value() {
        // Coefficients sum to 1 per kernel and term weights sum to 1, so a
        // constant field is a fixed point.
        let p = program();
        let g: Grid<f64> = Grid::from_fn(&p.grid.shape, &p.grid.halo, |_| 3.25);
        let c = CompiledStencil::compile(&p, &g).unwrap();
        let base = g.index(&[4, 4, 4]);
        let v = c.apply_at(&[g.as_slice(), g.as_slice()], base);
        assert!((v - 3.25).abs() < 1e-12);
    }

    #[test]
    fn flops_per_point_counts_combination() {
        let p = program();
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let c = CompiledStencil::compile(&p, &g).unwrap();
        // 2 terms x (2*7) + 1 combine add = 29.
        assert_eq!(c.flops_per_point(), 29);
    }

    #[test]
    fn stats_agree_with_footprint_machinery_across_catalog() {
        // The executor and the roofline placement in msc-tune must quote
        // one flop count: the footprint-derived one.
        for b in all_benchmarks() {
            let p = b.program(&b.test_grid(), DType::F64, 2).unwrap();
            let g: Grid<f64> = Grid::for_tensor(&p.grid);
            let c = CompiledStencil::compile(&p, &g).unwrap();
            let ss = StencilStats::of(&p.stencil, DType::F64).unwrap();
            assert_eq!(
                c.flops_per_point() as f64,
                ss.flops_per_point(),
                "{}",
                b.name
            );
        }
    }
}
