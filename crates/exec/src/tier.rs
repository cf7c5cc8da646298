//! Execution-tier selection: interpreter vs bytecode VM vs the
//! register-blocked row kernel.
//!
//! The three tiers form a strict correctness hierarchy. The interpreter
//! (`CompiledStencil::apply_at`) is the oracle; the VM replays its exact
//! evaluation order row-by-row (see `msc_vm::compile_linear`); the
//! specialized kernel does the same a block of points at a time (see
//! [`crate::specialized`]). All three are bit-identical by construction,
//! which the differential harness (`src/tier_differential.rs`) enforces
//! across the catalog.
//!
//! Selection policy:
//!
//! * `Auto` (the default) and `Specialized` → **specialized**, always:
//!   the blocked kernel takes any tap count, so no stencil is declined;
//! * `Vm` → the **VM**, or the interpreter when the kernel overflows the
//!   VM's constant pool;
//! * `Interp` → the **interpreter** (also what the `Executor::Reference`
//!   oracle path always runs).

use std::time::Instant;

use msc_core::error::Result;
use msc_core::prelude::StencilProgram;
use msc_trace::{Counter, CounterSet};
use msc_vm::{LinearTerm, VmProgram, VmScratch};

use crate::compiled::CompiledStencil;
use crate::grid::{Grid, GridLayout, Scalar};
use crate::specialized::{
    prefetch_pays, step_bytes, ImageKernel, ImageOf, ImageStep, RowBlock, RowKernel,
    MAX_IMAGE_TERMS, PREFETCH_MIN_STEP_BYTES, ROWS,
};
use crate::sweep::group_stride;

/// Requested execution tier (CLI `--exec-tier`, `RunOptions::tier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The fastest tier: the specialized kernel, for every stencil.
    #[default]
    Auto,
    /// The tree-walking tap interpreter (the bit-exactness oracle).
    Interp,
    /// The bytecode register VM.
    Vm,
    /// The register-blocked row kernel on the widest vector ISA the CPU
    /// has (any tap count; never degrades).
    Specialized,
}

impl ExecTier {
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "auto" => Some(ExecTier::Auto),
            "interp" | "interpreter" => Some(ExecTier::Interp),
            "vm" => Some(ExecTier::Vm),
            "specialized" => Some(ExecTier::Specialized),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Auto => "auto",
            ExecTier::Interp => "interp",
            ExecTier::Vm => "vm",
            ExecTier::Specialized => "specialized",
        }
    }
}

/// The tier that actually runs after resolving `Auto` and fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveTier {
    Interp,
    Vm,
    Specialized,
}

impl ActiveTier {
    pub fn name(self) -> &'static str {
        match self {
            ActiveTier::Interp => "interp",
            ActiveTier::Vm => "vm",
            ActiveTier::Specialized => "specialized",
        }
    }
}

/// Per-worker scratch for the active tier (the VM's register file; the
/// other tiers need none), and what the rows evaluated through it counted:
/// a compiled stencil keeps no count of its own, so any number of runs
/// may share one.
pub struct TierScratch<T> {
    vm: Option<VmScratch<T>>,
    pub(crate) counted: CounterSet,
}

/// A step that streams from DRAM pays for the kernel image as one more
/// stream (written, then read back by the combination), and the flops it
/// saves have to cover that: with fewer taps per term than this, such a
/// step recomputes. Placed by the table in DESIGN.md §12.6.
pub(crate) const IMAGE_MIN_STREAMED_TAPS: usize = 16;

/// Why a step evaluates the kernel once per term instead of reusing the
/// image it computed a step ago (DESIGN.md §12.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recomputed {
    /// There is no older state whose image could be reused.
    OneDependency,
    /// The terms apply different taps, so no image serves them all.
    DifferentKernels,
    /// One step streams `step_mb` MB from DRAM through only `taps` taps
    /// per term.
    Streams { step_mb: usize, taps: usize },
    /// More terms than a step gathers images for.
    ManyTerms(usize),
    /// The stencil was retargeted to tile-local buffers, which no time
    /// loop keeps from step to step.
    Staged,
    /// A test said so.
    #[cfg(test)]
    Forced,
}

impl std::fmt::Display for Recomputed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Recomputed::OneDependency => write!(f, "one time dependency"),
            Recomputed::DifferentKernels => write!(f, "terms name different kernels"),
            Recomputed::Streams { step_mb, taps } => {
                write!(f, "{step_mb} MB/step through {taps} taps")
            }
            Recomputed::ManyTerms(n) => write!(f, "{n} terms"),
            Recomputed::Staged => write!(f, "staged through tile-local buffers"),
            #[cfg(test)]
            Recomputed::Forced => write!(f, "forced"),
        }
    }
}

/// The kernel of `interp` as a stencil of its own when a step should
/// reuse its image, or why not. Decided from the terms and the bytes a
/// step streams alone.
fn reusable_kernel<T: Scalar>(
    interp: &CompiledStencil<T>,
    step_bytes: usize,
) -> std::result::Result<CompiledStencil<T>, Recomputed> {
    if interp.terms.iter().all(|t| t.dt == interp.terms[0].dt) {
        return Err(Recomputed::OneDependency);
    }
    let image = interp.kernel_image().ok_or(Recomputed::DifferentKernels)?;
    if interp.terms.len() > MAX_IMAGE_TERMS {
        return Err(Recomputed::ManyTerms(interp.terms.len()));
    }
    let taps = image.terms[0].taps.len();
    if step_bytes >= PREFETCH_MIN_STEP_BYTES && taps < IMAGE_MIN_STREAMED_TAPS {
        let step_mb = step_bytes / 1_000_000;
        return Err(Recomputed::Streams { step_mb, taps });
    }
    Ok(image)
}

/// Why the rows of a stencil are evaluated one at a time rather than
/// [`ROWS`] per call (DESIGN.md §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OneRow {
    /// Only the specialized tier evaluates rows in blocks.
    Tier(ActiveTier),
    /// A tile of a one-dimensional grid is a single row.
    OneDimensional,
    /// Every term would hold its own partial sums for every row.
    Terms(usize),
    /// The step streams from DRAM: loads are not what bounds it.
    Prefetching,
    /// A block row of the ISA is narrower than a cache line.
    Narrow { bytes: usize },
    /// Fewer than half of a row's taps come from loads all rows share.
    Shared { shared: usize, taps: usize },
    /// The stencil was retargeted to tile-local buffers.
    Staged,
}

impl std::fmt::Display for OneRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OneRow::Tier(tier) => write!(f, "{} tier", tier.name()),
            OneRow::OneDimensional => write!(f, "one-dimensional grid"),
            OneRow::Terms(n) => write!(f, "{n} terms"),
            OneRow::Prefetching => write!(f, "prefetching"),
            OneRow::Narrow { bytes } => write!(f, "{bytes} B block rows"),
            OneRow::Shared { shared, taps } => {
                write!(f, "{ROWS} rows share {shared} of {taps} taps")
            }
            OneRow::Staged => write!(f, "staged through tile-local buffers"),
        }
    }
}

/// The block `interp`'s rows go through on `kernel`, `stride` apart, or
/// why they go one at a time. A block wins on the loads all its rows
/// share and loses a little on every other one (DESIGN.md §12.1): so it
/// takes one cache-resident term whose rows share at least half their
/// taps, on an ISA whose block rows fill a cache line.
fn row_block<T: Scalar>(
    interp: &CompiledStencil<T>,
    kernel: &RowKernel<T>,
    stride: usize,
) -> std::result::Result<RowBlock<T>, OneRow> {
    if interp.ndim < 2 {
        return Err(OneRow::OneDimensional);
    }
    let [term] = interp.terms.as_slice() else {
        return Err(OneRow::Terms(interp.terms.len()));
    };
    if kernel.prefetch() {
        return Err(OneRow::Prefetching);
    }
    let bytes = kernel.block_row_bytes();
    if bytes < 64 {
        return Err(OneRow::Narrow { bytes });
    }
    let block = RowBlock::merge(term, stride);
    let (shared, taps) = (block.shared(), term.taps.len());
    if 2 * shared < taps {
        return Err(OneRow::Shared { shared, taps });
    }
    Ok(block)
}

/// A compiled stencil with the requested execution tier resolved and
/// attached. Derefs to the interpreter's [`CompiledStencil`], so layout
/// queries (`max_dt`, `reach`, taps) and the SPM/reference paths keep
/// working on the same object. No run changes it (rows are counted in
/// [`TierScratch`]), so concurrent runs may share one (DESIGN.md §15.4).
pub struct TieredStencil<T> {
    interp: CompiledStencil<T>,
    /// Lowered only for an explicit `ExecTier::Vm`: no other request can
    /// end up on the VM.
    vm: Option<VmProgram<T>>,
    specialized: RowKernel<T>,
    active: ActiveTier,
    /// The schedule that evaluates `ROWS` rows per call, or why rows go
    /// one at a time.
    rows: std::result::Result<RowBlock<T>, OneRow>,
    /// The kernel alone (one term, weight 1, reading `states[0]`) on the
    /// same tier, when the time loop should keep its images; else why not.
    image: std::result::Result<Box<TieredStencil<T>>, Recomputed>,
    /// Wall time spent attaching the tier — bytecode lowering under
    /// `ExecTier::Vm`, ISA detection otherwise (feeds the
    /// `VmCompileNanos` counter).
    pub compile_nanos: u64,
    /// The layout of the grids [`TieredStencil::compile`] compiled for;
    /// `None` for tile-local buffers.
    grid: Option<GridLayout>,
}

impl<T> std::ops::Deref for TieredStencil<T> {
    type Target = CompiledStencil<T>;
    fn deref(&self) -> &CompiledStencil<T> {
        &self.interp
    }
}

/// Lower the tap lists to VM bytecode. `None` on const-pool overflow —
/// kernels that large stay on the interpreter.
fn lower_to_vm<T: Scalar>(interp: &CompiledStencil<T>) -> Option<VmProgram<T>> {
    let linear: Vec<LinearTerm<T>> = interp
        .terms
        .iter()
        .map(|t| LinearTerm {
            slot: t.dt - 1,
            weight: t.weight,
            taps: t.taps.iter().map(|&(off, c)| (off as i64, c)).collect(),
        })
        .collect();
    let prog = msc_vm::compile_linear(&linear).ok()?;
    // Debug builds additionally audit the bytecode against the
    // stencil's own footprint: every (slot, offset) the program can
    // load must be one of the linearized taps, so a miscompile can
    // never read outside the halo the layout guarantees.
    #[cfg(debug_assertions)]
    {
        let allowed: std::collections::BTreeSet<(usize, i64)> = linear
            .iter()
            .flat_map(|t| t.taps.iter().map(move |&(off, _)| (t.slot, off)))
            .collect();
        if let Err(e) = prog.sanity_check(Some(&allowed)) {
            panic!("VM bytecode escapes the stencil footprint: {e}");
        }
    }
    Some(prog)
}

impl<T: Scalar> TieredStencil<T> {
    /// Compile `program` against the layout of `grid` and attach the tier
    /// `tier` resolves to. The states are whole grids like `grid`, so
    /// their size decides whether the row kernel prefetches.
    /// So does whether a step reuses the kernel's image
    /// ([`reusable_kernel`]), and the grid's row stride what a block of
    /// rows reads ([`row_block`]).
    pub fn compile(program: &StencilProgram, grid: &Grid<T>, tier: ExecTier) -> Result<TieredStencil<T>> {
        let interp = CompiledStencil::compile(program, grid)?;
        let padded_len = grid.as_slice().len();
        let prefetch = prefetch_pays::<T>(interp.max_dt, padded_len);
        let stride = Some(group_stride(&grid.strides));
        let image = reusable_kernel(&interp, step_bytes::<T>(interp.max_dt, padded_len))
            .map(|kernel| Box::new(Self::attach(kernel, tier, prefetch, stride)));
        let mut stencil = Self::attach(interp, tier, prefetch, stride);
        if let Ok(image) = &image {
            stencil.compile_nanos += image.compile_nanos;
        }
        stencil.image = image;
        stencil.grid = Some(grid.layout());
        Ok(stencil)
    }

    /// Attach a tier to a stencil relinearized for tile-local buffers:
    /// those are sized to stay in cache, so the row kernel never
    /// prefetches, and rows go one at a time.
    pub(crate) fn from_compiled(interp: CompiledStencil<T>, tier: ExecTier) -> TieredStencil<T> {
        Self::attach(interp, tier, false, None)
    }

    /// `stride` is the grid's row stride, `None` for tile-local buffers.
    fn attach(
        interp: CompiledStencil<T>,
        tier: ExecTier,
        prefetch: bool,
        stride: Option<usize>,
    ) -> TieredStencil<T> {
        let t0 = Instant::now();
        // The vector ISA is detected here, once per compiled stencil.
        let specialized = RowKernel::widest(prefetch);
        let vm = match tier {
            ExecTier::Vm => lower_to_vm(&interp),
            _ => None,
        };
        let active = match tier {
            ExecTier::Interp => ActiveTier::Interp,
            ExecTier::Vm if vm.is_some() => ActiveTier::Vm,
            ExecTier::Vm => ActiveTier::Interp,
            ExecTier::Specialized | ExecTier::Auto => ActiveTier::Specialized,
        };
        let rows = match (active, stride) {
            (ActiveTier::Specialized, Some(stride)) => row_block(&interp, &specialized, stride),
            (ActiveTier::Specialized, None) => Err(OneRow::Staged),
            (tier, _) => Err(OneRow::Tier(tier)),
        };
        TieredStencil {
            interp,
            vm,
            specialized,
            active,
            rows,
            image: Err(Recomputed::Staged),
            compile_nanos: t0.elapsed().as_nanos() as u64,
            grid: None,
        }
    }

    /// The layout of the grids the stencil was compiled to sweep whole,
    /// `None` when it was compiled for tile-local buffers.
    pub(crate) fn grid_layout(&self) -> Option<&GridLayout> {
        self.grid.as_ref()
    }

    /// What evaluates the rows and how often, for run banners: `vm tier,
    /// kernel image reused`, or `specialized tier, avx512f, prefetch on,
    /// rows one at a time (2 terms), kernel recomputed (412 MB/step
    /// through 7 taps)`. The rows and image clauses are what
    /// [`Executor::Tiled`](crate::Executor::Tiled) does in the time loop
    /// of [`run_program_tier`](crate::run_program_tier), where a step
    /// that reuses images sweeps the kernel alone; every other staging
    /// recomputes, a row at a time.
    pub fn describe(&self) -> String {
        let kernel = &self.specialized;
        let tier = match self.active {
            ActiveTier::Specialized => {
                let prefetch = if kernel.prefetch() { "on" } else { "off" };
                let swept = self.kernel_image().unwrap_or(self);
                let rows = match &swept.rows {
                    Ok(_) => format!("rows {ROWS} at a time"),
                    Err(why) => format!("rows one at a time ({why})"),
                };
                format!(
                    "specialized tier, {}, prefetch {prefetch}, {rows}",
                    kernel.isa()
                )
            }
            tier => format!("{} tier", tier.name()),
        };
        match &self.image {
            Ok(_) => format!("{tier}, kernel image reused"),
            Err(why) => format!("{tier}, kernel recomputed ({why})"),
        }
    }

    /// The kernel a step sweeps when it should compute the kernel's image
    /// once and combine images, `None` when it evaluates every term.
    pub(crate) fn kernel_image(&self) -> Option<&TieredStencil<T>> {
        self.image.as_deref().ok()
    }

    /// As if the rule had declined: today's step, whatever the program.
    #[cfg(test)]
    pub(crate) fn recomputing(mut self) -> TieredStencil<T> {
        self.image = Err(Recomputed::Forced);
        self
    }

    /// As if the rule had taken every one-term stencil `ROWS` rows at a
    /// time, rows `stride` apart: the stencil itself and the kernel of its
    /// image step, wherever they run on the specialized tier.
    #[cfg(test)]
    pub(crate) fn blocking(mut self, stride: usize) -> TieredStencil<T> {
        fn force<T: Scalar>(s: &mut TieredStencil<T>, stride: usize) {
            if let (ActiveTier::Specialized, [term]) = (s.active, s.interp.terms.as_slice()) {
                if s.interp.ndim >= 2 {
                    s.rows = Ok(RowBlock::merge(term, stride));
                }
            }
        }
        force(&mut self, stride);
        if let Ok(image) = &mut self.image {
            force(image, stride);
        }
        self
    }

    /// One stencil per term on this stencil's tier, against a buffer with
    /// `strides`, each reading its state as `states[0]`: how SPM staging
    /// evaluates the terms one after another through a single read buffer.
    pub(crate) fn staged_terms(&self, strides: &[usize]) -> Vec<TieredStencil<T>> {
        let tier = match self.active {
            ActiveTier::Interp => ExecTier::Interp,
            ActiveTier::Vm => ExecTier::Vm,
            ActiveTier::Specialized => ExecTier::Specialized,
        };
        let staged = self.interp.relinearized(strides);
        staged
            .split_terms()
            .into_iter()
            .map(|term| Self::from_compiled(term, tier))
            .collect()
    }

    /// Per-worker scratch; allocate once per worker, not per row.
    pub(crate) fn scratch(&self) -> TierScratch<T> {
        TierScratch {
            vm: match self.active {
                ActiveTier::Vm => self.vm.as_ref().map(|p| p.scratch()),
                _ => None,
            },
            counted: CounterSet::new(),
        }
    }

    /// Evaluate a unit-stride row on the active tier: `out[i]` gets the
    /// update of the point at flat index `base + i`, where
    /// `states[dt - 1]` is the state `dt` steps back.
    #[inline]
    pub(crate) fn run_row(&self, states: &[&[T]], base: usize, out: &mut [T], scratch: &mut TierScratch<T>) {
        match self.active {
            ActiveTier::Interp => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.interp.apply_at(states, base + i);
                }
            }
            ActiveTier::Vm => {
                let prog = self.vm.as_ref().expect("active Vm tier has a program");
                let scratch = scratch.vm.as_mut().expect("VM tier scratch");
                prog.run_row(states, base, out, scratch);
            }
            ActiveTier::Specialized => {
                self.specialized
                    .run_row(&self.interp.terms, states, base, out)
            }
        }
    }

    /// A kernel-image step (DESIGN.md §12.6) over rows of `states`
    /// `stride` apart, `self` being the kernel alone: on the specialized
    /// tier its rows are evaluated in the same call as their combination.
    pub(crate) fn image_step<'a>(
        &'a self,
        images: &'a [(T, ImageOf<'a, T>)],
        states: &'a [&'a [T]],
        stride: usize,
    ) -> ImageStep<'a, T> {
        let kernel = match (self.active, &self.rows) {
            (ActiveTier::Specialized, Ok(block)) => {
                assert_eq!(stride, block.stride(), "rows apart by another stride");
                ImageKernel::Rows(block)
            }
            (ActiveTier::Specialized, Err(_)) => ImageKernel::Row(&self.interp.terms),
            _ => ImageKernel::Done,
        };
        ImageStep {
            kernel,
            states,
            stride,
            images,
        }
    }

    /// Up to [`ROWS`] rows of `step` at flat index `base`: the kernel's
    /// rows into `fresh`, as [`TieredStencil::run_rows`] would, then the
    /// new state's into `next`, combined in one elementwise pass on the row
    /// kernel's ISA whatever the tier.
    #[inline]
    pub(crate) fn run_image_rows<'r>(
        &self,
        step: &ImageStep<'_, T>,
        base: usize,
        fresh: &mut [&'r mut [T]],
        next: &mut [&'r mut [T]],
        scratch: &mut TierScratch<T>,
    ) {
        if let ImageKernel::Done = step.kernel {
            self.run_rows(step.states, base, step.stride, fresh, scratch);
        }
        self.specialized.run_image_rows(step, base, fresh, next)
    }

    /// How many rows one [`TieredStencil::run_rows`] call evaluates at
    /// most: [`ROWS`] through a block, else 1.
    pub(crate) fn rows_per_call(&self) -> usize {
        match self.rows {
            Ok(_) => ROWS,
            Err(_) => 1,
        }
    }

    /// Evaluate up to [`TieredStencil::rows_per_call`] unit-stride rows of
    /// one length, `stride` apart along the grid's second-last dimension:
    /// `outs[r]` gets the row at flat index `base + r * stride`, as
    /// [`TieredStencil::run_row`] would.
    #[inline]
    pub(crate) fn run_rows(
        &self,
        states: &[&[T]],
        base: usize,
        stride: usize,
        outs: &mut [&mut [T]],
        scratch: &mut TierScratch<T>,
    ) {
        match &self.rows {
            Ok(block) if outs.len() > 1 => {
                assert_eq!(stride, block.stride(), "rows apart by another stride");
                self.specialized.run_rows(block, states, base, outs)
            }
            _ => {
                for (r, out) in outs.iter_mut().enumerate() {
                    self.run_row(states, base + r * stride, out, scratch);
                }
            }
        }
    }

    /// Count `n_rows` rows of `row_len` executed on the active tier into
    /// the worker's `scratch` (`VmDispatches` or `SpecializedHits`), once
    /// per tile; the sweep returns the count with the worker's share.
    pub(crate) fn note_rows(&self, scratch: &mut TierScratch<T>, n_rows: u64, row_len: usize) {
        match self.active {
            ActiveTier::Interp => {}
            ActiveTier::Vm => {
                let d = n_rows * VmProgram::<T>::dispatches_for(row_len);
                scratch.counted.bump(Counter::VmDispatches, d);
            }
            ActiveTier::Specialized => scratch.counted.bump(Counter::SpecializedHits, n_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;

    fn program() -> StencilProgram {
        benchmark(BenchmarkId::S3d7ptStar)
            .program(&[10, 8, 12], DType::F64, 2)
            .unwrap()
    }

    fn tiered(tier: ExecTier) -> (TieredStencil<f64>, Grid<f64>, Grid<f64>) {
        let p = program();
        let a: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 21);
        let b: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 22);
        let c = TieredStencil::compile(&p, &a, tier).unwrap();
        (c, a, b)
    }

    #[test]
    fn auto_resolves_to_specialized_for_catalog_shapes() {
        let (c, _, _) = tiered(ExecTier::Auto);
        assert_eq!(c.active, ActiveTier::Specialized);
        let (c, _, _) = tiered(ExecTier::Vm);
        assert_eq!(c.active, ActiveTier::Vm);
        let (c, _, _) = tiered(ExecTier::Interp);
        assert_eq!(c.active, ActiveTier::Interp);
    }

    #[test]
    fn any_tap_count_resolves_to_specialized_under_auto() {
        // A 1D kernel with 10 taps — a count no catalog stencil has.
        let mut e = 0.1 * Expr::at("B", &[-5]);
        for off in -4i64..5 {
            e = e + 0.1 * Expr::at("B", &[off]);
        }
        let k = Kernel::new("k10", 1, e).unwrap();
        let p = StencilProgram::builder("ten_taps")
            .grid(SpNode::new("B", DType::F64, &[32], 5, 2).unwrap())
            .kernel(k)
            .timesteps(2)
            .build()
            .unwrap();
        let g: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 5);
        let states = [g.as_slice()];
        let base = g.layout().index(&[0]);
        let mut rows = Vec::new();
        for (tier, active) in [
            (ExecTier::Auto, ActiveTier::Specialized),
            (ExecTier::Specialized, ActiveTier::Specialized),
            (ExecTier::Vm, ActiveTier::Vm),
            (ExecTier::Interp, ActiveTier::Interp),
        ] {
            let c = TieredStencil::compile(&p, &g, tier).unwrap();
            assert_eq!(c.active, active, "{tier:?}");
            let mut row = vec![0.0f64; 32];
            let mut scratch = c.scratch();
            c.run_row(&states, base, &mut row, &mut scratch);
            c.note_rows(&mut scratch, 1, row.len());
            // Explicit `Vm` still runs the VM: it is what gets counted.
            let (vm_dispatches, specialized_rows) = counted(&scratch);
            assert_eq!(vm_dispatches > 0, active == ActiveTier::Vm, "{tier:?}");
            assert_eq!(
                specialized_rows > 0,
                active == ActiveTier::Specialized,
                "{tier:?}"
            );
            rows.push(row);
        }
        assert!(
            rows.iter().all(|r| r == &rows[0]),
            "tiers disagree on 10 taps"
        );
    }

    #[test]
    fn all_tiers_agree_bitwise_on_a_row() {
        let mut rows = Vec::new();
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let (c, a, b) = tiered(tier);
            let states = [a.as_slice(), b.as_slice()];
            let base = a.layout().index(&[4, 3, 0]);
            let mut row = vec![0.0f64; 12];
            let mut scratch = c.scratch();
            c.run_row(&states, base, &mut row, &mut scratch);
            rows.push(row);
        }
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0], rows[2]);
    }

    /// What a scratch counted: `(VmDispatches, SpecializedHits)`.
    fn counted<T>(scratch: &TierScratch<T>) -> (u64, u64) {
        let c = &scratch.counted;
        (
            c.get(Counter::VmDispatches),
            c.get(Counter::SpecializedHits),
        )
    }

    #[test]
    fn tier_counts_accumulate_in_the_scratch_not_the_stencil() {
        let (c, _, _) = tiered(ExecTier::Vm);
        let mut scratch = c.scratch();
        c.note_rows(&mut scratch, 10, 130); // 130 points = 3 chunks of 64
        assert_eq!(counted(&scratch), (30, 0));
        // A fresh scratch of the same stencil starts from nothing.
        assert_eq!(counted(&c.scratch()), (0, 0));
        let (c, _, _) = tiered(ExecTier::Specialized);
        let mut scratch = c.scratch();
        c.note_rows(&mut scratch, 7, 64);
        assert_eq!(counted(&scratch), (0, 7));
    }

    #[test]
    fn only_whole_grid_stencils_may_prefetch() {
        // 10 x 8 x 12 is far below the line: off, and said so.
        let (mut c, a, _) = tiered(ExecTier::Auto);
        assert!(!c.specialized.prefetch());
        // The kernel the image step sweeps has seven taps, and four rows
        // share none of them (a baseline build declines sooner).
        let why = match c.specialized.block_row_bytes() {
            bytes if bytes < 64 => format!("{bytes} B block rows"),
            _ => "4 rows share 0 of 7 taps".to_string(),
        };
        assert_eq!(
            c.describe(),
            format!(
                "specialized tier, {}, prefetch off, rows one at a time ({why}), \
                 kernel image reused",
                c.specialized.isa()
            )
        );
        assert_eq!(
            tiered(ExecTier::Vm).0.describe(),
            "vm tier, kernel image reused"
        );
        assert_eq!(
            tiered(ExecTier::Interp).0.describe(),
            "interp tier, kernel image reused"
        );
        // As if the grid had been huge: the stencil prefetches, what is
        // staged from it through tile-local buffers still does not.
        c.specialized = RowKernel::widest(true);
        assert!(c.describe().contains(", prefetch on, "), "{}", c.describe());
        for term in c.staged_terms(&[60, 10, 1]) {
            assert!(!term.specialized.prefetch());
        }
        let local = TieredStencil::from_compiled(c.relinearized(&a.strides), ExecTier::Auto);
        assert!(!local.specialized.prefetch());
    }

    #[test]
    fn rows_are_blocked_for_one_cache_resident_term_whose_rows_share_half_its_taps() {
        let compiled = |p: &StencilProgram| {
            let g: Grid<f64> = Grid::for_tensor(&p.grid);
            (
                CompiledStencil::compile(p, &g).unwrap(),
                group_stride(&g.strides),
            )
        };
        let single = |id| {
            let b = benchmark(id);
            let shape = [16, 16, 16];
            StencilProgram::builder(b.name)
                .grid(SpNode::new("B", DType::F64, &shape[..b.ndim], b.radius, 2).unwrap())
                .kernel(b.kernel())
                .combine(&[(1, 1.0, b.name)])
                .timesteps(1)
                .build()
                .unwrap()
        };
        let wide = RowKernel::<f64>::widest(false);
        let blocks = wide.block_row_bytes() >= 64;
        // The 121-tap box: 88 of a row's taps come from loads all four
        // rows share, the 169-tap box 130.
        for (id, shared) in [
            (BenchmarkId::S2d121ptBox, 88),
            (BenchmarkId::S2d169ptBox, 130),
        ] {
            let (c, stride) = compiled(&single(id));
            match row_block(&c, &wide, stride) {
                Ok(block) => assert_eq!((block.shared(), block.stride()), (shared, stride)),
                Err(why) => assert!(!blocks, "{id:?}: {why}"),
            }
            // Never where a row block is narrower than a cache line.
            let narrow = row_block(&c, &RowKernel::baseline(false), stride).unwrap_err();
            assert_eq!(narrow, OneRow::Narrow { bytes: 32 });
            assert_eq!(narrow.to_string(), "32 B block rows");
            // Nor where the step streams from DRAM.
            let streams = row_block(&c, &RowKernel::widest(true), stride).unwrap_err();
            assert_eq!(streams.to_string(), "prefetching");
        }
        // Stencils whose rows share no load across all four rows: the
        // 9-point box, the 3d7pt and 2d5pt stars (mscd's), a 27-point box.
        for (p, taps) in [
            (single(BenchmarkId::S2d9ptBox), 9),
            (single(BenchmarkId::S3d7ptStar), 7),
            (program_of(Kernel::star_normalized("K", 2, 1), &[16, 16]), 5),
            (
                program_of(Kernel::boxed("K", 3, 1, 0.5).unwrap(), &[8, 8, 8]),
                27,
            ),
        ] {
            let (c, stride) = compiled(&p);
            let why = row_block(&c, &wide, stride).unwrap_err();
            if blocks {
                assert_eq!(why, OneRow::Shared { shared: 0, taps });
                assert_eq!(why.to_string(), format!("4 rows share 0 of {taps} taps"));
            }
        }
        // Any stencil of two terms, and a one-dimensional grid.
        let (c, stride) = compiled(&program());
        assert_eq!(row_block(&c, &wide, stride).unwrap_err(), OneRow::Terms(2));
        let (c, stride) = compiled(&program_of(Kernel::star_normalized("K", 1, 2), &[40]));
        assert_eq!(
            row_block(&c, &wide, stride).unwrap_err(),
            OneRow::OneDimensional
        );
        // What `compile` attaches: a two-dependency 121-tap box blocks the
        // kernel its image step sweeps and says so; another tier, or a
        // stencil staged through tile-local buffers, goes a row at a time.
        let dense = benchmark(BenchmarkId::S2d121ptBox)
            .program(&[24, 24], DType::F64, 2)
            .unwrap();
        let g: Grid<f64> = Grid::for_tensor(&dense.grid);
        let c = TieredStencil::compile(&dense, &g, ExecTier::Auto).unwrap();
        assert_eq!(c.rows_per_call(), 1, "two terms");
        let image = c.kernel_image().unwrap();
        let rows = if blocks { ROWS } else { 1 };
        assert_eq!(image.rows_per_call(), rows);
        assert_eq!(
            c.describe()
                .contains(", rows 4 at a time, kernel image reused"),
            blocks,
            "{}",
            c.describe()
        );
        let one = single(BenchmarkId::S2d121ptBox);
        let one_grid: Grid<f64> = Grid::for_tensor(&one.grid);
        for (tier, rows) in [
            (ExecTier::Auto, rows),
            (ExecTier::Interp, 1),
            (ExecTier::Vm, 1),
        ] {
            let c = TieredStencil::compile(&one, &one_grid, tier).unwrap();
            assert_eq!(c.rows_per_call(), rows, "{tier:?}");
        }
        let local =
            TieredStencil::from_compiled(image.relinearized(&g.strides), ExecTier::Auto);
        assert_eq!(local.rows.as_ref().err(), Some(&OneRow::Staged));
    }

    /// `kernel` alone over `t-1` on a grid of `shape`, halo 2.
    fn program_of(kernel: Kernel, shape: &[usize]) -> StencilProgram {
        let name = kernel.name.clone();
        StencilProgram::builder("blocks")
            .grid(SpNode::new("B", DType::F64, shape, 2, 2).unwrap())
            .kernel(kernel)
            .combine(&[(1, 1.0, name.as_str())])
            .timesteps(1)
            .build()
            .unwrap()
    }

    #[test]
    fn kernel_images_are_decided_from_the_terms_and_the_bytes_a_step_streams() {
        let p = program();
        let g: Grid<f64> = Grid::for_tensor(&p.grid);
        let seven = CompiledStencil::compile(&p, &g).unwrap();
        let dense = benchmark(BenchmarkId::S2d121ptBox)
            .program(&[24, 24], DType::F64, 2)
            .unwrap();
        let dense =
            CompiledStencil::compile(&dense, &Grid::<f64>::for_tensor(&dense.grid)).unwrap();
        // The kernel alone: one term, weight 1, reading `states[0]`.
        let image = reusable_kernel(&seven, 0).unwrap();
        assert_eq!((image.max_dt, image.terms.len()), (1, 1));
        assert_eq!((image.terms[0].dt, image.terms[0].weight), (1, 1.0));
        assert_eq!(image.terms[0].taps, seven.terms[0].taps);
        // A cache-sized step reuses whatever the tap count; a step that
        // streams from DRAM only with enough taps per term to pay for the
        // image's trip through memory. stream3d: 3 x 137 MB, 7 taps.
        let stream3d = step_bytes::<f64>(2, 258 * 258 * 258);
        assert!(reusable_kernel(&seven, PREFETCH_MIN_STEP_BYTES - 1).is_ok());
        let why = reusable_kernel(&seven, stream3d).unwrap_err();
        assert_eq!(
            why,
            Recomputed::Streams {
                step_mb: 412,
                taps: 7
            }
        );
        assert_eq!(why.to_string(), "412 MB/step through 7 taps");
        assert!(reusable_kernel(&dense, stream3d).is_ok());
        assert!(seven.terms[0].taps.len() < IMAGE_MIN_STREAMED_TAPS);
        assert!(dense.terms[0].taps.len() >= IMAGE_MIN_STREAMED_TAPS);
        // One state to read: nothing was computed a step ago.
        let mut single = seven.clone();
        single.terms.truncate(1);
        assert_eq!(
            reusable_kernel(&single, 0).unwrap_err(),
            Recomputed::OneDependency
        );
        single.terms.push(single.terms[0].clone());
        assert_eq!(
            reusable_kernel(&single, 0).unwrap_err(),
            Recomputed::OneDependency
        );
        // More terms than a combination gathers rows for.
        let mut many = seven.clone();
        many.terms = (0..=MAX_IMAGE_TERMS)
            .map(|k| many.terms[k % 2].clone())
            .collect();
        let why = reusable_kernel(&many, 0).unwrap_err();
        assert_eq!(why, Recomputed::ManyTerms(MAX_IMAGE_TERMS + 1));
        many.terms.pop();
        assert!(reusable_kernel(&many, 0).is_ok());
        // Coefficients are compared by bit pattern: -0.0 is another kernel.
        let mut other = seven.clone();
        for term in &mut other.terms {
            term.taps_nd[0].1 = 0.0;
        }
        assert!(reusable_kernel(&other, 0).is_ok());
        other.terms[0].taps_nd[0].1 = -0.0;
        assert_eq!(
            reusable_kernel(&other, 0).unwrap_err(),
            Recomputed::DifferentKernels
        );
        // What `compile` attaches runs on the stencil's own tier, and a
        // stencil retargeted to tile-local buffers keeps no image.
        for tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized] {
            let (c, a, _) = tiered(tier);
            let image = c.kernel_image().unwrap();
            assert_eq!(image.active, c.active);
            assert!(c.recomputing().kernel_image().is_none());
            let (c, _, _) = tiered(tier);
            let local = TieredStencil::from_compiled(c.relinearized(&a.strides), tier);
            assert!(local.kernel_image().is_none());
            assert!(local
                .describe()
                .ends_with("(staged through tile-local buffers)"));
        }
    }

    #[test]
    fn the_vm_program_of_every_catalog_stencil_is_pinned_op_for_op() {
        use BenchmarkId::*;
        // (ops, registers) of the two-dependency program and of the
        // one-term kernel its image step sweeps.
        let pinned = [
            (S2d9ptStar, (7, 2), (4, 2)),
            (S2d9ptBox, (7, 2), (4, 2)),
            (S2d121ptBox, (35, 2), (18, 2)),
            (S2d169ptBox, (47, 2), (24, 2)),
            (S3d7ptStar, (3, 1), (2, 1)),
            (S3d13ptStar, (7, 2), (4, 2)),
            (S3d25ptStar, (11, 2), (6, 2)),
            (S3d31ptStar, (11, 2), (6, 2)),
        ];
        let size = |c: &TieredStencil<f64>| {
            let vm = c.vm.as_ref().expect("lowered to the VM");
            (vm.n_ops(), vm.n_regs())
        };
        for (id, program, kernel) in pinned {
            let b = benchmark(id);
            let p = b.program(&b.test_grid(), DType::F64, 2).unwrap();
            let c = TieredStencil::<f64>::compile(&p, &Grid::for_tensor(&p.grid), ExecTier::Vm)
                .unwrap();
            let image = c.kernel_image().expect("one kernel at two distances");
            assert_eq!((size(&c), size(image)), (program, kernel), "{id:?}");
        }
    }

    #[test]
    fn tier_names_parse() {
        assert_eq!(ExecTier::parse("specialized"), Some(ExecTier::Specialized));
        assert_eq!(ExecTier::parse("bogus"), None);
    }
}
