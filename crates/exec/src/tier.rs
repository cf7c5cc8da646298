//! Execution-tier selection: interpreter vs bytecode VM vs the
//! register-blocked row kernel.
//!
//! The three tiers form a strict correctness hierarchy. The interpreter
//! (`CompiledStencil::apply_at`) is the oracle; the VM replays its exact
//! evaluation order row-by-row (see `msc_vm::compile_linear`); the
//! specialized kernel does the same a block of points at a time (see
//! [`crate::specialized`]). All three are bit-identical by construction,
//! which the differential harness (`tests/tier_differential.rs`) enforces
//! across the catalog.
//!
//! Selection policy:
//!
//! * `Auto` (the default) and `Specialized` → **specialized**, always:
//!   the blocked kernel takes any tap count, so no stencil is declined;
//! * `Vm` → the **VM**, or the interpreter when the kernel overflows the
//!   VM's register file or constant pool;
//! * `Interp` → the **interpreter** (also what the `Executor::Reference`
//!   oracle path always runs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use msc_core::error::Result;
use msc_core::prelude::StencilProgram;
use msc_vm::{LinearTerm, VmProgram, VmScratch};

use crate::compiled::CompiledStencil;
use crate::grid::{Grid, Scalar};
use crate::specialized::{prefetch_pays, RowKernel};

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
/// other tiers need none).
pub struct TierScratch<T> {
    vm: Option<VmScratch<T>>,
}

/// A compiled stencil with the requested execution tier resolved and
/// attached. Derefs to the interpreter's [`CompiledStencil`], so layout
/// queries (`max_dt`, `reach`, taps) and the SPM/reference paths keep
/// working on the same object.
pub struct TieredStencil<T> {
    interp: CompiledStencil<T>,
    /// Lowered only for an explicit `ExecTier::Vm`: no other request can
    /// end up on the VM.
    vm: Option<VmProgram<T>>,
    specialized: RowKernel<T>,
    active: ActiveTier,
    /// Wall time spent attaching the tier — bytecode lowering under
    /// `ExecTier::Vm`, ISA detection otherwise (feeds the
    /// `VmCompileNanos` counter).
    pub compile_nanos: u64,
    vm_dispatches: AtomicU64,
    specialized_rows: AtomicU64,
}

impl<T> std::ops::Deref for TieredStencil<T> {
    type Target = CompiledStencil<T>;
    fn deref(&self) -> &CompiledStencil<T> {
        &self.interp
    }
}

/// Lower the tap lists to VM bytecode. `None` on register or const-pool
/// overflow — kernels that large stay on the interpreter.
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
    pub fn compile(program: &StencilProgram, grid: &Grid<T>, tier: ExecTier) -> Result<TieredStencil<T>> {
        let interp = CompiledStencil::compile(program, grid)?;
        let prefetch = prefetch_pays::<T>(interp.max_dt, grid.as_slice().len());
        Ok(Self::attach(interp, tier, prefetch))
    }

    /// Attach a tier to a stencil relinearized for tile-local buffers:
    /// those are sized to stay in cache, so the row kernel never
    /// prefetches.
    pub fn from_compiled(interp: CompiledStencil<T>, tier: ExecTier) -> TieredStencil<T> {
        Self::attach(interp, tier, false)
    }

    fn attach(interp: CompiledStencil<T>, tier: ExecTier, prefetch: bool) -> TieredStencil<T> {
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
        TieredStencil {
            interp,
            vm,
            specialized,
            active,
            compile_nanos: t0.elapsed().as_nanos() as u64,
            vm_dispatches: AtomicU64::new(0),
            specialized_rows: AtomicU64::new(0),
        }
    }

    pub fn active(&self) -> ActiveTier {
        self.active
    }

    /// What evaluates the rows, for run banners: `vm tier`, or
    /// `specialized tier, avx512f, prefetch on`.
    pub fn describe(&self) -> String {
        let kernel = &self.specialized;
        match self.active {
            ActiveTier::Specialized => {
                let prefetch = if kernel.prefetch() { "on" } else { "off" };
                format!("specialized tier, {}, prefetch {prefetch}", kernel.isa())
            }
            tier => format!("{} tier", tier.name()),
        }
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
    pub fn scratch(&self) -> TierScratch<T> {
        TierScratch {
            vm: match self.active {
                ActiveTier::Vm => self.vm.as_ref().map(|p| p.scratch()),
                _ => None,
            },
        }
    }

    /// Evaluate a unit-stride row on the active tier: `out[i]` gets the
    /// update of the point at flat index `base + i`, where
    /// `states[dt - 1]` is the state `dt` steps back.
    #[inline]
    pub fn run_row(&self, states: &[&[T]], base: usize, out: &mut [T], scratch: &mut TierScratch<T>) {
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

    /// Account `n_rows` rows of `row_len` executed on the active tier.
    /// Called once per tile (relaxed atomics; drained per step by the
    /// drivers into `VmDispatches`/`SpecializedHits`).
    pub fn note_rows(&self, n_rows: u64, row_len: usize) {
        match self.active {
            ActiveTier::Interp => {}
            ActiveTier::Vm => {
                let d = n_rows * VmProgram::<T>::dispatches_for(row_len);
                self.vm_dispatches.fetch_add(d, Ordering::Relaxed);
            }
            ActiveTier::Specialized => {
                self.specialized_rows.fetch_add(n_rows, Ordering::Relaxed);
            }
        }
    }

    /// Drain the accumulated `(vm_dispatches, specialized_rows)` pair.
    pub fn take_tier_counters(&self) -> (u64, u64) {
        (
            self.vm_dispatches.swap(0, Ordering::Relaxed),
            self.specialized_rows.swap(0, Ordering::Relaxed),
        )
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
        assert_eq!(c.active(), ActiveTier::Specialized);
        let (c, _, _) = tiered(ExecTier::Vm);
        assert_eq!(c.active(), ActiveTier::Vm);
        let (c, _, _) = tiered(ExecTier::Interp);
        assert_eq!(c.active(), ActiveTier::Interp);
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
            assert_eq!(c.active(), active, "{tier:?}");
            let mut row = vec![0.0f64; 32];
            c.run_row(&states, base, &mut row, &mut c.scratch());
            c.note_rows(1, row.len());
            // Explicit `Vm` still runs the VM: it is what gets counted.
            let (vm_dispatches, specialized_rows) = c.take_tier_counters();
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

    #[test]
    fn tier_counters_accumulate_and_drain() {
        let (c, _, _) = tiered(ExecTier::Vm);
        c.note_rows(10, 130); // 130 points = 3 chunks of 64
        assert_eq!(c.take_tier_counters(), (30, 0));
        assert_eq!(c.take_tier_counters(), (0, 0));
        let (c, _, _) = tiered(ExecTier::Specialized);
        c.note_rows(7, 64);
        assert_eq!(c.take_tier_counters(), (0, 7));
    }

    #[test]
    fn only_whole_grid_stencils_may_prefetch() {
        // 10 x 8 x 12 is far below the line: off, and said so.
        let (mut c, a, _) = tiered(ExecTier::Auto);
        assert!(!c.specialized.prefetch());
        assert_eq!(
            c.describe(),
            format!("specialized tier, {}, prefetch off", c.specialized.isa())
        );
        assert_eq!(tiered(ExecTier::Vm).0.describe(), "vm tier");
        assert_eq!(tiered(ExecTier::Interp).0.describe(), "interp tier");
        // As if the grid had been huge: the stencil prefetches, what is
        // staged from it through tile-local buffers still does not.
        c.specialized = RowKernel::widest(true);
        assert!(c.describe().ends_with("prefetch on"), "{}", c.describe());
        for term in c.staged_terms(&[60, 10, 1]) {
            assert!(!term.specialized.prefetch());
        }
        let local = TieredStencil::from_compiled(c.relinearized(&a.strides), ExecTier::Auto);
        assert!(!local.specialized.prefetch());
    }

    #[test]
    fn tier_names_parse() {
        assert_eq!(ExecTier::parse("specialized"), Some(ExecTier::Specialized));
        assert_eq!(ExecTier::parse("bogus"), None);
    }
}
