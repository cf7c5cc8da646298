//! # msc-lint — compile-time stencil verifier
//!
//! Multi-pass static analysis over the single-level IR and schedule,
//! run before any codegen or execution. The passes consume the
//! [`msc_core::footprint::Footprint`] inferred from each kernel's
//! expression tree and prove, rather than assume:
//!
//! * **halo sufficiency** — every grid's declared halo covers the
//!   per-axis min/max offset box (MSC-L101/L102);
//! * **time-window depth** — the sliding window keeps every read state
//!   alive (`S[t-2]` with a 2-deep window is a compile error,
//!   MSC-L201/L202);
//! * **parallel races** — `parallel()` on a sweep whose window aliases
//!   read and write states is a cross-thread data race
//!   (MSC-L301/L302/L303);
//! * **capacity** — `cache_read`/`cache_write` staging buffers versus
//!   the target's SPM size, DMA row granularity, and the MPI process
//!   grid versus the global extents (MSC-L401..L404).
//!
//! Diagnostics are structured ([`LintCode`], [`Severity`], source
//! context, machine-readable JSON); [`lint_program`] reports them (`mscc
//! check`). [`check`] runs the passes once per program and returns the
//! full [`Report`] of a refusal or a [`Checked`] program, which nothing
//! else can make: everything below a door — time loops, ranks, emitters,
//! the `mscd` cache — takes it and never lints again. The doors accept a
//! bare program or a checked one through [`Gate`]. [`check_owned`] is the
//! same check for a program that must outlive its caller (an `mscd` cache
//! entry): a [`CheckedProgram`] owns it and lends it out as [`Checked`].

pub mod code;
pub mod diag;
pub mod passes;

pub use code::LintCode;
pub use diag::{Diagnostic, Report, Severity};

use msc_core::dsl::StencilProgram;
use msc_core::error::MscError;
use msc_core::footprint::Footprint;
use msc_core::schedule::Target;

/// Run every lint pass over a program. `target` enables the
/// target-specific capacity lints (SPM size, DMA granularity); pass
/// `None` when the target is unknown (e.g. the functional executor).
pub fn lint_program(program: &StencilProgram, target: Option<Target>) -> Report {
    let mut report = Report::new(&program.name);
    // `of_stencil` only fails on a term naming an unknown kernel, which
    // `Stencil::new` rejects before a `StencilProgram` can exist.
    let Ok(fp) = Footprint::of_stencil(&program.stencil) else {
        return report;
    };
    passes::halo::run(program, &fp, &mut report);
    passes::window::run(program, &fp, &mut report);
    passes::race::run(program, &fp, &mut report);
    passes::capacity::run(program, &fp, target, &mut report);
    report
}

/// Lint `program` once for `target`: the full report if any finding is
/// deny-level, else the program as [`Checked`], warnings attached.
pub fn check(program: &StencilProgram, target: Option<Target>) -> Result<Checked<'_>, Report> {
    let _s = msc_trace::span("lint");
    let warnings = lint_program(program, target);
    Checked {
        program,
        target,
        warnings,
    }
    .unless_denied()
}

/// [`check`] for a program the result must own: the same lint, kept with
/// the program it passed.
pub fn check_owned(
    program: StencilProgram,
    target: Option<Target>,
) -> Result<CheckedProgram, Report> {
    let Checked {
        target, warnings, ..
    } = check(&program, target)?;
    Ok(CheckedProgram {
        program,
        target,
        warnings,
    })
}

/// A [`Checked`] program that owns what it checked; only [`check_owned`]
/// makes one.
#[derive(Debug)]
pub struct CheckedProgram {
    program: StencilProgram,
    target: Option<Target>,
    warnings: Report,
}

impl CheckedProgram {
    /// The program as the doors take it, borrowed from here.
    pub fn checked(&self) -> Checked<'_> {
        Checked {
            program: &self.program,
            target: self.target,
            warnings: self.warnings.clone(),
        }
    }
}

impl std::ops::Deref for CheckedProgram {
    type Target = StencilProgram;

    fn deref(&self) -> &StencilProgram {
        &self.program
    }
}

/// A program [`check`] found no deny-level defect in for `target`.
#[derive(Debug, Clone)]
pub struct Checked<'p> {
    program: &'p StencilProgram,
    target: Option<Target>,
    pub warnings: Report,
}

impl std::ops::Deref for Checked<'_> {
    type Target = StencilProgram;

    fn deref(&self) -> &StencilProgram {
        self.program
    }
}

impl<'p> Checked<'p> {
    /// This program checked for `target` too: only the target's capacity
    /// lints run, and a check for any target already covers `None`.
    pub fn narrow(&self, target: Option<Target>) -> Result<Checked<'p>, Report> {
        let mut narrowed = self.clone();
        if let Some(t) = target.filter(|&t| self.target != Some(t)) {
            passes::capacity::run_target(self.program, t, &mut narrowed.warnings);
            narrowed.target = target;
        }
        narrowed.unless_denied()
    }

    fn unless_denied(self) -> Result<Checked<'p>, Report> {
        match self.warnings.has_deny() {
            true => Err(self.warnings),
            false => Ok(self),
        }
    }
}

/// What a public door accepts: a bare program, checked there, or a
/// [`Checked`] one, narrowed to the door's target.
pub trait Gate<'p> {
    fn gate(self, target: Option<Target>) -> Result<Checked<'p>, Report>;
}

impl<'p> Gate<'p> for &'p StencilProgram {
    fn gate(self, target: Option<Target>) -> Result<Checked<'p>, Report> {
        check(self, target)
    }
}

impl<'p> Gate<'p> for &Checked<'p> {
    fn gate(self, target: Option<Target>) -> Result<Checked<'p>, Report> {
        self.narrow(target)
    }
}

/// A refusal as the workspace error: every deny-level finding listed.
impl From<Report> for MscError {
    fn from(report: Report) -> MscError {
        MscError::InvalidConfig(format!(
            "lint rejected `{}`:\n{}",
            report.program,
            report.render_denies()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::dtype::DType;
    use msc_core::kernel::Kernel;
    use msc_core::schedule::BufferScope;

    fn narrow_halo() -> StencilProgram {
        StencilProgram::builder("bad")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 2)) // reach 2
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .build_unchecked()
            .unwrap()
    }

    #[test]
    fn narrow_halo_denied() {
        let r = lint_program(&narrow_halo(), None);
        assert!(r.has_code(LintCode::HaloTooNarrow));
        assert!(r.has_deny());
        assert!(check(&narrow_halo(), None).is_err());
    }

    #[test]
    fn strictly_built_catalog_programs_are_clean() {
        for b in msc_core::catalog::all_benchmarks() {
            let p = b.program(&b.test_grid(), DType::F64, 4).unwrap();
            let r = lint_program(&p, None);
            assert!(r.is_clean(), "{}: {}", b.name, r.render());
        }
    }

    #[test]
    fn shallow_window_denied_and_fix_passes() {
        let bad = StencilProgram::builder("w")
            .grid_3d("B", DType::F64, [32, 32, 32], 1, 2) // window 2
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")]) // reads t-2
            .build_unchecked()
            .unwrap();
        let r = lint_program(&bad, None);
        assert!(r.has_code(LintCode::WindowTooShallow));
        // Serial aliased sweep is an order dependence, not a thread race.
        assert!(r.has_code(LintCode::InPlaceOrderDependence));

        let good = StencilProgram::builder("w")
            .grid_3d("B", DType::F64, [32, 32, 32], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")])
            .build()
            .unwrap();
        assert!(lint_program(&good, None).is_clean());
    }

    #[test]
    fn parallel_on_aliased_window_is_a_race() {
        let mut k = Kernel::star_normalized("S", 3, 1);
        k.sched().tile(&[8, 8, 32]).parallel("xo", 8);
        let bad = StencilProgram::builder("race")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 2)
            .kernel(k)
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")])
            .build_unchecked()
            .unwrap();
        let r = lint_program(&bad, None);
        assert!(r.has_code(LintCode::ParallelWindowRace));
        assert!(!r.has_code(LintCode::InPlaceOrderDependence));
    }

    #[test]
    fn oversized_halo_and_window_warn_but_pass() {
        let p = StencilProgram::builder("wide")
            .grid_3d("B", DType::F64, [32, 32, 32], 3, 4) // reach 1, needs 3
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.5, "S"), (2, 0.5, "S")])
            .build()
            .unwrap();
        let r = lint_program(&p, None);
        assert!(r.has_code(LintCode::HaloOversized));
        assert!(r.has_code(LintCode::WindowOversized));
        assert!(!r.has_deny());
        assert!(check(&p, None).is_ok());
    }

    #[test]
    fn spm_overflow_denied_only_with_cacheless_target() {
        let mut k = Kernel::star_normalized("S", 3, 1);
        k.sched()
            .tile(&[64, 64, 64])
            .parallel("xo", 1)
            .cache_read("B", "br", BufferScope::Global)
            .cache_write("bw", BufferScope::Global)
            .compute_at("br", "zo")
            .compute_at("bw", "zo");
        let p = StencilProgram::builder("big")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(k)
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .build()
            .unwrap();
        let sunway = lint_program(&p, Some(Target::SunwayCG));
        assert!(sunway.has_code(LintCode::SpmOverflow));
        let cpu = lint_program(&p, Some(Target::Cpu));
        assert!(!cpu.has_code(LintCode::SpmOverflow));
        assert!(lint_program(&p, None).is_clean());

        // Narrowing runs the target's lints on a program checked without
        // one, and reaches the verdict a direct check does.
        let unaimed = check(&p, None).unwrap();
        let refused = unaimed.narrow(Some(Target::SunwayCG)).unwrap_err();
        assert_eq!(refused, check(&p, Some(Target::SunwayCG)).unwrap_err());
        let on_cpu = unaimed.narrow(Some(Target::Cpu)).unwrap();
        assert_eq!(on_cpu.target, Some(Target::Cpu));
        // A program checked for a target needs nothing more to run
        // without one.
        assert_eq!(on_cpu.narrow(None).unwrap().target, Some(Target::Cpu));
    }

    #[test]
    fn a_refusal_carries_every_finding() {
        let refused = check(&narrow_halo(), None).unwrap_err();
        assert_eq!(refused, lint_program(&narrow_halo(), None));
        let err = MscError::from(refused).to_string();
        assert!(err.contains("lint rejected `bad`:"), "{err}");
        assert!(err.contains("MSC-L101"), "{err}");
    }

    #[test]
    fn short_dma_rows_warn() {
        let mut k = Kernel::star_normalized("S", 3, 1);
        k.sched()
            .tile(&[8, 8, 8])
            .parallel("xo", 8)
            .cache_read("B", "br", BufferScope::Global)
            .cache_write("bw", BufferScope::Global)
            .compute_at("br", "zo")
            .compute_at("bw", "zo");
        let p = StencilProgram::builder("short")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(k)
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .build()
            .unwrap();
        let r = lint_program(&p, Some(Target::SunwayCG));
        // Rows are (8+2)·8 = 80 B < 128 B.
        assert!(r.has_code(LintCode::DmaRowTooShort));
        assert!(!r.has_deny());
    }

    #[test]
    fn indivisible_mpi_grid_denied() {
        let p = StencilProgram::builder("mpi")
            .grid_3d("B", DType::F64, [60, 64, 64], 1, 3)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .mpi_grid(&[7, 2, 2]) // 60 % 7 != 0
            .build()
            .unwrap();
        let r = lint_program(&p, None);
        assert!(r.has_code(LintCode::MpiGridIndivisible));
        assert!(r.has_deny());
    }

    #[test]
    fn threads_exceeding_tiles_warn() {
        let mut k = Kernel::star_normalized("S", 3, 1);
        k.sched().tile(&[32, 8, 64]).parallel("xo", 8);
        let p = StencilProgram::builder("idle")
            .grid_3d("B", DType::F64, [64, 64, 64], 1, 3)
            .kernel(k)
            .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
            .build()
            .unwrap();
        let r = lint_program(&p, None);
        // Only 64/32 = 2 tiles along x for 8 threads.
        assert!(r.has_code(LintCode::ThreadsExceedTiles));
        assert!(!r.has_deny());
    }
}
