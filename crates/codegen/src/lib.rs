//! # msc-codegen — ahead-of-time C code generation
//!
//! MSC compiles stencil programs to standard C plus build scripts
//! (paper §3: Sunway offers no JIT, so the backend is strictly AOT). The
//! generator walks the same lowered [`msc_core::ExecPlan`] the executor
//! and simulator consume, so the emitted C cannot diverge semantically
//! from what the rest of the system measures.
//!
//! Targets:
//! * [`cpu`] — portable OpenMP C (the Matrix / Xeon path). This output is
//!   genuinely compilable: the test suite builds it with the host `cc`
//!   and checks its checksum against the functional executor.
//! * [`sunway`] — athread master/slave pair with SPM buffers and
//!   `dma_get`/`dma_put` staging (paper Figure 4(d)/(e)).
//! * [`mpi`] — the large-scale variant: domain decomposition plus
//!   asynchronous pack/isend/irecv/unpack halo exchange around the
//!   kernel (paper §4.4).
//! * [`makefile`] — per-target build scripts.
//!
//! [`loc`] accounts generated and DSL lines of code (Table 6).

pub mod cpu;
pub mod ir_to_c;
pub mod loc;
pub mod makefile;
pub mod mpi;
pub mod package;
pub mod sunway;
pub mod varcoeff_c;

pub use loc::{dsl_loc, LocReport};
pub use package::CodePackage;

use msc_core::error::Result;
use msc_core::schedule::Target;
use msc_lint::Gate;

/// Generate the full source package of a program for a target — the
/// library entry point (paper Listing 1: `compile_to_source_code`). The
/// program must be checked for `target`: footprint/halo, window, race
/// and capacity defects refuse codegen instead of becoming wrong C.
pub fn compile_to_source<'p>(program: impl Gate<'p>, target: Target) -> Result<CodePackage> {
    let program = program.gate(Some(target))?;
    let mut pkg = CodePackage::new(&program.name, target);
    match target {
        Target::SunwayCG => {
            let (master, slave) = sunway::generate(&program)?;
            pkg.add_file("master.c", master);
            pkg.add_file("slave.c", slave);
        }
        Target::Matrix | Target::Cpu => {
            pkg.add_file("main.c", cpu::generate(&program, target)?);
        }
    }
    if program.mpi_grid.is_some() {
        pkg.add_file("mpi_main.c", mpi::generate(&program, target)?);
    }
    pkg.add_file("Makefile", makefile::generate(&program, target));
    Ok(pkg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;

    #[test]
    fn a_grid_edited_past_the_address_space_is_refused_not_wrapped() {
        // The shape passes `build()` small and is then edited, so only
        // the emitters' own layout can refuse it. A window one deeper than
        // the stencil reads also sends the lint gate to the grid's bytes.
        let mut p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 2)
            .unwrap();
        p.grid.shape = vec![4294967296; 2];
        let mut deeper = p.clone();
        deeper.grid.time_window += 1;
        for p in [&p, &deeper] {
            for target in [Target::SunwayCG, Target::Matrix, Target::Cpu] {
                let err = compile_to_source(p, target).unwrap_err();
                assert!(
                    matches!(err, MscError::GridTooLarge { bytes: None, .. }),
                    "{target:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn package_contains_target_files() {
        let b = benchmark(BenchmarkId::S3d7ptStar);
        let mut p = b.program(&[32, 32, 32], DType::F64, 4).unwrap();
        p.mpi_grid = Some(vec![2, 2, 2]);

        let sun = compile_to_source(&p, Target::SunwayCG).unwrap();
        assert!(sun.file("master.c").is_some());
        assert!(sun.file("slave.c").is_some());
        assert!(sun.file("Makefile").is_some());
        assert!(sun.file("mpi_main.c").is_some());

        let cpu = compile_to_source(&p, Target::Cpu).unwrap();
        assert!(cpu.file("main.c").is_some());
    }
}
