//! Differential test harness for the execution tiers (ISSUE 6 satellite):
//! every catalog benchmark — plus a long-row 2d121pt and a tap count no
//! catalog stencil has — runs the interpreter, the bytecode VM, and the
//! specialized tier for several steps on random-seeded grids, and the
//! outputs must be **bit-identical** — same style as the pool
//! determinism suite, but across tiers instead of thread counts.
//!
//! The reference executor (serial interpreter) is the oracle; the tiled
//! interpreter run proves the tiling itself is exact, and the VM /
//! specialized runs prove each lowering preserves the interpreter's
//! evaluation order exactly (order of taps, order of terms, two-rounding
//! multiply-add).

use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
use msc_core::prelude::*;
use msc_core::schedule::Schedule;
use msc_exec::{
    run_program, run_program_tier, Boundary, ExecTier, Executor, Grid, RunStats, Scalar,
};

const STEPS: usize = 4; // ≥ 3 per the issue; 4 exercises the ring twice

fn tiled_plan(p: &StencilProgram, threads: usize) -> Executor {
    let mut s = Schedule::default();
    let tile: Vec<usize> = p.grid.shape.iter().map(|&g| (g / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", threads);
    let plan = ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap();
    Executor::Tiled(plan)
}

fn run_tier<T: Scalar>(
    p: &StencilProgram,
    init: &Grid<T>,
    tier: ExecTier,
) -> (Grid<T>, RunStats) {
    run_program_tier(p, &tiled_plan(p, 4), init, Boundary::Dirichlet, tier).unwrap()
}

/// Run `p` on the serial oracle and on every tier; all grids must be
/// bit-identical and the counters must prove the requested tier ran.
fn assert_tiers_agree<T: Scalar>(name: &str, p: &StencilProgram, seed: u64) {
    let init: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, seed);
    let (oracle, _) = run_program(p, &Executor::Reference, &init).unwrap();
    let (interp, si) = run_tier(p, &init, ExecTier::Interp);
    let (vm, sv) = run_tier(p, &init, ExecTier::Vm);
    let (spec, ss) = run_tier(p, &init, ExecTier::Specialized);

    assert_eq!(
        interp.as_slice(),
        oracle.as_slice(),
        "{name}: tiled interpreter differs from serial oracle"
    );
    assert_eq!(
        vm.as_slice(),
        oracle.as_slice(),
        "{name}: VM tier differs from interpreter"
    );
    assert_eq!(
        spec.as_slice(),
        oracle.as_slice(),
        "{name}: specialized tier differs from interpreter"
    );

    assert_eq!(si.vm_dispatches(), 0, "{name}");
    assert_eq!(si.specialized_hits(), 0, "{name}");
    assert!(sv.vm_dispatches() > 0, "{name}: VM tier did not run");
    assert_eq!(sv.specialized_hits(), 0, "{name}");
    assert!(
        ss.specialized_hits() > 0,
        "{name}: specialized tier did not run"
    );
    assert_eq!(ss.vm_dispatches(), 0, "{name}");
}

fn differential_catalog<T: Scalar>(seed: u64) {
    for b in all_benchmarks() {
        let p = b.program(&b.test_grid(), DType::F64, STEPS).unwrap();
        assert_tiers_agree::<T>(b.name, &p, seed);
    }
}

/// 2d121pt on rows of 203 points: whole blocks of every ISA's width and
/// an 11-point tail, where the catalog's 64-point test rows are at most
/// one block.
fn dense_long_rows() -> StencilProgram {
    benchmark(BenchmarkId::S2d121ptBox)
        .program(&[24, 203], DType::F64, STEPS)
        .unwrap()
}

/// A lopsided 12-tap 2D kernel over two time levels — a tap count and
/// a footprint no catalog stencil has.
fn twelve_taps() -> StencilProgram {
    #[rustfmt::skip]
    let offsets: [[i64; 2]; 12] = [
        [-2, -1], [-2, 0], [-1, -2], [-1, 0], [-1, 1], [0, -2],
        [0, -1], [0, 0], [0, 2], [1, -1], [1, 1], [2, 0],
    ];
    let mut taps = offsets
        .iter()
        .enumerate()
        .map(|(k, off)| (0.02 + 0.01 * k as f64) * Expr::at("B", off));
    let first = taps.next().unwrap();
    let k = Kernel::new("k12", 2, taps.fold(first, |sum, tap| sum + tap)).unwrap();
    StencilProgram::builder("twelve_taps")
        .grid(SpNode::new("B", DType::F64, &[30, 77], 2, 3).unwrap())
        .kernel(k)
        .combine(&[(1, 0.7, "k12"), (2, 0.3, "k12")])
        .timesteps(STEPS)
        .build()
        .unwrap()
}

#[test]
#[cfg_attr(miri, ignore)]
fn all_tiers_bit_identical_beyond_the_catalog() {
    for (name, p) in [
        ("2d121pt x203", dense_long_rows()),
        ("twelve_taps", twelve_taps()),
    ] {
        assert_tiers_agree::<f64>(name, &p, 1212);
        assert_tiers_agree::<f32>(name, &p, 1213);
    }
}

#[test]
#[cfg_attr(miri, ignore)] // full catalog × 3 tiers × 4 steps is too slow under Miri
fn all_tiers_bit_identical_across_catalog_f64() {
    differential_catalog::<f64>(20260808);
}

#[test]
#[cfg_attr(miri, ignore)]
fn all_tiers_bit_identical_across_catalog_f32() {
    differential_catalog::<f32>(4242);
}

#[test]
#[cfg_attr(miri, ignore)]
fn auto_tier_matches_oracle_with_periodic_boundaries() {
    // Auto (the default everywhere) through a different boundary
    // condition, proving tier selection composes with halo rewrap.
    for b in all_benchmarks() {
        let p = b.program(&b.test_grid(), DType::F64, STEPS).unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
        let (oracle, _) = msc_exec::run_program_bc(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Periodic,
        )
        .unwrap();
        let (auto, stats) =
            run_program_tier(&p, &tiled_plan(&p, 4), &init, Boundary::Periodic, ExecTier::Auto)
                .unwrap();
        assert_eq!(auto.as_slice(), oracle.as_slice(), "{}", b.name);
        assert!(
            stats.specialized_hits() > 0,
            "{}: Auto should pick the specialized tier for catalog shapes",
            b.name
        );
    }
}
