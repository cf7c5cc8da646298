//! Differential test harness for the sweep core: the full product of
//! **staging** {direct, SPM, time-block `tt` ∈ {1, 3}} × **execution
//! tier** {interpreter, bytecode VM, specialized} × the catalog (plus a
//! long-row 2d121pt, a tap count no catalog stencil has, and a program
//! whose result is a signed zero) × {f32, f64} runs for several steps on
//! random-seeded grids, and every cell must be **bit-identical**
//! (`to_bits`, so `-0.0` is not `+0.0`) to `Executor::Reference`.
//!
//! The reference executor (serial interpreter) is the oracle; it shares
//! no code with the sweeps. A cell that passes proves that its staging
//! writes every point exactly once and that its tier keeps the
//! interpreter's evaluation order (order of taps, order of terms,
//! two-rounding multiply-add, the `0 + weight * acc` seed).

use msc_core::catalog::{all_benchmarks, benchmark, Benchmark, BenchmarkId};
use msc_core::prelude::*;
use msc_core::schedule::Schedule;
use msc_exec::{
    run_program, run_program_tier, run_temporal_tiled_tier, Boundary, ExecTier, Executor, Grid,
    RunStats, Scalar,
};

const STEPS: usize = 4; // ≥ 3 per the issue; 4 exercises the ring twice

const TIERS: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Vm, ExecTier::Specialized];

/// Half-grid tiles on four threads: interior and remainder tiles, and
/// every tile borders another worker's.
fn half_tiles(p: &StencilProgram) -> ExecPlan {
    let mut s = Schedule::default();
    let tile: Vec<usize> = p.grid.shape.iter().map(|&g| (g / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 4);
    ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap()
}

/// A grid's values as bit patterns (widening f32 keeps every bit,
/// including the sign of zero).
fn bits<T: Scalar>(g: &Grid<T>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// The counters must prove the requested tier — and only it — ran.
fn assert_tier_ran(cell: &str, tier: ExecTier, stats: &RunStats) {
    assert_eq!(stats.vm_dispatches() > 0, tier == ExecTier::Vm, "{cell}");
    assert_eq!(
        stats.specialized_hits() > 0,
        tier == ExecTier::Specialized,
        "{cell}"
    );
}

/// Run `p` from `init` on the serial oracle and on every staging × tier
/// cell it is eligible for (time-block needs a single `t-1` dependency).
fn assert_matrix<T: Scalar>(name: &str, p: &StencilProgram, init: &Grid<T>) {
    let oracle = bits(&run_program(p, &Executor::Reference, init).unwrap().0);
    let plan = half_tiles(p);
    let executors = [
        ("direct", Executor::Tiled(plan.clone())),
        (
            "spm",
            Executor::Spm {
                plan: plan.clone(),
                spm_capacity: 1 << 24,
            },
        ),
    ];
    for tier in TIERS {
        for (staging, exec) in &executors {
            let cell = format!("{name}: {staging} x {tier:?}");
            let (out, stats) =
                run_program_tier(p, exec, init, Boundary::Dirichlet, tier).unwrap();
            assert!(bits(&out) == oracle, "{cell} differs from the serial oracle");
            assert_tier_ran(&cell, tier, &stats);
        }
        if p.stencil.max_dt() == 1 {
            for tt in [1, 3] {
                let (out, stats) = run_temporal_tiled_tier(p, &plan, tt, init, tier).unwrap();
                assert!(
                    bits(&out) == oracle,
                    "{name}: time-block tt={tt} x {tier:?} differs from the serial oracle"
                );
                assert_eq!(stats.steps, p.timesteps);
            }
        }
    }
}

fn random<T: Scalar>(p: &StencilProgram, seed: u64) -> Grid<T> {
    Grid::random(&p.grid.shape, &p.grid.halo, seed)
}

/// `b`'s kernel with the single dependency `weight * K[t-1]` — the form
/// time-block staging accepts.
fn single_dep(b: &Benchmark, grid: &[usize], weight: f64) -> StencilProgram {
    StencilProgram::builder(b.name)
        .grid(SpNode::new("B", DType::F64, grid, b.radius, 2).unwrap())
        .kernel(b.kernel())
        .combine(&[(1, weight, b.name)])
        .timesteps(STEPS)
        .build()
        .unwrap()
}

fn differential_catalog<T: Scalar>(seed: u64) {
    for b in all_benchmarks() {
        let grid = b.test_grid();
        // The paper's two-dependency form (direct, SPM) and the
        // single-dependency form (also time-block).
        let p = b.program(&grid, DType::F64, STEPS).unwrap();
        assert_matrix::<T>(b.name, &p, &random(&p, seed));
        assert_matrix::<T>(b.name, &single_dep(&b, &grid, 1.0), &random(&p, seed + 1));
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
fn every_cell_bit_identical_beyond_the_catalog() {
    for (name, p) in [
        ("2d121pt x203", dense_long_rows()),
        ("twelve_taps", twelve_taps()),
    ] {
        assert_matrix::<f64>(name, &p, &random(&p, 1212));
        assert_matrix::<f32>(name, &p, &random(&p, 1213));
    }
}

#[test]
#[cfg_attr(miri, ignore)] // the full product is too slow under Miri
fn every_cell_bit_identical_across_catalog_f64() {
    differential_catalog::<f64>(20260808);
}

#[test]
#[cfg_attr(miri, ignore)]
fn every_cell_bit_identical_across_catalog_f32() {
    differential_catalog::<f32>(4242);
}

#[test]
#[cfg_attr(miri, ignore)]
fn a_negative_weight_on_a_zero_field_yields_positive_zero_in_every_cell() {
    // One term, weight -1, all-zero field: every tap sum is +0, so
    // `weight * acc` is -0 — and the reference stores `0 + weight * acc`,
    // which is +0. A staging that stores the product without the seed
    // returns 0x8000000000000000 here; `==` on floats cannot see it.
    let b = benchmark(BenchmarkId::S2d9ptStar);
    let p = single_dep(&b, &[20, 20], -1.0);
    let zeros: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
    assert_matrix("signed zero", &p, &zeros);
    assert_matrix("signed zero", &p, &Grid::<f32>::zeros(&p.grid.shape, &p.grid.halo));
    let (oracle, _) = run_program(&p, &Executor::Reference, &zeros).unwrap();
    assert!(bits(&oracle).iter().all(|&b| b == 0), "oracle must be +0");
}

#[test]
#[cfg_attr(miri, ignore)]
fn auto_tier_matches_oracle_with_periodic_boundaries() {
    // Auto (the default everywhere) through a different boundary
    // condition, proving tier selection composes with halo rewrap.
    for b in all_benchmarks() {
        let p = b.program(&b.test_grid(), DType::F64, STEPS).unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
        let (oracle, _) = run_program_tier(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Periodic,
            ExecTier::Interp,
        )
        .unwrap();
        let exec = Executor::Tiled(half_tiles(&p));
        let (auto, stats) =
            run_program_tier(&p, &exec, &init, Boundary::Periodic, ExecTier::Auto).unwrap();
        assert!(bits(&auto) == bits(&oracle), "{}", b.name);
        assert!(
            stats.specialized_hits() > 0,
            "{}: Auto should pick the specialized tier for catalog shapes",
            b.name
        );
    }
}
