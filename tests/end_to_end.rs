//! End-to-end integration: DSL → schedule → functional execution →
//! distributed execution → code generation, across the full benchmark
//! catalog.

use msc::core::catalog::all_benchmarks;
use msc::core::schedule::{ExecPlan, Schedule};
use msc::prelude::*;

fn tiled_plan(ndim: usize, grid: &[usize], threads: usize) -> ExecPlan {
    let mut s = Schedule::default();
    let tile: Vec<usize> = grid.iter().map(|&g| (g / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", threads);
    ExecPlan::lower(&s, ndim, grid).unwrap()
}

#[test]
fn every_benchmark_runs_through_all_executors() {
    for b in all_benchmarks() {
        let grid = b.test_grid();
        let program = b.program(&grid, DType::F64, 3).unwrap();
        let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 1);

        let (reference, _) = run_program(&program, &Executor::Reference, &init).unwrap();
        let plan = tiled_plan(b.ndim, &grid, 4);
        let (tiled, _) = run_program(&program, &Executor::Tiled(plan.clone()), &init).unwrap();
        let (spm, st) = run_program(
            &program,
            &Executor::Spm {
                plan,
                spm_capacity: 1 << 22,
            },
            &init,
        )
        .unwrap();

        assert_eq!(reference.as_slice(), tiled.as_slice(), "{} tiled", b.name);
        assert_eq!(reference.as_slice(), spm.as_slice(), "{} spm", b.name);
        assert!(st.dma_get_bytes > 0, "{}", b.name);
    }
}

#[test]
fn every_benchmark_distributes_bit_identically() {
    for b in all_benchmarks() {
        let grid: Vec<usize> = match b.ndim {
            2 => vec![36, 48],
            _ => vec![18, 18, 24],
        };
        let program = b.program(&grid, DType::F64, 3).unwrap();
        let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 5);
        let (single, _) = run_program(&program, &Executor::Reference, &init).unwrap();
        let procs: Vec<usize> = match b.ndim {
            2 => vec![2, 2],
            _ => vec![1, 2, 2],
        };
        let (multi, stats) = run_distributed_resilient(
            &program,
            &procs,
            &init,
            Boundary::Dirichlet,
            &RunOptions::default(),
            |sub| Ok(tiled_plan(sub.len(), sub, 2)),
        )
        .unwrap();
        assert_eq!(single.as_slice(), multi.as_slice(), "{}", b.name);
        assert!(stats.messages > 0, "{}", b.name);
    }
}

#[test]
fn every_benchmark_generates_code_for_all_targets() {
    for b in all_benchmarks() {
        let mut program = b.program(&b.default_grid(), DType::F64, 10).unwrap();
        program.mpi_grid = Some(match b.ndim {
            2 => vec![4, 4],
            _ => vec![4, 4, 4],
        });
        for target in [Target::SunwayCG, Target::Matrix, Target::Cpu] {
            let pkg = compile_to_source(&program, target).unwrap();
            assert!(pkg.total_loc() > 40, "{} {target:?}", b.name);
            assert!(pkg.file("Makefile").is_some());
            for name in pkg.file_names() {
                if name.ends_with(".c") {
                    let src = pkg.file(name).unwrap();
                    assert_eq!(
                        src.matches('{').count(),
                        src.matches('}').count(),
                        "{} {target:?} {name}: unbalanced braces",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn fp32_and_fp64_respect_paper_error_bounds_end_to_end() {
    use msc::exec::verify::verify_against_reference;
    for b in all_benchmarks() {
        let grid = b.test_grid();
        let plan = tiled_plan(b.ndim, &grid, 4);

        let p64 = b.program(&grid, DType::F64, 5).unwrap();
        let e64 =
            verify_against_reference::<f64>(&p64, &Executor::Tiled(plan.clone()), 11).unwrap();
        assert!(e64 < 1e-10, "{}: {e64}", b.name);

        let p32 = b.program(&grid, DType::F32, 5).unwrap();
        let e32 = verify_against_reference::<f32>(&p32, &Executor::Tiled(plan), 11).unwrap();
        assert!(e32 < 1e-5, "{}: {e32}", b.name);
    }
}

#[test]
fn simulator_and_functional_executor_agree_on_dma_traffic() {
    // The timing simulator's SPM traffic model must match what the
    // functional SPM executor actually moves.
    use msc::core::analysis::StencilStats;
    use msc::machine::presets::sunway_cg;

    let b = &all_benchmarks()[4]; // 3d7pt_star
    let grid = vec![32usize, 32, 32];
    let program = b.program(&grid, DType::F64, 1).unwrap();
    let init: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, 3);

    let mut sched = Schedule::default();
    sched
        .tile(&[8, 8, 16])
        .parallel("xo", 4)
        .cache_read("B", "br", msc::core::schedule::BufferScope::Global)
        .cache_write("bw", msc::core::schedule::BufferScope::Global)
        .compute_at("br", "zo")
        .compute_at("bw", "zo");
    let plan = ExecPlan::lower(&sched, 3, &grid).unwrap();

    let (_, stats) = run_program(
        &program,
        &Executor::Spm {
            plan: plan.clone(),
            spm_capacity: 1 << 20,
        },
        &init,
    )
    .unwrap();

    let stencil_stats = StencilStats::of(&program.stencil, DType::F64).unwrap();
    let rep = simulate_step(
        &StepInputs {
            stats: stencil_stats,
            reach: program.stencil.reach(),
            plan: &plan,
            prec: Precision::Fp64,
        },
        &sunway_cg(),
    );
    let measured = (stats.dma_get_bytes + stats.dma_put_bytes) as f64;
    let rel = (rep.dram_bytes - measured).abs() / measured;
    assert!(
        rel < 1e-9,
        "simulator {} vs executor {} bytes (rel {rel})",
        rep.dram_bytes,
        measured
    );
}
