//! Integration tests of the extension features: temporal tiling,
//! periodic boundaries, pluggable halo backends, variable-coefficient
//! stencils, convergence driving, and the textual DSL — all composed
//! through the public facade.

use msc::core::schedule::{ExecPlan, Schedule};
use msc::prelude::*;
use proptest::prelude::*;

fn single_dep_program(ndim: usize, grid: &[usize], radius: usize, steps: usize) -> StencilProgram {
    let kernel = Kernel::star_normalized("k", ndim, radius);
    let mut b = StencilProgram::builder("ext")
        .kernel(kernel)
        .combine(&[(1, 1.0, "k")])
        .timesteps(steps);
    b = match ndim {
        2 => b.grid_2d("B", DType::F64, [grid[0], grid[1]], radius, 2),
        _ => b.grid_3d("B", DType::F64, [grid[0], grid[1], grid[2]], radius, 2),
    };
    b.build().unwrap()
}

fn plan_for(ndim: usize, grid: &[usize], tile: &[usize], threads: usize) -> ExecPlan {
    let mut s = Schedule::default();
    s.tile(tile);
    s.parallel("xo", threads);
    ExecPlan::lower(&s, ndim, grid).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Temporal tiling of any depth is bit-identical to step-by-step
    /// execution for arbitrary shapes and tile splits.
    #[test]
    fn temporal_tiling_equivalence(
        radius in 1usize..=2,
        steps in 1usize..=9,
        tt in 1usize..=5,
        tile_div in 2usize..=4,
        seed in 0u64..500,
    ) {
        let n = 8 * radius + 10;
        let grid = vec![n, n];
        let p = single_dep_program(2, &grid, radius, steps);
        let init: Grid<f64> = Grid::random(&grid, &p.grid.halo, seed);
        let (reference, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = plan_for(2, &grid, &[n / tile_div, n / 2], 3);
        let (out, stats) =
            msc::exec::run_temporal_tiled(&p, &plan, tt, &init).unwrap();
        prop_assert_eq!(reference.as_slice(), out.as_slice());
        prop_assert_eq!(stats.steps, steps);
        prop_assert!(stats.redundancy >= 1.0 - 1e-12);
    }

    /// Periodic runs keep the interior mean exactly invariant for
    /// averaging stencils (discrete conservation on the torus).
    #[test]
    fn periodic_conservation(
        radius in 1usize..=2,
        steps in 1usize..=6,
        seed in 0u64..500,
    ) {
        let n = 6 * radius + 8;
        let p = single_dep_program(2, &[n, n], radius, steps);
        let init: Grid<f64> = Grid::random(&[n, n], &p.grid.halo, seed);
        let mut seeded = init.clone();
        msc::exec::boundary::apply(&mut seeded, Boundary::Periodic);
        let before = seeded.interior_sum();
        let (out, _) = run_program_tier(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Periodic,
            ExecTier::Auto,
        )
        .unwrap();
        let after = out.interior_sum();
        prop_assert!((before - after).abs() / before.abs().max(1.0) < 1e-10);
    }

    /// Variable-coefficient sweeps with constant coefficient grids agree
    /// with the fixed-coefficient path.
    #[test]
    fn varcoeff_reduces_to_const(
        kval in 0.01f64..0.24,
        seed in 0u64..500,
    ) {
        use msc::exec::CompiledVarStencil;
        let n = 14usize;
        let expr = Expr::at("B", &[0, 0])
            + Expr::at("K", &[0, 0])
                * (Expr::at("B", &[-1, 0]) + Expr::at("B", &[1, 0])
                    + Expr::at("B", &[0, -1]) + Expr::at("B", &[0, 1])
                    - 4.0 * Expr::at("B", &[0, 0]));
        let u: Grid<f64> = Grid::random(&[n, n], &[1, 1], seed);
        let k: Grid<f64> = Grid::from_fn(&[n, n], &[1, 1], |_| kval);
        let var = CompiledVarStencil::<f64>::compile(&expr, "B", &u.layout()).unwrap();
        let mut got = u.clone();
        var.step_reference(&u, &[&k], &mut got);

        // The same stencil with the constant baked in.
        let const_expr = Expr::c(1.0 - 4.0 * kval) * Expr::at("B", &[0, 0])
            + kval * Expr::at("B", &[-1, 0])
            + kval * Expr::at("B", &[1, 0])
            + kval * Expr::at("B", &[0, -1])
            + kval * Expr::at("B", &[0, 1]);
        let cvar = CompiledVarStencil::<f64>::compile(&const_expr, "B", &u.layout()).unwrap();
        let mut want = u.clone();
        cvar.step_reference(&u, &[], &mut want);
        prop_assert!(msc::prelude::max_rel_error(&got, &want) < 1e-13);
    }
}

#[test]
fn dsl_roundtrip_executes_like_builder() {
    // The same stencil through the textual DSL and the builder API must
    // produce bitwise-identical runs.
    let src = r#"
        stencil roundtrip {
            grid B: f64[20, 20] halo 1 window 3;
            kernel S = 0.5*B[0,0] + 0.125*B[-1,0] + 0.125*B[1,0]
                     + 0.125*B[0,-1] + 0.125*B[0,1];
            combine r[t] = 0.6*S[t-1] + 0.4*S[t-2];
            run 5;
        }
    "#;
    let parsed = msc::core::parse::parse(src).unwrap().program;
    let built = StencilProgram::builder("roundtrip")
        .grid_2d("B", DType::F64, [20, 20], 1, 3)
        .kernel(Kernel::star_normalized("S", 2, 1))
        .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
        .timesteps(5)
        .build()
        .unwrap();
    let init: Grid<f64> = Grid::random(&[20, 20], &[1, 1], 33);
    let (a, _) = run_program(&parsed, &Executor::Reference, &init).unwrap();
    let (b, _) = run_program(&built, &Executor::Reference, &init).unwrap();
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn streamed_schedule_round_trips_through_dsl_and_simulator() {
    let src = r#"
        stencil streamed {
            grid B: f64[256, 256] halo 1 window 2;
            kernel S = 0.5*B[0,0] + 0.125*B[-1,0] + 0.125*B[1,0]
                     + 0.125*B[0,-1] + 0.125*B[0,1];
            schedule { tile 16 64; reorder xo yo xi yi; parallel xo 64; spm yo; stream; tile_time 2; }
            run 4;
            target sunway;
        }
    "#;
    let parsed = msc::core::parse::parse(src).unwrap();
    let sched = &parsed.program.stencil.kernels[0].schedule;
    assert!(sched.double_buffer);
    assert_eq!(sched.time_tile, 2);
    let plan = ExecPlan::lower(sched, 2, &parsed.program.grid.shape).unwrap();
    assert!(plan.double_buffer);
    assert_eq!(plan.time_tile, 2);
}

#[test]
fn convergence_and_temporal_tiling_compose() {
    // A diffusion program run to convergence by plain stepping matches
    // the temporally tiled result at the same step count.
    let p = single_dep_program(2, &[22, 22], 1, 40);
    let init: Grid<f64> = Grid::random(&[22, 22], &[1, 1], 2);
    let (plain, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let plan = plan_for(2, &[22, 22], &[11, 11], 2);
    let (tiled, stats) = msc::exec::run_temporal_tiled(&p, &plan, 5, &init).unwrap();
    assert_eq!(plain.as_slice(), tiled.as_slice());
    assert_eq!(stats.blocks, 8);
}
