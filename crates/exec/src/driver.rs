//! Multi-timestep driver: owns the sliding-time-window ring of state
//! buffers (paper Figure 5) and dispatches each step to the selected
//! executor.

use crate::boundary::{self, Boundary};
use crate::grid::{Grid, Scalar};
use crate::tier::{exec_tier, ExecTier, TieredStencil};
use crate::{reference, spm, tiled};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::WindowPlan;
use msc_trace::{Counter, CounterSet, Profile};

/// Which execution strategy to use for each timestep.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Naive serial loop nest.
    Reference,
    /// Tiled, multi-threaded, cache-based execution (Matrix/CPU style).
    Tiled(ExecPlan),
    /// Tiled execution staged through a bounded scratchpad with DMA
    /// (Sunway style). The capacity is the per-core SPM size.
    Spm { plan: ExecPlan, spm_capacity: usize },
}

/// Aggregate statistics of a run.
///
/// A thin view over the trace counter vocabulary: the driver accumulates
/// a [`CounterSet`] while stepping (the executors publish the same
/// numbers to the global tracer when tracing is enabled) and this struct
/// is projected out of it at the end via [`RunStats::from_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    pub steps: usize,
    pub tiles_executed: u64,
    pub dma_get_bytes: u64,
    pub dma_put_bytes: u64,
    pub dma_rows: u64,
    pub spm_peak_bytes: usize,
    /// The full counter set the headline fields were projected from
    /// (also carries counters without a dedicated field, e.g. computed
    /// points).
    pub counters: CounterSet,
}

impl RunStats {
    /// Project the run-level fields out of a counter set.
    pub fn from_counters(c: &CounterSet) -> RunStats {
        RunStats {
            steps: c.get(Counter::Steps) as usize,
            tiles_executed: c.get(Counter::TilesExecuted),
            dma_get_bytes: c.get(Counter::DmaGetBytes),
            dma_put_bytes: c.get(Counter::DmaPutBytes),
            dma_rows: c.get(Counter::DmaRows),
            spm_peak_bytes: c.get(Counter::SpmPeakBytes) as usize,
            counters: *c,
        }
    }

    pub fn computed_points(&self) -> u64 {
        self.counters.get(Counter::ComputedPoints)
    }

    /// Chunk dispatches the VM tier performed (0 on other tiers).
    pub fn vm_dispatches(&self) -> u64 {
        self.counters.get(Counter::VmDispatches)
    }

    /// Rows the specialized tier executed (0 on other tiers).
    pub fn specialized_hits(&self) -> u64 {
        self.counters.get(Counter::SpecializedHits)
    }

    /// Wrap into a counters-only [`Profile`] for reporting.
    pub fn profile(&self, label: impl Into<String>) -> Profile {
        Profile::from_counters(label, self.counters)
    }
}

/// The time-window ring with every slot cold-started from `init` after
/// `boundary_cond` was applied to it: one copy of the grid per slot, the
/// seeded copy itself being the last.
pub(crate) fn seeded_ring<T: Scalar>(
    init: &Grid<T>,
    boundary_cond: Boundary,
    window: usize,
) -> Vec<Grid<T>> {
    let mut seeded = init.clone();
    boundary::apply(&mut seeded, boundary_cond);
    let mut ring: Vec<Grid<T>> = (1..window).map(|_| seeded.clone()).collect();
    ring.push(seeded);
    ring
}

/// Run `program.timesteps` updates starting from `init` (all window slots
/// cold-started with `init`), with Dirichlet boundaries (halos keep their
/// initial values). Returns the final state and run statistics.
pub fn run_program<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
) -> Result<(Grid<T>, RunStats)> {
    run_program_bc(program, executor, init, Boundary::Dirichlet)
}

/// Like [`run_program`] with an explicit boundary condition: periodic
/// runs re-wrap the halo of every freshly computed state. Runs on the
/// process-wide default execution tier ([`set_exec_tier`]).
///
/// [`set_exec_tier`]: crate::tier::set_exec_tier
pub fn run_program_bc<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
    boundary_cond: Boundary,
) -> Result<(Grid<T>, RunStats)> {
    run_program_tier(program, executor, init, boundary_cond, exec_tier())
}

/// Like [`run_program_bc`] with an explicit execution tier. The
/// `Reference` executor always interprets (it is the oracle the other
/// tiers are differenced against), as does the SPM executor (its tap
/// lists are relinearized against tile-local layouts).
pub fn run_program_tier<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
    boundary_cond: Boundary,
    tier: ExecTier,
) -> Result<(Grid<T>, RunStats)> {
    // Lint gate (target-independent passes): an unchecked-built program
    // with an insufficient halo or window must not reach the time loop —
    // or the bytecode compiler. Nothing below this line runs on a denied
    // program.
    msc_lint::check_deny(program, None)?;
    let tier = match executor {
        Executor::Reference | Executor::Spm { .. } => ExecTier::Interp,
        _ => tier,
    };
    let compiled = TieredStencil::compile(program, init, tier)?;
    let mut counters = CounterSet::new();
    // Compile time goes to the global tracer only: `RunStats` must stay
    // bit-identical between repeated runs, and wall-clock isn't.
    msc_trace::record(Counter::VmCompileNanos, compiled.compile_nanos);
    let window = WindowPlan::for_max_dt(compiled.max_dt)?;
    let mut ring = seeded_ring(init, boundary_cond, window.window);

    for s in 0..program.timesteps {
        let _step_span = msc_trace::span_arg("step", s as u64);
        let step_t0 = std::time::Instant::now();
        let t = compiled.max_dt + s;
        let out_slot = window.output_slot(t);

        // Split the ring so the output slot is mutable while input slots
        // stay shared.
        let mut out = std::mem::replace(&mut ring[out_slot], Grid::zeros(&[1], &[0]));
        {
            let inputs: Vec<&Grid<T>> = (1..=compiled.max_dt)
                .map(|dt| &ring[window.input_slot(t, dt).expect("window sized by max_dt")])
                .collect();
            match executor {
                Executor::Reference => {
                    reference::step(&compiled, &inputs, &mut out);
                    counters.bump(Counter::TilesExecuted, 1);
                    msc_trace::record(Counter::TilesExecuted, 1);
                }
                Executor::Tiled(plan) => {
                    let tiles = tiled::step(&compiled, plan, &inputs, &mut out) as u64;
                    counters.bump(Counter::TilesExecuted, tiles);
                }
                Executor::Spm { plan, spm_capacity } => {
                    let s = spm::step(&compiled, plan, &inputs, &mut out, *spm_capacity)?;
                    counters.merge(&s.counters());
                }
            }
        }
        boundary::apply(&mut out, boundary_cond);
        ring[out_slot] = out;
        let (vm_d, spec_rows) = compiled.take_tier_counters();
        if vm_d > 0 {
            counters.bump(Counter::VmDispatches, vm_d);
            msc_trace::record(Counter::VmDispatches, vm_d);
        }
        if spec_rows > 0 {
            counters.bump(Counter::SpecializedHits, spec_rows);
            msc_trace::record(Counter::SpecializedHits, spec_rows);
        }
        counters.bump(Counter::Steps, 1);
        msc_trace::record(Counter::Steps, 1);
        let points: u64 = program.grid.shape.iter().product::<usize>() as u64;
        counters.bump(Counter::ComputedPoints, points);
        msc_trace::record(Counter::ComputedPoints, points);
        msc_trace::record_hist(
            msc_trace::Hist::StepWallNanos,
            step_t0.elapsed().as_nanos() as u64,
        );
    }

    let last = window.output_slot(compiled.max_dt + program.timesteps - 1);
    Ok((ring.swap_remove(last), RunStats::from_counters(&counters)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_rel_error, verify_against_reference};
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::schedule::Schedule;

    fn tiled_plan(p: &StencilProgram, tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap()
    }

    #[test]
    fn multi_step_tiled_equals_reference_bitwise_fp64() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 12], DType::F64, 6)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
        let (a, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = tiled_plan(&p, &[4, 6, 12], 4);
        let (b, st) = run_program(&p, &Executor::Tiled(plan), &init).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(st.steps, 6);
    }

    #[test]
    fn spm_execution_is_bit_identical_too() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[20, 20], DType::F64, 5)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 123);
        let (a, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = tiled_plan(&p, &[5, 10], 4);
        let (b, st) = run_program(
            &p,
            &Executor::Spm {
                plan,
                spm_capacity: 1 << 20,
            },
            &init,
        )
        .unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(st.dma_get_bytes > 0);
        assert!(st.spm_peak_bytes > 0);
    }

    #[test]
    fn paper_error_bounds_hold_for_all_benchmarks() {
        // §5.1: relative error < 1e-10 (fp64) and < 1e-5 (fp32) against
        // serial codes, over a multi-step run.
        for b in all_benchmarks() {
            let grid = b.test_grid();
            let p = b.program(&grid, DType::F64, 4).unwrap();
            let tile: Vec<usize> = grid.iter().map(|&g| (g / 2).max(1)).collect();
            let plan = tiled_plan(&p, &tile, 4);
            let e64 = verify_against_reference::<f64>(&p, &Executor::Tiled(plan.clone()), 5)
                .unwrap();
            assert!(e64 < 1e-10, "{}: fp64 err {e64}", b.name);
            let e32 =
                verify_against_reference::<f32>(&p, &Executor::Tiled(plan), 5).unwrap();
            assert!(e32 < 1e-5, "{}: fp32 err {e32}", b.name);
        }
    }

    #[test]
    fn explicit_tiers_are_bit_identical_and_counted() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 12], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);
        let plan = tiled_plan(&p, &[6, 6, 12], 2);
        let exec = Executor::Tiled(plan);
        let (oracle, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let run = |tier| {
            run_program_tier(&p, &exec, &init, Boundary::Dirichlet, tier).unwrap()
        };
        let (gi, si) = run(ExecTier::Interp);
        let (gv, sv) = run(ExecTier::Vm);
        let (gs, ss) = run(ExecTier::Specialized);
        assert_eq!(gi.as_slice(), oracle.as_slice());
        assert_eq!(gv.as_slice(), oracle.as_slice());
        assert_eq!(gs.as_slice(), oracle.as_slice());
        assert_eq!(si.vm_dispatches(), 0);
        assert_eq!(si.specialized_hits(), 0);
        assert!(sv.vm_dispatches() > 0, "VM tier must count dispatches");
        assert_eq!(sv.specialized_hits(), 0);
        assert!(ss.specialized_hits() > 0, "specialized tier must count rows");
        assert_eq!(ss.vm_dispatches(), 0);
    }

    #[test]
    fn window_ring_differs_from_single_dependency() {
        // A two-dependency stencil must differ from the same kernel with a
        // single t-1 dependency after a few steps.
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p2 = b.program(&[16, 16], DType::F64, 4).unwrap();
        let p1 = StencilProgram::builder("single")
            .grid_2d("B", DType::F64, [16, 16], 1, 3)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(4)
            .build()
            .unwrap();
        let init: Grid<f64> = Grid::random(&p2.grid.shape, &p2.grid.halo, 31);
        let (a, _) = run_program(&p2, &Executor::Reference, &init).unwrap();
        let (b_, _) = run_program(&p1, &Executor::Reference, &init).unwrap();
        assert!(max_rel_error(&a, &b_) > 1e-6);
    }

    #[test]
    fn iterates_remain_bounded() {
        // Convex combination keeps values within the initial range.
        let p = benchmark(BenchmarkId::S3d13ptStar)
            .program(&[10, 10, 10], DType::F64, 20)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 8);
        let (out, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        out.for_each_interior(|pos| {
            let v = out.get(pos);
            assert!((0.0..=1.0).contains(&v), "unbounded at {pos:?}: {v}");
        });
    }
}
