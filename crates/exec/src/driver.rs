//! Multi-timestep driver: owns the sliding-time-window ring of state
//! buffers (paper Figure 5) and dispatches each step to the selected
//! executor.

use crate::boundary::{self, Boundary};
use crate::grid::{Grid, Scalar};
use crate::tier::{ExecTier, TieredStencil};
use crate::{reference, spm, tiled};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::{ExecPlan, TileRange};
use msc_core::schedule::WindowPlan;
use msc_trace::{Counter, CounterSet, Profile};
use std::borrow::Cow;

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

impl Executor {
    /// The tiles of one whole step (none for the serial reference).
    pub fn tiles(&self) -> Vec<TileRange> {
        match self {
            Executor::Reference => Vec::new(),
            Executor::Tiled(plan) | Executor::Spm { plan, .. } => plan.tiles(),
        }
    }

    /// Compute `tiles` of one timestep into `out` from `inputs`
    /// (`inputs[dt - 1]` is the state `dt` steps back) and return what the
    /// step counted: tiles, DMA traffic and SPM peak under `Spm`, and the
    /// rows the stencil's tier evaluated. The same numbers go to the
    /// tracer. `tiles` must be distinct cells of the plan's tiling — all of
    /// [`Executor::tiles`], or a part of them when a caller interleaves
    /// the step with something else — and the plan must have been lowered
    /// for `out`'s shape; the serial reference ignores `tiles` and
    /// computes the whole interior on the interpreter.
    pub fn step<T: Scalar>(
        &self,
        compiled: &TieredStencil<T>,
        inputs: &[&Grid<T>],
        out: &mut Grid<T>,
        tiles: &[TileRange],
    ) -> Result<CounterSet> {
        let mut counters = CounterSet::new();
        match self {
            Executor::Reference => {
                reference::step(compiled, inputs, out);
                counters.set(Counter::TilesExecuted, 1);
            }
            Executor::Tiled(plan) => {
                let _span = msc_trace::span("tiled_step");
                tiled::step_tiles(compiled, plan, inputs, out, tiles)?;
                counters.set(Counter::TilesExecuted, tiles.len() as u64);
            }
            Executor::Spm { plan, spm_capacity } => {
                let _span = msc_trace::span("spm_step");
                counters = spm::step_tiles(compiled, plan, inputs, out, *spm_capacity, tiles)?;
            }
        }
        let (vm_dispatches, specialized_rows) = compiled.take_tier_counters();
        counters.set(Counter::VmDispatches, vm_dispatches);
        counters.set(Counter::SpecializedHits, specialized_rows);
        msc_trace::record_set(&counters);
        Ok(counters)
    }
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

/// The sliding time window of paper Figure 5: `window = max_dt + 1` state
/// slots, recycled round-robin. Every slot is cold-started from the same
/// seed — `init` after `boundary_cond` was applied — so the slots *share*
/// it until they are first written: under Dirichlet the seed is the
/// caller's `init`, borrowed (the boundary is a no-op there); under
/// Periodic it is the one wrapped copy.
pub(crate) struct Ring<'a, T: Scalar> {
    seed: Cow<'a, Grid<T>>,
    /// `None`: never written, still reads as the seed.
    slots: Vec<Option<Grid<T>>>,
}

impl<'a, T: Scalar> Ring<'a, T> {
    pub(crate) fn new(init: &'a Grid<T>, boundary_cond: Boundary, window: usize) -> Self {
        let seed = match boundary_cond {
            Boundary::Dirichlet => Cow::Borrowed(init),
            Boundary::Periodic => {
                let mut wrapped = init.clone();
                boundary::apply(&mut wrapped, boundary_cond);
                Cow::Owned(wrapped)
            }
        };
        Ring {
            seed,
            slots: vec![None; window],
        }
    }

    /// The state held in `slot`.
    pub(crate) fn input(&self, slot: usize) -> &Grid<T> {
        self.slots[slot].as_ref().unwrap_or(&self.seed)
    }

    /// Take `slot`'s grid out to be overwritten by a step; [`Ring::put`]
    /// brings the result back. A slot never written before yields a
    /// zero-backed grid carrying only the seed's halo shell: every executor
    /// overwrites the whole interior, and Dirichlet halos must keep their
    /// initial values. Under Periodic the re-wrap after the step overwrites
    /// the shell again; copying it there too (two cells per row) is the
    /// price of one path.
    pub(crate) fn take_output(&mut self, slot: usize) -> Grid<T> {
        self.slots[slot]
            .take()
            .unwrap_or_else(|| self.seed.halo_shell())
    }

    pub(crate) fn put(&mut self, slot: usize, grid: Grid<T>) {
        self.slots[slot] = Some(grid);
    }

    /// Move the state of `slot` out (a copy of the seed if no step ever
    /// wrote it).
    pub(crate) fn into_state(mut self, slot: usize) -> Grid<T> {
        match self.slots[slot].take() {
            Some(grid) => grid,
            None => self.seed.into_owned(),
        }
    }
}

/// [`run_program_tier`] with Dirichlet boundaries (halos keep their
/// initial values) on [`ExecTier::Auto`].
pub fn run_program<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
) -> Result<(Grid<T>, RunStats)> {
    run_program_tier(program, executor, init, Boundary::Dirichlet, ExecTier::Auto)
}

/// The front door of every stencil-program run: the lint gate
/// (target-independent passes — an unchecked-built program with an
/// insufficient halo or window must reach neither the time loop nor the
/// bytecode compiler), then compilation on `tier` against `init`'s layout
/// and the window the stencil's deepest dependency needs.
pub(crate) fn admit<T: Scalar>(
    program: &StencilProgram,
    init: &Grid<T>,
    tier: ExecTier,
) -> Result<(TieredStencil<T>, WindowPlan)> {
    msc_lint::check_deny(program, None)?;
    let compiled = TieredStencil::compile(program, init, tier)?;
    let window = WindowPlan::for_max_dt(compiled.max_dt)?;
    Ok((compiled, window))
}

/// Run `program.timesteps` updates starting from `init` (all window slots
/// cold-started with `init`) and return the final state and run
/// statistics. Periodic runs re-wrap the halo of every freshly computed
/// state. `tier` is honoured by every executor but `Reference`, which
/// always interprets (it is the oracle the tiers are differenced against).
pub fn run_program_tier<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
    boundary_cond: Boundary,
    tier: ExecTier,
) -> Result<(Grid<T>, RunStats)> {
    let (compiled, window) = admit(program, init, tier)?;
    let mut counters = CounterSet::new();
    // Compile time goes to the global tracer only: `RunStats` must stay
    // bit-identical between repeated runs, and wall-clock isn't.
    msc_trace::record(Counter::VmCompileNanos, compiled.compile_nanos);
    let mut ring = Ring::new(init, boundary_cond, window.window);
    let tiles = executor.tiles();
    let points: u64 = program.grid.shape.iter().product::<usize>() as u64;

    for s in 0..program.timesteps {
        let _step_span = msc_trace::span_arg("step", s as u64);
        let step_t0 = std::time::Instant::now();
        let t = compiled.max_dt + s;
        let out_slot = window.output_slot(t);

        // The output slot's grid leaves the ring while the step writes it,
        // so the input slots can stay borrowed.
        let mut out = ring.take_output(out_slot);
        {
            let inputs: Vec<&Grid<T>> = (1..=compiled.max_dt)
                .map(|dt| ring.input(window.input_slot(t, dt).expect("window sized by max_dt")))
                .collect();
            counters.merge(&executor.step(&compiled, &inputs, &mut out, &tiles)?);
        }
        boundary::apply(&mut out, boundary_cond);
        ring.put(out_slot, out);
        counters.bump(Counter::Steps, 1);
        msc_trace::record(Counter::Steps, 1);
        counters.bump(Counter::ComputedPoints, points);
        msc_trace::record(Counter::ComputedPoints, points);
        msc_trace::record_hist(
            msc_trace::Hist::StepWallNanos,
            step_t0.elapsed().as_nanos() as u64,
        );
    }

    let last = window.output_slot(compiled.max_dt + program.timesteps - 1);
    Ok((ring.into_state(last), RunStats::from_counters(&counters)))
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

    /// The ring as it was before its slots shared the seed: every slot
    /// its own copy of the wrapped `init`, each step a clone of the
    /// recycled slot overwritten by the serial reference.
    fn eager_ring_oracle(p: &StencilProgram, init: &Grid<f64>, bc: Boundary) -> Grid<f64> {
        let c = TieredStencil::compile(p, init, ExecTier::Interp).unwrap();
        let w = c.max_dt + 1;
        let mut seeded = init.clone();
        boundary::apply(&mut seeded, bc);
        let mut ring = vec![seeded; w];
        for s in 0..p.timesteps {
            let t = c.max_dt + s;
            let mut out = ring[t % w].clone();
            let inputs: Vec<&Grid<f64>> = (1..=c.max_dt).map(|dt| &ring[(t - dt) % w]).collect();
            reference::step(&c, &inputs, &mut out);
            boundary::apply(&mut out, bc);
            ring[t % w] = out;
        }
        ring.swap_remove((c.max_dt + p.timesteps - 1) % w)
    }

    fn bits(g: &Grid<f64>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The halo cells alone (`halo_shell` has its own test in `grid.rs`).
    fn halo_bits(g: &Grid<f64>) -> Vec<u64> {
        bits(&g.halo_shell())
    }

    /// One temporal dependency (2d9pt box at `t-1`) and two (3d7pt at
    /// `t-1`, `t-2`).
    fn programs_by_max_dt() -> [StencilProgram; 2] {
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let single = StencilProgram::builder("single")
            .grid_2d("B", DType::F64, [12, 10], 1, 2)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(1)
            .build()
            .unwrap();
        let double = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[8, 6, 10], DType::F64, 1)
            .unwrap();
        [single, double]
    }

    #[test]
    fn shared_seed_ring_matches_the_eager_ring_bit_for_bit() {
        for (max_dt, mut p) in (1..).zip(programs_by_max_dt()) {
            let window = max_dt + 1;
            let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 40 + max_dt as u64);
            let before = init.clone();
            let tile: Vec<usize> = p.grid.shape.iter().map(|&n| n / 2).collect();
            let plan = tiled_plan(&p, &tile, 2);
            let executors = [
                Executor::Reference,
                Executor::Tiled(plan.clone()),
                Executor::Spm {
                    plan,
                    spm_capacity: 1 << 20,
                },
            ];
            for steps in [0, 1, 2, 3, window + 2] {
                // `build()` refuses a zero-step program; the driver must
                // still hand back the seed for one.
                p.timesteps = steps;
                for bc in [Boundary::Dirichlet, Boundary::Periodic] {
                    let expect = eager_ring_oracle(&p, &init, bc);
                    for exec in &executors {
                        let (got, st) =
                            run_program_tier(&p, exec, &init, bc, ExecTier::Auto).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "max_dt {max_dt}, {steps} steps, {bc:?}, {exec:?}"
                        );
                        assert_eq!(st.steps, steps);
                        if bc == Boundary::Dirichlet {
                            // Also when fewer steps ran than the window has
                            // slots, so the result is a slot that began as
                            // a zero-backed shell.
                            assert_eq!(halo_bits(&got), halo_bits(&init));
                        }
                    }
                }
            }
            assert_eq!(bits(&init), bits(&before), "a run must not touch `init`");
        }
    }

    #[test]
    fn ring_slots_borrow_the_seed_until_written() {
        let init: Grid<f64> = Grid::random(&[6, 6], &[1, 1], 5);
        let mut ring = Ring::new(&init, Boundary::Dirichlet, 3);
        // Dirichlet: no copy at all, every cold slot *is* the caller's grid.
        assert!((0..3).all(|s| std::ptr::eq(ring.input(s), &init)));
        let mut out = ring.take_output(1);
        assert_eq!(halo_bits(&out), halo_bits(&init));
        out.for_each_interior(|pos| assert_eq!(out.get(pos), 0.0));
        out.set(&[0, 0], 7.0);
        ring.put(1, out);
        assert_eq!(ring.input(1).get(&[0, 0]), 7.0);
        assert!(std::ptr::eq(ring.input(0), &init));
        // A written slot is recycled as it is, not re-seeded.
        assert_eq!(ring.take_output(1).get(&[0, 0]), 7.0);

        // Periodic: one wrapped copy, shared by every cold slot.
        let ring = Ring::new(&init, Boundary::Periodic, 2);
        let mut wrapped = init.clone();
        boundary::apply(&mut wrapped, Boundary::Periodic);
        assert!(std::ptr::eq(ring.input(0), ring.input(1)));
        assert_eq!(bits(ring.input(0)), bits(&wrapped));
        assert_eq!(bits(&ring.into_state(1)), bits(&wrapped));
    }

    #[test]
    fn a_plan_lowered_for_another_grid_is_refused() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[16, 16], DType::F64, 2)
            .unwrap();
        let plan = tiled_plan(&p, &[8, 8], 2);
        let init: Grid<f64> = Grid::random(&[20, 16], &p.grid.halo, 1);
        for exec in [
            Executor::Tiled(plan.clone()),
            Executor::Spm {
                plan,
                spm_capacity: 1 << 20,
            },
        ] {
            let err = run_program(&p, &exec, &init).unwrap_err();
            assert!(err.to_string().contains("lowered for grid"), "{err}");
        }
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
