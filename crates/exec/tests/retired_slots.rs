//! The retired slots (DESIGN.md §17.4): a run's cold window slots are the
//! grids the last run to end in this process left behind, whatever their
//! size and whichever thread ran it. Observed only through what a run
//! shows: the addresses of the grids [`TimeLoop::slots`] holds and of the
//! state a run hands out, and the tracer's `fresh_slots`.
//!
//! The set is process-wide, so this file is a test binary of its own and
//! every test in it holds [`SET`].

use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{Boundary, ExecTier, Executor, Grid, RingLayout, Scalar, TimeLoop};
use msc_trace::{Counter, TelemetryHub};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SET: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SET.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Two layouts of a few kilobytes, halo 1.
const SHAPE: [usize; 3] = [6, 8, 10];
const LONGER: [usize; 3] = [6, 8, 12];

/// `0.6*K[t-1] + 0.4*K[t-2]`, one kernel at two distances: the window
/// keeps the kernel's images (§12.6); or `0.6*K[t-1] + 0.4*L[t-2]`, two
/// kernels: it keeps states. Window 3 either way.
fn program(dtype: DType, shape: [usize; 3], layout: RingLayout, steps: usize) -> StencilProgram {
    let built = StencilProgram::builder("retired")
        .grid_3d("B", dtype, shape, 1, 3)
        .kernel(Kernel::star_normalized("K", 3, 1));
    let built = match layout {
        RingLayout::Images => built.combine(&[(1, 0.6, "K"), (2, 0.4, "K")]),
        RingLayout::States => built
            .kernel(Kernel::boxed("L", 3, 1, 0.5).unwrap())
            .combine(&[(1, 0.6, "K"), (2, 0.4, "L")]),
    };
    let mut p = built.timesteps(1).build().unwrap();
    // `build()` refuses a zero-step program; the driver takes one.
    p.timesteps = steps;
    p
}

fn halved(p: &StencilProgram) -> Executor {
    let mut s = Schedule::default();
    let tile: Vec<usize> = p.grid.shape.iter().map(|&n| (n / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    Executor::Tiled(ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap())
}

/// Where a grid's buffer lives.
fn at<T: Scalar>(grid: &Grid<T>) -> usize {
    grid.as_slice().as_ptr().addr()
}

fn sorted(mut addresses: Vec<usize>) -> Vec<usize> {
    addresses.sort_unstable();
    addresses
}

/// What a run showed: its layout, the addresses of its window's grids
/// after the last step, and the state it handed out.
struct Ran<T> {
    layout: RingLayout,
    held: Vec<usize>,
    state: Grid<T>,
}

/// `p` stepped to its end under Dirichlet from the grid seeded `seed`.
fn run<T: Scalar>(p: &StencilProgram, seed: u64) -> Ran<T> {
    let init = Grid::random(&p.grid.shape, &p.grid.halo, seed);
    let exec = halved(p);
    let mut run = TimeLoop::admit(
        p,
        &exec,
        Cow::Borrowed(&init),
        Boundary::Dirichlet,
        ExecTier::Auto,
    )
    .unwrap();
    for _ in 0..p.timesteps {
        run.step().unwrap();
    }
    let held = run.slots().iter().map(|grid| at(*grid)).collect();
    Ran {
        layout: run.layout(),
        held,
        state: run.into_state(),
    }
}

/// What `f` returns, and how many window slots the runs it ended on
/// this thread allocated.
fn counting_fresh<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let hub = TelemetryHub::new();
    hub.set_enabled(true);
    let got = {
        let _on = msc_trace::install_thread_hub(Arc::clone(&hub));
        f()
    };
    (got, hub.snapshot().get(Counter::FreshSlots))
}

fn fresh<T: Scalar>(p: &StencilProgram, seed: u64) -> u64 {
    counting_fresh(|| run::<T>(p, seed)).1
}

fn bits(g: &Grid<f64>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The bits of the halo cells alone, in storage order.
fn halo_bits(g: &Grid<f64>) -> Vec<u64> {
    let mut interior = vec![false; g.as_slice().len()];
    g.for_each_interior(|pos| interior[g.index(pos)] = true);
    let halo = g
        .as_slice()
        .iter()
        .zip(interior)
        .filter(|(_, inside)| !inside);
    halo.map(|(v, _)| v.to_bits()).collect()
}

#[test]
fn a_reused_slot_leaves_no_trace() {
    let _set = serial();
    // A ring of program A's layout ends holding, in every cell of every
    // slot, halo included, a NaN payload no step computes; program B,
    // recomputing or reusing images, runs from a seed with other halo
    // values and takes all three.
    let a = program(DType::F64, SHAPE, RingLayout::States, 3);
    let exec = halved(&a);
    let s1: Grid<f64> = Grid::random(&SHAPE, &a.grid.halo, 1);
    let s2: Grid<f64> = Grid::random(&SHAPE, &a.grid.halo, 2);
    assert!(halo_bits(&s1) != halo_bits(&s2));
    let poison = f64::from_bits(0x7ff8_dead_beef_0001);
    for layout in [RingLayout::States, RingLayout::Images] {
        let b = program(DType::F64, SHAPE, layout, 3);
        for bc in [Boundary::Dirichlet, Boundary::Periodic] {
            let admit = || TimeLoop::admit(&b, &exec, Cow::Borrowed(&s2), bc, ExecTier::Auto);
            let expect = admit().unwrap().run(b.timesteps).unwrap().0;
            let poisoned: Vec<Grid<f64>> = (0..3)
                .map(|_| {
                    let mut grid = Grid::zeros(&SHAPE, &a.grid.halo);
                    grid.as_mut_slice().fill(poison);
                    grid
                })
                .collect();
            let stale: Vec<usize> = poisoned.iter().map(at).collect();
            let mut ring_a = TimeLoop::admit(
                &a,
                &exec,
                Cow::Borrowed(&s1),
                Boundary::Dirichlet,
                ExecTier::Auto,
            )
            .unwrap();
            ring_a.restore(poisoned, 3).unwrap();
            drop(ring_a.into_state());

            let mut run_b = admit().unwrap();
            assert_eq!(run_b.layout(), layout);
            for _ in 0..b.timesteps {
                run_b.step().unwrap();
            }
            let held: Vec<usize> = run_b.slots().iter().map(|grid| at(*grid)).collect();
            assert_eq!(
                sorted(held),
                sorted(stale),
                "{layout:?}, {bc:?}: all three were reused"
            );
            let got = run_b.into_state();
            assert!(bits(&got) == bits(&expect), "{layout:?}, {bc:?}");
            if bc == Boundary::Dirichlet {
                assert!(halo_bits(&got) == halo_bits(&s2), "{layout:?}");
            }
        }
    }
}

fn a_second_run_takes_every_slot_from_the_first<T: Scalar>(dtype: DType) {
    for layout in [RingLayout::States, RingLayout::Images] {
        let p = program(dtype, SHAPE, layout, 3);
        let first = run::<T>(&p, 1);
        assert_eq!(first.layout, layout);
        assert!(first.held.contains(&at(&first.state)));
        drop(first.state);
        let (second, fresh) = counting_fresh(|| run::<T>(&p, 2));
        assert_eq!(
            sorted(second.held),
            sorted(first.held),
            "{dtype:?} {layout:?}"
        );
        assert_eq!(fresh, 0, "{dtype:?} {layout:?}");
    }
}

#[test]
fn a_second_run_of_a_small_layout_takes_every_slot_from_the_first() {
    let _set = serial();
    a_second_run_takes_every_slot_from_the_first::<f32>(DType::F32);
    a_second_run_takes_every_slot_from_the_first::<f64>(DType::F64);
}

#[test]
fn a_state_dropped_on_another_thread_rejoins_the_set() {
    let _set = serial();
    let p = program(DType::F64, SHAPE, RingLayout::States, 3);
    let first = run::<f64>(&p, 1);
    let handed = at(&first.state);
    std::thread::spawn(move || drop(first.state))
        .join()
        .unwrap();
    let (second, fresh) = counting_fresh(|| run::<f64>(&p, 2));
    assert!(second.held.contains(&handed), "the state came back");
    assert_eq!(fresh, 0);
}

#[test]
fn a_ring_of_another_layout_on_another_thread_frees_the_set() {
    let _set = serial();
    let l1 = program(DType::F64, SHAPE, RingLayout::States, 3);
    drop(run::<f64>(&l1, 1));
    // A rank's loop: stepped on a thread of its own, never ended.
    std::thread::spawn(|| {
        let l2 = program(DType::F64, LONGER, RingLayout::States, 3);
        let init: Grid<f64> = Grid::random(&LONGER, &l2.grid.halo, 2);
        let exec = halved(&l2);
        let admitted = TimeLoop::admit(
            &l2,
            &exec,
            Cow::Borrowed(&init),
            Boundary::Dirichlet,
            ExecTier::Auto,
        );
        admitted.unwrap().step().unwrap();
    })
    .join()
    .unwrap();
    assert_eq!(fresh::<f64>(&l1, 3), 3, "L1's slots were freed");
}

#[test]
fn the_set_holds_the_last_rings_slots_of_its_layout_and_type() {
    let _set = serial();
    let l1 = program(DType::F64, SHAPE, RingLayout::States, 3);
    let l2 = program(DType::F64, LONGER, RingLayout::States, 3);
    // L1 then L2: L2's alone remain.
    drop(run::<f64>(&l1, 1));
    drop(run::<f64>(&l2, 2));
    assert_eq!(fresh::<f64>(&l2, 3), 0);
    assert_eq!(fresh::<f64>(&l1, 4), 3);
    // A ring that ends replaces the set: a 0-step run retires nothing.
    drop(run::<f64>(
        &program(DType::F64, SHAPE, RingLayout::States, 0),
        5,
    ));
    assert_eq!(fresh::<f64>(&l1, 6), 3);
    // One shape in both scalar types: each finds the other's slots.
    let f32s = program(DType::F32, SHAPE, RingLayout::States, 3);
    assert_eq!(fresh::<f32>(&f32s, 7), 3);
    assert_eq!(fresh::<f64>(&l1, 8), 3);
    assert_eq!(fresh::<f32>(&f32s, 9), 3);
    assert_eq!(fresh::<f32>(&f32s, 10), 0);
}

#[test]
fn the_set_never_holds_more_than_one_window() {
    let _set = serial();
    let p = program(DType::F64, SHAPE, RingLayout::States, 3);
    let runs: Vec<Ran<f64>> = (0..3).map(|seed| run(&p, seed)).collect();
    // The last ring retired two slots; the first state dropped fills the
    // window and the two after it are freed.
    let last = &runs[2];
    let mut expect: Vec<usize> = last
        .held
        .iter()
        .copied()
        .filter(|&a| a != at(&last.state))
        .collect();
    expect.push(at(&runs[0].state));
    drop(runs);
    let (next, fresh) = counting_fresh(|| run::<f64>(&p, 3));
    assert_eq!(fresh, 0);
    assert_eq!(sorted(next.held), sorted(expect));
}

#[test]
fn a_dropped_state_of_another_layout_or_type_is_freed() {
    let _set = serial();
    let l1 = program(DType::F64, SHAPE, RingLayout::States, 3);
    let l2 = program(DType::F64, LONGER, RingLayout::States, 3);
    let kept = run::<f64>(&l1, 1).state;
    let l2_state = run::<f64>(&l2, 2).state;
    drop(kept);
    assert_eq!(fresh::<f64>(&l2, 3), 1, "another layout");
    drop(l2_state);
    let f32s = program(DType::F32, SHAPE, RingLayout::States, 3);
    let kept = run::<f64>(&l1, 4).state;
    let f32_state = run::<f32>(&f32s, 5).state;
    drop(kept);
    assert_eq!(fresh::<f32>(&f32s, 6), 1, "another type");
    drop(f32_state);
}

#[test]
fn a_state_dropped_while_its_thread_is_torn_down_comes_back() {
    thread_local! {
        static KEPT: RefCell<Option<Grid<f64>>> = RefCell::default();
    }
    let _set = serial();
    let p = program(DType::F64, SHAPE, RingLayout::States, 3);
    std::thread::scope(|s| s.spawn(|| KEPT.set(Some(run(&p, 1).state))).join().unwrap());
    assert_eq!(fresh::<f64>(&p, 2), 0);
}
