//! Differential test harness for the sweep core: the full product of
//! **staging** {direct, SPM, time-block `tt` ∈ {1, 3}} × **execution
//! tier** {interpreter, bytecode VM, specialized} × the catalog (plus a
//! long-row 2d121pt, a tap count no catalog stencil has, and a program
//! whose result is a signed zero) × {f32, f64} runs for several steps on
//! random-seeded grids, and every cell must be **bit-identical**
//! (`to_bits`, so `-0.0` is not `+0.0`) to `Executor::Reference`. Direct
//! staging runs every cell under both boundary conditions and three
//! times: as the rule of DESIGN.md §12.6 decides (every grid here is
//! cache-sized, so kernel images are reused wherever the terms share a
//! kernel), forced onto the recomputing step, and by rule again the way a
//! rank steps — from a seed the loop owns, every step in two tile subsets
//! around a hook — all with equal `RunStats`; under Dirichlet, also in
//! wavefront passes of 2, 3 and 4 steps (DESIGN.md §17.5).
//!
//! The reference executor (serial interpreter) is the oracle; it shares
//! no code with the sweeps. A cell that passes proves that its staging
//! writes every point exactly once and that its tier keeps the
//! interpreter's evaluation order (order of taps, order of terms,
//! two-rounding multiply-add, the `0 + weight * acc` seed).
//!
//! A module of the crate rather than a file under `tests/`: forcing the
//! image decision is `pub(crate)`, and there is no run entry point that
//! takes it.

use crate::driver::TimeLoop;
use crate::{
    run_program, run_program_tier, temporal::run_temporal_tiled_tier, Boundary, ExecTier, Executor, Grid,
    RunStats, Scalar, TieredStencil,
};
use msc_core::catalog::{all_benchmarks, benchmark, Benchmark, BenchmarkId};
use msc_core::error::MscError;
use msc_core::prelude::*;
use msc_core::schedule::Schedule;
use msc_trace::CounterSet;
use std::borrow::Cow;

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

/// Who decides whether a direct-staged run keeps kernel images.
#[derive(Debug, Clone, Copy)]
enum Images {
    /// The rule in `TieredStencil::compile`, as in every real run.
    ByRule,
    /// Forced onto the recomputing step.
    Recomputed,
}

/// `run_program_tier`, with the image decision forced if asked.
fn run<T: Scalar>(
    p: &StencilProgram,
    exec: &Executor,
    init: &Grid<T>,
    bc: Boundary,
    tier: ExecTier,
    images: Images,
) -> (Grid<T>, RunStats) {
    let run = TimeLoop::admit(p, exec, Cow::Borrowed(init), bc, tier).unwrap();
    let run = match images {
        Images::ByRule => run,
        Images::Recomputed => run.recomputing(),
    };
    run.run(p.timesteps).unwrap()
}

/// [`run`] by rule, stepped the way `msc-comm` steps a rank: the loop
/// owns its seed, and every step sweeps every other tile, runs a hook,
/// sweeps the rest and runs the hook again. The hook only checks that it
/// is shown one slot per step.
fn run_in_two_subsets<T: Scalar>(
    p: &StencilProgram,
    exec: &Executor,
    init: &Grid<T>,
    bc: Boundary,
    tier: ExecTier,
) -> (Grid<T>, RunStats) {
    let mut run = TimeLoop::admit(p, exec, Cow::Owned(init.clone()), bc, tier).unwrap();
    let mut odd = false;
    run.split_tiles(|_| {
        odd = !odd;
        odd
    });
    let mut counters = CounterSet::new();
    for _ in 0..p.timesteps {
        let mut shown = vec![];
        let stepped = run.step_with(&mut |_, slot| {
            shown.push(slot);
            Ok(())
        });
        counters.merge(&stepped.unwrap().counters);
        assert!(shown.len() == 2 && shown[0] == shown[1], "{shown:?}");
    }
    assert_eq!(run.steps(), p.timesteps);
    (run.into_state(), RunStats::from_counters(&counters))
}

fn oracle<T: Scalar>(p: &StencilProgram, init: &Grid<T>, bc: Boundary) -> Vec<u64> {
    let interp = ExecTier::Interp;
    bits(
        &run_program_tier(p, &Executor::Reference, init, bc, interp)
            .unwrap()
            .0,
    )
}

/// Direct staging of `p` from `init` on `plan`: every tier × boundary,
/// with kernel images by rule and forced off, against the serial oracle;
/// the two runs of a cell must also count the same.
fn assert_direct<T: Scalar>(name: &str, p: &StencilProgram, init: &Grid<T>, plan: &ExecPlan) {
    let exec = Executor::Tiled(plan.clone());
    for bc in [Boundary::Dirichlet, Boundary::Periodic] {
        let oracle = oracle(p, init, bc);
        for tier in TIERS {
            let cell = format!("{name}: direct x {tier:?} x {bc:?}");
            let (recomputed, same) = run(p, &exec, init, bc, tier, Images::Recomputed);
            assert!(
                bits(&recomputed) == oracle,
                "{cell}, recomputing, differs from the oracle"
            );
            let (by_rule, stats) = run(p, &exec, init, bc, tier, Images::ByRule);
            assert!(
                bits(&by_rule) == oracle,
                "{cell} differs from the serial oracle"
            );
            assert_eq!(
                stats, same,
                "{cell}: reusing images changed what a run counts"
            );
            let (in_two, same) = run_in_two_subsets(p, &exec, init, bc, tier);
            assert!(
                bits(&in_two) == oracle,
                "{cell}, stepped in two tile subsets, differs from the oracle"
            );
            assert_eq!(
                stats, same,
                "{cell}: stepping in two tile subsets changed what a run counts"
            );
            assert_eq!(stats.steps, p.timesteps, "{cell}");
            if p.timesteps > 0 {
                assert_tier_ran(&cell, tier, &stats);
            }
            if bc == Boundary::Dirichlet && p.grid.ndim() >= 2 {
                for depth in 2..=4 {
                    let run = TimeLoop::admit(p, &exec, Cow::Borrowed(init), bc, tier).unwrap();
                    let (waved, same) = run.in_passes_of(depth).run(p.timesteps).unwrap();
                    assert!(
                        bits(&waved) == oracle,
                        "{cell}, {depth} steps per pass, differs from the oracle"
                    );
                    assert_eq!(stats, same, "{cell}: a wavefront changed what a run counts");
                }
            }
        }
    }
}

/// Run `p` from `init` on the serial oracle and on every staging × tier
/// cell it is eligible for (time-block needs a single `t-1` dependency).
fn assert_matrix<T: Scalar>(name: &str, p: &StencilProgram, init: &Grid<T>) {
    let plan = half_tiles(p);
    assert_direct(name, p, init, &plan);
    let oracle = oracle(p, init, Boundary::Dirichlet);
    let spm = Executor::Spm {
        plan: plan.clone(),
        spm_capacity: 1 << 24,
    };
    for tier in TIERS {
        let cell = format!("{name}: spm x {tier:?}");
        let (out, stats) = run_program_tier(p, &spm, init, Boundary::Dirichlet, tier).unwrap();
        assert!(
            bits(&out) == oracle,
            "{cell} differs from the serial oracle"
        );
        assert_tier_ran(&cell, tier, &stats);
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
    assert_matrix(
        "signed zero",
        &p,
        &Grid::<f32>::zeros(&p.grid.shape, &p.grid.halo),
    );
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

/// Row blocks (DESIGN.md §12.1) through whole runs of `p` from `init`,
/// on tiles of 7 rows (a group of 4 and one of 3) by 16: both boundaries,
/// 1 to 3 threads, kernel images by rule and forced off, and each with
/// the block by rule and forced onto every one-term stencil. Every run
/// must match the serial oracle bit for bit and count what the others do.
fn assert_blocks<T: Scalar>(name: &str, p: &StencilProgram, init: &Grid<T>) {
    for bc in [Boundary::Dirichlet, Boundary::Periodic] {
        let oracle = oracle(p, init, bc);
        let mut counted = None;
        for threads in 1..=3 {
            let mut s = Schedule::default();
            s.tile(&[7, 16]);
            s.parallel("xo", threads);
            let exec = Executor::Tiled(ExecPlan::lower(&s, 2, &p.grid.shape).unwrap());
            for images in [Images::ByRule, Images::Recomputed] {
                for forced in [false, true] {
                    let tier = ExecTier::Specialized;
                    let run = TimeLoop::admit(p, &exec, Cow::Borrowed(init), bc, tier).unwrap();
                    let run = match images {
                        Images::ByRule => run,
                        Images::Recomputed => run.recomputing(),
                    };
                    let run = if forced { run.blocking() } else { run };
                    let (out, stats) = run.run(p.timesteps).unwrap();
                    let cell =
                        format!("{name}: {bc:?}, {threads} threads, {images:?}, forced {forced}");
                    assert!(
                        bits(&out) == oracle,
                        "{cell} differs from the serial oracle"
                    );
                    assert_eq!(*counted.get_or_insert(stats), stats, "{cell}");
                }
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn row_blocks_match_the_oracle_at_any_tile_row_count() {
    for id in [BenchmarkId::S2d121ptBox, BenchmarkId::S2d9ptBox] {
        let b = benchmark(id);
        let grid = [13, 40];
        // Two dependencies sweep the kernel's image; one sweeps the
        // stencil itself.
        for p in [
            b.program(&grid, DType::F64, STEPS).unwrap(),
            single_dep(&b, &grid, 0.9),
        ] {
            let name = format!("{} x {} deps", b.name, p.stencil.max_dt());
            assert_blocks::<f64>(&name, &p, &random(&p, 28));
            assert_blocks::<f32>(&name, &p, &random(&p, 29));
        }
    }
    // The rule takes the 121-tap box and not the 9-point one, wherever a
    // block row fills a cache line.
    let wide = crate::specialized::RowKernel::<f64>::widest(false).block_row_bytes() >= 64;
    let rows = |id| {
        let p = benchmark(id).program(&[13, 40], DType::F64, STEPS).unwrap();
        described(&p).contains(", rows 4 at a time, ")
    };
    assert_eq!(rows(BenchmarkId::S2d121ptBox), wide);
    assert!(!rows(BenchmarkId::S2d9ptBox));
}

/// What the banner would say about `p`.
fn described(p: &StencilProgram) -> String {
    let init: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
    TieredStencil::compile(p, &init, ExecTier::Auto)
        .unwrap()
        .describe()
}

/// A lopsided 1D kernel combined over `terms` (`(dt, weight)`, in the
/// order given: `Stencil::new` sorts by `dt`, the executors do not care).
fn hand_program(terms: &[(usize, f64)], steps: usize) -> StencilProgram {
    let k = Kernel::new(
        "K",
        1,
        0.3 * Expr::at("B", &[-2]) + 0.45 * Expr::at("B", &[0]) + 0.25 * Expr::at("B", &[1]),
    )
    .unwrap();
    let depth = terms.iter().map(|t| t.0).max().unwrap();
    let named: Vec<(usize, f64, &str)> = terms.iter().map(|&(dt, w)| (dt, w, "K")).collect();
    let mut p = StencilProgram::builder("hand")
        .grid(SpNode::new("B", DType::F64, &[45], 2, depth + 1).unwrap())
        .kernel(k)
        .combine(&named)
        .timesteps(1)
        .build()
        .unwrap();
    for (term, &(dt, weight)) in p.stencil.terms.iter_mut().zip(terms) {
        (term.dt, term.weight) = (dt, weight);
    }
    // `build()` refuses a zero-step program; the time loop must not.
    p.timesteps = steps;
    p
}

/// Four workers on 12-point tiles, the last one a remainder.
fn plan_1d(p: &StencilProgram, threads: usize) -> ExecPlan {
    let mut s = Schedule::default();
    s.tile(&[12]);
    s.parallel("xo", threads);
    ExecPlan::lower(&s, 1, &p.grid.shape).unwrap()
}

const HAND_TERMS: [&[(usize, f64)]; 6] = [
    // Written deepest first.
    &[(2, 0.4), (1, 0.6)],
    // Three dependencies; the window's oldest image is not the last term.
    &[(3, 0.2), (1, 0.5), (2, 0.3)],
    // A skipped `dt`: the image of `t-2` is kept and never read.
    &[(1, 0.7), (3, 0.3)],
    // No `t-1` term: the fresh image is only read in later steps.
    &[(2, -0.5), (3, 1.25)],
    // One state read twice.
    &[(1, 0.5), (2, 0.25), (2, 0.25)],
    &[(1, 0.6), (2, 0.4)],
];

#[test]
#[cfg_attr(miri, ignore)]
fn kernel_image_reuse_matches_recomputing_on_hand_programs() {
    for terms in HAND_TERMS {
        let depth = terms.iter().map(|t| t.0).max().unwrap();
        // Fewer steps than the window has slots, up to twice round it.
        for steps in 0..=2 * depth + 3 {
            let p = hand_program(terms, steps);
            assert!(
                described(&p).ends_with(", kernel image reused"),
                "{terms:?}"
            );
            let name = format!("{terms:?} x {steps} steps");
            assert_direct::<f64>(&name, &p, &random(&p, 7 + steps as u64), &plan_1d(&p, 4));
            assert_direct::<f32>(&name, &p, &random(&p, 70 + steps as u64), &plan_1d(&p, 4));
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn a_window_restored_from_its_slots_at_any_step_continues_bit_for_bit() {
    // What a checkpoint does: slots out after `taken` steps, slots in to
    // another loop over the same seed, on to the end. The slots carry no
    // tag; `restore` works out from the step which is the state, which an
    // image and which is dead, in every rotation of the window.
    for terms in HAND_TERMS {
        let depth = terms.iter().map(|t| t.0).max().unwrap();
        let steps = 2 * depth + 3;
        let p = hand_program(terms, steps);
        let (init, exec) = (random::<f64>(&p, 11), Executor::Tiled(plan_1d(&p, 2)));
        for bc in [Boundary::Dirichlet, Boundary::Periodic] {
            let oracle = oracle(&p, &init, bc);
            let admit = |images| {
                let seed = Cow::Owned(init.clone());
                let run = TimeLoop::admit(&p, &exec, seed, bc, ExecTier::Auto).unwrap();
                match images {
                    Images::ByRule => run,
                    Images::Recomputed => run.recomputing(),
                }
            };
            for images in [Images::ByRule, Images::Recomputed] {
                for taken in 0..=steps {
                    let mut first = admit(images);
                    for _ in 0..taken {
                        first.step().unwrap();
                    }
                    let slots: Vec<Grid<f64>> = first.slots().into_iter().cloned().collect();
                    assert_eq!(slots.len(), depth + 1);
                    let mut second = admit(images);
                    second.restore(slots, taken).unwrap();
                    assert_eq!(second.layout(), first.layout());
                    assert!(bits(second.state()) == bits(first.state()));
                    let (out, rest) = second.run(steps - taken).unwrap();
                    assert!(
                        bits(&out) == oracle,
                        "{terms:?} {bc:?} {images:?}: restored after {taken} of {steps} steps"
                    );
                    assert_eq!(rest.steps, steps - taken);
                }
            }
            // A window of another size or shape is refused, not misread.
            let mut run = admit(Images::ByRule);
            let short = vec![init.clone(); depth];
            let other = vec![Grid::zeros(&[44], &p.grid.halo); depth + 1];
            for slots in [short, other] {
                let err = run.restore(slots, 1).unwrap_err();
                assert!(matches!(err, MscError::InvalidConfig(_)), "{err}");
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn terms_naming_different_kernels_decline_kernel_images() {
    // The same taps but for one coefficient's last bit.
    let k = |name: &str, c: f64| {
        Kernel::new(
            name,
            1,
            c * Expr::at("B", &[-1]) + 0.5 * Expr::at("B", &[1]),
        )
        .unwrap()
    };
    let p = StencilProgram::builder("two_kernels")
        .grid(SpNode::new("B", DType::F64, &[45], 1, 3).unwrap())
        .kernel(k("a", 0.5))
        .kernel(k("b", f64::from_bits(0.5f64.to_bits() + 1)))
        .combine(&[(1, 0.6, "a"), (2, 0.4, "b")])
        .timesteps(STEPS)
        .build()
        .unwrap();
    let said = described(&p);
    assert!(
        said.ends_with(", kernel recomputed (terms name different kernels)"),
        "{said}"
    );
    assert_direct::<f64>("two kernels", &p, &random(&p, 3), &plan_1d(&p, 4));
    // One dependency leaves nothing to reuse either.
    let said = described(&hand_program(&[(1, 1.0)], 1));
    assert!(
        said.ends_with(", kernel recomputed (one time dependency)"),
        "{said}"
    );
}

#[test]
#[cfg_attr(miri, ignore)]
fn kernel_images_carry_signed_zeros_infinities_and_nan_payloads() {
    // `0 + 1.0 * acc` must hand the combination the very bits of `acc`:
    // the sign of a zero, an infinity, and which NaN it is. Three steps
    // spread a cell over `[x - 3, x + 6]`, so the two NaNs and the
    // infinities (whose difference is a third NaN) never reach one
    // another: an add of two different NaNs keeps the payload of whichever
    // operand the compiler put first, which Rust leaves open and no tier
    // promises.
    fn seeded<T: Scalar>(p: &StencilProgram, nans: [T; 2]) -> Grid<T> {
        let mut init: Grid<T> = random(p, 5);
        let cells = init.as_mut_slice();
        (cells[4], cells[33]) = (nans[0], nans[1]);
        for (at, v) in [
            (12, -0.0),
            (17, f64::INFINITY),
            (18, f64::NEG_INFINITY),
            (27, -0.0),
        ] {
            cells[at] = T::from_f64(v);
        }
        init
    }
    let nans64 = [0x7ff8_0000_0000_0abc, 0xfff8_0000_00de_f000].map(f64::from_bits);
    let nans32 = [0x7fc0_0abc, 0xffc1_def0].map(f32::from_bits);
    for terms in HAND_TERMS {
        let p = hand_program(terms, 3);
        let plan = plan_1d(&p, 4);
        let name = format!("{terms:?}, specials");
        assert_direct(&name, &p, &seeded(&p, nans64), &plan);
        assert_direct(&name, &p, &seeded(&p, nans32), &plan);
        // Both payloads must come out the far end.
        let exec = Executor::Tiled(plan.clone());
        let (out, _) = run_program(&p, &exec, &seeded(&p, nans64)).unwrap();
        for nan in nans64 {
            assert!(
                bits(&out).contains(&nan.to_bits()),
                "{name}: {:#x} lost",
                nan.to_bits()
            );
        }
        // Zeros of either sign under weights of either sign: every
        // product is a signed zero.
        let zeros: Grid<f64> = Grid::zeros(&p.grid.shape, &p.grid.halo);
        assert_direct(&format!("{terms:?}, zeros"), &p, &zeros, &plan);
        let minus: Grid<f64> = Grid::from_fn(&p.grid.shape, &p.grid.halo, |_| -0.0);
        assert_direct(&format!("{terms:?}, minus zeros"), &p, &minus, &plan);
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn kernel_image_reuse_is_the_same_on_any_thread_count() {
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[40, 36], DType::F64, 5)
        .unwrap();
    let init: Grid<f64> = random(&p, 77);
    let runs: Vec<(Vec<u64>, RunStats)> = [1, 2, 7]
        .iter()
        .map(|&threads| {
            let mut s = Schedule::default();
            s.tile(&[8, 12]);
            s.parallel("xo", threads);
            let plan = ExecPlan::lower(&s, 2, &p.grid.shape).unwrap();
            let exec = Executor::Tiled(plan);
            let (out, stats) = run(
                &p,
                &exec,
                &init,
                Boundary::Periodic,
                ExecTier::Auto,
                Images::ByRule,
            );
            (bits(&out), stats)
        })
        .collect();
    assert!(described(&p).ends_with(", kernel image reused"));
    assert_eq!(runs[0].0, oracle(&p, &init, Boundary::Periodic));
    assert!(
        runs.iter().all(|r| r == &runs[0]),
        "thread count changed bits or counts"
    );
}
