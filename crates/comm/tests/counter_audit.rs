//! Counter-accounting audit for the distributed driver: every metric in
//! the gathered [`CommStats`] must be fed by exactly one sink. The
//! executors/exchanger bump a per-rank `CounterSet` (merged at gather)
//! *and* mirror into the process-global trace banks when tracing is
//! enabled — two parallel sinks, and each must see a value exactly once.
//!
//! This file is its own test binary on purpose: the global trace banks
//! are process-wide, so the tracing-enabled assertions below would race
//! any concurrently running test that also records counters.

use msc_comm::{run_distributed_resilient, Backend, CartDecomp, CommStats, HaloPlan, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{run_program_tier, Boundary, ExecTier, Executor, Grid, TieredStencil};
use msc_machine::model::Precision;
use msc_sim::DistributedConfig;
use msc_trace::Counter;
use std::sync::Mutex;

/// Tests in this binary still run on parallel threads; the trace banks
/// are process-global, so every test takes this lock.
static BANK_LOCK: Mutex<()> = Mutex::new(());

fn plan_halves(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

const RANKS: usize = 2;
const STEPS: usize = 2;

fn run(opts: &RunOptions) -> (Grid<f64>, CommStats) {
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[8, 8], DType::F64, STEPS)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
    run_distributed_resilient(&p, &[RANKS, 1], &init, Boundary::Dirichlet, opts, plan_halves)
        .unwrap()
}

/// Tiles each rank's plan yields per step: sub-grid [4, 8], tile [2, 4].
const TILES_PER_RANK_PER_STEP: u64 = (4 / 2) * (8 / 4);
const TRUE_TILES: u64 = RANKS as u64 * STEPS as u64 * TILES_PER_RANK_PER_STEP;

#[test]
fn merged_stats_count_each_tile_exactly_once() {
    let _g = BANK_LOCK.lock().unwrap();
    // Overlap on (default) and off must both account every tile once.
    for overlap in [true, false] {
        let opts = RunOptions {
            overlap,
            ..RunOptions::default()
        };
        let (_, stats) = run(&opts);
        assert_eq!(
            stats.tiles_executed(),
            TRUE_TILES,
            "overlap={overlap}: merged RunStats tile counter"
        );
        assert_eq!(stats.counters.get(Counter::Steps), STEPS as u64);
        assert_eq!(stats.counters.get(Counter::Ranks), RANKS as u64);
    }
}

#[test]
fn global_trace_sink_counts_each_tile_exactly_once() {
    let _g = BANK_LOCK.lock().unwrap();
    // The mirror sink: with tracing enabled, the process-global banks
    // must also see each tile exactly once (not once per sink).
    for overlap in [true, false] {
        msc_trace::reset_counters();
        msc_trace::set_enabled(true);
        let opts = RunOptions {
            overlap,
            ..RunOptions::default()
        };
        let (_, stats) = run(&opts);
        msc_trace::set_enabled(false);
        let snap = msc_trace::snapshot();
        assert_eq!(
            snap.get(Counter::TilesExecuted),
            TRUE_TILES,
            "overlap={overlap}: global trace tile counter"
        );
        // Halo traffic mirrors 1:1 as well.
        assert_eq!(
            snap.get(Counter::HaloMessages),
            stats.halo_messages(),
            "overlap={overlap}: global trace halo messages"
        );
        if overlap {
            assert!(snap.get(Counter::OverlapNanos) > 0, "overlap window recorded");
        }
    }
}

#[test]
fn checkpoint_bytes_match_files_on_disk() {
    let _g = BANK_LOCK.lock().unwrap();
    // CheckpointBytes is fed once per save: the merged counter must
    // equal the bytes actually sitting in the checkpoint directory.
    let dir = std::env::temp_dir().join("msc_counter_audit_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..RunOptions::default()
    };
    let (_, stats) = run(&opts);
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "grid"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(disk_bytes > 0, "checkpoints were written");
    assert_eq!(stats.checkpoint_bytes(), disk_bytes);
    assert!(stats.counters.get(Counter::CheckpointNanos) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 2d9pt star kernel over `t-1` and `t-2` on 8x8: the catalog program
/// (`recomputed: false`), or with the `t-2` term naming a kernel of the
/// same footprint and other coefficients — the rule's decline for terms
/// that name different kernels, and the only way to put a direct-staged
/// run on the recomputing step from outside the crate.
fn two_dependency_program(recomputed: bool) -> StencilProgram {
    let b = benchmark(BenchmarkId::S2d9ptStar);
    if !recomputed {
        return b.program(&[8, 8], DType::F64, 4).unwrap();
    }
    #[rustfmt::skip]
    let arms = [[0, 0], [-2, 0], [-1, 0], [1, 0], [2, 0], [0, -2], [0, -1], [0, 1], [0, 2]];
    let mut taps = arms.iter().map(|off| 0.11 * Expr::at("B", off));
    let first = taps.next().unwrap();
    let other = Kernel::new("other", 2, taps.fold(first, |sum, tap| sum + tap)).unwrap();
    StencilProgram::builder("two_kernels")
        .grid_2d("B", DType::F64, [8, 8], b.radius, 3)
        .kernel(b.kernel())
        .kernel(other)
        .combine(&[(1, 0.6, b.name), (2, 0.4, "other")])
        .timesteps(4)
        .build()
        .unwrap()
}

#[test]
fn reusing_kernel_images_counts_what_recomputing_counts_on_ranks_and_on_one_node() {
    let _g = BANK_LOCK.lock().unwrap();
    let counted = |recomputed: bool| {
        let p = two_dependency_program(recomputed);
        let sub: Grid<f64> = Grid::zeros(&[4, 8], &p.grid.halo);
        let said = TieredStencil::compile(&p, &sub, ExecTier::Auto)
            .unwrap()
            .describe();
        let clause = match recomputed {
            true => ", kernel recomputed (terms name different kernels)",
            false => ", kernel image reused",
        };
        assert!(said.ends_with(clause), "{said}");
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
        let opts = RunOptions::default();
        let (ranks, stats) = run_distributed_resilient(
            &p,
            &[RANKS, 1],
            &init,
            Boundary::Dirichlet,
            &opts,
            plan_halves,
        )
        .unwrap();
        // One node under the ranks' tile shape: the same tiles, rows and
        // points, in one sweep instead of two per rank.
        let mut s = Schedule::default();
        s.tile(&[2, 4]);
        let whole = Executor::Tiled(ExecPlan::lower(&s, 2, &p.grid.shape).unwrap());
        let (node, node_stats) =
            run_program_tier(&p, &whole, &init, Boundary::Dirichlet, ExecTier::Auto).unwrap();
        assert_eq!(ranks.as_slice(), node.as_slice());
        let on_ranks = [
            Counter::TilesExecuted,
            Counter::ComputedPoints,
            Counter::SpecializedHits,
            Counter::HaloMessages,
            Counter::HaloBytes,
        ]
        .map(|c| stats.counters.get(c));
        assert!(on_ranks.iter().all(|&n| n > 0), "{on_ranks:?}");
        let on_node = [
            node_stats.tiles_executed,
            node_stats.computed_points(),
            node_stats.specialized_hits(),
        ];
        assert_eq!(on_ranks[..3], on_node, "recomputed: {recomputed}");
        on_ranks
    };
    assert_eq!(counted(false), counted(true));
}

#[test]
fn a_run_counts_the_plans_volume_and_the_simulator_charges_the_busiest_ranks() {
    let _g = BANK_LOCK.lock().unwrap();
    const STEPS: usize = 4;
    // The benchmark's `halo2r` decomposition first.
    for (id, global, procs) in [
        (BenchmarkId::S3d7ptStar, vec![64, 64, 64], vec![2, 1, 1]),
        (BenchmarkId::S3d7ptStar, vec![16, 16, 16], vec![2, 2, 2]),
        (BenchmarkId::S2d9ptStar, vec![18, 18], vec![3, 3]), // reach 2
    ] {
        let p = benchmark(id).program(&global, DType::F64, STEPS).unwrap();
        let reach = p.stencil.reach();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 5);
        for bc in [Boundary::Dirichlet, Boundary::Periodic] {
            let decomp = CartDecomp::new(&global, &procs, &reach)
                .unwrap()
                .with_periodicity(&vec![bc == Boundary::Periodic; global.len()])
                .unwrap();
            for backend in [Backend::DimOrdered, Backend::FullNeighbor] {
                let per_rank: Vec<(usize, usize)> = (0..decomp.n_ranks())
                    .map(|r| HaloPlan::new(&decomp, r, backend).volume())
                    .collect();
                let opts = RunOptions {
                    backend,
                    ..RunOptions::default()
                };
                let (_, stats) =
                    run_distributed_resilient(&p, &procs, &init, bc, &opts, plan_halves).unwrap();
                // Every step but the last publishes its state once.
                let exchanges = (STEPS - 1) as u64;
                let (msgs, elems) = per_rank
                    .iter()
                    .fold((0, 0), |sum, v| (sum.0 + v.0 as u64, sum.1 + v.1 as u64));
                let ctx = format!("{procs:?} {bc:?} {backend:?}");
                assert_eq!(stats.halo_messages(), exchanges * msgs, "{ctx}");
                assert_eq!(stats.halo_bytes(), exchanges * elems * 8, "{ctx}");

                if (bc, backend) == (Boundary::Dirichlet, Backend::DimOrdered) {
                    // What the simulator and the tuner's model charge a
                    // step: the rank no other rank out-sends.
                    let sim = DistributedConfig {
                        decomp: decomp.clone(),
                        prec: Precision::Fp64,
                    };
                    let most = per_rank.iter().max_by_key(|v| v.1).unwrap();
                    assert!(per_rank.iter().all(|v| v.0 <= most.0), "{ctx}");
                    assert_eq!(sim.halo_volume(), (most.0, (most.1 * 8) as f64), "{ctx}");
                    if procs == [2, 1, 1] {
                        // `halo2r` runs 400 steps: 798 messages, 26 148 864 B.
                        assert_eq!(per_rank, [(1, 4096), (1, 4096)]);
                        assert_eq!((399 * msgs, 399 * elems * 8), (798, 26_148_864));
                    }
                }
            }
        }
    }
}
