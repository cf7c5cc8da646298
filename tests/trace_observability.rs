//! Tier-1 guarantees of the tracing subsystem (ISSUE: msc-trace):
//!
//! 1. With tracing *disabled* (the default), running the full pipeline
//!    mutates no global trace state — counters stay zero and no spans are
//!    recorded — so production runs pay only a relaxed atomic load.
//! 2. Results are bit-identical whether tracing is enabled or not:
//!    observation must never perturb the numerics.
//!
//! Overhead is asserted through counter/span *state*, not wall-clock,
//! so the test is deterministic on any machine.

use msc::prelude::*;
use msc::trace::{Counter, Profile};
use std::sync::Mutex;

/// All tests in this binary touch the process-global tracer.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn program() -> StencilProgram {
    StencilProgram::builder("obs")
        .grid_3d("B", DType::F64, [16, 16, 16], 1, 3)
        .kernel(Kernel::star_normalized("S", 3, 1))
        .combine(&[(1, 0.6, "S"), (2, 0.4, "S")])
        .timesteps(4)
        .build()
        .unwrap()
}

fn tiled_executor(p: &StencilProgram) -> Executor {
    let mut s = msc::core::schedule::Schedule::default();
    s.tile(&[8, 8, 16]);
    s.parallel("xo", 4);
    let plan =
        msc::core::schedule::ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap();
    Executor::Tiled(plan)
}

#[test]
fn disabled_tracing_mutates_no_global_state() {
    let _g = TRACE_LOCK.lock().unwrap();
    msc::trace::reset();
    assert!(!msc::trace::enabled());

    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);
    let (_, stats) = run_program(&p, &tiled_executor(&p), &init).unwrap();
    // The local stats view still works with tracing off...
    assert_eq!(stats.steps, 4);
    assert!(stats.tiles_executed > 0);

    // ...but the global tracer saw nothing at all.
    let prof = Profile::capture("after-disabled-run");
    assert!(
        prof.counters.is_zero(),
        "disabled run leaked counters: {:?}",
        prof.counters
    );
    assert!(
        prof.spans.is_empty(),
        "disabled run recorded {} spans",
        prof.spans.len()
    );
    assert_eq!(prof.dropped_spans, 0);
}

#[test]
fn tracing_does_not_perturb_results() {
    let _g = TRACE_LOCK.lock().unwrap();
    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);

    msc::trace::reset();
    let (cold, cold_stats) = run_program(&p, &tiled_executor(&p), &init).unwrap();

    msc::trace::set_enabled(true);
    let (hot, hot_stats) = run_program(&p, &tiled_executor(&p), &init).unwrap();
    msc::trace::set_enabled(false);

    // Bit-identical output and identical headline stats either way.
    assert_eq!(cold.as_slice(), hot.as_slice());
    assert_eq!(cold_stats, hot_stats);

    // The traced run produced a real profile agreeing with the stats.
    let prof = Profile::capture("traced-run");
    assert_eq!(prof.get(Counter::Steps), 4);
    assert_eq!(prof.get(Counter::TilesExecuted), hot_stats.tiles_executed);
    assert!(prof.spans.iter().any(|s| s.name == "step"));
    assert!(prof.timeline_ns() > 0);
    msc::trace::reset();
}

#[test]
fn distributed_stats_survive_with_tracing_disabled() {
    let _g = TRACE_LOCK.lock().unwrap();
    msc::trace::reset();
    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 11);
    let (_, stats) = run_distributed_resilient(
        &p,
        &[2, 1, 2],
        &init,
        Boundary::Dirichlet,
        &RunOptions::default(),
        |sub| {
            let mut s = msc::core::schedule::Schedule::default();
            let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
            s.tile(&tile);
            s.parallel("xo", 2);
            msc::core::schedule::ExecPlan::lower(&s, sub.len(), sub)
        },
    )
    .unwrap();
    // CommStats ride on per-rank counter sets, not the global tracer:
    // halo traffic is visible even though tracing is off...
    assert!(stats.halo_messages() > 0);
    assert!(stats.halo_bytes() > 0);
    assert_eq!(stats.halo_messages(), stats.messages);
    // ...and the global tracer still saw nothing.
    let prof = Profile::capture("after-distributed");
    assert!(prof.counters.is_zero());
    assert!(prof.spans.is_empty());
}

/// How many times `run` linted a program: spans named `lint`, on every
/// thread the tracer saw while it ran.
fn lints_during(run: impl FnOnce()) -> usize {
    msc::trace::reset();
    msc::trace::set_enabled(true);
    run();
    msc::trace::set_enabled(false);
    let spans = Profile::capture("lints").spans;
    msc::trace::reset();
    spans.iter().filter(|s| s.name == "lint").count()
}

#[test]
fn a_run_lints_its_program_once() {
    use msc::comm::{FaultPlan, HeartbeatConfig};
    use std::sync::Arc;

    let _g = TRACE_LOCK.lock().unwrap();
    let p = msc::core::catalog::benchmark(msc::core::catalog::BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();

    // A 2x2 world with checkpoints on disk (so the checkpoint layout is
    // probed) and a spare that adopts rank 1 when it is killed: the door,
    // the probe, four ranks and the adoption each admit a time loop.
    let dir = std::env::temp_dir().join(format!("msc_one_lint_{}", std::process::id()));
    // A kill fires once per plan, so every run gets its own.
    let opts = || RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        spare_ranks: 1,
        heartbeat: Some(HeartbeatConfig::from_millis(5).unwrap()),
        ..RunOptions::default()
    };
    let halves = |sub: &[usize]| {
        let mut s = msc::core::schedule::Schedule::default();
        let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
        s.tile(&tile);
        s.parallel("xo", 2);
        msc::core::schedule::ExecPlan::lower(&s, sub.len(), sub)
    };
    let healed = |ran: msc::core::error::Result<(Grid<f64>, msc::comm::CommStats)>| {
        let (out, stats) = ran.unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(out.as_slice(), golden.as_slice());
        assert!(stats.recoveries >= 1, "the spare must have adopted rank 1");
    };
    let bare = lints_during(|| {
        healed(run_distributed_resilient(
            &p,
            &[2, 2],
            &init,
            Boundary::Dirichlet,
            &opts(),
            halves,
        ))
    });
    assert_eq!(bare, 1, "a bare program is checked once, at the door");
    let checked = msc::lint::check(&p, None).unwrap();
    let passed = lints_during(|| {
        healed(run_distributed_resilient(
            &checked,
            &[2, 2],
            &init,
            Boundary::Dirichlet,
            &opts(),
            halves,
        ))
    });
    assert_eq!(passed, 0, "a checked program is never linted again");

    let single = lints_during(|| {
        let exec = Executor::Tiled(halves(&p.grid.shape).unwrap());
        run_program_tier(&p, &exec, &init, Boundary::Dirichlet, ExecTier::Auto).unwrap();
    });
    assert_eq!(single, 1);

    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/lift/jacobi2d.c"
    ))
    .unwrap();
    let lifted = msc::lift::lift_source(&source, "jacobi2d").lifted.unwrap();
    let validated = lints_during(|| {
        let v = msc::lift::validate(&lifted, &msc::lift::DEFAULT_SEEDS).unwrap();
        assert_eq!((v.seeds.len(), v.tiers), (3, 3));
    });
    assert_eq!(validated, 1, "nine validation runs share one check");
}
