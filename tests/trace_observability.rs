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
