//! Differential test of the sessioned telemetry plane (DESIGN.md §14):
//! running the same program through the legacy process-global trace API
//! and through an explicit [`TelemetryHub`] must be observationally
//! identical — bit-identical grids and the same deterministic counter
//! totals — across every execution tier. The hub refactor is pure
//! plumbing; it must never perturb what gets computed or counted.
//!
//! [`TelemetryHub`]: msc::trace::TelemetryHub

use msc::exec::driver::run_program_tier;
use msc::prelude::*;
use msc::trace::{Counter, CounterSet};
use std::sync::{Arc, Mutex};

/// Serialize against the process-global tracer (the legacy arm).
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn program() -> StencilProgram {
    StencilProgram::builder("hubdiff")
        .grid_3d("B", DType::F64, [16, 16, 16], 1, 2)
        .kernel(Kernel::star_normalized("S", 3, 1))
        .timesteps(5)
        .build()
        .unwrap()
}

fn tiled_executor(p: &StencilProgram) -> Executor {
    let mut s = msc::core::schedule::Schedule::default();
    s.tile(&[8, 8, 16]);
    s.parallel("xo", 2);
    let plan = msc::core::schedule::ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap();
    Executor::Tiled(plan)
}

/// The counters a run must reproduce exactly regardless of which hub
/// observed it. Timing counters (`ns` unit), scheduler-dependent pool
/// traffic and the window slots a run allocated (none once an earlier run
/// of its layout left its slots behind) vary run to run; everything else
/// is deterministic.
fn deterministic_totals(set: &CounterSet) -> Vec<(Counter, u64)> {
    set.iter()
        .filter(|(c, _)| c.unit() != "ns")
        .filter(|(c, _)| {
            !matches!(
                c,
                Counter::PoolSteals
                    | Counter::PoolParks
                    | Counter::PoolUnparks
                    | Counter::FreshSlots
            )
        })
        .collect()
}

#[test]
fn explicit_hub_matches_legacy_global_api_across_tiers() {
    let _g = TRACE_LOCK.lock().unwrap();
    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 7);
    let exec = tiled_executor(&p);

    for tier in [
        msc::exec::ExecTier::Interp,
        msc::exec::ExecTier::Vm,
        msc::exec::ExecTier::Specialized,
    ] {
        // Legacy arm: the process-global default hub via free functions.
        msc::trace::reset();
        msc::trace::set_enabled(true);
        let (grid_legacy, stats_legacy) =
            run_program_tier(&p, &exec, &init, Boundary::Dirichlet, tier).unwrap();
        msc::trace::set_enabled(false);
        let legacy = msc::trace::snapshot();
        msc::trace::reset();

        // Sessioned arm: an explicit hub installed on this thread; the
        // worker pool must inherit it, and the default hub must stay
        // untouched.
        let hub = msc::trace::TelemetryHub::new();
        hub.set_enabled(true);
        let (grid_hub, stats_hub, sessioned) = {
            let _install = msc::trace::install_thread_hub(Arc::clone(&hub));
            let (g, s) = run_program_tier(&p, &exec, &init, Boundary::Dirichlet, tier).unwrap();
            (g, s, hub.snapshot())
        };
        let leaked = msc::trace::snapshot();
        assert!(
            leaked.is_zero(),
            "{tier:?}: sessioned run leaked into the default hub: {leaked:?}"
        );

        assert_eq!(
            grid_legacy.as_slice(),
            grid_hub.as_slice(),
            "{tier:?}: grids differ between legacy and hub observation"
        );
        assert_eq!(stats_legacy, stats_hub, "{tier:?}: run stats differ");
        assert_eq!(
            deterministic_totals(&legacy),
            deterministic_totals(&sessioned),
            "{tier:?}: deterministic counter totals differ"
        );
        // And the run actually exercised the tier under both hubs.
        match tier {
            msc::exec::ExecTier::Vm => {
                assert!(sessioned.get(Counter::VmDispatches) > 0, "vm tier inert")
            }
            msc::exec::ExecTier::Specialized => {
                assert!(
                    sessioned.get(Counter::SpecializedHits) > 0,
                    "specialized inert"
                )
            }
            _ => assert!(sessioned.get(Counter::TilesExecuted) > 0),
        }
    }
}

#[test]
fn concurrent_hubs_do_not_cross_talk() {
    // Two sessioned runs in parallel threads, each with its own hub:
    // both see exactly their own deterministic totals. This is the
    // property the process-global API could never offer.
    let p = program();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 13);
    let run = |steps_scale: usize| {
        let p = StencilProgram::builder("iso")
            .grid_3d("B", DType::F64, [16, 16, 16], 1, 2)
            .kernel(Kernel::star_normalized("S", 3, 1))
            .timesteps(steps_scale)
            .build()
            .unwrap();
        let exec = tiled_executor(&p);
        let hub = msc::trace::TelemetryHub::new();
        hub.set_enabled(true);
        let _g = msc::trace::install_thread_hub(Arc::clone(&hub));
        run_program(&p, &exec, &init).unwrap();
        hub.snapshot()
    };
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(3));
        let tb = s.spawn(|| run(6));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a.get(Counter::Steps), 3);
    assert_eq!(b.get(Counter::Steps), 6);
    assert_eq!(
        b.get(Counter::ComputedPoints),
        2 * a.get(Counter::ComputedPoints)
    );
}
