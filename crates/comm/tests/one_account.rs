//! One account per run: everything a distributed run counts is counted
//! once, in the account a step or a rank returns, and the telemetry hub
//! is fed by publishing that account — so a session hub and the gathered
//! [`CommStats`] must agree counter for counter and bucket for bucket.
//! The only differences allowed are the counts no account carries (the
//! worker pool's and compile time, hub only) and the two `CommStats` sets
//! itself (run-global steps and rank count).

use msc_comm::{run_distributed_resilient, Backend, CommStats, FaultPlan, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{Boundary, ExecTier, Grid, TieredStencil};
use msc_trace::{Counter, CounterSet, Hist, TelemetryHub};
use std::sync::Arc;

/// Written to the hub outside any account.
const HUB_ONLY: [Counter; 5] = [
    Counter::PoolSteals,
    Counter::PoolParks,
    Counter::PoolUnparks,
    Counter::BarrierWaitNanos,
    Counter::VmCompileNanos,
];

/// Set by the gather, not summed over ranks.
const RUN_GLOBAL: [Counter; 2] = [Counter::Steps, Counter::Ranks];

fn plan_halves(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

/// The catalog program of `id` (two time dependencies on one kernel: a
/// directly staged rank keeps kernel images) and the same kernel over
/// `t-1` alone (one time dependency: every step recomputes).
fn programs(id: BenchmarkId, shape: &[usize]) -> [StencilProgram; 2] {
    let b = benchmark(id);
    let reusing = b.program(shape, DType::F64, 5).unwrap();
    let recomputing = StencilProgram::builder("one_dependency")
        .grid(SpNode::new("B", DType::F64, shape, b.radius, 2).unwrap())
        .kernel(b.kernel())
        .combine(&[(1, 1.0, b.name)])
        .timesteps(5)
        .build()
        .unwrap();
    [reusing, recomputing]
}

/// `p` over `procs` with a fresh enabled session hub: the run's stats and
/// what the hub saw.
fn observed(
    p: &StencilProgram,
    procs: &[usize],
    opts: RunOptions,
) -> (CommStats, Arc<TelemetryHub>) {
    let hub = TelemetryHub::new();
    hub.set_enabled(true);
    let opts = RunOptions {
        hub: Some(Arc::clone(&hub)),
        ..opts
    };
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 31);
    let (_, stats) =
        run_distributed_resilient(p, procs, &init, Boundary::Dirichlet, &opts, plan_halves)
            .unwrap();
    (stats, hub)
}

/// Every counter but the hub-only and run-global ones.
fn accounted(set: &CounterSet) -> Vec<(&'static str, u64)> {
    set.iter()
        .filter(|(c, _)| !HUB_ONLY.contains(c) && !RUN_GLOBAL.contains(c))
        .map(|(c, v)| (c.name(), v))
        .collect()
}

#[test]
fn the_hub_is_the_runs_own_account_counter_for_counter_and_bucket_for_bucket() {
    for (id, shape, procs) in [
        (BenchmarkId::S3d7ptStar, vec![8, 8, 12], vec![2, 1, 2]),
        (BenchmarkId::S2d9ptBox, vec![12, 16], vec![2, 2]),
    ] {
        let sub: Vec<usize> = shape.iter().zip(&procs).map(|(n, p)| n / p).collect();
        for (p, reuses) in programs(id, &shape).iter().zip([true, false]) {
            // The two programs put a directly staged rank on both steps.
            let probe: Grid<f64> = Grid::zeros(&sub, &p.grid.halo);
            let said = TieredStencil::compile(p, &probe, ExecTier::Auto)
                .unwrap()
                .describe();
            assert_eq!(said.ends_with("kernel image reused"), reuses, "{said}");
            for backend in [Backend::DimOrdered, Backend::FullNeighbor] {
                for spm_capacity in [None, Some(1 << 20)] {
                    let opts = RunOptions {
                        backend,
                        spm_capacity,
                        ..RunOptions::default()
                    };
                    let (stats, hub) = observed(p, &procs, opts);
                    let ctx = format!("{} {procs:?} {backend:?} spm {spm_capacity:?}", p.name);
                    let seen = hub.snapshot();
                    assert_eq!(accounted(&seen), accounted(&stats.counters), "{ctx}");
                    assert_eq!(hub.snapshot_hists(), stats.hists, "{ctx}");
                    // Pack and unpack once reached the hub only, and without
                    // traffic the comparison above would pass vacuously.
                    for c in [
                        Counter::PackNanos,
                        Counter::UnpackNanos,
                        Counter::HaloMessages,
                    ] {
                        assert!(stats.counters.get(c) > 0, "{ctx}: {}", c.name());
                    }
                    let ranks = procs.iter().product::<usize>() as u64;
                    for (h, n) in [
                        (Hist::StepWallNanos, ranks * 5),
                        (Hist::PackHistNanos, stats.halo_messages()),
                        (Hist::UnpackHistNanos, stats.halo_messages()),
                    ] {
                        assert_eq!(stats.hists.get(h).count(), n, "{ctx}: {}", h.name());
                    }
                    assert_eq!(seen.get(Counter::Steps), ranks * 5, "{ctx}: rank-steps");
                }
            }
        }
    }
}

#[test]
fn a_killed_attempts_faults_and_timeouts_still_reach_the_hub() {
    let [p, _] = programs(BenchmarkId::S2d9ptBox, &[12, 16]);
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::parse("1:delay=0.3,kill=1@3").unwrap())),
        ..RunOptions::default()
    };
    let (stats, hub) = observed(&p, &[2, 2], opts);
    assert_eq!(stats.restarts, 1, "the kill must have cost one attempt");
    let seen = hub.snapshot();
    for c in [Counter::FaultsInjected, Counter::TimeoutCount] {
        assert!(seen.get(c) >= stats.counters.get(c), "{}", c.name());
    }
    // The attempt the kill ended injected faults the gathered stats no
    // longer hold; the hub still does.
    assert!(stats.faults_injected() > 0);
    assert!(seen.get(Counter::FaultsInjected) > stats.faults_injected());
}
