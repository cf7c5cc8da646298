//! Chaos-suite integration tests: the distributed stencil driver must
//! produce **bit-identical** results under injected communication
//! faults (drops, duplicates, reordering, bit corruption), survive a
//! killed rank by restarting from a checkpoint, and report every fault
//! it healed through the trace counters.
//!
//! All fault schedules are seed-driven and deterministic, so these tests
//! are exact, not statistical.

use msc_comm::{
    run_distributed_resilient, Backend, FaultAction, FaultPlan, ReliabilityConfig, RunOptions,
};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::driver::{run_program, run_program_tier, Executor};
use msc_exec::{Boundary, ExecTier, Grid};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn simple_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

/// A lossy-but-recoverable plan: drops, duplicates, reordering, and
/// corruption all at once.
fn lossy_plan(seed: u64) -> Arc<FaultPlan> {
    let mut p = FaultPlan::new(seed);
    p.drop_p = 0.10;
    p.dup_p = 0.05;
    p.delay_p = 0.10;
    p.corrupt_p = 0.05;
    Arc::new(p)
}

/// Faster polls than the defaults so injected drops are re-requested
/// quickly and the suite stays snappy.
fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        poll: Duration::from_millis(2),
        max_attempts: 80,
        ..ReliabilityConfig::default()
    }
}

fn chaos_opts(seed: u64) -> RunOptions {
    RunOptions {
        chaos: Some(lossy_plan(seed)),
        reliability: fast_reliability(),
        ..RunOptions::default()
    }
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msc_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn chaotic_run_is_bit_identical_to_fault_free() {
    // The headline robustness claim: with drops, duplicates, reordering,
    // AND corruption injected into every rank's channels, the reliable
    // runtime heals everything and the result is bitwise equal to both
    // the fault-free distributed run and the single-node reference.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 5)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let (plain, _) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &RunOptions::default(),
        simple_plan,
    )
    .unwrap();
    let (chaotic, stats) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &chaos_opts(1337),
        simple_plan,
    )
    .unwrap();
    assert_eq!(single.as_slice(), chaotic.as_slice());
    assert_eq!(plain.as_slice(), chaotic.as_slice());
    // The chaos must actually have happened — and been healed.
    assert!(stats.faults_injected() > 0, "no faults injected");
    assert!(stats.retransmits() > 0, "no retransmissions recorded");
    assert_eq!(stats.restarts, 0, "recoverable faults must not restart");
}

#[test]
fn chaotic_gcl_backend_is_bit_identical_too() {
    // Same property through the full-neighbor (GCL-style) backend, whose
    // corner messages exercise different tags and message sizes.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[12, 12], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 7);
    let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        backend: Backend::FullNeighbor,
        ..chaos_opts(2024)
    };
    let (chaotic, stats) =
        run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, simple_plan)
            .unwrap();
    assert_eq!(single.as_slice(), chaotic.as_slice());
    assert!(stats.faults_injected() > 0);
}

#[test]
fn same_seed_same_fault_schedule_different_seed_differs() {
    // Determinism of the injector at the system level. What a run
    // *counts* is not deterministic: a receiver that polls before a frame
    // has arrived asks for it again, the retransmit re-rolls its fate
    // with `attempt > 0`, and how often that happens depends on how
    // loaded the machine is. What is deterministic is the fate of every
    // first transmission — a pure function of the seed and the frame's
    // identity — so that is what two runs of the same traffic are
    // compared on: every ordered pair of the 2 x 2 world, the tags of a
    // 2D exchange (`slot << 8 | dim << 1 | dir`, three window slots) and
    // more sequence numbers than 5 steps consume.
    let first_transmissions = |seed: u64| -> Vec<FaultAction> {
        let plan = lossy_plan(seed);
        let mut fates = Vec::new();
        for (src, dst) in (0..4).flat_map(|s| (0..4).map(move |d| (s, d))) {
            for tag in (0..3).flat_map(|slot| (0..4).map(move |face| slot << 8 | face)) {
                fates.extend((0..32).map(|seq| plan.decide(src, dst, tag, seq, 0)));
            }
        }
        fates
    };
    let a = first_transmissions(11);
    assert_eq!(
        a,
        first_transmissions(11),
        "same seed must give the same schedule"
    );
    assert_ne!(a, first_transmissions(12), "different seeds should differ");
    assert!(a.iter().any(|&fate| fate != FaultAction::Deliver));

    // And the runtime heals either schedule to the same bits, having
    // injected something both times.
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 5)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 3);
    let run = |seed: u64| {
        let (out, stats) = run_distributed_resilient(
            &p,
            &[2, 2],
            &init,
            Boundary::Dirichlet,
            &chaos_opts(seed),
            simple_plan,
        )
        .unwrap();
        assert!(stats.faults_injected() > 0, "seed {seed} injected nothing");
        out
    };
    let healed = run(11);
    assert_eq!(healed.as_slice(), run(11).as_slice());
    assert_eq!(healed.as_slice(), run(12).as_slice());
}

#[test]
fn killed_rank_restarts_from_checkpoint_and_matches_golden() {
    // The full story: checkpoints every 2 steps, chaos kills rank 1 at
    // its 4th halo exchange. The driver restarts from the last complete
    // checkpoint and the final state still matches the fault-free
    // single-node golden run bit for bit.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();

    let dir = ckpt_dir("kill_restart");
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        reliability: fast_reliability(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        max_restarts: 2,
        ..RunOptions::default()
    };
    let (out, stats) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &opts,
        simple_plan,
    )
    .unwrap();
    assert_eq!(golden.as_slice(), out.as_slice());
    assert_eq!(stats.restarts, 1, "the kill must have forced one restart");
    assert!(stats.checkpoint_bytes() > 0, "checkpoints must have been written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_without_checkpoints_restarts_from_scratch() {
    // No checkpoint directory: the restart replays from the initial
    // state. Still bit-identical — just more recomputation.
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 21);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(8).with_kill(2, 2))),
        reliability: fast_reliability(),
        ..RunOptions::default()
    };
    let (out, stats) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &opts,
        simple_plan,
    )
    .unwrap();
    assert_eq!(golden.as_slice(), out.as_slice());
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.checkpoint_bytes(), 0);
}

#[test]
fn kill_with_exhausted_restart_budget_is_a_typed_error() {
    // max_restarts = 0: the kill becomes a typed error carried out of the
    // driver — never a panic. (A one-shot kill with budget >= 1 succeeds;
    // with 0 budget the first failure is final.)
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 2);
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(3).with_kill(0, 1))),
        reliability: fast_reliability(),
        max_restarts: 0,
        ..RunOptions::default()
    };
    let err = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &opts,
        simple_plan,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("communication failure"), "{msg}");
}

#[test]
fn periodic_chaos_run_matches_periodic_single_node() {
    // Torus topology + chaos: wraparound self-messages go through the
    // same injector and reliability protocol.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[12, 12], DType::F64, 3)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 51);
    let (single, _) = run_program_tier(
        &p,
        &Executor::Reference,
        &init,
        Boundary::Periodic,
        ExecTier::Auto,
    )
    .unwrap();
    let (multi, _) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Periodic,
        &chaos_opts(77),
        simple_plan,
    )
    .unwrap();
    assert_eq!(single.as_slice(), multi.as_slice());
}

#[test]
fn default_options_are_a_plain_run() {
    // With no chaos and no checkpoints the door is the plain driver: the
    // reference's bits, halo messages only, no protocol overhead.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 5)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let (res, res_stats) = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &RunOptions::default(),
        simple_plan,
    )
    .unwrap();
    assert_eq!(single.as_slice(), res.as_slice());
    assert_eq!(res_stats.halo_messages(), res_stats.messages);
    assert_eq!(res_stats.faults_injected(), 0);
    assert_eq!(res_stats.retransmits(), 0);
    assert_eq!(res_stats.restarts, 0);
}

#[test]
fn checkpoint_files_use_grid_format_and_resume_step() {
    // The checkpoint store's on-disk artifacts are plain MSCGRID1 files;
    // after a run with --checkpoint-every style options the directory
    // holds complete, loadable snapshots.
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 5)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 10);
    let dir = ckpt_dir("format");
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..RunOptions::default()
    };
    run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, simple_plan)
        .unwrap();
    let store = msc_comm::CheckpointStore::new(&dir, 4).unwrap();
    let latest = store.latest_complete().expect("a complete checkpoint");
    assert_eq!(latest, 4, "steps 2 and 4 checkpointed; 4 is latest");
    // Every slot of every rank loads as a well-formed grid.
    for rank in 0..4 {
        let grids: Vec<Grid<f64>> = store.load_rank(latest, rank, 2).unwrap();
        assert_eq!(grids.len(), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_timeout_dumps_flight_recorder_json() {
    // Observability v2: when the reliability protocol gives up on a
    // message (here: every frame dropped, tiny retry budget), the
    // always-on flight recorder is dumped as JSON naming the failing
    // (src, dst, tag) identity alongside the surrounding send traffic.
    let dir = std::env::temp_dir().join("msc_chaos_flight_timeout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    msc_trace::set_flight_dump_dir(Some(dir.clone()));

    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 3)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 6);
    let mut plan = FaultPlan::new(9);
    plan.drop_p = 1.0; // nothing ever arrives, resends included
    let opts = RunOptions {
        chaos: Some(Arc::new(plan)),
        reliability: ReliabilityConfig {
            poll: Duration::from_millis(1),
            max_attempts: 4,
            ..ReliabilityConfig::default()
        },
        max_restarts: 0,
        ..RunOptions::default()
    };
    let err = run_distributed_resilient(
        &p,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &opts,
        simple_plan,
    )
    .unwrap_err();
    msc_trace::set_flight_dump_dir(None);
    assert!(err.to_string().contains("communication failure"), "{err}");

    // At least one rank must have written a timeout-slugged dump whose
    // JSON carries the timeout event plus the sends that never landed.
    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight_") && n.contains("timeout"))
        })
        .collect();
    assert!(!dumps.is_empty(), "no flight dump written to {}", dir.display());
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    assert!(body.contains("\"reason\": \"timeout\""), "{body}");
    assert!(body.contains("\"kind\": \"timeout\""), "{body}");
    assert!(body.contains("\"kind\": \"send\""), "{body}");
    for field in ["\"src\":", "\"dst\":", "\"tag\":", "\"seq\":"] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spm_staged_chaos_run_is_bit_identical() {
    // Chaos composed with the SPM/DMA execution path: reliability and
    // the staged executor are orthogonal.
    let p = benchmark(BenchmarkId::S3d7ptStar)
        .program(&[12, 12, 16], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 44);
    let (single, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        spm_capacity: Some(1 << 20),
        ..chaos_opts(4321)
    };
    let (multi, stats) =
        run_distributed_resilient(&p, &[2, 1, 2], &init, Boundary::Dirichlet, &opts, simple_plan)
            .unwrap();
    assert_eq!(single.as_slice(), multi.as_slice());
    assert!(stats.faults_injected() > 0);
    assert!(stats.dma_get_bytes() > 0, "SPM path must still run");
}

#[test]
fn the_lint_gate_covers_every_backend_and_staging() {
    // An unchecked-built program whose halo is narrower than its reach
    // used to reach the rank loop through the backend/SPM entry point,
    // which had no lint gate. Those two are options of the one door now,
    // so the typed MSC-L deny comes back before `make_plan` is asked for
    // a plan — i.e. before any rank is spawned.
    let b = benchmark(BenchmarkId::S2d9ptStar); // reach 2
    let narrow = StencilProgram::builder("narrow")
        .grid_2d("B", DType::F64, [16, 16], 1, 2)
        .kernel(b.kernel())
        .combine(&[(1, 1.0, b.name)])
        .timesteps(2)
        .build_unchecked()
        .unwrap();
    let init: Grid<f64> = Grid::zeros(&narrow.grid.shape, &narrow.grid.halo);
    let opts = RunOptions {
        backend: Backend::FullNeighbor,
        spm_capacity: Some(1 << 20),
        ..RunOptions::default()
    };
    let plans_made = AtomicUsize::new(0);
    let err = run_distributed_resilient(
        &narrow,
        &[2, 2],
        &init,
        Boundary::Dirichlet,
        &opts,
        |sub| {
            plans_made.fetch_add(1, Ordering::Relaxed);
            simple_plan(sub)
        },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("lint rejected"), "{msg}");
    assert!(msg.contains("MSC-L101"), "{msg}");
    assert_eq!(plans_made.load(Ordering::Relaxed), 0, "the rank loop ran");
}
