//! Chaos-suite integration tests: the distributed stencil driver must
//! produce **bit-identical** results when the injector reorders frames
//! (holds them back behind their successors), survive a killed rank by
//! restarting from a checkpoint, report every injected fault through the
//! trace counters, and leave a flight-recorder dump behind a wait that
//! gives up.
//!
//! All fault schedules are seed-driven and deterministic, so these tests
//! are exact, not statistical.

use msc_comm::{
    run_distributed_resilient, Backend, CommError, FaultPlan, RankCtx, RunOptions, World,
    WorldConfig,
};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::driver::{run_program, run_program_tier, Executor};
use msc_exec::{Boundary, ExecTier, Grid};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn simple_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

/// A reordering plan: a tenth of the data frames are held back behind
/// their successors.
fn reordering_plan(seed: u64) -> Arc<FaultPlan> {
    let mut p = FaultPlan::new(seed);
    p.delay_p = 0.10;
    Arc::new(p)
}

fn chaos_opts(seed: u64) -> RunOptions {
    RunOptions {
        chaos: Some(reordering_plan(seed)),
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
    // The headline robustness claim: with frames reordered in every
    // rank's channels, matching by (source, tag) puts every face where it
    // belongs and the result is bitwise equal to both the fault-free
    // distributed run and the single-node reference.
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
    // The chaos must actually have happened — and cost nothing.
    assert!(stats.faults_injected() > 0, "no faults injected");
    assert_eq!(stats.restarts, 0, "reordering must not restart");
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
    // Determinism of the injector at the system level: the fate of every
    // frame is a pure function of the seed and the frame's identity, so
    // two runs of the same traffic are compared on it — every ordered
    // pair of the 2 x 2 world, the tags of a 2D exchange (`slot << 8 |
    // dim << 1 | dir`, three window slots) and more sequence numbers than
    // 5 steps consume.
    let fates = |seed: u64| -> Vec<bool> {
        let plan = reordering_plan(seed);
        let mut fates = Vec::new();
        for (src, dst) in (0..4).flat_map(|s| (0..4).map(move |d| (s, d))) {
            for tag in (0..3).flat_map(|slot| (0..4).map(move |face| slot << 8 | face)) {
                fates.extend((0..32).map(|seq| plan.delays(src, dst, tag, seq)));
            }
        }
        fates
    };
    let a = fates(11);
    assert_eq!(a, fates(11), "same seed must give the same schedule");
    assert_ne!(a, fates(12), "different seeds should differ");
    assert!(a.iter().any(|&delayed| delayed));

    // And either schedule runs to the same bits, having injected
    // something both times.
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
    // same injector.
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
fn a_wait_past_its_deadline_dumps_the_flight_recorder_as_json() {
    // Observability v2: when a wait on a live source gives up at the
    // world's deadline, the always-on flight recorder is dumped as JSON
    // naming the failing (src, dst, tag) identity alongside the send
    // traffic around it.
    let dir = std::env::temp_dir().join("msc_chaos_flight_timeout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    msc_trace::set_flight_dump_dir(Some(dir.clone()));

    let cfg = WorldConfig {
        deadline: Duration::from_millis(20),
        ..WorldConfig::default()
    };
    let gave_up = AtomicBool::new(false);
    let results = World::try_run_with(2, cfg, |mut ctx: RankCtx<f64>| {
        let peer = 1 - ctx.rank;
        ctx.isend(peer, 7, vec![1.0]).unwrap();
        let sent = ctx.irecv(peer, 7);
        ctx.wait(sent).unwrap();
        // Rank 1 waits on a tag rank 0 never sends; rank 0 stays in the
        // fabric until rank 1 gave up, so the wait times out instead of
        // finding a dead source.
        let waited = if ctx.rank == 1 {
            let never = ctx.irecv(0, 99);
            let err = ctx.wait(never).err();
            gave_up.store(true, Ordering::Release);
            err
        } else {
            while !gave_up.load(Ordering::Acquire) {
                ctx.service_for(Duration::from_millis(1)).unwrap();
            }
            None
        };
        ctx.finalize();
        waited
    })
    .unwrap();
    msc_trace::set_flight_dump_dir(None);
    assert!(
        matches!(results[1], Some(CommError::Timeout { src: 0, tag: 99, .. })),
        "{results:?}"
    );

    // Rank 1 must have written a timeout-slugged dump whose JSON carries
    // the timeout event plus the send traffic before it.
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
    // Chaos composed with the SPM/DMA execution path: the injector and
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
