//! Online rank-recovery integration tests: a rank killed mid-run must be
//! healed *in place* — its departure makes it a suspect, a hot
//! spare adopts the dead rank's subdomain from its buddy's diskless
//! snapshot, survivors roll back to the same generation — and the final
//! grid must be **bit-identical** to the fault-free single-node run,
//! with zero world restarts.
//!
//! Fault schedules are seed-driven and deterministic; only the detection
//! *latency* is wall-clock dependent, never the recovered numerics.

use msc_comm::{run_distributed_resilient, Backend, FaultPlan, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::{MscError, Result};
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::driver::{run_program, run_program_tier, Executor};
use msc_exec::{Boundary, ExecTier, Grid};
use msc_trace::Hist;
use std::path::PathBuf;
use std::sync::Arc;

fn simple_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msc_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill rank 1 at its 4th exchange in a 2x2 world with one hot spare and
/// diskless buddy checkpoints every 2 steps, under the given execution
/// tier. Returns (result, stats) — callers assert the recovery contract.
fn run_killed_with_spare(tier: ExecTier) -> (Grid<f64>, msc_comm::CommStats, Grid<f64>) {
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        checkpoint_every: 2, // no checkpoint_dir: purely diskless
        spare_ranks: 1,
        tier,
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
    (out, stats, golden)
}

fn assert_online_recovery(out: &Grid<f64>, stats: &msc_comm::CommStats, golden: &Grid<f64>) {
    assert_eq!(
        golden.as_slice(),
        out.as_slice(),
        "recovered grid must be bit-identical to the fault-free run"
    );
    assert_eq!(stats.restarts, 0, "online recovery must not restart the world");
    assert!(stats.recoveries >= 1, "the kill must have been healed online");
    assert!(stats.rank_recoveries() >= 1, "recovery counter must fire");
    assert!(stats.buddy_bytes() > 0, "buddy replication must have run");
    assert!(
        stats.hists.get(Hist::DetectLatencyNanos).count() >= 1,
        "detection latency must land in the histogram"
    );
}

#[test]
fn spare_adopts_killed_rank_interp_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Interp);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn spare_adopts_killed_rank_vm_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Vm);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn spare_adopts_killed_rank_specialized_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Specialized);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn kill_before_first_snapshot_recovers_from_initial_state() {
    // The rank dies before any buddy generation exists: the recovery
    // source degrades to the initial state, every rank replays from
    // step 0, and the result is still bit-exact.
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 21);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(8).with_kill(2, 1))),
        spare_ranks: 1,
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
    assert_eq!(stats.restarts, 0);
    assert!(stats.recoveries >= 1);
    assert_eq!(stats.checkpoint_bytes(), 0, "no disk store configured");
}

#[test]
fn a_plain_world_falls_back_to_disk_restart() {
    // No spare, so no membership layer: the kill is a `RankDead` that
    // fails the attempt, and the driver falls back to the classic
    // checkpoint restart — still bit-exact, and the two counters stay
    // distinct: restarts == 1, recoveries == 0.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 13);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let dir = ckpt_dir("no_spare_fallback");
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
    assert_eq!(stats.restarts, 1, "no spare: the kill must force a restart");
    assert_eq!(stats.recoveries, 0, "nothing was healed online");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_composes_with_channel_chaos() {
    // The full gauntlet: reordering in every channel, plus a kill healed
    // by a hot spare. The injector and the recovery protocol are
    // orthogonal layers; the result must still be bit-exact with zero
    // restarts.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let mut plan = FaultPlan::new(1337).with_kill(3, 3);
    plan.delay_p = 0.05;
    let opts = RunOptions {
        chaos: Some(Arc::new(plan)),
        checkpoint_every: 2,
        spare_ranks: 1,
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
    assert_eq!(stats.restarts, 0);
    assert!(stats.recoveries >= 1);
    assert!(stats.faults_injected() > 0, "the chaos must have happened");
}

#[test]
fn two_spares_survive_repeated_runs_deterministically() {
    // Determinism of the recovered numerics: the same seeded kill healed
    // twice produces the same bits both times (wall-clock detection
    // latency varies; the grid must not).
    let run = || run_killed_with_spare(ExecTier::Auto);
    let (a, sa, golden) = run();
    let (b, sb, _) = run();
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(a.as_slice(), golden.as_slice());
    assert!(sa.recoveries >= 1 && sb.recoveries >= 1);
}

/// Where a healed run's window comes from.
#[derive(Debug, Clone, Copy)]
enum HealedFrom {
    /// A hot spare adopts the buddy's in-memory snapshot; survivors rewind
    /// to their own.
    Buddy,
    /// No spare: the world restarts and every rank loads the disk store.
    Disk,
}

/// The 2d9pt box kernel over `t-1 ..= t-depth` on 16x16 for 7 steps; at
/// depth 2 it is the catalog program.
fn box_over(depth: usize) -> StencilProgram {
    let b = benchmark(BenchmarkId::S2d9ptBox);
    if depth == 2 {
        return b.program(&[16, 16], DType::F64, 7).unwrap();
    }
    let terms: Vec<(usize, f64, &str)> = (1..=depth)
        .map(|dt| (dt, 1.0 / depth as f64, b.name))
        .collect();
    StencilProgram::builder("box_deep")
        .grid_2d("B", DType::F64, [16, 16], b.radius, depth + 1)
        .kernel(b.kernel())
        .combine(&terms)
        .timesteps(7)
        .build()
        .unwrap()
}

/// `p` over a 2x2 world with rank 1 killed at its `kill_at`-th exchange,
/// snapshots every `every` steps; the healed result, checked against the
/// single-node run.
fn heal(
    p: &StencilProgram,
    from: HealedFrom,
    (every, kill_at): (usize, u64),
    backend: Backend,
    bc: Boundary,
    spm_capacity: Option<usize>,
) -> (Grid<f64>, msc_comm::CommStats) {
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 31);
    let dir = ckpt_dir(&format!(
        "images_{}_{from:?}_{every}_{backend:?}_{bc:?}_{}",
        p.name,
        spm_capacity.is_some()
    ));
    let opts = RunOptions {
        backend,
        spm_capacity,
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, kill_at))),
        checkpoint_every: every,
        ..match from {
            HealedFrom::Buddy => RunOptions {
                spare_ranks: 1,
                ..RunOptions::default()
            },
            HealedFrom::Disk => RunOptions {
                checkpoint_dir: Some(dir.clone()),
                max_restarts: 2,
                ..RunOptions::default()
            },
        }
    };
    let healed = run_distributed_resilient(p, &[2, 2], &init, bc, &opts, simple_plan).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let whole = Executor::Tiled(simple_plan(&p.grid.shape).unwrap());
    let (single, _) = run_program_tier(p, &whole, &init, bc, ExecTier::Auto).unwrap();
    assert_eq!(
        single.as_slice(),
        healed.0.as_slice(),
        "{}, {from:?}, every {every}, {backend:?}, {bc:?}, spm {spm_capacity:?}",
        p.name
    );
    healed
}

#[test]
fn a_kill_heals_into_a_window_that_holds_kernel_images() {
    // The catalog program is `0.6*S[t-1] + 0.4*S[t-2]`, so a rank's
    // window holds the newest state, one kernel image and one dead slot,
    // and which slot plays which role rotates with the step. A snapshot
    // after step 1 still carries the seed's image, the ones after steps 2
    // and 3 complete the rotation; the kill lands one exchange later, so
    // that snapshot is what the heal restores. At depth 2 a step finds
    // both images where it writes (the fresh one, the dying one); at depth
    // 3 it reads one from a slot the restore had to tag as an image. SPM
    // staging keeps a window of states: the same run on the recomputing
    // step.
    for depth in [2, 3] {
        let p = box_over(depth);
        let probe: Grid<f64> = Grid::zeros(&[8, 8], &[1, 1]);
        let said = msc_exec::TieredStencil::compile(&p, &probe, ExecTier::Auto)
            .unwrap()
            .describe();
        assert!(said.ends_with(", kernel image reused"), "{said}");
        for from in [HealedFrom::Buddy, HealedFrom::Disk] {
            for every in 1..=depth + 1 {
                for backend in [Backend::DimOrdered, Backend::FullNeighbor] {
                    for bc in [Boundary::Dirichlet, Boundary::Periodic] {
                        let at = (every, every as u64 + 1);
                        let (reused, stats) = heal(&p, from, at, backend, bc, None);
                        let (recomputed, _) = heal(&p, from, at, backend, bc, Some(1 << 20));
                        assert_eq!(reused.as_slice(), recomputed.as_slice());
                        let cell = format!("depth {depth}, every {every}, {backend:?}, {bc:?}");
                        match from {
                            HealedFrom::Buddy => {
                                assert_eq!(stats.restarts, 0, "{cell}");
                                assert!(stats.recoveries >= 1, "{cell}");
                                assert!(stats.buddy_bytes() > 0, "{cell}");
                            }
                            HealedFrom::Disk => {
                                assert_eq!(stats.restarts, 1, "{cell}");
                                assert_eq!(stats.recoveries, 0, "{cell}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_spare_adopts_an_image_holding_window_from_the_disk_store() {
    // A one-rank world has no buddy, so the membership layer sends the
    // adopting spare to the disk store: `RecoverySource::Disk`, online.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[12, 12], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 17);
    for bc in [Boundary::Dirichlet, Boundary::Periodic] {
        let whole = Executor::Tiled(simple_plan(&p.grid.shape).unwrap());
        let (single, _) = run_program_tier(&p, &whole, &init, bc, ExecTier::Auto).unwrap();
        let dir = ckpt_dir(&format!("images_online_disk_{bc:?}"));
        let opts = RunOptions {
            chaos: Some(Arc::new(FaultPlan::new(3).with_kill(0, 3))),
                checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            spare_ranks: 1,
                ..RunOptions::default()
        };
        let (out, stats) =
            run_distributed_resilient(&p, &[1, 1], &init, bc, &opts, simple_plan).unwrap();
        assert_eq!(single.as_slice(), out.as_slice(), "{bc:?}");
        assert_eq!(stats.restarts, 0, "{bc:?}");
        assert!(stats.recoveries >= 1, "{bc:?}");
        assert_eq!(stats.buddy_bytes(), 0, "a lone rank replicates to nobody");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_checkpoint_written_under_the_other_window_layout_is_refused_not_misread() {
    // A run resumes from whatever complete generation its directory holds,
    // on the first attempt too. The slot files carry no tag, so a window
    // of states (SPM staging) read as state + kernel images (direct
    // staging), or the reverse, would be a wrong grid; the marker says
    // which it is and the other kind of run gets a typed error instead.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 8);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let staged = |spm_capacity, dir: &PathBuf| {
        let opts = RunOptions {
            spm_capacity,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..RunOptions::default()
        };
        run_distributed_resilient(&p, &[2, 2], &init, Boundary::Dirichlet, &opts, simple_plan)
    };
    for (wrote, resumed, said) in [
        (Some(1 << 20), None, ["window states", "keeps images"]),
        (None, Some(1 << 20), ["window images", "keeps states"]),
    ] {
        let dir = ckpt_dir(&format!("layout_{}", wrote.is_some()));
        let (out, _) = staged(wrote, &dir).unwrap();
        assert_eq!(golden.as_slice(), out.as_slice());
        let err = staged(resumed, &dir).unwrap_err();
        assert!(
            matches!(&err, MscError::InvalidConfig(why) if said.iter().all(|s| why.contains(s))),
            "{err}"
        );
        // The staging that wrote it picks it up where it stopped.
        let (out, stats) = staged(wrote, &dir).unwrap();
        assert_eq!(golden.as_slice(), out.as_slice());
        assert_eq!(stats.restarts, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
