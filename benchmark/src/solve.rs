//! `stream3d`, `dense2d` and `halo2r`: what someone running
//! `mscc file.msc --run` waits for. One operation is source text in,
//! result grid out. A source that names an `mpi` process grid is solved
//! over that grid, one thread per rank, with the default `RunOptions`
//! (overlap on, no chaos, no checkpoints); any other on one node with
//! the two-thread plan it pins.

use crate::common::{read_input, seeded_grid, Ctx, Reps};
use crate::front::{front, point_updates, same_bits};
use crate::layers::{self, run_ranks, Given, Own};
use crate::spans::Recorder;
use crate::stats::quiet;
use msc_comm::{CommStats, RunOptions};
use msc_exec::{run_program_tier, Boundary, ExecTier, Executor, Grid, RunStats};
use std::time::Instant;

enum Stats {
    Node(Box<RunStats>),
    Ranks(Box<CommStats>),
}

struct Solved {
    grid: Grid<f64>,
    stats: Stats,
    /// Wall of the run call alone.
    run_s: f64,
    /// Wall of the whole operation, text to grid.
    op_s: f64,
}

impl Solved {
    /// Bit-identical to the oracle; and on a fault-free distributed run
    /// no restart or retransmit may hide behind a correct grid.
    fn ok(&self, expect: &Grid<f64>) -> bool {
        same_bits(&self.grid, expect)
            && match &self.stats {
                Stats::Node(_) => true,
                Stats::Ranks(s) => s.restarts == 0 && s.retransmits() == 0,
            }
    }
}

/// One operation: parse -> lint -> lower -> `run_program_tier`, or
/// parse -> lint -> `run_distributed_resilient` (each rank lowers).
fn solve(rec: &Recorder, op: u64, source: &str, init: &Grid<f64>) -> Result<Solved, String> {
    let t0 = Instant::now();
    let _op = rec.span("op.solve", op);
    let f = front(rec, op, source)?;
    let t_run = Instant::now();
    let (grid, stats) = if f.program.mpi_grid.is_some() {
        let (grid, stats) = run_ranks(rec, op, &f, init, &RunOptions::default())?;
        (grid, Stats::Ranks(Box::new(stats)))
    } else {
        let _s = rec.span("exec.run", op);
        let exec = Executor::Tiled(f.plan);
        let (grid, stats) =
            run_program_tier(&f.program, &exec, init, Boundary::Dirichlet, ExecTier::Auto)
                .map_err(|e| format!("run: {e}"))?;
        (grid, Stats::Node(Box::new(stats)))
    };
    Ok(Solved {
        grid,
        stats,
        run_s: t_run.elapsed().as_secs_f64(),
        op_s: t0.elapsed().as_secs_f64(),
    })
}

/// The oracle: the naive serial loop nest on the same program and seed,
/// computed once and never timed as part of an operation.
pub fn oracle(source: &str, init: &Grid<f64>) -> Result<(Grid<f64>, f64), String> {
    let f = front(&Recorder::new(), 0, source)?;
    let t0 = Instant::now();
    let (grid, _) = run_program_tier(
        &f.program,
        &Executor::Reference,
        init,
        Boundary::Dirichlet,
        ExecTier::Interp,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    Ok((grid, t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &mut Ctx, name: &str) -> Result<(), String> {
    let file = format!("{name}.msc");
    let setups = if ctx.args.smoke || ctx.args.trace {
        1
    } else {
        5
    };
    let mut setup_s = Vec::new();
    let mut first = None;
    for k in 0..setups {
        let t0 = Instant::now();
        let source = read_input(ctx.args.smoke, &file)?;
        let f = front(&ctx.rec, 0, &source)?;
        let init = seeded_grid(&f.program.grid.shape, &f.program.grid.halo, ctx.args.seed);
        let cold = solve(&ctx.rec, k, &source, &init)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        first.get_or_insert((source, f, init, cold));
    }
    let (source, f, init, cold) = first.expect("at least one set-up ran");
    let updates = point_updates(&f.program);
    let live_mb = f.program.grid.time_window as f64 * init.as_slice().len() as f64 * 8.0 / 1e6;
    println!(
        "{name}: grid {:?} x {} steps, {} window slots live = {live_mb:.1} MB, {}",
        f.program.grid.shape,
        f.program.timesteps,
        f.program.grid.time_window,
        match &f.program.mpi_grid {
            Some(procs) => format!("ranks {procs:?}, one thread per rank"),
            None => format!(
                "plan {} tiles on {} threads",
                f.plan.num_tiles(),
                f.plan.n_threads
            ),
        }
    );

    let (expect, oracle_s) = oracle(&source, &init)?;
    ctx.info("oracle_s", oracle_s, "s");
    ctx.tally.note(cold.ok(&expect));
    drop(cold);

    // One discarded rep; from here on caches and the worker pool are warm.
    let warm = solve(&ctx.rec, 0, &source, &init)?;
    ctx.tally.note(warm.ok(&expect));
    let est = warm.op_s;
    drop(warm);

    if ctx.args.trace {
        let pairs = if ctx.args.smoke {
            2
        } else {
            ((ctx.args.seconds / (2.0 * est)) as usize).clamp(3, 8)
        };
        let mut last = None;
        let main = layers::traced_pairs(ctx, pairs, |ctx, op| {
            let s = solve(&ctx.rec, op, &source, &init)?;
            let ok = {
                let _v = ctx.rec.span("verify.compare", op);
                s.ok(&expect)
            };
            ctx.tally.note(ok);
            last = Some(s.stats);
            Ok((s.op_s, s.run_s))
        })?;
        let grid = &f.program.grid;
        let full_size_temporal = grid.ndim() == 3 && grid.shape.iter().all(|&n| n >= 256);
        let run_s = main.untraced_inner_s.clone();
        let mut own = Own {
            run_source: Some((&source, None)),
            full_size_temporal,
            ..Own::probe_only(std::slice::from_ref(&source))
        };
        // A distributed workload hands what it knows to the comm account;
        // the exec account then sees the same whole grid on one node.
        match last.expect("at least one traced pair ran") {
            Stats::Node(st) => {
                let stats = Some(*st);
                own.run_source = Some((
                    &source,
                    Some(Given {
                        init,
                        expect,
                        oracle_s,
                        run_s,
                        stats,
                    }),
                ));
            }
            Stats::Ranks(st) => {
                let stats = Some(*st);
                own.comm_source = Some((
                    &source,
                    Some(Given {
                        init,
                        expect,
                        oracle_s,
                        run_s,
                        stats,
                    }),
                ));
            }
        }
        return layers::account(ctx, name, &main, own);
    }

    let reps = Reps::new(&ctx.args, 5, 3);
    let (mut op_s, mut run_s) = (Vec::new(), Vec::new());
    while reps.more(op_s.len()) {
        let s = solve(&ctx.rec, op_s.len() as u64, &source, &init)?;
        ctx.tally.note(s.ok(&expect));
        op_s.push(s.op_s);
        run_s.push(s.run_s);
    }
    // Million point updates per second over the run call alone.
    ctx.set_end_to_end(&setup_s, &op_s, updates / quiet(&run_s) / 1e6);
    Ok(())
}
