//! The traced pass: a per-layer account taken from outside the crates.
//!
//! A layer is a crate. Every number here is timed around a public call,
//! or read from the `RunStats` / `CommStats` / `JobDone` / `ServiceStats`
//! that call already returns. Each workload hands its own inputs to the
//! layers it uses; a layer it never calls is measured on the toy
//! `probe.msc` instead, so every run reports that layer's fixed cost in
//! the same process and no metric is ever "not measured".

use crate::common::{read_input, seeded_grid, Ctx, OUT_DIR};
use crate::compile;
use crate::front::{front, lower, point_updates, same_bits, Front};
use crate::host::{self, Ceilings, THREADS};
use crate::mscd;
use crate::solve::oracle;
use crate::spans::{self, Span};
use crate::stats::{median, quantile_sorted, sorted};
use msc_comm::{run_distributed_resilient, CommStats, RunOptions};
use msc_core::analysis::StencilStats;
use msc_core::dtype::DType;
use msc_core::schedule::{ExecPlan, Target};
use msc_exec::{
    run_program_tier, run_temporal_tiled, Boundary, ExecTier, Executor, Grid, RunStats,
    TieredStencil,
};
use msc_machine::model::Precision;
use msc_trace::Hist;
use std::path::Path;
use std::time::Instant;

/// What the traced main loop of a workload produced.
pub struct MainLoop {
    pub untraced_op_s: Vec<f64>,
    pub traced_op_s: Vec<f64>,
    /// The inner call alone (run call, compile part, ...), tracing off.
    pub untraced_inner_s: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Alternate untraced and traced reps of `body`, which returns
/// `(operation wall, inner call wall)`. "Traced" switches on
/// both the benchmark's span recorder and the program's own `msc-trace`;
/// the ratio of the two medians is `trace.overhead_pct`.
pub fn traced_pairs(
    ctx: &mut Ctx,
    pairs: usize,
    mut body: impl FnMut(&mut Ctx, u64) -> Result<(f64, f64), String>,
) -> Result<MainLoop, String> {
    let mut main = MainLoop {
        untraced_op_s: vec![],
        traced_op_s: vec![],
        untraced_inner_s: vec![],
        spans: vec![],
    };
    msc_trace::reset();
    for pair in 0..pairs {
        // Alternate which side goes first, so drift cancels.
        for side in 0..2 {
            let traced = (pair + side) % 2 == 1;
            ctx.rec.set_on(traced);
            msc_trace::set_enabled(traced);
            let (op_s, inner_s) = body(ctx, (2 * pair + side) as u64)?;
            msc_trace::set_enabled(false);
            ctx.rec.set_on(false);
            if traced {
                main.traced_op_s.push(op_s);
            } else {
                main.untraced_op_s.push(op_s);
                main.untraced_inner_s.push(inner_s);
            }
        }
    }
    main.spans = ctx.rec.take();
    Ok(main)
}

/// What a workload's main loop already knows of the program it hands to
/// an account: the seeded grid, the oracle's answer and how long the
/// oracle took, the untraced walls of the run call, and the stats the
/// last run returned (`RunStats` or `CommStats`).
pub struct Given<S> {
    pub init: Grid<f64>,
    pub expect: Grid<f64>,
    pub oracle_s: f64,
    pub run_s: Vec<f64>,
    pub stats: Option<S>,
}

impl<S> Given<S> {
    /// Seed the grid and ask the oracle, for a program no main loop ran.
    fn fresh(ctx: &Ctx, f: &Front, source: &str) -> Result<Given<S>, String> {
        let init = seeded_grid(&f.program.grid.shape, &f.program.grid.halo, ctx.args.seed);
        let (expect, oracle_s) = oracle(source, &init)?;
        Ok(Given {
            init,
            expect,
            oracle_s,
            run_s: vec![],
            stats: None,
        })
    }
}

/// Which inputs of its own a workload brings to the account. `None`
/// means the layer is not part of the workload and gets `probe.msc`.
pub struct Own<'a> {
    /// Sources the front-end timings (parse, lint, lower, emit) run over.
    pub sources: &'a [String],
    pub run_source: Option<(&'a str, Option<Given<RunStats>>)>,
    pub comm_source: Option<(&'a str, Option<Given<CommStats>>)>,
    pub service_source: Option<&'a str>,
    /// Run the time-tiled executor at 256^3 (the workload itself sweeps a
    /// 3-D grid that size) and not on the toy twin.
    pub full_size_temporal: bool,
}

impl<'a> Own<'a> {
    pub fn probe_only(sources: &'a [String]) -> Own<'a> {
        Own {
            sources,
            run_source: None,
            comm_source: None,
            service_source: None,
            full_size_temporal: false,
        }
    }
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Time a call that may fail; the error is put into words with `what`.
fn timed_ok<T, E: std::fmt::Display>(
    what: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), String> {
    let (r, t) = timed(f);
    r.map(|v| (v, t)).map_err(|e| format!("{what}: {e}"))
}

/// Write the span file and the program's own profile beside it.
fn write_traces(name: &str, main: &MainLoop) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    if !spans::nests(&main.spans) {
        return Err("a child span lies outside its parent".to_string());
    }
    let spans_path = Path::new(OUT_DIR).join(format!("trace_{name}.json"));
    std::fs::write(&spans_path, spans::chrome_trace(&main.spans).to_line())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let profile_path = Path::new(OUT_DIR).join(format!("profile_{name}.json"));
    let profile = msc_trace::Profile::capture(name.to_string());
    std::fs::write(&profile_path, profile.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", profile_path.display()))?;
    msc_trace::reset();
    println!(
        "wrote {} ({} spans) and {}",
        spans_path.display(),
        main.spans.len(),
        profile_path.display()
    );
    Ok(())
}

const SHARE_LAYERS: [&str; 8] = [
    "core", "lint", "tune", "codegen", "exec", "comm", "service", "lift",
];

/// Where the traced operations spent their time, by layer self time.
fn shares(ctx: &mut Ctx, main: &MainLoop) {
    let by_layer = spans::layer_self_ns(&main.spans);
    let in_ops: u64 = by_layer
        .iter()
        .filter(|(l, _)| **l != "verify")
        .map(|(_, ns)| ns)
        .sum();
    let pct = |ns: u64| {
        if in_ops == 0 {
            0.0
        } else {
            100.0 * ns as f64 / in_ops as f64
        }
    };
    for layer in SHARE_LAYERS {
        ctx.set(
            &format!("share.{layer}_pct"),
            pct(by_layer.get(layer).copied().unwrap_or(0)),
        );
    }
    ctx.set(
        "share.op_self_pct",
        pct(by_layer.get("op").copied().unwrap_or(0)),
    );
    println!("span self times (calls, total ms, self ms):");
    for (name, (calls, total, self_ns)) in spans::self_times(&main.spans) {
        println!(
            "  {name:<20} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

/// core / lint / codegen: median per source over the workload's sources.
fn front_account(ctx: &mut Ctx, sources: &[String]) -> Result<(), String> {
    let reps = (200 / sources.len()).max(3);
    let (mut parse, mut lint, mut lower_s, mut emit) = (vec![], vec![], vec![], vec![]);
    let (mut loc, mut bytes) = (0usize, 0usize);
    for rep in 0..reps {
        for source in sources {
            let (parsed, t) = timed(|| msc_core::parse::parse_unchecked(source));
            let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
            parse.push(t);
            let target = parsed.target.unwrap_or(Target::Cpu);
            let (report, t) = timed(|| msc_lint::lint_program(&parsed.program, Some(target)));
            lint.push(t);
            let (plan, t) =
                timed(|| lower(&ctx.rec, 0, &parsed.program, &parsed.program.grid.shape));
            plan?;
            lower_s.push(t);
            let (pkg, t) = timed(|| msc_codegen::compile_to_source(&parsed.program, target));
            emit.push(t);
            let pkg = pkg.map_err(|e| format!("emit: {e}"));
            ctx.tally.note(pkg.is_ok() && !report.has_deny());
            if rep == 0 {
                let pkg = pkg?;
                loc += pkg.total_loc();
                bytes += pkg
                    .file_names()
                    .iter()
                    .filter_map(|f| pkg.file(f))
                    .map(str::len)
                    .sum::<usize>();
            }
        }
    }
    // The planted deny: the verifier must refuse exactly this one.
    let deny = read_input(ctx.args.smoke, "deny.msc")?;
    let denies = sources
        .iter()
        .chain([&deny])
        .filter(|s| front(&ctx.rec, 0, s).is_err())
        .count();
    ctx.tally.note(denies == 1);
    ctx.set("core.parse_us", us(median(&parse)));
    ctx.set("core.lower_us", us(median(&lower_s)));
    ctx.set("lint.lint_us", us(median(&lint)));
    ctx.set("lint.denies", denies as f64);
    ctx.set("codegen.emit_us", us(median(&emit)));
    ctx.set("codegen.loc", loc as f64);
    ctx.set("codegen.bytes", bytes as f64);
    Ok(())
}

fn machine_for(target: Target) -> msc_machine::model::MachineModel {
    match target {
        Target::SunwayCG => msc_machine::presets::sunway_cg(),
        Target::Matrix => msc_machine::presets::matrix_processor(),
        Target::Cpu => msc_machine::presets::xeon_server(),
    }
}

/// One `auto_schedule` call on a parsed program, as `mscc
/// --autoschedule` makes it.
pub fn auto_schedule(rec: &crate::spans::Recorder, op: u64, f: &Front) -> Result<(), String> {
    let (program, target) = (&f.program, f.target);
    let _s = rec.span("tune.autoschedule", op);
    let stats =
        StencilStats::of(&program.stencil, program.grid.dtype).map_err(|e| e.to_string())?;
    msc_tune::auto_schedule(
        &program.grid.shape,
        &stats,
        &program.stencil.reach(),
        program.stencil.kernels[0].points(),
        &machine_for(target),
        target,
        if program.grid.dtype == DType::F32 {
            Precision::Fp32
        } else {
            Precision::Fp64
        },
    )
    .map(|_| ())
    .map_err(|e| format!("auto_schedule: {e}"))
}

fn tune_account(ctx: &mut Ctx, source: &str) -> Result<(), String> {
    let f = front(&ctx.rec, 0, source)?;
    let mut walls = vec![];
    for _ in 0..5 {
        let (r, t) = timed(|| auto_schedule(&ctx.rec, 0, &f));
        ctx.tally.note(r.is_ok());
        r?;
        walls.push(t);
    }
    ctx.set("tune.autoschedule_ms", median(&walls) * 1e3);
    Ok(())
}

fn with_threads(f: &Front, threads: usize) -> Result<ExecPlan, String> {
    let mut sched = f.program.stencil.kernels[0].schedule.clone();
    sched.parallel("xo", threads);
    ExecPlan::lower(&sched, f.program.grid.ndim(), &f.program.grid.shape)
        .map_err(|e| format!("lower: {e}"))
}

/// Scratchpad the SPM executor may use per worker: room for the largest
/// tile any input schedules, halo included.
const SPM_CAPACITY: usize = 4 << 20;

/// vm / exec: the three tiers, the reference loop, one thread against
/// two, the SPM-staged executor, and the rates against the ceilings.
fn exec_account(
    ctx: &mut Ctx,
    source: &str,
    given: Option<Given<RunStats>>,
    ceil: &Ceilings,
) -> Result<(), String> {
    let f = front(&ctx.rec, 0, source)?;
    let updates = point_updates(&f.program);
    let Given {
        init,
        expect,
        oracle_s,
        mut run_s,
        mut stats,
    } = match given {
        Some(g) => g,
        None => Given::fresh(ctx, &f, source)?,
    };
    // Big programs get fewer reps; the tier rates are per-layer numbers
    // without a bound, and a traced run has a time limit to keep.
    let reps = if ctx.args.smoke || updates > 5e7 {
        2
    } else {
        5
    };

    let run = |ctx: &mut Ctx, exec: &Executor, tier: ExecTier| -> Result<(f64, RunStats), String> {
        let ((grid, st), t) = timed_ok("run", || {
            run_program_tier(&f.program, exec, &init, Boundary::Dirichlet, tier)
        })?;
        ctx.tally.note(same_bits(&grid, &expect));
        Ok((t, st))
    };

    // A source scheduled for one thread (a rank's plan, an mscd job) is
    // put on two here: this account is about what the exec layer does
    // with the program, not about the plan the source happened to pin.
    let plan = if f.plan.n_threads >= THREADS {
        f.plan.clone()
    } else {
        with_threads(&f, THREADS)?
    };
    let tiled = Executor::Tiled(plan.clone());
    while run_s.len() < reps {
        let (t, st) = run(ctx, &tiled, ExecTier::Auto)?;
        run_s.push(t);
        stats = Some(st);
    }
    let stats = stats.expect("at least one auto-tier run");
    let auto_s = median(&run_s);
    let rate = |seconds: f64| updates / seconds / 1e6;

    let mut best = rate(auto_s);
    for (tier, name) in [
        (ExecTier::Interp, "interp"),
        (ExecTier::Vm, "vm"),
        (ExecTier::Specialized, "specialized"),
    ] {
        let mut walls = vec![];
        for _ in 0..reps {
            walls.push(run(ctx, &tiled, tier)?.0);
        }
        let r = rate(median(&walls));
        best = best.max(r);
        ctx.set(&format!("exec.{name}_mpoints_per_s"), r);
    }

    let one_thread = Executor::Tiled(with_threads(&f, 1)?);
    let mut walls = vec![];
    for _ in 0..reps {
        walls.push(run(ctx, &one_thread, ExecTier::Auto)?.0);
    }
    let one_thread_s = median(&walls);

    // Two steps of the SPM-staged executor, against its own reference.
    let mut short = f.program.clone();
    short.timesteps = short.timesteps.min(2);
    let (short_expect, _) = run_program_tier(
        &short,
        &Executor::Reference,
        &init,
        Boundary::Dirichlet,
        ExecTier::Interp,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    let spm = Executor::Spm {
        plan: plan.clone(),
        spm_capacity: SPM_CAPACITY,
    };
    let ((spm_grid, _), spm_s) = timed_ok("spm run", || {
        run_program_tier(&short, &spm, &init, Boundary::Dirichlet, ExecTier::Auto)
    })?;
    ctx.tally.note(same_bits(&spm_grid, &short_expect));

    let mut compile_ns = vec![];
    for _ in 0..5 {
        let compiled = TieredStencil::compile(&f.program, &init, ExecTier::Vm)
            .map_err(|e| format!("tier compile: {e}"))?;
        compile_ns.push(compiled.compile_nanos as f64);
    }

    let st =
        StencilStats::of(&f.program.stencil, f.program.grid.dtype).map_err(|e| e.to_string())?;
    let gflops = st.flops_per_point() * updates / auto_s / 1e9;
    // Compulsory traffic only: each live input state read once and the
    // output written once per step. Cache misses are not in it.
    let computed_gb = (st.time_deps + 1) as f64 * 8.0 * updates / auto_s / 1e9;
    let steps = f.program.timesteps as f64;

    ctx.set("vm.compile_us", median(&compile_ns) / 1e3);
    ctx.set("vm.dispatches", stats.vm_dispatches() as f64);
    ctx.set("exec.run_s", auto_s);
    ctx.set("exec.auto_mpoints_per_s", rate(auto_s));
    ctx.set("exec.reference_mpoints_per_s", rate(oracle_s));
    ctx.set("exec.best_tier_gap", best / rate(auto_s));
    ctx.set("exec.thread_speedup", one_thread_s / auto_s);
    ctx.set("exec.tiles", stats.tiles_executed as f64);
    ctx.set("exec.computed_points", stats.computed_points() as f64);
    ctx.set("exec.specialized_rows", stats.specialized_hits() as f64);
    ctx.set("exec.gflops", gflops);
    ctx.set("exec.computed_gb_per_s", computed_gb);
    ctx.set("exec.pct_of_fma_peak", 100.0 * gflops / ceil.fma_gflops);
    ctx.set(
        "exec.pct_of_triad",
        100.0 * computed_gb / ceil.triad_gb_per_s,
    );
    ctx.set(
        "exec.spm_mpoints_per_s",
        updates / steps * short.timesteps as f64 / spm_s / 1e6,
    );
    println!(
        "  exec account on `{}`: {:?} x {} steps, {:.0} flop/point, {} time deps, one thread {:.4} s vs {} threads {:.4} s",
        f.program.name, f.program.grid.shape, f.program.timesteps, st.flops_per_point(), st.time_deps, one_thread_s, plan.n_threads, auto_s
    );
    Ok(())
}

/// The time-tiled executor on the single-dependency 3d7pt: the baseline
/// a time-block staging policy has to beat.
fn temporal_account(ctx: &mut Ctx, full_size: bool) -> Result<(), String> {
    let source = read_input(ctx.args.smoke || !full_size, "temporal3d.msc")?;
    let f = front(&ctx.rec, 0, &source)?;
    let init = seeded_grid(&f.program.grid.shape, &f.program.grid.halo, ctx.args.seed);
    let (expect, _) = oracle(&source, &init)?;
    let ((grid, stats), t) = timed_ok("temporal run", || {
        run_temporal_tiled(&f.program, &f.plan, 4, &init)
    })?;
    ctx.tally.note(same_bits(&grid, &expect));
    ctx.set(
        "exec.temporal_mpoints_per_s",
        point_updates(&f.program) / t / 1e6,
    );
    println!(
        "  temporal account on {:?} x {} steps, tt=4: redundancy {:.3}",
        f.program.grid.shape, f.program.timesteps, stats.redundancy
    );
    Ok(())
}

/// One distributed solve over the process grid the source names, each
/// rank lowering the program's own schedule over its sub-grid.
pub fn run_ranks(
    rec: &crate::spans::Recorder,
    op: u64,
    f: &Front,
    init: &Grid<f64>,
    opts: &RunOptions,
) -> Result<(Grid<f64>, CommStats), String> {
    let procs = f
        .program
        .mpi_grid
        .clone()
        .ok_or("the source names no `mpi` process grid")?;
    let _s = rec.span("comm.run", op);
    run_distributed_resilient(&f.program, &procs, init, Boundary::Dirichlet, opts, |sub| {
        ExecPlan::lower(&f.program.stencil.kernels[0].schedule, sub.len(), sub)
    })
    .map_err(|e| format!("distributed run: {e}"))
}

/// comm: the 2-rank run against the plain 1-thread run of the same
/// problem, halo counts and waits, and the price of a checkpoint.
fn comm_account(
    ctx: &mut Ctx,
    source: &str,
    given: Option<Given<CommStats>>,
) -> Result<(), String> {
    let f = front(&ctx.rec, 0, source)?;
    let Given {
        init,
        expect,
        mut run_s,
        mut stats,
        ..
    } = match given {
        Some(g) => g,
        None => Given::fresh(ctx, &f, source)?,
    };
    let reps = if ctx.args.smoke { 2 } else { 5 };
    let ranks: usize = f
        .program
        .mpi_grid
        .as_ref()
        .map_or(1, |p| p.iter().product());
    let steps = f.program.timesteps;

    let opts = RunOptions::default();
    while run_s.len() < reps {
        let ((grid, st), t) = timed_ok("2-rank run", || run_ranks(&ctx.rec, 0, &f, &init, &opts))?;
        ctx.tally.note(same_bits(&grid, &expect));
        run_s.push(t);
        stats = Some(st);
    }
    let stats = stats.expect("at least one distributed run");
    let ranks_s = median(&run_s);

    // Pack and unpack are timed only by the program's own tracer.
    msc_trace::reset();
    msc_trace::set_enabled(true);
    let traced = run_ranks(&ctx.rec, 0, &f, &init, &opts);
    msc_trace::set_enabled(false);
    let hists = msc_trace::snapshot_hists();
    msc_trace::reset();
    ctx.tally
        .note(traced.is_ok_and(|(g, _)| same_bits(&g, &expect)));

    let serial = Executor::Tiled(with_threads(&f, 1)?);
    let mut walls = vec![];
    for _ in 0..reps {
        let ((grid, _), t) = timed_ok("serial run", || {
            run_program_tier(
                &f.program,
                &serial,
                &init,
                Boundary::Dirichlet,
                ExecTier::Auto,
            )
        })?;
        ctx.tally.note(same_bits(&grid, &expect));
        walls.push(t);
    }
    let serial_s = median(&walls);

    let every = (steps / 4).max(1);
    let snapshots = steps / every;
    let dir = Path::new(OUT_DIR).join(format!("ckpt_{}", std::process::id()));
    let ckpt_opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: every,
        ..RunOptions::default()
    };
    let mut walls = vec![];
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        let ((grid, _), t) = timed_ok("checkpointed run", || {
            run_ranks(&ctx.rec, 0, &f, &init, &ckpt_opts)
        })?;
        ctx.tally.note(same_bits(&grid, &expect));
        walls.push(t);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt_s = median(&walls);

    ctx.set("comm.run_s", ranks_s);
    ctx.set("comm.halo_messages", stats.halo_messages() as f64);
    ctx.set("comm.halo_bytes", stats.halo_bytes() as f64);
    ctx.set("comm.retransmits", stats.retransmits() as f64);
    ctx.set("comm.restarts", stats.restarts as f64);
    ctx.set(
        "comm.halo_wait_p50_us",
        stats.hists.get(Hist::HaloWaitNanos).p50() as f64 / 1e3,
    );
    ctx.set(
        "comm.halo_wait_p99_us",
        stats.hists.get(Hist::HaloWaitNanos).p99() as f64 / 1e3,
    );
    ctx.set(
        "comm.pack_p50_us",
        hists.get(Hist::PackHistNanos).p50() as f64 / 1e3,
    );
    ctx.set(
        "comm.unpack_p50_us",
        hists.get(Hist::UnpackHistNanos).p50() as f64 / 1e3,
    );
    ctx.set(
        "comm.parallel_efficiency",
        serial_s / (ranks as f64 * ranks_s),
    );
    ctx.set(
        "comm.overhead_per_step_us",
        us(ranks_s - serial_s / ranks as f64) / steps as f64,
    );
    ctx.set(
        "comm.checkpoint_ms",
        (ckpt_s - ranks_s) * 1e3 / snapshots as f64,
    );
    println!(
        "  comm account on `{}`: {:?} x {steps} steps over {ranks} ranks {:.4} s, plain 1-thread run {:.4} s, {snapshots} checkpoints {:.4} s",
        f.program.name, f.program.grid.shape, ranks_s, serial_s, ckpt_s
    );
    Ok(())
}

/// lift, and the two halves of a compile pass.
fn pass_account(ctx: &mut Ctx) -> Result<(), String> {
    let inputs = compile::Inputs::load()?;
    let (mut compile_s, mut lift_pass_s, mut lift_s, mut validate_s) =
        (vec![], vec![], vec![], vec![]);
    let mut rejected = 0;
    for pass in 0..(if ctx.args.smoke { 2 } else { 5 }) {
        let (r, t) = timed(|| compile::compile_part(&ctx.rec, pass, &inputs));
        ctx.tally.merge(r?.0);
        compile_s.push(t);
        let (r, t) = timed(|| compile::lift_part(&ctx.rec, pass, &inputs, ctx.args.seed));
        let lifted = r?;
        ctx.tally.merge(lifted.tally);
        lift_pass_s.push(t);
        lift_s.extend(lifted.lift_s);
        validate_s.extend(lifted.validate_s);
        rejected += lifted.tally.failed;
    }
    ctx.set("codegen.compile_pass_ms", median(&compile_s) * 1e3);
    ctx.set("lift.lift_pass_ms", median(&lift_pass_s) * 1e3);
    ctx.set("lift.lift_us", us(median(&lift_s)));
    ctx.set("lift.validate_ms", median(&validate_s) * 1e3);
    ctx.set("lift.rejected", rejected as f64);
    Ok(())
}

/// The whole account. `main` is the workload's own traced loop.
pub fn account(ctx: &mut Ctx, name: &str, main: &MainLoop, own: Own) -> Result<(), String> {
    write_traces(name, main)?;
    shares(ctx, main);
    let untraced = median(&main.untraced_op_s);
    let traced = median(&main.traced_op_s);
    ctx.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    println!(
        "  trace.overhead_pct: traced median {traced:.6} s over untraced {untraced:.6} s, {} pairs",
        main.traced_op_s.len()
    );

    let facts = host::facts();
    let ceil = host::ceilings(&facts, ctx.args.smoke);
    println!(
        "host ceilings: triad {:.2} GB/s on 3 arrays of {} MiB each (last-level cache {} MiB), multiply-add peak {:.2} GF/s, {THREADS} threads",
        ceil.triad_gb_per_s,
        ceil.triad_array_bytes >> 20,
        facts.llc_bytes() >> 20,
        ceil.fma_gflops
    );
    ctx.set("host.triad_gb_per_s", ceil.triad_gb_per_s);
    ctx.set("host.fma_gflops", ceil.fma_gflops);

    let probe = read_input(ctx.args.smoke, "probe.msc")?;
    front_account(ctx, own.sources)?;
    tune_account(ctx, &own.sources[0])?;
    match own.run_source {
        Some((source, given)) => exec_account(ctx, source, given, &ceil)?,
        None => exec_account(ctx, &probe, None, &ceil)?,
    }
    temporal_account(ctx, own.full_size_temporal)?;
    match own.comm_source {
        Some((source, given)) => comm_account(ctx, source, given)?,
        None => comm_account(ctx, &probe, None)?,
    }
    mscd::service_account(ctx, own.service_source.unwrap_or(&probe))?;
    pass_account(ctx)?;
    let tail = sorted(&main.untraced_op_s);
    println!(
        "  main loop, tracing off: op median {:.6} s, max {:.6} s, n={}",
        untraced,
        quantile_sorted(&tail, 1.0),
        tail.len()
    );
    Ok(())
}
